//! Certificate Revocation Lists (RFC 5280 §5): model, DER codec, builder,
//! and simulated signing — the substrate for the §5.2 CRL-spoofing threat
//! experiment.

use crate::certificate::{encode_signed, AlgorithmIdentifier};
use crate::name::DistinguishedName;
use crate::sign::SimKey;
use unicert_asn1::tag::{tags, Tag};
use unicert_asn1::{BitString, DateTime, Error, Reader, Result, Span, Writer};

/// One revoked-certificate entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevokedCert {
    /// Serial number magnitude.
    pub serial: Vec<u8>,
    /// Revocation date.
    pub revocation_date: DateTime,
}

/// The to-be-signed certificate list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertList {
    /// CRL issuer.
    pub issuer: DistinguishedName,
    /// thisUpdate.
    pub this_update: DateTime,
    /// nextUpdate (optional in the standard; always emitted here).
    pub next_update: DateTime,
    /// Revoked entries, in serial order.
    pub revoked: Vec<RevokedCert>,
}

/// A complete, signed CRL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateList {
    /// TBS portion.
    pub tbs: TbsCertList,
    /// Signature algorithm.
    pub signature_algorithm: AlgorithmIdentifier,
    /// Signature bits.
    pub signature: BitString,
    /// Raw DER of the whole list: the one stored copy of its encoding.
    pub raw: Vec<u8>,
    /// Where the TBS sits in `raw`.
    tbs_span: Span,
}

fn write_time(w: &mut Writer, dt: &DateTime) {
    w.write_time(dt);
}

fn parse_time(r: &mut Reader<'_>) -> Result<DateTime> {
    let tlv = r.read_tlv()?;
    match tlv.tag {
        t if t == tags::UTC_TIME => DateTime::from_utc_time(tlv.value),
        t if t == tags::GENERALIZED_TIME => DateTime::from_generalized(tlv.value),
        found => Err(Error::TagMismatch { expected: tags::UTC_TIME, found }),
    }
}

impl TbsCertList {
    /// Encode to DER (v2).
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_to(&mut w);
        w.into_bytes()
    }

    fn write_to(&self, w: &mut Writer) {
        w.write_sequence(|w| {
            w.write_u64(1); // version v2
            AlgorithmIdentifier::sim_signature().write_to(w);
            self.issuer.write_to(w);
            write_time(w, &self.this_update);
            write_time(w, &self.next_update);
            if !self.revoked.is_empty() {
                w.write_sequence(|w| {
                    for entry in &self.revoked {
                        w.write_sequence(|w| {
                            w.write_unsigned_integer(&entry.serial);
                            write_time(w, &entry.revocation_date);
                        });
                    }
                });
            }
        });
    }

    fn parse(r: &mut Reader<'_>) -> Result<TbsCertList> {
        r.read_sequence(|tbs| {
            // version (optional INTEGER).
            if tbs.peek_tag() == Some(tags::INTEGER) {
                let _ = tbs.read_tlv()?;
            }
            // signature AlgorithmIdentifier.
            tbs.read_sequence(|alg| {
                let _ = alg.read_all()?;
                Ok(())
            })?;
            let issuer = DistinguishedName::parse(tbs)?;
            let this_update = parse_time(tbs)?;
            let next_update = parse_time(tbs)?;
            let mut revoked = Vec::new();
            if tbs.peek_tag() == Some(tags::SEQUENCE) {
                tbs.read_sequence(|list| {
                    while !list.is_empty() {
                        let entry = list.read_sequence(|e| {
                            let serial_tlv = e.read_expected(tags::INTEGER)?;
                            let serial =
                                unicert_asn1::integer::unsigned_magnitude(serial_tlv.value)?
                                    .to_vec();
                            let revocation_date = parse_time(e)?;
                            // Entry extensions ignored.
                            let _ = e.read_all()?;
                            Ok(RevokedCert { serial, revocation_date })
                        })?;
                        revoked.push(entry);
                    }
                    Ok(())
                })?;
            }
            // crlExtensions [0] ignored.
            let _ = tbs.read_optional(Tag::context_constructed(0))?;
            Ok(TbsCertList { issuer, this_update, next_update, revoked })
        })
    }
}

impl CertificateList {
    /// Build and sign a CRL. The TBS is encoded once, into the buffer that
    /// becomes `raw`, and signed there.
    pub fn build(tbs: TbsCertList, key: &SimKey) -> CertificateList {
        let signature_algorithm = AlgorithmIdentifier::sim_signature();
        let (raw, tbs_span, signature) = encode_signed(
            |w| tbs.write_to(w),
            &signature_algorithm,
            |tbs_der| BitString::from_bytes(&key.sign(tbs_der)),
        );
        CertificateList { tbs, signature_algorithm, signature, raw, tbs_span }
    }

    /// Parse a CRL from DER.
    pub fn parse_der(der: &[u8]) -> Result<CertificateList> {
        let mut r = Reader::new(der);
        let crl = r.read_sequence(|c| {
            let tbs_tlv = c.read_expected(tags::SEQUENCE)?;
            let tbs_span = Span::within(der, tbs_tlv.raw).unwrap_or_default();
            let mut tbs_reader = Reader::new(tbs_tlv.raw);
            let tbs = TbsCertList::parse(&mut tbs_reader)?;
            tbs_reader.finish()?;
            let signature_algorithm = {
                let tlv = c.read_expected(tags::SEQUENCE)?;
                let mut inner = tlv.contents();
                let oid_tlv = inner.read_expected(tags::OBJECT_IDENTIFIER)?;
                let algorithm = unicert_asn1::Oid::from_der_value(oid_tlv.value)?;
                let parameters =
                    if inner.is_empty() { None } else { Some(inner.read_tlv()?.raw.to_vec()) };
                AlgorithmIdentifier { algorithm, parameters }
            };
            let sig_tlv = c.read_expected(tags::BIT_STRING)?;
            let signature = BitString::from_der_value(sig_tlv.value)?;
            Ok(CertificateList { tbs, signature_algorithm, signature, raw: der.to_vec(), tbs_span })
        })?;
        r.finish()?;
        Ok(crl)
    }

    /// Raw DER of the TBS (what the signature covers), a slice of `raw`.
    pub fn raw_tbs(&self) -> &[u8] {
        self.tbs_span.slice(&self.raw)
    }

    /// Is a serial revoked by this list?
    pub fn is_revoked(&self, serial: &[u8]) -> bool {
        self.tbs.revoked.iter().any(|e| e.serial == serial)
    }

    /// Verify the signature with the issuer's key.
    pub fn verify(&self, key: &SimKey) -> bool {
        key.verify(self.raw_tbs(), &self.signature.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::oid::known;
    use unicert_asn1::StringKind;

    fn sample_crl(revoked_serials: &[&[u8]]) -> (CertificateList, SimKey) {
        let key = SimKey::from_seed("crl-ca");
        let issuer = DistinguishedName::from_attributes(&[(
            known::organization_name(),
            StringKind::Utf8,
            "CRL Test CA",
        )]);
        let tbs = TbsCertList {
            issuer,
            this_update: DateTime::date(2024, 6, 1).unwrap(),
            next_update: DateTime::date(2024, 7, 1).unwrap(),
            revoked: revoked_serials
                .iter()
                .map(|s| RevokedCert {
                    serial: s.to_vec(),
                    revocation_date: DateTime::date(2024, 5, 15).unwrap(),
                })
                .collect(),
        };
        (CertificateList::build(tbs, &key), key)
    }

    #[test]
    fn round_trip_and_verify() {
        let (crl, key) = sample_crl(&[b"\x01\x02", b"\x7F"]);
        let parsed = CertificateList::parse_der(&crl.raw).unwrap();
        assert_eq!(parsed.tbs, crl.tbs);
        assert!(parsed.verify(&key));
        assert!(!parsed.verify(&SimKey::from_seed("other")));
    }

    #[test]
    fn revocation_lookup() {
        let (crl, _) = sample_crl(&[b"\x01\x02", b"\x7F"]);
        assert!(crl.is_revoked(b"\x01\x02"));
        assert!(crl.is_revoked(b"\x7F"));
        assert!(!crl.is_revoked(b"\x03"));
    }

    #[test]
    fn empty_crl() {
        let (crl, key) = sample_crl(&[]);
        let parsed = CertificateList::parse_der(&crl.raw).unwrap();
        assert!(parsed.tbs.revoked.is_empty());
        assert!(parsed.verify(&key));
        assert!(!parsed.is_revoked(b"\x01"));
    }

    #[test]
    fn tampered_crl_fails_verification() {
        let (crl, key) = sample_crl(&[b"\x05"]);
        let mut der = crl.raw.clone();
        // Flip a byte inside the TBS (the serial).
        let pos = der.windows(1).position(|w| w == [0x05]).unwrap();
        der[pos] = 0x06;
        if let Ok(parsed) = CertificateList::parse_der(&der) {
            assert!(!parsed.verify(&key));
        }
    }

    #[test]
    fn pem_armored_crl() {
        let (crl, _) = sample_crl(&[b"\x09"]);
        let pem = crate::pem::encode("X509 CRL", &crl.raw);
        let (label, der) = crate::pem::decode(&pem).unwrap();
        assert_eq!(label, "X509 CRL");
        assert_eq!(CertificateList::parse_der(&der).unwrap().tbs, crl.tbs);
    }
}
