//! The certificate decoder: [`CertView`] is the workspace's one DER walk.
//!
//! [`CertView::parse_der`] walks a DER certificate once with a [`Reader`]
//! and keeps every variable-length field as a `&'a [u8]` slice of the
//! input: serial, DN attribute values, extension payloads, the raw TBS,
//! the signature bits. The decode allocates three times per certificate:
//! one flat attribute list per DN (each attribute records its RDN) and the
//! extension table. Small fixed-size values that the survey touches for
//! every certificate — version, [`Validity`], OIDs (inline up to 22
//! octets) — are decoded eagerly; extension payloads stay undecoded until
//! asked for ([`ExtensionView::parse`]).
//!
//! Everything else reads this one walk:
//!
//! * the owned model: [`Certificate::parse_der`] and
//!   [`DistinguishedName::parse`] are this parse followed by `to_owned`,
//!   so the two representations accept, reject and charge a
//!   [`ParseBudget`] identically by construction;
//! * the lints: an owned certificate is linted through the view parsed
//!   from its [`Certificate::raw`], so every view is a parse;
//! * evidence spans: every slice of a view borrows the input, so a
//!   field's byte range is where its slice sits in [`CertView::raw`]
//!   ([`Span::within`]). A DN attribute also records its value's header
//!   length, which locates the whole value TLV ([`AttrView::tlv_span`]).

use crate::extensions::{parse_extension_value, Extension, ParsedExtension};
use crate::name::{AttributeTypeAndValue, DistinguishedName, Rdn};
use crate::value::{lossy_text, RawValue};
use crate::certificate::{
    AlgorithmIdentifier, Certificate, SubjectPublicKeyInfo, TbsCertificate, Validity,
};
use unicert_asn1::oid::known;
use unicert_asn1::tag::{tags, Class, Tag};
use unicert_asn1::{
    BitString, BudgetState, DateTime, Error, Oid, Reader, Result, Span, TimeKind,
};
#[cfg(doc)]
use unicert_asn1::ParseBudget;

/// Borrowed `AlgorithmIdentifier`: OID plus the raw parameter TLV slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmIdentifierView<'a> {
    /// Algorithm OID.
    pub algorithm: Oid,
    /// Raw parameter DER (commonly an encoded NULL), if present.
    pub parameters: Option<&'a [u8]>,
}

impl<'a> AlgorithmIdentifierView<'a> {
    fn parse(r: &mut Reader<'a>) -> Result<AlgorithmIdentifierView<'a>> {
        r.read_sequence(|seq| {
            let oid = seq.read_expected(tags::OBJECT_IDENTIFIER)?;
            let algorithm = Oid::from_der_value(oid.value)?;
            let parameters = if seq.is_empty() {
                None
            } else {
                Some(seq.read_tlv()?.raw)
            };
            Ok(AlgorithmIdentifierView { algorithm, parameters })
        })
    }

    /// Copy into the owned model.
    pub fn to_owned(&self) -> AlgorithmIdentifier {
        AlgorithmIdentifier {
            algorithm: self.algorithm.clone(),
            parameters: self.parameters.map(<[u8]>::to_vec),
        }
    }
}

/// Borrowed `AttributeTypeAndValue`: type OID plus the value's wire tag and
/// content slice, and the RDN that holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrView<'a> {
    /// Attribute type (e.g. `id-at-commonName`).
    pub oid: Oid,
    /// Universal tag number of the value as found on the wire.
    pub tag_number: u32,
    /// The value's content octets, untouched.
    pub value: &'a [u8],
    /// Octets of the value's TLV header (tag and length), which sit right
    /// before `value` in the input.
    pub header_len: u8,
    /// Index of the RDN (the SET) holding this attribute, in wire order.
    pub rdn: usize,
}

impl AttrView<'_> {
    /// Where the value's whole TLV, header included, sits in `raw`; `None`
    /// when `raw` is not the input this attribute was parsed from.
    pub fn tlv_span(&self, raw: &[u8]) -> Option<Span> {
        let value = Span::within(raw, self.value)?;
        let header = usize::from(self.header_len);
        Some(Span {
            offset: value.offset.checked_sub(header)?,
            len: value.len.checked_add(header)?,
        })
    }

    /// Copy the value into an owned [`RawValue`].
    pub fn raw_value(&self) -> RawValue {
        RawValue { tag_number: self.tag_number, bytes: self.value.to_vec() }
    }

    /// Best-effort display text (same fallback chain as
    /// [`RawValue::display_lossy`]).
    pub fn display_lossy(&self) -> String {
        lossy_text(self.tag_number, self.value).into_owned()
    }
}

/// Borrowed DistinguishedName: its attributes in one flat list, each
/// tagged with its RDN, instead of one list per RDN (almost every RDN
/// holds exactly one attribute).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnView<'a> {
    /// Every attribute across all RDNs, in wire order.
    pub attrs: Vec<AttrView<'a>>,
    /// Number of RDNs, an RDN whose SET is empty included.
    pub rdn_count: usize,
}

impl<'a> DnView<'a> {
    /// Parse a `Name` (the outer SEQUENCE TLV) from `reader`, charging the
    /// reader's budget for every element.
    pub fn parse(reader: &mut Reader<'a>) -> Result<DnView<'a>> {
        let mut dn = DnView::default();
        reader.read_sequence(|seq| {
            while !seq.is_empty() {
                let rdn = dn.rdn_count;
                seq.read_set(|set| {
                    while !set.is_empty() {
                        dn.attrs.push(parse_atv_view(set, rdn)?);
                    }
                    Ok(())
                })?;
                dn.rdn_count = rdn.saturating_add(1);
            }
            Ok(())
        })?;
        Ok(dn)
    }

    /// Iterate every attribute across all RDNs, in wire order.
    pub fn attributes(&self) -> impl Iterator<Item = &AttrView<'a>> {
        self.attrs.iter()
    }

    /// The first value of the given type (matching
    /// [`DistinguishedName::first_value`]).
    pub fn first_value(&self, oid: &Oid) -> Option<&AttrView<'a>> {
        self.attributes().find(|a| &a.oid == oid)
    }

    /// First CommonName, decoded leniently.
    pub fn common_name(&self) -> Option<String> {
        self.first_value(&known::common_name()).map(AttrView::display_lossy)
    }

    /// First OrganizationName, decoded leniently.
    pub fn organization(&self) -> Option<String> {
        self.first_value(&known::organization_name()).map(AttrView::display_lossy)
    }

    /// Number of attributes of type `oid` (duplicate detection, T3).
    pub fn count_of(&self, oid: &Oid) -> usize {
        self.attributes().filter(|a| &a.oid == oid).count()
    }

    /// True if the DN has no RDNs (an "empty subject"). Note: an RDN with
    /// an empty SET still counts, matching
    /// [`DistinguishedName::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.rdn_count == 0
    }

    /// Copy into the owned model, regrouping the attributes by RDN.
    pub fn to_owned(&self) -> DistinguishedName {
        let mut rdns = vec![Rdn::default(); self.rdn_count];
        for a in &self.attrs {
            if let Some(rdn) = rdns.get_mut(a.rdn) {
                rdn.attributes
                    .push(AttributeTypeAndValue { oid: a.oid.clone(), value: a.raw_value() });
            }
        }
        DistinguishedName { rdns }
    }
}

fn parse_atv_view<'a>(set: &mut Reader<'a>, rdn: usize) -> Result<AttrView<'a>> {
    set.read_sequence(|seq| {
        let oid_tlv = seq.read_expected(tags::OBJECT_IDENTIFIER)?;
        let oid = Oid::from_der_value(oid_tlv.value)?;
        let value_tlv = seq.read_tlv()?;
        if value_tlv.tag.class != Class::Universal {
            return Err(Error::WrongConstruction);
        }
        // At most 15 octets: a 6-octet tag and a 9-octet length.
        let header_len = u8::try_from(value_tlv.raw.len().saturating_sub(value_tlv.value.len()))
            .map_err(|_| Error::InvalidLength)?;
        let (tag_number, value) = (value_tlv.tag.number, value_tlv.value);
        Ok(AttrView { oid, tag_number, value, header_len, rdn })
    })
}

/// Borrowed `SubjectPublicKeyInfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpkiView<'a> {
    /// Key algorithm.
    pub algorithm: AlgorithmIdentifierView<'a>,
    /// Unused-bit count of the key BIT STRING.
    pub public_key_unused_bits: u8,
    /// The key bits (content octets after the unused-bit prefix).
    pub public_key: &'a [u8],
}

impl SpkiView<'_> {
    /// Copy into the owned model.
    pub fn to_owned(&self) -> SubjectPublicKeyInfo {
        SubjectPublicKeyInfo {
            algorithm: self.algorithm.to_owned(),
            public_key: BitString {
                unused_bits: self.public_key_unused_bits,
                bytes: self.public_key.to_vec(),
            },
        }
    }
}

/// Borrowed extension: OID, criticality, and the payload slice. Content
/// decoding stays lazy — [`ExtensionView::parse`] runs the same
/// [`parse_extension_value`] dispatch the owned [`Extension`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionView<'a> {
    /// Extension OID.
    pub oid: Oid,
    /// The criticality flag.
    pub critical: bool,
    /// The extnValue payload (contents of the OCTET STRING).
    pub value: &'a [u8],
}

impl ExtensionView<'_> {
    /// Decode the payload according to the OID.
    pub fn parse(&self) -> Result<ParsedExtension> {
        parse_extension_value(&self.oid, self.value)
    }

    /// Copy into the owned model.
    pub fn to_owned(&self) -> Extension {
        Extension { oid: self.oid.clone(), critical: self.critical, value: self.value.to_vec() }
    }
}

fn parse_extension_view<'a>(list: &mut Reader<'a>) -> Result<ExtensionView<'a>> {
    list.read_sequence(|e| {
        let oid_tlv = e.read_expected(tags::OBJECT_IDENTIFIER)?;
        let oid = Oid::from_der_value(oid_tlv.value)?;
        let mut critical = false;
        if e.peek_tag() == Some(tags::BOOLEAN) {
            let b = e.read_tlv()?;
            critical = b.value == [0xFF];
        }
        let value_tlv = e.read_expected(tags::OCTET_STRING)?;
        Ok(ExtensionView { oid, critical, value: value_tlv.value })
    })
}

fn parse_time(r: &mut Reader<'_>) -> Result<(DateTime, TimeKind)> {
    let tlv = r.read_tlv()?;
    match tlv.tag {
        t if t == tags::UTC_TIME => Ok((DateTime::from_utc_time(tlv.value)?, TimeKind::Utc)),
        t if t == tags::GENERALIZED_TIME => {
            Ok((DateTime::from_generalized(tlv.value)?, TimeKind::Generalized))
        }
        found => Err(Error::TagMismatch { expected: tags::UTC_TIME, found }),
    }
}

/// A complete certificate parsed without copying: every variable-length
/// field borrows from the input DER.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertView<'a> {
    /// Version (0 = v1, 2 = v3).
    pub version: u64,
    /// Serial number magnitude (big-endian, unsigned), borrowed.
    pub serial: &'a [u8],
    /// TBS signature algorithm (must match the outer one).
    pub tbs_signature_algorithm: AlgorithmIdentifierView<'a>,
    /// Issuer DN.
    pub issuer: DnView<'a>,
    /// Validity window (decoded eagerly; it is small and always read).
    pub validity: Validity,
    /// Subject DN.
    pub subject: DnView<'a>,
    /// Public key info.
    pub spki: SpkiView<'a>,
    /// Extensions (empty for v1 certificates).
    pub extensions: Vec<ExtensionView<'a>>,
    /// The outer signature algorithm.
    pub signature_algorithm: AlgorithmIdentifierView<'a>,
    /// Unused-bit count of the signature BIT STRING.
    pub signature_unused_bits: u8,
    /// The signature bits.
    pub signature: &'a [u8],
    /// Raw DER of the TBSCertificate (exact wire bytes).
    pub raw_tbs: &'a [u8],
    /// Raw DER of the complete certificate.
    pub raw: &'a [u8],
}

impl<'a> CertView<'a> {
    /// Parse a complete certificate from DER without copying.
    pub fn parse_der(der: &'a [u8]) -> Result<CertView<'a>> {
        Self::parse_with(der, None)
    }

    /// [`CertView::parse_der`] under hard resource limits: input admission
    /// plus cumulative element/byte budgets over every decoded TLV.
    ///
    /// The caller supplies the started [`BudgetState`] (via
    /// [`ParseBudget::start`]) and must keep it alive as long as the view:
    /// the view's borrows thread through the budgeted reader.
    pub fn parse_der_budgeted(der: &'a [u8], state: &'a BudgetState) -> Result<CertView<'a>> {
        state.admit(der)?;
        Self::parse_with(der, Some(state))
    }

    fn parse_with(der: &'a [u8], budget: Option<&'a BudgetState>) -> Result<CertView<'a>> {
        let mut r = match budget {
            Some(state) => Reader::with_budget(der, state),
            None => Reader::new(der),
        };
        let cert = r.read_sequence(|c| {
            let tbs_tlv = c.read_expected(tags::SEQUENCE)?;
            let raw_tbs = tbs_tlv.raw;
            let mut tbs_reader = match budget {
                Some(state) => Reader::with_budget(tbs_tlv.raw, state),
                None => Reader::new(tbs_tlv.raw),
            };
            let tbs = TbsFields::parse(&mut tbs_reader)?;
            tbs_reader.finish()?;
            let signature_algorithm = AlgorithmIdentifierView::parse(c)?;
            let sig_tlv = c.read_expected(tags::BIT_STRING)?;
            let (signature_unused_bits, signature) = BitString::split_der_value(sig_tlv.value)?;
            Ok(CertView {
                version: tbs.version,
                serial: tbs.serial,
                tbs_signature_algorithm: tbs.signature_algorithm,
                issuer: tbs.issuer,
                validity: tbs.validity,
                subject: tbs.subject,
                spki: tbs.spki,
                extensions: tbs.extensions,
                signature_algorithm,
                signature_unused_bits,
                signature,
                raw_tbs,
                raw: der,
            })
        })?;
        r.finish()?;
        Ok(cert)
    }

    /// Find an extension by OID.
    pub fn extension(&self, oid: &Oid) -> Option<&ExtensionView<'a>> {
        self.extensions.iter().find(|e| &e.oid == oid)
    }

    /// Is this a CT precertificate (has the poison extension)?
    pub fn is_precertificate(&self) -> bool {
        self.extension(&known::ct_poison()).is_some()
    }

    /// Copy everything into the owned model ([`Certificate::parse_der`] is
    /// [`CertView::parse_der`] followed by this copy). The DER is copied
    /// once, into [`Certificate::raw`]; the TBS is kept as its range.
    pub fn to_owned(&self) -> Certificate {
        Certificate {
            tbs: TbsCertificate {
                version: self.version,
                serial: self.serial.to_vec(),
                signature_algorithm: self.tbs_signature_algorithm.to_owned(),
                issuer: self.issuer.to_owned(),
                validity: self.validity.clone(),
                subject: self.subject.to_owned(),
                spki: self.spki.to_owned(),
                extensions: self.extensions.iter().map(ExtensionView::to_owned).collect(),
            },
            signature_algorithm: self.signature_algorithm.to_owned(),
            signature: BitString {
                unused_bits: self.signature_unused_bits,
                bytes: self.signature.to_vec(),
            },
            raw: self.raw.to_vec(),
            tbs_span: Span::within(self.raw, self.raw_tbs).unwrap_or_default(),
        }
    }
}

/// The TBS fields, as the TBS walk returns them.
struct TbsFields<'a> {
    version: u64,
    serial: &'a [u8],
    signature_algorithm: AlgorithmIdentifierView<'a>,
    issuer: DnView<'a>,
    validity: Validity,
    subject: DnView<'a>,
    spki: SpkiView<'a>,
    extensions: Vec<ExtensionView<'a>>,
}

impl<'a> TbsFields<'a> {
    fn parse(r: &mut Reader<'a>) -> Result<TbsFields<'a>> {
        r.read_sequence(|tbs| {
            // version [0] EXPLICIT, DEFAULT v1.
            let version = match tbs.read_optional_nested(Tag::context_constructed(0), |c| {
                c.read_expected(tags::INTEGER)
            })? {
                Some(i) => unicert_asn1::integer::decode_u64(i.value)?,
                None => 0,
            };
            let serial_tlv = tbs.read_expected(tags::INTEGER)?;
            let serial = unicert_asn1::integer::unsigned_magnitude(serial_tlv.value)?;
            let signature_algorithm = AlgorithmIdentifierView::parse(tbs)?;
            let issuer = DnView::parse(tbs)?;
            let validity = tbs.read_sequence(|v| {
                let (not_before, not_before_kind) = parse_time(v)?;
                let (not_after, not_after_kind) = parse_time(v)?;
                Ok(Validity { not_before, not_after, not_before_kind, not_after_kind })
            })?;
            let subject = DnView::parse(tbs)?;
            let spki = tbs.read_sequence(|s| {
                let algorithm = AlgorithmIdentifierView::parse(s)?;
                let bits = s.read_expected(tags::BIT_STRING)?;
                let (public_key_unused_bits, public_key) =
                    BitString::split_der_value(bits.value)?;
                Ok(SpkiView { algorithm, public_key_unused_bits, public_key })
            })?;
            // issuerUniqueID [1], subjectUniqueID [2]: skipped if present.
            let _ = tbs.read_optional_context(1)?;
            let _ = tbs.read_optional_context(2)?;
            // extensions [3] EXPLICIT.
            let mut extensions = Vec::new();
            tbs.read_optional_nested(Tag::context_constructed(3), |c| {
                c.read_sequence(|list| {
                    while !list.is_empty() {
                        extensions.push(parse_extension_view(list)?);
                    }
                    Ok(())
                })
            })?;
            Ok(TbsFields {
                version,
                serial,
                signature_algorithm,
                issuer,
                validity,
                subject,
                spki,
                extensions,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::sign::SimKey;
    use unicert_asn1::ParseBudget;

    fn sample() -> Certificate {
        CertificateBuilder::new()
            .serial(&[0x01, 0x02, 0x03])
            .subject_cn("example.com")
            .issuer_org("Test CA")
            .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
            .add_dns_san("example.com")
            .build_signed(&SimKey::from_seed("Test CA"))
    }

    #[test]
    fn view_matches_owned_parse() {
        let cert = sample();
        let view = CertView::parse_der(&cert.raw).unwrap();
        assert_eq!(view.version, cert.tbs.version);
        assert_eq!(view.serial, &cert.tbs.serial[..]);
        assert_eq!(view.raw_tbs, cert.raw_tbs());
        assert_eq!(view.validity, cert.tbs.validity);
        assert_eq!(view.subject.common_name().as_deref(), Some("example.com"));
        assert_eq!(view.issuer.organization().as_deref(), Some("Test CA"));
        assert_eq!(view.extensions.len(), cert.tbs.extensions.len());
        assert!(!view.is_precertificate());
        // The full owned bridge is field-for-field identical.
        let owned = view.to_owned();
        assert_eq!(owned, cert);
    }

    #[test]
    fn lazy_extension_parse_matches_owned() {
        let cert = sample();
        let view = CertView::parse_der(&cert.raw).unwrap();
        for (ve, oe) in view.extensions.iter().zip(cert.tbs.extensions.iter()) {
            assert_eq!(ve.oid, oe.oid);
            assert_eq!(ve.critical, oe.critical);
            assert_eq!(ve.parse().is_ok(), oe.parse().is_ok());
        }
    }

    #[test]
    fn rejects_what_owned_rejects_with_same_error() {
        let cert = sample();
        // Truncations.
        for cut in [1, 10, cert.raw.len() / 2, cert.raw.len() - 1] {
            let owned = Certificate::parse_der(&cert.raw[..cut]).unwrap_err();
            let view = CertView::parse_der(&cert.raw[..cut]).unwrap_err();
            assert_eq!(owned, view, "cut={cut}");
        }
        // Trailing garbage.
        let mut der = cert.raw.clone();
        der.push(0x00);
        assert_eq!(
            Certificate::parse_der(&der).unwrap_err(),
            CertView::parse_der(&der).unwrap_err()
        );
    }

    #[test]
    fn budget_behavior_matches_owned() {
        let cert = sample();
        let state = ParseBudget::default().start();
        let view = CertView::parse_der_budgeted(&cert.raw, &state).unwrap();
        assert_eq!(view.to_owned().tbs, cert.tbs);

        let tiny = ParseBudget { max_input: 16, ..ParseBudget::default() }.start();
        assert_eq!(
            CertView::parse_der_budgeted(&cert.raw, &tiny).unwrap_err(),
            Error::BudgetExceeded { resource: "input_bytes" }
        );
        let few = ParseBudget { max_elements: 4, ..ParseBudget::default() }.start();
        assert_eq!(
            CertView::parse_der_budgeted(&cert.raw, &few).unwrap_err(),
            Error::BudgetExceeded { resource: "elements" }
        );
    }

    #[test]
    fn precert_poison_detected() {
        let cert = CertificateBuilder::new()
            .subject_cn("pre.example.com")
            .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
            .add_extension(crate::extensions::ct_poison())
            .build_signed(&SimKey::from_seed("CA"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        assert!(view.is_precertificate());
    }

    #[test]
    fn inflated_tbs_length_cannot_outgrow_input() {
        let cert = sample();
        let mut der = vec![0x30, 0x84, 0x7F, 0xFF, 0xFF, 0xFF];
        der.extend_from_slice(&cert.raw[2..]);
        let err = CertView::parse_der(&der).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }), "{err:?}");
    }
}
