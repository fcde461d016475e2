//! The owned X.509 v3 certificate model: build and re-encode. Parsing is
//! the [`CertView`] decode followed by [`CertView::to_owned`].

use crate::extensions::{Extension, ParsedExtension};
use crate::general_name::GeneralName;
use crate::name::DistinguishedName;
use crate::sign::SimKey;
use crate::view::CertView;
use unicert_asn1::oid::known;
use unicert_asn1::tag::{tags, Tag};
use unicert_asn1::{BitString, DateTime, Oid, ParseBudget, Result, Span, TimeKind, Writer};

/// `AlgorithmIdentifier ::= SEQUENCE { algorithm OID, parameters ANY }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmIdentifier {
    /// Algorithm OID.
    pub algorithm: Oid,
    /// Raw parameter DER (commonly an encoded NULL), if present.
    pub parameters: Option<Vec<u8>>,
}

impl AlgorithmIdentifier {
    /// The workspace's simulated signature algorithm.
    pub fn sim_signature() -> AlgorithmIdentifier {
        AlgorithmIdentifier { algorithm: known::sim_signature(), parameters: Some(vec![0x05, 0x00]) }
    }

    /// The simulated public-key algorithm.
    pub fn sim_public_key() -> AlgorithmIdentifier {
        AlgorithmIdentifier { algorithm: known::sim_public_key(), parameters: Some(vec![0x05, 0x00]) }
    }

    pub(crate) fn write_to(&self, w: &mut Writer) {
        w.write_sequence(|w| {
            w.write_oid(&self.algorithm);
            if let Some(p) = &self.parameters {
                w.write_raw(p);
            }
        });
    }
}

/// The validity window, remembering which wire types carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validity {
    /// notBefore.
    pub not_before: DateTime,
    /// notAfter.
    pub not_after: DateTime,
    /// Wire type of notBefore.
    pub not_before_kind: TimeKind,
    /// Wire type of notAfter.
    pub not_after_kind: TimeKind,
}

impl Validity {
    /// A validity starting at `not_before` and lasting `days`.
    pub fn days(not_before: DateTime, days: i64) -> Validity {
        let not_after = not_before.plus_days(days);
        Validity {
            not_before,
            not_after,
            not_before_kind: kind_for(&not_before),
            not_after_kind: kind_for(&not_after),
        }
    }

    /// Validity period in whole days.
    pub fn period_days(&self) -> i64 {
        self.not_before.days_until(&self.not_after)
    }

    /// Is `at` within the window?
    pub fn contains(&self, at: &DateTime) -> bool {
        *at >= self.not_before && *at <= self.not_after
    }
}

fn kind_for(dt: &DateTime) -> TimeKind {
    if (1950..=2049).contains(&dt.year) {
        TimeKind::Utc
    } else {
        TimeKind::Generalized
    }
}

/// `SubjectPublicKeyInfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectPublicKeyInfo {
    /// Key algorithm.
    pub algorithm: AlgorithmIdentifier,
    /// The key bits.
    pub public_key: BitString,
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Version (0 = v1, 2 = v3).
    pub version: u64,
    /// Serial number magnitude (big-endian, unsigned, ≤ 20 octets per BR).
    pub serial: Vec<u8>,
    /// Signature algorithm (must match the outer one).
    pub signature_algorithm: AlgorithmIdentifier,
    /// Issuer DN.
    pub issuer: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Subject DN.
    pub subject: DistinguishedName,
    /// Public key info.
    pub spki: SubjectPublicKeyInfo,
    /// Extensions (empty for v1 certificates).
    pub extensions: Vec<Extension>,
}

/// A complete certificate, retaining its raw encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The TBS portion.
    pub tbs: TbsCertificate,
    /// The outer signature algorithm.
    pub signature_algorithm: AlgorithmIdentifier,
    /// The signature bits.
    pub signature: BitString,
    /// Raw DER of the complete certificate: the one stored copy of its
    /// encoding.
    pub raw: Vec<u8>,
    /// Where the TBSCertificate sits in `raw`.
    pub(crate) tbs_span: Span,
}

/// A certificate held as its DER alone: the form a corpus keeps, with the
/// owned model one [`CertDer::parse`] away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertDer {
    /// Raw DER of the complete certificate.
    pub raw: Vec<u8>,
}

impl CertDer {
    /// Parse the owned model out of `raw` ([`Certificate::parse_der`]).
    pub fn parse(&self) -> Result<Certificate> {
        Certificate::parse_der(&self.raw)
    }
}

/// Keep a certificate's DER and drop its model; `raw` moves, nothing is
/// copied.
impl From<Certificate> for CertDer {
    fn from(cert: Certificate) -> CertDer {
        CertDer { raw: cert.raw }
    }
}

impl TbsCertificate {
    /// Encode to DER.
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_to(&mut w);
        w.into_bytes()
    }

    fn write_to(&self, w: &mut Writer) {
        w.write_sequence(|w| {
            if self.version != 0 {
                w.write_constructed(Tag::context_constructed(0), |w| w.write_u64(self.version));
            }
            w.write_unsigned_integer(&self.serial);
            self.signature_algorithm.write_to(w);
            self.issuer.write_to(w);
            w.write_sequence(|w| {
                write_time(w, &self.validity.not_before, self.validity.not_before_kind);
                write_time(w, &self.validity.not_after, self.validity.not_after_kind);
            });
            self.subject.write_to(w);
            w.write_sequence(|w| {
                self.spki.algorithm.write_to(w);
                w.write_tlv(tags::BIT_STRING, &self.spki.public_key.to_der_value());
            });
            if !self.extensions.is_empty() {
                w.write_constructed(Tag::context_constructed(3), |w| {
                    w.write_sequence(|w| {
                        for ext in &self.extensions {
                            write_extension(w, ext);
                        }
                    });
                });
            }
        });
    }

    /// Find an extension by OID.
    pub fn extension(&self, oid: &Oid) -> Option<&Extension> {
        self.extensions.iter().find(|e| &e.oid == oid)
    }

    /// Is this a CT precertificate (has the poison extension)? §4.1 filters
    /// these out of the corpus.
    pub fn is_precertificate(&self) -> bool {
        self.extension(&known::ct_poison()).is_some()
    }

    /// The SubjectAltName entries, if present and well-formed.
    pub fn subject_alt_names(&self) -> Option<Vec<GeneralName>> {
        match self.extension(&known::subject_alt_name())?.parse() {
            Ok(ParsedExtension::SubjectAltName(names)) => Some(names),
            _ => None,
        }
    }

    /// All DNSName strings from the SAN (leniently decoded).
    pub fn san_dns_names(&self) -> Vec<String> {
        self.subject_alt_names()
            .unwrap_or_default()
            .iter()
            .filter_map(|n| match n {
                GeneralName::DnsName(v) => Some(v.display_lossy()),
                _ => None,
            })
            .collect()
    }
}

fn write_time(w: &mut Writer, dt: &DateTime, kind: TimeKind) {
    match kind {
        TimeKind::Utc => w.write_tlv(tags::UTC_TIME, dt.to_utc_time_string().as_bytes()),
        TimeKind::Generalized => {
            w.write_tlv(tags::GENERALIZED_TIME, dt.to_generalized_string().as_bytes())
        }
    }
}

fn write_extension(w: &mut Writer, ext: &Extension) {
    w.write_sequence(|w| {
        w.write_oid(&ext.oid);
        if ext.critical {
            w.write_bool(true);
        }
        w.write_octet_string(&ext.value);
    });
}

impl Certificate {
    /// Parse a complete certificate from DER.
    pub fn parse_der(der: &[u8]) -> Result<Certificate> {
        CertView::parse_der(der).map(|view| view.to_owned())
    }

    /// Parse a complete certificate from DER with hard resource limits
    /// ([`CertView::parse_der_budgeted`] under a fresh state of `budget`).
    ///
    /// The input is admitted against `budget.max_input` first, and every
    /// TLV element decoded anywhere in the certificate (the outer shell,
    /// the re-read TBS, extensions) is charged against the cumulative
    /// element/byte budgets. Exceeding any limit fails the parse with
    /// [`unicert_asn1::Error::BudgetExceeded`].
    pub fn parse_der_budgeted(der: &[u8], budget: &ParseBudget) -> Result<Certificate> {
        let state = budget.start();
        CertView::parse_der_budgeted(der, &state).map(|view| view.to_owned())
    }

    /// Sign `tbs` with `issuer_key` under the simulated signature
    /// algorithm. The TBS is encoded once, into the buffer that becomes
    /// `raw`, and signed there.
    pub fn sign(tbs: TbsCertificate, issuer_key: &SimKey) -> Certificate {
        let signature_algorithm = AlgorithmIdentifier::sim_signature();
        let (raw, tbs_span, signature) = encode_signed(
            |w| tbs.write_to(w),
            &signature_algorithm,
            |tbs_der| BitString::from_bytes(&issuer_key.sign(tbs_der)),
        );
        Certificate { tbs, signature_algorithm, signature, raw, tbs_span }
    }

    /// Raw DER of the TBSCertificate: the exact wire bytes the simulated
    /// signer signs and verifies, a slice of `raw`.
    pub fn raw_tbs(&self) -> &[u8] {
        self.tbs_span.slice(&self.raw)
    }

    /// Encode to DER (reconstructs from the model, not `raw`).
    pub fn to_der(&self) -> Vec<u8> {
        let (der, _, _) = encode_signed(
            |w| self.tbs.write_to(w),
            &self.signature_algorithm,
            |_| self.signature.clone(),
        );
        der
    }
}

/// A signed envelope, `SEQUENCE { tbs, signatureAlgorithm, signatureValue }`,
/// written into one buffer: `write_tbs` writes the TBS, and `signer` reads
/// those bytes in place and returns the signature written after them.
/// Returns the encoding, where the TBS sits in it, and the signature.
pub(crate) fn encode_signed(
    write_tbs: impl FnOnce(&mut Writer),
    signature_algorithm: &AlgorithmIdentifier,
    signer: impl FnOnce(&[u8]) -> BitString,
) -> (Vec<u8>, Span, BitString) {
    let mut w = Writer::new();
    let (tbs_len, contents_len, signature) = w.write_sequence(|w| {
        let start = w.as_bytes().len();
        write_tbs(w);
        let tbs_der = w.as_bytes().get(start..).unwrap_or_default();
        let tbs_len = tbs_der.len();
        let signature = signer(tbs_der);
        signature_algorithm.write_to(w);
        w.write_tlv(tags::BIT_STRING, &signature.to_der_value());
        (tbs_len, w.as_bytes().len().saturating_sub(start), signature)
    });
    let der = w.into_bytes();
    // The TBS opens the contents, which follow the SEQUENCE header.
    let offset = der.len().saturating_sub(contents_len);
    (der, Span { offset, len: tbs_len }, signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use unicert_asn1::Error;

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
    fn parse_round_trip() {
        let cert = sample();
        let reparsed = Certificate::parse_der(&cert.raw).unwrap();
        assert_eq!(reparsed.tbs, cert.tbs);
        assert_eq!(reparsed.to_der(), cert.raw);
    }

    #[test]
    fn signature_verifies_over_raw_tbs() {
        let cert = sample();
        let key = SimKey::from_seed("Test CA");
        assert!(key.verify(cert.raw_tbs(), &cert.signature.bytes));
        assert!(!SimKey::from_seed("Evil CA").verify(cert.raw_tbs(), &cert.signature.bytes));
    }

    #[test]
    fn accessors() {
        let cert = sample();
        assert_eq!(cert.tbs.version, 2);
        assert_eq!(cert.tbs.serial, vec![1, 2, 3]);
        assert_eq!(cert.tbs.subject.common_name().unwrap(), "example.com");
        assert_eq!(cert.tbs.san_dns_names(), vec!["example.com"]);
        assert!(!cert.tbs.is_precertificate());
        assert_eq!(cert.tbs.validity.period_days(), 90);
    }

    #[test]
    fn precert_poison_detected() {
        let cert = CertificateBuilder::new()
            .subject_cn("pre.example.com")
            .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
            .add_extension(crate::extensions::ct_poison())
            .build_signed(&SimKey::from_seed("CA"));
        assert!(cert.tbs.is_precertificate());
    }

    #[test]
    fn rejects_truncation() {
        let cert = sample();
        for cut in [1, 10, cert.raw.len() / 2, cert.raw.len() - 1] {
            assert!(Certificate::parse_der(&cert.raw[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let cert = sample();
        let mut der = cert.raw.clone();
        der.push(0x00);
        assert!(Certificate::parse_der(&der).is_err());
    }

    #[test]
    fn budgeted_parse_accepts_real_certs_and_caps_hostile_ones() {
        let cert = sample();
        let reparsed = Certificate::parse_der_budgeted(&cert.raw, &ParseBudget::default())
            .expect("default budget must admit an ordinary certificate");
        assert_eq!(reparsed.tbs, cert.tbs);

        // Input cap.
        let tiny = ParseBudget { max_input: 16, ..ParseBudget::default() };
        assert_eq!(
            Certificate::parse_der_budgeted(&cert.raw, &tiny).unwrap_err(),
            Error::BudgetExceeded { resource: "input_bytes" }
        );
        // Element cap: a certificate decodes far more than 4 elements.
        let few = ParseBudget { max_elements: 4, ..ParseBudget::default() };
        assert_eq!(
            Certificate::parse_der_budgeted(&cert.raw, &few).unwrap_err(),
            Error::BudgetExceeded { resource: "elements" }
        );
    }

    #[test]
    fn inflated_tbs_length_cannot_outgrow_input() {
        // Splice an inflated length into the outer SEQUENCE header of a
        // real certificate: declared length ≫ actual bytes. The parse must
        // fail with a truncation error (the reader refuses the length up
        // front), never attempt to consume the declared amount.
        let cert = sample();
        // Rewrite the outer SEQUENCE header to declare ~2 GiB of content
        // while keeping the real (much smaller) body.
        let mut der = vec![0x30, 0x84, 0x7F, 0xFF, 0xFF, 0xFF];
        der.extend_from_slice(&cert.raw[2..]);
        let err = Certificate::parse_der(&der).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }), "{err:?}");
        let err = Certificate::parse_der_budgeted(&der, &ParseBudget::default()).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }), "{err:?}");
    }

    #[test]
    fn validity_contains() {
        let cert = sample();
        assert!(cert.tbs.validity.contains(&DateTime::date(2024, 2, 1).unwrap()));
        assert!(!cert.tbs.validity.contains(&DateTime::date(2025, 1, 1).unwrap()));
    }
}
