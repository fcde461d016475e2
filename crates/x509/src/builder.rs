//! Programmatic certificate construction, including deliberately
//! noncompliant fields — the workhorse of the §3.2 test generator and the
//! corpus synthesizer.

use crate::certificate::{
    AlgorithmIdentifier, Certificate, SubjectPublicKeyInfo, TbsCertificate, Validity,
};
use crate::extensions::{self, Extension};
use crate::general_name::GeneralName;
use crate::name::{AttributeTypeAndValue, DistinguishedName, Rdn};
use crate::sign::SimKey;
use crate::value::RawValue;
use unicert_asn1::oid::known;
use unicert_asn1::{BitString, DateTime, Oid, StringKind};

/// Fluent certificate builder.
///
/// Defaults produce a standards-compliant 90-day leaf with a simulated key;
/// every setter can push the certificate out of compliance on purpose.
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    serial: Vec<u8>,
    subject: DistinguishedName,
    /// `None` until set: [`default_issuer`] is built only for a
    /// certificate that keeps it.
    issuer: Option<DistinguishedName>,
    validity: Validity,
    san: Vec<GeneralName>,
    extensions: Vec<Extension>,
}

impl Default for CertificateBuilder {
    fn default() -> Self {
        CertificateBuilder::new()
    }
}

impl CertificateBuilder {
    /// A fresh builder with safe defaults.
    pub fn new() -> CertificateBuilder {
        CertificateBuilder {
            serial: vec![0x01],
            subject: DistinguishedName::empty(),
            issuer: None,
            validity: Validity::days(
                DateTime::date(2024, 1, 1).expect("static date"), // analysis:allow(expect) compile-time constant date is valid
                90,
            ),
            san: Vec::new(),
            extensions: Vec::new(),
        }
    }

    /// Set the serial number magnitude. Leading zeros are normalized away
    /// (DER integers are minimal, so they cannot survive a round trip).
    pub fn serial(mut self, serial: &[u8]) -> Self {
        let skip = serial.iter().take_while(|&&b| b == 0).count();
        let trimmed = serial.get(skip..).unwrap_or(&[]);
        self.serial = if trimmed.is_empty() { vec![0] } else { trimmed.to_vec() };
        self
    }

    /// Replace the whole subject DN.
    pub fn subject(mut self, dn: DistinguishedName) -> Self {
        self.subject = dn;
        self
    }

    /// Append a subject attribute (one single-attribute RDN).
    pub fn subject_attr(mut self, oid: Oid, kind: StringKind, text: &str) -> Self {
        self.subject.rdns.push(Rdn {
            attributes: vec![AttributeTypeAndValue::new(oid, kind, text)],
        });
        self
    }

    /// Append a subject attribute with raw bytes under a given string tag
    /// (the mutation path: arbitrary, possibly malformed contents).
    pub fn subject_attr_raw(mut self, oid: Oid, kind: StringKind, bytes: &[u8]) -> Self {
        self.subject.rdns.push(Rdn {
            attributes: vec![AttributeTypeAndValue {
                oid,
                value: RawValue::from_raw(kind, bytes),
            }],
        });
        self
    }

    /// Shorthand: UTF8String CommonName.
    pub fn subject_cn(self, cn: &str) -> Self {
        self.subject_attr(known::common_name(), StringKind::Utf8, cn)
    }

    /// Shorthand: UTF8String Organization.
    pub fn subject_org(self, org: &str) -> Self {
        self.subject_attr(known::organization_name(), StringKind::Utf8, org)
    }

    /// Replace the issuer DN.
    pub fn issuer(mut self, dn: DistinguishedName) -> Self {
        self.issuer = Some(dn);
        self
    }

    /// Shorthand: set the issuer to `O=<org>, CN=<org> R1`.
    pub fn issuer_org(mut self, org: &str) -> Self {
        self.issuer = Some(DistinguishedName::from_attributes(&[
            (known::organization_name(), StringKind::Utf8, org),
            (known::common_name(), StringKind::Utf8, &format!("{org} R1")),
        ]));
        self
    }

    /// Set the validity window.
    pub fn validity(mut self, validity: Validity) -> Self {
        self.validity = validity;
        self
    }

    /// Set validity as `days` from `not_before`.
    pub fn validity_days(mut self, not_before: DateTime, days: i64) -> Self {
        self.validity = Validity::days(not_before, days);
        self
    }

    /// Add a DNSName SAN entry.
    pub fn add_dns_san(mut self, name: &str) -> Self {
        self.san.push(GeneralName::dns(name));
        self
    }

    /// Add an arbitrary SAN entry.
    pub fn add_san(mut self, name: GeneralName) -> Self {
        self.san.push(name);
        self
    }

    /// The SubjectAltName entries added so far, in order: the SAN the
    /// built certificate carries.
    pub fn san_entries(&self) -> &[GeneralName] {
        &self.san
    }

    /// Add a raw extension.
    pub fn add_extension(mut self, ext: Extension) -> Self {
        self.extensions.push(ext);
        self
    }

    /// Assemble the TBS (without signing), moving the builder's fields
    /// into it.
    pub fn build_tbs(self, key: &SimKey) -> TbsCertificate {
        let mut extensions = self.extensions;
        if !self.san.is_empty() {
            extensions.insert(0, extensions::subject_alt_name(&self.san));
        }
        TbsCertificate {
            version: 2,
            serial: self.serial,
            signature_algorithm: AlgorithmIdentifier::sim_signature(),
            issuer: self.issuer.unwrap_or_else(default_issuer),
            validity: self.validity,
            subject: self.subject,
            spki: SubjectPublicKeyInfo {
                algorithm: AlgorithmIdentifier::sim_public_key(),
                public_key: BitString::from_bytes(&key.public_bytes()),
            },
            extensions,
        }
    }

    /// Build and sign with the issuer's key. The subject's simulated key is
    /// derived from the subject DER (deterministic corpora).
    pub fn build_signed(self, issuer_key: &SimKey) -> Certificate {
        let subject_key = SimKey::from_seed(&subject_seed(&self.subject.to_der()));
        Certificate::sign(self.build_tbs(&subject_key), issuer_key)
    }
}

/// The issuer of a builder whose issuer was never set:
/// `C=US, O=Unicert Test CA, CN=Unicert Test CA R1`.
fn default_issuer() -> DistinguishedName {
    DistinguishedName::from_attributes(&[
        (known::country_name(), StringKind::Printable, "US"),
        (known::organization_name(), StringKind::Utf8, "Unicert Test CA"),
        (known::common_name(), StringKind::Utf8, "Unicert Test CA R1"),
    ])
}

/// The subject-key seed: `subject:` followed by the subject DER as
/// `format!("{:02x?}", der)` renders it (`[30, 0c, …]`), written without
/// going through the formatter.
fn subject_seed(der: &[u8]) -> String {
    let hex = |nibble: u8| char::from(if nibble < 10 { b'0' + nibble } else { b'a' + nibble - 10 });
    let mut seed = String::with_capacity(10 + 4 * der.len());
    seed.push_str("subject:[");
    for (i, &b) in der.iter().enumerate() {
        if i > 0 {
            seed.push_str(", ");
        }
        seed.push(hex(b >> 4));
        seed.push(hex(b & 0x0F));
    }
    seed.push(']');
    seed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::Certificate;

    #[test]
    fn default_build_is_compliant_and_parsable() {
        let key = SimKey::from_seed("ca");
        let cert = CertificateBuilder::new()
            .subject_cn("ok.example.com")
            .add_dns_san("ok.example.com")
            .build_signed(&key);
        let parsed = Certificate::parse_der(&cert.raw).unwrap();
        assert_eq!(parsed.tbs.san_dns_names(), vec!["ok.example.com"]);
        assert!(key.verify(parsed.raw_tbs(), &parsed.signature.bytes));
    }

    #[test]
    fn builder_can_emit_noncompliance() {
        // CN as BMPString (T3 invalid encoding), NUL in O (T1), duplicate CN
        // (T3 invalid structure) — all in one certificate.
        let cert = CertificateBuilder::new()
            .subject_attr(known::common_name(), StringKind::Bmp, "bmp.example.com")
            .subject_attr_raw(known::organization_name(), StringKind::Utf8, b"Evil\x00Org")
            .subject_cn("second.example.com")
            .validity_days(DateTime::date(2024, 6, 1).unwrap(), 398)
            .build_signed(&SimKey::from_seed("sloppy-ca"));
        let parsed = Certificate::parse_der(&cert.raw).unwrap();
        assert_eq!(parsed.tbs.subject.count_of(&known::common_name()), 2);
        let org = parsed.tbs.subject.first_value(&known::organization_name()).unwrap();
        assert_eq!(org.bytes, b"Evil\x00Org");
        let cn = parsed.tbs.subject.first_value(&known::common_name()).unwrap();
        assert_eq!(cn.kind(), Some(StringKind::Bmp));
    }

    #[test]
    fn default_issuer_is_built_only_when_none_is_set() {
        let key = SimKey::from_seed("ca");
        let unset = CertificateBuilder::new().subject_cn("a.example").build_signed(&key);
        // C=US (PrintableString), O=Unicert Test CA, CN=Unicert Test CA R1
        // (UTF8String), one attribute per RDN.
        let mut expected = vec![0x30, 0x44, 0x31, 0x0b, 0x30, 0x09, 0x06, 0x03, 0x55, 0x04, 0x06];
        expected.extend_from_slice(&[0x13, 0x02]);
        expected.extend_from_slice(b"US");
        expected.extend_from_slice(&[0x31, 0x18, 0x30, 0x16, 0x06, 0x03, 0x55, 0x04, 0x0a, 0x0c, 0x0f]);
        expected.extend_from_slice(b"Unicert Test CA");
        expected.extend_from_slice(&[0x31, 0x1b, 0x30, 0x19, 0x06, 0x03, 0x55, 0x04, 0x03, 0x0c, 0x12]);
        expected.extend_from_slice(b"Unicert Test CA R1");
        assert_eq!(unset.tbs.issuer.to_der(), expected);
        assert_eq!(unset.tbs.issuer, default_issuer());

        let set = CertificateBuilder::new()
            .subject_cn("a.example")
            .issuer_org("Other CA")
            .build_signed(&key);
        assert_eq!(set.tbs.issuer.organization().as_deref(), Some("Other CA"));
        assert_eq!(set.tbs.issuer.rdns.len(), 2);
    }

    #[test]
    fn subject_seed_matches_the_formatter() {
        let every_byte: Vec<u8> = (0..=255).collect();
        assert_eq!(subject_seed(&every_byte), format!("subject:{:02x?}", every_byte));
        for b in 0..=255u8 {
            assert_eq!(subject_seed(&[b]), format!("subject:{:02x?}", [b]));
        }
        for len in 0..=300usize {
            let der: Vec<u8> = (0..len).map(|i| (i * 97 + len) as u8).collect();
            assert_eq!(subject_seed(&der), format!("subject:{:02x?}", der), "len {len}");
        }
    }

    #[test]
    fn san_extension_is_inserted_once() {
        let cert = CertificateBuilder::new()
            .subject_cn("a.example")
            .add_dns_san("a.example")
            .add_dns_san("b.example")
            .build_signed(&SimKey::from_seed("ca"));
        let sans = cert.tbs.san_dns_names();
        assert_eq!(sans, vec!["a.example", "b.example"]);
        let count = cert
            .tbs
            .extensions
            .iter()
            .filter(|e| e.oid == known::subject_alt_name())
            .count();
        assert_eq!(count, 1);
    }
}
