//! Distinguished Names: `Name ::= RDNSequence`,
//! `RelativeDistinguishedName ::= SET OF AttributeTypeAndValue`.

use crate::value::RawValue;
use crate::view::DnView;
use unicert_asn1::oid::known;
use unicert_asn1::{Oid, Reader, Result, StringKind, Writer};

/// One `AttributeTypeAndValue`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeTypeAndValue {
    /// Attribute type (e.g. `id-at-commonName`).
    pub oid: Oid,
    /// The raw value, with its original tag and bytes.
    pub value: RawValue,
}

impl AttributeTypeAndValue {
    /// Convenience constructor from text.
    pub fn new(oid: Oid, kind: StringKind, text: &str) -> AttributeTypeAndValue {
        AttributeTypeAndValue { oid, value: RawValue::from_text(kind, text) }
    }

    /// The attribute's short name (`CN`, `O`, …) or dotted OID.
    pub fn type_name(&self) -> String {
        self.oid
            .short_name()
            .map(str::to_owned)
            .unwrap_or_else(|| self.oid.to_dotted())
    }
}

/// One RDN: a SET of attributes (almost always exactly one).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rdn {
    /// The attribute set.
    pub attributes: Vec<AttributeTypeAndValue>,
}

/// A DistinguishedName: a SEQUENCE of RDNs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DistinguishedName {
    /// The RDN sequence, in encoding order (most significant first, as on
    /// the wire).
    pub rdns: Vec<Rdn>,
}

impl DistinguishedName {
    /// An empty name.
    pub fn empty() -> DistinguishedName {
        DistinguishedName::default()
    }

    /// Build a DN with one single-attribute RDN per `(oid, kind, text)`.
    pub fn from_attributes(attrs: &[(Oid, StringKind, &str)]) -> DistinguishedName {
        DistinguishedName {
            rdns: attrs
                .iter()
                .map(|(oid, kind, text)| Rdn {
                    attributes: vec![AttributeTypeAndValue::new(oid.clone(), *kind, text)],
                })
                .collect(),
        }
    }

    /// Iterate every attribute across all RDNs, in wire order.
    pub fn attributes(&self) -> impl Iterator<Item = &AttributeTypeAndValue> {
        self.rdns.iter().flat_map(|rdn| rdn.attributes.iter())
    }

    /// All values of the given attribute type, in wire order.
    pub fn all_values(&self, oid: &Oid) -> Vec<&RawValue> {
        self.attributes()
            .filter(|a| &a.oid == oid)
            .map(|a| &a.value)
            .collect()
    }

    /// The first value of the given type (what PyOpenSSL-style parsers
    /// return for duplicated attributes — §4.3.1).
    pub fn first_value(&self, oid: &Oid) -> Option<&RawValue> {
        self.all_values(oid).first().copied()
    }

    /// The last value (what Go-crypto-style parsers return).
    pub fn last_value(&self, oid: &Oid) -> Option<&RawValue> {
        self.all_values(oid).last().copied()
    }

    /// First CommonName, decoded leniently.
    pub fn common_name(&self) -> Option<String> {
        self.first_value(&known::common_name()).map(RawValue::display_lossy)
    }

    /// First OrganizationName, decoded leniently.
    pub fn organization(&self) -> Option<String> {
        self.first_value(&known::organization_name()).map(RawValue::display_lossy)
    }

    /// Number of attributes of type `oid` (duplicate detection, T3).
    pub fn count_of(&self, oid: &Oid) -> usize {
        self.attributes().filter(|a| &a.oid == oid).count()
    }

    /// True if the DN has no RDNs (an "empty subject").
    pub fn is_empty(&self) -> bool {
        self.rdns.is_empty()
    }

    /// Parse a `Name` (the outer SEQUENCE TLV): [`DnView::parse`] followed
    /// by [`DnView::to_owned`].
    pub fn parse(reader: &mut Reader<'_>) -> Result<DistinguishedName> {
        DnView::parse(reader).map(|dn| dn.to_owned())
    }

    /// Encode as a `Name` SEQUENCE.
    pub fn write_to(&self, w: &mut Writer) {
        w.write_sequence(|w| {
            for rdn in &self.rdns {
                w.write_set(|w| {
                    for attr in &rdn.attributes {
                        w.write_sequence(|w| {
                            w.write_oid(&attr.oid);
                            attr.value.write_to(w);
                        });
                    }
                });
            }
        });
    }

    /// DER bytes of the whole Name.
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_to(&mut w);
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::reader::parse_single;

    fn sample_dn() -> DistinguishedName {
        DistinguishedName::from_attributes(&[
            (known::country_name(), StringKind::Printable, "DE"),
            (known::organization_name(), StringKind::Utf8, "Müller GmbH"),
            (known::common_name(), StringKind::Utf8, "müller.example"),
        ])
    }

    #[test]
    fn der_round_trip() {
        let dn = sample_dn();
        let der = dn.to_der();
        let mut r = Reader::new(&der);
        let parsed = DistinguishedName::parse(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(parsed, dn);
    }

    #[test]
    fn wire_layout_spot_check() {
        let dn = DistinguishedName::from_attributes(&[(
            known::common_name(),
            StringKind::Printable,
            "ab",
        )]);
        // SEQ { SET { SEQ { OID 2.5.4.3, PrintableString "ab" } } }
        assert_eq!(
            dn.to_der(),
            vec![0x30, 0x0D, 0x31, 0x0B, 0x30, 0x09, 0x06, 0x03, 0x55, 0x04, 0x03, 0x13, 0x02, b'a', b'b']
        );
    }

    #[test]
    fn accessors() {
        let dn = sample_dn();
        assert_eq!(dn.common_name().unwrap(), "müller.example");
        assert_eq!(dn.organization().unwrap(), "Müller GmbH");
        assert_eq!(dn.count_of(&known::common_name()), 1);
        assert!(dn.first_value(&known::locality_name()).is_none());
    }

    #[test]
    fn duplicate_cn_first_vs_last() {
        let dn = DistinguishedName::from_attributes(&[
            (known::common_name(), StringKind::Utf8, "first.example"),
            (known::common_name(), StringKind::Utf8, "last.example"),
        ]);
        assert_eq!(dn.first_value(&known::common_name()).unwrap().display_lossy(), "first.example");
        assert_eq!(dn.last_value(&known::common_name()).unwrap().display_lossy(), "last.example");
        assert_eq!(dn.count_of(&known::common_name()), 2);
    }

    #[test]
    fn multi_attribute_rdn() {
        let dn = DistinguishedName {
            rdns: vec![Rdn {
                attributes: vec![
                    AttributeTypeAndValue::new(known::common_name(), StringKind::Utf8, "x"),
                    AttributeTypeAndValue::new(known::organization_name(), StringKind::Utf8, "y"),
                ],
            }],
        };
        let der = dn.to_der();
        let mut r = Reader::new(&der);
        let parsed = DistinguishedName::parse(&mut r).unwrap();
        assert_eq!(parsed.rdns.len(), 1);
        assert_eq!(parsed.rdns[0].attributes.len(), 2);
    }

    #[test]
    fn empty_dn() {
        let dn = DistinguishedName::empty();
        let der = dn.to_der();
        assert_eq!(der, vec![0x30, 0x00]);
        let tlv = parse_single(&der).unwrap();
        assert_eq!(tlv.value, &[] as &[u8]);
    }

    #[test]
    fn rejects_malformed_atv() {
        // SET { SEQ { INTEGER 1 } } inside a Name — missing OID.
        let der = [0x30, 0x07, 0x31, 0x05, 0x30, 0x03, 0x02, 0x01, 0x01];
        let mut r = Reader::new(&der);
        assert!(DistinguishedName::parse(&mut r).is_err());
    }

    #[test]
    fn noncompliant_values_survive_round_trip() {
        // PrintableString carrying a NUL — exactly the T1 case.
        let dn = DistinguishedName {
            rdns: vec![Rdn {
                attributes: vec![AttributeTypeAndValue {
                    oid: known::common_name(),
                    value: RawValue::from_raw(StringKind::Printable, b"evil\x00entity"),
                }],
            }],
        };
        let der = dn.to_der();
        let mut r = Reader::new(&der);
        let parsed = DistinguishedName::parse(&mut r).unwrap();
        assert_eq!(parsed.attributes().next().unwrap().value.bytes, b"evil\x00entity");
    }
}
