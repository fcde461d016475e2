//! Raw attribute values: the `(tag, bytes)` pairs that DN attributes and
//! other string-bearing fields actually carry on the wire.
//!
//! Lossless retention of the original TLV is a core design requirement
//! (DESIGN.md §2): the linter must see that a `UTF8String` is not valid
//! UTF-8, and the differential harness must feed the *original bytes* to
//! each library profile.

use std::borrow::Cow;

use unicert_asn1::{Error, Result, StringKind, Tag, Writer};

/// A raw, possibly noncompliant string value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawValue {
    /// The universal tag number found on the wire (usually one of the eight
    /// string types, but misissued certificates carry anything).
    pub tag_number: u32,
    /// The content octets, untouched.
    pub bytes: Vec<u8>,
}

impl RawValue {
    /// Build from text, encoded per `kind`'s wire format (unvalidated).
    pub fn from_text(kind: StringKind, text: &str) -> RawValue {
        RawValue { tag_number: kind.tag_number(), bytes: kind.encode_lossy(text) }
    }

    /// Build from raw bytes under a specific kind's tag.
    pub fn from_raw(kind: StringKind, bytes: &[u8]) -> RawValue {
        RawValue { tag_number: kind.tag_number(), bytes: bytes.to_vec() }
    }

    /// The string kind, if the tag is one of the eight string types.
    pub fn kind(&self) -> Option<StringKind> {
        StringKind::from_tag_number(self.tag_number)
    }

    /// Strict decode per the declared kind (wire format + character set).
    pub fn decode_strict(&self) -> Result<String> {
        match self.kind() {
            Some(k) => k.decode_strict(&self.bytes),
            None => Err(Error::WrongConstruction),
        }
    }

    /// Wire-format-only decode (no character-set check).
    pub fn decode_wire(&self) -> Result<String> {
        wire_text(self.tag_number, &self.bytes).map(Cow::into_owned)
    }

    /// Best-effort text for display: strict → wire → Latin-1 fallback.
    pub fn display_lossy(&self) -> String {
        lossy_text(self.tag_number, &self.bytes).into_owned()
    }

    /// Encode as a TLV under the original tag.
    pub fn write_to(&self, w: &mut Writer) {
        w.write_tlv(Tag::universal(self.tag_number), &self.bytes);
    }
}

/// [`RawValue::decode_wire`] of a value given as its tag number and
/// content octets, borrowing them when they already are the text (see
/// [`StringKind::decode_wire_borrowed`]).
#[inline]
pub fn wire_text(tag_number: u32, bytes: &[u8]) -> Result<Cow<'_, str>> {
    match StringKind::from_tag_number(tag_number) {
        Some(k) => k.decode_wire_borrowed(bytes),
        None => Err(Error::WrongConstruction),
    }
}

/// [`RawValue::display_lossy`] of a value given as its tag number and
/// content octets: the wire text, else the octets widened as Latin-1.
/// Borrows whenever [`wire_text`] does.
pub fn lossy_text(tag_number: u32, bytes: &[u8]) -> Cow<'_, str> {
    wire_text(tag_number, bytes).unwrap_or_else(|_| bytes.iter().map(|&b| b as char).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let v = RawValue::from_text(StringKind::Utf8, "Müller GmbH");
        assert_eq!(v.decode_strict().unwrap(), "Müller GmbH");
        assert_eq!(v.kind(), Some(StringKind::Utf8));
    }

    #[test]
    fn noncompliant_values_are_representable() {
        // '@' in a PrintableString: wire-decodable, charset-invalid.
        let v = RawValue::from_text(StringKind::Printable, "a@b");
        assert!(v.decode_strict().is_err());
        assert_eq!(v.decode_wire().unwrap(), "a@b");

        // Invalid UTF-8 under a UTF8String tag: not even wire-decodable.
        let v = RawValue::from_raw(StringKind::Utf8, &[0xC3, 0x28]);
        assert!(v.decode_wire().is_err());
        assert_eq!(v.display_lossy(), "Ã(");
    }

    #[test]
    fn unknown_tag_is_preserved() {
        let v = RawValue { tag_number: 4, bytes: vec![1, 2, 3] }; // OCTET STRING
        assert_eq!(v.kind(), None);
        assert!(v.decode_strict().is_err());
        let mut w = Writer::new();
        v.write_to(&mut w);
        assert_eq!(w.as_bytes(), &[0x04, 0x03, 1, 2, 3]);
    }
}
