//! ASN.1 tags: class, constructed bit, and tag number.

use std::fmt;

/// The four ASN.1 tag classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Universal (built-in ASN.1 types).
    Universal,
    /// Application-specific.
    Application,
    /// Context-specific (e.g. `[0]` in a SEQUENCE).
    ContextSpecific,
    /// Private.
    Private,
}

impl Class {
    fn bits(self) -> u8 {
        match self {
            Class::Universal => 0b0000_0000,
            Class::Application => 0b0100_0000,
            Class::ContextSpecific => 0b1000_0000,
            Class::Private => 0b1100_0000,
        }
    }

    #[inline]
    fn from_bits(b: u8) -> Class {
        match b & 0b1100_0000 {
            0b0000_0000 => Class::Universal,
            0b0100_0000 => Class::Application,
            0b1000_0000 => Class::ContextSpecific,
            _ => Class::Private,
        }
    }
}

/// A complete ASN.1 tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// Tag class.
    pub class: Class,
    /// Constructed (`true`) or primitive (`false`).
    pub constructed: bool,
    /// Tag number (supports the high-tag-number form).
    pub number: u32,
}

impl Tag {
    /// A primitive universal tag.
    pub const fn universal(number: u32) -> Tag {
        Tag { class: Class::Universal, constructed: false, number }
    }

    /// A constructed universal tag.
    pub const fn universal_constructed(number: u32) -> Tag {
        Tag { class: Class::Universal, constructed: true, number }
    }

    /// A primitive context-specific tag, e.g. GeneralName `[2]` (dNSName).
    pub const fn context(number: u32) -> Tag {
        Tag { class: Class::ContextSpecific, constructed: false, number }
    }

    /// A constructed context-specific tag, e.g. explicit `[3]` extensions.
    pub const fn context_constructed(number: u32) -> Tag {
        Tag { class: Class::ContextSpecific, constructed: true, number }
    }

    /// The constructed variant of this tag.
    pub const fn as_constructed(self) -> Tag {
        Tag { constructed: true, ..self }
    }

    /// The identifier octet for low tag numbers; callers must use
    /// [`crate::writer::Writer`] for the general case.
    pub(crate) fn first_octet(self) -> u8 {
        let low = if self.number < 31 { self.number as u8 } else { 31 };
        self.class.bits() | if self.constructed { 0b0010_0000 } else { 0 } | low
    }

    #[inline]
    pub(crate) fn from_first_octet(b: u8) -> (Class, bool, u8) {
        (Class::from_bits(b), b & 0b0010_0000 != 0, b & 0b0001_1111)
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = if self.constructed { "c" } else { "p" };
        match self.class {
            Class::Universal => write!(f, "UNIVERSAL {} ({c})", self.number),
            Class::Application => write!(f, "APPLICATION {} ({c})", self.number),
            Class::ContextSpecific => write!(f, "[{}] ({c})", self.number),
            Class::Private => write!(f, "PRIVATE {} ({c})", self.number),
        }
    }
}

/// Universal tag numbers used by X.509 certificates.
pub mod universal {
    /// BOOLEAN.
    pub const BOOLEAN: u32 = 1;
    /// INTEGER.
    pub const INTEGER: u32 = 2;
    /// BIT STRING.
    pub const BIT_STRING: u32 = 3;
    /// OCTET STRING.
    pub const OCTET_STRING: u32 = 4;
    /// NULL.
    pub const NULL: u32 = 5;
    /// OBJECT IDENTIFIER.
    pub const OBJECT_IDENTIFIER: u32 = 6;
    /// UTF8String.
    pub const UTF8_STRING: u32 = 12;
    /// SEQUENCE / SEQUENCE OF.
    pub const SEQUENCE: u32 = 16;
    /// SET / SET OF.
    pub const SET: u32 = 17;
    /// NumericString.
    pub const NUMERIC_STRING: u32 = 18;
    /// PrintableString.
    pub const PRINTABLE_STRING: u32 = 19;
    /// TeletexString (T61String).
    pub const TELETEX_STRING: u32 = 20;
    /// IA5String.
    pub const IA5_STRING: u32 = 22;
    /// UTCTime.
    pub const UTC_TIME: u32 = 23;
    /// GeneralizedTime.
    pub const GENERALIZED_TIME: u32 = 24;
    /// VisibleString.
    pub const VISIBLE_STRING: u32 = 26;
    /// UniversalString (UCS-4).
    pub const UNIVERSAL_STRING: u32 = 28;
    /// BMPString (UCS-2).
    pub const BMP_STRING: u32 = 30;
}

/// Commonly used complete tags.
pub mod tags {
    use super::{universal, Tag};

    /// `BOOLEAN` (primitive).
    pub const BOOLEAN: Tag = Tag::universal(universal::BOOLEAN);
    /// `INTEGER` (primitive).
    pub const INTEGER: Tag = Tag::universal(universal::INTEGER);
    /// `BIT STRING` (primitive in DER).
    pub const BIT_STRING: Tag = Tag::universal(universal::BIT_STRING);
    /// `OCTET STRING` (primitive in DER).
    pub const OCTET_STRING: Tag = Tag::universal(universal::OCTET_STRING);
    /// `NULL`.
    pub const NULL: Tag = Tag::universal(universal::NULL);
    /// `OBJECT IDENTIFIER`.
    pub const OBJECT_IDENTIFIER: Tag = Tag::universal(universal::OBJECT_IDENTIFIER);
    /// `SEQUENCE` (always constructed).
    pub const SEQUENCE: Tag = Tag::universal_constructed(universal::SEQUENCE);
    /// `SET` (always constructed).
    pub const SET: Tag = Tag::universal_constructed(universal::SET);
    /// `UTCTime`.
    pub const UTC_TIME: Tag = Tag::universal(universal::UTC_TIME);
    /// `GeneralizedTime`.
    pub const GENERALIZED_TIME: Tag = Tag::universal(universal::GENERALIZED_TIME);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_octet_low_tags() {
        assert_eq!(tags::SEQUENCE.first_octet(), 0x30);
        assert_eq!(tags::SET.first_octet(), 0x31);
        assert_eq!(tags::INTEGER.first_octet(), 0x02);
        assert_eq!(Tag::context(2).first_octet(), 0x82); // GeneralName dNSName
        assert_eq!(Tag::context_constructed(3).first_octet(), 0xA3);
    }

    #[test]
    fn round_trip_first_octet() {
        for b in [0x30u8, 0x02, 0x82, 0xA3, 0x0C, 0x13, 0x16, 0x1E] {
            let (class, constructed, low) = Tag::from_first_octet(b);
            let t = Tag { class, constructed, number: low as u32 };
            assert_eq!(t.first_octet(), b);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(tags::SEQUENCE.to_string(), "UNIVERSAL 16 (c)");
        assert_eq!(Tag::context(0).to_string(), "[0] (p)");
    }
}
