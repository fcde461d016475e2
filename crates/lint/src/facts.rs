//! Per-value facts: what the catalog's character and DNS-shape checks ask
//! of a value's wire text, computed in one pass and stored on the
//! [`CachedVal`](crate::context::CachedVal).
//!
//! About twenty checks used to scan the same text again, each for its own
//! character class, or split the same DNSName on `.` again. The facts here
//! answer all of them from a fixed-size record: a set of character classes
//! and the DNSName label shape.

use std::ops::BitOr;

use unicert_unicode::classify;

/// A set of character classes, as found in one text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharClasses(u8);

impl CharClasses {
    /// U+0000 NUL.
    pub const NUL: CharClasses = CharClasses(1);
    /// C0 controls, DEL and C1 controls ([`classify::is_control`]).
    pub const CONTROL: CharClasses = CharClasses(1 << 1);
    /// U+0020 SPACE.
    pub const SPACE: CharClasses = CharClasses(1 << 2);
    /// Bidirectional controls ([`classify::is_bidi_control`]).
    pub const BIDI_CONTROL: CharClasses = CharClasses(1 << 3);
    /// Zero-width and invisible characters ([`classify::is_zero_width`]).
    pub const ZERO_WIDTH: CharClasses = CharClasses(1 << 4);
    /// Whitespace other than U+0020
    /// ([`classify::is_nonstandard_whitespace`]).
    pub const NONSTANDARD_WHITESPACE: CharClasses = CharClasses(1 << 5);
    /// Anything outside ASCII.
    pub const NON_ASCII: CharClasses = CharClasses(1 << 6);
    /// Anything outside the DNSName repertoire `[a-zA-Z0-9.*-]`.
    pub const NON_DNS: CharClasses = CharClasses(1 << 7);

    /// The classes one character belongs to.
    fn of_char(c: char) -> CharClasses {
        match ASCII_CLASSES.get(c as usize) {
            Some(&bits) => CharClasses(bits),
            None => non_ascii_classes(c),
        }
    }

    /// Do the two sets share a class?
    pub fn intersects(self, other: CharClasses) -> bool {
        self.0 & other.0 != 0
    }
}

impl BitOr for CharClasses {
    type Output = CharClasses;

    fn bitor(self, other: CharClasses) -> CharClasses {
        CharClasses(self.0 | other.0)
    }
}

/// The classes of each ASCII character, so the common case is one load.
const ASCII_CLASSES: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0;
    while b < 128 {
        let mut bits = 0;
        if b == 0 {
            bits |= CharClasses::NUL.0;
        }
        if b < 0x20 || b == 0x7F {
            bits |= CharClasses::CONTROL.0;
        }
        if b == b' ' as usize {
            bits |= CharClasses::SPACE.0;
        }
        let dns = (b as u8).is_ascii_alphanumeric() || matches!(b as u8, b'.' | b'-' | b'*');
        if !dns {
            bits |= CharClasses::NON_DNS.0;
        }
        table[b] = bits; // analysis:allow(slice_index) const evaluation: b < 128 is the table's length, and an overrun fails the build
        b += 1;
    }
    table
};

fn non_ascii_classes(c: char) -> CharClasses {
    let mut classes = CharClasses::NON_ASCII | CharClasses::NON_DNS;
    for (holds, class) in [
        (classify::is_c1_control(c), CharClasses::CONTROL),
        (classify::is_bidi_control(c), CharClasses::BIDI_CONTROL),
        (classify::is_zero_width(c), CharClasses::ZERO_WIDTH),
        (classify::is_nonstandard_whitespace(c), CharClasses::NONSTANDARD_WHITESPACE),
    ] {
        if holds {
            classes = classes | class;
        }
    }
    classes
}

/// The shape of a text's dot-separated labels, read as a DNSName. Equal to
/// the `text.split('.')` definitions named on each field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelShape {
    /// Octets in the longest label: `split('.').map(str::len).max()`.
    pub longest_label: usize,
    /// Is some label empty (`split('.').any(str::is_empty)`)? True for the
    /// empty text and for leading, trailing or doubled dots.
    pub empty_label: bool,
    /// Does some label begin or end with a hyphen?
    pub hyphen_edge: bool,
}

/// The facts of one value's wire text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ValueFacts {
    /// Every character class the text contains.
    pub(crate) classes: CharClasses,
    /// The text's label shape.
    pub(crate) shape: LabelShape,
}

impl ValueFacts {
    /// Both facts from one pass over `text`.
    pub(crate) fn of_text(text: &str) -> ValueFacts {
        let mut facts = ValueFacts::default();
        let mut label_len = 0usize;
        let mut last = None;
        for c in text.chars() {
            facts.classes = facts.classes | CharClasses::of_char(c);
            if c == '.' {
                facts.shape.close_label(label_len, last);
                label_len = 0;
                last = None;
                continue;
            }
            if label_len == 0 && c == '-' {
                facts.shape.hyphen_edge = true;
            }
            label_len += c.len_utf8();
            last = Some(c);
        }
        facts.shape.close_label(label_len, last);
        facts
    }
}

impl LabelShape {
    fn close_label(&mut self, len: usize, last: Option<char>) {
        self.longest_label = self.longest_label.max(len);
        self.empty_label |= len == 0;
        self.hyphen_edge |= last == Some('-');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A character class and the predicate that defines it.
    type ClassDefinition = (CharClasses, fn(char) -> bool);

    /// Each class with the predicate that defines it.
    fn definitions() -> [ClassDefinition; 8] {
        [
            (CharClasses::NUL, |c| c == '\u{0}'),
            (CharClasses::CONTROL, classify::is_control),
            (CharClasses::SPACE, |c| c == ' '),
            (CharClasses::BIDI_CONTROL, classify::is_bidi_control),
            (CharClasses::ZERO_WIDTH, classify::is_zero_width),
            (CharClasses::NONSTANDARD_WHITESPACE, classify::is_nonstandard_whitespace),
            (CharClasses::NON_ASCII, |c| !c.is_ascii()),
            (CharClasses::NON_DNS, |c| {
                !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '*'))
            }),
        ]
    }

    #[test]
    fn every_code_point_sets_exactly_its_classes() {
        let defs = definitions();
        for c in (0..=0x10_FFFF).filter_map(char::from_u32) {
            let one = ValueFacts::of_text(c.encode_utf8(&mut [0; 4])).classes;
            assert_eq!(one, CharClasses::of_char(c), "U+{:04X}", c as u32);
            for (class, holds) in defs {
                assert_eq!(one.intersects(class), holds(c), "U+{:04X} {class:?}", c as u32);
            }
        }
    }

    #[test]
    fn shape_matches_split_definitions() {
        for text in ["", ".", "a..b", "a.b.", ".a", "-a.b", "a-.b", "a.-", "*.x-y.z", "ab.c"] {
            let shape = ValueFacts::of_text(text).shape;
            let labels: Vec<&str> = text.split('.').collect();
            assert_eq!(shape.longest_label, labels.iter().map(|l| l.len()).max().unwrap(), "{text:?}");
            assert_eq!(shape.empty_label, labels.iter().any(|l| l.is_empty()), "{text:?}");
            assert_eq!(
                shape.hyphen_edge,
                labels.iter().any(|l| l.starts_with('-') || l.ends_with('-')),
                "{text:?}"
            );
        }
    }
}
