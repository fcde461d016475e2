//! Per-code-point Unicode properties, read from one generated table.
//!
//! `tools/gen_tables.py` maps every code point to a [`CharProps`] record
//! (general category, canonical combining class, NFC quick check and
//! IDNA2008 class, all at UCD 14.0) and emits the map as a two-stage table:
//! the first stage picks a 128-entry leaf for `cp >> 7`, the leaf picks one
//! of the 127 distinct records. [`CharProps::of`] is the one lookup that
//! [`GeneralCategory::of`], [`nfc::combining_class`](crate::nfc::combining_class),
//! the [`nfc::is_nfc`](crate::nfc::is_nfc) quick check and the IDNA crate's
//! `idna_class` read.

use crate::category::GeneralCategory;
use crate::tables::props::{LEAF_BITS, LEAVES, RECORDS, STAGE1};

/// The NFC quick-check property (UAX #15 §9), derived by the generator
/// from the decomposition and composition data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NfcQuickCheck {
    /// The character can appear in NFC text.
    Yes = 0,
    /// The character never appears in NFC output: it has a canonical
    /// decomposition that does not recompose to it (singletons,
    /// composition exclusions, and mark-sequence decompositions).
    No = 1,
    /// The character may compose with a preceding character (it appears as
    /// the second element of a canonical composition, or is a Hangul V/T
    /// jamo), so its presence forces the full normalization check.
    Maybe = 2,
}

/// RFC 5892 derived property classes at UCD 14.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IdnaClass {
    /// Usable in any IDN label.
    Pvalid = 0,
    /// Joiner characters (ZWJ/ZWNJ); valid only in specific contexts.
    ContextJ = 1,
    /// Other contextual characters (middle dot, …).
    ContextO = 2,
    /// Never permitted: DISALLOWED, and UNASSIGNED at UCD 14.0.
    Disallowed = 3,
}

/// Everything the linters ask about one code point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharProps {
    /// General category.
    pub category: GeneralCategory,
    /// Canonical combining class (0 for starters).
    pub combining_class: u8,
    /// NFC quick-check value.
    pub nfc_quick_check: NfcQuickCheck,
    /// IDNA2008 derived property.
    pub idna: IdnaClass,
}

impl CharProps {
    /// The record of an unassigned code point.
    pub(crate) const UNASSIGNED: CharProps =
        CharProps::new(GeneralCategory::Unassigned, 0, NfcQuickCheck::Yes, IdnaClass::Disallowed);

    pub(crate) const fn new(
        category: GeneralCategory,
        combining_class: u8,
        nfc_quick_check: NfcQuickCheck,
        idna: IdnaClass,
    ) -> CharProps {
        CharProps { category, combining_class, nfc_quick_check, idna }
    }

    /// The properties of `ch`: three array loads.
    pub fn of(ch: char) -> CharProps {
        let cp = ch as usize;
        // Index 0 is the all-unassigned leaf and the unassigned record, so
        // a miss at either stage answers "unassigned".
        let leaf = usize::from(STAGE1.get(cp >> LEAF_BITS).copied().unwrap_or(0));
        let slot = (leaf << LEAF_BITS) | (cp & ((1 << LEAF_BITS) - 1));
        let record = usize::from(LEAVES.get(slot).copied().unwrap_or(0));
        RECORDS.get(record).copied().unwrap_or(CharProps::UNASSIGNED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_zero_is_unassigned() {
        assert_eq!(RECORDS.first(), Some(&CharProps::UNASSIGNED));
        assert!(LEAVES.iter().take(1 << LEAF_BITS).all(|&r| r == 0));
        assert_eq!(CharProps::of('\u{10FFFF}'), CharProps::UNASSIGNED);
    }

    #[test]
    fn spot_checks() {
        let p = CharProps::of('\u{301}');
        assert_eq!(p.category, GeneralCategory::NonspacingMark);
        assert_eq!(p.combining_class, 230);
        assert_eq!(p.nfc_quick_check, NfcQuickCheck::Maybe);
        assert_eq!(p.idna, IdnaClass::Pvalid);
        assert_eq!(CharProps::of('\u{958}').nfc_quick_check, NfcQuickCheck::No);
        assert_eq!(CharProps::of('\u{200C}').idna, IdnaClass::ContextJ);
        assert_eq!(CharProps::of('A').idna, IdnaClass::Disallowed);
    }
}
