//! Unicode general categories, read from the generated property table.

use crate::props::CharProps;

/// The 30 Unicode general categories.
///
/// The discriminants match the category order of `tools/gen_tables.py`,
/// whose category digest hashes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // names follow UAX #44 exactly
pub enum GeneralCategory {
    UppercaseLetter = 0,
    LowercaseLetter = 1,
    TitlecaseLetter = 2,
    ModifierLetter = 3,
    OtherLetter = 4,
    NonspacingMark = 5,
    SpacingMark = 6,
    EnclosingMark = 7,
    DecimalNumber = 8,
    LetterNumber = 9,
    OtherNumber = 10,
    ConnectorPunctuation = 11,
    DashPunctuation = 12,
    OpenPunctuation = 13,
    ClosePunctuation = 14,
    InitialPunctuation = 15,
    FinalPunctuation = 16,
    OtherPunctuation = 17,
    MathSymbol = 18,
    CurrencySymbol = 19,
    ModifierSymbol = 20,
    OtherSymbol = 21,
    SpaceSeparator = 22,
    LineSeparator = 23,
    ParagraphSeparator = 24,
    Control = 25,
    Format = 26,
    Surrogate = 27,
    PrivateUse = 28,
    Unassigned = 29,
}

impl GeneralCategory {
    /// The category of `ch`.
    pub fn of(ch: char) -> GeneralCategory {
        CharProps::of(ch).category
    }

    /// Letter categories (L*).
    pub fn is_letter(self) -> bool {
        use GeneralCategory::*;
        matches!(self, UppercaseLetter | LowercaseLetter | TitlecaseLetter | ModifierLetter | OtherLetter)
    }

    /// Mark categories (M*).
    pub fn is_mark(self) -> bool {
        use GeneralCategory::*;
        matches!(self, NonspacingMark | SpacingMark | EnclosingMark)
    }

    /// Number categories (N*).
    pub fn is_number(self) -> bool {
        use GeneralCategory::*;
        matches!(self, DecimalNumber | LetterNumber | OtherNumber)
    }

    /// Other categories (C*): controls, format, surrogates, private use,
    /// unassigned.
    pub fn is_other(self) -> bool {
        use GeneralCategory::*;
        matches!(self, Control | Format | Surrogate | PrivateUse | Unassigned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GeneralCategory::*;

    #[test]
    fn spot_checks_against_ucd() {
        assert_eq!(GeneralCategory::of('A'), UppercaseLetter);
        assert_eq!(GeneralCategory::of('a'), LowercaseLetter);
        assert_eq!(GeneralCategory::of('5'), DecimalNumber);
        assert_eq!(GeneralCategory::of(' '), SpaceSeparator);
        assert_eq!(GeneralCategory::of('\u{0}'), Control);
        assert_eq!(GeneralCategory::of('\u{7F}'), Control);
        assert_eq!(GeneralCategory::of('\u{AD}'), Format); // soft hyphen
        assert_eq!(GeneralCategory::of('\u{200B}'), Format); // ZWSP
        assert_eq!(GeneralCategory::of('中'), OtherLetter);
        assert_eq!(GeneralCategory::of('\u{0301}'), NonspacingMark);
        assert_eq!(GeneralCategory::of('€'), CurrencySymbol);
        assert_eq!(GeneralCategory::of('\u{E000}'), PrivateUse);
        assert_eq!(GeneralCategory::of('\u{0378}'), Unassigned);
    }

    #[test]
    fn group_predicates() {
        assert!(GeneralCategory::of('ß').is_letter());
        assert!(GeneralCategory::of('\u{0301}').is_mark());
        assert!(GeneralCategory::of('Ⅷ').is_number()); // Roman numeral, Nl
        assert!(GeneralCategory::of('\u{1B}').is_other());
    }
}
