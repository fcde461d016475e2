//! Exhaustive checks of the generated property table over every scalar
//! value. None compares the table with itself: the digests come from the
//! generator's sources, and the quick check from its definition.

use unicert_unicode::nfc::nfc;
use unicert_unicode::tables::normalization::{CANONICAL_DECOMPOSITION, COMPOSITION};
use unicert_unicode::tables::props::{
    DIGEST_CATEGORY, DIGEST_COMBINING_CLASS, DIGEST_IDNA_CLASS, DIGEST_NFC_QUICK_CHECK,
};
use unicert_unicode::{CharProps, GeneralCategory, IdnaClass, NfcQuickCheck};

fn scalars() -> impl Iterator<Item = char> {
    (0..=0x10_FFFF).filter_map(char::from_u32)
}

/// FNV-1a 64 over one byte per scalar value, as `tools/gen_tables.py`
/// computes it.
fn digest(byte: impl Fn(CharProps) -> u8) -> u64 {
    scalars().fold(0xCBF2_9CE4_8422_2325, |h, c| {
        (h ^ u64::from(byte(CharProps::of(c)))).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn every_property_matches_its_source_digest() {
    assert_eq!(digest(|p| p.category as u8), DIGEST_CATEGORY, "category");
    assert_eq!(digest(|p| p.combining_class), DIGEST_COMBINING_CLASS, "combining class");
    assert_eq!(digest(|p| p.nfc_quick_check as u8), DIGEST_NFC_QUICK_CHECK, "NFC quick check");
    assert_eq!(digest(|p| p.idna as u8), DIGEST_IDNA_CLASS, "IDNA class");
}

/// The quick check's definition, evaluated at every scalar value: No for a
/// decomposable character that NFC changes, Maybe for the second element
/// of a primary composite or a Hangul V/T jamo, Yes otherwise.
#[test]
fn quick_check_equals_its_definition_everywhere() {
    let mut seconds: Vec<u32> = COMPOSITION.iter().map(|&(_, second, _)| second).collect();
    seconds.sort_unstable();
    let (hangul_v, hangul_t) = (0x1161..0x1161 + 21, 0x11A8..0x11A7 + 28);
    for c in scalars() {
        let cp = c as u32;
        let decomposes = CANONICAL_DECOMPOSITION.binary_search_by_key(&cp, |&(k, _)| k).is_ok();
        let composes = seconds.binary_search(&cp).is_ok();
        let expected = if decomposes && nfc(&c.to_string()) != c.to_string() {
            NfcQuickCheck::No
        } else if composes || hangul_v.contains(&cp) || hangul_t.contains(&cp) {
            NfcQuickCheck::Maybe
        } else {
            NfcQuickCheck::Yes
        };
        assert_eq!(CharProps::of(c).nfc_quick_check, expected, "U+{cp:04X}");
    }
}

#[test]
fn every_idna_permitted_code_point_is_assigned() {
    for c in scalars() {
        let p = CharProps::of(c);
        if p.idna != IdnaClass::Disallowed {
            let cp = c as u32;
            assert_ne!(p.category, GeneralCategory::Unassigned, "U+{cp:04X} is {:?}", p.idna);
        }
    }
}
