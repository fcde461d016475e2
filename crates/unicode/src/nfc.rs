//! Unicode Normalization Form C (UAX #15).
//!
//! RFC 5280 (via RFC 4518/PKIX profile practice) expects UTF8String values
//! normalized to NFC, and RFC 5891 requires IDN U-labels to be NFC — the T2
//! ("Bad Normalization") lints check exactly this. The implementation is the
//! standard pipeline: canonical decomposition (generated table + algorithmic
//! Hangul), canonical ordering by combining class, then canonical
//! composition (generated primary-composite table + algorithmic Hangul).

use crate::props::{CharProps, NfcQuickCheck};
use crate::tables::normalization::{CANONICAL_DECOMPOSITION, COMPOSITION};

const S_BASE: u32 = 0xAC00;
const L_BASE: u32 = 0x1100;
const V_BASE: u32 = 0x1161;
const T_BASE: u32 = 0x11A7;
const L_COUNT: u32 = 19;
const V_COUNT: u32 = 21;
const T_COUNT: u32 = 28;
const N_COUNT: u32 = V_COUNT * T_COUNT;
const S_COUNT: u32 = L_COUNT * N_COUNT;

/// Canonical combining class of `ch` (0 for starters).
pub fn combining_class(ch: char) -> u8 {
    CharProps::of(ch).combining_class
}

fn table_decomposition(cp: u32) -> Option<&'static [u32]> {
    CANONICAL_DECOMPOSITION
        .binary_search_by_key(&cp, |&(c, _)| c)
        .ok()
        .and_then(|i| CANONICAL_DECOMPOSITION.get(i))
        .map(|&(_, seq)| seq)
}

fn push_decomposed(cp: u32, out: &mut Vec<char>) {
    // Hangul syllables decompose algorithmically (UAX #15 §3.12).
    if (S_BASE..S_BASE + S_COUNT).contains(&cp) {
        let s_index = cp - S_BASE;
        let l = L_BASE + s_index / N_COUNT;
        let v = V_BASE + (s_index % N_COUNT) / T_COUNT;
        let t = T_BASE + s_index % T_COUNT;
        // The jamo ranges are valid scalars, so these extends always push.
        out.extend(char::from_u32(l));
        out.extend(char::from_u32(v));
        if t != T_BASE {
            out.extend(char::from_u32(t));
        }
        return;
    }
    match table_decomposition(cp) {
        // Table entries are *full* decompositions (already recursive).
        Some(seq) => out.extend(seq.iter().filter_map(|&c| char::from_u32(c))),
        None => out.extend(char::from_u32(cp)), // cp came from a char
    }
}

/// Canonical decomposition with canonical ordering (NFD).
pub fn nfd(s: &str) -> String {
    // ASCII is closed under NFD: no decompositions, all starters.
    if s.is_ascii() {
        return s.to_owned();
    }
    let mut chars: Vec<char> = Vec::with_capacity(s.len());
    for c in s.chars() {
        push_decomposed(c as u32, &mut chars);
    }
    // Canonical ordering: stable bubble of combining marks (runs are short).
    let mut i = 1;
    while i < chars.len() {
        let cc = chars.get(i).map_or(0, |&c| combining_class(c));
        if cc != 0 {
            let mut j = i;
            while let Some(&prev_ch) = j.checked_sub(1).and_then(|p| chars.get(p)) {
                if combining_class(prev_ch) > cc {
                    chars.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        i += 1;
    }
    chars.into_iter().collect()
}

fn compose_pair(a: char, b: char) -> Option<char> {
    let (a, b) = (a as u32, b as u32);
    // Algorithmic Hangul composition.
    if (L_BASE..L_BASE + L_COUNT).contains(&a) && (V_BASE..V_BASE + V_COUNT).contains(&b) {
        let l_index = a - L_BASE;
        let v_index = b - V_BASE;
        return char::from_u32(S_BASE + (l_index * V_COUNT + v_index) * T_COUNT);
    }
    if (S_BASE..S_BASE + S_COUNT).contains(&a)
        && (a - S_BASE) % T_COUNT == 0
        && (T_BASE + 1..T_BASE + T_COUNT).contains(&b)
    {
        return char::from_u32(a + (b - T_BASE));
    }
    COMPOSITION
        .binary_search_by_key(&(a, b), |&(x, y, _)| (x, y))
        .ok()
        .and_then(|i| COMPOSITION.get(i))
        .and_then(|&(_, _, c)| char::from_u32(c))
}

/// Normalization Form C.
pub fn nfc(s: &str) -> String {
    // ASCII is closed under NFC too; skip both passes.
    if s.is_ascii() {
        return s.to_owned();
    }
    let decomposed: Vec<char> = nfd(s).chars().collect();
    if decomposed.is_empty() {
        return String::new();
    }
    // Canonical composition (UAX #15 D117).
    let mut out: Vec<char> = Vec::with_capacity(decomposed.len());
    let mut last_starter: Option<usize> = None;
    let mut last_cc_between: u8 = 0;
    for &c in &decomposed {
        let cc = combining_class(c);
        if let Some(starter_idx) = last_starter {
            let blocked = last_cc_between != 0 && last_cc_between >= cc;
            if !blocked {
                let starter = out.get(starter_idx).copied();
                if let Some(composed) = starter.and_then(|s| compose_pair(s, c)) {
                    if let Some(slot) = out.get_mut(starter_idx) {
                        *slot = composed;
                    }
                    continue;
                }
            }
        }
        if cc == 0 {
            last_starter = Some(out.len());
            last_cc_between = 0;
        } else {
            last_cc_between = cc;
        }
        out.push(c);
    }
    out.into_iter().collect()
}

/// Is `s` already in NFC? (The T2 lint predicate.)
///
/// Uses a UAX #15-style quick check: a definitive answer per character in
/// the common case, falling back to the full `nfc(s) == s` comparison only
/// when a character could compose with its predecessor.
pub fn is_nfc(s: &str) -> bool {
    // ASCII text is NFC by construction — no allocation, one memchr-style
    // scan. This is the overwhelmingly common case in certificate fields.
    if s.is_ascii() {
        return true;
    }
    let mut prev_cc = 0u8;
    for c in s.chars() {
        let props = CharProps::of(c);
        if props.nfc_quick_check == NfcQuickCheck::No {
            return false;
        }
        // Combining marks out of canonical order never survive NFC (its
        // output is canonically ordered), so this is definitive too.
        let cc = props.combining_class;
        if cc != 0 && prev_cc > cc {
            return false;
        }
        if props.nfc_quick_check == NfcQuickCheck::Maybe {
            return nfc(s) == s;
        }
        prev_cc = cc;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_composition() {
        // A + combining grave → À.
        assert_eq!(nfc("A\u{300}"), "\u{C0}");
        // Already composed stays put.
        assert_eq!(nfc("\u{C0}"), "\u{C0}");
        assert_eq!(nfd("\u{C0}"), "A\u{300}");
    }

    #[test]
    fn multi_mark_ordering() {
        // a + dot-below(220) + circumflex(230) vs reversed input: both
        // normalize to the same NFC string (ậ = U+1EAD).
        let a = nfc("a\u{323}\u{302}");
        let b = nfc("a\u{302}\u{323}");
        assert_eq!(a, b);
        assert_eq!(a, "\u{1EAD}");
    }

    #[test]
    fn composition_exclusions_stay_decomposed() {
        // U+0958 DEVANAGARI LETTER QA is a composition exclusion: NFC of its
        // decomposition must stay decomposed.
        assert_eq!(nfd("\u{958}"), "\u{915}\u{93C}");
        assert_eq!(nfc("\u{915}\u{93C}"), "\u{915}\u{93C}");
        assert!(!is_nfc("\u{958}"));
    }

    #[test]
    fn hangul_round_trip() {
        // 한 = U+D55C → ᄒ + ᅡ + ᆫ.
        assert_eq!(nfd("\u{D55C}"), "\u{1112}\u{1161}\u{11AB}");
        assert_eq!(nfc("\u{1112}\u{1161}\u{11AB}"), "\u{D55C}");
        // LV-only syllable.
        assert_eq!(nfc("\u{1112}\u{1161}"), "\u{D558}");
    }

    #[test]
    fn idempotence_examples() {
        for s in ["", "plain ascii", "Île-de-France", "ü\u{308}x", "가각힣", "ậẫ"] {
            assert_eq!(nfc(&nfc(s)), nfc(s), "{s:?}");
        }
    }

    #[test]
    fn paper_french_region_example() {
        // §4.4 F5: "I + combining circumflex le-de-France" should normalize
        // to "Île-de-France".
        assert_eq!(nfc("I\u{302}le-de-France"), "Île-de-France");
        assert!(!is_nfc("I\u{302}le-de-France"));
        assert!(is_nfc("Île-de-France"));
    }

    #[test]
    fn quick_check_matches_full_normalization() {
        // Every table-adjacent character, alone and in composing/reordering
        // contexts: the quick-check fast path must agree with the full
        // `nfc(s) == s` definition everywhere.
        let mut probe_chars: Vec<char> = Vec::new();
        probe_chars.extend(CANONICAL_DECOMPOSITION.iter().filter_map(|&(cp, _)| char::from_u32(cp)));
        probe_chars.extend(COMPOSITION.iter().filter_map(|&(_, second, _)| char::from_u32(second)));
        probe_chars.extend(
            (0..=0x10_FFFF).filter_map(char::from_u32).filter(|&c| combining_class(c) != 0),
        );
        probe_chars.extend(['a', 'ü', '中', '\u{1112}', '\u{1161}', '\u{11AB}', '\u{D55C}']);
        for (i, &c) in probe_chars.iter().enumerate() {
            let solo = c.to_string();
            assert_eq!(is_nfc(&solo), nfc(&solo) == solo, "solo {c:?}");
            // Pair it with a rotating partner to exercise composition,
            // blocking, and reordering paths.
            let partner = probe_chars[(i * 7 + 13) % probe_chars.len()];
            let pair = format!("{c}{partner}");
            assert_eq!(is_nfc(&pair), nfc(&pair) == pair, "pair {c:?}{partner:?}");
            let with_marks = format!("a\u{302}{c}\u{323}");
            assert_eq!(
                is_nfc(&with_marks),
                nfc(&with_marks) == with_marks,
                "marks around {c:?}"
            );
        }
    }

    #[test]
    fn combining_class_lookups() {
        assert_eq!(combining_class('a'), 0);
        assert_eq!(combining_class('\u{300}'), 230);
        assert_eq!(combining_class('\u{323}'), 220);
    }

    #[test]
    fn blocked_composition() {
        // a + dot-below + grave: grave (230) after dot-below (220) is not
        // blocked; a + grave composes to à only if dot-below doesn't block…
        // à with dot below normalizes to ạ̀ (U+1EA1 + U+0300).
        assert_eq!(nfc("a\u{323}\u{300}"), "\u{1EA1}\u{300}");
        // Same combining class twice: second is blocked.
        assert_eq!(nfc("a\u{300}\u{300}"), "\u{E0}\u{300}");
    }
}
