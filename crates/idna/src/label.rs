//! Per-label IDNA2008 validation and A-label ⇄ U-label conversion
//! (RFC 5890/5891/5892).

use crate::punycode;
use unicert_unicode::nfc;
use unicert_unicode::CharProps;
pub use unicert_unicode::IdnaClass;

/// The ACE prefix of RFC 5890.
pub const ACE_PREFIX: &str = "xn--";

/// The RFC 5892 derived property of `ch` at UCD 14.0, from the generated
/// property table.
pub fn idna_class(ch: char) -> IdnaClass {
    CharProps::of(ch).idna
}

/// Why a label failed validation. Mirrors the failure classes of the
/// paper's F1 finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// Empty label.
    Empty,
    /// Longer than 63 octets in ACE form (RFC 1034 §3.1).
    TooLong,
    /// Contains a character outside letters/digits/hyphen in its ASCII form.
    NotLdh {
        /// The offending character.
        ch: char,
    },
    /// Leading or trailing hyphen.
    BadHyphenPlacement,
    /// Hyphens in positions 3–4 without being a valid A-label
    /// ("fake" xn-- or other reserved prefix).
    ReservedHyphenPositions,
    /// The `xn--` payload failed Punycode decoding — the paper's
    /// "cannot convert to Unicode" class (F1-i).
    UnconvertibleALabel(punycode::PunycodeError),
    /// The decoded U-label re-encodes to a *different* A-label (round-trip
    /// failure; includes inputs that were not the canonical encoding).
    RoundTripMismatch,
    /// The U-label is not in NFC — the paper's T2 "Bad Normalization" class.
    NotNfc,
    /// The U-label contains a character DISALLOWED by IDNA2008 — the
    /// paper's "illegal characters after Punycode decoding" class (F1-ii).
    DisallowedCharacter {
        /// The offending character.
        ch: char,
    },
    /// The U-label begins with a combining mark (RFC 5891 §4.2.3.2).
    LeadingCombiningMark,
    /// A contextual character appeared without a satisfying context
    /// (simplified CONTEXTJ/CONTEXTO rule).
    BadContext {
        /// The offending character.
        ch: char,
    },
    /// The label mixes text directions in violation of the RFC 5893 Bidi
    /// rule.
    BidiViolation,
    /// The label is all-ASCII but carries the ACE prefix with an empty
    /// payload.
    EmptyAcePayload,
}

/// Is `label` syntactically an A-label candidate (has the ACE prefix)?
#[inline]
pub fn has_ace_prefix(label: &str) -> bool {
    label
        .get(..4)
        .is_some_and(|p| p.eq_ignore_ascii_case(ACE_PREFIX))
}

/// Validate pure LDH syntax (RFC 5890 §2.3.1): letters, digits, hyphens,
/// no leading/trailing hyphen, ≤ 63 octets.
pub fn validate_ldh(label: &str) -> Result<(), LabelError> {
    if label.is_empty() {
        return Err(LabelError::Empty);
    }
    if label.len() > 63 {
        return Err(LabelError::TooLong);
    }
    if let Some(ch) = label.chars().find(|&c| !(c.is_ascii_alphanumeric() || c == '-')) {
        return Err(LabelError::NotLdh { ch });
    }
    if label.starts_with('-') || label.ends_with('-') {
        return Err(LabelError::BadHyphenPlacement);
    }
    Ok(())
}

/// Convert an A-label to its U-label, validating the full IDNA2008 pipeline.
///
/// `label` must include the `xn--` prefix. On success the returned string is
/// the NFC U-label.
pub fn a_to_u(label: &str) -> Result<String, LabelError> {
    validate_ldh(label)?;
    if !has_ace_prefix(label) {
        return Err(LabelError::ReservedHyphenPositions);
    }
    let payload = label.get(4..).unwrap_or_default();
    if payload.is_empty() {
        return Err(LabelError::EmptyAcePayload);
    }
    let u = decode_payload(payload).map_err(LabelError::UnconvertibleALabel)?;
    // Round trip: the canonical re-encoding must reproduce the input.
    if !punycode::encodes_to(u.as_slice(), payload) {
        return Err(LabelError::RoundTripMismatch);
    }
    // An A-label must actually contain non-ASCII (otherwise it is a "fake"
    // A-label: plain ASCII hidden behind xn--).
    if u.as_slice().iter().all(char::is_ascii) {
        return Err(LabelError::RoundTripMismatch);
    }
    let u: String = u.as_slice().iter().collect();
    validate_u_label(&u)?;
    Ok(u)
}

/// Punycode-decode an ACE payload (the label after `xn--`) as its
/// lowercase form, the way [`a_to_u`] reads it: in a buffer sized from the
/// payload, with no intermediate lowercased copy.
pub fn decode_payload(payload: &str) -> Result<punycode::Decoded, punycode::PunycodeError> {
    let mut u = punycode::decode_chars(payload)?;
    u.make_ascii_lowercase();
    Ok(u)
}

/// Convert a U-label to its A-label (with prefix), validating first.
pub fn u_to_a(label: &str) -> Result<String, LabelError> {
    if label.is_ascii() {
        validate_ldh(label)?;
        return Ok(label.to_ascii_lowercase());
    }
    validate_u_label(label)?;
    let encoded = punycode::encode(label).ok_or(LabelError::RoundTripMismatch)?;
    let a = format!("{ACE_PREFIX}{encoded}");
    if a.len() > 63 {
        return Err(LabelError::TooLong);
    }
    Ok(a)
}

/// Validate a U-label per IDNA2008 (RFC 5891 §4.2 + RFC 5892 properties).
pub fn validate_u_label(label: &str) -> Result<(), LabelError> {
    if label.is_empty() {
        return Err(LabelError::Empty);
    }
    if !nfc::is_nfc(label) {
        return Err(LabelError::NotNfc);
    }
    validate_nfc_u_label(label)
}

/// [`validate_u_label`] for a label the caller already knows is NFC: every
/// rule after the normalization check.
pub fn validate_nfc_u_label(label: &str) -> Result<(), LabelError> {
    let Some(first) = label.chars().next() else {
        return Err(LabelError::Empty);
    };
    // No ASCII character is a mark, so only non-ASCII needs the table.
    if !first.is_ascii() && unicert_unicode::GeneralCategory::of(first).is_mark() {
        return Err(LabelError::LeadingCombiningMark);
    }
    if label.starts_with('-') || label.ends_with('-') {
        return Err(LabelError::BadHyphenPlacement);
    }
    {
        let mut it = label.chars();
        if it.nth(2) == Some('-') && it.next() == Some('-') {
            return Err(LabelError::ReservedHyphenPositions);
        }
    }
    let mut prev: Option<char> = None;
    let mut iter = label.chars().peekable();
    while let Some(ch) = iter.next() {
        match idna_class(ch) {
            IdnaClass::Pvalid => {}
            IdnaClass::Disallowed => return Err(LabelError::DisallowedCharacter { ch }),
            // Simplified contextual rules: ZWNJ/ZWJ require a preceding
            // virama (ccc = 9); CONTEXTO middle dot requires 'l' on both
            // sides; other CONTEXTO characters are accepted when surrounded
            // by PVALID (a documented approximation of RFC 5892 App. A).
            IdnaClass::ContextJ => {
                let prev_ok =
                    prev.is_some_and(|p| unicert_unicode::nfc::combining_class(p) == 9);
                if !prev_ok {
                    return Err(LabelError::BadContext { ch });
                }
            }
            IdnaClass::ContextO => {
                if ch == '\u{B7}' {
                    let ok = prev == Some('l') && iter.peek() == Some(&'l');
                    if !ok {
                        return Err(LabelError::BadContext { ch });
                    }
                }
            }
        }
        prev = Some(ch);
    }
    if !crate::bidi::satisfies_bidi_rule(label) {
        return Err(LabelError::BidiViolation);
    }
    Ok(())
}

/// Classify an `xn--` label the way the F1 analysis does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ALabelStatus {
    /// Fully valid A-label.
    Valid,
    /// Cannot be converted to Unicode at all (F1-i).
    Unconvertible,
    /// Converts, but the U-label violates IDNA2008 (F1-ii).
    DisallowedContent,
    /// Converts, but is not the canonical encoding (round-trip mismatch).
    NonCanonical,
    /// Not an A-label (no ACE prefix or bad LDH syntax).
    NotALabel,
}

/// Classify a label for the F1 experiment.
pub fn classify_a_label(label: &str) -> ALabelStatus {
    if validate_ldh(label).is_err() || !has_ace_prefix(label) {
        return ALabelStatus::NotALabel;
    }
    match a_to_u(label) {
        Ok(_) => ALabelStatus::Valid,
        Err(LabelError::UnconvertibleALabel(_)) | Err(LabelError::EmptyAcePayload) => {
            ALabelStatus::Unconvertible
        }
        Err(LabelError::RoundTripMismatch) => ALabelStatus::NonCanonical,
        Err(_) => ALabelStatus::DisallowedContent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_a_labels() {
        assert_eq!(a_to_u("xn--mnchen-3ya").unwrap(), "münchen");
        assert_eq!(a_to_u("xn--fiqs8s").unwrap(), "中国");
        assert_eq!(a_to_u("XN--MNCHEN-3YA").unwrap(), "münchen");
    }

    #[test]
    fn u_to_a_round_trip() {
        assert_eq!(u_to_a("münchen").unwrap(), "xn--mnchen-3ya");
        assert_eq!(u_to_a("中国").unwrap(), "xn--fiqs8s");
        assert_eq!(u_to_a("plain").unwrap(), "plain");
    }

    #[test]
    fn f1_unconvertible_labels() {
        // Overflowing delta → cannot convert to Unicode.
        assert_eq!(classify_a_label("xn--99999999999"), ALabelStatus::Unconvertible);
        // "xn--" alone ends with a hyphen, so it is not even LDH-valid.
        assert_eq!(classify_a_label("xn--"), ALabelStatus::NotALabel);
    }

    #[test]
    fn f1_disallowed_after_decoding() {
        // xn--www-hn0a decodes to LRM + "www": a bidi control, DISALLOWED.
        assert_eq!(a_to_u("xn--www-hn0a").unwrap_err(), LabelError::DisallowedCharacter { ch: '\u{200E}' });
        assert_eq!(classify_a_label("xn--www-hn0a"), ALabelStatus::DisallowedContent);
    }

    #[test]
    fn fake_a_label_is_rejected() {
        // The ACE form of pure-ASCII "www" is "xn--www-", which ends with a
        // hyphen: it fails LDH before any Punycode processing.
        let a = format!("{ACE_PREFIX}{}", punycode::encode("www").unwrap());
        assert_eq!(a, "xn--www-");
        assert_eq!(classify_a_label(&a), ALabelStatus::NotALabel);
        // A payload with a leading delimiter decodes (empty basic part) but
        // never re-encodes to itself: the non-canonical class.
        let status = classify_a_label("xn---foo");
        assert!(
            matches!(status, ALabelStatus::NonCanonical | ALabelStatus::Unconvertible),
            "{status:?}"
        );
    }

    #[test]
    fn idna_class_spot_checks() {
        assert_eq!(idna_class('a'), IdnaClass::Pvalid);
        assert_eq!(idna_class('ü'), IdnaClass::Pvalid);
        assert_eq!(idna_class('中'), IdnaClass::Pvalid);
        assert_eq!(idna_class('A'), IdnaClass::Disallowed); // uppercase
        assert_eq!(idna_class('\u{200E}'), IdnaClass::Disallowed); // LRM
        assert_eq!(idna_class('\u{200D}'), IdnaClass::ContextJ); // ZWJ
        assert_eq!(idna_class('\u{B7}'), IdnaClass::ContextO); // middle dot
        assert_eq!(idna_class('!'), IdnaClass::Disallowed);
        assert_eq!(idna_class('\u{0}'), IdnaClass::Disallowed);
    }

    #[test]
    fn u_label_validation() {
        validate_u_label("münchen").unwrap();
        assert_eq!(validate_u_label(""), Err(LabelError::Empty));
        assert_eq!(
            validate_u_label("mu\u{308}nchen"), // decomposed ü
            Err(LabelError::NotNfc)
        );
        assert_eq!(
            validate_u_label("\u{301}abc"),
            Err(LabelError::LeadingCombiningMark)
        );
        assert_eq!(validate_u_label("-abc"), Err(LabelError::BadHyphenPlacement));
        assert_eq!(
            validate_u_label("ab--cü"),
            Err(LabelError::ReservedHyphenPositions)
        );
    }

    #[test]
    fn contextual_rules() {
        // Catalan l·l is the canonical CONTEXTO success case.
        validate_u_label("col·legi").unwrap();
        assert_eq!(
            validate_u_label("a·b"),
            Err(LabelError::BadContext { ch: '\u{B7}' })
        );
        // ZWJ without a preceding virama.
        assert_eq!(
            validate_u_label("a\u{200D}b"),
            Err(LabelError::BadContext { ch: '\u{200D}' })
        );
        // ZWJ after a virama (Devanagari ka + virama + ZWJ + ssa).
        validate_u_label("\u{915}\u{94D}\u{200D}\u{937}").unwrap();
    }

    #[test]
    fn ldh_validation() {
        validate_ldh("example").unwrap();
        validate_ldh("a-b-c123").unwrap();
        assert_eq!(validate_ldh("-abc"), Err(LabelError::BadHyphenPlacement));
        assert_eq!(validate_ldh("abc-"), Err(LabelError::BadHyphenPlacement));
        assert_eq!(validate_ldh("a_b"), Err(LabelError::NotLdh { ch: '_' }));
        assert_eq!(validate_ldh(&"a".repeat(64)), Err(LabelError::TooLong));
        validate_ldh(&"a".repeat(63)).unwrap();
    }
}

#[cfg(test)]
mod bidi_integration_tests {
    use super::*;

    #[test]
    fn mixed_direction_u_labels_rejected() {
        assert_eq!(validate_u_label("שלוaם"), Err(LabelError::BidiViolation));
        validate_u_label("שלום").unwrap();
        validate_u_label("مرحبا").unwrap();
    }

    #[test]
    fn mixed_direction_a_label_classified_as_disallowed_content() {
        // Encode a direction-mixing label behind Punycode: it converts,
        // but the U-label violates RFC 5893 — the F1-ii class again.
        let mixed = "aש";
        let a = format!("xn--{}", crate::punycode::encode(mixed).unwrap());
        assert_eq!(classify_a_label(&a), ALabelStatus::DisallowedContent);
    }
}
