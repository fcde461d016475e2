//! Property-based tests for Punycode and IDNA label handling.

use proptest::prelude::*;
use unicert_idna::punycode;

proptest! {
    /// Punycode encode ∘ decode is the identity on arbitrary Unicode input.
    #[test]
    fn punycode_round_trip(s in "\\PC{0,30}") {
        if let Some(encoded) = punycode::encode(&s) {
            let decoded = punycode::decode(&encoded).unwrap();
            prop_assert_eq!(decoded, s);
        }
    }

    /// Encoded output is always ASCII.
    #[test]
    fn punycode_output_is_ascii(s in "\\PC{0,30}") {
        if let Some(encoded) = punycode::encode(&s) {
            prop_assert!(encoded.is_ascii());
        }
    }

    /// Decode never panics on arbitrary ASCII-ish input.
    #[test]
    fn punycode_decode_never_panics(s in "[a-z0-9-]{0,40}") {
        let _ = punycode::decode(&s);
    }

    /// a_to_u/u_to_a round trip for valid lowercase IDN labels.
    #[test]
    fn label_round_trip(s in "[a-z]{1,5}[\u{E0}-\u{F6}]{1,4}[a-z]{0,5}") {
        // lowercase Latin letters with Latin-1 lowercase accents: PVALID,
        // NFC-stable, never begins with a mark.
        let a = unicert_idna::u_to_a(&s).unwrap();
        prop_assert!(a.starts_with("xn--"));
        let u = unicert_idna::a_to_u(&a).unwrap();
        prop_assert_eq!(u, s);
    }

    /// Decoding and re-encoding is stable: `encode` is a retraction of
    /// `decode`, so re-encoding a decoded string decodes back to it.
    #[test]
    fn punycode_decode_encode_stable(s in "[a-zA-Z0-9]{0,12}-?[a-z0-9]{1,12}") {
        if let Ok(decoded) = punycode::decode(&s) {
            if let Some(reencoded) = punycode::encode(&decoded) {
                prop_assert_eq!(punycode::decode(&reencoded).unwrap(), decoded);
            }
        }
    }

    /// classify_a_label never panics on arbitrary LDH-ish labels.
    #[test]
    fn classify_total(s in "xn--[a-z0-9-]{0,30}") {
        let _ = unicert_idna::label::classify_a_label(&s);
    }

    /// validate_dns_name never panics on arbitrary short strings.
    #[test]
    fn dns_validate_total(s in ".{0,60}") {
        let _ = unicert_idna::validate_dns_name(&s, Default::default());
        let _ = unicert_idna::domain::to_unicode(&s);
    }
}

/// The RFC 3492 §7.1 sample strings: `(unicode, punycode)` pairs from the
/// Punycode specification itself. Selection spans RTL scripts, CJK, Latin
/// with diacritics, mixed ASCII/non-ASCII, and the all-ASCII edge case.
const RFC3492_SAMPLES: &[(&str, &str)] = &[
    // (A) Arabic (Egyptian)
    ("\u{644}\u{64A}\u{647}\u{645}\u{627}\u{628}\u{62A}\u{643}\u{644}\u{645}\u{648}\u{634}\u{639}\u{631}\u{628}\u{64A}\u{61F}", "egbpdaj6bu4bxfgehfvwxn"),
    // (B) Chinese (simplified)
    ("\u{4ED6}\u{4EEC}\u{4E3A}\u{4EC0}\u{4E48}\u{4E0D}\u{8BF4}\u{4E2D}\u{6587}", "ihqwcrb4cv8a8dqg056pqjye"),
    // (D) Czech
    ("Pro\u{10D}prost\u{11B}nemluv\u{ED}\u{10D}esky", "Proprostnemluvesky-uyb24dma41a"),
    // (E) Hebrew
    ("\u{5DC}\u{5DE}\u{5D4}\u{5D4}\u{5DD}\u{5E4}\u{5E9}\u{5D5}\u{5D8}\u{5DC}\u{5D0}\u{5DE}\u{5D3}\u{5D1}\u{5E8}\u{5D9}\u{5DD}\u{5E2}\u{5D1}\u{5E8}\u{5D9}\u{5EA}", "4dbcagdahymbxekheh6e0a7fei0b"),
    // (I) Russian
    ("\u{43F}\u{43E}\u{447}\u{435}\u{43C}\u{443}\u{436}\u{435}\u{43E}\u{43D}\u{438}\u{43D}\u{435}\u{433}\u{43E}\u{432}\u{43E}\u{440}\u{44F}\u{442}\u{43F}\u{43E}\u{440}\u{443}\u{441}\u{441}\u{43A}\u{438}", "b1abfaaepdrnnbgefbadotcwatmq2g4l"),
    // (J) Spanish
    ("Porqu\u{E9}nopuedensimplementehablarenEspa\u{F1}ol", "PorqunopuedensimplementehablarenEspaol-fmd56a"),
    // (L) Japanese: 3<nen>B<gumi><kinpachi><sensei>
    ("3\u{5E74}B\u{7D44}\u{91D1}\u{516B}\u{5148}\u{751F}", "3B-ww4c5e180e575a65lsy2b"),
    // (R) Japanese: <sono><supiido><de>
    ("\u{305D}\u{306E}\u{30B9}\u{30D4}\u{30FC}\u{30C9}\u{3067}", "d9juau41awczczp"),
    // (S) pure ASCII with a trailing hyphen marker
    ("-> $1.00 <-", "-> $1.00 <--"),
];

/// Encode side of the RFC 3492 §7.1 samples.
#[test]
fn rfc3492_sample_vectors_encode() {
    for (unicode, puny) in RFC3492_SAMPLES {
        assert_eq!(
            punycode::encode(unicode).as_deref(),
            Some(*puny),
            "encode({unicode:?})"
        );
    }
}

/// Decode side of the RFC 3492 §7.1 samples.
#[test]
fn rfc3492_sample_vectors_decode() {
    for (unicode, puny) in RFC3492_SAMPLES {
        assert_eq!(
            punycode::decode(puny).as_deref(),
            Ok(*unicode),
            "decode({puny:?})"
        );
    }
}

/// RFC 3492 §6.2, transcribed with a growing `Vec<char>`: the reference the
/// buffer-based decoder must equal, error variants included.
fn reference_decode(input: &str) -> Result<Vec<char>, punycode::PunycodeError> {
    use punycode::PunycodeError as E;
    let mut output: Vec<char> = Vec::new();
    let (basic, extended) = input.rsplit_once('-').unwrap_or(("", input));
    for c in basic.chars() {
        if !c.is_ascii() {
            return Err(E::NonBasicCodePoint);
        }
        output.push(c);
    }
    let (mut n, mut i, mut bias) = (128u32, 0u32, 72u32);
    let mut iter = extended.chars().peekable();
    while iter.peek().is_some() {
        let old_i = i;
        let (mut w, mut k) = (1u32, 36u32);
        loop {
            let c = iter.next().ok_or(E::Truncated)?;
            let digit = match c {
                'a'..='z' => c as u32 - 'a' as u32,
                'A'..='Z' => c as u32 - 'A' as u32,
                '0'..='9' => c as u32 - '0' as u32 + 26,
                _ => return Err(E::InvalidDigit),
            };
            i = i.checked_add(digit.checked_mul(w).ok_or(E::Overflow)?).ok_or(E::Overflow)?;
            let t = if k <= bias { 1 } else if k >= bias + 26 { 26 } else { k - bias };
            if digit < t {
                break;
            }
            w = w.checked_mul(36 - t).ok_or(E::Overflow)?;
            k += 36;
        }
        let len = output.len() as u32 + 1;
        bias = reference_adapt(i - old_i, len, old_i == 0);
        n = n.checked_add(i / len).ok_or(E::Overflow)?;
        i %= len;
        output.insert(i as usize, char::from_u32(n).ok_or(E::InvalidCodePoint)?);
        i += 1;
    }
    Ok(output)
}

/// RFC 3492 §6.3, transcribed with `Vec<u32>` and `String` buffers.
fn reference_encode(input: &str) -> Option<String> {
    let chars: Vec<u32> = input.chars().map(|c| c as u32).collect();
    let mut output: String = input.chars().filter(char::is_ascii).collect();
    let b = output.len() as u32;
    let mut h = b;
    if b > 0 {
        output.push('-');
    }
    let (mut n, mut delta, mut bias) = (128u32, 0u32, 72u32);
    let digit = |d: u32| if d < 26 { (b'a' + d as u8) as char } else { (b'0' + (d - 26) as u8) as char };
    while (h as usize) < chars.len() {
        let m = chars.iter().copied().filter(|&c| c >= n).min()?;
        delta = delta.checked_add((m - n).checked_mul(h + 1)?)?;
        n = m;
        for &c in &chars {
            if c < n {
                delta = delta.checked_add(1)?;
            }
            if c == n {
                let (mut q, mut k) = (delta, 36u32);
                loop {
                    let t = if k <= bias { 1 } else if k >= bias + 26 { 26 } else { k - bias };
                    if q < t {
                        break;
                    }
                    output.push(digit(t + (q - t) % (36 - t)));
                    q = (q - t) / (36 - t);
                    k += 36;
                }
                output.push(digit(q));
                bias = reference_adapt(delta, h + 1, h == b);
                delta = 0;
                h += 1;
            }
        }
        delta = delta.checked_add(1)?;
        n = n.checked_add(1)?;
    }
    Some(output)
}

fn reference_adapt(mut delta: u32, num_points: u32, first_time: bool) -> u32 {
    delta /= if first_time { 700 } else { 2 };
    delta += delta / num_points;
    let mut k = 0;
    while delta > 35 * 26 / 2 {
        delta /= 35;
        k += 36;
    }
    k + 36 * delta / (delta + 38)
}

/// Check the buffer decoder and `decode` against the reference on `s`.
fn assert_decode_matches_reference(s: &str) {
    let reference = reference_decode(s);
    let buffered = punycode::decode_chars(s).map(|d| d.as_slice().to_vec());
    prop_assert_eq!(&buffered, &reference, "decode_chars({:?})", s);
    let string = punycode::decode(s).map(|t| t.chars().collect::<Vec<_>>());
    prop_assert_eq!(&string, &reference, "decode({:?})", s);
}

/// Check `encode` and the encode-compare against the reference on `s`,
/// comparing with the canonical encoding, its uppercase form, the encoding
/// with one character more and one fewer, and `other`.
fn assert_encode_matches_reference(s: &str, other: &str) {
    let reference = reference_encode(s);
    prop_assert_eq!(punycode::encode(s), reference.clone(), "encode({:?})", s);
    let chars: Vec<char> = s.chars().collect();
    let canonical = reference.clone().unwrap_or_default();
    let shorter = canonical.get(..canonical.len().saturating_sub(1)).unwrap_or_default();
    for expected in [
        canonical.clone(),
        canonical.to_ascii_uppercase(),
        format!("{canonical}a"),
        shorter.to_string(),
        other.to_string(),
    ] {
        let want = reference.as_ref().is_some_and(|e| e.eq_ignore_ascii_case(&expected));
        prop_assert_eq!(
            punycode::encodes_to(&chars, &expected),
            want,
            "encodes_to({:?}, {:?})",
            s,
            expected
        );
    }
}

proptest! {
    /// The buffer decoder equals the reference on Punycode-alphabet input
    /// of up to 80 characters: past the 63-octet label it takes the heap
    /// fallback, and every error variant is reachable.
    #[test]
    fn buffer_decode_matches_reference_on_punycode_alphabet(s in "[a-zA-Z0-9-]{0,80}") {
        assert_decode_matches_reference(&s);
    }

    /// The same on input mixing in non-basic and non-digit characters.
    #[test]
    fn buffer_decode_matches_reference_on_mixed_input(s in "[a-z0-9!é中-]{0,80}") {
        assert_decode_matches_reference(&s);
    }

    /// The same on arbitrary Unicode text.
    #[test]
    fn buffer_decode_matches_reference_on_any_text(s in "\\PC{0,80}") {
        assert_decode_matches_reference(&s);
    }

    /// `encode` and `encodes_to` equal the reference encoder on arbitrary
    /// Unicode text of up to 80 characters.
    #[test]
    fn encode_compare_matches_reference(s in "\\PC{0,80}", other in "[a-z0-9-]{0,20}") {
        assert_encode_matches_reference(&s, &other);
    }

    /// The same on label-like text: ASCII letters around Latin-1 and CJK.
    #[test]
    fn encode_compare_matches_reference_on_labels(
        s in "[a-zA-Z0-9-]{0,30}[\u{E0}-\u{FF}\u{4E00}-\u{4E20}]{0,30}[a-z]{0,20}",
        other in "[a-zA-Z0-9-]{0,40}",
    ) {
        assert_encode_matches_reference(&s, &other);
    }

    /// Decoding a payload and re-encoding it compares equal to the payload
    /// exactly when the reference round trip does.
    #[test]
    fn decode_then_compare_matches_reference_round_trip(s in "[a-zA-Z0-9-]{0,80}") {
        if let Ok(decoded) = punycode::decode_chars(&s) {
            let text: String = decoded.as_slice().iter().collect();
            let want = reference_encode(&text).is_some_and(|e| e.eq_ignore_ascii_case(&s));
            prop_assert_eq!(punycode::encodes_to(decoded.as_slice(), &s), want, "{:?}", s);
        }
    }
}
