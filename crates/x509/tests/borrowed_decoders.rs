//! The borrowing string decoders against the owned ones.
//!
//! `StringKind::decode_wire_borrowed`, `value::wire_text` and
//! `value::lossy_text` lend the content octets when they already are the
//! text. The owned APIs (`decode_wire`, `decode_strict`, `display_lossy`)
//! and `strings::validate`, which decides the strict verdict, wrap them. This suite holds all of
//! them to a transcription of the owned decoders as they were written
//! before the borrowing rewrite, for the eight string kinds and an unknown
//! tag: exhaustively over every input of 0–2 octets, and by property
//! tests up to 64 octets.

use std::borrow::Cow;

use proptest::prelude::*;
use unicert_asn1::strings::{self, ALL_KINDS};
use unicert_asn1::{Error, StringKind};
use unicert_x509::value::{lossy_text, wire_text};
use unicert_x509::RawValue;

/// OCTET STRING: a tag no string kind uses.
const UNKNOWN_TAG: u32 = 4;

/// Every tag under test: the eight string kinds and the unknown tag.
fn tags() -> Vec<u32> {
    ALL_KINDS.iter().map(|k| k.tag_number()).chain([UNKNOWN_TAG]).collect()
}

/// The owned wire decode as it was written before the borrowing one.
fn reference_wire(kind: StringKind, bytes: &[u8]) -> Result<String, Error> {
    let malformed = Error::MalformedString { kind };
    match kind {
        StringKind::Utf8 => std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| malformed),
        StringKind::Numeric
        | StringKind::Printable
        | StringKind::Ia5
        | StringKind::Visible
        | StringKind::Teletex => Ok(bytes.iter().map(|&b| b as char).collect()),
        StringKind::Universal => {
            if bytes.len() % 4 != 0 {
                return Err(malformed);
            }
            bytes
                .chunks_exact(4)
                .map(|c| {
                    char::from_u32(u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                        .ok_or(malformed.clone())
                })
                .collect()
        }
        StringKind::Bmp => {
            if bytes.len() % 2 != 0 {
                return Err(malformed);
            }
            bytes
                .chunks_exact(2)
                .map(|c| {
                    char::from_u32(u16::from_be_bytes([c[0], c[1]]) as u32).ok_or(malformed.clone())
                })
                .collect()
        }
    }
}

/// The owned strict decode as it was written before the borrowing one.
fn reference_strict(kind: StringKind, bytes: &[u8]) -> Result<String, Error> {
    let s = reference_wire(kind, bytes)?;
    if let Some(bad) = s.chars().find(|&c| !kind.allows_char(c)) {
        return Err(Error::CharacterOutOfRange { kind, ch: bad as u32 });
    }
    Ok(s)
}

/// [`reference_wire`] behind a raw tag number, as `RawValue` dispatches.
fn reference_raw_wire(tag: u32, bytes: &[u8]) -> Result<String, Error> {
    match StringKind::from_tag_number(tag) {
        Some(kind) => reference_wire(kind, bytes),
        None => Err(Error::WrongConstruction),
    }
}

/// The decoders of one value against the reference and against each other.
fn assert_decoders_agree(tag: u32, bytes: &[u8]) {
    let kind = StringKind::from_tag_number(tag);
    let raw = RawValue { tag_number: tag, bytes: bytes.to_vec() };
    let what = format!("tag {tag}, octets {bytes:02x?}");

    // Wire decode: borrowing == owned == reference, text and error alike.
    let wire = reference_raw_wire(tag, bytes);
    assert_eq!(wire_text(tag, bytes).map(Cow::into_owned), wire, "borrowed wire, {what}");
    assert_eq!(raw.decode_wire(), wire, "owned wire, {what}");
    if let Some(kind) = kind {
        assert_eq!(kind.decode_wire_borrowed(bytes).map(Cow::into_owned), wire, "{what}");
        assert_eq!(kind.decode_wire(bytes), wire, "kind wire, {what}");
    }

    // It borrows exactly when the octets are their own wire text.
    let own = kind.and_then(|k| k.as_wire_text(bytes));
    assert_eq!(
        own.is_some(),
        matches!(wire_text(tag, bytes), Ok(Cow::Borrowed(_))),
        "borrows, {what}"
    );
    if let Some(text) = own {
        assert_eq!(text.as_bytes(), bytes, "own text, {what}");
    }

    // Strict decode, and `validate`, the strict verdict.
    let strict = kind.map_or(Err(Error::WrongConstruction), |k| reference_strict(k, bytes));
    assert_eq!(raw.decode_strict(), strict, "owned strict, {what}");
    if let Some(kind) = kind {
        assert_eq!(kind.decode_strict(bytes), strict, "kind strict, {what}");
        assert_eq!(strings::validate(kind, bytes), strict.map(|_| ()), "validate, {what}");
    }

    // Lossy display text: the wire text, else Latin-1.
    let lossy = wire.unwrap_or_else(|_| bytes.iter().map(|&b| b as char).collect());
    assert_eq!(lossy_text(tag, bytes), lossy, "borrowed lossy, {what}");
    assert_eq!(raw.display_lossy(), lossy, "owned lossy, {what}");
}

/// Every input of zero, one and two octets, under every tag.
#[test]
fn every_short_input_decodes_identically() {
    let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
    inputs.extend((0..=255u8).map(|b| vec![b]));
    inputs.extend((0..=u16::MAX).map(|v| v.to_be_bytes().to_vec()));
    for tag in tags() {
        for bytes in &inputs {
            assert_decoders_agree(tag, bytes);
        }
    }
}

/// Values of each storage shape a cached value can take: text that is
/// its own wire form, and values that need a decode (BMPString,
/// UniversalString, Latin-1 TeletexString, invalid UTF-8 in a
/// UTF8String, an unknown tag).
#[test]
fn named_values_decode_identically() {
    let cases: [(StringKind, &[u8]); 10] = [
        (StringKind::Utf8, "Müller GmbH".as_bytes()),
        (StringKind::Utf8, &[0xC3, 0x28]),
        (StringKind::Printable, b"Example Org"),
        (StringKind::Printable, b"a@b"),
        (StringKind::Ia5, b"xn--mnchen-3ya.de"),
        (StringKind::Teletex, &[b'S', b't', 0xF6, b'r']),
        (StringKind::Bmp, &[0x4E, 0x2D, 0x00, 0x41]),
        (StringKind::Bmp, &[0xD8, 0x00]),
        (StringKind::Universal, &[0x00, 0x01, 0xF6, 0x00]),
        (StringKind::Universal, &[0x00, 0x11, 0x00, 0x00]),
    ];
    for (kind, bytes) in cases {
        assert_decoders_agree(kind.tag_number(), bytes);
    }
    assert_decoders_agree(UNKNOWN_TAG, b"opaque");
}

proptest! {
    /// Arbitrary octets up to 64 long, under every tag.
    #[test]
    fn arbitrary_octets_decode_identically(bytes in proptest::collection::vec(any::<u8>(), 0..65)) {
        for tag in tags() {
            assert_decoders_agree(tag, &bytes);
        }
    }

    /// ASCII octets, which every single-byte kind lends as text.
    #[test]
    fn ascii_octets_decode_identically(bytes in proptest::collection::vec(0u8..0x80, 0..65)) {
        for tag in tags() {
            assert_decoders_agree(tag, &bytes);
        }
    }

    /// Well-formed encodings of mixed text in every kind's wire format.
    #[test]
    fn encoded_text_decodes_identically(
        text in "[a-zA-Z0-9 @.\u{0}\u{7F}\u{80}\u{E9}\u{FFFD}\u{4E2D}\u{1F600}-]{0,16}",
    ) {
        for kind in ALL_KINDS {
            let bytes = kind.encode_lossy(&text);
            for tag in tags() {
                assert_decoders_agree(tag, &bytes);
            }
        }
    }
}
