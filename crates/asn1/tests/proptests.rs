//! Property-based tests for the DER codec.

use proptest::prelude::*;
use unicert_asn1::reader::parse_single;
use unicert_asn1::strings::ALL_KINDS;
use unicert_asn1::{integer, DateTime, Reader, StringKind, Tag, Writer};

proptest! {
    /// Anything the writer emits, the reader parses back byte-exactly.
    #[test]
    fn tlv_round_trip(value in proptest::collection::vec(any::<u8>(), 0..600), tag_num in 0u32..200) {
        let tag = Tag::context(tag_num);
        let mut w = Writer::new();
        w.write_tlv(tag, &value);
        let der = w.into_bytes();
        let tlv = parse_single(&der).unwrap();
        prop_assert_eq!(tlv.tag, tag);
        prop_assert_eq!(tlv.value, &value[..]);
        prop_assert_eq!(tlv.raw, &der[..]);
    }

    /// The reader never panics on arbitrary bytes.
    #[test]
    fn reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut r = Reader::new(&bytes);
        while let Ok(tlv) = r.read_tlv() {
            let _ = tlv.contents().read_all();
            if r.is_empty() { break; }
        }
    }

    /// u64 integers round-trip through minimal DER.
    #[test]
    fn integer_round_trip(v in any::<u64>()) {
        let body = integer::encode_u64(v);
        integer::validate(&body).unwrap();
        prop_assert_eq!(integer::decode_u64(&body).unwrap(), v);
    }

    /// Unsigned magnitudes round-trip (serial numbers).
    #[test]
    fn magnitude_round_trip(mag in proptest::collection::vec(any::<u8>(), 1..24)) {
        let body = integer::encode_unsigned(&mag);
        let back = integer::unsigned_magnitude(&body).unwrap();
        let expect: Vec<u8> = {
            let trimmed: Vec<u8> = mag.iter().copied().skip_while(|&b| b == 0).collect();
            if trimmed.is_empty() { vec![0] } else { trimmed }
        };
        prop_assert_eq!(back, &expect[..]);
    }

    /// Every string kind: strict decode of a lossy encode of chars the wire
    /// format can carry AND the charset allows must succeed and round-trip.
    #[test]
    fn string_strict_round_trip(s in "[a-zA-Z0-9 .-]{0,40}") {
        for kind in ALL_KINDS {
            if kind == StringKind::Numeric { continue; } // letters not allowed
            let bytes = kind.encode_lossy(&s);
            let back = kind.decode_strict(&bytes).unwrap();
            prop_assert_eq!(&back, &s);
        }
    }

    /// Wire decode never panics for any kind on any bytes.
    #[test]
    fn string_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        for kind in ALL_KINDS {
            let _ = kind.decode_wire(&bytes);
            let _ = kind.decode_strict(&bytes);
        }
    }

    /// Dates round-trip through both time encodings and day arithmetic.
    #[test]
    fn datetime_round_trip(days in 0i64..36000, secs in 0u32..86400) {
        let base = DateTime::date(1960, 1, 1).unwrap();
        let d = base.plus_days(days);
        let dt = DateTime::new(d.year, d.month, d.day,
            (secs / 3600) as u8, ((secs / 60) % 60) as u8, (secs % 60) as u8).unwrap();
        let g = dt.to_generalized_string();
        prop_assert_eq!(DateTime::from_generalized(g.as_bytes()).unwrap(), dt);
        if (1950..=2049).contains(&dt.year) {
            let u = dt.to_utc_time_string();
            prop_assert_eq!(DateTime::from_utc_time(u.as_bytes()).unwrap(), dt);
        }
        // plus_days is an action of (Z, +).
        let fwd = dt.plus_days(123).plus_days(-123);
        prop_assert_eq!(fwd, dt);
    }

    /// Byte-mutation fuzzing through the full stack: take a valid signed
    /// certificate, flip arbitrary bytes, and require that DER parsing and —
    /// when parsing still succeeds — the complete 95-lint registry neither
    /// panic nor hang. This is the paper's §3.2 mutation pipeline run as a
    /// safety property over the whole substrate.
    #[test]
    fn mutated_certificate_never_panics(
        mutations in proptest::collection::vec((0usize..4096, any::<u8>()), 1..16),
        cn in "[a-z]{1,12}",
    ) {
        use unicert_lint::{default_registry, RunOptions};
        use unicert_x509::{Certificate, CertificateBuilder, SimKey};

        let cert = CertificateBuilder::new()
            .subject_cn(&format!("{cn}.example"))
            .add_dns_san(&format!("{cn}.example"))
            .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("proptest-ca"));
        let mut der = cert.raw.clone();
        let len = der.len().max(1);
        for &(pos, byte) in &mutations {
            if let Some(slot) = der.get_mut(pos % len) {
                *slot ^= byte;
            }
        }
        // Parse must return, never panic; lints must run on whatever parses.
        if let Ok(mutated) = Certificate::parse_der(&der) {
            let registry = default_registry();
            let _ = registry.run(&mutated.raw, RunOptions::default());
            let _ = registry.run(&mutated.raw, RunOptions::ungated());
        }
    }

    /// Nested sequences written with the writer parse back with the reader.
    #[test]
    fn nested_structures(values in proptest::collection::vec(any::<u64>(), 0..10)) {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            for &v in &values {
                w.write_sequence(|w| w.write_u64(v));
            }
        });
        let der = w.into_bytes();
        let tlv = parse_single(&der).unwrap();
        let mut inner = tlv.contents();
        let mut got = Vec::new();
        while !inner.is_empty() {
            let seq = inner.read_tlv().unwrap();
            let mut c = seq.contents();
            got.push(integer::decode_u64(c.read_tlv().unwrap().value).unwrap());
        }
        prop_assert_eq!(got, values);
    }
}
