//! Property-based tests: certificate build → parse round trips and
//! parser robustness under byte mutation.

use proptest::prelude::*;
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, StringKind};
use unicert_x509::{Certificate, CertificateBuilder, SimKey};

fn arb_kind() -> impl Strategy<Value = StringKind> {
    proptest::sample::select(vec![
        StringKind::Utf8,
        StringKind::Printable,
        StringKind::Ia5,
        StringKind::Bmp,
        StringKind::Teletex,
    ])
}

proptest! {
    /// Builder → DER → parse reproduces the TBS model exactly, for
    /// arbitrary subject text in arbitrary string kinds.
    #[test]
    fn build_parse_round_trip(
        cn in "[a-zA-Z0-9 .\u{80}-\u{2FFF}]{1,30}",
        org in "[a-zA-Z0-9 .]{1,20}",
        kind in arb_kind(),
        days in 1i64..2000,
        serial in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let key = SimKey::from_seed(&org);
        let cert = CertificateBuilder::new()
            .serial(&serial)
            .subject_attr(known::common_name(), kind, &cn)
            .subject_org(&org)
            .issuer_org(&org)
            .validity_days(DateTime::date(2023, 6, 15).unwrap(), days)
            .add_dns_san("test.example")
            .build_signed(&key);
        let parsed = Certificate::parse_der(&cert.raw).unwrap();
        prop_assert_eq!(&parsed.tbs, &cert.tbs);
        prop_assert_eq!(parsed.to_der(), cert.raw);
        prop_assert!(key.verify(parsed.raw_tbs(), &parsed.signature.bytes));
        prop_assert_eq!(parsed.tbs.validity.period_days(), days);
    }

    /// The certificate parser never panics on arbitrary single-byte
    /// mutations of a valid certificate (the failure-injection property).
    #[test]
    fn parser_survives_mutation(pos_seed in any::<usize>(), byte in any::<u8>()) {
        let cert = CertificateBuilder::new()
            .subject_cn("mutate.example")
            .add_dns_san("mutate.example")
            .build_signed(&SimKey::from_seed("ca"));
        let mut der = cert.raw.clone();
        let pos = pos_seed % der.len();
        der[pos] = byte;
        let _ = Certificate::parse_der(&der); // must not panic
    }

    /// The parser never panics on arbitrary byte soup.
    #[test]
    fn parser_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Certificate::parse_der(&bytes);
    }

    /// Truncation at any point is always an error, never a panic or a
    /// silent success.
    #[test]
    fn truncation_always_errors(cut_seed in any::<usize>()) {
        let cert = CertificateBuilder::new()
            .subject_cn("trunc.example")
            .build_signed(&SimKey::from_seed("ca"));
        let cut = cut_seed % cert.raw.len();
        prop_assert!(Certificate::parse_der(&cert.raw[..cut]).is_err());
    }
}
