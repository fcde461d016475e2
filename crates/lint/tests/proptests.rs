//! Property tests: the linter never panics, and behaves monotonically with
//! respect to effective-date gating.

use proptest::prelude::*;
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, StringKind};
use unicert_lint::{default_registry, RunOptions};
use unicert_x509::{Certificate, CertificateBuilder, SimKey};

proptest! {
    /// The full registry runs without panicking on certificates carrying
    /// arbitrary bytes in subject attributes and SAN entries.
    #[test]
    fn registry_never_panics(
        cn_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        org_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        dns in "[ -~]{0,40}",
        kind in proptest::sample::select(vec![
            StringKind::Utf8, StringKind::Printable, StringKind::Ia5,
            StringKind::Bmp, StringKind::Teletex, StringKind::Numeric,
        ]),
    ) {
        let cert = CertificateBuilder::new()
            .subject_attr_raw(known::common_name(), kind, &cn_bytes)
            .subject_attr_raw(known::organization_name(), StringKind::Utf8, &org_bytes)
            .add_dns_san(&dns)
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("prop-ca"));
        let reg = default_registry();
        let _ = reg.run(&cert, RunOptions::default());
        let _ = reg.run(&cert, RunOptions::ungated());
    }

    /// Date gating can only remove findings, never add them.
    #[test]
    fn gating_is_monotone(year in 1995i32..2026, bad in any::<bool>()) {
        let mut b = CertificateBuilder::new()
            .validity_days(DateTime::date(year, 6, 1).unwrap(), 365);
        if bad {
            b = b.subject_attr_raw(known::common_name(), StringKind::Printable, b"x\x00y@");
        } else {
            b = b.subject_cn("fine.example").add_dns_san("fine.example");
        }
        let cert = b.build_signed(&SimKey::from_seed("ca"));
        let reg = default_registry();
        let gated = reg.run(&cert, RunOptions::default()).unwrap();
        let ungated = reg.run(&cert, RunOptions::ungated()).unwrap();
        prop_assert!(gated.findings.len() <= ungated.findings.len());
        for f in &gated.findings {
            prop_assert!(ungated.findings.contains(f));
        }
    }

    /// The linter never panics on parse-able mutations of a valid cert.
    #[test]
    fn lint_survives_cert_mutation(pos_seed in any::<usize>(), byte in any::<u8>()) {
        let cert = CertificateBuilder::new()
            .subject_cn("m.example")
            .add_dns_san("m.example")
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("ca"));
        let mut der = cert.raw.clone();
        let pos = pos_seed % der.len();
        der[pos] = byte;
        if let Ok(mutated) = Certificate::parse_der(&der) {
            let reg = default_registry();
            let _ = reg.run(&mutated, RunOptions::default());
        }
    }
}
