//! Quickstart: build a certificate, break it in interesting ways, and lint
//! it with the 95-rule Unicert registry.
//!
//! ```text
//! cargo run -p unicert-core --example quickstart
//! ```

use unicert::asn1::oid::known;
use unicert::asn1::{DateTime, StringKind};
use unicert::lint::RunOptions;
use unicert::x509::{Certificate, CertificateBuilder, SimKey};

fn main() {
    let ca = SimKey::from_seed("quickstart-ca");

    // A compliant certificate: CN mirrored in the SAN, proper encodings.
    let good = CertificateBuilder::new()
        .subject_cn("xn--mnchen-3ya.example")
        .subject_org("Müller GmbH")
        .add_dns_san("xn--mnchen-3ya.example")
        .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
        .build_signed(&ca);

    // A thoroughly noncompliant Unicert: every taxonomy type at once.
    let bad = CertificateBuilder::new()
        // T3b: CN as BMPString (invalid encoding) — in the SAN, though.
        .subject_attr(known::common_name(), StringKind::Bmp, "bmp.example")
        .add_dns_san("bmp.example")
        // T1: NUL inside the organization.
        .subject_attr_raw(known::organization_name(), StringKind::Utf8, b"Evil\x00Org")
        // T1: deceptive IDN label (bidi control behind Punycode).
        .add_dns_san("xn--www-hn0a.bmp.example")
        // T3a: spelled-out country.
        .subject_attr(known::country_name(), StringKind::Printable, "Germany")
        .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
        .build_signed(&ca);

    let registry = unicert::corpus::lint_registry();

    for (label, cert) in [("compliant", &good), ("noncompliant", &bad)] {
        // Round-trip through DER, as a consumer would.
        let parsed = Certificate::parse_der(&cert.raw).expect("well-formed DER");
        assert!(ca.verify(parsed.raw_tbs(), &parsed.signature.bytes));

        let report = registry.run(&parsed.raw, RunOptions::default()).unwrap();
        println!("── {label} certificate ──");
        println!("  subject: {}", unicert::x509::display::dn_to_string(
            &parsed.tbs.subject,
            unicert::x509::EscapingStandard::Rfc4514,
        ));
        println!("  SANs:    {:?}", parsed.tbs.san_dns_names());
        if report.findings.is_empty() {
            println!("  findings: none");
        } else {
            println!("  findings ({}):", report.findings.len());
            for f in &report.findings {
                println!("    [{:?}/{:?}] {}", f.severity, f.nc_type, f.lint);
            }
        }
        println!();
    }
}
