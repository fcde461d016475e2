//! Integration: the §6 / Appendix F threat scenarios across crates — CT
//! monitor misleading, traffic obfuscation, client validation, and browser
//! spoofing, all driven by real DER-encoded certificates.

use unicert::monitors::{all_monitors, run_misleading_experiment};
use unicert::threats::{all_browsers, all_clients, all_middleboxes, ClientOutcome};
use unicert::x509::{Certificate, CertificateBuilder, SimKey};

fn build(f: impl FnOnce(CertificateBuilder) -> CertificateBuilder) -> Certificate {
    let cert = f(CertificateBuilder::new()
        .validity_days(unicert::asn1::DateTime::date(2024, 8, 1).unwrap(), 90))
    .build_signed(&SimKey::from_seed("e2e-ca"));
    // Always round-trip through DER: the threat components must work on
    // parsed certificates, not builder artifacts.
    Certificate::parse_der(&cert.raw).unwrap()
}

#[test]
fn monitor_experiment_reproduces_table_6_pattern() {
    let outcomes = run_misleading_experiment();
    // 6 techniques × 5 monitors.
    assert_eq!(outcomes.len(), 30);
    // The zero-width technique evades all five monitors; the baseline none.
    let missed = |tech: &str| {
        outcomes
            .iter()
            .filter(|o| o.technique.contains(tech) && !o.found)
            .count()
    };
    assert_eq!(missed("baseline"), 0);
    assert_eq!(missed("zero-width"), 5);
    // Fuzzy-search monitors (Crt.sh, MerkleMap) catch strictly more than
    // exact-match monitors overall.
    let found_by = |monitor: &str| {
        outcomes
            .iter()
            .filter(|o| o.monitor == monitor && o.found)
            .count()
    };
    assert!(found_by("Crt.sh") > found_by("Facebook Monitor"));
    assert!(found_by("MerkleMap") > found_by("Entrust Search"));
}

#[test]
fn deceptive_idn_queries_split_monitors() {
    // P1.3: monitors without U-label checks accept deceptive queries.
    for m in all_monitors() {
        let res = m.query("xn--www-hn0a.victim.example");
        if m.caps.u_label_check {
            assert!(res.is_err(), "{} should reject", m.name);
        } else {
            assert!(res.is_ok(), "{} should accept", m.name);
        }
    }
}

#[test]
fn middlebox_blocklist_evasion_is_real_on_parsed_certs() {
    let evil = build(|b| {
        b.subject_attr_raw(
            unicert::asn1::oid::known::common_name(),
            unicert::asn1::StringKind::Utf8,
            b"Evil\x00 Entity",
        )
    });
    for mb in all_middleboxes() {
        assert!(!mb.blocklist_hit(&evil, "Evil Entity"), "{}", mb.name);
    }
    let honest = build(|b| b.subject_cn("Evil Entity"));
    for mb in all_middleboxes() {
        assert!(mb.blocklist_hit(&honest, "Evil Entity"), "{}", mb.name);
    }
}

#[test]
fn zeek_and_snort_disagree_on_duplicate_cn_certs() {
    let cert = build(|b| b.subject_cn("Harmless Corp").subject_cn("Evil Entity"));
    let middleboxes = all_middleboxes();
    let snort = middleboxes.iter().find(|m| m.name == "Snort").unwrap();
    let zeek = middleboxes.iter().find(|m| m.name == "Zeek").unwrap();
    assert_ne!(snort.extracted_cn(&cert), zeek.extracted_cn(&cert));
}

#[test]
fn urllib3_accepts_what_libcurl_rejects() {
    let cert = build(|b| {
        b.add_san(unicert::x509::GeneralName::DnsName(
            unicert::x509::RawValue::from_raw(
                unicert::asn1::StringKind::Ia5,
                "münchen.de".as_bytes(),
            ),
        ))
    });
    let clients = all_clients();
    let by_name = |n: &str| clients.iter().find(|c| c.name == n).unwrap();
    assert_eq!(by_name("urllib3").validate(&cert, "münchen.de"), ClientOutcome::Accepted);
    assert_eq!(
        by_name("libcurl").validate(&cert, "münchen.de"),
        ClientOutcome::InvalidSanFormat
    );
}

#[test]
fn browser_spoof_matrix_matches_table_14() {
    let browsers = all_browsers();
    let crafted = "www.\u{202E}lapyap\u{202C}.com";
    let chromium = browsers.iter().find(|b| b.name == "Chromium").unwrap();
    let firefox = browsers.iter().find(|b| b.name == "Firefox").unwrap();
    let safari = browsers.iter().find(|b| b.name == "Safari").unwrap();

    // Chromium warning pages quote subject fields and render the RLO spoof.
    let cert = build(|b| b.subject_cn(crafted));
    assert_eq!(chromium.warning_identity(&cert), "www.paypal.com");
    // Firefox quotes the SAN instead — the CN trick doesn't reach its
    // warning page (but the SAN trick of Fig. 8 would).
    let cert = build(|b| b.subject_cn(crafted).add_dns_san("real.example"));
    assert_eq!(firefox.warning_identity(&cert), "real.example");
    // Safari marks controls: NUL spoofs never render clean.
    let cert = build(|b| b.subject_cn("bank\u{0}.example"));
    assert_ne!(safari.warning_identity(&cert), "bank.example");

    // G1.1: layout controls are invisible in all three.
    for b in &browsers {
        assert!(b.layout_controls_invisible, "{}", b.name);
        assert!(!b.detects_homographs, "{}", b.name);
    }
}

#[test]
fn noncompliant_corpus_certs_flow_into_monitors() {
    // Feed real corpus output into the monitor index — cross-crate
    // integration of generation, parsing, and monitoring.
    use unicert::corpus::{CorpusConfig, CorpusGenerator};
    let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
        size: 500,
        seed: 5,
        precert_fraction: 0.0,
        latent_defects: false,
    })
    .collect();
    let mut monitors = all_monitors();
    let certs: Vec<_> = entries.iter().map(|e| e.cert.parse().unwrap()).collect();
    for (i, cert) in certs.iter().enumerate() {
        for m in &mut monitors {
            m.ingest(i, cert);
        }
    }
    // Every monitor can find at least one plain cert by its exact SAN.
    let plain = (0..entries.len())
        .find(|&i| entries[i].meta.injected.is_none() && !certs[i].tbs.san_dns_names().is_empty())
        .expect("some clean cert");
    let san = certs[plain].tbs.san_dns_names()[0].clone();
    for m in &monitors {
        let hits = m.query(&san).unwrap();
        assert!(hits.contains(&plain), "{} missed {san}", m.name);
    }
}
