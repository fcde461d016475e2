//! Integration: reduced-size versions of every paper experiment, asserting
//! the *qualitative findings* — who wins, orderings, rate bands — that
//! EXPERIMENTS.md records at full size.

use unicert::corpus::{CorpusConfig, CorpusGenerator, TrustStatus, VariantStrategy};
use unicert::survey::{self, SurveyOptions};

fn report(size: usize) -> unicert::survey::SurveyReport {
    survey::run(
        CorpusGenerator::new(CorpusConfig {
            size,
            seed: 42,
            precert_fraction: 0.0,
            latent_defects: true,
        }),
        SurveyOptions::default(),
    )
}

#[test]
fn table_1_shape() {
    let r = report(40_000);
    // Overall NC rate in the sub-2% band around the paper's 0.72%.
    let rate = r.noncompliant as f64 / r.total as f64;
    assert!((0.004..0.02).contains(&rate), "{rate}");
    // A third-ish of NC certs hit new lints (paper: 33.3%).
    let new_share = r.noncompliant_by_new_lints as f64 / r.noncompliant as f64;
    assert!((0.1..0.7).contains(&new_share), "{new_share}");
    // Majority of NC from trusted CAs (paper: 65.3%).
    let trusted_share = r.noncompliant_trusted as f64 / r.noncompliant as f64;
    assert!((0.45..0.85).contains(&trusted_share), "{trusted_share}");
}

#[test]
fn table_2_shape() {
    let r = report(40_000);
    // Issuers with systemic problems show very high rates; the top-volume
    // issuer stays under 2%.
    let le = &r.by_issuer["Let's Encrypt"];
    assert!((le.noncompliant as f64) < 0.02 * le.total as f64);
    // High-rate issuers exist (the Table 2 top rows); the only publicly
    // trusted ones among them are the later-distrusted legacy CAs the
    // paper also shows there (Symantec, StartCom, VeriSign, Thawte).
    let legacy = ["Symantec", "StartCom", "VeriSign", "Thawte"];
    let mut high_rate_issuers = 0;
    for (org, s) in &r.by_issuer {
        if s.total >= 20 && s.noncompliant as f64 / s.total as f64 > 0.4 {
            high_rate_issuers += 1;
            assert!(
                s.trust != TrustStatus::Public || legacy.iter().any(|l| org.contains(l)),
                "unexpectedly high NC for public CA {org}"
            );
        }
    }
    assert!(high_rate_issuers >= 2, "{high_rate_issuers}");
}

#[test]
fn figure_2_shape() {
    let r = report(30_000);
    // Issuance grows; noncompliance declines relative to issuance.
    let issued = |y: i32| r.by_year.get(&y).map(|s| s.issued).unwrap_or(0);
    let nc = |y: i32| r.by_year.get(&y).map(|s| s.noncompliant).unwrap_or(0);
    assert!(issued(2024) > issued(2018));
    assert!(issued(2018) > issued(2014));
    let early_rate = nc(2015) as f64 / issued(2015).max(1) as f64;
    let late_rate = nc(2024) as f64 / issued(2024).max(1) as f64;
    assert!(early_rate > late_rate * 2.0, "{early_rate} vs {late_rate}");
}

#[test]
fn figure_3_shape() {
    let r = report(30_000);
    let frac = |v: &[i32], p: &dyn Fn(i32) -> bool| {
        v.iter().filter(|&&d| p(d)).count() as f64 / v.len().max(1) as f64
    };
    // ~90% of IDNCerts on the 90-day trend.
    assert!(frac(&r.validity.idn, &|d| d <= 90) > 0.80);
    // >10% of other Unicerts exceed 398 days.
    assert!(frac(&r.validity.other, &|d| d > 398) > 0.08);
    // NC certs skew long: ~half at a year or more, >20% beyond 700 days.
    assert!(frac(&r.validity.noncompliant, &|d| d >= 365) > 0.40);
    assert!(frac(&r.validity.noncompliant, &|d| d > 700) > 0.12);
    // And NC certs are longer-lived than IDNCerts at the median.
    let median = |v: &[i32]| {
        let mut s = v.to_vec();
        s.sort();
        s[s.len() / 2]
    };
    assert!(median(&r.validity.noncompliant) > median(&r.validity.idn));
}

#[test]
fn figure_4_shape() {
    let r = report(20_000);
    // Regional issuers show Unicode in Subject fields; IDN-only issuers
    // only in SAN.
    let o_cells: Vec<_> = r
        .field_matrix
        .keys()
        .filter(|(_, f)| *f == "O")
        .map(|(i, _)| i.clone())
        .collect();
    assert!(!o_cells.is_empty());
    assert!(!o_cells.iter().any(|i| i == "Let's Encrypt"), "{o_cells:?}");
    let san_cells: Vec<_> = r
        .field_matrix
        .iter()
        .filter(|((_, f), _)| *f == "SAN")
        .collect();
    assert!(san_cells.iter().any(|((i, _), _)| i == "Let's Encrypt"));
}

#[test]
fn table_3_variants_evade_case_sensitive_matching() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(99);
    let bases = ["Samco Autotechnik GmbH", "EDP - Energias de Portugal, S.A"];
    let pairs = unicert::corpus::variants::generate_pairs(&mut rng, &bases, 4);
    assert_eq!(pairs.len(), 6 * 4);
    // Every strategy produces byte-distinct values; case variants defeat
    // case-sensitive matching (Suricata) but not case-insensitive.
    for p in &pairs {
        assert_ne!(p.base, p.variant, "{:?}", p.strategy);
        if p.strategy == VariantStrategy::CaseConversion {
            assert!(p.base.to_lowercase() == p.variant.to_lowercase());
        }
    }
}

#[test]
fn section_5_1_impact_chain_reconstruction() {
    // §5.1: identify certificates with ASN.1 encoding errors, rebuild the
    // issuer linkage, and verify signatures — counting how many
    // encoding-damaged certs are trusted-issued.
    use unicert::lint::RunOptions;
    use unicert::x509::SimKey;
    let registry = unicert::corpus::lint_registry();
    let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
        size: 20_000,
        seed: 42,
        precert_fraction: 0.0,
        latent_defects: false,
    })
    .collect();
    let mut encoding_errors = 0;
    let mut trusted_verified = 0;
    for e in &entries {
        let rep = registry.run(&e.cert, RunOptions::default()).unwrap();
        if rep
            .findings
            .iter()
            .any(|f| f.nc_type == unicert::lint::NoncomplianceType::InvalidEncoding)
        {
            encoding_errors += 1;
            let issuer_key = SimKey::from_seed(&e.meta.issuer_org);
            if issuer_key.verify(e.cert.raw_tbs(), &e.cert.signature.bytes)
                && e.meta.trust == TrustStatus::Public
            {
                trusted_verified += 1;
            }
        }
    }
    assert!(encoding_errors > 10, "{encoding_errors}");
    // The paper found most (5,772 / 7,415 ≈ 78%) were trusted-issued; we
    // assert the majority property.
    assert!(
        trusted_verified * 2 > encoding_errors,
        "{trusted_verified} of {encoding_errors}"
    );
}
