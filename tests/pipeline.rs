//! Integration: the full §4 pipeline — corpus generation, precertificate
//! filtering, Unicert classification, linting, aggregation — plus the
//! footnote-4 effective-date ablation.

use unicert::corpus::{CorpusConfig, CorpusGenerator, Defect};
use unicert::lint::{NoncomplianceType, RunOptions};
use unicert::survey::{self, SurveyOptions};

fn config(size: usize) -> CorpusConfig {
    CorpusConfig { size, seed: 42, precert_fraction: 0.25, latent_defects: true }
}

#[test]
fn survey_bookkeeping_is_consistent() {
    let report = survey::run(CorpusGenerator::new(config(5_000)), SurveyOptions::default());
    assert_eq!(report.total, 5_000);
    assert_eq!(report.entries, report.total + report.precerts_filtered);
    // Every analyzed entry is a Unicert by construction.
    assert!(report.idn_certs > 0);
    // Type breakdown never exceeds the NC total per type.
    for (t, stats) in &report.by_type {
        assert!(stats.certs <= report.noncompliant, "{t:?}");
        assert!(stats.trusted <= stats.certs);
        assert!(stats.recent <= stats.certs);
    }
    // Issuer totals sum to the corpus total.
    let issuer_sum: usize = report.by_issuer.values().map(|s| s.total).sum();
    assert_eq!(issuer_sum, report.total);
    // Year issuance sums to the corpus total.
    let year_sum: usize = report.by_year.values().map(|y| y.issued).sum();
    assert_eq!(year_sum, report.total);
}

#[test]
fn ablation_effective_dates_inflate_findings() {
    // §4.3 footnote 4: without effective-date gating, noncompliance counts
    // inflate several-fold (paper: 249K → 1.8M, ≈7×).
    let gated = survey::run(CorpusGenerator::new(config(30_000)), SurveyOptions::default());
    let ungated = survey::run(
        CorpusGenerator::new(config(30_000)),
        SurveyOptions {
            lint: RunOptions::ungated(),
            field_matrix: false,
        },
    );
    assert!(gated.noncompliant > 0);
    let ratio = ungated.noncompliant as f64 / gated.noncompliant as f64;
    assert!(
        (2.5..20.0).contains(&ratio),
        "ablation ratio {ratio} (gated {}, ungated {})",
        gated.noncompliant,
        ungated.noncompliant
    );
}

#[test]
fn ground_truth_detection_has_no_false_negatives() {
    // Every non-latent injected defect must be detected by its lint.
    let registry = unicert::corpus::lint_registry();
    let mut checked = 0;
    for entry in CorpusGenerator::new(CorpusConfig { size: 3_000, ..config(3_000) }) {
        if entry.cert.tbs.is_precertificate() {
            continue;
        }
        if let (Some(defect), false) = (entry.meta.injected, entry.meta.latent) {
            let report = registry.run(&entry.cert, RunOptions::default()).unwrap();
            assert!(
                report.findings.iter().any(|f| f.lint == defect.expected_lint()),
                "{defect:?} missed"
            );
            checked += 1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn type_distribution_matches_table_1_shape() {
    let report = survey::run(CorpusGenerator::new(config(40_000)), SurveyOptions::default());
    let count = |t: NoncomplianceType| report.by_type.get(&t).map(|s| s.certs).unwrap_or(0);
    let enc = count(NoncomplianceType::InvalidEncoding);
    let strct = count(NoncomplianceType::InvalidStructure);
    let chr = count(NoncomplianceType::InvalidCharacter);
    let fmt = count(NoncomplianceType::IllegalFormat);
    let disc = count(NoncomplianceType::DiscouragedField);
    let norm = count(NoncomplianceType::BadNormalization);
    // Paper ordering: encoding (60.5%) > structure (37.6%) > character
    // (17.3%) > format (1.3%) > discouraged (0.2%) ≥ normalization (~0).
    assert!(enc > strct, "{enc} vs {strct}");
    assert!(strct > chr, "{strct} vs {chr}");
    assert!(chr > fmt, "{chr} vs {fmt}");
    assert!(fmt >= disc, "{fmt} vs {disc}");
    assert!(disc >= norm, "{disc} vs {norm}");
}

#[test]
fn biggest_lint_is_explicit_text_not_utf8() {
    // Table 11's top row.
    let report = survey::run(CorpusGenerator::new(config(40_000)), SurveyOptions::default());
    let top = report.by_lint.iter().max_by_key(|(_, &n)| n).map(|(l, _)| *l);
    assert!(
        top == Some("w_rfc_ext_cp_explicit_text_not_utf8")
            || top == Some("w_cab_subject_common_name_not_in_san"),
        "top lint {top:?}"
    );
}

#[test]
fn corpus_defect_weights_visible_in_lint_counts() {
    let report = survey::run(CorpusGenerator::new(config(40_000)), SurveyOptions::default());
    let get = |l: &str| report.by_lint.get(l).copied().unwrap_or(0);
    // The two titans of Table 11.
    let cp = get("w_rfc_ext_cp_explicit_text_not_utf8");
    let cn = get("w_cab_subject_common_name_not_in_san");
    // Mid-tier lints.
    let a2u = get("e_rfc_dns_idn_a2u_unpermitted_unichar");
    let org = get("e_subject_organization_not_printable_or_utf8");
    // Small lints.
    let extra_cn = get("w_cab_subject_contain_extra_common_name");
    assert!(cp > a2u && cn > a2u, "cp={cp} cn={cn} a2u={a2u}");
    assert!(a2u + org > extra_cn, "a2u={a2u} org={org} extra={extra_cn}");
    let _ = Defect::ExtraCn; // keep the ground-truth type in scope
}
