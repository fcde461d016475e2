//! Profile-refactor equivalence guarantees.
//!
//! The compliance-profile abstraction (DESIGN.md §12) must be *pure
//! routing*: selecting a profile swaps which whole lint catalog runs and
//! nothing else. Two guarantees pin that down:
//!
//! 1. **Fingerprint preservation** — the default (`webpki`) profile over
//!    the fixed-seed 20k corpus reproduces the exact pre-refactor survey
//!    fingerprint committed in `tests/bench_baseline/pre_cache_20k.json`
//!    (also guarded end-to-end by `bench_throughput --baseline`). Any
//!    behavioral drift the refactor smuggled in — report shape, lint
//!    routing, profile tagging — would move this hash.
//!
//! 2. **Shared-lint parity** — a lint carried by two profiles yields the
//!    identical finding on any certificate: same violation or none, same
//!    severity, taxonomy, and novelty flag. Profile selection can only
//!    add or remove whole catalogs, never change what a shared rule says.

use proptest::prelude::*;
use unicert::corpus::{BimiConfig, BimiGenerator, CorpusConfig, CorpusGenerator};
use unicert::lint::{profiles, RunOptions};
use unicert::survey::{self, SurveyOptions};

/// The guarded fingerprint, read from the committed baseline file so this
/// test and `bench_throughput --baseline` can never disagree about it.
fn baseline_fingerprint() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/bench_baseline/pre_cache_20k.json");
    let raw = std::fs::read_to_string(path).expect("baseline file readable");
    let tail = raw.split("\"fingerprint\":").nth(1).expect("baseline has a fingerprint field");
    tail.split('"').nth(1).expect("fingerprint is quoted").to_owned()
}

#[test]
fn default_profile_reproduces_the_pre_refactor_fingerprint() {
    let entries = CorpusGenerator::new(CorpusConfig {
        size: 20_000,
        seed: 42,
        ..CorpusConfig::default()
    });
    let report = survey::run(entries, SurveyOptions::default());
    assert_eq!(
        format!("{:016x}", report.fingerprint()),
        baseline_fingerprint(),
        "default-profile survey fingerprint drifted from the guarded baseline"
    );
    assert_eq!(report.profile, "webpki");
}

/// Explicitly requesting the default profile is byte-identical to not
/// requesting any profile at all.
#[test]
fn explicit_webpki_selection_is_a_no_op() {
    let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
        size: 500,
        seed: 7,
        ..CorpusConfig::default()
    })
    .collect();
    let implicit_opts = SurveyOptions::default();
    let explicit_opts = SurveyOptions {
        lint: RunOptions { profile: Some("webpki"), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let implicit = survey::survey(implicit_opts.registry(), &entries, implicit_opts, 0);
    let explicit = survey::survey(explicit_opts.registry(), &entries, explicit_opts, 0);
    assert_eq!(implicit, explicit);
    assert_eq!(format!("{implicit:?}"), format!("{explicit:?}"));
}

/// An unknown profile name falls back to the default catalog rather than
/// failing — survey runs never abort over a typo'd `UNICERT_PROFILE`.
#[test]
fn unknown_profile_falls_back_to_default() {
    let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
        size: 200,
        seed: 11,
        ..CorpusConfig::default()
    })
    .collect();
    let default_opts = SurveyOptions::default();
    let unknown_opts = SurveyOptions {
        lint: RunOptions { profile: Some("no-such-profile"), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let default = survey::survey(default_opts.registry(), &entries, default_opts, 0);
    let unknown = survey::survey(unknown_opts.registry(), &entries, unknown_opts, 0);
    assert_eq!(default, unknown);
}

/// The finding a registry produced for one lint, normalized for
/// comparison across profiles.
fn finding_for(
    registry: &unicert::lint::Registry,
    cert: &unicert::x509::Certificate,
    lint: &str,
) -> Option<String> {
    let report = registry.run(cert, RunOptions::default()).unwrap();
    report
        .findings
        .iter()
        .find(|f| f.lint == lint)
        .map(|f| format!("{}:{:?}:{:?}:{}", f.lint, f.severity, f.nc_type, f.new_lint))
}

proptest! {
    /// Shared-lint parity over generator certificates: for every lint name
    /// registered in both profiles, the `webpki` and `bimi` registries
    /// agree finding-for-finding on arbitrary corpus output — WebPKI
    /// subscriber certs and BIMI-shaped VMCs alike.
    #[test]
    fn shared_lints_yield_identical_findings(seed in 0u64..10_000u64) {
        let webpki = profiles::registry("webpki").expect("webpki registered");
        let bimi = profiles::registry("bimi").expect("bimi registered");
        let shared: Vec<&str> = bimi
            .iter()
            .filter(|l| webpki.get(l.name).is_some())
            .map(|l| l.name)
            .collect();
        prop_assert!(!shared.is_empty(), "profiles share no lints — parity test is vacuous");

        let mut certs: Vec<unicert::x509::Certificate> = CorpusGenerator::new(CorpusConfig {
            size: 8,
            seed,
            ..CorpusConfig::default()
        })
        .map(|e| e.cert)
        .collect();
        certs.extend(
            BimiGenerator::new(BimiConfig { size: 8, seed, ..BimiConfig::default() })
                .map(|e| e.cert),
        );

        for cert in &certs {
            for lint in &shared {
                prop_assert_eq!(
                    finding_for(webpki, cert, lint),
                    finding_for(bimi, cert, lint),
                    "shared lint {} disagrees between profiles", lint
                );
            }
        }
    }
}
