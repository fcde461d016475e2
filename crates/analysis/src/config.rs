//! Static configuration for the analyzer passes.
//!
//! Everything policy-shaped lives here so the passes themselves stay pure
//! scanners: which crates each pass walks, which modules are exempt from
//! the determinism rules, and the one true crate-layering DAG.

use std::collections::BTreeMap;

/// Analyzer configuration consumed by the passes.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Crates whose code is exempt from the determinism pass. Telemetry is
    /// timing *by design* (its output never feeds report bytes), and the
    /// analyzer itself never runs inside the survey.
    pub determinism_exempt_crates: Vec<&'static str>,
    /// Path fragments always scanned by the determinism pass even when the
    /// call graph cannot see into them: the 95 lint `check` functions and
    /// the per-cert cache run *inside* report construction behind fn
    /// pointers, which the lightweight call graph cannot follow.
    pub determinism_always_scan: Vec<&'static str>,
    /// Crates walked by the unbounded-recursion pass: the DER/X.509
    /// substrates plus the mutation engine, where hostile nesting lives.
    pub recursion_crates: Vec<&'static str>,
    /// The allowed dependency DAG: crate short name → crates it may depend
    /// on (directly), from manifests and `use` statements alike. The chain
    /// is unicode→idna→asn1→x509→lint→core→bench with telemetry and chaos
    /// as leaves; dev-dependencies are exempt (cycles are legal in cargo).
    pub allowed_deps: BTreeMap<&'static str, Vec<&'static str>>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        let mut allowed: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
        // Foundation layers (no unicert deps).
        allowed.insert("unicode", vec![]);
        allowed.insert("telemetry", vec![]);
        // The substrate chain.
        allowed.insert("idna", vec!["unicode"]);
        allowed.insert("asn1", vec!["unicode", "idna"]);
        allowed.insert("x509", vec!["asn1", "idna", "unicode"]);
        allowed.insert(
            "lint",
            vec!["x509", "asn1", "idna", "unicode", "telemetry"],
        );
        // Mid-layer consumers.
        allowed.insert(
            "corpus",
            vec!["lint", "x509", "asn1", "idna", "unicode", "telemetry", "rand"],
        );
        allowed.insert(
            "parsers",
            vec!["x509", "asn1", "unicode", "telemetry", "rand"],
        );
        allowed.insert("monitors", vec!["x509", "asn1", "idna", "unicode"]);
        allowed.insert(
            "threats",
            vec!["lint", "x509", "asn1", "idna", "unicode"],
        );
        allowed.insert("chaos", vec!["x509", "asn1", "rand"]);
        // Aggregation and drivers.
        allowed.insert(
            "core",
            vec![
                "lint", "x509", "asn1", "idna", "unicode", "telemetry", "corpus", "parsers",
                "monitors", "threats", "rand",
            ],
        );
        allowed.insert(
            "store",
            vec!["core", "lint", "x509", "asn1", "corpus", "telemetry"],
        );
        allowed.insert("bench", vec!["core", "chaos", "store", "telemetry", "rand"]);
        allowed.insert("analysis", vec!["asn1", "lint"]);
        // Shims are leaves; proptest builds on the rand shim.
        allowed.insert("rand", vec![]);
        allowed.insert("proptest", vec!["rand"]);

        AnalysisConfig {
            determinism_exempt_crates: vec!["telemetry", "analysis"],
            determinism_always_scan: vec![
                "lint/src/catalog/",
                "lint/src/context.rs",
                "lint/src/helpers.rs",
                "lint/src/profiles/",
            ],
            recursion_crates: vec!["asn1", "x509", "chaos"],
            allowed_deps: allowed,
        }
    }
}
