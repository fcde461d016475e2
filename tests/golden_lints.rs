//! Golden lint-vector conformance suite, per compliance profile.
//!
//! `tests/vectors/<profile>/` holds one committed DER certificate per lint
//! of that profile's registry (generated by
//! `cargo run -p unicert-corpus --bin gen_golden_vectors`) plus a clean
//! control certificate, with `manifest.tsv` recording the complete
//! expected finding set per vector. These tests replay every vector of
//! every registered profile through that profile's registry and demand
//! byte-exact agreement: any drift in a lint's behavior — new false
//! positives, lost detections, severity or taxonomy changes — diffs
//! against a committed artifact.
//!
//! A lint registered without a vector fails [`every_lint_has_a_golden_vector`];
//! regenerate the corpus after adding a recipe for it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use unicert::lint::{profiles, RunOptions};
use unicert::x509::Certificate;

fn vectors_dir(profile: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors").join(profile)
}

/// `manifest.tsv`: vector name → expected `lint:severity:nc_type:new`
/// findings, in registry order.
fn manifest(profile: &str) -> BTreeMap<String, Vec<String>> {
    let path = vectors_dir(profile).join("manifest.tsv");
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{} missing — run gen_golden_vectors", path.display())
    });
    raw.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (name, findings) = l.split_once('\t').expect("manifest line has a tab");
            let findings = findings
                .split(';')
                .filter(|f| !f.is_empty())
                .map(str::to_owned)
                .collect();
            (name.to_owned(), findings)
        })
        .collect()
}

fn load_cert(path: &Path) -> Certificate {
    let der = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Certificate::parse_der(&der).unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()))
}

fn finding_key(f: &unicert::lint::Finding) -> String {
    format!("{}:{:?}:{:?}:{}", f.lint, f.severity, f.nc_type, f.new_lint)
}

/// For every registered profile, every registered lint has a committed
/// vector that (a) produces exactly the finding set locked into the
/// manifest and (b) includes the lint itself, with severity and taxonomy
/// type matching the registry metadata.
#[test]
fn every_lint_has_a_golden_vector() {
    for profile in profiles::all() {
        let registry = profiles::registry(profile.name).expect("registered profile");
        let manifest = manifest(profile.name);
        let dir = vectors_dir(profile.name);
        let mut missing = Vec::new();

        for lint in registry.iter() {
            let path = dir.join(format!("{}.der", lint.name));
            if !path.is_file() || !manifest.contains_key(lint.name) {
                missing.push(lint.name);
                continue;
            }
            let cert = load_cert(&path);
            let report = registry.run(&cert.raw, RunOptions::default()).unwrap();
            let got: Vec<String> = report.findings.iter().map(finding_key).collect();
            assert_eq!(
                got, manifest[lint.name],
                "{}/{}: findings drifted from the golden manifest",
                profile.name, lint.name
            );
            let own = report.findings.iter().find(|f| f.lint == lint.name).unwrap_or_else(|| {
                panic!("{}/{}: vector no longer triggers its lint", profile.name, lint.name)
            });
            assert_eq!(own.severity, lint.severity, "{}/{}", profile.name, lint.name);
            assert_eq!(own.nc_type, lint.nc_type, "{}/{}", profile.name, lint.name);
            assert_eq!(own.new_lint, lint.new_lint, "{}/{}", profile.name, lint.name);
        }

        assert!(
            missing.is_empty(),
            "{}: lints without golden vectors (run gen_golden_vectors after adding recipes): {missing:?}",
            profile.name
        );
    }
}

/// Each profile's clean control certificate produces zero findings under
/// that profile's registry — the suite can tell violations from
/// background noise in the vector construction.
#[test]
fn clean_control_has_zero_findings() {
    for profile in profiles::all() {
        let registry = profiles::registry(profile.name).expect("registered profile");
        let cert = load_cert(&vectors_dir(profile.name).join("clean_control.der"));
        let report = registry.run(&cert.raw, RunOptions::default()).unwrap();
        assert!(
            report.findings.is_empty(),
            "{}: control cert dirty: {:?}",
            profile.name,
            report.findings
        );
        assert_eq!(manifest(profile.name)["clean_control"], Vec::<String>::new());
    }
}

/// No stray artifacts: every committed vector corresponds to a lint of its
/// profile's registry (or the control), the manifest covers exactly the
/// same set, and every vector directory corresponds to a registered
/// profile (the `malformed/` corpus belongs to `tests/malformed_vectors.rs`).
#[test]
fn vector_corpus_matches_registry() {
    for profile in profiles::all() {
        let registry = profiles::registry(profile.name).expect("registered profile");
        let manifest = manifest(profile.name);
        assert_eq!(
            manifest.len(),
            registry.len() + 1,
            "{}: manifest entries = lints + control",
            profile.name
        );

        for entry in std::fs::read_dir(vectors_dir(profile.name)).expect("profile dir readable") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("der") {
                continue;
            }
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf8 stem").to_owned();
            assert!(
                stem == "clean_control" || registry.get(&stem).is_some(),
                "{}: stray vector {stem}.der does not match any registered lint",
                profile.name
            );
            assert!(
                manifest.contains_key(&stem),
                "{}: {stem}.der missing from manifest",
                profile.name
            );
        }
    }

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors");
    for entry in std::fs::read_dir(root).expect("tests/vectors readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|s| s.to_str()).expect("utf8 name").to_owned();
        assert!(
            path.is_dir(),
            "stray file {name} at the vectors root — vectors live under per-profile dirs"
        );
        // `malformed/` (parse-failure vectors) and `store/` (corrupt
        // corpus stores) are the two non-profile vector families.
        assert!(
            name == "malformed" || name == "store" || profiles::find(&name).is_some(),
            "vector directory {name} does not match any registered profile"
        );
    }
}
