//! Golden malformed-input vectors (DESIGN.md §9).
//!
//! `tests/vectors/malformed/` holds one committed hostile input per major
//! parse-failure family, with `manifest.tsv` recording the `ParseOutcome`
//! class each must land in. Regenerate with
//! `cargo run -p unicert-chaos --bin gen_malformed_vectors` — construction
//! is deterministic, so a diff means the vector definitions changed.
//!
//! These tests pin the failure taxonomy end to end: the raw parser's error
//! class, the survey pipeline's `parse_outcomes` counters, and the
//! serial/parallel byte-identity of both.

use std::collections::BTreeMap;
use std::path::PathBuf;
use unicert::survey::{self, SurveyOptions};
use unicert_asn1::ParseBudget;
use unicert_lint::RunOptions;
use unicert_x509::Certificate;

fn malformed_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors/malformed")
}

/// `(file, expected_class)` rows from the manifest.
fn manifest() -> Vec<(String, String)> {
    let raw = std::fs::read_to_string(malformed_dir().join("manifest.tsv"))
        .expect("tests/vectors/malformed/manifest.tsv missing — run gen_malformed_vectors");
    raw.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.split('\t');
            let file = cols.next().expect("manifest row missing file").to_string();
            let class = cols.next().expect("manifest row missing class").to_string();
            (file, class)
        })
        .collect()
}

#[test]
fn manifest_covers_all_vector_files() {
    let listed: Vec<String> = manifest().into_iter().map(|(f, _)| f).collect();
    let mut on_disk = 0;
    for entry in std::fs::read_dir(malformed_dir()).expect("malformed dir readable") {
        let name = entry.expect("dir entry").file_name().to_string_lossy().into_owned();
        if name.ends_with(".der") {
            assert!(listed.contains(&name), "{name} not in manifest.tsv");
            on_disk += 1;
        }
    }
    assert_eq!(listed.len(), on_disk, "manifest lists files not on disk");
    assert!(on_disk >= 5, "golden set must keep all five failure families");
}

#[test]
fn each_vector_fails_with_its_manifest_class() {
    let budget = ParseBudget::default();
    for (file, expected) in manifest() {
        let bytes = std::fs::read(malformed_dir().join(&file)).expect("vector readable");
        let err = Certificate::parse_der_budgeted(&bytes, &budget)
            .expect_err(&format!("{file} must not parse"));
        assert_eq!(err.class(), expected, "{file}: {err:?}");
    }
}

#[test]
fn survey_bytes_path_classifies_the_golden_set() {
    let rows = manifest();
    let ders: Vec<Vec<u8>> = rows
        .iter()
        .map(|(file, _)| std::fs::read(malformed_dir().join(file)).expect("vector readable"))
        .collect();
    let mut expected: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, class) in &rows {
        *expected.entry(class.as_str()).or_default() += 1;
    }

    let serial_opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let serial = survey::survey(serial_opts.registry(), &ders, serial_opts, 0);
    assert_eq!(serial.entries, ders.len());
    assert!(serial.quarantine.is_empty(), "{:?}", serial.quarantine);
    let got: BTreeMap<&str, usize> =
        serial.parse_outcomes.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, expected);

    for threads in [2, 4, 8] {
        let opts = SurveyOptions {
            lint: RunOptions { threads: Some(threads), shard_size: 2, ..RunOptions::default() },
            ..SurveyOptions::default()
        };
        let parallel = survey::survey(opts.registry(), &ders, opts, 0);
        assert_eq!(parallel, serial, "threads={threads}");
    }
}
