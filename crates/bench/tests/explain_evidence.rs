//! End-to-end evidence contract over the committed golden vectors: every
//! finding from every vector, under every profile, must carry at least one
//! evidence span that lies inside the vector's DER bytes — and the same
//! guarantee must survive the round trip through the `explain` binary's
//! JSON output.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::Command;

use unicert::lint::{self, RunOptions};
use unicert::x509::Certificate;
use unicert_bench::json::{self, Value};

/// The committed golden-vector tree, `<profile>/<name>.der` per vector.
fn vectors_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors")
}

/// Every `(profile, vector path, DER)` triple whose directory names a lint
/// profile (skips `malformed/`, which holds parse-failure inputs).
fn profile_vectors() -> Vec<(String, PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let root = vectors_dir();
    let mut profiles: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read tests/vectors")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| lint::profiles::find(n).is_some())
        })
        .collect();
    profiles.sort();
    for dir in profiles {
        let profile = dir.file_name().and_then(|n| n.to_str()).expect("utf-8 dir").to_owned();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("read profile dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "der"))
            .collect();
        files.sort();
        for path in files {
            let der = std::fs::read(&path).expect("read vector");
            out.push((profile.clone(), path, der));
        }
    }
    assert!(out.len() >= 2, "expected golden vectors under {}", root.display());
    out
}

#[test]
fn every_golden_vector_finding_carries_an_in_bounds_span() {
    let opts = RunOptions { evidence: true, ..RunOptions::default() };
    let mut findings_seen = 0usize;
    for (profile, path, der) in profile_vectors() {
        let registry = lint::profiles::registry(&profile).expect("profile registry");
        let cert = Certificate::parse_der(&der)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e:?}", path.display()));
        for finding in registry.run(&cert.raw, opts).unwrap().findings {
            findings_seen += 1;
            assert!(
                !finding.evidence.is_empty(),
                "{}: finding {} has no evidence",
                path.display(),
                finding.lint
            );
            for ev in &finding.evidence {
                assert!(
                    ev.span.len > 0 && ev.span.end() <= der.len(),
                    "{}: {} span {} escapes the {}-byte vector",
                    path.display(),
                    finding.lint,
                    ev.span,
                    der.len()
                );
                assert!(!ev.tlv_path.is_empty(), "{}: empty TLV path", path.display());
            }
        }
    }
    assert!(findings_seen > 0, "golden vectors produced no findings at all");
}

#[test]
fn explain_json_round_trips_spans_per_vector() {
    // Pick the first vector that actually yields findings (clean vectors
    // would make the round-trip assertions vacuous).
    let opts = RunOptions { evidence: true, ..RunOptions::default() };
    let (profile, path, der) = profile_vectors()
        .into_iter()
        .find(|(profile, _, der)| {
            let registry = lint::profiles::registry(profile).expect("profile registry");
            Certificate::parse_der(der)
                .is_ok_and(|cert| !registry.run(&cert.raw, opts).unwrap().findings.is_empty())
        })
        .expect("a vector with findings");
    let output = Command::new(env!("CARGO_BIN_EXE_explain"))
        .arg(&path)
        .args(["--profile", &profile, "--format", "json"])
        .output()
        .expect("run explain");
    assert!(output.status.success(), "explain failed: {}", String::from_utf8_lossy(&output.stderr));
    let doc = json::parse(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON");
    assert_eq!(doc.get("der_len").and_then(Value::as_u64), Some(der.len() as u64));
    assert_eq!(doc.get("profile").and_then(Value::as_str), Some(profile.as_str()));
    let findings = doc.get("findings").and_then(Value::as_array).expect("findings array");
    assert!(!findings.is_empty(), "{}: explain found nothing", path.display());
    for finding in findings {
        let evidence = finding.get("evidence").and_then(Value::as_array).expect("evidence array");
        assert!(!evidence.is_empty());
        for ev in evidence {
            let offset = ev.get("offset").and_then(Value::as_u64).expect("offset");
            let end = ev.get("end").and_then(Value::as_u64).expect("end");
            assert!(offset < end && end <= der.len() as u64, "span [{offset}..{end}) escapes");
            assert!(ev.get("path").and_then(Value::as_str).is_some_and(|p| !p.is_empty()));
        }
    }
}

#[test]
fn explain_sweep_covers_all_vectors_and_writes_the_artifact() {
    let out_path = std::env::temp_dir()
        .join(format!("unicert_explain_sweep_{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_explain"))
        .arg("--vectors")
        .arg(vectors_dir())
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("run explain --vectors");
    assert!(
        output.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("read sweep artifact");
    let _ = std::fs::remove_file(&out_path);
    let doc = json::parse(&text).expect("valid sweep JSON");
    assert_eq!(doc.get("all_spanned").and_then(Value::as_bool), Some(true));
    let rows = doc.get("vectors").and_then(Value::as_array).expect("vectors array");
    assert_eq!(rows.len(), profile_vectors().len(), "sweep covered every vector");
    for row in rows {
        assert_eq!(row.get("all_spanned").and_then(Value::as_bool), Some(true));
    }
}
