//! Pin the golden corrupt-store vectors under `tests/vectors/store/`.
//!
//! Each directory is a frozen 12-certificate store with one artifact
//! damaged by a `unicert_chaos::fsfault` injector (see
//! `gen_store_vectors`); `manifest.tsv` records the injected fault and
//! the behavior the store layer must exhibit. These tests open every
//! vector read-only and assert detection, classification, shard-granular
//! quarantine, and degraded-report determinism — if the segment format,
//! the manifest codec, or a corruption classifier drifts, this fails
//! before any consumer does.

use std::path::{Path, PathBuf};
use unicert::survey::SurveyOptions;
use unicert_store::{resume, CorpusStore, ResumeOptions};

fn vectors_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors/store")
}

/// Rows of `manifest.tsv`: (dir, fault, target, expected).
fn manifest_rows() -> Vec<(String, String, String, String)> {
    let path = vectors_dir().join("manifest.tsv");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e} (run gen_store_vectors)", path.display()));
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            assert_eq!(cols.len(), 4, "malformed manifest row: {l:?}");
            (cols[0].into(), cols[1].into(), cols[2].into(), cols[3].into())
        })
        .collect()
}

fn survey(store: &CorpusStore, ckpts: &Path) -> unicert_store::ResumeReport {
    std::fs::remove_dir_all(ckpts).ok();
    let opts = ResumeOptions { survey: SurveyOptions::default(), stop_after: None };
    resume::survey_incremental(store, ckpts, opts).expect("survey vector store")
}

/// A scratch checkpoint directory, deleted when the guard drops, so a test
/// leaves nothing in the temp dir whether it passes or fails.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn scratch(name: &str) -> Scratch {
    let dir =
        std::env::temp_dir().join(format!("unicert-store-vectors-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Scratch(dir)
}

/// The vector set itself is pinned: exactly these five behaviors exist.
#[test]
fn manifest_covers_every_corruption_class() {
    let expected: Vec<&str> =
        vec!["ok", "torn_write", "fingerprint_mismatch", "version_skew", "manifest_rebuilt"];
    let rows = manifest_rows();
    let got: Vec<String> = rows.iter().map(|(_, _, _, e)| e.clone()).collect();
    assert_eq!(got, expected, "vector set drifted — regenerate with gen_store_vectors");
    // Segment faults all target the middle shard; the manifest fault
    // targets the manifest.
    for (dir, fault, target, expected) in &rows {
        match expected.as_str() {
            "ok" => assert_eq!(fault, "-"),
            "manifest_rebuilt" => assert_eq!(target, "store.manifest"),
            _ => assert_eq!(target, "shard-00001.seg", "vector {dir}"),
        }
    }
}

/// Every vector store opens without panicking and behaves as recorded.
#[test]
fn vectors_classify_and_survey_as_recorded() {
    let root = vectors_dir();
    // The clean control's report is the reference the manifest-tamper
    // vector must still reproduce after its rebuild.
    let clean = CorpusStore::open(&root.join("clean")).expect("open clean vector");
    let clean_ckpts = scratch("clean-ref");
    let clean_run = survey(&clean, &clean_ckpts.0);
    assert_eq!(clean_run.corrupt, 0);
    assert_eq!(clean_run.report.total, 12);

    for (dir, _fault, _target, expected) in manifest_rows() {
        let store = CorpusStore::open(&root.join(&dir))
            .unwrap_or_else(|e| panic!("vector {dir} failed to open: {e}"));
        let health = store.verify();
        assert_eq!(health.len(), 3, "vector {dir}: every store has 3 shards");
        let corrupt: Vec<_> = health.iter().filter(|h| h.corruption.is_some()).collect();
        let ckpts = scratch(&dir);
        let run = survey(&store, &ckpts.0);
        match expected.as_str() {
            "ok" => {
                assert!(!store.manifest_rebuilt(), "vector {dir}");
                assert!(corrupt.is_empty(), "vector {dir}: {corrupt:?}");
                assert_eq!(run.corrupt, 0, "vector {dir}");
            }
            "manifest_rebuilt" => {
                // Manifest damage never loses data: the store rebuilds the
                // index from the self-validating segments and the survey is
                // byte-identical to the clean control.
                assert!(store.manifest_rebuilt(), "vector {dir}");
                assert!(corrupt.is_empty(), "vector {dir}: {corrupt:?}");
                assert!(run.manifest_rebuilt, "vector {dir}");
                assert_eq!(run.corrupt, 0, "vector {dir}");
                assert_eq!(run.report, clean_run.report, "vector {dir} diverged from clean");
            }
            class => {
                // Segment damage: exactly the middle shard is quarantined
                // with the pinned classification; the other 8 certificates
                // still survey, deterministically.
                assert_eq!(corrupt.len(), 1, "vector {dir}");
                let health = corrupt[0];
                assert_eq!(health.index, 1, "vector {dir}");
                let classified =
                    health.corruption.as_ref().map(|c| c.class()).unwrap_or("none");
                assert_eq!(classified, class, "vector {dir}");
                assert_eq!(run.corrupt, 1, "vector {dir}");
                assert_eq!(run.report.total, 8, "vector {dir}");
                let q: Vec<_> =
                    run.report.quarantine.iter().filter(|q| q.stage == "store").collect();
                assert_eq!(q.len(), 1, "vector {dir}");
                assert_eq!(q[0].index, 4, "vector {dir}: quarantined at shard base");
                assert_eq!(q[0].cert_id, "shard-00001.seg", "vector {dir}");
                assert!(
                    q[0].detail.starts_with(class),
                    "vector {dir}: detail {:?} must lead with the class",
                    q[0].detail
                );
                // Determinism of the degraded report.
                let again_ckpts = scratch(&format!("{dir}-again"));
                let again = survey(&store, &again_ckpts.0);
                assert_eq!(run.report, again.report, "vector {dir} not deterministic");
            }
        }
    }
}

/// The committed manifests themselves are pinned byte-for-byte against
/// the store's own fingerprinting, so a silent regeneration with changed
/// format constants cannot slip through review.
#[test]
fn clean_vector_manifest_is_self_consistent() {
    let root = vectors_dir();
    let text = std::fs::read(root.join("clean/store.manifest")).expect("read clean manifest");
    let parsed = unicert_store::Manifest::parse(&text).expect("clean manifest parses");
    assert_eq!(parsed.total, 12);
    assert_eq!(parsed.shard_size, 4);
    assert_eq!(parsed.shards.len(), 3);
    for (i, shard) in parsed.shards.iter().enumerate() {
        assert_eq!(shard.index, i);
        assert_eq!(shard.count, 4);
        let bytes =
            std::fs::read(root.join("clean").join(&shard.file)).expect("read clean segment");
        assert_eq!(bytes.len() as u64, shard.bytes, "segment {i} size drifted");
        assert_eq!(unicert_store::fnv64(&bytes), shard.fingerprint, "segment {i} fingerprint");
    }
}
