//! Integration tests for the persistent corpus store (`unicert-store`):
//! freeze/load fidelity, append, checkpointed resume vs one-shot parity
//! across thread counts, checkpoint reuse/invalidation, and deterministic
//! corrupt-shard handling.

use std::path::PathBuf;
use unicert::survey::{self, SurveyOptions};
use unicert_corpus::{CorpusConfig, CorpusEntry, CorpusGenerator};
use unicert_lint::RunOptions;
use unicert_store::{resume, CorpusStore, ResumeOptions, ShardStatus};

fn generate(size: usize, seed: u64) -> Vec<CorpusEntry> {
    CorpusGenerator::new(CorpusConfig {
        size,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .collect()
}

/// A unique scratch directory per test, wiped on entry (stale runs) so
/// reruns are deterministic. Tests clean up on success.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unicert-store-test-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn options(threads: usize) -> ResumeOptions {
    ResumeOptions {
        survey: SurveyOptions {
            lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
            ..SurveyOptions::default()
        },
        stop_after: None,
    }
}

/// The one-shot in-memory reference every incremental run must reproduce.
fn one_shot(entries: &[CorpusEntry]) -> unicert::survey::SurveyReport {
    let opts = options(1).survey;
    survey::survey(opts.registry(), entries, opts, 0)
}

#[test]
fn freeze_then_load_preserves_der_and_meta() {
    let root = scratch("roundtrip");
    let entries = generate(53, 7);
    // Deliberately non-dividing shard size: last shard is short.
    let store = CorpusStore::freeze(&root.join("store"), &entries, 8).expect("freeze");
    assert_eq!(store.manifest().total, 53);
    assert_eq!(store.manifest().shards.len(), 7);
    let mut loaded = Vec::new();
    for shard in &store.manifest().shards {
        loaded.extend(store.load_shard(shard).expect("load shard"));
    }
    assert_eq!(loaded.len(), entries.len());
    for (l, o) in loaded.iter().zip(&entries) {
        assert_eq!(l.cert.raw, o.cert.raw, "DER must round-trip byte-identically");
        assert_eq!(l.meta.issuer_org, o.meta.issuer_org);
        assert_eq!(l.meta.trust, o.meta.trust);
        assert_eq!(l.meta.issued, o.meta.issued);
        assert_eq!(l.meta.validity_days, o.meta.validity_days);
        assert_eq!(l.meta.is_idn_cert, o.meta.is_idn_cert);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn append_extends_store_with_new_shards() {
    let root = scratch("append");
    let dir = root.join("store");
    let first = generate(20, 1);
    let second = generate(11, 2);
    let mut store = CorpusStore::freeze(&dir, &first, 6).expect("freeze");
    store.append(&second).expect("append");
    assert_eq!(store.manifest().total, 31);
    // Reopen from disk: the rewritten manifest must describe all shards.
    let reopened = CorpusStore::open(&dir).expect("reopen");
    assert!(!reopened.manifest_rebuilt());
    assert_eq!(reopened.manifest().total, 31);
    let health = reopened.verify();
    assert!(health.iter().all(|h| h.corruption.is_none()), "appended store must verify clean");
    let loaded: usize = reopened
        .manifest()
        .shards
        .iter()
        .map(|s| reopened.load_shard(s).expect("load").len())
        .sum();
    assert_eq!(loaded, 31);
    std::fs::remove_dir_all(&root).ok();
}

/// The headline invariant: an incrementally checkpointed survey is
/// byte-identical to the one-shot in-memory run, at every thread count,
/// even when the store's shard size disagrees with the survey pipeline's
/// internal chunking.
#[test]
fn resumed_survey_matches_one_shot_at_all_thread_counts() {
    let root = scratch("parity");
    let entries = generate(130, 42);
    // Store shards of 7 vs the survey's internal shard_size (default much
    // larger) — merge associativity makes the mismatch irrelevant.
    let store = CorpusStore::freeze(&root.join("store"), &entries, 7).expect("freeze");
    let reference = one_shot(&entries);
    for threads in [1usize, 2, 4, 8] {
        let ckpts = root.join(format!("ckpt-{threads}"));
        let run = resume::survey_incremental(&store, &ckpts, options(threads))
            .expect("incremental survey");
        assert!(run.complete);
        assert_eq!(run.corrupt, 0);
        assert_eq!(
            run.report, reference,
            "threads={threads}: incremental report diverged from one-shot"
        );
        assert_eq!(run.report.fingerprint(), reference.fingerprint());
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Stopping mid-run and resuming reuses exactly the committed checkpoints;
/// checkpoints written at one thread count are valid at another (the
/// checkpoint options key deliberately excludes threading).
#[test]
fn checkpoints_resume_across_thread_counts() {
    let root = scratch("resume");
    let entries = generate(90, 9);
    let store = CorpusStore::freeze(&root.join("store"), &entries, 10).expect("freeze");
    let ckpts = root.join("ckpt");
    let partial = resume::survey_incremental(
        &store,
        &ckpts,
        ResumeOptions { stop_after: Some(4), ..options(4) },
    )
    .expect("partial survey");
    assert!(!partial.complete);
    assert_eq!(partial.surveyed, 4);
    // Resume at a different thread count: the four checkpoints must be
    // reused, the remaining five shards surveyed fresh.
    let resumed = resume::survey_incremental(&store, &ckpts, options(1)).expect("resume");
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 4);
    assert_eq!(resumed.surveyed, 5);
    assert_eq!(resumed.report, one_shot(&entries));
    // A third run resumes everything.
    let warm = resume::survey_incremental(&store, &ckpts, options(2)).expect("warm resume");
    assert_eq!(warm.resumed, 9);
    assert_eq!(warm.surveyed, 0);
    assert_eq!(warm.report, resumed.report);
    std::fs::remove_dir_all(&root).ok();
}

/// Appending to a surveyed store invalidates nothing: old checkpoints are
/// reused as-is and only the appended shards are linted.
#[test]
fn append_after_survey_relints_only_new_shards() {
    let root = scratch("append-resume");
    let dir = root.join("store");
    let first = generate(40, 3);
    let second = generate(25, 4);
    let mut store = CorpusStore::freeze(&dir, &first, 10).expect("freeze");
    let ckpts = root.join("ckpt");
    let before = resume::survey_incremental(&store, &ckpts, options(2)).expect("first survey");
    assert_eq!(before.surveyed, 4);
    store.append(&second).expect("append");
    let after = resume::survey_incremental(&store, &ckpts, options(2)).expect("second survey");
    assert_eq!(after.resumed, 4, "pre-append checkpoints must be reused");
    assert_eq!(after.surveyed, 3, "only appended shards re-linted");
    // And the merged report equals surveying the concatenation one-shot.
    let mut all = first;
    all.extend(second);
    assert_eq!(after.report, one_shot(&all));
    std::fs::remove_dir_all(&root).ok();
}

/// A corrupt shard is quarantined at shard granularity — detected, counted,
/// surveyed-around — and the degraded report is deterministic across
/// thread counts. Repairing the shard (restoring the bytes) heals the run.
#[test]
fn corrupt_shard_quarantined_deterministically() {
    let root = scratch("corrupt");
    let dir = root.join("store");
    let entries = generate(60, 5);
    CorpusStore::freeze(&dir, &entries, 12).expect("freeze");
    let victim = dir.join("shard-00002.seg");
    let pristine = std::fs::read(&victim).expect("read victim shard");
    // Torn write: drop the tail half.
    std::fs::write(&victim, &pristine[..pristine.len() / 2]).expect("truncate victim");

    let damaged = CorpusStore::open(&dir).expect("open damaged");
    let health = damaged.verify();
    let bad: Vec<_> = health.iter().filter(|h| h.corruption.is_some()).collect();
    assert_eq!(bad.len(), 1);
    assert_eq!(bad[0].index, 2);

    let mut first_fingerprint = None;
    for threads in [1usize, 4] {
        let ckpts = root.join(format!("ckpt-{threads}"));
        let run = resume::survey_incremental(&damaged, &ckpts, options(threads))
            .expect("survey damaged");
        assert_eq!(run.corrupt, 1);
        assert_eq!(run.surveyed, 4);
        assert!(matches!(
            run.shards[2].status,
            ShardStatus::Corrupt("torn_write")
        ));
        // Shard-granular quarantine: one entry, at the shard's base index,
        // tagged with the store stage.
        let q: Vec<_> = run.report.quarantine.iter().filter(|q| q.stage == "store").collect();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].index, 24);
        assert!(q[0].detail.contains("12 certificates skipped"), "detail: {}", q[0].detail);
        // The other 48 certificates are still fully surveyed.
        assert_eq!(run.report.total, 48);
        let f = run.report.fingerprint();
        assert_eq!(*first_fingerprint.get_or_insert(f), f, "degraded report must be deterministic");
    }

    // Restore the shard: a fresh survey heals to the clean one-shot.
    std::fs::write(&victim, &pristine).expect("restore victim");
    let healed = CorpusStore::open(&dir).expect("open healed");
    let run = resume::survey_incremental(&healed, &root.join("ckpt-healed"), options(2))
        .expect("survey healed");
    assert_eq!(run.corrupt, 0);
    assert_eq!(run.report, one_shot(&entries));
    std::fs::remove_dir_all(&root).ok();
}
