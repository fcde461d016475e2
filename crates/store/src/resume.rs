//! The incremental survey driver: checkpointed, crash-safe, resumable.
//!
//! [`survey_incremental`] walks a store's shards in manifest order. For
//! each shard it
//!
//! 1. tries the shard's checkpoint — if one exists and fully validates
//!    (see `checkpoint.rs`), its report is reused and the shard's
//!    certificates are never touched;
//! 2. otherwise reads the segment and surveys its records straight from
//!    the read buffer —
//!    [`run_parallel_records_from`](unicert::survey::run_parallel_records_from)
//!    lints each certificate through a zero-copy `CertView` of the
//!    borrowed DER, no per-certificate copy — at the shard's global base
//!    index, and commits a fresh checkpoint via [`crate::atomic_write`]
//!    *before* moving on — so after a crash, every finished shard is
//!    either fully committed or invisible;
//! 3. a shard whose segment fails verification is *quarantined at shard
//!    granularity*: one `"store"`-stage [`QuarantineEntry`] records the
//!    corruption class and how many certificates were skipped, and the
//!    run continues. No checkpoint is written for it (the segment might
//!    be repaired later).
//!
//! Per-shard reports merge in shard order, so — because store shards need
//! not align with the survey's internal chunking (the shard-merge
//! invariant, DESIGN.md §7) — a clean resumed run is **byte-identical**
//! to a one-shot in-memory survey of the same corpus at any thread count.
//!
//! ## One parse per certificate
//!
//! Step 2 reads each new shard through `CorpusStore::survey_shard`, which
//! parses each certificate once and hashes the segment once. The segment is
//! checked for framing, metadata, record count and both fingerprints (one
//! FNV pass over the body serves the trailer and the manifest check)
//! without parsing any certificate. The survey's own budgeted `CertView`
//! parse — the parse `CorpusStore::with_shard_records` runs first as its
//! "every record parses" proof — then serves as that proof. If the survey
//! quarantined a record at stage `"parse"`, or the framing check failed,
//! the report is discarded and the segment goes through the full validator,
//! so step 3 sees exactly the [`crate::Corruption`] that
//! `with_shard_records` reports for the same bytes.
//!
//! ## Crash injection
//!
//! `UNICERT_CRASH_AFTER_SHARD=<k>` hard-exits the process (code 137, the
//! SIGKILL convention) immediately after shard `k`'s checkpoint commits —
//! the hook the crash-resume harness (`bench_store`, CI) uses to prove
//! every kill point resumes losslessly. Unset, unparsable, or
//! out-of-range values are ignored; this knob exists for the harness and
//! does nothing in production use. [`ResumeOptions::stop_after`] is the
//! graceful in-process analogue for tests that cannot afford an exit.

use crate::checkpoint::{checkpoint_path, decode_checkpoint, encode_checkpoint, options_key};
use crate::store::CorpusStore;
use crate::{atomic_write, StoreError};
use std::path::Path;
use unicert::survey::{QuarantineEntry, SurveyOptions, SurveyReport};

/// Options for [`survey_incremental`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumeOptions {
    /// Survey options (profile, gating, threads, field matrix, …).
    pub survey: SurveyOptions,
    /// Stop gracefully after this many shards have been brought up to
    /// date (resumed, surveyed, or quarantined) — the in-process analogue
    /// of the `UNICERT_CRASH_AFTER_SHARD` kill switch, for tests.
    /// `None` runs to completion.
    pub stop_after: Option<usize>,
}

/// How one shard was brought up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// A valid checkpoint was reused; no certificate was re-linted.
    Resumed,
    /// The shard was (re-)surveyed and a fresh checkpoint committed.
    Surveyed,
    /// The segment failed verification; carries the corruption class
    /// (`"torn_write"`, `"version_skew"`, `"fingerprint_mismatch"`).
    Corrupt(&'static str),
}

/// Per-shard outcome row of a [`ResumeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Shard index.
    pub index: usize,
    /// Global index of the shard's first certificate.
    pub start: u64,
    /// Certificates in the shard.
    pub count: usize,
    /// How the shard was handled.
    pub status: ShardStatus,
}

/// What [`survey_incremental`] produced.
#[derive(Debug)]
pub struct ResumeReport {
    /// The merged survey report (shard reports merged in shard order).
    pub report: SurveyReport,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Shards restored from checkpoints.
    pub resumed: usize,
    /// Shards (re-)surveyed this run.
    pub surveyed: usize,
    /// Shards skipped as corrupt.
    pub corrupt: usize,
    /// Whether the store's manifest had to be rebuilt from segments.
    pub manifest_rebuilt: bool,
    /// `false` when [`ResumeOptions::stop_after`] ended the run early.
    pub complete: bool,
}

/// Read the `UNICERT_CRASH_AFTER_SHARD` kill switch. Anything that does
/// not parse as a shard index is treated as unset — this is a test
/// harness knob, not user configuration (those get [`unicert_lint::RunOptions::validate_env`]).
fn crash_after_shard() -> Option<usize> {
    std::env::var("UNICERT_CRASH_AFTER_SHARD").ok().and_then(|v| v.parse().ok())
}

/// Run (or resume) the incremental survey of `store`, keeping checkpoints
/// under `ckpt_dir`. See the module docs for the protocol.
pub fn survey_incremental(
    store: &CorpusStore,
    ckpt_dir: &Path,
    opts: ResumeOptions,
) -> Result<ResumeReport, StoreError> {
    std::fs::create_dir_all(ckpt_dir)?;
    let registry = unicert_lint::profiles::registry(opts.survey.lint.effective_profile())
        .unwrap_or_else(unicert_corpus::lint_registry);
    let opts_key = options_key(registry, &opts);
    let crash_after = crash_after_shard();
    let metrics = unicert_telemetry::metrics_enabled();

    let mut report = SurveyReport::default();
    let mut shards = Vec::new();
    let mut resumed = 0usize;
    let mut surveyed = 0usize;
    let mut corrupt = 0usize;
    let mut complete = true;

    for shard in &store.manifest().shards {
        let ckpt = checkpoint_path(ckpt_dir, shard.index);
        let restored = std::fs::read(&ckpt)
            .ok()
            .and_then(|bytes| decode_checkpoint(&bytes, shard, &opts_key, registry).ok());
        let status = match restored {
            Some(shard_report) => {
                report.merge(shard_report);
                resumed += 1;
                if metrics {
                    unicert_telemetry::global().counter("store.shard", "resumed").inc();
                }
                ShardStatus::Resumed
            }
            None => match store.survey_shard(shard, registry, opts.survey) {
                Ok(shard_report) => {
                    atomic_write(&ckpt, &encode_checkpoint(shard, &opts_key, &shard_report))?;
                    report.merge(shard_report);
                    surveyed += 1;
                    ShardStatus::Surveyed
                }
                Err(corruption) => {
                    // Shard-granular quarantine: one entry at the shard's
                    // base index, nothing else from this shard. No
                    // checkpoint either — a repaired segment re-surveys.
                    report.quarantine.push(QuarantineEntry {
                        index: shard.start,
                        cert_id: shard.file.clone(),
                        stage: "store",
                        detail: format!(
                            "{corruption} (shard of {} certificates skipped)",
                            shard.count
                        ),
                        flight: Vec::new(),
                    });
                    corrupt += 1;
                    ShardStatus::Corrupt(corruption.class())
                }
            },
        };
        shards.push(ShardOutcome {
            index: shard.index,
            start: shard.start,
            count: shard.count,
            status,
        });
        if crash_after == Some(shard.index) {
            // Simulated crash for the resume harness: hard exit, no
            // unwinding, no cleanup — exactly what SIGKILL would leave.
            std::process::exit(137);
        }
        if opts.stop_after.is_some_and(|n| shards.len() >= n) {
            complete = shards.len() == store.manifest().shards.len();
            break;
        }
    }
    // A clean merged run is tagged like any other survey; an all-corrupt
    // run still carries the profile it linted nothing under.
    if report.profile.is_empty() {
        report.profile = registry.profile_name();
    }
    Ok(ResumeReport {
        report,
        shards,
        resumed,
        surveyed,
        corrupt,
        manifest_rebuilt: store.manifest_rebuilt(),
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_corpus::{CorpusConfig, CorpusEntry, CorpusGenerator};

    fn entries(n: usize, seed: u64) -> Vec<CorpusEntry> {
        CorpusGenerator::new(CorpusConfig {
            size: n,
            seed,
            precert_fraction: 0.0,
            latent_defects: true,
        })
        .collect()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("unicert-resume-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn first_run_surveys_then_second_run_resumes_identically() {
        let dir = scratch("basic");
        let corpus = entries(60, 5);
        let store =
            CorpusStore::freeze(&dir.join("store"), &corpus, 16).unwrap();
        let ckpts = dir.join("ckpts");
        let first = survey_incremental(&store, &ckpts, ResumeOptions::default()).unwrap();
        assert_eq!(first.surveyed, 4);
        assert_eq!(first.resumed, 0);
        let second = survey_incremental(&store, &ckpts, ResumeOptions::default()).unwrap();
        assert_eq!(second.resumed, 4);
        assert_eq!(second.surveyed, 0);
        assert_eq!(second.report, first.report);
        assert_eq!(second.report.fingerprint(), first.report.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_after_is_a_graceful_partial_run() {
        let dir = scratch("stop");
        let store = CorpusStore::freeze(&dir.join("store"), &entries(60, 5), 16).unwrap();
        let ckpts = dir.join("ckpts");
        let partial = survey_incremental(
            &store,
            &ckpts,
            ResumeOptions { stop_after: Some(2), ..ResumeOptions::default() },
        )
        .unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.shards.len(), 2);
        let rest = survey_incremental(&store, &ckpts, ResumeOptions::default()).unwrap();
        assert!(rest.complete);
        assert_eq!(rest.resumed, 2);
        assert_eq!(rest.surveyed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_is_quarantined_and_surveyed_around() {
        let dir = scratch("corrupt");
        let corpus = entries(60, 5);
        let store_dir = dir.join("store");
        let store = CorpusStore::freeze(&store_dir, &corpus, 16).unwrap();
        let victim = store_dir.join(&store.manifest().shards[1].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes.truncate(bytes.len() / 3);
        std::fs::write(&victim, &bytes).unwrap();

        let run =
            survey_incremental(&store, &dir.join("ckpts"), ResumeOptions::default()).unwrap();
        assert_eq!(run.corrupt, 1);
        assert_eq!(run.surveyed, 3);
        assert_eq!(run.shards[1].status, ShardStatus::Corrupt("torn_write"));
        let q: Vec<_> =
            run.report.quarantine.iter().filter(|q| q.stage == "store").collect();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].index, 16);
        assert_eq!(q[0].cert_id, "shard-00001.seg");
        assert!(q[0].detail.contains("16 certificates skipped"), "{}", q[0].detail);
        // Deterministic: a second (resumed) run reports identical bytes.
        let again =
            survey_incremental(&store, &dir.join("ckpts"), ResumeOptions::default()).unwrap();
        assert_eq!(again.resumed, 3);
        assert_eq!(again.corrupt, 1);
        assert_eq!(again.report, run.report);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn threads(n: usize) -> ResumeOptions {
        ResumeOptions {
            survey: SurveyOptions {
                lint: unicert_lint::RunOptions { threads: Some(n), ..Default::default() },
                ..SurveyOptions::default()
            },
            stop_after: None,
        }
    }

    /// A record that no longer parses, in a segment whose trailer and
    /// manifest fingerprint were computed over the damaged bytes, passes
    /// every check but the per-record parse proof. The single-parse path
    /// must catch it in the survey, fall back to the full validator, and
    /// quarantine exactly that shard under the validator's classification
    /// — also when a later record's metadata is malformed too, which the
    /// framing check sees first but the full validator ranks after the
    /// earlier record's parse failure.
    #[test]
    fn unparsable_record_quarantines_its_shard_via_the_full_validator() {
        // Shard 1 holds global records 16..32; global 21 is its record 5
        // and global 29 its record 13.
        for malformed_meta in [None, Some(29)] {
            let dir = scratch(&format!("unparsable-{malformed_meta:?}"));
            let mut corpus = entries(60, 5);
            let raw = &mut corpus[21].cert.raw;
            raw.truncate(raw.len() / 2);
            if let Some(j) = malformed_meta {
                corpus[j].meta.issued.month = 13;
            }
            let store = CorpusStore::freeze(&dir.join("store"), &corpus, 16).unwrap();
            let shards = &store.manifest().shards;
            let validator = store.with_shard_records(&shards[1], |_| ()).unwrap_err();
            assert_eq!(
                validator.to_string(),
                "fingerprint_mismatch: record 5: certificate does not parse (truncated)"
            );

            let registry = unicert_corpus::lint_registry();
            let mut expected = SurveyReport::default();
            for shard in shards {
                if shard.index == 1 {
                    expected.quarantine.push(QuarantineEntry {
                        index: shard.start,
                        cert_id: shard.file.clone(),
                        stage: "store",
                        detail: format!("{validator} (shard of 16 certificates skipped)"),
                        flight: Vec::new(),
                    });
                    continue;
                }
                let lo = shard.start as usize;
                expected.merge(unicert::survey::run_parallel_slice_from(
                    registry,
                    &corpus[lo..lo + shard.count],
                    threads(1).survey,
                    shard.start,
                ));
            }

            for n in [1, 2] {
                let ckpts = dir.join(format!("ckpts-{n}"));
                let run = survey_incremental(&store, &ckpts, threads(n)).unwrap();
                assert_eq!(run.corrupt, 1, "threads {n}");
                assert_eq!(run.surveyed, 3, "threads {n}");
                assert_eq!(run.shards[1].status, ShardStatus::Corrupt("fingerprint_mismatch"));
                assert_eq!(run.report, expected, "threads {n}");
                assert!(!checkpoint_path(&ckpts, 1).exists(), "threads {n}");
                let again = survey_incremental(&store, &ckpts, threads(n)).unwrap();
                assert_eq!((again.resumed, again.corrupt), (3, 1), "threads {n}");
                assert_eq!(again.report, expected, "threads {n}");
                assert!(!checkpoint_path(&ckpts, 1).exists(), "threads {n}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_checkpoint_self_heals_by_resurvey() {
        let dir = scratch("ckpt-heal");
        let store = CorpusStore::freeze(&dir.join("store"), &entries(40, 5), 16).unwrap();
        let ckpts = dir.join("ckpts");
        let first = survey_incremental(&store, &ckpts, ResumeOptions::default()).unwrap();
        // Rot one checkpoint, delete another.
        let c1 = checkpoint_path(&ckpts, 1);
        let mut bytes = std::fs::read(&c1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&c1, &bytes).unwrap();
        std::fs::remove_file(checkpoint_path(&ckpts, 2)).unwrap();

        let healed = survey_incremental(&store, &ckpts, ResumeOptions::default()).unwrap();
        assert_eq!(healed.resumed, 1);
        assert_eq!(healed.surveyed, 2);
        assert_eq!(healed.report, first.report);
        std::fs::remove_dir_all(&dir).ok();
    }
}
