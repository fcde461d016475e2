//! Property-based tests for the survey shard-merge algebra.
//!
//! The parallel pipeline's correctness rests on one identity:
//! `run(corpus) == fold(merge, map(run, split(corpus)))` for *any* split.
//! These properties exercise that identity directly on random corpora,
//! split points, and shard sizes — independent of the thread pool, so a
//! failure isolates the merge algebra rather than the scheduling.

use proptest::prelude::*;
use unicert::corpus::{CorpusConfig, CorpusEntry, CorpusGenerator};
use unicert::survey::{self, SurveyOptions, SurveyReport};

fn corpus(size: usize, seed: u64) -> Vec<CorpusEntry> {
    CorpusGenerator::new(CorpusConfig {
        size,
        seed,
        precert_fraction: 0.25,
        latent_defects: true,
    })
    .collect()
}

/// Options at `threads` workers in chunks of `shard_size` (0: the
/// default).
fn opts(threads: usize, shard_size: usize) -> SurveyOptions {
    SurveyOptions {
        lint: unicert_lint::RunOptions {
            threads: Some(threads),
            shard_size,
            ..unicert_lint::RunOptions::default()
        },
        ..SurveyOptions::default()
    }
}

/// The serial reference: one thread, so the whole input is one chunk.
fn run_over(entries: &[CorpusEntry]) -> SurveyReport {
    survey::run(entries.iter().cloned(), opts(1, 0))
}

proptest! {
    /// Surveying shards and merging in order equals surveying the whole
    /// corpus, for every shard size.
    #[test]
    fn shard_merge_equals_whole(size in 1usize..120, seed in 0u64..1000, shard in 1usize..48) {
        let whole = corpus(size, seed);
        let serial = run_over(&whole);
        let mut merged = SurveyReport::default();
        for chunk in whole.chunks(shard) {
            merged.merge(run_over(chunk));
        }
        prop_assert_eq!(serial, merged);
    }

    /// Binary split at an arbitrary point: `merge(run(a), run(b)) ==
    /// run(a ++ b)` — the two-shard instance of the identity, which the
    /// general fold reduces to.
    #[test]
    fn merge_of_split_is_whole(size in 2usize..150, seed in 0u64..1000, cut_frac in 0usize..100) {
        let whole = corpus(size, seed);
        let cut = whole.len() * cut_frac / 100;
        let (a, b) = whole.split_at(cut);
        let mut merged = run_over(a);
        merged.merge(run_over(b));
        prop_assert_eq!(run_over(&whole), merged);
    }

    /// Merging an empty report is the identity on both sides.
    #[test]
    fn empty_report_is_identity(size in 1usize..80, seed in 0u64..1000) {
        let report = run_over(&corpus(size, seed));
        let mut left = SurveyReport::default();
        left.merge(report.clone());
        prop_assert_eq!(&left, &report);
        let mut right = report.clone();
        right.merge(SurveyReport::default());
        prop_assert_eq!(&right, &report);
    }

    /// The *full* pipeline — budgeted parse, classification, linting,
    /// aggregation — survives arbitrary single-byte corruption of valid
    /// certificates without panicking, and the sharded pass stays
    /// byte-identical to the serial one (quarantine lists included).
    /// Upgrades the lint-only mutation property in `unicert-lint`.
    #[test]
    fn survey_survives_byte_mutation_serial_equals_parallel(
        seed in 0u64..1000,
        pos_seed in any::<usize>(),
        byte in any::<u8>(),
        threads in 2usize..6,
    ) {
        let entries = corpus(8, seed);
        let mut ders: Vec<Vec<u8>> = entries.iter().map(|e| e.cert.raw.clone()).collect();
        for der in &mut ders {
            if !der.is_empty() {
                let pos = pos_seed % der.len();
                der[pos] = byte;
            }
        }
        let (one, many) = (opts(1, 0), opts(threads, 3));
        let serial = survey::survey(one.registry(), &ders, one, 0);
        let parallel = survey::survey(many.registry(), &ders, many, 0);
        prop_assert_eq!(parallel, serial);
    }

    /// Same property under structural (TLV-aware) damage from the chaos
    /// mutator: every mutation class, applied to every cert, flows through
    /// the survey without panics and with serial/parallel identity.
    #[test]
    fn survey_survives_chaos_mutations(seed in 0u64..10_000) {
        use unicert_chaos::{MutationClass, Mutator};
        let entries = corpus(4, seed);
        let mut mutator = Mutator::new(seed);
        let mut ders = Vec::new();
        for entry in &entries {
            for class in MutationClass::ALL {
                ders.push(mutator.mutate(&entry.cert.raw, class));
            }
        }
        let (one, many) = (opts(1, 0), opts(4, 5));
        let serial = survey::survey(one.registry(), &ders, one, 0);
        prop_assert_eq!(serial.entries, ders.len());
        let parallel = survey::survey(many.registry(), &ders, many, 0);
        prop_assert_eq!(parallel, serial);
    }
}
