//! Parallel survey determinism: the sharded pipeline must reproduce the
//! serial pass exactly — same counts, same per-issuer/year/lint tables,
//! same validity sample vectors in the same order — for every thread
//! count. See DESIGN.md §7 for why the shard-merge construction makes
//! this hold by design rather than by accident.

use unicert::corpus::{CorpusConfig, CorpusEntry, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};

const CORPUS_SIZE: usize = 10_000;

fn config() -> CorpusConfig {
    CorpusConfig { size: CORPUS_SIZE, seed: 1337, precert_fraction: 0.3, latent_defects: true }
}

fn opts(threads: usize) -> SurveyOptions {
    SurveyOptions {
        lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
        field_matrix: true,
    }
}

#[test]
fn parallel_streaming_matches_serial() {
    let serial = survey::run(CorpusGenerator::new(config()), opts(1));
    assert_eq!(serial.total, CORPUS_SIZE);
    for threads in [2, 4, 8] {
        let parallel = survey::run(CorpusGenerator::new(config()), opts(threads));
        assert_eq!(serial, parallel, "streaming survey diverged at {threads} threads");
    }
}

#[test]
fn parallel_slice_matches_serial() {
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(config()).collect();
    let serial = survey::run(corpus.iter().cloned(), opts(1));
    for threads in [2, 4, 8] {
        let options = opts(threads);
        let parallel = survey::survey(options.registry(), &corpus, options, 0);
        assert_eq!(serial, parallel, "slice survey diverged at {threads} threads");
    }
}

#[test]
fn shard_size_does_not_change_the_report() {
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
        size: 3_000,
        seed: 7,
        precert_fraction: 0.25,
        latent_defects: false,
    })
    .collect();
    let four = opts(4);
    let baseline = survey::survey(four.registry(), &corpus, four, 0);
    for shard_size in [1, 17, 256, 10_000] {
        let opts = SurveyOptions {
            lint: RunOptions { threads: Some(4), shard_size, ..RunOptions::default() },
            field_matrix: true,
        };
        let report = survey::survey(opts.registry(), &corpus, opts, 0);
        assert_eq!(baseline, report, "shard_size={shard_size} diverged");
    }
}

/// DESIGN.md §8 inertness contract: running the sharded survey with
/// metrics and span-level tracing enabled must produce a byte-identical
/// report — telemetry observes the pipeline, it never feeds back into it.
#[test]
fn tracing_on_report_is_byte_identical() {
    use unicert::telemetry::{self, trace, MemorySink, TraceLevel};
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
        size: 3_000,
        seed: 99,
        precert_fraction: 0.2,
        latent_defects: true,
    })
    .collect();
    let four = opts(4);
    let quiet = survey::survey(four.registry(), &corpus, four, 0);

    let sink = MemorySink::new();
    trace::install_collector(sink.clone());
    trace::set_trace_level(TraceLevel::Spans);
    telemetry::set_metrics_enabled(true);
    let traced = survey::survey(four.registry(), &corpus, four, 0);
    telemetry::set_metrics_enabled(false);
    trace::set_trace_level(TraceLevel::Off);
    trace::clear_collector();

    assert!(!sink.is_empty(), "span-level tracing emitted no events");
    assert_eq!(quiet, traced, "tracing/metrics changed the survey report");
}

/// At one thread `survey::survey` over a slice and the streaming `run` both
/// survey the whole input inline as one chunk, and agree.
#[test]
fn single_thread_parallel_is_the_serial_path() {
    let config = CorpusConfig { size: 500, seed: 2, ..Default::default() };
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(config.clone()).collect();
    let one = opts(1);
    let report = survey::survey(one.registry(), &corpus, one, 0);
    let serial = survey::run(CorpusGenerator::new(config), one);
    assert_eq!(report, serial);
}
