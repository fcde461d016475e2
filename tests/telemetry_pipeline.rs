//! Integration contract of the telemetry layer against the real survey
//! pipeline (DESIGN.md §8).
//!
//! Lives in its own test binary (= its own process) because metric
//! counters, the trace level, and the collector are process globals: the
//! counter-delta assertions here must not race the other suites'
//! surveys. Within the binary, every test serializes on one lock.

use std::sync::{Mutex, MutexGuard};

use unicert::corpus::{lint_registry, CorpusConfig, CorpusEntry, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};
use unicert::telemetry::{self, trace, MemorySink, Snapshot, TraceLevel};

/// Telemetry state is process-global; run one test at a time.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn corpus(size: usize, seed: u64) -> Vec<CorpusEntry> {
    CorpusGenerator::new(CorpusConfig {
        size,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .collect()
}

/// Survey options with effective-date gating off, so every one of the 95
/// lints runs on every certificate and the expected counter deltas are
/// exact.
fn ungated(threads: usize) -> SurveyOptions {
    SurveyOptions {
        lint: RunOptions {
            threads: Some(threads),
            enforce_effective_dates: false,
            ..RunOptions::default()
        },
        field_matrix: true,
    }
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str, label: &str) -> u64 {
    after.counter(name, label).unwrap_or(0) - before.counter(name, label).unwrap_or(0)
}

fn histogram_count_delta(before: &Snapshot, after: &Snapshot, name: &str, label: &str) -> u64 {
    after.histogram(name, label).map(|h| h.count).unwrap_or(0)
        - before.histogram(name, label).map(|h| h.count).unwrap_or(0)
}

/// `Registry::run` must record exactly one `lint.runs` observation per
/// enabled lint per certificate — exhaustively, not sampled — and with
/// the sampling interval forced to 1, exactly one latency observation
/// per enabled lint per certificate too.
#[test]
fn one_observation_per_enabled_lint_per_cert() {
    let _guard = telemetry_lock();
    let corpus = corpus(120, 11);
    let lints: Vec<&'static str> = lint_registry().lints().iter().map(|l| l.name).collect();
    assert_eq!(lints.len(), 95, "expected the paper's 95 lints");

    let saved_sample = telemetry::metrics_sample();
    telemetry::set_metrics_sample(1);
    telemetry::set_metrics_enabled(true);
    let before = telemetry::global().snapshot();
    let report = survey::run(corpus.iter().cloned(), ungated(1));
    let after = telemetry::global().snapshot();
    telemetry::set_metrics_enabled(false);
    telemetry::set_metrics_sample(saved_sample);

    assert_eq!(report.total, 120);
    assert_eq!(counter_delta(&before, &after, "lint.certs", ""), 120);
    for lint in &lints {
        assert_eq!(
            counter_delta(&before, &after, "lint.runs", lint),
            120,
            "lint.runs{{{lint}}} must advance once per cert"
        );
        assert_eq!(
            histogram_count_delta(&before, &after, "lint.latency_ns", lint),
            120,
            "lint.latency_ns{{{lint}}} must record once per cert at sample=1"
        );
    }
}

/// The default sampling interval keeps the run counters exhaustive while
/// the latency histograms observe one certificate in
/// `DEFAULT_METRICS_SAMPLE`.
#[test]
fn latency_sampling_thins_histograms_not_counters() {
    let _guard = telemetry_lock();
    let corpus = corpus(160, 12);

    let saved_sample = telemetry::metrics_sample();
    telemetry::set_metrics_sample(16);
    telemetry::set_metrics_enabled(true);
    let before = telemetry::global().snapshot();
    let _ = survey::run(corpus.iter().cloned(), ungated(1));
    let after = telemetry::global().snapshot();
    telemetry::set_metrics_enabled(false);
    telemetry::set_metrics_sample(saved_sample);

    let runs = counter_delta(&before, &after, "lint.runs", "e_bmpstring_odd_length");
    let timed = histogram_count_delta(&before, &after, "lint.latency_ns", "e_bmpstring_odd_length");
    assert_eq!(runs, 160, "run counters stay exhaustive under sampling");
    assert!(
        (160 / 16..160).contains(&timed),
        "sampled latency count should be ≈ total/16, got {timed}"
    );
}

/// One-off `Registry::run` calls, outside any survey, keep the run and
/// finding counters exhaustive and sample latency on the global
/// `lint.certs` sequence: one certificate in the interval is timed.
#[test]
fn one_off_runs_sample_latency_on_the_global_sequence() {
    use unicert::lint::Severity;
    let _guard = telemetry_lock();
    let corpus = corpus(160, 15);
    let registry = lint_registry();
    let opts = RunOptions { enforce_effective_dates: false, ..RunOptions::default() };

    let saved_sample = telemetry::metrics_sample();
    telemetry::set_metrics_sample(16);
    telemetry::set_metrics_enabled(true);
    let before = telemetry::global().snapshot();
    let reports: Vec<_> = corpus.iter().map(|entry| registry.run(&entry.cert.raw, opts).unwrap()).collect();
    let after = telemetry::global().snapshot();
    telemetry::set_metrics_enabled(false);
    telemetry::set_metrics_sample(saved_sample);

    let n = corpus.len() as u64;
    assert_eq!(counter_delta(&before, &after, "lint.certs", ""), n);
    for lint in registry.lints() {
        let name = lint.name;
        assert_eq!(
            counter_delta(&before, &after, "lint.runs", name),
            n,
            "lint.runs{{{name}}} must advance once per one-off run"
        );
        let timed = histogram_count_delta(&before, &after, "lint.latency_ns", name);
        assert!(
            (n / 16..n).contains(&timed),
            "lint.latency_ns{{{name}}} should record ≈ n/16 one-off runs, got {timed}"
        );
    }
    let findings = |severity| {
        reports.iter().flat_map(|r| &r.findings).filter(|f| f.severity == severity).count() as u64
    };
    assert_eq!(counter_delta(&before, &after, "lint.findings", "error"), findings(Severity::Error));
    assert_eq!(
        counter_delta(&before, &after, "lint.findings", "warning"),
        findings(Severity::Warning)
    );
}

/// `UNICERT_TRACE=0` (and any unrecognized value) must leave the level at
/// Off, and a survey under level Off must emit zero events even with a
/// collector installed.
#[test]
fn trace_off_emits_zero_events() {
    let _guard = telemetry_lock();
    std::env::set_var("UNICERT_TRACE", "0");
    let _ = telemetry::init_from_env();
    std::env::remove_var("UNICERT_TRACE");
    assert_eq!(trace::trace_level(), TraceLevel::Off);

    let sink = MemorySink::new();
    trace::install_collector(sink.clone());
    let corpus = corpus(60, 13);
    let opts = ungated(4);
    let _ = survey::survey(opts.registry(), &corpus, opts, 0);
    trace::clear_collector();
    assert!(
        sink.is_empty(),
        "UNICERT_TRACE=0 must suppress all events, got {:?}",
        sink.events()
    );
}

/// Full-telemetry inertness: metrics at sample=1 plus verbose tracing
/// produce a byte-identical report to the all-off baseline.
#[test]
fn full_telemetry_is_byte_identical() {
    let _guard = telemetry_lock();
    let corpus = corpus(400, 14);
    telemetry::set_metrics_enabled(false);
    trace::set_trace_level(TraceLevel::Off);
    let opts = ungated(4);
    let baseline = survey::survey(opts.registry(), &corpus, opts, 0);

    let sink = MemorySink::new();
    trace::install_collector(sink.clone());
    trace::set_trace_level(TraceLevel::Verbose);
    let saved_sample = telemetry::metrics_sample();
    telemetry::set_metrics_sample(1);
    telemetry::set_metrics_enabled(true);
    let instrumented = survey::survey(opts.registry(), &corpus, opts, 0);
    telemetry::set_metrics_enabled(false);
    telemetry::set_metrics_sample(saved_sample);
    trace::set_trace_level(TraceLevel::Off);
    trace::clear_collector();

    assert_eq!(baseline, instrumented, "telemetry changed the survey report");
    // Verbose level reaches per-lint spans: 400 certs × 95 lints plus the
    // pipeline spans.
    assert!(
        sink.len() as u64 >= 400 * 95,
        "verbose tracing should emit per-lint spans, got {}",
        sink.len()
    );
}
