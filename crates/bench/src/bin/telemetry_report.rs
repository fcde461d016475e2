//! Telemetry self-benchmark: profiles the instrumented survey pipeline and
//! proves the observability layer is inert.
//!
//! Runs the same corpus twice through the sharded survey — once with all
//! telemetry off (baseline) and once with metrics plus span-level tracing
//! on — asserts the two `SurveyReport`s are **identical** (exiting
//! non-zero otherwise), then writes `BENCH_telemetry.json`: the ten
//! slowest lints, per-lint latency quantiles for every lint, the pipeline
//! stage breakdown, per-worker shard balance, and the measured overhead of
//! enabled telemetry (budget: ≤ 5%, DESIGN.md §8).
//!
//! ```text
//! cargo run --release -p unicert-bench --bin telemetry_report \
//!     [-- size seed] [--format tsv|json] \
//!     [--metrics-out m.json] [--trace-out t.ndjson]
//! ```
//!
//! The stage-breakdown and context-cache summaries printed to stdout go
//! through the shared [`unicert_bench::cli`] renderer, so `--format` here
//! behaves exactly as it does in `explain`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use unicert::corpus::{CorpusEntry, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};
use unicert::telemetry::{self, HistogramSnapshot, MemorySink, Snapshot, Stopwatch, TraceLevel};
use unicert_bench::cli::{self, Records};
use unicert_bench::corpus_args;

fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"name\": \"{}\", \"label\": \"{}\", \"count\": {}, \"sum_ns\": {}, \"mean_ns\": {:.1}, \
         \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
        telemetry::snapshot::escape_json(&h.name),
        telemetry::snapshot::escape_json(&h.label),
        h.count,
        h.sum,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max
    )
}

fn write_histogram_array(json: &mut String, key: &str, items: &[&HistogramSnapshot]) {
    let _ = writeln!(json, "  \"{key}\": [");
    for (i, h) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", histogram_json(h));
    }
    let _ = writeln!(json, "  ],");
}

fn stage_breakdown(snapshot: &Snapshot) -> Vec<(&'static str, &HistogramSnapshot)> {
    let mut stages: Vec<(&'static str, &HistogramSnapshot)> = Vec::new();
    let mut push = |label: &'static str, name: &str, metric_label: &str| {
        if let Some(h) = snapshot.histogram(name, metric_label) {
            stages.push((label, h));
        }
    };
    // The pipeline's four legs plus the merge tail: generation covers the
    // build + sign + DER encode/parse round-trip (the "parse" leg).
    push("generate", "corpus.generate_ns", "");
    push("classify", "survey.stage_ns", "classify");
    push("lint", "survey.stage_ns", "lint");
    push("aggregate", "survey.stage_ns", "aggregate");
    push("field_matrix", "survey.stage_ns", "field_matrix");
    push("merge", "survey.merge_ns", "");
    stages
}

fn main() {
    let _telemetry = unicert_bench::telemetry_args();
    let format = cli::output_format();
    let config = corpus_args(20_000);
    // Worker-balance metrics need a real pool even on a 1-core runner.
    let machine = RunOptions::default().effective_threads();
    let threads = machine.max(2);
    let opts = SurveyOptions {
        lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
        ..SurveyOptions::default()
    };

    // Phase 1: generate the corpus with metrics on so the generation stage
    // (`corpus.generate_ns`) is part of the profile.
    telemetry::set_metrics_enabled(true);
    eprintln!(
        "generating corpus: size={} seed={} threads={threads} ...",
        config.size, config.seed
    );
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(config.clone()).collect();

    // Phase 2: overhead measurement on the single-thread path — on a
    // shared 1-core runner the 2-thread pool's timeslice interleaving adds
    // ±10% wall-clock noise that would swamp the few-percent signal.
    // Alternate telemetry-off and telemetry-on serial passes over the same
    // corpus and keep the best of each: back-to-back pairs cancel drift,
    // and the minimum is the standard low-noise estimator for a
    // deterministic workload. Span-level tracing goes to an in-memory sink.
    const PASSES: usize = 5;
    let serial_opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let saved_level = telemetry::trace::trace_level();
    let sink = MemorySink::new();
    // One untimed warmup so neither side pays the cold-cache pass.
    telemetry::set_metrics_enabled(false);
    telemetry::trace::set_trace_level(TraceLevel::Off);
    let _ = survey::survey(serial_opts.registry(), &corpus, serial_opts, 0);
    let mut baseline_secs = f64::INFINITY;
    let mut instrumented_secs = f64::INFINITY;
    // Overhead is the minimum over passes of the *paired* on/off ratio: the
    // two sides of one pass run back-to-back, so a machine-wide slowdown
    // hits both and cancels in the ratio, and the minimum picks the pass
    // with the least interference. Comparing min(on) against min(off)
    // across different passes would instead compare different machine
    // states.
    let mut overhead_ratio = f64::INFINITY;
    let mut baseline = None;
    let mut instrumented = None;
    for pass in 0..PASSES {
        telemetry::set_metrics_enabled(false);
        telemetry::trace::set_trace_level(TraceLevel::Off);
        let watch = Stopwatch::start();
        let report = survey::survey(serial_opts.registry(), &corpus, serial_opts, 0);
        let secs = watch.elapsed_secs();
        println!(
            "pass {pass}: baseline     (telemetry off) {secs:>8.3}s  {:>12.0} certs/sec",
            corpus.len() as f64 / secs
        );
        baseline_secs = baseline_secs.min(secs);
        let pass_baseline_secs = secs;
        baseline = Some(report);

        telemetry::trace::install_collector(sink.clone());
        telemetry::trace::set_trace_level(TraceLevel::Spans);
        telemetry::set_metrics_enabled(true);
        let watch = Stopwatch::start();
        let report = survey::survey(serial_opts.registry(), &corpus, serial_opts, 0);
        let secs = watch.elapsed_secs();
        telemetry::set_metrics_enabled(false);
        telemetry::trace::set_trace_level(TraceLevel::Off);
        telemetry::trace::clear_collector();
        println!(
            "pass {pass}: instrumented (telemetry on)  {secs:>8.3}s  {:>12.0} certs/sec",
            corpus.len() as f64 / secs
        );
        instrumented_secs = instrumented_secs.min(secs);
        overhead_ratio = overhead_ratio.min(secs / pass_baseline_secs);
        instrumented = Some(report);
    }

    // Phase 3: one instrumented pass on the real pool for the worker and
    // shard-balance metrics (and a third report for the inertness gate).
    telemetry::trace::install_collector(sink.clone());
    telemetry::trace::set_trace_level(TraceLevel::Spans);
    telemetry::set_metrics_enabled(true);
    let watch = Stopwatch::start();
    let parallel_report = survey::survey(opts.registry(), &corpus, opts, 0);
    let parallel_secs = watch.elapsed_secs();
    telemetry::set_metrics_enabled(false);
    telemetry::trace::set_trace_level(saved_level);
    telemetry::trace::clear_collector();
    println!(
        "parallel pass (telemetry on, threads={threads}) {parallel_secs:>8.3}s  {:>12.0} certs/sec",
        corpus.len() as f64 / parallel_secs
    );

    // Inertness gate: telemetry must not change one byte of the report,
    // serial or sharded.
    let diverged = baseline.is_none()
        || baseline != instrumented
        || baseline.as_ref() != Some(&parallel_report);
    if diverged {
        eprintln!("FATAL: instrumented survey report diverged from the baseline report");
        std::process::exit(1);
    }
    println!("reports identical: telemetry is inert");

    let overhead_pct = (overhead_ratio - 1.0) * 100.0;
    let trace_events = sink.len();
    let snapshot = telemetry::global().snapshot();

    let mut per_lint: Vec<&HistogramSnapshot> =
        snapshot.histograms_named("lint.latency_ns").collect();
    per_lint.sort_by(|a, b| a.label.cmp(&b.label));
    let mut slowest = per_lint.clone();
    slowest.sort_by(|a, b| {
        b.quantile(0.99)
            .cmp(&a.quantile(0.99))
            .then(b.sum.cmp(&a.sum))
            .then(a.label.cmp(&b.label))
    });
    slowest.truncate(10);

    // Stage shares are computed from *per-certificate* cost, not raw sums:
    // generation is recorded for every entry, the survey stages only on the
    // 1-in-`metrics_sample()` latency-timed certificates, and the merge
    // once per shard of the single parallel pass — so sums live on
    // different scales, while mean-per-unit is sampling-invariant.
    let stages = stage_breakdown(&snapshot);
    let per_cert = |label: &str, h: &HistogramSnapshot| -> f64 {
        if label == "merge" {
            h.sum as f64 / corpus.len() as f64
        } else {
            h.mean()
        }
    };
    let stage_total: f64 = stages.iter().map(|(label, h)| per_cert(label, h)).sum();

    let pool_wall = snapshot.gauge("pool.wall_ns", "").unwrap_or(0);
    let mut workers: Vec<(String, u64, u64)> = snapshot
        .counters_named("pool.worker_tasks")
        .map(|m| {
            let busy = snapshot.counter("pool.worker_busy_ns", &m.label).unwrap_or(0);
            (m.label.clone(), m.value, busy)
        })
        .collect();
    workers.sort_by(|a, b| {
        a.0.parse::<u64>().unwrap_or(u64::MAX).cmp(&b.0.parse::<u64>().unwrap_or(u64::MAX))
    });

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"telemetry_report\",");
    let _ = writeln!(json, "  \"corpus_size\": {},", corpus.len());
    let _ = writeln!(json, "  \"seed\": {},", config.seed);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"metrics_sample\": {},", telemetry::metrics_sample());
    let _ = writeln!(json, "  \"baseline_secs\": {baseline_secs:.6},");
    let _ = writeln!(json, "  \"instrumented_secs\": {instrumented_secs:.6},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.2},");
    let _ = writeln!(json, "  \"reports_identical\": true,");
    let _ = writeln!(json, "  \"trace_events\": {trace_events},");
    let _ = writeln!(json, "  \"lints_profiled\": {},", per_lint.len());

    write_histogram_array(&mut json, "slowest_lints", &slowest);

    let mut stage_records =
        Records::new(&["stage", "count", "per_cert_ns", "share_pct", "p50_ns", "p99_ns"]);
    let _ = writeln!(json, "  \"stage_breakdown\": [");
    for (i, (label, h)) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        let cost = per_cert(label, h);
        let share = if stage_total > 0.0 { 100.0 * cost / stage_total } else { 0.0 };
        let _ = writeln!(
            json,
            "    {{\"stage\": \"{label}\", \"count\": {}, \"sum_ns\": {}, \
             \"per_cert_ns\": {cost:.1}, \"share_pct\": {share:.1}, \
             \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}{comma}",
            h.count,
            h.sum,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99)
        );
        stage_records.push(vec![
            (*label).to_owned(),
            h.count.to_string(),
            format!("{cost:.1}"),
            format!("{share:.1}"),
            h.quantile(0.5).to_string(),
            h.quantile(0.99).to_string(),
        ]);
    }
    let _ = writeln!(json, "  ],");

    // Context-cache effectiveness: per-family hit/miss tallies every
    // `LintContext` flushes on drop during the instrumented passes. A hit is
    // a lint reading an already-decoded value; a miss is the one decode that
    // populated it.
    const CACHE_FAMILIES: [&str; 4] = ["san", "dn_text", "punycode", "nfc"];
    let mut cache_records = Records::new(&["family", "hits", "misses", "hit_rate_pct"]);
    let _ = writeln!(json, "  \"context_cache\": [");
    for (i, family) in CACHE_FAMILIES.iter().enumerate() {
        let comma = if i + 1 < CACHE_FAMILIES.len() { "," } else { "" };
        let hits = snapshot.counter("ctx.cache.hit", family).unwrap_or(0);
        let misses = snapshot.counter("ctx.cache.miss", family).unwrap_or(0);
        let total = hits + misses;
        let rate = if total > 0 { 100.0 * hits as f64 / total as f64 } else { 0.0 };
        let _ = writeln!(
            json,
            "    {{\"family\": \"{family}\", \"hits\": {hits}, \"misses\": {misses}, \
             \"hit_rate_pct\": {rate:.1}}}{comma}"
        );
        cache_records.push(vec![
            (*family).to_owned(),
            hits.to_string(),
            misses.to_string(),
            format!("{rate:.1}"),
        ]);
    }
    let _ = writeln!(json, "  ],");
    println!("# stage breakdown");
    print!("{}", stage_records.render(format));
    println!("# context cache");
    print!("{}", cache_records.render(format));

    // Worker busy counters only accumulate in the (single) parallel pass,
    // so the pool wall gauge from that pass is the right denominator.
    let _ = writeln!(json, "  \"workers\": [");
    for (i, (label, tasks, busy)) in workers.iter().enumerate() {
        let comma = if i + 1 < workers.len() { "," } else { "" };
        let utilization = if pool_wall > 0 { 100.0 * *busy as f64 / pool_wall as f64 } else { 0.0 };
        let _ = writeln!(
            json,
            "    {{\"worker\": \"{}\", \"shards\": {tasks}, \"busy_ns\": {busy}, \
             \"utilization_pct\": {utilization:.1}}}{comma}",
            telemetry::snapshot::escape_json(label)
        );
    }
    let _ = writeln!(json, "  ],");

    write_histogram_array(&mut json, "pool", &{
        let mut pool: Vec<&HistogramSnapshot> = Vec::new();
        if let Some(h) = snapshot.histogram("pool.source_wait_ns", "") {
            pool.push(h);
        }
        if let Some(h) = snapshot.histogram("pool.task_exec_ns", "") {
            pool.push(h);
        }
        pool
    });

    write_histogram_array(&mut json, "per_lint", &per_lint);

    // Trailing key with no comma after the last array above.
    let _ = writeln!(json, "  \"pool_wall_ns\": {pool_wall}");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
    println!(
        "wrote BENCH_telemetry.json ({} lints profiled, {:.2}% overhead)",
        per_lint.len(),
        overhead_pct
    );
    if overhead_pct > 5.0 {
        eprintln!("WARNING: telemetry overhead {overhead_pct:.2}% exceeds the 5% budget");
    }
}
