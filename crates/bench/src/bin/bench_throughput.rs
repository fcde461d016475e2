//! Throughput benchmark for the sharded survey pipeline.
//!
//! Pre-generates a corpus, then times the full classify→lint survey at
//! 1, 2, 4, and N (machine) worker threads against the serial baseline,
//! asserting after every run that the parallel report is identical to the
//! serial one. Wall-clock per configuration is recorded once into the
//! telemetry registry (`bench.wall_ns{serial|threads=N}` gauges) and the
//! JSON report reads it back from the snapshot — one timing source, no
//! hand-rolled duplicates. Results are written to `BENCH_pipeline.json`
//! in the current directory:
//!
//! ```text
//! cargo run --release -p unicert-bench --bin bench_throughput \
//!     [-- size seed] [--baseline old.json] \
//!     [--metrics-out m.json] [--trace-out t.ndjson]
//! ```
//!
//! With `--baseline <json>` (a previously written `BENCH_pipeline.json`)
//! the output additionally carries a `speedup` section — current over
//! baseline `certs_per_sec` per configuration — and the run **fails**
//! (exit 1) if the baseline recorded a report fingerprint and the current
//! survey's fingerprint differs: timing may drift, the report may not.
//!
//! Two further flags close the observability loop:
//!
//! * `--min-speedup <ratio>` (requires `--baseline`): fail (exit 1) when
//!   any configuration measured in both runs fell below `ratio` × the
//!   baseline throughput — CI passes `0.9` to catch >10% regressions.
//! * `--min-view-speedup <ratio>`: fail (exit 1) when the zero-copy
//!   survey (bare bytes through `survey::survey`, over `CertView`) ran
//!   slower than `ratio` × the owned decode+lint path *in the same run*.
//!   Because both sides share one process and one corpus, machine speed
//!   cancels out of the ratio — this is the gate shared-runner noise
//!   cannot flip.
//! * `--history <json>`: append one run record (id, corpus, fingerprint,
//!   per-configuration certs/sec) to a cumulative trajectory file, so
//!   throughput is comparable *across* PRs, not just against one baseline.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use unicert::asn1::ParseBudget;
use unicert::corpus::{CertMeta, CorpusEntry, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions, SurveyReport};
use unicert::telemetry::{self, Stopwatch};
use unicert::x509::{CertView, Certificate};
use unicert_bench::baseline::Baseline;
use unicert_bench::{corpus_args, flag_arg};

struct Sample {
    mode: &'static str,
    /// Gauge label under `bench.wall_ns` — the timing source of record.
    metric: String,
    threads: usize,
}

/// Append one run record to the cumulative history file. The file is a
/// JSON object whose `runs` array grows by one line per invocation; prior
/// records are carried over verbatim (line-oriented, like
/// [`Baseline::parse`] — the shape is our own).
fn append_history(
    path: &str,
    fingerprint: &str,
    corpus_size: usize,
    seed: u64,
    rates: &[(String, f64)],
) {
    let mut prior: Vec<String> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        prior.extend(
            text.lines().filter(|l| l.contains("\"id\":")).map(|l| {
                l.trim().trim_end_matches(',').to_string()
            }),
        );
    }
    // Run id: wall-clock seconds since the epoch — unique enough for an
    // append-only log, and meaningful as a timestamp.
    let id = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut rate_fields = String::new();
    for (metric, rate) in rates {
        let _ = write!(rate_fields, ", \"{metric}\": {rate:.1}");
    }
    let record = format!(
        "{{\"id\": \"run-{id}\", \"corpus_size\": {corpus_size}, \"seed\": {seed}, \
         \"fingerprint\": \"{fingerprint}\"{rate_fields}}}"
    );
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"survey_pipeline_throughput_history\",");
    let _ = writeln!(json, "  \"runs\": [");
    for line in &prior {
        let _ = writeln!(json, "    {line},");
    }
    let _ = writeln!(json, "    {record}");
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match std::fs::write(path, &json) {
        Ok(()) => println!("appended run-{id} to {path} ({} prior runs)", prior.len()),
        Err(e) => eprintln!("warning: cannot write history {path}: {e}"),
    }
}

/// Time one survey configuration, record the wall clock into the registry,
/// and check the report against the serial baseline.
fn time_run(
    mode: &'static str,
    threads: usize,
    corpus_len: usize,
    run: impl Fn() -> SurveyReport,
    baseline: Option<&SurveyReport>,
) -> (SurveyReport, Sample) {
    let metric = if mode == "serial" { "serial".to_owned() } else { format!("threads={threads}") };
    let watch = Stopwatch::start();
    let report = run();
    let nanos = watch.elapsed_nanos();
    telemetry::global().gauge("bench.wall_ns", &metric).set(nanos);
    if let Some(serial) = baseline {
        assert_eq!(
            serial, &report,
            "{mode} threads={threads}: parallel report diverged from the serial baseline"
        );
    }
    let secs = nanos as f64 / 1e9;
    println!(
        "{:<12} threads={:<2} {:>8.3}s  {:>12.0} certs/sec",
        mode,
        threads,
        secs,
        corpus_len as f64 / secs
    );
    (report, Sample { mode, metric, threads })
}

fn main() {
    let _telemetry = unicert_bench::telemetry_args();
    let config = corpus_args(100_000);
    let baseline_path = flag_arg("--baseline");
    let min_speedup: Option<f64> = flag_arg("--min-speedup").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad --min-speedup {v:?} (expected a ratio, e.g. 0.9)");
            std::process::exit(2);
        })
    });
    if min_speedup.is_some() && baseline_path.is_none() {
        eprintln!("--min-speedup requires --baseline");
        std::process::exit(2);
    }
    let min_view_speedup: Option<f64> = flag_arg("--min-view-speedup").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad --min-view-speedup {v:?} (expected a ratio, e.g. 1.2)");
            std::process::exit(2);
        })
    });
    let history_path = flag_arg("--history");
    let baseline = baseline_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Baseline::parse(&text)
    });
    if let (Some(b), Some(path)) = (&baseline, &baseline_path) {
        if b.corpus_size.is_some_and(|n| n != config.size)
            || b.seed.is_some_and(|s| s != config.seed)
        {
            eprintln!(
                "warning: baseline {path} was taken at size={:?} seed={:?}; \
                 current run uses size={} seed={} — speedups compare different corpora",
                b.corpus_size, b.seed, config.size, config.seed
            );
        }
    }
    eprintln!(
        "generating corpus: size={} seed={} ...",
        config.size, config.seed
    );
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(config.clone()).collect();

    let shard_size = RunOptions::default().effective_shard_size();
    let machine = RunOptions::default().effective_threads();

    let serial_opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let (serial, serial_sample) = time_run(
        "serial",
        1,
        corpus.len(),
        || survey::run(corpus.iter().cloned(), serial_opts),
        None,
    );

    let mut thread_counts = vec![1, 2, 4];
    if !thread_counts.contains(&machine) {
        thread_counts.push(machine);
    }

    // Parse-only phase: raw decode throughput over the same DER, owned
    // tree vs zero-copy view — isolates how much of the survey's budget
    // the decoder itself consumes, and how much the borrowed path saves.
    // Both passes must accept every generated certificate; the count check
    // also keeps the optimizer from eliding the parses.
    type ParsePass = fn(&[u8], &ParseBudget) -> bool;
    let budget = ParseBudget::default();
    let mut parse_samples = Vec::new();
    let passes: [(&'static str, ParsePass); 2] = [
        ("parse_only_owned", |der, b| Certificate::parse_der_budgeted(der, b).is_ok()),
        ("parse_only_view", |der, b| {
            let state = b.start();
            CertView::parse_der_budgeted(der, &state).is_ok()
        }),
    ];
    for (label, parse_ok) in passes {
        let watch = Stopwatch::start();
        let mut ok = 0usize;
        for entry in &corpus {
            if parse_ok(&entry.cert.raw, &budget) {
                ok += 1;
            }
        }
        let nanos = watch.elapsed_nanos();
        assert_eq!(ok, corpus.len(), "{label}: a generated certificate failed to parse");
        telemetry::global().gauge("bench.wall_ns", label).set(nanos);
        let secs = nanos as f64 / 1e9;
        println!(
            "{:<12} threads={:<2} {:>8.3}s  {:>12.0} certs/sec",
            label,
            1,
            secs,
            corpus.len() as f64 / secs
        );
        parse_samples.push(Sample { mode: label, metric: label.to_owned(), threads: 1 });
    }

    let mut samples = vec![serial_sample];
    for threads in thread_counts {
        let opts = SurveyOptions {
            lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
            ..SurveyOptions::default()
        };
        let (_, sample) = time_run(
            "parallel",
            threads,
            corpus.len(),
            || survey::survey(opts.registry(), &corpus, opts, 0),
            Some(&serial),
        );
        samples.push(sample);
    }
    samples.extend(parse_samples);

    // Full-survey A/B over the same DER in the same process, both at one
    // thread: the owned decode+lint kernel (eager `Certificate` tree,
    // `LintContext::new`, content-inferred meta) against the zero-copy
    // view path (bare bytes through `survey::survey`). The two reports
    // must be byte-identical — the equivalence suite's invariant exercised
    // at survey scale — and the wall-clock ratio is a machine-speed-free
    // measure of the borrowed path's win: both sides see the same CPU, so
    // runner noise cancels out of the ratio even when it swings absolute
    // throughput 2x.
    // Three alternated rounds; the reported ratio is the median round's,
    // so a CPU-speed shift during any single window cannot flip the gate.
    let ders: Vec<Vec<u8>> = corpus.iter().map(|e| e.cert.raw.clone()).collect();
    let mut rounds: Vec<(u64, u64)> = Vec::new();
    for round in 0..3 {
        let watch = Stopwatch::start();
        let owned_report = survey::run(
            ders.iter().map(|der| {
                let cert = Certificate::parse_der_budgeted(der, &budget)
                    .expect("generated certificate parses");
                let meta = CertMeta::inferred(&cert);
                CorpusEntry { cert, meta }
            }),
            serial_opts,
        );
        let owned_nanos = watch.elapsed_nanos().max(1);

        let watch = Stopwatch::start();
        let view_report = survey::survey(serial_opts.registry(), &ders, serial_opts, 0);
        let view_nanos = watch.elapsed_nanos().max(1);
        rounds.push((owned_nanos, view_nanos));

        if round == 0 {
            // `parse_outcomes` is the one legitimate difference: the bytes
            // path counts an "ok" per record it decoded, the pre-parsed
            // owned path has nothing to count. Every aggregate downstream
            // of parsing must match.
            let mut owned_cmp = owned_report;
            let mut view_cmp = view_report;
            owned_cmp.parse_outcomes.clear();
            view_cmp.parse_outcomes.clear();
            assert_eq!(
                owned_cmp, view_cmp,
                "owned and zero-copy survey paths diverged on the same DER"
            );
        }
    }
    rounds.sort_by(|a, b| {
        let ra = a.0 as f64 / a.1 as f64;
        let rb = b.0 as f64 / b.1 as f64;
        ra.partial_cmp(&rb).expect("ratios are finite")
    });
    let (owned_nanos, view_nanos) = rounds[1];
    for (label, nanos) in [("survey_owned_bytes", owned_nanos), ("survey_view_bytes", view_nanos)] {
        telemetry::global().gauge("bench.wall_ns", label).set(nanos);
        let secs = nanos as f64 / 1e9;
        println!(
            "{:<12} threads={:<2} {:>8.3}s  {:>12.0} certs/sec",
            label,
            1,
            secs,
            corpus.len() as f64 / secs
        );
        samples.push(Sample { mode: label, metric: label.to_owned(), threads: 1 });
    }
    let view_speedup = owned_nanos as f64 / view_nanos as f64;
    println!("speedup      view vs owned (median of 3 same-run rounds)  {view_speedup:.3}x");

    // The registry snapshot is the single source of wall-clock truth: the
    // JSON below reads every number back out of `bench.wall_ns`.
    let snapshot = telemetry::global().snapshot();
    let wall_secs = |metric: &str| {
        snapshot.gauge("bench.wall_ns", metric).unwrap_or(0) as f64 / 1e9
    };
    let baseline_secs = wall_secs(&samples[0].metric);
    let fingerprint = format!("{:016x}", serial.fingerprint());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"survey_pipeline_throughput\",");
    let _ = writeln!(json, "  \"corpus_size\": {},", corpus.len());
    let _ = writeln!(json, "  \"seed\": {},", config.seed);
    let _ = writeln!(json, "  \"fingerprint\": \"{fingerprint}\",");
    let _ = writeln!(json, "  \"shard_size\": {shard_size},");
    let _ = writeln!(json, "  \"machine_threads\": {machine},");
    let _ = writeln!(json, "  \"view_speedup_same_run\": {view_speedup:.3},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let secs = wall_secs(&s.metric);
        let rate = if secs > 0.0 { corpus.len() as f64 / secs } else { 0.0 };
        let speedup = if secs > 0.0 { baseline_secs / secs } else { 0.0 };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"metric\": \"bench.wall_ns{{{}}}\", \"secs\": {:.6}, \"certs_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}}}{comma}",
            s.mode, s.threads, s.metric, secs, rate, speedup
        );
    }
    // Configurations measured in both runs whose throughput ratio fell
    // below the `--min-speedup` floor.
    let mut regressions: Vec<(String, f64)> = Vec::new();
    let fingerprint_mismatch = if let Some(b) = &baseline {
        let _ = writeln!(json, "  ],");
        let mismatch = b.fingerprint.as_ref().is_some_and(|f| *f != fingerprint);
        let _ = writeln!(json, "  \"speedup\": {{");
        let _ = writeln!(
            json,
            "    \"baseline\": \"{}\",",
            baseline_path.as_deref().unwrap_or("")
        );
        match &b.fingerprint {
            Some(f) => {
                let _ = writeln!(json, "    \"baseline_fingerprint\": \"{f}\",");
                let _ = writeln!(json, "    \"fingerprint_match\": {},", !mismatch);
            }
            None => {
                let _ = writeln!(json, "    \"fingerprint_match\": null,");
            }
        }
        let _ = writeln!(json, "    \"runs\": [");
        for (i, s) in samples.iter().enumerate() {
            let comma = if i + 1 < samples.len() { "," } else { "" };
            let secs = wall_secs(&s.metric);
            let rate = if secs > 0.0 { corpus.len() as f64 / secs } else { 0.0 };
            let base_rate = b.rate(s.mode, s.threads);
            let ratio = base_rate.filter(|&r| r > 0.0).map(|r| rate / r);
            let _ = writeln!(
                json,
                "      {{\"mode\": \"{}\", \"threads\": {}, \"baseline_certs_per_sec\": {}, \
                 \"certs_per_sec\": {rate:.1}, \"speedup\": {}}}{comma}",
                s.mode,
                s.threads,
                base_rate.map_or("null".to_owned(), |r| format!("{r:.1}")),
                ratio.map_or("null".to_owned(), |r| format!("{r:.3}")),
            );
            if let Some(ratio) = ratio {
                println!(
                    "speedup      {:<8} threads={:<2} {:>6.3}x vs baseline",
                    s.mode, s.threads, ratio
                );
                if min_speedup.is_some_and(|floor| ratio < floor) {
                    regressions.push((format!("{} threads={}", s.mode, s.threads), ratio));
                }
            }
        }
        let _ = writeln!(json, "    ]");
        let _ = writeln!(json, "  }}");
        mismatch
    } else {
        let _ = writeln!(json, "  ]");
        false
    };
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
    if let Some(path) = &history_path {
        let rates: Vec<(String, f64)> = samples
            .iter()
            .map(|s| {
                let secs = wall_secs(&s.metric);
                let rate = if secs > 0.0 { corpus.len() as f64 / secs } else { 0.0 };
                (s.metric.clone(), rate)
            })
            .collect();
        append_history(path, &fingerprint, corpus.len(), config.seed, &rates);
    }
    if fingerprint_mismatch {
        eprintln!(
            "FATAL: survey report fingerprint {fingerprint} diverged from the baseline's — \
             the pipeline's output changed, not just its speed"
        );
        std::process::exit(1);
    }
    if !regressions.is_empty() {
        for (config_name, ratio) in &regressions {
            eprintln!(
                "FATAL: {config_name} ran at {ratio:.3}x the baseline throughput \
                 (floor: {:.3}x)",
                min_speedup.unwrap_or(0.0)
            );
        }
        std::process::exit(1);
    }
    if let Some(floor) = min_view_speedup {
        if view_speedup < floor {
            eprintln!(
                "FATAL: the zero-copy survey ran at {view_speedup:.3}x the owned path \
                 in the same run (floor: {floor:.3}x)"
            );
            std::process::exit(1);
        }
    }
}
