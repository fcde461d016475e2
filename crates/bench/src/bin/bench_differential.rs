//! Differential fuzzing benchmark (DESIGN.md §12).
//!
//! Seeds a `webpki` corpus plus a quarter-sized `bimi` corpus, pushes the
//! combined batch through all ten chaos [`MutationClass`]es, and runs
//! every mutant through (a) the budgeted survey parser and (b) the nine
//! TLS-library behaviour profiles via the differential harness. Emits
//! `BENCH_differential.json`: a ParsEval-style mutation-class × profile
//! divergence matrix — per-profile text/error/unsupported tallies, the
//! count of values the libraries disagreed on, and the parse-outcome
//! distribution per class. Asserts the two pipeline invariants along the
//! way:
//!
//! * **zero escaped panics** — every profile call and every parse is
//!   panic-guarded; any panic that crosses the guard fails the run;
//! * **determinism** — the combined hostile batch produces a
//!   byte-identical divergence matrix serially and at 1/2/4/8 worker
//!   threads; any divergence exits non-zero.
//!
//! ```text
//! cargo run --release -p unicert-bench --bin bench_differential -- \
//!     [--certs 2000] [--seed 42] [--metrics-out m.json]
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use unicert::asn1::ParseBudget;
use unicert::corpus::{BimiConfig, BimiGenerator, CorpusConfig, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::parsers::differential::{self, ClassMatrix};
use unicert::survey::{self, SurveyOptions};
use unicert::telemetry::{self, Stopwatch};
use unicert_chaos::{MutationClass, Mutator};

/// `--certs N` / `--seed S` (either `=`-joined or space-separated),
/// composing with the shared telemetry flags.
fn differential_args() -> (usize, u64) {
    let mut certs = 2_000usize;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (arg, None),
        };
        let mut value = || inline.clone().or_else(|| args.next());
        match flag.as_str() {
            "--certs" => {
                if let Some(v) = value().and_then(|v| v.parse().ok()) {
                    certs = v;
                }
            }
            "--seed" => {
                if let Some(v) = value().and_then(|v| v.parse().ok()) {
                    seed = v;
                }
            }
            _ => {}
        }
    }
    (certs, seed)
}

struct ClassRow {
    matrix: ClassMatrix,
    parse_outcomes: Vec<(&'static str, usize)>,
    secs: f64,
}

fn main() {
    let _telemetry = unicert_bench::telemetry_args();
    let (certs, seed) = differential_args();
    let bimi_certs = (certs / 4).max(1);
    eprintln!(
        "bench_differential: seeding corpora webpki={certs} bimi={bimi_certs} seed={seed} ..."
    );
    let mut base: Vec<Vec<u8>> = CorpusGenerator::new(CorpusConfig {
        size: certs,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .map(|e| e.cert.raw)
    .collect();
    base.extend(
        BimiGenerator::new(BimiConfig { size: bimi_certs, seed, ..BimiConfig::default() })
            .map(|e| e.cert.raw),
    );

    let budget = ParseBudget::default();
    let serial_opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let total = Stopwatch::start();
    let mut rows = Vec::new();
    let mut combined: Vec<Vec<u8>> = Vec::with_capacity(base.len() * MutationClass::ALL.len());

    for (class_idx, class) in MutationClass::ALL.into_iter().enumerate() {
        // Per-class seeding keeps every row independently reproducible
        // from (seed, class) alone.
        let mut mutator = Mutator::new(seed.wrapping_add(class_idx as u64));
        let hostile: Vec<Vec<u8>> = base.iter().map(|der| mutator.mutate(der, class)).collect();

        let watch = Stopwatch::start();
        let report = survey::survey(serial_opts.registry(), &hostile, serial_opts, 0);
        let matrix = differential::run_class(class.label(), &hostile, &budget);
        let nanos = watch.elapsed_nanos();
        telemetry::global()
            .gauge("bench.wall_ns", &format!("differential:{}", class.label()))
            .set(nanos);

        assert_eq!(
            matrix.escaped_panics, 0,
            "{}: a panic crossed the differential harness guard",
            class.label()
        );
        let secs = nanos as f64 / 1e9;
        println!(
            "{:<18} {:>7} inputs  {:>7} unparsed  {:>8} values  {:>7} divergent  {:>7.3}s",
            matrix.label, matrix.inputs, matrix.unparsed, matrix.values, matrix.divergent, secs
        );
        rows.push(ClassRow {
            matrix,
            parse_outcomes: report.parse_outcomes.iter().map(|(k, v)| (*k, *v)).collect(),
            secs,
        });
        combined.extend(hostile);
    }

    // Determinism gate: the combined hostile batch, serial vs. sharded.
    eprintln!("bench_differential: determinism check over {} inputs ...", combined.len());
    let serial = differential::run_class("combined", &combined, &budget);
    assert_eq!(serial.escaped_panics, 0, "combined batch leaked a panic");
    for threads in [1usize, 2, 4, 8] {
        let sharded = differential::run_class_sharded("combined", &combined, &budget, threads);
        assert_eq!(
            serial, sharded,
            "threads={threads}: divergence matrix differs from the serial baseline"
        );
        println!("determinism         threads={threads}: matrix byte-identical");
    }
    let total_secs = total.elapsed_nanos() as f64 / 1e9;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"differential_fuzzing\",");
    let _ = writeln!(json, "  \"certs\": {certs},");
    let _ = writeln!(json, "  \"bimi_certs\": {bimi_certs},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"panics_escaped\": 0,");
    let _ = writeln!(json, "  \"classes\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let m = &row.matrix;
        let mut profiles = String::new();
        for (j, (name, cell)) in m.cells.iter().enumerate() {
            let sep = if j + 1 < m.cells.len() { ", " } else { "" };
            let _ = write!(
                profiles,
                "\"{name}\": {{\"text\": {}, \"error\": {}, \"unsupported\": {}}}{sep}",
                cell.text, cell.error, cell.unsupported
            );
        }
        let mut outcomes = String::new();
        for (j, (outcome, n)) in row.parse_outcomes.iter().enumerate() {
            let sep = if j + 1 < row.parse_outcomes.len() { ", " } else { "" };
            let _ = write!(outcomes, "\"{outcome}\": {n}{sep}");
        }
        let _ = writeln!(
            json,
            "    {{\"class\": \"{}\", \"inputs\": {}, \"unparsed\": {}, \"values\": {}, \"divergent\": {}, \"escaped_panics\": {}, \"parse_outcomes\": {{{}}}, \"profiles\": {{{}}}, \"secs\": {:.6}}}{comma}",
            m.label, m.inputs, m.unparsed, m.values, m.divergent, m.escaped_panics, outcomes, profiles, row.secs
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"determinism\": {{\"threads\": [1, 2, 4, 8], \"identical\": true}},"
    );
    let _ = writeln!(json, "  \"total_secs\": {total_secs:.6}");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_differential.json", &json).expect("write BENCH_differential.json");
    println!("wrote BENCH_differential.json ({total_secs:.1}s total)");
    println!(
        "survived {} hostile inputs across {} classes: 0 escaped panics",
        combined.len(),
        MutationClass::ALL.len()
    );
}
