//! Seeded benchmark of the unicert survey, hostile-input and store paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <survey_mem|store_ingest|hostile_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a traced run prints the per-layer ledger instead. See
//! `perfbench/NOTES.md` for the workloads and every metric.

mod adapter;
mod ledger;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?} (known: {})",
                        Workload::NAMES.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Environment variables the benchmark refuses to run under: the crash
/// hook would kill the store workload, and the metrics and trace gates
/// would perturb timings. Threads, shard size and profile come from
/// explicit options, so any other `UNICERT_*` knob is refused too rather
/// than silently ignored.
fn environment_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UNICERT_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set (UNICERT_CRASH_AFTER_SHARD, UNICERT_METRICS* and \
             UNICERT_TRACE* perturb or kill runs; threads, shard size and profile are fixed \
             by the benchmark)",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match environment_guard().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    for line in &result.notes {
        println!("{line}");
    }
    println!(
        "{}",
        stats::result_json(
            result.correct(),
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
