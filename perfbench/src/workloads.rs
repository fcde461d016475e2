//! The three workloads: seeded inputs, a timed closed loop with output
//! checks, and the traced per-layer ledger.
//!
//! Every workload is one client in a closed loop: it hands the system a
//! batch, waits for the updated report, and only then sends the next.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{
    self, CertMeta, CorpusEntry, RawEntry, Report, Store, CHUNK_SIZE, STORE_SHARD_SIZE, THREADS,
};
use crate::ledger::{self, Tracer};
use crate::stats::{self, metric, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SurveyMem,
    StoreIngest,
    HostileMix,
}

impl Workload {
    pub const NAMES: [&'static str; 3] = ["survey_mem", "store_ingest", "hostile_mix"];

    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "survey_mem" => Some(Workload::SurveyMem),
            "store_ingest" => Some(Workload::StoreIngest),
            "hostile_mix" => Some(Workload::HostileMix),
            _ => None,
        }
    }
}

/// Certificates in the in-memory corpora.
const CORPUS: usize = 16384;
/// Inputs handed to the survey per operation (8 survey chunks, 4 per
/// worker).
const BATCH: usize = 2048;
/// Shards frozen into the store before the timed phase.
const STORE_INITIAL_SHARDS: usize = 4;
/// Appends per store round; the store is rewound after each round.
const UPDATES_PER_ROUND: usize = 4;
/// One input in this many is rewritten by the chaos mutator.
const MUTATE_ONE_IN: u64 = 4;
/// Set-up runs per benchmark run, spread over the timed phase; `setup_s`
/// is their median.
const SETUP_REPEATS: usize = 9;
/// Consecutive operations per latency window: `update_latency_p90_ms` is
/// the median over windows of each window's p90, so a burst of
/// contention from outside the benchmark moves it only if it covers half
/// the run. 100 samples leave 10 above each window's p90.
const WINDOW: usize = 100;

/// What one run prints.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let work = Dir::new(&format!(
        "{}-{}",
        Workload::NAMES[workload as usize],
        std::process::id()
    ));
    match workload {
        Workload::SurveyMem => survey_mem(seed, seconds, trace, &work),
        Workload::StoreIngest => store_ingest(seed, seconds, trace, &work),
        Workload::HostileMix => hostile_mix(seed, seconds, trace, &work),
    }
}

// --- Inputs ------------------------------------------------------------------

/// SplitMix64: a sub-seed or random draw derived from `state`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix(&mut state)
}

/// A generated corpus: DER and metadata per certificate, plus the owned
/// entries the store needs.
struct Corpus {
    entries: Vec<CorpusEntry>,
    ders: Vec<Vec<u8>>,
    metas: Vec<CertMeta>,
}

impl Corpus {
    fn generate(size: usize, seed: u64) -> Corpus {
        let entries = adapter::generate(size, seed);
        let ders = entries.iter().map(|e| adapter::der(e).to_vec()).collect();
        let metas = entries.iter().map(|e| e.meta.clone()).collect();
        Corpus {
            entries,
            ders,
            metas,
        }
    }
}

/// A scratch directory inside the build directory, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(name: &str) -> Dir {
        let base = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|p| p.join("perfbench-work")))
            .unwrap_or_else(|| PathBuf::from("perfbench-work"));
        let dir = base.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
        Dir(dir)
    }

    fn sub(&self, name: &str) -> Dir {
        let dir = self.0.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create a scratch subdirectory");
        Dir(dir)
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Seconds `f` takes, and what it returns.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// The clock of the timed phase. It counts operation time only: the
/// set-up repeats after the first run between operations, at even
/// intervals of operation time, so `setup_s` samples the host over the
/// whole run rather than only its first seconds (single-thread speed on
/// a shared host shifts by a quarter from one second to the next).
struct Phase {
    started: Instant,
    paused_s: f64,
    seconds: f64,
    setups_s: Vec<f64>,
}

impl Phase {
    /// Start the timed phase after the first set-up, which took `setup_s`.
    fn start(setup_s: f64, seconds: f64) -> Phase {
        Phase {
            started: Instant::now(),
            paused_s: 0.0,
            seconds,
            setups_s: vec![setup_s],
        }
    }

    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64() - self.paused_s
    }

    fn done(&self) -> bool {
        self.elapsed() >= self.seconds
    }

    /// Between operations: run the next set-up repeat (and drop what it
    /// built) if its share of the phase has passed.
    fn between<T>(&mut self, build: impl FnOnce(usize) -> T) {
        let rep = self.setups_s.len();
        if rep < SETUP_REPEATS && self.elapsed() >= self.seconds * rep as f64 / SETUP_REPEATS as f64
        {
            self.repeat(build);
        }
    }

    fn repeat<T>(&mut self, build: impl FnOnce(usize) -> T) {
        let started = Instant::now();
        let (setup_s, built) = timed(|| build(self.setups_s.len()));
        drop(built);
        self.setups_s.push(setup_s);
        self.paused_s += started.elapsed().as_secs_f64();
    }

    /// Run the repeats the phase did not reach, and return the median
    /// set-up time with a note of every repeat.
    fn setup_s<T>(mut self, mut build: impl FnMut(usize) -> T) -> (f64, String) {
        while self.setups_s.len() < SETUP_REPEATS {
            self.repeat(&mut build);
        }
        let each: Vec<String> = self.setups_s.iter().map(|t| format!("{t:.3}")).collect();
        let note = format!("set-up seconds per repeat: {}", each.join(" "));
        (stats::median(self.setups_s), note)
    }
}

/// A frozen, checkpointed store plus the batches the loop appends.
struct Ingest {
    store: Store,
    ckpts: PathBuf,
    scratch: PathBuf,
    manifest: Vec<u8>,
    keep: usize,
    batches: Vec<Vec<CorpusEntry>>,
    _dir: Dir,
}

impl Ingest {
    /// Freeze `initial` into a store under `dir`, checkpoint every shard,
    /// and cut `more` into shard-sized batches.
    fn build(dir: Dir, initial: &[CorpusEntry], more: &[CorpusEntry]) -> Result<Ingest, String> {
        let store = adapter::freeze(&dir.0.join("store"), initial)?;
        let ckpts = dir.0.join("ckpts");
        adapter::survey_incremental(&store, &ckpts)?;
        Ok(Ingest {
            manifest: adapter::manifest_bytes(&store)?,
            keep: adapter::shard_count(&store),
            store,
            ckpts,
            scratch: dir.0.join("scratch.ckpt"),
            batches: more
                .chunks(STORE_SHARD_SIZE)
                .map(<[CorpusEntry]>::to_vec)
                .collect(),
            _dir: dir,
        })
    }

    fn rewind(&mut self) -> Result<(), String> {
        self.store = adapter::rewind(&self.store, &self.ckpts, self.keep, &self.manifest)?;
        Ok(())
    }
}

// --- End-to-end accounting ---------------------------------------------------------

/// Per-operation samples of the closed loop.
#[derive(Default)]
struct E2e {
    attempted: u64,
    failed: u64,
    latency_s: Vec<f64>,
    survey_rate: Vec<f64>,
    input_rate: Vec<f64>,
    ingest_rate: Vec<f64>,
    notes: Vec<String>,
}

impl E2e {
    /// One successful operation: `inputs` handed in, `linted` certificates
    /// surveyed in `survey_s` of its `latency_s`, `ingested` folded into
    /// the report.
    fn op(&mut self, latency_s: f64, survey_s: f64, inputs: usize, linted: usize, ingested: usize) {
        self.latency_s.push(latency_s);
        self.survey_rate.push(linted as f64 / survey_s);
        self.input_rate.push(inputs as f64 / latency_s);
        self.ingest_rate.push(ingested as f64 / latency_s);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// The end-to-end metrics, given the median set-up time and its note.
    fn finish(mut self, (setup_s, setup_note): (f64, String), bytes_per_cert: f64) -> RunResult {
        self.notes.push(setup_note);
        let n = self.latency_s.len();
        let windows: Vec<f64> = self
            .latency_s
            .chunks_exact(WINDOW)
            .map(|w| stats::quantile(w.to_vec(), 0.9))
            .collect();
        self.notes.push(format!(
            "operations: {} attempted, {} failed; {n} latency samples, {} windows of {WINDOW} for p90",
            self.attempted,
            self.failed,
            windows.len()
        ));
        let p90 = if windows.is_empty() {
            stats::quantile(self.latency_s.clone(), 0.9)
        } else {
            stats::median(windows)
        };
        let metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric(
                "survey_certs_per_s",
                stats::median(self.survey_rate.clone()),
                "1/s",
            ),
            metric(
                "hostile_inputs_per_s",
                stats::median(self.input_rate.clone()),
                "1/s",
            ),
            metric(
                "ingest_certs_per_s",
                stats::median(self.ingest_rate.clone()),
                "1/s",
            ),
            metric(
                "update_latency_p50_ms",
                stats::median(self.latency_s.clone()) * 1e3,
                "ms",
            ),
            metric("update_latency_p90_ms", p90 * 1e3, "ms"),
            metric("store_bytes_per_cert", bytes_per_cert, "bytes"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ];
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes: self.notes,
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn mean_der_bytes(ders: &[Vec<u8>]) -> f64 {
    ders.iter().map(Vec::len).sum::<usize>() as f64 / ders.len().max(1) as f64
}

// --- survey_mem ----------------------------------------------------------------

fn survey_mem(seed: u64, seconds: f64, trace: bool, work: &Dir) -> RunResult {
    let setup = |_: usize| Corpus::generate(CORPUS, seed);
    let (setup_s, corpus) = timed(|| setup(0));
    let records = adapter::records(&corpus.ders, &corpus.metas);
    if trace {
        let batch = &records[..BATCH];
        let ders: Vec<&[u8]> = batch.iter().map(|r| r.der).collect();
        let decode = DecodeLedger {
            ders: &ders,
            hostile: false,
            serial: &|| adapter::survey_records(batch, 0, 1),
            pooled: &|| adapter::survey_records(batch, 0, THREADS),
            shard_reports: &|| {
                batch
                    .chunks(CHUNK_SIZE)
                    .map(|c| adapter::survey_records(c, 0, 1))
                    .collect()
            },
        };
        let probe = store_probe(&corpus.entries, work);
        return traced(decode, probe, seconds, false);
    }
    let bytes_per_cert = mean_der_bytes(&corpus.ders);
    let reference = adapter::survey_records(&records, 0, 1);
    let fingerprint = adapter::fingerprint(&reference);

    let batches: Vec<&[RawEntry<'_>]> = records.chunks(BATCH).collect();
    let mut e = E2e::default();
    let mut running = Report::default();
    let mut phase = Phase::start(setup_s, seconds);
    for op in 0.. {
        let b = op % batches.len();
        let batch = batches[b];
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let report = adapter::survey_records(batch, (b * BATCH) as u64, THREADS);
            let linted = adapter::linted(&report);
            adapter::merge(&mut running, report);
            linted
        }));
        let latency = t0.elapsed().as_secs_f64();
        e.attempted += 1;
        match result {
            Ok(linted) => e.op(latency, latency, batch.len(), linted, batch.len()),
            Err(p) => e.fail(format!("survey panicked: {}", panic_text(p))),
        }
        if b + 1 == batches.len() {
            // A full pass over the corpus, merged batch by batch at two
            // threads, must equal the one-shot serial survey.
            if running != reference {
                e.fail("merged 2-thread report differs from the serial survey".to_string());
            }
            running = Report::default();
            if phase.done() {
                break;
            }
        }
        phase.between(setup);
    }
    e.notes.push(format!(
        "serial reference report fingerprint {fingerprint:016x}"
    ));
    e.finish(phase.setup_s(setup), bytes_per_cert)
}

// --- hostile_mix ---------------------------------------------------------------

/// The clean corpus with one input in every block of [`MUTATE_ONE_IN`]
/// rewritten by the chaos mutator, at a seeded position in the block,
/// cycling through every mutation class. Every batch gets the same share
/// and class mix.
fn hostile_inputs(corpus: &Corpus, seed: u64) -> Vec<Vec<u8>> {
    let mut chaos = adapter::Chaos::new(sub_seed(seed, 1));
    let mut pick = sub_seed(seed, 2);
    let mut victim = 0;
    let mut class = 0;
    corpus
        .ders
        .iter()
        .enumerate()
        .map(|(i, der)| {
            let offset = (i as u64) % MUTATE_ONE_IN;
            if offset == 0 {
                victim = splitmix(&mut pick) % MUTATE_ONE_IN;
            }
            if offset == victim {
                class += 1;
                chaos.mutate(der, class - 1)
            } else {
                der.clone()
            }
        })
        .collect()
}

fn hostile_mix(seed: u64, seconds: f64, trace: bool, work: &Dir) -> RunResult {
    let setup = |_: usize| {
        let corpus = Corpus::generate(CORPUS, seed);
        let inputs = hostile_inputs(&corpus, seed);
        (corpus, inputs)
    };
    let (setup_s, (corpus, inputs)) = timed(|| setup(0));
    if trace {
        let batch = &inputs[..BATCH];
        let ders: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let decode = DecodeLedger {
            ders: &ders,
            hostile: true,
            serial: &|| adapter::survey_bytes(batch, 1),
            pooled: &|| adapter::survey_bytes(batch, THREADS),
            shard_reports: &|| {
                batch
                    .chunks(CHUNK_SIZE)
                    .map(|c| adapter::survey_bytes(c, 1))
                    .collect()
            },
        };
        let probe = store_probe(&corpus.entries, work);
        return traced(decode, probe, seconds, false);
    }
    drop(corpus);
    let bytes_per_cert = mean_der_bytes(&inputs);
    let batches: Vec<&[Vec<u8>]> = inputs.chunks(BATCH).collect();
    let references: Vec<Report> = batches
        .iter()
        .map(|b| adapter::survey_bytes(b, 1))
        .collect();

    let mut e = E2e::default();
    let mut running = Report::default();
    let mut phase = Phase::start(setup_s, seconds);
    for op in 0.. {
        let b = op % batches.len();
        let batch = batches[b];
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| adapter::survey_bytes(batch, THREADS)));
        let survey_s = t0.elapsed().as_secs_f64();
        e.attempted += 1;
        match result {
            Ok(report) => {
                // The 2-thread report, parse outcomes and quarantine
                // included, must equal the serial run_bytes report.
                let same = report == references[b];
                let linted = adapter::linted(&report);
                let t1 = Instant::now();
                adapter::merge(&mut running, report);
                let latency = survey_s + t1.elapsed().as_secs_f64();
                if same {
                    e.op(latency, latency, batch.len(), linted, batch.len());
                } else {
                    e.fail(format!(
                        "batch {b}: 2-thread report differs from serial run_bytes"
                    ));
                }
            }
            Err(p) => e.fail(format!(
                "panic escaped the hostile survey: {}",
                panic_text(p)
            )),
        }
        if b + 1 == batches.len() && phase.done() {
            break;
        }
        phase.between(setup);
    }
    e.finish(phase.setup_s(setup), bytes_per_cert)
}

// --- store_ingest ----------------------------------------------------------------

fn store_ingest(seed: u64, seconds: f64, trace: bool, work: &Dir) -> RunResult {
    let initial = STORE_INITIAL_SHARDS * STORE_SHARD_SIZE;
    let setup = |rep: usize| {
        let corpus = Corpus::generate(initial + UPDATES_PER_ROUND * STORE_SHARD_SIZE, seed);
        let (head, tail) = corpus.entries.split_at(initial);
        let ingest = Ingest::build(work.sub(&format!("setup-{rep}")), head, tail);
        (corpus, ingest)
    };
    let (setup_s, (corpus, ingest)) = timed(|| setup(0));
    let mut ingest = match ingest {
        Ok(ingest) => ingest,
        Err(why) => {
            let mut e = E2e {
                attempted: 1,
                ..E2e::default()
            };
            e.fail(format!("set-up: {why}"));
            return e.finish((setup_s, format!("set-up seconds: {setup_s:.3}")), 0.0);
        }
    };
    let records = adapter::records(&corpus.ders, &corpus.metas);
    if trace {
        // The first shard the timed phase appends, surveyed the way the
        // incremental survey surveys a new shard.
        let batch = &records[initial..initial + STORE_SHARD_SIZE];
        let ders: Vec<&[u8]> = batch.iter().map(|r| r.der).collect();
        let decode = DecodeLedger {
            ders: &ders,
            hostile: false,
            serial: &|| adapter::survey_records(batch, 0, 1),
            pooled: &|| adapter::survey_records(batch, 0, THREADS),
            shard_reports: &|| {
                batch
                    .chunks(CHUNK_SIZE)
                    .map(|c| adapter::survey_records(c, 0, 1))
                    .collect()
            },
        };
        return traced(decode, Ok(ingest), seconds, true);
    }
    let total_certs = records.len();
    let reference = adapter::survey_records(&records, 0, THREADS);
    drop(records);

    let batches = std::mem::take(&mut ingest.batches);
    let mut e = E2e::default();
    let mut bytes_per_cert;
    let mut phase = Phase::start(setup_s, seconds);
    'rounds: loop {
        let mut last = None;
        for (k, batch) in batches.iter().enumerate() {
            e.attempted += 1;
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
                adapter::append(&mut ingest.store, batch)?;
                let t1 = Instant::now();
                let update = adapter::survey_incremental(&ingest.store, &ingest.ckpts)?;
                Ok((update, t1.elapsed().as_secs_f64()))
            }));
            let latency = t0.elapsed().as_secs_f64();
            match result {
                Ok(Ok((update, survey_s))) => {
                    if update.resumed != ingest.keep + k || update.surveyed != 1 {
                        e.fail(format!(
                            "update {k}: {} shards resumed and {} surveyed, expected {} and 1",
                            update.resumed,
                            update.surveyed,
                            ingest.keep + k
                        ));
                    } else {
                        let n = batch.len();
                        e.op(latency, survey_s, n, n, n);
                    }
                    last = Some(update.report);
                }
                Ok(Err(why)) => e.fail(format!("update {k}: {why}")),
                Err(p) => e.fail(format!("update {k} panicked: {}", panic_text(p))),
            }
            phase.between(setup);
        }
        // Resumed == one-shot: the report after the round's last append
        // equals one survey of every ingested record.
        if last.as_ref() != Some(&reference) {
            e.fail("merged incremental report differs from the one-shot survey".to_string());
        }
        bytes_per_cert =
            adapter::bytes_on_disk(&ingest.store, &ingest.ckpts) as f64 / total_certs as f64;
        if let Err(why) = ingest.rewind() {
            e.fail(format!("rewind: {why}"));
            break 'rounds;
        }
        if phase.done() {
            break;
        }
    }
    e.finish(phase.setup_s(setup), bytes_per_cert)
}

// --- Traced run ------------------------------------------------------------------

/// What the decode ledger measures: a batch of the workload's inputs and
/// the workload's own survey calls over it.
struct DecodeLedger<'a> {
    ders: &'a [&'a [u8]],
    /// Inputs arrive as raw bytes: rejection and metadata inference are
    /// on the survey path.
    hostile: bool,
    /// The serial survey of the batch (the ledger's end-to-end reference).
    serial: &'a dyn Fn() -> Report,
    /// The batch surveyed the way the workload calls the pool.
    pooled: &'a dyn Fn() -> Report,
    /// Per-shard reports of the batch, for timing merges.
    shard_reports: &'a dyn Fn() -> Vec<Report>,
}

/// A small store built from a clean workload's certificates, so the store
/// rows exist on every workload, as every traced run must print every
/// per-layer row (first two shards frozen, the next two appended).
fn store_probe(entries: &[CorpusEntry], work: &Dir) -> Result<Ingest, String> {
    let (head, tail) = entries.split_at(2 * STORE_SHARD_SIZE);
    Ingest::build(work.sub("probe"), head, &tail[..2 * STORE_SHARD_SIZE])
}

const ON_PATH_CLEAN: [&str; 12] = [
    "x509.view_parse",
    "lint.ctx.san",
    "lint.ctx.dn_text",
    "lint.ctx.punycode",
    "lint.ctx.nfc",
    "lint.check.invalid_character",
    "lint.check.bad_normalization",
    "lint.check.illegal_format",
    "lint.check.invalid_encoding",
    "lint.check.invalid_structure",
    "lint.check.discouraged_field",
    "core.classify",
];
const ON_PATH_HOSTILE_EXTRA: [&str; 2] = ["x509.reject", "corpus.meta_infer"];
const STORE_PARTS: [&str; 6] = [
    "store.checkpoint_decode",
    "core.merge",
    "store.segment_read",
    "core.shard_survey",
    "store.checkpoint_encode",
    "store.checkpoint_write",
];

fn secs(f: impl FnOnce() -> Report) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_secs_f64()
}

/// The traced run: decode-ledger passes for the first half of `seconds`,
/// then store rounds for the rest (at least one). `store_primary` says
/// the store is on this workload's path, so its merges are the ones
/// `core.merge_ns` reports.
fn traced(
    d: DecodeLedger<'_>,
    store: Result<Ingest, String>,
    seconds: f64,
    store_primary: bool,
) -> RunResult {
    let started = Instant::now();
    let mut t = Tracer::new();
    let mut run = RunResult {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let decode = decode_passes(&d, &mut t, || {
        started.elapsed().as_secs_f64() >= seconds / 2.0
    });
    run.attempted += decode.passes as u64;
    match store {
        Ok(mut ingest) => {
            store_rounds(&mut ingest, &mut t, &mut run, || {
                started.elapsed().as_secs_f64() >= seconds
            });
        }
        Err(why) => {
            run.failed += 1;
            run.notes.push(format!("FAILED: store set-up: {why}"));
        }
    }
    decode_metrics(&d, &decode, &t, store_primary, &mut run);
    store_metrics(&t, &mut run);
    run
}

/// What the untraced and traced decode passes measured.
struct DecodeTally {
    passes: usize,
    serial_s: Vec<f64>,
    pooled_s: Vec<f64>,
    outcomes: BTreeMap<&'static str, u64>,
}

/// Repeat until `done` (at least three times): time the workload's serial
/// and pooled surveys of the batch untraced, then trace every input
/// through its layers, the off-path probes of a clean batch, and the
/// merge of its shard reports, all under one `ledger.pass` span.
fn decode_passes(d: &DecodeLedger<'_>, t: &mut Tracer, done: impl Fn() -> bool) -> DecodeTally {
    let groups = adapter::LintGroups::new();
    let shard_reports = (d.shard_reports)();
    let mut tally = DecodeTally {
        passes: 0,
        serial_s: Vec::new(),
        pooled_s: Vec::new(),
        outcomes: BTreeMap::new(),
    };
    while tally.passes < 3 || !done() {
        tally.serial_s.push(secs(d.serial));
        tally.pooled_s.push(secs(d.pooled));
        let root = t.mark();
        let decode = t.mark();
        for der in d.ders {
            let class = adapter::trace_cert(der, d.hostile, &groups, t);
            if tally.passes == 0 {
                *tally.outcomes.entry(class).or_default() += 1;
            }
        }
        t.close(decode, "ledger.decode");
        if !d.hostile {
            let probe = t.mark();
            for der in d.ders {
                adapter::trace_off_path(der, t);
            }
            t.close(probe, "ledger.off_path");
        }
        let merges = t.mark();
        let mut merged = Report::default();
        for report in shard_reports.clone() {
            t.span("core.merge", || adapter::merge(&mut merged, report));
        }
        t.close(merges, "ledger.merges");
        t.close(root, "ledger.pass");
        tally.passes += 1;
    }
    tally
}

/// Append every batch as a traced update, rewind, and repeat until `done`.
fn store_rounds(ingest: &mut Ingest, t: &mut Tracer, run: &mut RunResult, done: impl Fn() -> bool) {
    loop {
        for k in 0..ingest.batches.len() {
            run.attempted += 1;
            if let Err(why) = traced_update(ingest, k, t) {
                run.failed += 1;
                run.notes.push(format!("FAILED: traced update {k}: {why}"));
            }
        }
        if let Err(why) = ingest.rewind() {
            run.failed += 1;
            run.notes.push(format!("FAILED: rewind: {why}"));
            return;
        }
        if done() {
            return;
        }
    }
}

/// The decode-ledger rows: per-layer self times (median over passes),
/// deterministic counts from one untraced survey-order pass, the ledger's
/// closure against the serial survey, and the tracing overhead.
fn decode_metrics(
    d: &DecodeLedger<'_>,
    tally: &DecodeTally,
    t: &Tracer,
    store_primary: bool,
    run: &mut RunResult,
) {
    let (mut certs, mut findings, mut cache) = (0u64, 0u64, [(0u64, 0u64); 4]);
    for der in d.ders {
        if let Some((f, c)) = adapter::lint_counts(der) {
            certs += 1;
            findings += f as u64;
            for (acc, (hit, miss)) in cache.iter_mut().zip(c) {
                acc.0 += hit;
                acc.1 += miss;
            }
        }
    }
    let per_cert = |n: u64| n as f64 / certs.max(1) as f64;
    let passes = t.passes("ledger.pass");
    let layer = |name: &str| ledger::median_over(&passes, |p| ledger::per_span(p, name));
    let inputs = d.ders.len() as f64;
    let serial = stats::median(tally.serial_s.clone()) * 1e9 / inputs;
    let mut on_path = ON_PATH_CLEAN.to_vec();
    if d.hostile {
        on_path.extend(ON_PATH_HOSTILE_EXTRA);
    }
    let attributed = ledger::median_over(&passes, |p| {
        on_path
            .iter()
            .map(|n| ledger::self_total(p, n))
            .sum::<f64>()
            / inputs
    });
    let traced_total = ledger::median_over(&passes, |p| {
        ledger::duration_total(p, "ledger.decode") / inputs
    });

    let m = &mut run.metrics;
    m.push(metric("x509.view_parse_ns", layer("x509.view_parse"), "ns"));
    m.push(metric("x509.reject_ns", layer("x509.reject"), "ns"));
    for class in adapter::outcome_classes() {
        let n = tally.outcomes.get(class).copied().unwrap_or(0);
        m.push(metric(format!("x509.outcome.{class}"), n as f64, "count"));
    }
    m.push(metric(
        "corpus.meta_infer_ns",
        layer("corpus.meta_infer"),
        "ns",
    ));
    for (family, (hit, miss)) in adapter::FAMILIES.iter().zip(cache) {
        let ratio = if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        };
        m.push(metric(
            format!("lint.ctx.{family}_ns"),
            layer(&format!("lint.ctx.{family}")),
            "ns",
        ));
        m.push(metric(
            format!("lint.ctx.{family}_miss"),
            per_cert(miss),
            "count",
        ));
        m.push(metric(
            format!("lint.ctx.{family}_hit_ratio"),
            ratio,
            "ratio",
        ));
    }
    for (_, label) in adapter::TAXONOMY {
        let ns = layer(&format!("lint.check.{label}"));
        m.push(metric(format!("lint.check.{label}_ns"), ns, "ns"));
    }
    let merge_ns = if store_primary {
        ledger::median_over(&t.passes("store.parts"), |p| {
            ledger::per_span(p, "core.merge")
        })
    } else {
        layer("core.merge")
    };
    let pool = stats::median(tally.serial_s.clone())
        / (THREADS as f64 * stats::median(tally.pooled_s.clone()));
    m.extend([
        metric("lint.findings_per_cert", per_cert(findings), "count"),
        metric("core.classify_ns", layer("core.classify"), "ns"),
        metric("core.survey.serial_ns", serial, "ns"),
        metric("core.survey.unattributed_ns", serial - attributed, "ns"),
        metric("core.merge_ns", merge_ns, "ns"),
        metric("core.pool.efficiency", pool, "ratio"),
        metric("ledger.attributed_share", attributed / serial, "ratio"),
        metric("trace.overhead_ns", traced_total - serial, "ns"),
    ]);

    run.notes.push(format!(
        "decode ledger: {} traced passes over {inputs} inputs; serial survey {serial:.0} ns/input",
        tally.passes
    ));
    for name in &on_path {
        let ns = ledger::median_over(&passes, |p| ledger::self_total(p, name) / inputs);
        run.notes.push(format!(
            "  {name:<32} {ns:>8.0} ns/input {:>6.1}%",
            100.0 * ns / serial
        ));
    }
    let share = attributed / serial;
    run.notes.push(format!(
        "  unattributed {:>28.0} ns/input {:>6.1}% ({})",
        serial - attributed,
        100.0 * (1.0 - share),
        if (0.9..=1.1).contains(&share) {
            "ledger closes within 10%"
        } else {
            "ledger open"
        }
    ));
    let cost = t.cost();
    run.notes.push(format!(
        "  tracing overhead {:.0} ns/input; self times exclude the calibrated span cost \
         ({:.0} ns inside a span, {:.0} ns around it)",
        traced_total - serial,
        cost.inner_ns,
        cost.outer_ns
    ));
}

/// The store-ledger rows: each traced update's append and incremental
/// survey, and the public calls the survey is made of (median over
/// updates); `store.resume.unattributed_ns` is the survey's time those
/// calls do not cover.
fn store_metrics(t: &Tracer, run: &mut RunResult) {
    let updates = t.passes("store.update");
    let parts = t.passes("store.parts");
    let update = |name: &str| ledger::median_over(&updates, |u| ledger::per_span(u, name));
    let part = |name: &str| ledger::median_over(&parts, |p| ledger::per_span(p, name));
    let unattributed = stats::median(
        updates
            .iter()
            .zip(&parts)
            .map(|(u, p)| {
                let covered: f64 = STORE_PARTS.iter().map(|n| ledger::self_total(p, n)).sum();
                ledger::self_total(u, "store.survey_incremental") - covered
            })
            .collect(),
    );
    // The parts come from a replay of the incremental survey's public
    // calls; they describe the timed call only while the replay takes
    // about as long.
    let replay = stats::median(
        updates
            .iter()
            .zip(&parts)
            .map(|(u, p)| {
                ledger::duration_total(p, "store.parts")
                    / ledger::duration_total(u, "store.survey_incremental")
            })
            .collect(),
    );
    let written = t.count_mean("store.bytes_written") / STORE_SHARD_SIZE as f64;
    run.notes.push(format!(
        "store ledger: {} traced updates (ns per call); the replay of its parts takes {:.2}x \
         the incremental survey ({})",
        updates.len(),
        replay,
        if (0.9..=1.1).contains(&replay) {
            "replay closes within 10%"
        } else {
            "replay open: the parts do not describe the timed call"
        }
    ));
    for name in ["store.append", "store.survey_incremental"] {
        run.notes
            .push(format!("  {name:<32} {:>10.0}", update(name)));
    }
    for name in STORE_PARTS {
        run.notes
            .push(format!("    {name:<30} {:>10.0}", part(name)));
    }
    run.notes
        .push(format!("    {:<30} {unattributed:>10.0}", "unattributed"));
    let m = &mut run.metrics;
    m.extend([
        metric("store.append_ns", update("store.append"), "ns"),
        metric(
            "store.survey_incremental_ns",
            update("store.survey_incremental"),
            "ns",
        ),
        metric("store.segment_read_ns", part("store.segment_read"), "ns"),
        metric("store.shard_survey_ns", part("core.shard_survey"), "ns"),
        metric(
            "store.checkpoint_encode_ns",
            part("store.checkpoint_encode"),
            "ns",
        ),
        metric(
            "store.checkpoint_decode_ns",
            part("store.checkpoint_decode"),
            "ns",
        ),
        metric(
            "store.checkpoint_write_ns",
            part("store.checkpoint_write"),
            "ns",
        ),
        metric(
            "store.checkpoint_bytes",
            t.count_mean("store.checkpoint_bytes"),
            "bytes",
        ),
        metric("store.bytes_written_per_cert", written, "bytes"),
        metric(
            "store.shards_resumed_per_update",
            t.count_mean("store.shards_resumed"),
            "count",
        ),
        metric(
            "store.shards_surveyed_per_update",
            t.count_mean("store.shards_surveyed"),
            "count",
        ),
        metric("store.resume.unattributed_ns", unattributed, "ns"),
        metric("store.replay_share", replay, "ratio"),
    ]);
}

/// One traced store update: append and incremental survey under a
/// `store.update` span, then the survey's parts as separate traced calls
/// under `store.parts`.
fn traced_update(ingest: &mut Ingest, k: usize, t: &mut Tracer) -> Result<(), String> {
    let root = t.mark();
    let appended = t.span("store.append", || {
        adapter::append(&mut ingest.store, &ingest.batches[k])
    });
    let update = appended.and_then(|()| {
        t.span("store.survey_incremental", || {
            adapter::survey_incremental(&ingest.store, &ingest.ckpts)
        })
    });
    t.close(root, "store.update");
    let update = update?;
    t.count("store.shards_resumed", update.resumed as u64);
    t.count("store.shards_surveyed", update.surveyed as u64);
    let store = &ingest.store;
    t.count(
        "store.bytes_written",
        adapter::last_update_bytes(store, &ingest.ckpts),
    );
    let parts = t.mark();
    let result = adapter::trace_update_parts(store, &ingest.ckpts, &ingest.scratch, t);
    t.close(parts, "store.parts");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_thousand_seed_42_keeps_the_pinned_fingerprint() {
        let corpus = Corpus::generate(20_000, 42);
        let records = adapter::records(&corpus.ders, &corpus.metas);
        let report = adapter::survey_records(&records, 0, THREADS);
        assert_eq!(
            format!("{:016x}", adapter::fingerprint(&report)),
            "b2b8abe091d4b8ec"
        );
    }

    #[test]
    fn hostile_inputs_are_seeded_and_cover_every_mutation_class() {
        let corpus = Corpus::generate(200, 7);
        let a = hostile_inputs(&corpus, 7);
        assert_eq!(a, hostile_inputs(&corpus, 7));
        let mutated = a.iter().zip(&corpus.ders).filter(|(x, d)| x != d).count();
        assert!(
            mutated >= adapter::MUTATION_CLASSES,
            "{mutated} inputs mutated"
        );
        assert_ne!(a, hostile_inputs(&corpus, 8));
    }
}
