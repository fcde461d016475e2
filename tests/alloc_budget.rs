//! Allocation gates for the survey kernel and for what a generated
//! certificate holds (DESIGN.md §10, "Allocation budget").
//!
//! The records survey (DER → `CertView` → `LintContext` → classify → the
//! `webpki` lints → field matrix → aggregation) is the per-certificate
//! cost every workload pays, so its heap allocations per certificate are
//! a deterministic counter that can be gated exactly, where wall time on a
//! shared host cannot. Two cases survey the 20k/seed-42 corpus serially
//! through `survey::survey` after one warm-up pass, once as store records
//! and once as the generated entries themselves (whose survey input is
//! their `raw`), count every `alloc`, `alloc_zeroed` and `realloc` the
//! surveying thread makes, and fail above [`MAX_ALLOCS_PER_CERT`].
//!
//! A third case counts the heap allocations the generator makes per entry
//! and fails above [`MAX_GENERATION_ALLOCS_PER_ENTRY`], then counts the
//! live heap bytes the 20k generated entries hold (what a corpus held in
//! memory costs per certificate, the deterministic side of perfbench's
//! `peak_rss_mb`) and fails above [`MAX_HELD_BYTES_PER_ENTRY`].
//!
//! The counting [`GlobalAlloc`] below is the workspace's single audited
//! `unsafe`: every library crate root keeps `#![forbid(unsafe_code)]`,
//! and this test binary is its own crate. The two `unsafe` items only
//! forward to [`System`] with the caller's own arguments, so they carry
//! exactly the caller's obligations. The counters are thread-local
//! `Cell`s with `const` initializers and no destructor, so counting never
//! allocates and other test threads never disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unicert::corpus::{CorpusConfig, CorpusEntry, CorpusGenerator, RawEntry};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyInput, SurveyOptions};

/// The survey gate: heap allocations per surveyed certificate.
const MAX_ALLOCS_PER_CERT: f64 = 23.0;

/// The generation gate: heap allocations per generated entry (measured
/// 57.19).
const MAX_GENERATION_ALLOCS_PER_ENTRY: f64 = 57.2;

/// The holding gate: live heap bytes per generated entry, its DER and
/// metadata and its slot in the `Vec` (measured 504.32).
const MAX_HELD_BYTES_PER_ENTRY: f64 = 504.4;

/// The report fingerprint of the 20k/seed-42 survey.
const FINGERPRINT: &str = "b2b8abe091d4b8ec";

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that moves this thread's live bytes by `delta`.
fn count_one(delta: i64) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_add(delta)));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

/// [`System`], counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(size(layout.size()));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(size(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(size(new_size) - size(layout.size()));
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_sub(size(layout.size()))));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The 20k/seed-42 corpus as perfbench generates it: latent defects on,
/// no precertificate twins.
fn corpus() -> Vec<CorpusEntry> {
    CorpusGenerator::new(CorpusConfig {
        size: 20_000,
        seed: 42,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .collect()
}

/// Survey `inputs` serially after a warm-up pass (lazily built statics,
/// such as registry tables and interned labels, allocate once per process,
/// not per certificate); check the fingerprint and gate the allocations
/// per certificate.
fn assert_serial_survey_within_budget<T: SurveyInput + Sync>(label: &str, inputs: &[T]) {
    let registry = unicert::lint::profiles::registry("webpki").expect("webpki is registered");
    let opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), profile: Some("webpki"), ..RunOptions::default() },
        field_matrix: true,
    };
    drop(survey::survey(registry, inputs, opts, 0));

    let before = allocs_so_far();
    let report = survey::survey(registry, inputs, opts, 0);
    let allocs = allocs_so_far() - before;
    let per_cert = allocs as f64 / inputs.len() as f64;
    let certs = inputs.len();
    println!("survey kernel ({label}): {allocs} heap allocations / {certs} certificates = {per_cert:.2}");

    assert_eq!(format!("{:016x}", report.fingerprint()), FINGERPRINT, "{label}: report changed");
    assert!(
        per_cert <= MAX_ALLOCS_PER_CERT,
        "{label}: {per_cert:.2} heap allocations per certificate, budget {MAX_ALLOCS_PER_CERT}"
    );
}

#[test]
fn serial_records_survey_stays_within_the_allocation_budget() {
    let entries = corpus();
    let records: Vec<RawEntry<'_>> =
        entries.iter().map(|e| RawEntry { der: &e.cert.raw, meta: e.meta.clone() }).collect();
    assert_serial_survey_within_budget("records", &records);
}

#[test]
fn serial_corpus_entry_survey_stays_within_the_allocation_budget() {
    assert_serial_survey_within_budget("entries", &corpus());
}

/// Allocations per generated entry, and the live heap bytes the generated
/// entries hold: everything their drop frees, the `Vec` that holds them
/// included, per entry.
#[test]
fn generated_entries_hold_at_most_the_byte_budget() {
    let start = allocs_so_far();
    let entries = corpus();
    let count = entries.len();
    let generated = (allocs_so_far() - start) as f64 / count as f64;
    println!("corpus generator: {generated:.2} heap allocations per generated entry");
    assert!(
        generated <= MAX_GENERATION_ALLOCS_PER_ENTRY,
        "{generated:.2} heap allocations per generated entry, budget {MAX_GENERATION_ALLOCS_PER_ENTRY}"
    );
    let before = live_bytes();
    drop(entries);
    let held = before - live_bytes();
    let per_entry = held as f64 / count as f64;
    println!("generated corpus: {held} live heap bytes / {count} entries = {per_entry:.2}");
    assert!(
        per_entry <= MAX_HELD_BYTES_PER_ENTRY,
        "{per_entry:.2} heap bytes held per generated entry, budget {MAX_HELD_BYTES_PER_ENTRY}"
    );
}
