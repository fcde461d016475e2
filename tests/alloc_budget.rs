//! Allocation gate for the survey kernel (DESIGN.md §10, "Allocation
//! budget").
//!
//! The records survey (DER → `CertView` → `LintContext` → classify → the
//! `webpki` lints → field matrix → aggregation) is the per-certificate
//! cost every workload pays, so its heap allocations per certificate are
//! a deterministic counter that can be gated exactly, where wall time on a
//! shared host cannot. This binary surveys the 20k/seed-42 corpus serially
//! through `run_parallel_records_from` after one warm-up pass, counts
//! every `alloc`, `alloc_zeroed` and `realloc` the surveying thread makes,
//! and fails above [`MAX_ALLOCS_PER_CERT`].
//!
//! The counting [`GlobalAlloc`] below is the workspace's single audited
//! `unsafe`: every library crate root keeps `#![forbid(unsafe_code)]`,
//! and this test binary is its own crate. The two `unsafe` items only
//! forward to [`System`] with the caller's own arguments, so they carry
//! exactly the caller's obligations. The counter is a thread-local
//! `Cell` with a `const` initializer and no destructor, so counting never
//! allocates and other test threads never disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unicert::corpus::{CorpusConfig, CorpusGenerator, RawEntry};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};

/// The gate: heap allocations per surveyed certificate.
const MAX_ALLOCS_PER_CERT: f64 = 24.0;

/// The report fingerprint of the 20k/seed-42 survey.
const FINGERPRINT: &str = "b2b8abe091d4b8ec";

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

/// [`System`], counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn serial_records_survey_stays_within_the_allocation_budget() {
    let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
        size: 20_000,
        seed: 42,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .collect();
    let records: Vec<RawEntry<'_>> =
        entries.iter().map(|e| RawEntry { der: &e.cert.raw, meta: e.meta.clone() }).collect();
    let registry = unicert::lint::profiles::registry("webpki").expect("webpki is registered");
    let opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), profile: Some("webpki"), ..RunOptions::default() },
        field_matrix: true,
    };

    // Warm-up: lazily built statics (registry tables, interned labels)
    // allocate once per process, not per certificate.
    drop(survey::run_parallel_records_from(registry, &records, opts, 0));

    let before = allocs_so_far();
    let report = survey::run_parallel_records_from(registry, &records, opts, 0);
    let allocs = allocs_so_far() - before;
    let per_cert = allocs as f64 / records.len() as f64;
    let certs = records.len();
    println!("survey kernel: {allocs} heap allocations / {certs} certificates = {per_cert:.2}");

    assert_eq!(format!("{:016x}", report.fingerprint()), FINGERPRINT, "report changed");
    assert!(
        per_cert <= MAX_ALLOCS_PER_CERT,
        "{per_cert:.2} heap allocations per certificate, budget {MAX_ALLOCS_PER_CERT}"
    );
}
