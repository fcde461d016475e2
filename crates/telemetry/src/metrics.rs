//! The lock-sharded metrics registry: counters, gauges, and fixed-bucket
//! log-scale latency histograms.
//!
//! # Cost model
//!
//! The registry is split in two planes so per-certificate hot paths never
//! contend on a lock:
//!
//! * **Registration** (`counter` / `gauge` / `histogram`) interns a
//!   `(name, label)` key in one of `SHARD_COUNT` (16) shards, each behind its
//!   own `RwLock`. Callers do this once and cache the returned `Arc`
//!   handle (the lint registry resolves all 95 handles on first use, the
//!   pool one set per worker).
//! * **Recording** (`inc` / `add` / `set` / `record`) touches only relaxed
//!   atomics on the handle — a counter increment is one RMW, a histogram
//!   observation three (bucket, sum, max).
//!
//! # Histogram shape
//!
//! Buckets are log-scale with `SUB_BUCKETS` (4) linear sub-buckets per
//! power of two (HdrHistogram-style), so one fixed 252-slot array spans
//! 1 ns to `u64::MAX` ns (≈ 584 years) with ≤ 25% relative bucket width —
//! tight enough for p50/p90/p99 on lint latencies without per-metric
//! configuration or allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock, RwLock};

use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};

/// A monotonic counter. Increments saturate at `u64::MAX` instead of
/// wrapping, so an over-driven metric reads as "pegged", never as small.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`, saturating at `u64::MAX`.
    ///
    /// The hot path is a single relaxed `fetch_add`; when the addition
    /// would wrap (after ~584 years of one increment per nanosecond) the
    /// counter is pegged back to `u64::MAX`. A reader racing that fixup
    /// could transiently observe a wrapped value — the trade for keeping
    /// every increment to one RMW instead of a CAS loop.
    #[inline]
    pub fn add(&self, n: u64) {
        let previous = self.0.fetch_add(n, Relaxed);
        if previous.checked_add(n).is_none() {
            self.0.store(u64::MAX, Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add one and return the value *before* the increment (the sampling
    /// hooks use this as a cheap per-call sequence number).
    #[inline]
    pub fn inc_fetch(&self) -> u64 {
        let previous = self.0.fetch_add(1, Relaxed);
        if previous == u64::MAX {
            self.0.store(u64::MAX, Relaxed);
        }
        previous
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins gauge with a monotone-max variant.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Relaxed);
    }

    /// Raise the value to `value` if larger.
    #[inline]
    pub fn record_max(&self, value: u64) {
        self.0.fetch_max(value, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Linear sub-buckets per power of two: 2 bits → 4 sub-buckets → ≤ 25%
/// relative bucket width.
const SUB_BITS: u32 = 2;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total bucket count: values `0..4` get exact buckets, then 4 sub-buckets
/// for each of the 62 remaining octaves of `u64`.
pub const HISTOGRAM_BUCKETS: usize = (SUB_BUCKETS as usize) + 62 * (SUB_BUCKETS as usize);

/// A fixed-bucket log-scale histogram of `u64` observations (nanoseconds
/// by convention). Recording is three relaxed atomic RMWs; `count` is
/// derived from the buckets at snapshot time rather than stored.
pub struct Histogram {
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("sum", &self.sum.load(Relaxed))
            .field("max", &self.max.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        buckets.resize_with(HISTOGRAM_BUCKETS, AtomicU64::default);
        Histogram { sum: AtomicU64::new(0), max: AtomicU64::new(0), buckets }
    }

    /// The bucket index for a value. Monotone non-decreasing in `value`;
    /// exact for `value < 4`, then `(octave, 2 mantissa bits)`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) & (SUB_BUCKETS - 1)) as usize;
        ((msb - SUB_BITS) as usize + 1) * (SUB_BUCKETS as usize) + sub
    }

    /// The inclusive `(low, high)` value range of a bucket. Indexes at or
    /// beyond [`HISTOGRAM_BUCKETS`] clamp to the last bucket.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let index = index.min(HISTOGRAM_BUCKETS - 1);
        let sub_buckets = SUB_BUCKETS as usize;
        if index < sub_buckets {
            return (index as u64, index as u64);
        }
        let octave = (index / sub_buckets) as u32;
        let sub = (index % sub_buckets) as u64;
        let msb = octave - 1 + SUB_BITS;
        let shift = msb - SUB_BITS;
        let low = (1u64 << msb) | (sub << shift);
        let high = low + ((1u64 << shift) - 1);
        (low, high)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(Self::bucket_index(value)) {
            bucket.fetch_add(1, Relaxed);
        }
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self, name: &str, label: &str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            name: name.to_string(),
            label: label.to_string(),
            count,
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets,
        }
    }
}

type Key = (String, String);
type MetricMap<M> = RwLock<BTreeMap<Key, Arc<M>>>;

#[derive(Debug, Default)]
struct Shard {
    counters: MetricMap<Counter>,
    gauges: MetricMap<Gauge>,
    histograms: MetricMap<Histogram>,
}

/// Shard count for the registration maps. Registration is cold, so this
/// only needs to defuse synchronized first-touch storms from pool workers.
const SHARD_COUNT: usize = 16;

/// The lock-sharded metrics registry. See the module docs for the
/// two-plane cost model.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Shard>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// FNV-1a over the key pair — stable, dependency-free shard selection.
fn shard_hash(name: &str, label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes().iter().chain([0xFFu8].iter()).chain(label.as_bytes()) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl Registry {
    /// A fresh registry with no metrics.
    pub fn new() -> Registry {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        shards.resize_with(SHARD_COUNT, Shard::default);
        Registry { shards }
    }

    fn shard(&self, name: &str, label: &str) -> &Shard {
        let index = (shard_hash(name, label) as usize) % SHARD_COUNT;
        // `index < SHARD_COUNT == shards.len()`, so `get` always hits; the
        // fallback keeps this panic-free without an unwrap.
        self.shards.get(index).unwrap_or(&self.shards[0])
    }

    fn intern<M: Default>(map: &MetricMap<M>, name: &str, label: &str) -> Arc<M> {
        let key = (name.to_string(), label.to_string());
        if let Ok(read) = map.read() {
            if let Some(metric) = read.get(&key) {
                return Arc::clone(metric);
            }
        }
        match map.write() {
            Ok(mut write) => Arc::clone(write.entry(key).or_default()),
            // A poisoned lock means a panic elsewhere mid-registration;
            // hand back a detached metric rather than propagate it.
            Err(_) => Arc::new(M::default()),
        }
    }

    /// Resolve (registering on first use) the counter `name{label}`.
    pub fn counter(&self, name: &str, label: &str) -> Arc<Counter> {
        Self::intern(&self.shard(name, label).counters, name, label)
    }

    /// Resolve (registering on first use) the gauge `name{label}`.
    pub fn gauge(&self, name: &str, label: &str) -> Arc<Gauge> {
        Self::intern(&self.shard(name, label).gauges, name, label)
    }

    /// Resolve (registering on first use) the histogram `name{label}`.
    pub fn histogram(&self, name: &str, label: &str) -> Arc<Histogram> {
        Self::intern(&self.shard(name, label).histograms, name, label)
    }

    /// Point-in-time export of every registered metric, each kind sorted
    /// by `(name, label)`.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            if let Ok(map) = shard.counters.read() {
                for ((name, label), counter) in map.iter() {
                    counters.push(MetricValue {
                        name: name.clone(),
                        label: label.clone(),
                        value: counter.get(),
                    });
                }
            }
            if let Ok(map) = shard.gauges.read() {
                for ((name, label), gauge) in map.iter() {
                    gauges.push(MetricValue {
                        name: name.clone(),
                        label: label.clone(),
                        value: gauge.get(),
                    });
                }
            }
            if let Ok(map) = shard.histograms.read() {
                for ((name, label), histogram) in map.iter() {
                    histograms.push(histogram.snapshot(name, label));
                }
            }
        }
        let by_key = |a: &MetricValue, b: &MetricValue| {
            (a.name.as_str(), a.label.as_str()).cmp(&(b.name.as_str(), b.label.as_str()))
        };
        counters.sort_by(by_key);
        gauges.sort_by(by_key);
        histograms.sort_by(|a, b| {
            (a.name.as_str(), a.label.as_str()).cmp(&(b.name.as_str(), b.label.as_str()))
        });
        Snapshot { counters, gauges, histograms }
    }
}

/// The process-wide registry every instrumented subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "overflow must saturate, not wrap");
        let fresh = Counter::new();
        assert_eq!(fresh.inc_fetch(), 0);
        assert_eq!(fresh.inc_fetch(), 1);
        assert_eq!(fresh.get(), 2);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new();
        g.set(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
        g.record_max(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn bucket_index_is_monotone_and_exact_low() {
        // Values 0..8 land in buckets 0..8 exactly (2 mantissa bits).
        for v in 0..8u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize, "v={v}");
        }
        let mut last = 0;
        for v in [0u64, 1, 3, 4, 7, 8, 9, 15, 16, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < HISTOGRAM_BUCKETS, "index out of range at {v}");
            last = idx;
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        for index in 0..HISTOGRAM_BUCKETS {
            let (low, high) = Histogram::bucket_bounds(index);
            assert!(low <= high, "bucket {index}");
            assert_eq!(Histogram::bucket_index(low), index, "low of {index}");
            assert_eq!(Histogram::bucket_index(high), index, "high of {index}");
            if index > 0 {
                let (_, previous_high) = Histogram::bucket_bounds(index - 1);
                assert_eq!(low, previous_high + 1, "gap below bucket {index}");
            }
        }
        let (_, top) = Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1);
        assert_eq!(top, u64::MAX);
    }

    #[test]
    fn bucket_width_is_bounded() {
        // Log-scale promise: every bucket above the exact range spans less
        // than 25% of its lower bound.
        for index in SUB_BUCKETS as usize..HISTOGRAM_BUCKETS {
            let (low, high) = Histogram::bucket_bounds(index);
            let width = high - low;
            assert!(width <= low / 4, "bucket {index}: [{low}, {high}]");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let snap = h.snapshot("t", "");
        assert_eq!(snap.count, 1_000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.max, 1_000);
        // p50 of uniform 1..=1000 is 500; bucket error is ≤ 25%.
        let p50 = snap.quantile(0.5);
        assert!((500..=640).contains(&p50), "p50={p50}");
        let p99 = snap.quantile(0.99);
        assert!((990..=1_024).contains(&p99), "p99={p99}");
        // The max quantile clamps to the observed max, not the bucket top.
        assert_eq!(snap.quantile(1.0), 1_000);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        let snap = h.snapshot("t", "");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn registry_interns_one_handle_per_key() {
        let registry = Registry::new();
        let a = registry.counter("test.counter", "x");
        let b = registry.counter("test.counter", "x");
        assert!(Arc::ptr_eq(&a, &b));
        let other = registry.counter("test.counter", "y");
        assert!(!Arc::ptr_eq(&a, &other));
        a.inc();
        b.inc();
        let snap = registry.snapshot();
        let found = snap
            .counters
            .iter()
            .find(|m| m.name == "test.counter" && m.label == "x")
            .map(|m| m.value);
        assert_eq!(found, Some(2));
    }

    #[test]
    fn registry_keeps_kinds_separate() {
        let registry = Registry::new();
        registry.counter("same.name", "l").inc();
        registry.gauge("same.name", "l").set(9);
        registry.histogram("same.name", "l").record(3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let registry = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let c = registry.counter("test.concurrent", "");
                    let h = registry.histogram("test.concurrent_ns", "");
                    for v in 0..10_000u64 {
                        c.inc();
                        h.record(v);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters.first().map(|m| m.value),
            Some(40_000),
            "{snap:?}"
        );
        assert_eq!(snap.histograms.first().map(|h| h.count), Some(40_000));
    }
}
