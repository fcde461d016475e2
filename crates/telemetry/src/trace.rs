//! Span-style structured tracing: levels, events, the [`Collector`]
//! sink trait, and the scoped-timer guards behind the [`crate::span!`]
//! macro.
//!
//! A span is recorded **at close** (guard drop) as one [`Event`] carrying
//! its start offset, duration, and originating thread. There is no span
//! nesting bookkeeping — consumers reconstruct hierarchy from
//! `(thread, start, duration)` containment, which keeps the hot side to
//! one clock read at open and one at close.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::snapshot::escape_json;

/// How much the span layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing; span guards are inert and never read the clock.
    Off = 0,
    /// Pipeline-granularity spans: runs, shards, workers, merges.
    Spans = 1,
    /// Adds per-certificate / per-lint spans. High volume — a 20k-cert
    /// survey emits ~2M events; reserve for targeted profiling.
    Verbose = 2,
}

impl TraceLevel {
    /// Parse an `UNICERT_TRACE` value. Unrecognized values mean
    /// [`TraceLevel::Off`] so a typo can never silently enable tracing.
    pub fn parse(value: &str) -> TraceLevel {
        match value.trim().to_ascii_lowercase().as_str() {
            "1" | "spans" | "on" | "true" => TraceLevel::Spans,
            "2" | "verbose" | "all" => TraceLevel::Verbose,
            _ => TraceLevel::Off,
        }
    }
}

static TRACE_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Set the global trace level.
pub fn set_trace_level(level: TraceLevel) {
    TRACE_LEVEL.store(level as u8, Relaxed);
}

/// The global trace level. One relaxed load.
#[inline]
pub fn trace_level() -> TraceLevel {
    match TRACE_LEVEL.load(Relaxed) {
        1 => TraceLevel::Spans,
        2 => TraceLevel::Verbose,
        _ => TraceLevel::Off,
    }
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name (the first `span!` argument), e.g. `survey.shard`.
    pub name: &'static str,
    /// Free-form instance detail (a lint name, a shard index); empty when
    /// the span has none.
    pub detail: String,
    /// Start offset in microseconds since the process's trace epoch (the
    /// first span ever opened).
    pub start_micros: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Small dense id of the originating thread (stable within a process,
    /// assigned in first-span order).
    pub thread: u64,
}

impl Event {
    /// The event as one NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"span\": \"{}\", \"detail\": \"{}\", \"start_us\": {}, \"dur_ns\": {}, \"thread\": {}}}",
            escape_json(self.name),
            escape_json(&self.detail),
            self.start_micros,
            self.duration_nanos,
            self.thread
        )
    }
}

/// An event sink. Implementations must be cheap and panic-free: they run
/// inline on pipeline worker threads.
pub trait Collector: Send + Sync {
    /// Receive one closed span.
    fn record(&self, event: &Event);
    /// Flush buffered output, if any.
    fn flush(&self) {}
}

static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);

/// Install the global event sink, replacing any previous one.
pub fn install_collector(collector: Arc<dyn Collector>) {
    if let Ok(mut guard) = COLLECTOR.write() {
        *guard = Some(collector);
    }
}

/// Remove the global event sink.
pub fn clear_collector() {
    if let Ok(mut guard) = COLLECTOR.write() {
        *guard = None;
    }
}

/// Flush the installed sink (the bench binaries call this before exit).
pub fn flush_collector() {
    if let Ok(guard) = COLLECTOR.read() {
        if let Some(collector) = guard.as_ref() {
            collector.flush();
        }
    }
}

fn emit(event: &Event) {
    if let Ok(guard) = COLLECTOR.read() {
        if let Some(collector) = guard.as_ref() {
            collector.record(event);
        }
    }
}

/// The instant all `start_micros` offsets are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_THREAD_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_SEQ: u64 = NEXT_THREAD_SEQ.fetch_add(1, Relaxed);
}

/// This thread's dense trace id.
pub fn thread_seq() -> u64 {
    THREAD_SEQ.with(|seq| *seq)
}

struct ActiveSpan {
    name: &'static str,
    detail: String,
    start: Instant,
}

/// A scoped timer: created by [`crate::span!`], emits one [`Event`] to the
/// installed [`Collector`] when dropped. Inert (no clock read, no
/// allocation beyond the formatted detail) when the level is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A guard that records nothing. The [`crate::span!`] macro returns
    /// this from its inlined fast path when the level is disabled, so hot
    /// loops pay one relaxed load and a branch — no call, no
    /// `format_args` evaluation.
    #[inline]
    pub fn inert() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// Open a span at `level`. Prefer the [`crate::span!`] macro.
    pub fn enter(level: TraceLevel, name: &'static str, detail: std::fmt::Arguments<'_>) -> SpanGuard {
        if level == TraceLevel::Off || trace_level() < level {
            return SpanGuard { active: None };
        }
        // Force the epoch before the first span's start is taken so the
        // first offset is ~0 rather than negative-saturated.
        let _ = epoch();
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                detail: match detail.as_str() {
                    Some(s) => s.to_string(),
                    None => detail.to_string(),
                },
                start: Instant::now(),
            }),
        }
    }

    /// Is this guard actually recording?
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let duration_nanos = crate::saturate_u128(span.start.elapsed().as_nanos());
            let start_micros =
                crate::saturate_u128(span.start.saturating_duration_since(epoch()).as_micros());
            emit(&Event {
                name: span.name,
                detail: span.detail,
                start_micros,
                duration_nanos,
                thread: thread_seq(),
            });
        }
    }
}

/// Open a scoped span: `span!("name")`, `span!("name", detail)`, or
/// `span!(verbose: "name", detail)` for the high-volume level. Bind the
/// result (`let _span = span!(...)`) — the span closes when the guard
/// drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::trace::trace_level() >= $crate::trace::TraceLevel::Spans {
            $crate::trace::SpanGuard::enter(
                $crate::trace::TraceLevel::Spans,
                $name,
                format_args!(""),
            )
        } else {
            $crate::trace::SpanGuard::inert()
        }
    };
    ($name:expr, $($detail:tt)+) => {
        if $crate::trace::trace_level() >= $crate::trace::TraceLevel::Spans {
            $crate::trace::SpanGuard::enter(
                $crate::trace::TraceLevel::Spans,
                $name,
                format_args!($($detail)+),
            )
        } else {
            $crate::trace::SpanGuard::inert()
        }
    };
    (verbose: $name:expr, $($detail:tt)+) => {
        if $crate::trace::trace_level() >= $crate::trace::TraceLevel::Verbose {
            $crate::trace::SpanGuard::enter(
                $crate::trace::TraceLevel::Verbose,
                $name,
                format_args!($($detail)+),
            )
        } else {
            $crate::trace::SpanGuard::inert()
        }
    };
}

/// Collector writing one NDJSON line per event through a buffered writer.
/// I/O errors are swallowed (telemetry must never take the pipeline down);
/// the buffer is flushed on [`Collector::flush`] and on drop.
pub struct NdjsonSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl NdjsonSink {
    /// Create (truncate) the NDJSON file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<NdjsonSink> {
        let file = std::fs::File::create(path)?;
        Ok(NdjsonSink { out: Mutex::new(std::io::BufWriter::new(file)) })
    }
}

impl Collector for NdjsonSink {
    fn record(&self, event: &Event) {
        if let Ok(mut writer) = self.out.lock() {
            let _ = writeln!(writer, "{}", event.to_json_line());
        }
    }

    fn flush(&self) {
        if let Ok(mut writer) = self.out.lock() {
            let _ = writer.flush();
        }
    }
}

impl Drop for NdjsonSink {
    fn drop(&mut self) {
        Collector::flush(self);
    }
}

/// In-memory collector for tests: accumulates every event.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A fresh, shareable sink.
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// Copy of all recorded events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().map(|e| e.len()).unwrap_or(0)
    }

    /// No events recorded?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        if let Ok(mut events) = self.events.lock() {
            events.clear();
        }
    }
}

impl Collector for MemorySink {
    fn record(&self, event: &Event) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace globals are process-wide; serialize the tests that touch them.
    fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn level_parsing() {
        assert_eq!(TraceLevel::parse("0"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("off"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse(""), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("garbage"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("1"), TraceLevel::Spans);
        assert_eq!(TraceLevel::parse(" spans "), TraceLevel::Spans);
        assert_eq!(TraceLevel::parse("2"), TraceLevel::Verbose);
        assert_eq!(TraceLevel::parse("VERBOSE"), TraceLevel::Verbose);
    }

    #[test]
    fn spans_reach_the_sink_at_matching_level() {
        let _guard = trace_test_lock();
        let sink = MemorySink::new();
        install_collector(sink.clone());
        set_trace_level(TraceLevel::Spans);

        {
            let span = crate::span!("test.span", "detail-{}", 7);
            assert!(span.is_recording());
        }
        {
            // Verbose span below the current level: inert.
            let span = crate::span!(verbose: "test.verbose", "x");
            assert!(!span.is_recording());
        }

        set_trace_level(TraceLevel::Off);
        clear_collector();

        let events = sink.events();
        assert_eq!(events.len(), 1, "{events:?}");
        let event = &events[0];
        assert_eq!(event.name, "test.span");
        assert_eq!(event.detail, "detail-7");
        let line = event.to_json_line();
        assert!(line.contains("\"span\": \"test.span\""), "{line}");
        assert!(line.contains("\"detail\": \"detail-7\""), "{line}");
    }

    #[test]
    fn level_off_emits_nothing() {
        let _guard = trace_test_lock();
        let sink = MemorySink::new();
        install_collector(sink.clone());
        set_trace_level(TraceLevel::Off);
        {
            let _a = crate::span!("muted");
            let _b = crate::span!(verbose: "muted.verbose", "d");
        }
        clear_collector();
        assert!(sink.is_empty(), "{:?}", sink.events());
    }

    #[test]
    fn ndjson_sink_writes_parseable_lines() {
        let _guard = trace_test_lock();
        let path = std::env::temp_dir().join("unicert_telemetry_trace_test.ndjson");
        {
            let sink = NdjsonSink::create(&path).expect("create ndjson sink");
            sink.record(&Event {
                name: "w",
                detail: "quo\"te".to_string(),
                start_micros: 1,
                duration_nanos: 2,
                thread: 3,
            });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read ndjson");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\\\"te"), "{text}");
        assert!(text.contains("\"dur_ns\": 2"), "{text}");
    }

    #[test]
    fn thread_ids_are_dense_and_stable() {
        let a = thread_seq();
        let b = thread_seq();
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_seq).join().expect("join");
        assert_ne!(a, other);
    }
}
