//! In-memory span recorder and the per-layer ledger built from it.
//!
//! Every span has a name, a start, an end and the span that was open when
//! it started (its parent). Spans stay in memory until the run ends; a
//! layer's self time is its spans' durations minus the time their child
//! spans cover, minus the calibrated cost of the spans themselves.

use std::collections::BTreeMap;
use std::time::Instant;

/// The measured cost of recording one span, calibrated on empty spans
/// when the tracer is made.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    /// What an empty span records as its own duration: the part of
    /// `mark` and `close` between the two clock reads.
    pub inner_ns: f64,
    /// What an empty span adds to its parent beyond its recorded
    /// duration: the rest of `mark` and `close`.
    pub outer_ns: f64,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// An open span, returned by [`Tracer::mark`] and consumed by
/// [`Tracer::close`].
pub struct Mark(usize);

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, (u64, u64)>,
    cost: SpanCost,
}

impl Tracer {
    /// A tracer whose span cost is calibrated now.
    pub fn new() -> Tracer {
        let mut t = Tracer::with_cost(SpanCost::default());
        t.cost = t.calibrate();
        t
    }

    /// A tracer that subtracts `cost` for every span.
    pub fn with_cost(cost: SpanCost) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            cost,
        }
    }

    pub fn cost(&self) -> SpanCost {
        self.cost
    }

    /// Record rounds of empty spans back to back: the median recorded
    /// duration is the inner cost, and the median wall time per span
    /// minus it is the outer cost. The spans are then discarded.
    fn calibrate(&mut self) -> SpanCost {
        const ROUNDS: usize = 31;
        const SPANS: usize = 2000;
        self.spans.reserve(SPANS);
        let (mut inner, mut whole) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            self.spans.clear();
            let started = self.now();
            for _ in 0..SPANS {
                let mark = self.mark();
                self.close(mark, "calibrate");
            }
            whole.push((self.now() - started) as f64 / SPANS as f64);
            inner.push(crate::stats::median(
                self.spans.iter().map(|s| (s.end - s.start) as f64).collect(),
            ));
        }
        self.spans.clear();
        let inner_ns = crate::stats::median(inner);
        SpanCost {
            inner_ns,
            outer_ns: (crate::stats::median(whole) - inner_ns).max(0.0),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span whose name is decided when it closes.
    pub fn mark(&mut self) -> Mark {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: "",
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        Mark(index)
    }

    /// Close the innermost open span under `name`.
    pub fn close(&mut self, mark: Mark, name: &'static str) {
        let end = self.now();
        debug_assert_eq!(
            self.open.last(),
            Some(&mark.0),
            "spans close innermost first"
        );
        self.open.pop();
        let span = &mut self.spans[mark.0];
        span.name = name;
        span.end = end;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened above `depth`, as `"panicked"`: what a
    /// caller does after catching a panic that unwound through them.
    pub fn abandon(&mut self, depth: usize) {
        while self.open.len() > depth {
            let index = self.open.len() - 1;
            self.close(Mark(self.open[index]), "panicked");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let mark = self.mark();
        let out = f();
        self.close(mark, name);
        out
    }

    /// Record one observation of a counter (`total`, `samples`).
    pub fn count(&mut self, name: &'static str, value: u64) {
        let c = self.counts.entry(name).or_default();
        c.0 += value;
        c.1 += 1;
    }

    /// Mean of a counter's observations, or 0 when never observed.
    pub fn count_mean(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .map_or(0.0, |&(total, n)| total as f64 / n.max(1) as f64)
    }

    /// Self time per span name within every top-level span called `root`,
    /// one map per such span (in order). Each entry is
    /// `(self nanoseconds summed, span count, duration summed)`. A span's
    /// self time is its duration minus its own inner cost and minus, per
    /// child, the child's duration and outer cost.
    pub fn passes(&self, root: &str) -> Vec<BTreeMap<&'static str, Layer>> {
        let mut self_ns: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start) as f64 - self.cost.inner_ns)
            .collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_ns[p] -= (span.end - span.start) as f64 + self.cost.outer_ns;
            }
        }
        let mut passes = Vec::new();
        let mut current: Option<BTreeMap<&'static str, Layer>> = None;
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() {
                passes.extend(current.take());
                if span.name == root {
                    current = Some(BTreeMap::new());
                }
            }
            if let Some(pass) = current.as_mut() {
                let layer = pass.entry(span.name).or_default();
                layer.self_ns += self_ns[i];
                layer.spans += 1;
                layer.total_ns += span.end - span.start;
            }
        }
        passes.extend(current);
        passes
    }
}

/// One span name's totals within a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub self_ns: f64,
    pub spans: u64,
    pub total_ns: u64,
}

impl Layer {
    /// Mean self time per span.
    pub fn per_span(&self) -> f64 {
        self.self_ns / self.spans.max(1) as f64
    }
}

/// Median over passes of `f(pass)`, or 0 without passes.
pub fn median_over(
    passes: &[BTreeMap<&'static str, Layer>],
    f: impl Fn(&BTreeMap<&'static str, Layer>) -> f64,
) -> f64 {
    crate::stats::median(passes.iter().map(f).collect())
}

/// Mean self time per span of `name` in one pass (0 when absent).
pub fn per_span(pass: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    pass.get(name).map_or(0.0, Layer::per_span)
}

/// Summed self time of `name` in one pass (0 when absent).
pub fn self_total(pass: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    pass.get(name).map_or(0.0, |l| l.self_ns)
}

/// Summed duration of `name` in one pass (0 when absent).
pub fn duration_total(pass: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    pass.get(name).map_or(0.0, |l| l.total_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_span_cost_and_passes_split_at_roots() {
        let cost = SpanCost {
            inner_ns: 100.0,
            outer_ns: 50.0,
        };
        let mut t = Tracer::with_cost(cost);
        for _ in 0..2 {
            t.span("pass", || ());
            let outer = t.mark();
            t.span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.close(outer, "outer");
        }
        // A panic that unwinds through open spans leaves them to `abandon`.
        let depth = t.depth();
        let _open = t.mark();
        t.abandon(depth);
        assert_eq!(t.depth(), depth);
        // "outer" spans are roots too, so each "pass" root holds only itself.
        let passes = t.passes("outer");
        assert_eq!(passes.len(), 2);
        for pass in &passes {
            let outer = pass["outer"];
            let child = pass["child"];
            // Both spans pay their inner cost; the child also its outer.
            let charged = 2.0 * cost.inner_ns + cost.outer_ns;
            assert_eq!(outer.self_ns + child.self_ns + charged, outer.total_ns as f64);
            assert!(child.self_ns >= 2_000_000.0 - cost.inner_ns);
            assert!(outer.self_ns < child.self_ns);
        }
    }

    #[test]
    fn calibrated_span_cost_is_small_and_discards_its_spans() {
        let t = Tracer::new();
        let cost = t.cost();
        assert!(cost.inner_ns >= 0.0 && cost.inner_ns < 100_000.0, "{cost:?}");
        assert!(cost.outer_ns >= 0.0 && cost.outer_ns < 100_000.0, "{cost:?}");
        assert!(t.passes("calibrate").is_empty());
    }
}
