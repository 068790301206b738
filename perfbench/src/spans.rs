//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic the per-layer split is read from.
//!
//! Spans are recorded only in the traced run; the untraced runs that give
//! the end-to-end numbers go through [`Tracer::span`] with tracing off,
//! which calls the closure and records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer name (`oracle`, `http.parse`, …).
    pub name: &'static str,
    /// Request (or sweep) the span belongs to; spans of one request share it.
    pub req: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; with `on == false` it records nothing.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// `true` when spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span. `f` receives the span's id (`None` when
    /// tracing is off) to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent,
            name,
            req,
            start,
            end,
        });
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// A copy of every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children running in parallel on several
/// threads cover their union once). Indexed like `spans`.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start).saturating_sub(covered(s.start, s.end, kids)))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-layer totals: (span count, summed self time in ns), by name.
#[must_use]
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// Durations (ns) of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

/// Spans as JSON lines, for the trace file written at the end of a run.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.name, s.req, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
            span(3, Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 10, 5]);
    }

    #[test]
    fn parallel_children_count_their_union_once() {
        // Two workers' children overlap in time; the parent is covered by
        // their union [10, 90), not by their sum.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 90),
            span(3, Some(0), 45, 55),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn layer_totals_and_tracer_round_trip() {
        let tracer = Tracer::new(true);
        let v = tracer.span("outer", None, 7, |id| {
            tracer.span("inner", id, 7, |_| std::hint::black_box(3) + 1)
        });
        assert_eq!(v, 4);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let layers = self_by_layer(&spans);
        assert_eq!(layers["outer"].0, 1);
        assert_eq!(
            layers["outer"].1 + layers["inner"].1,
            outer.end - outer.start
        );
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, 0, |id| id), None);
        assert!(tracer.spans().is_empty());
    }
}
