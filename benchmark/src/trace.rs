//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON when the run ends.
//!
//! A span is `{id, name, op, parent, start_ns, end_ns}`; spans of one
//! sampled operation share `op`. Layers cannot be entered from inside
//! each other from out here, so a wrapper and the layer below it are
//! *replayed* on the same input one after the other, and the lower
//! layer's span names the wrapper's span as its parent. A span's self
//! time is then its duration minus its children's durations — for a
//! replayed chain that is "wrapper minus next layer down", and for the
//! genuinely nested stage spans of a freshness tick it is the time no
//! stage covers.

use crate::json::{arr, num, obj, st, Json};
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span from two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.record_ns(name, op, parent, ns(start), ns(end))
    }

    /// Records a finished span from nanosecond offsets.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, op, parent, start, end))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Duration of one span in nanoseconds.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Self time of one span: its duration minus its direct children's
    /// durations (floored at zero — a replayed child can run a little
    /// longer than the wrapper it was replayed under).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration_ns(c))
            .sum();
        self.duration_ns(id).saturating_sub(children)
    }

    /// Ids of every span called `name`, in recording order.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.ids(name)
            .into_iter()
            .map(|i| self.duration_ns(i) as f64 / 1e3)
            .collect()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations_us(name).iter().map(|us| us / 1e3).collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.ids(name)
            .into_iter()
            .map(|i| self.self_ns(i) as f64 / 1e3)
            .collect()
    }

    /// The whole store as a JSON array of span objects.
    pub fn to_json(&self) -> Json {
        arr(self.spans.iter().enumerate().map(|(id, s)| {
            obj([
                ("id", num(id as f64)),
                ("name", st(s.name)),
                ("op", num(s.op as f64)),
                ("parent", s.parent.map_or(Json::null(), |p| num(p as f64))),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
            ])
        }))
    }
}

/// Runs `f` inside a root span of op 0 when a tracer is there, bare
/// when the run is untraced — for set-up code both modes share.
pub fn span_if<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, 0, None, f).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // A replayed chain: service 620 µs, engine 400 µs, kernel 300 µs.
        let service = t.record_ns("service", 1, None, 0, 620_000);
        let engine = t.record_ns("engine", 1, Some(service), 700_000, 1_100_000);
        let kernel = t.record_ns("kernel", 1, Some(engine), 1_200_000, 1_500_000);
        assert_eq!(t.self_ns(service), 220_000);
        assert_eq!(t.self_ns(engine), 100_000);
        assert_eq!(t.self_ns(kernel), 300_000);
        // The chain telescopes back to the wrapper's duration.
        let sum: u64 = [service, engine, kernel]
            .iter()
            .map(|&s| t.self_ns(s))
            .sum();
        assert_eq!(sum, t.duration_ns(service));
    }

    #[test]
    fn nested_stages_leave_the_uncovered_time() {
        let mut t = Tracer::new();
        let tick = t.record_ns("tick", 7, None, 0, 100);
        t.record_ns("stage_a", 7, Some(tick), 0, 60);
        t.record_ns("stage_b", 7, Some(tick), 62, 97);
        assert_eq!(t.self_ns(tick), 5);
        // Another op's spans never count against this one.
        let other = t.record_ns("tick", 8, None, 200, 300);
        assert_eq!(t.self_ns(other), 100);
        assert_eq!(t.durations_us("tick"), vec![0.1, 0.1]);
    }

    #[test]
    fn a_longer_replayed_child_floors_at_zero() {
        let mut t = Tracer::new();
        let wrapper = t.record_ns("wrapper", 1, None, 0, 10);
        t.record_ns("inner", 1, Some(wrapper), 20, 35);
        assert_eq!(t.self_ns(wrapper), 0);
    }
}
