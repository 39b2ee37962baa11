//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: `name`, `start_ns`, `end_ns`, the `parent` span
//! that caused it and the `slot` as the identifier spans of one slot
//! share. They stay in memory and are written when the workload ends.
//! A layer's self time is its span minus what its children cover.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`sim.engine.step`, `core.decide`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for roots).
    pub parent: Option<usize>,
    /// The slot the work belongs to.
    pub slot: u32,
    /// Who did the work: 0 for the driving thread and a monolithic
    /// algorithm, the shard index for a coordinator's per-shard calls
    /// (which run side by side on its pool).
    pub lane: u32,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
}

/// A cloneable handle on one span buffer. The driving thread nests
/// spans with [`Tracer::enter`] / [`Tracer::exit`]; decorators — which
/// may run on the coordinator's pool threads while the driving thread
/// is blocked inside a step — add closed leaf spans with
/// [`Tracer::leaf`], parented to the innermost open span.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    inner: Arc<Mutex<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty buffer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: Arc::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a traced layer panicked while recording a span")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a nesting span on the driving thread and returns its id.
    pub fn enter(&self, name: &'static str, slot: u32) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut inner = self.lock();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            slot,
            lane: 0,
        });
        inner.stack.push(id);
        id
    }

    /// Closes the span opened by the matching [`Tracer::enter`] and
    /// returns its length in seconds.
    pub fn exit(&self, id: usize) -> f64 {
        let end_ns = self.ns(Instant::now());
        let mut inner = self.lock();
        let top = inner.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        inner.spans[id].end_ns = end_ns;
        inner.spans[id].secs()
    }

    /// Records a closed span under the innermost open one, whose slot
    /// it shares (slot 0 when nothing is open).
    pub fn leaf(&self, name: &'static str, lane: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let slot = parent.map_or(0, |p| inner.spans[p].slot);
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            slot,
            lane,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Total and self seconds per span name. A span's self time is its
/// length minus the part of it its children cover; children that
/// overlap each other (pool threads) are counted once.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let total = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += total as f64 * 1e-9;
        entry.self_s += (total - covered(kids)) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0, 0);
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            sum += end - start;
            reach = end;
        }
    }
    sum
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: usize,
    /// Σ span length, seconds.
    pub total_s: f64,
    /// Σ span length minus child cover, seconds.
    pub self_s: f64,
}

/// The trace file: every span plus the per-layer aggregate.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let layers = layer_times(spans)
        .into_iter()
        .map(|(name, t)| {
            let body = Json::object([
                ("count", Json::from(t.count)),
                ("total_s", Json::from(t.total_s)),
                ("self_s", Json::from(t.self_s)),
            ]);
            (name.to_string(), body)
        })
        .collect();
    let spans = spans
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns as f64)),
                ("end_ns", Json::from(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("slot", Json::from(s.slot as usize)),
                ("lane", Json::from(s.lane as usize)),
            ])
        })
        .collect();
    Json::object([
        ("workload", Json::from(workload)),
        ("layers", Json::Object(layers)),
        ("spans", Json::Array(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            slot: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let spans = [
            span("step", 0, 1_000, None),
            span("decide", 100, 600, Some(0)),
            span("observe", 700, 900, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["step"].count, 1);
        assert!((t["step"].total_s - 1_000e-9).abs() < 1e-15);
        assert!((t["step"].self_s - 300e-9).abs() < 1e-15);
        assert!((t["decide"].self_s - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two pool threads overlap on [200, 400); one child overruns
        // its parent and is clipped to it.
        let spans = [
            span("step", 0, 1_000, None),
            span("commit", 100, 400, Some(0)),
            span("commit", 200, 500, Some(0)),
            span("commit", 900, 1_200, Some(0)),
        ];
        let t = layer_times(&spans);
        assert!((t["step"].self_s - 500e-9).abs() < 1e-15);
        assert_eq!(t["commit"].count, 3);
        assert!((t["commit"].total_s - 900e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_parents_leaves_to_the_innermost_open_span() {
        let tracer = Tracer::new();
        let run = tracer.enter("run", 0);
        let step = tracer.enter("step", 3);
        let now = Instant::now();
        tracer.leaf("decide", 2, now, now);
        tracer.exit(step);
        tracer.leaf("checkpoint", 0, now, now);
        tracer.exit(run);
        let spans = tracer.spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("run", None),
                ("step", Some(0)),
                ("decide", Some(1)),
                ("checkpoint", Some(0)),
            ]
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!((spans[2].slot, spans[2].lane), (3, 2));
        assert_eq!(spans[3].slot, 0);
    }

    #[test]
    fn trace_file_lists_spans_and_layers() {
        let spans = [span("step", 0, 10, None), span("decide", 2, 4, Some(0))];
        let text = to_json("w", &spans).to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(back.get("spans").and_then(Json::as_array).unwrap().len(), 2);
        let decide = &back.get("spans").and_then(Json::as_array).unwrap()[1];
        assert_eq!(decide.get("parent").and_then(Json::as_f64), Some(0.0));
        assert!(back.get("layers").and_then(|l| l.get("step")).is_some());
    }
}
