//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public API goes through
//! [`Tracer::span`].  With tracing off the closure runs directly; with
//! tracing on the call is timed and kept as a [`Span`] carrying its own
//! id, its parent's id and the id of the trial or job it belongs to.
//! Spans stay in memory until the run ends, then are written in the
//! canonical `div_core::render_spans` format (loadable by Perfetto and by
//! `metrics_check spans`) and folded into a per-layer self-time table.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use div_core::{hex_id, render_spans, SpanClock, SpanEvent};

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Trace-viewer thread row of the calling thread (1-based, stable).
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// One completed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub lane: u64,
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
}

/// The span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    clock: SpanClock,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            clock: SpanClock::new(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as a span named `name` in `layer`, child of `parent`
    /// (0 for a root) and member of trial/job `trace`.  `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.clock.now_us();
        let out = f(id);
        let end_us = self.clock.now_us();
        let span = Span {
            name,
            layer,
            start_us,
            end_us,
            lane: LANE.with(|l| *l),
            id,
            parent,
            trace,
        };
        self.spans
            .lock()
            .expect("a span recorder holder panicked")
            .push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder holder panicked")
            .clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }
}

/// Canonical Chrome trace-event rendering of `spans`.
pub fn render(spans: &[Span]) -> String {
    let events: Vec<SpanEvent> = spans
        .iter()
        .map(|s| {
            SpanEvent::complete(
                s.name,
                s.layer,
                s.start_us,
                s.end_us - s.start_us,
                1,
                s.lane,
            )
            .arg_text("id", &hex_id(s.id))
            .arg_text("parent", &hex_id(s.parent))
            .arg_text("trace", &hex_id(s.trace))
        })
        .collect();
    render_spans(&events)
}

/// Busy and self time of one layer, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub busy_us: u64,
    pub self_us: u64,
}

/// Per-layer totals: a span's self time is its duration minus the part
/// of it that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let covered = children.get_mut(&s.id).map_or(0, |iv| {
            iv.sort_unstable();
            let mut total = 0;
            let (mut lo, mut hi) = (s.start_us, s.start_us);
            for &(a, b) in iv.iter() {
                let (a, b) = (a.clamp(s.start_us, s.end_us), b.clamp(s.start_us, s.end_us));
                if a > hi {
                    total += hi - lo;
                    lo = a;
                }
                hi = hi.max(b);
            }
            total + (hi - lo)
        });
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.busy_us += dur;
        t.self_us += dur - covered.min(dur);
    }
    out
}

/// The self-time table printed next to the span file.
pub fn self_time_table(spans: &[Span]) -> String {
    let times = self_times(spans);
    let total: u64 = times.values().map(|t| t.self_us).sum::<u64>().max(1);
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>7}\n",
        "layer", "calls", "busy_ms", "self_ms", "self%"
    );
    for (layer, t) in &times {
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            layer,
            t.calls,
            t.busy_us as f64 / 1e3,
            t.self_us as f64 / 1e3,
            100.0 * t.self_us as f64 / total as f64
        ));
    }
    out
}
