//! The flight recorder: a fixed-capacity ring buffer of completed
//! operation traces, retaining the N most recent plus the K slowest.
//!
//! Recorders created with [`FlightRecorder::new_shared`] are enrolled in
//! a process-global roll-up (mirroring the metrics registry roll-up) so
//! `--trace-out` dumps can collect every trace in the process.

use crate::context::RequestCtx;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, Weak};

/// A point event attached to a span (e.g. `rule_fired`, with the rule id
/// as the value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static event name.
    pub name: &'static str,
    /// Event payload (a count, an id — whatever the site records).
    pub value: u64,
}

/// One completed span inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Id unique within the trace (root is 0).
    pub id: u32,
    /// Parent span id, `None` for the root.
    pub parent: Option<u32>,
    /// Static target, e.g. `"kb.assert"` or `"propagate.round"`.
    pub target: &'static str,
    /// Nanoseconds from trace start to span open (monotonic clock).
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Events recorded while this span was the innermost open one.
    pub events: Vec<TraceEvent>,
}

/// One completed top-level operation: the root span and everything that
/// nested under it on the same thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The root span's target — the operation name `(obs-trace <op>)`
    /// matches against.
    pub root: &'static str,
    /// Total duration of the root span, nanoseconds.
    pub total_ns: u64,
    /// All spans, in completion order; span 0 is the root.
    pub spans: Vec<SpanRecord>,
    /// The wire-request identity this trace roots at, when the root span
    /// was opened by the server front ([`crate::trace::request_span`]);
    /// `None` for traces rooted inside the process (CLI, query worker
    /// batches).
    pub ctx: Option<RequestCtx>,
}

impl Trace {
    /// Render the trace as an indented tree, one line per span, with
    /// microsecond timings and inline events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Children of each span, preserving open order (start_ns).
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, self.spans[i].id));
        fn walk(t: &Trace, order: &[usize], parent: Option<u32>, depth: usize, out: &mut String) {
            for &i in order {
                let s = &t.spans[i];
                if s.parent != parent {
                    continue;
                }
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!(
                    "{} +{:.1}µs [{:.1}µs]",
                    s.target,
                    s.start_ns as f64 / 1_000.0,
                    s.dur_ns as f64 / 1_000.0
                ));
                for e in &s.events {
                    out.push_str(&format!(" {}={}", e.name, e.value));
                }
                out.push('\n');
                walk(t, order, Some(s.id), depth + 1, out);
            }
        }
        walk(self, &order, None, 0, &mut out);
        out
    }
}

struct FlightInner {
    recent: VecDeque<Arc<Trace>>,
    /// Kept sorted slowest-first, truncated to `slow_cap`.
    slowest: Vec<Arc<Trace>>,
}

/// Fixed-capacity recorder of completed traces. Thread-safe; a recording
/// is one short mutex hold, and nothing is recorded below
/// [`crate::ObsLevel::Full`] (the span layer never builds a trace then).
pub struct FlightRecorder {
    recent_cap: usize,
    slow_cap: usize,
    /// Enrolled recorders move their retained traces to the process
    /// graveyard when dropped, so `--trace-out` survives KB teardown.
    bury_on_drop: bool,
    inner: Mutex<FlightInner>,
}

/// Default capacity of the most-recent ring.
pub const DEFAULT_RECENT_CAP: usize = 64;
/// Default capacity of the slowest-traces list.
pub const DEFAULT_SLOW_CAP: usize = 16;

/// Every live recorder created via [`FlightRecorder::new_shared`].
static RECORDERS: Mutex<Vec<Weak<FlightRecorder>>> = Mutex::new(Vec::new());

/// Bound on traces retained from dropped shared recorders.
const GRAVEYARD_CAP: usize = 256;

/// Final traces of dropped shared recorders, oldest evicted first.
/// Without this, a `--trace-out` dump taken after the knowledge bases
/// it profiled were dropped would be empty (mirrors the metrics
/// registry's graveyard in [`crate::expo`]).
fn graveyard() -> &'static Mutex<VecDeque<Arc<Trace>>> {
    static G: std::sync::OnceLock<Mutex<VecDeque<Arc<Trace>>>> = std::sync::OnceLock::new();
    G.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Every trace currently retained by any enrolled recorder (recent +
/// slowest, deduplicated) plus the buried traces of dropped shared
/// recorders, in no particular order.
pub fn all_traces() -> Vec<Arc<Trace>> {
    let mut recorders = RECORDERS.lock().unwrap_or_else(|e| e.into_inner());
    recorders.retain(|w| w.strong_count() > 0);
    let live: Vec<Arc<FlightRecorder>> = recorders.iter().filter_map(Weak::upgrade).collect();
    drop(recorders);
    let mut out: Vec<Arc<Trace>> = Vec::new();
    for r in live {
        let inner = r.lock();
        for t in inner.recent.iter().chain(inner.slowest.iter()) {
            if !out.iter().any(|o| Arc::ptr_eq(o, t)) {
                out.push(t.clone());
            }
        }
    }
    let buried = graveyard().lock().unwrap_or_else(|e| e.into_inner());
    for t in buried.iter() {
        if !out.iter().any(|o| Arc::ptr_eq(o, t)) {
            out.push(t.clone());
        }
    }
    out
}

/// Find a retained trace by its request trace id (any enrolled
/// recorder; 32-digit lowercase hex as rendered by
/// [`crate::TraceId`]'s `Display`).
pub fn find_trace(id_hex: &str) -> Option<Arc<Trace>> {
    all_traces()
        .into_iter()
        .find(|t| matches!(&t.ctx, Some(c) if c.trace_id.to_string() == id_hex))
}

impl FlightRecorder {
    /// A recorder with the default capacities (64 recent, 16 slowest).
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RECENT_CAP, DEFAULT_SLOW_CAP)
    }

    /// A default-capacity recorder enrolled in the process-global
    /// roll-up read by [`all_traces`]. Enrollment holds only a [`Weak`];
    /// dropping the last `Arc` unenrolls it and buries its retained
    /// traces in the graveyard [`all_traces`] also reads.
    pub fn new_shared() -> Arc<FlightRecorder> {
        let mut fr = FlightRecorder::new();
        fr.bury_on_drop = true;
        let r = Arc::new(fr);
        RECORDERS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::downgrade(&r));
        r
    }

    /// A recorder retaining the `recent_cap` most recent and `slow_cap`
    /// slowest traces.
    pub fn with_capacity(recent_cap: usize, slow_cap: usize) -> FlightRecorder {
        FlightRecorder {
            recent_cap: recent_cap.max(1),
            slow_cap,
            bury_on_drop: false,
            inner: Mutex::new(FlightInner {
                recent: VecDeque::new(),
                slowest: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a completed trace (called by the span layer when a root
    /// span closes).
    pub fn record(&self, trace: Trace) {
        self.record_arc(Arc::new(trace));
    }

    /// Like [`FlightRecorder::record`] for a trace the caller also keeps
    /// a handle to (the request layer shares the `Arc` with the slowlog).
    pub fn record_arc(&self, t: Arc<Trace>) {
        let mut inner = self.lock();
        if inner.recent.len() == self.recent_cap {
            inner.recent.pop_front();
        }
        inner.recent.push_back(t.clone());
        if self.slow_cap > 0 {
            let pos = inner.slowest.partition_point(|s| s.total_ns >= t.total_ns);
            if pos < self.slow_cap {
                inner.slowest.insert(pos, t);
                inner.slowest.truncate(self.slow_cap);
            }
        }
    }

    /// The most recent traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        self.lock().recent.iter().cloned().collect()
    }

    /// The slowest traces seen since the last clear, slowest first.
    pub fn slowest(&self) -> Vec<Arc<Trace>> {
        self.lock().slowest.clone()
    }

    /// Every trace currently retained (recent + slowest, deduplicated),
    /// slowest first — what `GET /trace?tenant=…` exports.
    pub fn traces(&self) -> Vec<Arc<Trace>> {
        let inner = self.lock();
        let mut out: Vec<Arc<Trace>> = Vec::new();
        for t in inner.slowest.iter().chain(inner.recent.iter()) {
            if !out.iter().any(|o| Arc::ptr_eq(o, t)) {
                out.push(t.clone());
            }
        }
        drop(inner);
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    /// Traces (recent + slowest, deduplicated) whose root target equals
    /// `op`, slowest first.
    pub fn traces_for(&self, op: &str) -> Vec<Arc<Trace>> {
        let inner = self.lock();
        let mut out: Vec<Arc<Trace>> = Vec::new();
        for t in inner.slowest.iter().chain(inner.recent.iter()) {
            if t.root == op && !out.iter().any(|o| Arc::ptr_eq(o, t)) {
                out.push(t.clone());
            }
        }
        drop(inner);
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    /// Every distinct root target currently held, with trace counts.
    pub fn ops(&self) -> Vec<(&'static str, usize)> {
        let inner = self.lock();
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        let mut seen: Vec<*const Trace> = Vec::new();
        for t in inner.recent.iter().chain(inner.slowest.iter()) {
            let p = Arc::as_ptr(t);
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            match out.iter_mut().find(|(op, _)| *op == t.root) {
                Some((_, n)) => *n += 1,
                None => out.push((t.root, 1)),
            }
        }
        out.sort_by_key(|&(op, _)| op);
        out
    }

    /// Number of traces in the recent ring.
    pub fn len(&self) -> usize {
        self.lock().recent.len()
    }

    /// True when nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained trace.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.recent.clear();
        inner.slowest.clear();
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        if !self.bury_on_drop {
            return;
        }
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        let mut g = graveyard().lock().unwrap_or_else(|e| e.into_inner());
        for t in inner.slowest.drain(..).chain(inner.recent.drain(..)) {
            if !g.iter().any(|o| Arc::ptr_eq(o, &t)) {
                g.push_back(t);
            }
        }
        while g.len() > GRAVEYARD_CAP {
            g.pop_front();
        }
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FlightRecorder")
            .field("recent", &inner.recent.len())
            .field("slowest", &inner.slowest.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(root: &'static str, total_ns: u64) -> Trace {
        Trace {
            root,
            total_ns,
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                target: root,
                start_ns: 0,
                dur_ns: total_ns,
                events: Vec::new(),
            }],
            ctx: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_slowest() {
        let fr = FlightRecorder::with_capacity(2, 2);
        fr.record(trace("op", 1_000_000)); // slow, will fall out of recent
        fr.record(trace("op", 10));
        fr.record(trace("op", 20));
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.recent()[0].total_ns, 10);
        assert_eq!(fr.slowest()[0].total_ns, 1_000_000);
        let for_op = fr.traces_for("op");
        assert_eq!(for_op.len(), 3, "slow trace retained past ring eviction");
    }

    #[test]
    fn shared_recorder_traces_survive_its_drop() {
        let fr = FlightRecorder::new_shared();
        fr.record(trace("graveyard.probe", 42));
        drop(fr);
        let buried = all_traces()
            .into_iter()
            .find(|t| t.root == "graveyard.probe")
            .expect("trace buried on recorder drop");
        assert_eq!(buried.total_ns, 42);
    }

    #[test]
    fn render_is_an_indented_tree() {
        let t = Trace {
            root: "kb.assert",
            total_ns: 5_000,
            spans: vec![
                SpanRecord {
                    id: 0,
                    parent: None,
                    target: "kb.assert",
                    start_ns: 0,
                    dur_ns: 5_000,
                    events: vec![],
                },
                SpanRecord {
                    id: 1,
                    parent: Some(0),
                    target: "propagate.round",
                    start_ns: 1_000,
                    dur_ns: 2_000,
                    events: vec![TraceEvent {
                        name: "rule_fired",
                        value: 3,
                    }],
                },
            ],
            ctx: None,
        };
        let text = t.render();
        assert!(text.starts_with("kb.assert"));
        assert!(text.contains("  propagate.round"));
        assert!(text.contains("rule_fired=3"));
    }
}
