//! The flight recorder: one process-wide ring of completed operation
//! traces, retaining the 256 most recent (`RECENT_CAP`) plus the 16
//! slowest (`SLOW_CAP`).
//!
//! Every root span that closes, in any knowledge base, tenant or thread,
//! lands here; a trace rooted at a wire request carries its tenant in
//! [`Trace::ctx`], which is how `GET /trace?tenant=…` picks its traces.
//! Traces rooted outside a request (query worker batches, embedded and
//! CLI callers) have no tenant. Nothing is recorded below
//! [`crate::ObsLevel::Full`]: the span layer never builds a trace then.
//!
//! The capacities are fixed, and keep what the process-wide view held
//! when each knowledge base had a ring of its own (64 recent, 16
//! slowest): 256 was the bound on the traces kept from dropped knowledge
//! bases, which is what a post-run `--trace-out` dump read, and 16
//! slowest is what each knowledge base kept for postmortems. Both bound
//! the memory tracing holds, however many tenants record. A recording is
//! one short mutex hold.

use crate::context::RequestCtx;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// Traces kept in the most-recent ring (see the module doc).
const RECENT_CAP: usize = 256;
/// Slowest traces kept past their eviction from the recent ring.
const SLOW_CAP: usize = 16;

struct Ring {
    recent: VecDeque<Arc<Trace>>,
    /// Kept sorted slowest-first, at most [`SLOW_CAP`] long.
    slowest: Vec<Arc<Trace>>,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    recent: VecDeque::new(),
    slowest: Vec::new(),
});

fn ring() -> MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Retain a finished trace (the span layer calls this when a root span
/// closes).
pub(crate) fn record(t: Arc<Trace>) {
    let mut ring = ring();
    if ring.recent.len() == RECENT_CAP {
        ring.recent.pop_front();
    }
    ring.recent.push_back(t.clone());
    let pos = ring.slowest.partition_point(|s| s.total_ns >= t.total_ns);
    if pos < SLOW_CAP {
        ring.slowest.insert(pos, t);
        ring.slowest.truncate(SLOW_CAP);
    }
}

/// Every retained trace (recent and slowest, each once), slowest first.
pub fn all_traces() -> Vec<Arc<Trace>> {
    let ring = ring();
    let mut out: Vec<Arc<Trace>> = ring.recent.iter().cloned().collect();
    for t in &ring.slowest {
        if !ring.recent.iter().any(|r| Arc::ptr_eq(r, t)) {
            out.push(t.clone());
        }
    }
    drop(ring);
    out.sort_by_key(|t| Reverse(t.total_ns));
    out
}

/// Retained traces whose root target equals `op`, slowest first — what
/// `(obs-trace <op>)` renders.
pub fn traces_for(op: &str) -> Vec<Arc<Trace>> {
    let mut out = all_traces();
    out.retain(|t| t.root == op);
    out
}

/// Find a retained trace by its request trace id (32-digit lowercase
/// hex as rendered by [`crate::TraceId`]'s `Display`).
pub fn find_trace(id_hex: &str) -> Option<Arc<Trace>> {
    all_traces()
        .into_iter()
        .find(|t| matches!(&t.ctx, Some(c) if c.trace_id.to_string() == id_hex))
}

/// Every distinct root target retained, with its trace count, by name —
/// what `(obs-trace *)` lists.
pub fn trace_ops() -> Vec<(&'static str, usize)> {
    let mut out: Vec<(&'static str, usize)> = Vec::new();
    for t in all_traces() {
        match out.iter_mut().find(|(op, _)| *op == t.root) {
            Some((_, n)) => *n += 1,
            None => out.push((t.root, 1)),
        }
    }
    out.sort_by_key(|&(op, _)| op);
    out
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
        // Holds the test lock so no span test records into the ring
        // between these pushes and the reads below.
        let _l = crate::lock_globals();
        let slow = "flight.test.slow";
        let fast = "flight.test.fast";
        // Slower than anything else a test records: it falls out of the
        // recent ring but stays among the slowest.
        record(Arc::new(trace(slow, u64::MAX / 2)));
        for i in 0..RECENT_CAP as u64 {
            record(Arc::new(trace(fast, 10 + i)));
        }
        let ring = ring();
        assert_eq!(ring.recent.len(), RECENT_CAP);
        assert!(
            ring.recent.iter().all(|t| t.root == fast),
            "slow trace evicted from recent"
        );
        assert_eq!(ring.recent[0].total_ns, 10);
        assert_eq!(ring.slowest[0].root, slow);
        assert_eq!(ring.slowest[0].total_ns, u64::MAX / 2);
        drop(ring);
        let for_slow = traces_for(slow);
        assert_eq!(for_slow.len(), 1, "slow trace retained past ring eviction");
        assert_eq!(traces_for(fast).len(), RECENT_CAP, "each trace listed once");
        assert!(trace_ops().contains(&(slow, 1)));
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
