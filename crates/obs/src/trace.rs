//! The span layer: RAII guards over a thread-local trace builder. A root
//! span opening starts a trace; the root closing hands the finished
//! trace to the operation's [`FlightRecorder`].
//!
//! Spans cost nothing below [`crate::ObsLevel::Full`]: `span()` does one
//! relaxed atomic load and returns an inert guard.

use crate::context::RequestCtx;
use crate::flight::{FlightRecorder, SpanRecord, Trace, TraceEvent};
use crate::level::tracing_enabled;
use crate::metrics::Histogram;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a request root span deposits its finished trace: the request
/// layer reads it back after the guard drops (reading the recorder would
/// race with other workers on the same tenant).
type TraceSlot = Arc<Mutex<Option<Arc<Trace>>>>;

struct TraceBuilder {
    clock: Instant,
    recorder: Arc<FlightRecorder>,
    spans: Vec<SpanRecord>,
    /// Open span ids, innermost last; parallel vec of open Instants.
    open: Vec<u32>,
    open_at: Vec<u64>,
    /// Request identity, when the root is a [`request_span`].
    ctx: Option<RequestCtx>,
    /// Receives the finished trace on root close, when requested.
    slot: Option<TraceSlot>,
}

thread_local! {
    static ACTIVE: RefCell<Option<TraceBuilder>> = const { RefCell::new(None) };
    /// Head-sampling suppression: while `true`, `span()` returns inert
    /// guards so an unsampled request records nothing at all.
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
}

/// RAII span handle: records duration and (for a root) ships the trace on
/// drop. Inert when tracing is off. Not `Send` — spans belong to the
/// thread that opened them; a worker thread opens its own root span.
pub struct SpanGuard {
    active: bool,
    histogram: Option<Histogram>,
    // Thread-local machinery: keep the guard !Send so drops stay on the
    // opening thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a span named `target` under the current trace, or start a new
/// trace rooted at `target` if none is active on this thread. The trace
/// lands in `recorder` when the root closes.
pub fn span(recorder: &Arc<FlightRecorder>, target: &'static str) -> SpanGuard {
    if !tracing_enabled() || SUPPRESS.with(|s| s.get()) {
        return SpanGuard {
            active: false,
            histogram: None,
            _not_send: std::marker::PhantomData,
        };
    }
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let b = slot.get_or_insert_with(|| TraceBuilder {
            clock: Instant::now(),
            recorder: recorder.clone(),
            spans: Vec::new(),
            open: Vec::new(),
            open_at: Vec::new(),
            ctx: None,
            slot: None,
        });
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied();
        let start_ns = b.clock.elapsed().as_nanos() as u64;
        b.spans.push(SpanRecord {
            id,
            parent,
            target,
            start_ns,
            dur_ns: 0,
            events: Vec::new(),
        });
        b.open.push(id);
        b.open_at.push(start_ns);
    });
    SpanGuard {
        active: true,
        histogram: None,
        _not_send: std::marker::PhantomData,
    }
}

/// Like [`span`], additionally recording the span's duration into
/// `histogram` when it closes.
pub fn span_timed(
    recorder: &Arc<FlightRecorder>,
    target: &'static str,
    histogram: &Histogram,
) -> SpanGuard {
    let mut g = span(recorder, target);
    if g.active {
        g.histogram = Some(histogram.clone());
    }
    g
}

/// Attach a point event to the innermost open span on this thread.
/// No-op when tracing is off or no span is open.
#[inline]
pub fn event(name: &'static str, value: u64) {
    if !tracing_enabled() {
        return;
    }
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if let Some(b) = slot.as_mut() {
            if let Some(&open) = b.open.last() {
                b.spans[open as usize]
                    .events
                    .push(TraceEvent { name, value });
            }
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let finished: Option<(Arc<FlightRecorder>, Trace, Option<TraceSlot>)> = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let b = slot.as_mut()?;
            let id = b.open.pop()?;
            let opened = b.open_at.pop().unwrap_or(0);
            let dur = b.clock.elapsed().as_nanos() as u64 - opened;
            b.spans[id as usize].dur_ns = dur;
            if let Some(h) = &self.histogram {
                h.record(dur);
            }
            if b.open.is_empty() {
                let b = slot.take().expect("builder present");
                let root = b.spans[0].target;
                let total_ns = b.spans[0].dur_ns;
                Some((
                    b.recorder,
                    Trace {
                        root,
                        total_ns,
                        spans: b.spans,
                        ctx: b.ctx,
                    },
                    b.slot,
                ))
            } else {
                None
            }
        });
        if let Some((recorder, trace, capture)) = finished {
            let t = Arc::new(trace);
            recorder.record_arc(t.clone());
            if let Some(c) = capture {
                *c.lock().unwrap_or_else(|e| e.into_inner()) = Some(t);
            }
        }
    }
}

/// RAII handle for a wire-request root span. Wraps a root [`SpanGuard`]
/// carrying a [`RequestCtx`] — or, when the request lost the
/// head-sampling draw, suppresses span collection on this thread for the
/// request's duration. [`RequestGuard::finish`] returns the finished
/// trace (if one was collected) for slowlog admission.
pub struct RequestGuard {
    guard: Option<SpanGuard>,
    slot: Option<TraceSlot>,
    suppressing: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl RequestGuard {
    /// Close the root span and return the finished trace, if spans were
    /// collected (tracing on, request sampled, and this guard opened the
    /// root rather than nesting under an existing trace).
    pub fn finish(mut self) -> Option<Arc<Trace>> {
        drop(self.guard.take());
        let slot = self.slot.take();
        drop(self); // clears suppression
        slot.and_then(|s| s.lock().unwrap_or_else(|e| e.into_inner()).take())
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        drop(self.guard.take());
        if self.suppressing {
            SUPPRESS.with(|s| s.set(false));
            self.suppressing = false;
        }
    }
}

/// Open the root span for a wire request, attaching `ctx` to the trace
/// it builds. Head-sampling happens here: an unsampled request gets an
/// inert guard that also suppresses nested spans, so it records nothing.
/// The request's latency is still measured by the caller regardless.
///
/// If a trace is somehow already active on this thread, the span nests
/// under it and no context is attached (the outer request owns the
/// trace).
pub fn request_span(
    recorder: &Arc<FlightRecorder>,
    target: &'static str,
    ctx: RequestCtx,
) -> RequestGuard {
    let inert = |suppressing| RequestGuard {
        guard: None,
        slot: None,
        suppressing,
        _not_send: std::marker::PhantomData,
    };
    if !tracing_enabled() || SUPPRESS.with(|s| s.get()) {
        return inert(false);
    }
    if !crate::context::sampled(ctx.trace_id) {
        SUPPRESS.with(|s| s.set(true));
        return inert(true);
    }
    let g = span(recorder, target);
    let capture: TraceSlot = Arc::new(Mutex::new(None));
    let is_root = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        match slot.as_mut() {
            Some(b) if b.spans.len() == 1 && b.ctx.is_none() => {
                b.ctx = Some(ctx);
                b.slot = Some(capture.clone());
                true
            }
            _ => false,
        }
    });
    RequestGuard {
        guard: Some(g),
        slot: if is_root { Some(capture) } else { None },
        suppressing: false,
        _not_send: std::marker::PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, ObsLevel};

    #[test]
    fn nested_spans_build_one_trace_with_parents() {
        let _l = crate::lock_globals();
        let prev = set_level(ObsLevel::Full);
        let fr = Arc::new(FlightRecorder::new());
        {
            let _root = span(&fr, "outer");
            event("top", 1);
            {
                let _child = span(&fr, "inner");
                event("deep", 2);
            }
        }
        set_level(prev);
        let traces = fr.recent();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.root, "outer");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(
            t.spans[0].events,
            vec![TraceEvent {
                name: "top",
                value: 1
            }]
        );
        assert_eq!(
            t.spans[1].events,
            vec![TraceEvent {
                name: "deep",
                value: 2
            }]
        );
        assert!(t.total_ns >= t.spans[1].dur_ns);
    }

    #[test]
    fn spans_are_inert_when_off() {
        let _l = crate::lock_globals();
        let prev = set_level(ObsLevel::Counters);
        let fr = Arc::new(FlightRecorder::new());
        {
            let _g = span(&fr, "op");
            event("never", 1);
        }
        set_level(prev);
        assert!(fr.is_empty());
    }

    fn ctx(kind: &'static str) -> RequestCtx {
        RequestCtx {
            trace_id: crate::context::TraceId::mint(),
            tenant: "t0".to_string(),
            session: 7,
            kind,
        }
    }

    #[test]
    fn request_span_attaches_ctx_and_captures_the_trace() {
        let _l = crate::lock_globals();
        let prev = set_level(ObsLevel::Full);
        let fr = Arc::new(FlightRecorder::new());
        let c = ctx("assert-ind");
        let g = request_span(&fr, "server.request", c.clone());
        {
            let _child = span(&fr, "kb.assert");
        }
        let t = g.finish().expect("sampled request captures its trace");
        set_level(prev);
        assert_eq!(t.root, "server.request");
        assert_eq!(t.ctx.as_ref(), Some(&c));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].target, "kb.assert");
        assert_eq!(t.spans[1].parent, Some(0));
        // The recorder got the same trace.
        let recorded = fr.recent();
        assert_eq!(recorded.len(), 1);
        assert!(Arc::ptr_eq(&recorded[0], &t));
    }

    #[test]
    fn unsampled_request_suppresses_all_spans() {
        let _l = crate::lock_globals();
        let prev = set_level(ObsLevel::Full);
        let prev_rate = crate::context::set_sample_rate(0.0);
        let fr = Arc::new(FlightRecorder::new());
        let g = request_span(&fr, "server.request", ctx("retrieve"));
        {
            let _child = span(&fr, "query.retrieve");
        }
        assert!(g.finish().is_none());
        crate::context::set_sample_rate(prev_rate);
        // Suppression must be cleared once the guard is gone.
        {
            let _g = span(&fr, "after");
        }
        set_level(prev);
        assert_eq!(fr.len(), 1, "only the post-request span recorded");
        assert_eq!(fr.recent()[0].root, "after");
    }

    #[test]
    fn span_timed_feeds_the_histogram_at_full() {
        let _l = crate::lock_globals();
        let prev = set_level(ObsLevel::Full);
        let r = crate::Registry::new();
        let h = r.duration_histogram("span_test_ns", "").unwrap();
        let fr = Arc::new(FlightRecorder::new());
        {
            let _g = span_timed(&fr, "op", &h);
        }
        set_level(prev);
        assert_eq!(h.count(), 1);
    }
}
