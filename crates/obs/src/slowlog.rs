//! The server-wide slow-op log: a bounded ring of the K slowest wire
//! requests seen since startup (or the last clear), each retaining its
//! request identity, duration, and — when the request was sampled — the
//! full span tree.
//!
//! Process-global (like the metrics roll-up in [`crate::expo`]) so the
//! server's `GET /slowlog` and the REPL's `(obs-slowlog [n])` read the
//! same structure. Admission is *always-keep-slowest*: even a request
//! that lost the head-sampling draw enters on duration alone (with
//! `trace: None`), so sampling never hides a latency outlier.

use crate::context::RequestCtx;
use crate::expo::json_string;
use crate::flight::Trace;
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of slowest requests retained.
pub const DEFAULT_SLOWLOG_CAP: usize = 32;

/// One slow request: identity, measured wall time, and the span tree if
/// the request was sampled.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// The request's wire identity.
    pub ctx: RequestCtx,
    /// Wall time measured at the server front, nanoseconds. (For sampled
    /// requests this can differ slightly from `trace.total_ns`, which
    /// times only the root span.)
    pub dur_ns: u64,
    /// The full span tree; `None` when the request lost the sampling
    /// draw or tracing was below [`crate::ObsLevel::Full`].
    pub trace: Option<Arc<Trace>>,
}

impl SlowOp {
    /// The largest `dirty_cone` event recorded anywhere in the span
    /// tree — the size of the cone an analysis refresh looked at, in a
    /// `(lint-kb)` or a write with lint-on-write on — or `None` for
    /// requests that refreshed nothing and untraced ones.
    pub fn dirty_cone(&self) -> Option<u64> {
        let t = self.trace.as_ref()?;
        t.spans
            .iter()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.name == "dirty_cone")
            .map(|e| e.value)
            .max()
    }

    /// Every event in the span tree, summed by name, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        if let Some(t) = &self.trace {
            for e in t.spans.iter().flat_map(|s| s.events.iter()) {
                match out.iter_mut().find(|(n, _)| *n == e.name) {
                    Some((_, v)) => *v += e.value,
                    None => out.push((e.name, e.value)),
                }
            }
        }
        out.sort_by_key(|&(n, _)| n);
        out
    }

    /// One strict-JSON object for this entry.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"trace_id\":{},\"tenant\":{},\"session\":{},\"kind\":{},\"dur_ns\":{},\"sampled\":{}",
            json_string(&self.ctx.trace_id.to_string()),
            json_string(&self.ctx.tenant),
            self.ctx.session,
            json_string(self.ctx.kind),
            self.dur_ns,
            self.trace.is_some(),
        ));
        match self.dirty_cone() {
            Some(n) => s.push_str(&format!(",\"dirty_cone\":{n}")),
            None => s.push_str(",\"dirty_cone\":null"),
        }
        s.push_str(",\"counters\":{");
        for (i, (n, v)) in self.counters().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json_string(n), v));
        }
        s.push('}');
        match &self.trace {
            Some(t) => {
                s.push_str(&format!(
                    ",\"root\":{},\"spans\":{},\"tree\":{}",
                    json_string(t.root),
                    t.spans.len(),
                    json_string(&t.render())
                ));
            }
            None => s.push_str(",\"root\":null,\"spans\":0,\"tree\":null"),
        }
        s.push('}');
        s
    }
}

/// A bounded, duration-sorted ring of [`SlowOp`]s. Thread-safe;
/// admission is one short mutex hold.
pub struct SlowLog {
    cap: usize,
    inner: Mutex<Vec<SlowOp>>,
}

impl SlowLog {
    /// A slowlog retaining the `cap` slowest requests.
    pub fn with_capacity(cap: usize) -> SlowLog {
        SlowLog {
            cap: cap.max(1),
            inner: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SlowOp>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit a completed request. Kept only if it ranks among the `cap`
    /// slowest seen so far.
    pub fn record(&self, ctx: RequestCtx, dur_ns: u64, trace: Option<Arc<Trace>>) {
        let mut inner = self.lock();
        let pos = inner.partition_point(|s| s.dur_ns >= dur_ns);
        if pos < self.cap {
            inner.insert(pos, SlowOp { ctx, dur_ns, trace });
            inner.truncate(self.cap);
        }
    }

    /// The up-to-`n` slowest entries, slowest first.
    pub fn entries(&self, n: usize) -> Vec<SlowOp> {
        let inner = self.lock();
        inner.iter().take(n).cloned().collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no request has been admitted since the last clear.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained entry.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The up-to-`n` slowest entries as one strict-JSON document:
    /// `{"slowlog":[…]}`, slowest first.
    pub fn render_json(&self, n: usize) -> String {
        let entries = self.entries(n);
        let mut s = String::from("{\"slowlog\":[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.render_json());
        }
        s.push_str("]}");
        s
    }

    /// The up-to-`n` slowest entries as indented text for the REPL.
    pub fn render_text(&self, n: usize) -> String {
        let entries = self.entries(n);
        if entries.is_empty() {
            return "slowlog: empty (no wire requests recorded)\n".to_string();
        }
        let mut s = String::new();
        for (i, e) in entries.iter().enumerate() {
            s.push_str(&format!(
                "{}. {:.1}µs {} tenant={} session={} trace={}{}",
                i + 1,
                e.dur_ns as f64 / 1_000.0,
                e.ctx.kind,
                e.ctx.tenant,
                e.ctx.session,
                e.ctx.trace_id,
                if e.trace.is_some() {
                    ""
                } else {
                    " (unsampled)"
                },
            ));
            if let Some(cone) = e.dirty_cone() {
                s.push_str(&format!(" dirty_cone={cone}"));
            }
            s.push('\n');
            if let Some(t) = &e.trace {
                for line in t.render().lines() {
                    s.push_str("   ");
                    s.push_str(line);
                    s.push('\n');
                }
            }
        }
        s
    }
}

/// The process-global slowlog ([`DEFAULT_SLOWLOG_CAP`] entries) shared
/// by the server endpoints and the REPL.
pub fn global_slowlog() -> &'static SlowLog {
    static GLOBAL: OnceLock<SlowLog> = OnceLock::new();
    GLOBAL.get_or_init(|| SlowLog::with_capacity(DEFAULT_SLOWLOG_CAP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceId;
    use crate::flight::{SpanRecord, TraceEvent};

    fn ctx(kind: &'static str, tenant: &str) -> RequestCtx {
        RequestCtx {
            trace_id: TraceId::mint(),
            tenant: tenant.to_string(),
            session: 1,
            kind,
        }
    }

    fn traced(ctx: &RequestCtx, dur: u64, cone: Option<u64>) -> Arc<Trace> {
        let mut events = Vec::new();
        if let Some(c) = cone {
            events.push(TraceEvent {
                name: "dirty_cone",
                value: c,
            });
        }
        Arc::new(Trace {
            root: "server.request",
            total_ns: dur,
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                target: "server.request",
                start_ns: 0,
                dur_ns: dur,
                events,
            }],
            ctx: Some(ctx.clone()),
        })
    }

    #[test]
    fn keeps_only_the_slowest_sorted() {
        let log = SlowLog::with_capacity(2);
        for (kind, dur) in [("a", 10u64), ("b", 30), ("c", 20)] {
            let c = ctx(Box::leak(kind.to_string().into_boxed_str()), "t");
            log.record(c, dur, None);
        }
        let e = log.entries(10);
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].dur_ns, 30);
        assert_eq!(e[1].dur_ns, 20);
    }

    #[test]
    fn unsampled_entries_still_admitted() {
        let log = SlowLog::with_capacity(4);
        log.record(ctx("retrieve", "t0"), 99, None);
        let json = log.render_json(4);
        assert!(json.contains("\"sampled\":false"));
        assert!(json.contains("\"tree\":null"));
        // Strict-JSON parseable.
        crate::Json::parse(&json).expect("slowlog JSON is strict-valid");
    }

    #[test]
    fn dirty_cone_and_counters_extracted_from_events() {
        let log = SlowLog::with_capacity(4);
        let c = ctx("assert-ind", "t1");
        let t = traced(&c, 500, Some(7));
        log.record(c, 500, Some(t));
        let e = &log.entries(1)[0];
        assert_eq!(e.dirty_cone(), Some(7));
        assert_eq!(e.counters(), vec![("dirty_cone", 7)]);
        let json = log.render_json(1);
        assert!(json.contains("\"dirty_cone\":7"));
        assert!(json.contains("\"root\":\"server.request\""));
        crate::Json::parse(&json).expect("slowlog JSON is strict-valid");
        let text = log.render_text(1);
        assert!(text.contains("tenant=t1"));
        assert!(text.contains("dirty_cone=7"));
    }
}
