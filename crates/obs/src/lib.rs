//! classic-obs: the observability core of the CLASSIC reproduction.
//!
//! Zero external dependencies, by design: this crate sits *below*
//! `classic-core` in the dependency graph so every layer — subsumption
//! kernel, knowledge base, query answering, durable store — can
//! instrument itself, and the workspace still builds offline.
//!
//! Three cooperating pieces:
//!
//! - **[`ObsLevel`]** — one global `AtomicU8`. Every probe site checks it
//!   with a single relaxed load; at [`ObsLevel::Off`] that load is the
//!   *entire* cost of the instrumentation (experiment E13 pins this at
//!   ≤ 3% on the E9 classification workload).
//! - **[`Registry`]** — named counters, gauges, and log2-bucketed
//!   histograms. Instantiable (each `Kb` owns one, so tests never share
//!   counts) and enrolled in a process-global roll-up for `--metrics`
//!   dumps. One verb per kind gets or registers a series; names are
//!   validated ([`validate_name`]): a name held by another kind and
//!   anything outside `[a-z0-9_]` are rejected with a positioned
//!   [`ObsError`], so exposition can never emit colliding series.
//!   Snapshots render as Prometheus text or JSON ([`expo`]).
//! - **[`span`] / [`event`] / [`all_traces`]** — RAII spans with
//!   parent/child ids and monotonic nanosecond timings, assembled into
//!   per-operation traces; one process-wide fixed-capacity ring
//!   ([`flight`]) retains the most recent and the slowest traces for
//!   `(obs-trace <op>)`-style postmortems.
//!
//! ```
//! use classic_obs::Registry;
//!
//! let registry = Registry::new();
//! let tests = registry.counter("demo_subsumption_tests_total",
//!                              "structural subsumption tests run").unwrap();
//! tests.bump(); // relaxed add at the default level (Counters)
//! assert_eq!(tests.get(), 1);
//! let text = classic_obs::render_prometheus(&registry.snapshot());
//! assert!(text.contains("demo_subsumption_tests_total 1"));
//! ```

#![deny(missing_docs)]

pub mod chrome;
pub mod context;
pub mod expo;
pub mod flight;
pub mod json;
pub mod level;
pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use chrome::render_chrome_trace;
pub use context::{
    next_session_id, sample_rate, sampled, set_sample_rate, RequestCtx, TraceId, TraceIdError,
    TraceIdErrorKind, MAX_TRACE_ID_LEN,
};
pub use expo::{
    json_string, render_all_json, render_all_prometheus, render_json, render_prometheus,
    render_prometheus_by_tenant, snapshot_all, write_json_string, Exemplar, ExemplarStore,
};
pub use flight::{all_traces, find_trace, trace_ops, traces_for, SpanRecord, Trace, TraceEvent};
pub use json::{Json, JsonError};
pub use level::{counters_enabled, level, set_level, tracing_enabled, ObsLevel};
pub use metrics::{
    bucket_of, validate_name, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    ObsError, ObsErrorKind, Registry, HISTOGRAM_BUCKETS,
};
pub use slowlog::{global_slowlog, SlowLog, SlowOp, DEFAULT_SLOWLOG_CAP};
pub use trace::{event, request_span, span, span_timed, RequestGuard, SpanGuard};

/// Serializes the tests, in any module of this crate, that change the
/// process-global level or sample rate.
#[cfg(test)]
pub(crate) fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
