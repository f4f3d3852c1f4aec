//! The metrics registry: named atomic counters, gauges, and
//! log2-bucketed histograms, validated at registration and rendered by
//! [`crate::expo`].

use crate::level::{counters_enabled, tracing_enabled};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a metric registration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsErrorKind {
    /// The name is the empty string.
    Empty,
    /// A character outside `[a-z0-9_]` (the offending char).
    InvalidChar(char),
    /// A series with this name already exists in the registry.
    Duplicate,
}

/// A rejected metric registration, carrying the name and the byte
/// position of the offending character (0 for [`ObsErrorKind::Empty`] and
/// [`ObsErrorKind::Duplicate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError {
    /// The name as submitted.
    pub name: String,
    /// Byte offset of the character that failed validation.
    pub position: usize,
    /// What was wrong.
    pub kind: ObsErrorKind,
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ObsErrorKind::Empty => write!(f, "metric name may not be empty"),
            ObsErrorKind::InvalidChar(c) => write!(
                f,
                "invalid metric name {:?}: char {:?} at byte {} (allowed: [a-z0-9_])",
                self.name, c, self.position
            ),
            ObsErrorKind::Duplicate => {
                write!(f, "metric {:?} is already registered", self.name)
            }
        }
    }
}

impl std::error::Error for ObsError {}

/// Validate a series name: nonempty, every char in `[a-z0-9_]`. Rejecting
/// anything else at registration means exposition can never emit a series
/// that needs escaping — or two series whose escaped forms collide.
pub fn validate_name(name: &str) -> Result<(), ObsError> {
    if name.is_empty() {
        return Err(ObsError {
            name: String::new(),
            position: 0,
            kind: ObsErrorKind::Empty,
        });
    }
    for (pos, c) in name.char_indices() {
        if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return Err(ObsError {
                name: name.to_owned(),
                position: pos,
                kind: ObsErrorKind::InvalidChar(c),
            });
        }
    }
    Ok(())
}

#[derive(Debug)]
struct SeriesCore {
    name: String,
    help: String,
    value: AtomicU64,
}

/// A monotonically increasing counter. Cheap to clone (an `Arc`); bumps
/// are relaxed atomic adds, suppressed below [`crate::ObsLevel::Counters`].
#[derive(Debug, Clone)]
pub struct Counter(Arc<SeriesCore>);

impl Counter {
    /// A counter not attached to any registry (for tests and defaults).
    pub fn detached(name: &str) -> Counter {
        Counter(Arc::new(SeriesCore {
            name: name.to_owned(),
            help: String::new(),
            value: AtomicU64::new(0),
        }))
    }

    /// Increment by one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Increment by `n`. One relaxed load when the level is `Off`.
    #[inline]
    pub fn add(&self, n: u64) {
        if counters_enabled() {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The registered series name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    fn reset(&self) {
        self.0.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can be set to arbitrary (unsigned) levels.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<SeriesCore>);

impl Gauge {
    /// A gauge not attached to any registry (for tests and defaults).
    pub fn detached(name: &str) -> Gauge {
        Gauge(Arc::new(SeriesCore {
            name: name.to_owned(),
            help: String::new(),
            value: AtomicU64::new(0),
        }))
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if counters_enabled() {
            self.0.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The registered series name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    fn reset(&self) {
        self.0.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 buckets: values are bucketed by bit length, so bucket
/// `b` holds `v` with `v == 0 → b == 0`, else `b == 64 - v.leading_zeros()`
/// (upper bound `2^b - 1`). 65 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    name: String,
    help: String,
    /// Whether this histogram records *durations*: duration histograms
    /// only fill at `ObsLevel::Full` (the caller must run a clock to
    /// feed them), value histograms fill from `Counters` up.
    duration: bool,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A log2-bucketed histogram (bit-length buckets, power-of-two upper
/// bounds). `record` is three relaxed atomic adds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// A point-in-time copy of one histogram, used by exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts, indexed by bit
    /// length of the observed value.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one (for cross-registry roll-up).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// The log2 bucket index for a value: its bit length.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// A histogram not attached to any registry (for tests and
    /// defaults). `duration` selects the fill level as in
    /// [`Registry::duration_histogram`].
    pub fn detached(name: &str, duration: bool) -> Histogram {
        Histogram(Arc::new(HistogramCore {
            name: name.to_owned(),
            help: String::new(),
            duration,
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let on = if self.0.duration {
            tracing_enabled()
        } else {
            counters_enabled()
        };
        if on {
            self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
            self.0.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The registered series name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.sum.store(0, Ordering::Relaxed);
        self.0.count.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
}

impl RegistryInner {
    fn has(&self, name: &str) -> bool {
        self.counters.iter().any(|c| c.0.name == name)
            || self.gauges.iter().any(|g| g.0.name == name)
            || self.histograms.iter().any(|h| h.0.name == name)
    }
}

/// A point-in-time copy of a whole registry (or several merged), the
/// input to both exposition formats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// name → (help, value)
    pub counters: BTreeMap<String, (String, u64)>,
    /// name → (help, value)
    pub gauges: BTreeMap<String, (String, u64)>,
    /// name → (help, state)
    pub histograms: BTreeMap<String, (String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Merge another snapshot into this one, summing same-named series.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, (help, v)) in &other.counters {
            let e = self
                .counters
                .entry(name.clone())
                .or_insert_with(|| (help.clone(), 0));
            e.1 += v;
        }
        for (name, (help, v)) in &other.gauges {
            let e = self
                .gauges
                .entry(name.clone())
                .or_insert_with(|| (help.clone(), 0));
            e.1 += v;
        }
        for (name, (help, h)) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some((_, mine)) => mine.merge(h),
                None => {
                    self.histograms
                        .insert(name.clone(), (help.clone(), h.clone()));
                }
            }
        }
    }
}

/// A set of named metric series. Instantiable — every [`Kb`]-like owner
/// gets its own registry so tests and parallel sessions never share
/// counts — and enrolled in a process-global list so CLI tools can dump
/// an aggregated snapshot of everything the process did
/// ([`crate::expo::snapshot_all`]).
///
/// [`Kb`]: https://docs.rs/classic-kb
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Preserve the final state in the process-global roll-up: CLI
        // `--metrics` dumps run after the KBs they measured are gone.
        crate::expo::bury(&self.snapshot());
    }
}

impl Registry {
    /// Create a registry and enroll it in the process-global roll-up
    /// list.
    pub fn new() -> Arc<Registry> {
        let r = Arc::new(Registry {
            inner: Mutex::new(RegistryInner::default()),
        });
        crate::expo::enroll(&r);
        r
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn check_name(&self, name: &str) -> Result<(), ObsError> {
        validate_name(name)?;
        if self.lock().has(name) {
            return Err(ObsError {
                name: name.to_owned(),
                position: 0,
                kind: ObsErrorKind::Duplicate,
            });
        }
        Ok(())
    }

    /// Register a counter. Rejects duplicate and invalid names.
    pub fn counter(&self, name: &str, help: &str) -> Result<Counter, ObsError> {
        self.check_name(name)?;
        let c = Counter(Arc::new(SeriesCore {
            name: name.to_owned(),
            help: help.to_owned(),
            value: AtomicU64::new(0),
        }));
        self.lock().counters.push(c.clone());
        Ok(c)
    }

    /// Register a gauge. Rejects duplicate and invalid names.
    pub fn gauge(&self, name: &str, help: &str) -> Result<Gauge, ObsError> {
        self.check_name(name)?;
        let g = Gauge(Arc::new(SeriesCore {
            name: name.to_owned(),
            help: help.to_owned(),
            value: AtomicU64::new(0),
        }));
        self.lock().gauges.push(g.clone());
        Ok(g)
    }

    /// Register a *value* histogram (fills from `ObsLevel::Counters` up).
    pub fn histogram(&self, name: &str, help: &str) -> Result<Histogram, ObsError> {
        self.histogram_impl(name, help, false)
    }

    /// Register a *duration* histogram (nanoseconds; fills only at
    /// `ObsLevel::Full`, because feeding it requires running a clock).
    pub fn duration_histogram(&self, name: &str, help: &str) -> Result<Histogram, ObsError> {
        self.histogram_impl(name, help, true)
    }

    fn histogram_impl(
        &self,
        name: &str,
        help: &str,
        duration: bool,
    ) -> Result<Histogram, ObsError> {
        self.check_name(name)?;
        let h = Histogram(Arc::new(HistogramCore {
            name: name.to_owned(),
            help: help.to_owned(),
            duration,
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }));
        self.lock().histograms.push(h.clone());
        Ok(h)
    }

    /// Fetch the counter named `name`, registering it if absent. Lets a
    /// layer that does not own the registry (query, store) attach its
    /// series idempotently. Errors if the name is invalid or already
    /// names a series of another kind.
    pub fn get_or_counter(&self, name: &str, help: &str) -> Result<Counter, ObsError> {
        validate_name(name)?;
        let mut inner = self.lock();
        if let Some(c) = inner.counters.iter().find(|c| c.0.name == name) {
            return Ok(c.clone());
        }
        if inner.has(name) {
            return Err(ObsError {
                name: name.to_owned(),
                position: 0,
                kind: ObsErrorKind::Duplicate,
            });
        }
        let c = Counter(Arc::new(SeriesCore {
            name: name.to_owned(),
            help: help.to_owned(),
            value: AtomicU64::new(0),
        }));
        inner.counters.push(c.clone());
        Ok(c)
    }

    /// Fetch the gauge named `name`, registering it if absent (see
    /// [`Registry::get_or_counter`]).
    pub fn get_or_gauge(&self, name: &str, help: &str) -> Result<Gauge, ObsError> {
        validate_name(name)?;
        let mut inner = self.lock();
        if let Some(g) = inner.gauges.iter().find(|g| g.0.name == name) {
            return Ok(g.clone());
        }
        if inner.has(name) {
            return Err(ObsError {
                name: name.to_owned(),
                position: 0,
                kind: ObsErrorKind::Duplicate,
            });
        }
        let g = Gauge(Arc::new(SeriesCore {
            name: name.to_owned(),
            help: help.to_owned(),
            value: AtomicU64::new(0),
        }));
        inner.gauges.push(g.clone());
        Ok(g)
    }

    /// Fetch the *value* histogram named `name`, registering it if absent
    /// (see [`Registry::get_or_counter`]). A same-named histogram with the
    /// other duration flavor counts as a different kind.
    pub fn get_or_histogram(&self, name: &str, help: &str) -> Result<Histogram, ObsError> {
        self.get_or_histogram_impl(name, help, false)
    }

    /// Fetch the *duration* histogram named `name`, registering it if
    /// absent (see [`Registry::get_or_counter`]).
    pub fn get_or_duration_histogram(&self, name: &str, help: &str) -> Result<Histogram, ObsError> {
        self.get_or_histogram_impl(name, help, true)
    }

    fn get_or_histogram_impl(
        &self,
        name: &str,
        help: &str,
        duration: bool,
    ) -> Result<Histogram, ObsError> {
        validate_name(name)?;
        let mut inner = self.lock();
        if let Some(h) = inner
            .histograms
            .iter()
            .find(|h| h.0.name == name && h.0.duration == duration)
        {
            return Ok(h.clone());
        }
        if inner.has(name) {
            return Err(ObsError {
                name: name.to_owned(),
                position: 0,
                kind: ObsErrorKind::Duplicate,
            });
        }
        let h = Histogram(Arc::new(HistogramCore {
            name: name.to_owned(),
            help: help.to_owned(),
            duration,
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }));
        inner.histograms.push(h.clone());
        Ok(h)
    }

    /// Copy out every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let mut s = MetricsSnapshot::default();
        for c in &inner.counters {
            s.counters
                .insert(c.0.name.clone(), (c.0.help.clone(), c.get()));
        }
        for g in &inner.gauges {
            s.gauges
                .insert(g.0.name.clone(), (g.0.help.clone(), g.get()));
        }
        for h in &inner.histograms {
            s.histograms
                .insert(h.0.name.clone(), (h.0.help.clone(), h.snapshot()));
        }
        s
    }

    /// Zero every series (handles stay valid).
    pub fn reset(&self) {
        let inner = self.lock();
        for c in &inner.counters {
            c.reset();
        }
        for g in &inner.gauges {
            g.reset();
        }
        for h in &inner.histograms {
            h.reset();
        }
    }

    /// Render this registry alone in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        crate::expo::render_prometheus(&self.snapshot())
    }

    /// Render this registry alone as JSON.
    pub fn render_json(&self) -> String {
        crate::expo::render_json(&self.snapshot())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated_with_positions() {
        let r = Registry::new();
        let e = r.counter("bad-name", "").unwrap_err();
        assert_eq!(e.kind, ObsErrorKind::InvalidChar('-'));
        assert_eq!(e.position, 3);
        let e = r.counter("Upper", "").unwrap_err();
        assert_eq!(e.kind, ObsErrorKind::InvalidChar('U'));
        assert_eq!(e.position, 0);
        let e = r.counter("", "").unwrap_err();
        assert_eq!(e.kind, ObsErrorKind::Empty);
    }

    #[test]
    fn duplicates_are_rejected_across_kinds() {
        let r = Registry::new();
        r.counter("x_total", "").unwrap();
        assert_eq!(
            r.gauge("x_total", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
        assert_eq!(
            r.histogram("x_total", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
    }

    #[test]
    fn get_or_returns_the_same_series_and_rejects_kind_clashes() {
        let r = Registry::new();
        let a = r.get_or_counter("q_total", "first").unwrap();
        let b = r.get_or_counter("q_total", "ignored").unwrap();
        a.bump();
        assert_eq!(b.get(), 1, "both handles name the same atomic");
        assert_eq!(
            r.get_or_gauge("q_total", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
        // Duration flavor is part of the histogram's identity.
        r.get_or_histogram("h_vals", "").unwrap();
        assert_eq!(
            r.get_or_duration_histogram("h_vals", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
    }

    #[test]
    fn log2_buckets_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_and_histograms_count_at_default_level() {
        let r = Registry::new();
        let c = r.counter("c_total", "").unwrap();
        let h = r.histogram("h_vals", "").unwrap();
        c.bump();
        c.add(2);
        h.record(5);
        assert_eq!(c.get(), 3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 5);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
    }
}
