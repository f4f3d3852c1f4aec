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
    /// A series of another kind (or histogram flavour) already holds
    /// this name in the registry.
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

/// What a series is. A histogram's duration flavour is part of its
/// kind: a name registered as one flavour is not the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram { duration: bool },
}

/// One registered series, of any kind.
#[derive(Debug)]
struct Series {
    name: String,
    help: String,
    kind: Kind,
    /// A counter's or gauge's value; a histogram's observation count.
    value: AtomicU64,
    /// A histogram's sum of observed values.
    sum: AtomicU64,
    /// A histogram's per-bucket counts; empty for counters and gauges.
    buckets: Box<[AtomicU64]>,
}

impl Series {
    fn new(name: &str, help: &str, kind: Kind) -> Series {
        let buckets = match kind {
            Kind::Histogram { .. } => HISTOGRAM_BUCKETS,
            Kind::Counter | Kind::Gauge => 0,
        };
        Series {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
            value: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A histogram's current state.
    fn histogram(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.value.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A monotonically increasing counter. Cheap to clone (an `Arc`); bumps
/// are relaxed atomic adds, suppressed below [`crate::ObsLevel::Counters`].
#[derive(Debug, Clone)]
pub struct Counter(Arc<Series>);

impl Counter {
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
}

/// A gauge: a value that can be set to arbitrary (unsigned) levels.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<Series>);

impl Gauge {
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
}

/// Number of log2 buckets: values are bucketed by bit length, so bucket
/// `b` holds `v` with `v == 0 → b == 0`, else `b == 64 - v.leading_zeros()`
/// (upper bound `2^b - 1`). 65 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram (bit-length buckets, power-of-two upper
/// bounds). `record` is three relaxed atomic adds. A *duration*
/// histogram ([`Registry::duration_histogram`]) only fills at
/// `ObsLevel::Full` (the caller must run a clock to feed it); a value
/// histogram fills from `Counters` up.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Series>);

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
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let on = if self.0.kind == (Kind::Histogram { duration: true }) {
            tracing_enabled()
        } else {
            counters_enabled()
        };
        if on {
            self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
            self.0.value.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
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
        self.0.histogram()
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
    /// Merge another snapshot into this one: same-named counters and
    /// histograms are summed, and a gauge keeps the larger level — a
    /// gauge is a level, and two stores at generation 1 are not a store
    /// at generation 2.
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
            e.1 = e.1.max(*v);
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
/// Each kind has one registration verb, which gets or registers: asked
/// again for a name it holds as the same kind (and duration flavour),
/// the registry returns the series it has. Owners register their series
/// when they are built and keep the handles; a lookup takes the
/// registry's mutex and scans it.
///
/// [`Kb`]: https://docs.rs/classic-kb
pub struct Registry {
    series: Mutex<Vec<Arc<Series>>>,
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Preserve the final state in the process-global roll-up: CLI
        // `--metrics` dumps run after the KBs they measured are gone.
        crate::expo::bury(self.snapshot());
    }
}

impl Registry {
    /// Create a registry and enroll it in the process-global roll-up
    /// list.
    pub fn new() -> Arc<Registry> {
        let r = Arc::new(Registry {
            series: Mutex::new(Vec::new()),
        });
        crate::expo::enroll(&r);
        r
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Series>>> {
        self.series.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The series named `name` if it is of `kind`, else a new one. Errs
    /// if the name is invalid or names a series of another kind.
    fn register(&self, name: &str, help: &str, kind: Kind) -> Result<Arc<Series>, ObsError> {
        validate_name(name)?;
        let mut series = self.lock();
        match series.iter().find(|s| s.name == name) {
            Some(s) if s.kind == kind => Ok(Arc::clone(s)),
            Some(_) => Err(ObsError {
                name: name.to_owned(),
                position: 0,
                kind: ObsErrorKind::Duplicate,
            }),
            None => {
                let s = Arc::new(Series::new(name, help, kind));
                series.push(Arc::clone(&s));
                Ok(s)
            }
        }
    }

    /// The counter named `name`, registered if absent.
    pub fn counter(&self, name: &str, help: &str) -> Result<Counter, ObsError> {
        self.register(name, help, Kind::Counter).map(Counter)
    }

    /// The gauge named `name`, registered if absent.
    pub fn gauge(&self, name: &str, help: &str) -> Result<Gauge, ObsError> {
        self.register(name, help, Kind::Gauge).map(Gauge)
    }

    /// The *value* histogram named `name` (fills from `ObsLevel::Counters`
    /// up), registered if absent.
    pub fn histogram(&self, name: &str, help: &str) -> Result<Histogram, ObsError> {
        self.register(name, help, Kind::Histogram { duration: false })
            .map(Histogram)
    }

    /// The *duration* histogram named `name` (nanoseconds; fills only at
    /// `ObsLevel::Full`, because feeding it requires running a clock),
    /// registered if absent.
    pub fn duration_histogram(&self, name: &str, help: &str) -> Result<Histogram, ObsError> {
        self.register(name, help, Kind::Histogram { duration: true })
            .map(Histogram)
    }

    /// Copy out every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for s in self.lock().iter() {
            let (name, help) = (s.name.clone(), s.help.clone());
            let value = s.value.load(Ordering::Relaxed);
            match s.kind {
                Kind::Counter => {
                    snap.counters.insert(name, (help, value));
                }
                Kind::Gauge => {
                    snap.gauges.insert(name, (help, value));
                }
                Kind::Histogram { .. } => {
                    snap.histograms.insert(name, (help, s.histogram()));
                }
            }
        }
        snap
    }

    /// Zero every counter and histogram (handles stay valid). Gauges are
    /// levels, not counts, and keep their values: a store's generation
    /// is what it is whatever was counted before.
    pub fn reset(&self) {
        for s in self.lock().iter().filter(|s| s.kind != Kind::Gauge) {
            s.reset();
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.lock().len())
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
    fn registering_again_returns_the_same_series_and_rejects_kind_clashes() {
        let r = Registry::new();
        let a = r.counter("q_total", "first").unwrap();
        let b = r.counter("q_total", "ignored").unwrap();
        a.bump();
        assert_eq!(b.get(), 1, "both handles name the same atomic");
        assert_eq!(
            r.gauge("q_total", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
        let g = r.gauge("q_level", "").unwrap();
        g.set(4);
        assert_eq!(r.gauge("q_level", "").unwrap().get(), 4);
        // Duration flavor is part of the histogram's identity.
        r.histogram("h_vals", "").unwrap().record(2);
        assert_eq!(r.histogram("h_vals", "").unwrap().count(), 1);
        assert_eq!(
            r.duration_histogram("h_vals", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
        r.duration_histogram("h_ns", "").unwrap();
        assert_eq!(
            r.histogram("h_ns", "").unwrap_err().kind,
            ObsErrorKind::Duplicate
        );
        assert_eq!(r.snapshot().counters.len(), 1, "one series per name");
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

    #[test]
    fn reset_zeroes_counts_and_keeps_levels() {
        let r = Registry::new();
        let c = r.counter("c_total", "").unwrap();
        let g = r.gauge("g_level", "").unwrap();
        let h = r.duration_histogram("h_ns", "").unwrap();
        c.add(3);
        g.set(7);
        r.reset();
        assert_eq!((c.get(), g.get(), h.count()), (0, 7, 0));
    }
}
