//! E13 — observability overhead: the instrumented hot paths at
//! [`ObsLevel::Off`] vs [`ObsLevel::Counters`] vs [`ObsLevel::Full`] on
//! the software-IS classification/retrieval workload.
//!
//! The instrumentation contract (DESIGN.md §4.12) is that disabling
//! observability costs nothing measurable: every counter bump and span
//! open is gated on one relaxed atomic load of the global level. This
//! experiment measures the same retrieval loop at all three levels and
//! **asserts inline** that `Off` is within 3% of `Counters` — `Counters`
//! is the pre-observability baseline (the seed always counted), so the
//! assertion pins "near-zero cost when disabled" to a number CI can
//! fail on. `Full` is reported for context (spans + duration
//! histograms + flight recording); it is allowed to cost more.

use crate::experiments::{ns_per, time};
use crate::workload::software::{build, SoftwareConfig};
use classic_core::NormalForm;
use classic_kb::Kb;
use classic_obs::ObsLevel;
use std::fmt::Write as _;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var_os("CLASSIC_BENCH_SMOKE").is_some()
}

/// One pass over the query set: the instrumented retrieval path
/// (taxonomy classification, candidate testing).
fn pass(kb: &Kb, nfs: &[NormalForm]) -> usize {
    nfs.iter()
        .map(|nf| {
            classic_query::retrieve_nf(kb, nf)
                .expect("retrieval")
                .known
                .len()
        })
        .sum()
}

/// Minimum wall time of `trials` timed passes at the given level.
fn measure(kb: &Kb, nfs: &[NormalForm], level: ObsLevel, reps: usize, trials: usize) -> Duration {
    classic_obs::set_level(level);
    let mut best = Duration::MAX;
    for _ in 0..trials {
        let (_, t) = time(|| {
            for _ in 0..reps {
                std::hint::black_box(pass(kb, nfs));
            }
        });
        best = best.min(t);
    }
    best
}

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E13: observability overhead (Off / Counters / Full) =="
    );
    let _ = writeln!(
        out,
        "one relaxed atomic load gates every instrumentation point; Off must"
    );
    let _ = writeln!(
        out,
        "be within 3% of Counters (the pre-obs baseline) — asserted."
    );

    let functions = if smoke() { 600 } else { 8_000 };
    let reps = if smoke() { 2 } else { 6 };
    let trials = 5usize;
    let cfg = SoftwareConfig {
        modules: (functions / 25).max(4),
        functions,
        ..SoftwareConfig::default()
    };
    let mut sw = build(&cfg);
    let queries = sw.queries();
    let nfs: Vec<NormalForm> = queries
        .iter()
        .map(|(_, q)| sw.kb.normalize(q).expect("coherent query"))
        .collect();
    let n_queries = (reps * nfs.len()) as u64;
    let prior = classic_obs::level();

    // One warm-up pass so every level sees the same steady state.
    std::hint::black_box(pass(&sw.kb, &nfs));

    // Answers must not depend on the level.
    classic_obs::set_level(ObsLevel::Off);
    let a_off = pass(&sw.kb, &nfs);
    classic_obs::set_level(ObsLevel::Full);
    let a_full = pass(&sw.kb, &nfs);
    assert_eq!(a_off, a_full, "ObsLevel must never change answers");

    // Interleave measurements and keep per-level minima; re-measure on a
    // miss (minima converge down, so retries only tighten the estimate).
    let mut t_off = Duration::MAX;
    let mut t_counters = Duration::MAX;
    let mut t_full = Duration::MAX;
    let mut attempts = 0usize;
    loop {
        attempts += 1;
        t_counters = t_counters.min(measure(&sw.kb, &nfs, ObsLevel::Counters, reps, trials));
        t_off = t_off.min(measure(&sw.kb, &nfs, ObsLevel::Off, reps, trials));
        t_full = t_full.min(measure(&sw.kb, &nfs, ObsLevel::Full, reps, trials));
        if t_off.as_secs_f64() <= 1.03 * t_counters.as_secs_f64() || attempts >= 5 {
            break;
        }
    }
    classic_obs::set_level(prior);

    let _ = writeln!(
        out,
        "workload: {} individuals, {} queries/level, min of {} trials ({} attempt(s))",
        sw.kb.ind_count(),
        n_queries,
        trials,
        attempts
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>13}",
        "level", "µs/query", "vs counters"
    );
    for (name, t) in [("off", t_off), ("counters", t_counters), ("full", t_full)] {
        let _ = writeln!(
            out,
            "{:>10} {:>12.2} {:>12.3}x",
            name,
            ns_per(t, n_queries) / 1000.0,
            t.as_secs_f64() / t_counters.as_secs_f64().max(1e-12),
        );
    }
    let ratio = t_off.as_secs_f64() / t_counters.as_secs_f64().max(1e-12);
    assert!(
        ratio <= 1.03,
        "ObsLevel::Off must be within 3% of Counters, measured {ratio:.4}x"
    );
    let _ = writeln!(
        out,
        "asserted: off/counters = {ratio:.4} ≤ 1.03 (disabled observability is free)"
    );
    out
}
