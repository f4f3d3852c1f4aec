//! E10 — incremental retraction vs rebuild-from-scratch.
//!
//! The paper's update model is additive ("there is no 'removal'", §5), and
//! the 1989 system handled mistakes by rebuilding the database from the
//! surviving told facts. The dependency-journaled `retract-ind` makes the
//! withdrawal incremental: only the individuals whose derivations are
//! supported (directly or transitively) by the retracted fact are
//! re-derived and re-run to fixpoint.
//!
//! Workload: the software information system at E2/E3 scale. For each
//! size we retract K told `calls` assertions one at a time and compare
//!
//! * the incremental path (`Kb::retract_ind`), and
//! * the rebuild a retraction costs without it: replaying the surviving
//!   told script into a fresh KB (snapshot rendering excluded from the
//!   timed region — only the replay is charged).
//!
//! The oracle from the test suite runs inline: after the K retractions,
//! the incrementally-maintained KB must be in the same state as the
//! rebuilt one.

use crate::experiments::{ns_per, time};
use crate::workload::software::{build, SoftwareConfig};
use classic_core::desc::Concept;
use classic_kb::Kb;
use std::fmt::Write as _;

/// How many told facts each size retracts.
const K: usize = 12;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E10: incremental retraction vs rebuild-from-scratch ==="
    );
    let _ = writeln!(
        out,
        "claim: dependency-journaled retraction re-derives only the affected"
    );
    let _ = writeln!(
        out,
        "individuals; a system without it replays every surviving told fact"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>6} {:>10} {:>9} {:>12} {:>12} {:>9}",
        "inds", "K", "avgReset", "avgSteps", "µs/retract", "µs/rebuild", "speedup"
    );
    for functions in [400usize, 1_200, 2_400] {
        let cfg = SoftwareConfig {
            modules: (functions / 25).max(4),
            functions,
            ..SoftwareConfig::default()
        };
        let sw = build(&cfg);
        let mut kb = sw.kb;
        let n_inds = kb.ind_count();
        let targets = retraction_targets(&kb);
        assert_eq!(targets.len(), K, "workload yields enough told calls facts");

        // Incremental path, timed.
        let mut resets = 0u64;
        let mut steps = 0u64;
        let (_, t_retract) = time(|| {
            for (name, c) in &targets {
                let report = kb.retract_ind(name, c).expect("told fact retracts");
                resets += report.reset;
                steps += report.steps;
            }
        });

        // Rebuild baseline: what ONE retraction costs without the journal —
        // replay the surviving told script into a fresh KB. Rendering the
        // script is untimed; only the replay is charged.
        let script = classic_store::snapshot_to_string(&kb);
        let mut rebuilt = Kb::new();
        let (_, t_rebuild) = time(|| {
            classic_store::replay(&mut rebuilt, &script).expect("snapshot replays");
        });

        // The oracle, inline: incremental == rebuilt.
        assert!(
            classic_store::same_state(&kb, &rebuilt),
            "incremental retraction diverged from rebuild at {functions} functions"
        );

        let us_retract = ns_per(t_retract, K as u64) / 1000.0;
        let us_rebuild = ns_per(t_rebuild, 1) / 1000.0;
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>10.1} {:>9.1} {:>12.1} {:>12.1} {:>8.1}x",
            n_inds,
            K,
            resets as f64 / K as f64,
            steps as f64 / K as f64,
            us_retract,
            us_rebuild,
            us_rebuild / us_retract.max(f64::EPSILON),
        );
    }
    let _ = writeln!(
        out,
        "expected shape: µs/retract stays near-flat with database size while"
    );
    let _ = writeln!(
        out,
        "µs/rebuild grows with it, so the speedup widens on larger databases."
    );
    out
}

/// Pick K told `(FILLS calls …)` facts spread across the function
/// individuals. Returns `(individual name, told concept)` pairs exactly as
/// asserted, so `retract_ind` matches them syntactically.
fn retraction_targets(kb: &Kb) -> Vec<(String, Concept)> {
    let calls = kb.schema().symbols.find_role("calls").expect("role");
    let mut targets = Vec::with_capacity(K);
    // Stride so the picks are spread over the database, not clustered at
    // the low ids.
    let stride = (kb.ind_count() / (K * 2)).max(1);
    for id in kb.ind_ids().step_by(stride) {
        if targets.len() == K {
            break;
        }
        let ind = kb.ind(id);
        if let Some(c) = ind
            .told()
            .iter()
            .find(|c| matches!(c, Concept::Fills(r, _) if *r == calls))
        {
            let name = kb.schema().symbols.individual_name(ind.name).to_owned();
            targets.push((name, c.clone()));
        }
    }
    targets
}
