//! E16 — incremental re-lint cost vs full analysis, across KB sizes.
//!
//! The incremental analyzer's claim (DESIGN.md §4.15): after a
//! mutation, [`AnalysisState::refresh`] re-checks only the mutation's
//! dependency cone, so its cost tracks the structure the write touched
//! — not the KB size — while its report stays *identical* to a from-
//! scratch [`analyze`]. Workload: M independent `FILLS` chains of
//! length L; one assertion lands on one chain's *tail*, so the dirty
//! cone is the tail plus its transitive filler hosts — that one chain
//! (≈L individuals) — no matter how large M grows.
//!
//! Three properties are asserted inline, not just printed:
//!
//! * **equality** — `state.report(&kb)` after the incremental refresh
//!   is `==` (codes, spans, provenance, counts) to a full `analyze`
//!   of a cloned KB;
//! * **constant cone** — the re-linted count is bounded by the chain
//!   length, independent of the number of chains;
//! * **speedup** — at the largest size the incremental refresh is
//!   strictly faster than the full pass.

use crate::experiments::{ns_per, time};
use classic_analyze::{analyze, AnalysisState};
use classic_core::desc::{Concept, IndRef};
use classic_kb::Kb;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Individuals per chain (the expected cone size).
const CHAIN_LEN: usize = 8;

pub fn run() -> String {
    let smoke = std::env::var("CLASSIC_BENCH_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[50, 100]
    } else {
        &[250, 1000, 4000]
    };

    let mut out = String::new();
    let _ = writeln!(out, "== E16: incremental re-lint vs full analysis ===");
    let _ = writeln!(
        out,
        "claim: refresh cost follows the dirty cone (one {CHAIN_LEN}-long chain),"
    );
    let _ = writeln!(
        out,
        "not the KB size, with the report equal to a full analyze (asserted)"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>6} {:>9} {:>10} {:>10} {:>9}",
        "chains", "inds", "cone", "relinted", "µs incr", "µs full", "speedup"
    );

    for (ix, &chains) in sizes.iter().enumerate() {
        let mut kb = build(chains);
        let mut state = AnalysisState::new();
        // Prime: the first refresh is the full pass by construction.
        state.refresh(&kb);

        // One write on chain 0's tail, marked the way the server marks
        // assertion cones (post-op, seeded with the written individual).
        // The cone then climbs the chain through the filler hosts.
        let tail_name = format!("n0x{}", CHAIN_LEN - 1);
        let tail = kb
            .schema()
            .symbols
            .find_individual(&tail_name)
            .expect("chain tail exists");
        let tail_id = kb.ind_id(tail).expect("tail is materialized");
        let next = kb.schema().symbols.find_role("next").expect("role");
        kb.assert_ind(&tail_name, &Concept::AtLeast(1, next))
            .expect("tail bound is coherent");
        state.mark_dirty(&kb, &BTreeSet::from([tail_id]));

        let (refresh, t_inc) = time(|| state.refresh(&kb));
        let full_kb = kb.clone();
        let (full_report, t_full) = time(|| analyze(&full_kb));

        // Equality by construction, pinned here on every run.
        let inc_report = state.report(&kb);
        assert_eq!(
            inc_report, full_report,
            "incremental report diverged from full analysis at {chains} chains"
        );
        // The cone is one chain, however many chains exist. The bound
        // is loose (2×) to absorb consulted-by neighbors, but must not
        // scale with `chains`.
        assert!(
            refresh.relinted <= 2 * CHAIN_LEN,
            "re-linted {} individuals at {chains} chains; cone should stay ≈{CHAIN_LEN}",
            refresh.relinted
        );
        if ix == sizes.len() - 1 {
            assert!(
                t_inc < t_full,
                "incremental refresh ({t_inc:?}) not faster than full analysis ({t_full:?})"
            );
        }

        let us_inc = ns_per(t_inc, 1) / 1000.0;
        let us_full = ns_per(t_full, 1) / 1000.0;
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>6} {:>9} {:>10.1} {:>10.1} {:>8.1}×",
            chains,
            chains * CHAIN_LEN,
            refresh.cone_size,
            refresh.relinted,
            us_inc,
            us_full,
            us_full / us_inc.max(0.001),
        );
    }

    let _ = writeln!(
        out,
        "expected shape: µs full grows with the KB; µs incr and the cone stay"
    );
    let _ = writeln!(
        out,
        "flat, so the speedup column grows (equality asserted at every row)."
    );
    out
}

/// M chains: `n{i}x0 → n{i}x1 → … → n{i}x{L-1}` over role `next`, with
/// one defined concept (`LINKED ≐ (AT-LEAST 1 next)`) and one rule on
/// it, so the refresh exercises recognition, rule compatibility, and
/// the orphan check (chain tails have told facts but no concept).
fn build(chains: usize) -> Kb {
    let mut kb = Kb::new();
    let next = kb.define_role("next").expect("fresh role");
    kb.define_concept("LINKED", Concept::AtLeast(1, next))
        .expect("coherent definition");
    kb.assert_rule("LINKED", Concept::AtMost(64, next))
        .expect("rule on defined concept");
    for i in 0..chains {
        for j in 0..CHAIN_LEN {
            kb.create_ind(&format!("n{i}x{j}")).expect("fresh name");
        }
        for j in 0..CHAIN_LEN - 1 {
            let succ = kb
                .schema()
                .symbols
                .find_individual(&format!("n{i}x{}", j + 1))
                .expect("successor exists");
            kb.assert_ind(
                &format!("n{i}x{j}"),
                &Concept::Fills(next, vec![IndRef::Classic(succ)]),
            )
            .expect("chain link lands");
        }
        // A told fact on the tail keeps it lintable as an orphan.
        kb.assert_ind(
            &format!("n{i}x{}", CHAIN_LEN - 1),
            &Concept::AtMost(3, next),
        )
        .expect("tail bound lands");
    }
    kb
}
