//! Differential oracle for the incremental analyzer: after *any* of the
//! shared histories (tests/support/history.rs) — definitions, creates,
//! asserts, retracts, rule edits, bulk loads, refusals, armed
//! recognizers — the incrementally-maintained
//! [`classic_analyze::AnalysisState`] must report exactly what a
//! from-scratch [`classic_analyze::analyze`] reports on the same KB —
//! same codes, same spans, same provenance, same order.
//!
//! Steps are driven through [`classic_lang::eval`], which tells the
//! state nothing: the state is refreshed once before the history, at
//! each read the history makes (a lint) and at the end, so one refresh
//! spans several writes, refusals and rollbacks, and what it re-checks is
//! only what its comparison of two KB versions finds. Each history
//! starts after `Hub`'s wide epoch, so the arena holds its 70 members
//! beyond the `x`s, in chunks a refresh's comparison of versions has to
//! skip.

use classic_analyze::AnalysisState;
use classic_kb::Kb;
use history::{Run, Step};
use proptest::prelude::*;

#[path = "../../../tests/support/history.rs"]
mod history;

fn lint(state: &mut AnalysisState, kb: &Kb, context: &str) {
    state.refresh(kb);
    let full = classic_analyze::analyze(&kb.clone());
    assert_eq!(
        state.report(kb),
        full,
        "incremental/full divergence {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_report_equals_full_analysis(steps in history::history(16)) {
        let mut run = Run::over(&[Step::HubAll]);
        let mut state = AnalysisState::new();
        state.refresh(&run.kb);
        for (at, step) in steps.iter().enumerate() {
            let done = run.step(step);
            if done.form.is_some() && !done.write {
                lint(&mut state, &run.kb, &format!("at a lint after step {at} of {steps:?}"));
            }
        }
        lint(&mut state, &run.kb, &format!("at the end of {steps:?}"));
    }
}
