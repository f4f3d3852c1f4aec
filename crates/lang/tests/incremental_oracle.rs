//! Differential oracle for the incremental analyzer: after *any* of the
//! shared histories (tests/support/history.rs) — definitions, creates,
//! asserts, retracts, rule edits, bulk loads, refusals, armed
//! recognizers — the incrementally-maintained
//! [`classic_analyze::AnalysisState`] must report exactly what a
//! from-scratch [`classic_analyze::analyze`] reports on the same KB —
//! same codes, same spans, same provenance, same order.
//!
//! The same histories hold the borrowed answer to its outcome: at every
//! `retrieve` and `possible` a history makes, and for each of the fixed
//! queries at each read and at the end, [`classic_lang::answer`] writes
//! the bytes [`classic_lang::eval_read`]'s outcome renders, or fails with
//! the same error.
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
use classic_lang::Command;
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

/// What `answer` writes for `cmd`, against what `eval_read`'s outcome
/// renders.
fn same_bytes(kb: &Kb, cmd: &Command, context: &str) {
    let borrowed = classic_lang::answer(kb, cmd).map(|answer| {
        let mut out = String::new();
        answer.write_json(&mut out);
        out
    });
    let owned = classic_lang::eval_read(kb, cmd).map(|outcome| outcome.render_json());
    assert_eq!(borrowed, owned, "{cmd:?} {context}");
}

/// [`same_bytes`] for each fixed query.
fn fixed_queries_write_the_same_bytes(kb: &Kb, context: &str) {
    for cmd in history::queries() {
        same_bytes(kb, cmd, context);
    }
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
                let context = format!("at a read after step {at} of {steps:?}");
                lint(&mut state, &run.kb, &context);
                if matches!(done.kind, "retrieve" | "possible") {
                    done.send(|cmd| same_bytes(&run.kb, cmd, &context));
                }
                fixed_queries_write_the_same_bytes(&run.kb, &context);
            }
        }
        let context = format!("at the end of {steps:?}");
        lint(&mut state, &run.kb, &context);
        fixed_queries_write_the_same_bytes(&run.kb, &context);
    }
}
