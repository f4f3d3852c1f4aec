//! A trace outlives the knowledge base that recorded it: a root span
//! closing sends its trace to the process-wide flight recorder, which a
//! `--trace-out` dump reads after the run's knowledge bases are gone.
//! (Its own test binary: it raises the process-wide level to `Full`.)

use classic_core::desc::Concept;
use classic_kb::Kb;
use std::sync::Arc;

#[test]
fn a_trace_recorded_through_a_dropped_kb_is_still_returned() {
    let prev = classic_obs::set_level(classic_obs::ObsLevel::Full);
    let mut kb = Kb::new();
    kb.create_ind("x").unwrap();
    kb.assert_ind("x", &Concept::thing()).unwrap();
    drop(kb);
    classic_obs::set_level(prev);

    let traces = classic_obs::traces_for("kb.assert");
    assert_eq!(traces.len(), 1, "exactly one trace rooted at kb.assert");
    assert_eq!(traces[0].spans[0].target, "kb.assert");
    assert!(traces[0].ctx.is_none(), "rooted outside a request");
    assert!(classic_obs::all_traces()
        .iter()
        .any(|t| Arc::ptr_eq(t, &traces[0])));
}
