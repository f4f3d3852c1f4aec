//! A `TEST` recognizer that panics during a write is a rejected update,
//! not an unwind: `assert-ind`, `retract-ind` and `bulk_assert` report
//! [`ClassicError::RecognizerPanicked`] and leave the database exactly
//! as it was — no told fact, no new individual, no half-propagated
//! description, no poisoned lock — whether the recognizer ran on the
//! calling thread or on a planning worker.

use classic_core::desc::{Concept, IndRef};
use classic_core::error::ClassicError;
use classic_kb::{BulkRow, Kb};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Everything the KB layer can observe about two databases, keyed by
/// name (arena handles are compared directly: a rolled-back update must
/// not even have shifted them).
fn assert_same_state(a: &Kb, b: &Kb, context: &str) {
    assert_eq!(a.ind_count(), b.ind_count(), "{context}: individual count");
    for id in a.ind_ids() {
        let (x, y) = (a.ind(id), b.ind(id));
        assert_eq!(x.name, y.name, "{context}: arena order");
        assert_eq!(x.told, y.told, "{context}: told facts");
        assert_eq!(x.derived, y.derived, "{context}: derived");
        assert_eq!(x.instance_nodes, y.instance_nodes, "{context}: recognition");
        assert_eq!(x.msc, y.msc, "{context}: msc");
        assert_eq!(x.fired_rules, y.fired_rules, "{context}: fired rules");
    }
    assert_eq!(a.deps().len(), b.deps().len(), "{context}: support records");
}

/// A KB whose schema holds `SUSPECT = (AND TRACKED (TEST fragile))`,
/// where `fragile` panics once `armed` is set, plus a hub whose `member`
/// role is filled widely enough (80) that a cascade over it is planned
/// on workers when `threads` allows.
fn fragile_kb(threads: usize) -> (Kb, Arc<AtomicBool>) {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = Kb::new();
    kb.set_propagation_threads(threads);
    let switch = Arc::clone(&armed);
    kb.register_test("fragile", move |_| {
        if switch.load(Ordering::SeqCst) {
            panic!("fragile recognizer blew up");
        }
        false
    });
    let fragile = kb.schema().symbols.find_test("fragile").unwrap();
    let member = kb.define_role("member").unwrap();
    kb.define_concept("TRACKED", Concept::primitive(Concept::thing(), "tracked"))
        .unwrap();
    let tracked = Concept::Name(kb.schema().symbols.find_concept("TRACKED").unwrap());
    kb.define_concept(
        "SUSPECT",
        Concept::and([tracked.clone(), Concept::Test(fragile)]),
    )
    .unwrap();
    kb.create_ind("Hub").unwrap();
    kb.create_ind("Loner").unwrap();
    let fillers: Vec<IndRef> = (0..80)
        .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("m{i}"))))
        .collect();
    kb.assert_ind("Hub", &Concept::Fills(member, fillers))
        .unwrap();
    // Every member is TRACKED through the hub, so SUSPECT's recognizer
    // runs on each whenever it is (re-)planned.
    kb.assert_ind("Hub", &Concept::all(member, tracked))
        .unwrap();
    // A second told fact, to retract: removing it resets the hub and
    // everything the hub supports — all 80 members.
    kb.assert_ind("Hub", &Concept::AtLeast(1, member)).unwrap();
    (kb, armed)
}

fn assert_recognizer_panicked(err: &ClassicError) {
    assert!(
        matches!(err, ClassicError::RecognizerPanicked(msg) if msg.contains("blew up")),
        "unexpected error: {err}"
    );
}

#[test]
fn panicking_recognizer_rejects_the_write_and_leaves_no_trace() {
    for threads in [1usize, 4] {
        let (mut kb, armed) = fragile_kb(threads);
        let member = kb.schema().symbols.find_role("member").unwrap();
        let tracked = Concept::Name(kb.schema().symbols.find_concept("TRACKED").unwrap());
        let before = kb.clone();
        before.check_invariants().unwrap();
        armed.store(true, Ordering::SeqCst);

        // assert-ind, narrow: one individual becomes TRACKED, so the
        // SUSPECT test runs on the calling thread.
        let err = kb.assert_ind("Loner", &tracked).unwrap_err();
        assert_recognizer_panicked(&err);
        assert_same_state(&before, &kb, "narrow assert");

        // assert-ind that would create an individual: the newcomer's
        // first recognition runs no TEST (it is not TRACKED), the host's
        // re-recognition does.
        let newcomer = IndRef::Classic(kb.schema_mut().symbols.individual("Newcomer"));
        let err = kb
            .assert_ind(
                "Loner",
                &Concept::and([tracked.clone(), Concept::Fills(member, vec![newcomer])]),
            )
            .unwrap_err();
        assert_recognizer_panicked(&err);
        assert_same_state(&before, &kb, "assert creating an individual");

        // retract-ind, wide: all 80 members are reset and re-planned in
        // one epoch (on workers at 4 threads); the hub's surviving ALL
        // makes them TRACKED again and the recognizer runs on each.
        let told = Concept::AtLeast(1, member);
        let err = kb.retract_ind("Hub", &told).unwrap_err();
        assert_recognizer_panicked(&err);
        assert_same_state(&before, &kb, "wide retract");

        // bulk_assert: the chunk's fixpoint aborts, the per-row replay
        // aborts again, and every row is recorded as rejected.
        let rows: Vec<BulkRow> = (0..3)
            .map(|i| BulkRow {
                name: format!("fresh{i}"),
                desc: tracked.clone(),
            })
            .collect();
        let report = kb.bulk_assert(&rows);
        assert_eq!((report.accepted, report.rejected), (0, 3));
        assert_eq!(report.sequential_fallbacks, 1);
        assert!(report.rejections[0].error.contains("blew up"));
        assert_same_state(&before, &kb, "bulk load");

        // Disarmed, the same KB takes the same writes.
        armed.store(false, Ordering::SeqCst);
        kb.assert_ind("Loner", &tracked).unwrap();
        let report = kb.retract_ind("Hub", &told).unwrap();
        assert_eq!(
            report.reset, 81,
            "the retraction must re-derive every member"
        );
        assert_eq!(kb.bulk_assert(&rows).accepted, 3);
        kb.check_invariants().unwrap();
    }
}

#[test]
fn panicking_recognizer_cannot_leave_a_half_created_individual() {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = Kb::new();
    let switch = Arc::clone(&armed);
    kb.register_test("fragile", move |_| {
        if switch.load(Ordering::SeqCst) {
            panic!("fragile recognizer blew up");
        }
        true
    });
    let fragile = kb.schema().symbols.find_test("fragile").unwrap();
    let member = kb.define_role("member").unwrap();
    // No primitive in front of the TEST: it runs on every individual,
    // starting with the recognition a fresh one gets when it is created.
    kb.define_concept("CHECKED", Concept::Test(fragile))
        .unwrap();
    kb.create_ind("Host").unwrap();
    let before = kb.clone();
    armed.store(true, Ordering::SeqCst);

    assert_recognizer_panicked(&kb.create_ind("Direct").unwrap_err());
    assert_same_state(&before, &kb, "create-ind");

    let implied = IndRef::Classic(kb.schema_mut().symbols.individual("Implied"));
    let err = kb
        .assert_ind("Host", &Concept::Fills(member, vec![implied]))
        .unwrap_err();
    assert_recognizer_panicked(&err);
    assert_same_state(&before, &kb, "assert referencing a new individual");

    armed.store(false, Ordering::SeqCst);
    kb.create_ind("Direct").unwrap();
}
