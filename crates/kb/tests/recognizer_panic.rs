//! A `TEST` recognizer that panics during a write is a rejected update,
//! not an unwind: every write operator reports
//! [`ClassicError::RecognizerPanicked`] and leaves the database exactly
//! as it was — no told fact, no new individual, no definition, no rule,
//! no half-propagated description, no poisoned lock. The same holds of
//! every other way a write is refused: all of them end in the one
//! rollback of the one transaction.

use classic_core::desc::{Concept, IndRef};
use classic_core::error::ClassicError;
use classic_core::symbol::RoleId;
use classic_kb::{BulkRow, Kb};
use classic_store::same_state;
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
        assert_eq!(x.told(), y.told(), "{context}: told facts");
        assert_eq!(x.derived(), y.derived(), "{context}: derived");
        assert!(x.msc().eq(y.msc()), "{context}: msc");
        assert!(
            x.fired_rules().eq(y.fired_rules()),
            "{context}: fired rules"
        );
    }
    assert_eq!(a.deps().len(), b.deps().len(), "{context}: support records");
    // The schema-sized state: definitions, taxonomy, rule table (live
    // and retired), and the primitive atoms the tests below mention.
    let shape = |kb: &Kb| {
        let declared = |index: &&&str| {
            let mention = kb.normalize(&Concept::primitive(Concept::thing(), index));
            !matches!(mention, Err(ClassicError::UndefinedName { .. }))
        };
        (
            kb.schema().concept_count(),
            kb.taxonomy().len(),
            kb.rules().len(),
            kb.active_rules().count(),
            ["tracked", "fresh"].iter().filter(declared).count(),
        )
    };
    assert_eq!(shape(a), shape(b), "{context}: schema, taxonomy, rules");
    assert!(
        same_state(a, b) && same_state(b, a),
        "{context}: same_state"
    );
}

/// A KB whose schema holds `SUSPECT = (AND TRACKED (TEST fragile))`,
/// where `fragile` panics once `armed` is set, plus a hub whose `member`
/// role has 80 fillers, so a cascade over it is one wide epoch.
fn fragile_kb() -> (Kb, Arc<AtomicBool>) {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = Kb::new();
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
    let (mut kb, armed) = fragile_kb();
    let member = kb.schema().symbols.find_role("member").unwrap();
    let tracked = Concept::Name(kb.schema().symbols.find_concept("TRACKED").unwrap());
    let before = kb.clone();
    before.check_invariants().unwrap();
    armed.store(true, Ordering::SeqCst);

    // assert-ind, narrow: one individual becomes TRACKED, so the
    // SUSPECT test runs once.
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

    // retract-ind, wide: all 80 members are reset and re-planned in one
    // epoch; the hub's surviving ALL makes them TRACKED again and the
    // recognizer runs on each.
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

/// What the refusals below are made of.
struct Parts {
    member: RoleId,
    tracked: Concept,
    /// A concept name nothing defines, and a role nothing declares.
    ghost: Concept,
    typo: Concept,
    /// `(FILLS member m0)`: told first on `Closed`, and the consequent of
    /// the rule on `TRACKED` that brought `Ruled` its filler.
    fills: Concept,
    /// That rule's id.
    rule: usize,
    /// `(TEST fragile)`, with no primitive in front.
    checked: Concept,
}

/// A primitive no accepted write declares.
fn fresh() -> Concept {
    Concept::primitive(Concept::thing(), "fresh")
}

impl Parts {
    fn with_fresh(&self, c: &Concept) -> Concept {
        Concept::and([fresh(), c.clone()])
    }

    fn clash(&self) -> Concept {
        let (some, none) = (
            Concept::AtLeast(1, self.member),
            Concept::AtMost(0, self.member),
        );
        Concept::and([fresh(), some, none])
    }

    fn rows(&self, n: usize, desc: Concept) -> Vec<BulkRow> {
        let row = |i| BulkRow {
            name: format!("row{i}"),
            desc: desc.clone(),
        };
        (0..n).map(row).collect()
    }
}

/// One refusal: the write kind and the cause, and the write, which
/// reports whether it was refused whole.
type Refusal = (&'static str, fn(&mut Kb, &Parts) -> bool);

/// Refused with the recognizer at rest.
const REFUSED: &[Refusal] = &[
    ("create-ind: exists", |kb, _| kb.create_ind("Hub").is_err()),
    ("assert-ind: clash", |kb, p| {
        kb.assert_ind("Loner", &p.clash()).is_err()
    }),
    ("assert-ind: undefined concept", |kb, p| {
        kb.assert_ind("Loner", &p.with_fresh(&p.ghost)).is_err()
    }),
    ("assert-ind: undeclared role", |kb, p| {
        kb.assert_ind("Loner", &p.with_fresh(&p.typo)).is_err()
    }),
    ("what-if: accepted", |kb, p| {
        kb.what_if("Loner", &p.tracked).is_ok()
    }),
    ("what-if: clash", |kb, p| {
        kb.what_if("Loner", &p.clash()).is_err()
    }),
    ("retract-ind: not told", |kb, p| {
        kb.retract_ind("Loner", &p.tracked).is_err()
    }),
    ("retract-ind: clash", |kb, p| {
        kb.retract_ind("Closed", &p.fills).is_err()
    }),
    ("define-concept: redefinition", |kb, _| {
        kb.define_concept("TRACKED", fresh()).is_err()
    }),
    ("define-concept: undefined concept", |kb, p| {
        kb.define_concept("NEW", p.with_fresh(&p.ghost)).is_err()
    }),
    ("define-concept: itself", |kb, p| {
        let new = Concept::Name(kb.schema_mut().symbols.concept("NEW"));
        kb.define_concept("NEW", p.with_fresh(&new)).is_err()
    }),
    ("assert-rule: undefined antecedent", |kb, _| {
        kb.assert_rule("GHOST", fresh()).is_err()
    }),
    ("assert-rule: undeclared role", |kb, p| {
        kb.assert_rule("TRACKED", p.with_fresh(&p.typo)).is_err()
    }),
    ("assert-rule: clash", |kb, p| {
        kb.assert_rule("TRACKED", p.clash()).is_err()
    }),
    ("assert-rule on ANY: clash", |kb, p| {
        kb.assert_rule("ANY", p.clash()).is_err()
    }),
    ("retract-rule: no such rule", |kb, _| {
        kb.retract_rule("TRACKED", &fresh()).is_err()
    }),
    ("retract-rule: clash", |kb, p| {
        kb.retract_rule("TRACKED", &p.fills).is_err()
    }),
    ("retract-rule by id: no such id", |kb, _| {
        kb.retract_rule_by_id(99).is_err()
    }),
    ("retract-rule by id: clash", |kb, p| {
        kb.retract_rule_by_id(p.rule).is_err()
    }),
    ("bulk chunk: clash", |kb, p| {
        kb.bulk_assert(&p.rows(3, p.clash())).accepted == 0
    }),
    ("bulk chunk: undefined concept", |kb, p| {
        let rows = p.rows(3, p.with_fresh(&p.ghost));
        kb.bulk_assert(&rows).accepted == 0
    }),
    ("bulk row: clash", |kb, p| {
        let alone = Concept::and([p.clash(), Concept::Close(p.member)]);
        kb.bulk_assert(&p.rows(1, alone)).accepted == 0
    }),
];

/// Refused because the recognizer panics wherever the step runs it.
const PANICKING: &[Refusal] = &[
    ("create-ind", |kb, _| kb.create_ind("Direct").is_err()),
    ("assert-ind", |kb, p| {
        kb.assert_ind("Loner", &p.with_fresh(&p.tracked)).is_err()
    }),
    ("what-if", |kb, p| kb.what_if("Loner", &p.tracked).is_err()),
    ("retract-ind", |kb, p| {
        kb.retract_ind("Hub", &Concept::AtLeast(1, p.member))
            .is_err()
    }),
    ("define-concept", |kb, p| {
        let wanted = p.with_fresh(&Concept::AtLeast(1, p.member));
        kb.define_concept("NEW", wanted).is_err()
    }),
    ("assert-rule", |kb, _| {
        kb.assert_rule("TRACKED", fresh()).is_err()
    }),
    ("assert-rule on ANY", |kb, _| {
        kb.assert_rule("ANY", fresh()).is_err()
    }),
    ("retract-rule", |kb, p| {
        kb.retract_rule("TRACKED", &p.fills).is_err()
    }),
    ("retract-rule by id", |kb, p| {
        kb.retract_rule_by_id(p.rule).is_err()
    }),
    ("bulk chunk", |kb, p| {
        let rows = p.rows(3, p.with_fresh(&p.tracked));
        kb.bulk_assert(&rows).accepted == 0
    }),
    ("bulk row", |kb, p| {
        let rows = p.rows(1, p.with_fresh(&p.checked));
        kb.bulk_assert(&rows).accepted == 0
    }),
];

/// Every write kind, refused every way it can be — ten kinds:
/// `create-ind`, `assert-ind`, `what-if`, `retract-ind`, `define-concept`,
/// `assert-rule`, `retract-rule` by antecedent and by id, a bulk chunk
/// and a bulk row — leaves the KB as a clone cut before it.
#[test]
fn every_write_kind_refused_every_way_leaves_no_trace() {
    let (mut kb, armed) = fragile_kb();
    let member = kb.schema().symbols.find_role("member").unwrap();
    let fragile = kb.schema().symbols.find_test("fragile").unwrap();
    let tracked = Concept::Name(kb.schema().symbols.find_concept("TRACKED").unwrap());
    // A recognizer with no primitive in front runs on everybody; a
    // rule on a concept everybody satisfies is due on everybody.
    let checked = Concept::Test(fragile);
    kb.define_concept("CHECKED", checked.clone()).unwrap();
    kb.define_concept("ANY", Concept::thing()).unwrap();
    // `Closed` and `Ruled` stand only in the order they were told:
    // re-derived without the filler — told first, or brought by the
    // rule — `member` closes over nothing and then wants a filler.
    let m0 = IndRef::Classic(kb.schema_mut().symbols.individual("m0"));
    let fills = Concept::Fills(member, vec![m0]);
    let rule = kb.assert_rule("TRACKED", fills.clone()).unwrap();
    for (name, first) in [("Closed", &fills), ("Ruled", &tracked)] {
        kb.create_ind(name).unwrap();
        kb.assert_ind(name, first).unwrap();
        kb.assert_ind(name, &Concept::Close(member)).unwrap();
        kb.assert_ind(name, &Concept::AtLeast(1, member)).unwrap();
    }
    kb.check_invariants().unwrap();
    let parts = Parts {
        member,
        tracked,
        ghost: Concept::Name(kb.schema_mut().symbols.concept("GHOST")),
        typo: Concept::AtLeast(1, kb.schema_mut().symbols.role("typo")),
        fills,
        rule,
        checked,
    };
    for (is_armed, refusals) in [(false, REFUSED), (true, PANICKING)] {
        for (what, write) in refusals {
            let context = format!("armed {is_armed}, {what}");
            let before = kb.clone();
            armed.store(is_armed, Ordering::SeqCst);
            let refused = write(&mut kb, &parts);
            armed.store(false, Ordering::SeqCst);
            assert!(refused, "{context}: was not refused");
            assert_same_state(&before, &kb, &context);
            kb.check_invariants()
                .unwrap_or_else(|e| panic!("{context}: {e}"));
        }
    }
}

/// Accepted means closed: after every accepted write the state is a fixed
/// point of the propagation step — for a `create-ind` (and an individual
/// created by being referenced) under a rule a bare individual satisfies,
/// and for a `define-concept` over individuals that already exist.
#[test]
fn every_accepted_write_leaves_the_state_closed() {
    let mut kb = Kb::new();
    let r = kb.define_role("r").unwrap();
    kb.define_concept("P", Concept::primitive(Concept::thing(), "p"))
        .unwrap();
    let p = Concept::Name(kb.schema().symbols.find_concept("P").unwrap());
    kb.define_concept("ANY", Concept::thing()).unwrap();
    kb.assert_rule("ANY", p.clone()).unwrap();
    kb.check_invariants().unwrap();

    let x = kb.create_ind("X").unwrap();
    kb.check_invariants().unwrap();
    let p_name = kb.schema().symbols.find_concept("P").unwrap();
    assert!(
        kb.is_instance_of(x, p_name).unwrap(),
        "the rule fired at creation"
    );
    let implied = IndRef::Classic(kb.schema_mut().symbols.individual("Implied"));
    kb.assert_ind("X", &Concept::Fills(r, vec![implied]))
        .unwrap();
    kb.check_invariants().unwrap();
    assert_eq!(kb.instances_of(p_name).unwrap().len(), 2);

    let rows: Vec<BulkRow> = (0..100)
        .map(|i| BulkRow {
            name: format!("row{i}"),
            desc: Concept::AtLeast(1 + i % 3, r),
        })
        .collect();
    assert_eq!(kb.bulk_assert(&rows).accepted, 100);
    kb.check_invariants().unwrap();
    // One wide epoch: 102 candidates.
    for (name, n) in [("TWO", 2), ("THREE", 3)] {
        kb.define_concept(name, Concept::and([p.clone(), Concept::AtLeast(n, r)]))
            .unwrap();
        kb.check_invariants().unwrap();
    }
    let three = kb.schema().symbols.find_concept("THREE").unwrap();
    assert_eq!(kb.instances_of(three).unwrap().len(), 33);
    kb.retract_rule("ANY", &p).unwrap();
    kb.check_invariants().unwrap();
    assert!(kb.instances_of(three).unwrap().is_empty());
}
