//! Retraction: removing a *told* fact and re-deriving everything that
//! depended on it, without rebuilding the database.
//!
//! The deterministic tests pin each dependency kind the journal records
//! (ALL-propagation, rule firings, multiple independent supports); the
//! proptest at the bottom is the oracle: after any history the shared
//! `History` generates, the database must be *identical* to one rebuilt
//! from scratch from the surviving tellings.

use classic_core::desc::{Concept, IndRef};
use classic_core::ClassicError;
use classic_kb::{IndId, Kb};
use history::{Atom, Run, Step, Undo};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[path = "../../../tests/support/history.rs"]
mod history;

/// The paper's §3 schema: students, cars, junk food.
fn paper_kb() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("thing-driven").unwrap();
    kb.define_role("eat").unwrap();
    kb.define_role("enrolled-at").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    kb.define_concept("SPORTS-CAR", Concept::primitive(Concept::thing(), "sports"))
        .unwrap();
    kb.define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
        .unwrap();
    let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    kb.define_concept(
        "STUDENT",
        Concept::and([person, Concept::AtLeast(1, enrolled)]),
    )
    .unwrap();
    kb
}

#[test]
fn retracting_an_all_restriction_undoes_propagation_to_fillers() {
    let mut kb = paper_kb();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    kb.create_ind("Rocky").unwrap();
    let car = IndRef::Classic(kb.schema_mut().symbols.individual("Car-1"));
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![car]))
        .unwrap();
    let all_sports = Concept::all(driven, Concept::Name(sports));
    kb.assert_ind("Rocky", &all_sports).unwrap();
    let car_id = kb
        .ind_id(kb.schema().symbols.find_individual("Car-1").unwrap())
        .unwrap();
    assert!(
        kb.is_instance_of(car_id, sports).unwrap(),
        "propagation made Car-1 a SPORTS-CAR"
    );

    let report = kb.retract_ind("Rocky", &all_sports).unwrap();
    assert!(report.reset >= 2, "Rocky and Car-1 both re-derived");
    assert!(
        !kb.is_instance_of(car_id, sports).unwrap(),
        "the derived membership must disappear with its support"
    );
    // The filler edge itself was told separately and survives.
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert_eq!(kb.ind(rocky).fillers(driven).len(), 1);
    kb.check_invariants().unwrap();
}

#[test]
fn independently_told_facts_survive_retraction_of_one_support() {
    let mut kb = paper_kb();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    kb.create_ind("Rocky").unwrap();
    let car = IndRef::Classic(kb.schema_mut().symbols.individual("Car-1"));
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![car]))
        .unwrap();
    let all_sports = Concept::all(driven, Concept::Name(sports));
    kb.assert_ind("Rocky", &all_sports).unwrap();
    // Car-1 is *also* told to be a SPORTS-CAR in its own right.
    kb.assert_ind("Car-1", &Concept::Name(sports)).unwrap();

    kb.retract_ind("Rocky", &all_sports).unwrap();
    let car_id = kb
        .ind_id(kb.schema().symbols.find_individual("Car-1").unwrap())
        .unwrap();
    assert!(
        kb.is_instance_of(car_id, sports).unwrap(),
        "the independent told support must keep the membership alive"
    );
    kb.check_invariants().unwrap();
}

#[test]
fn retracting_a_rule_withdraws_its_consequences() {
    let mut kb = paper_kb();
    let eat = kb.schema().symbols.find_role("eat").unwrap();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let junk = kb.schema().symbols.find_concept("JUNK-FOOD").unwrap();
    let consequent = Concept::all(eat, Concept::Name(junk));
    kb.assert_rule("STUDENT", consequent.clone()).unwrap();

    kb.create_ind("Rocky").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
        .unwrap();
    let pizza = IndRef::Classic(kb.schema_mut().symbols.individual("Pizza-1"));
    kb.assert_ind("Rocky", &Concept::Fills(eat, vec![pizza]))
        .unwrap();
    let pizza_id = kb
        .ind_id(kb.schema().symbols.find_individual("Pizza-1").unwrap())
        .unwrap();
    assert!(
        kb.is_instance_of(pizza_id, junk).unwrap(),
        "the rule fired and propagated JUNK-FOOD to the filler"
    );

    kb.retract_rule("STUDENT", &consequent).unwrap();
    assert!(
        !kb.is_instance_of(pizza_id, junk).unwrap(),
        "the rule's consequences must be withdrawn with it"
    );
    // Rocky is still a STUDENT — recognition itself was never a rule
    // consequence.
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
    assert!(kb.is_instance_of(rocky, student).unwrap());
    assert_eq!(kb.active_rules().count(), 0);
    kb.check_invariants().unwrap();
}

/// A closed role's `ALL` is recognized from what its fillers are, and no
/// support records that: retracting the filler's told fact drops the
/// host out of the antecedent without resetting it, so it keeps the
/// firing (ROADMAP.md, "a firing can outlive the recognition it rested
/// on"). `retract-rule` must still find it — it scans for the firing,
/// not the antecedent's instances.
#[test]
fn retracting_a_rule_repairs_a_host_that_left_its_antecedent() {
    let mut kb = Kb::new();
    let r = kb.define_role("r").unwrap();
    kb.define_concept("P", Concept::primitive(Concept::thing(), "p"))
        .unwrap();
    kb.define_concept("Q", Concept::primitive(Concept::thing(), "q"))
        .unwrap();
    let p = kb.schema().symbols.find_concept("P").unwrap();
    let q = kb.schema().symbols.find_concept("Q").unwrap();
    kb.define_concept(
        "ALLP",
        Concept::and([Concept::AtLeast(1, r), Concept::all(r, Concept::Name(p))]),
    )
    .unwrap();
    let allp = kb.schema().symbols.find_concept("ALLP").unwrap();
    let rule = kb.assert_rule("ALLP", Concept::Name(q)).unwrap();

    let h = kb.create_ind("H").unwrap();
    let f = IndRef::Classic(kb.schema_mut().symbols.individual("F"));
    kb.assert_ind("H", &Concept::Fills(r, vec![f])).unwrap();
    kb.assert_ind("H", &Concept::Close(r)).unwrap();
    kb.assert_ind("F", &Concept::Name(p)).unwrap();
    assert!(kb.is_instance_of(h, allp).unwrap());
    assert!(kb.is_instance_of(h, q).unwrap(), "the rule fired on H");

    kb.retract_ind("F", &Concept::Name(p)).unwrap();
    assert!(!kb.is_instance_of(h, allp).unwrap());
    assert_eq!(seeds_by_scan(&kb, rule), BTreeSet::from([h]));

    let report = kb.retract_rule_by_id(rule).unwrap();
    assert_eq!(report.reset, 1, "H is found and reset");
    assert!(
        !kb.is_instance_of(h, q).unwrap(),
        "no live rule or told fact is behind Q"
    );
    assert_eq!(kb.ind(h).fired_rules().count(), 0);
    kb.check_invariants().unwrap();
}

#[test]
fn retraction_errors_are_precise_and_harmless() {
    let mut kb = paper_kb();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    kb.create_ind("Rocky").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();

    // Retracting something never told is NotAsserted, and a no-op.
    let err = kb
        .retract_ind("Rocky", &Concept::AtLeast(3, enrolled))
        .unwrap_err();
    assert!(matches!(err, ClassicError::NotAsserted(_)), "{err}");
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert!(kb.is_instance_of(rocky, person).unwrap());

    // Retracting a rule that does not exist is NoSuchRule.
    let eat = kb.schema().symbols.find_role("eat").unwrap();
    kb.assert_rule("STUDENT", Concept::AtLeast(1, enrolled))
        .unwrap();
    let err = kb
        .retract_rule("STUDENT", &Concept::AtLeast(1, eat))
        .unwrap_err();
    match &err {
        ClassicError::NoSuchRule {
            antecedent,
            suggestion,
        } => {
            assert_eq!(antecedent, "STUDENT");
            // STUDENT has a live rule with a *different* consequent; the
            // error says so instead of a bare "no such rule".
            assert!(
                suggestion.as_deref().is_some_and(|s| s.contains("STUDENT")),
                "suggestion: {suggestion:?}"
            );
        }
        other => panic!("expected NoSuchRule, got {other}"),
    }
    // A typo'd antecedent gets a nearest-match hint.
    let err = kb
        .retract_rule("STUDANT", &Concept::AtLeast(1, eat))
        .unwrap_err();
    match &err {
        ClassicError::NoSuchRule { suggestion, .. } => {
            assert!(
                suggestion.as_deref().is_some_and(|s| s.contains("STUDENT")),
                "suggestion: {suggestion:?}"
            );
        }
        other => panic!("expected NoSuchRule, got {other}"),
    }
    kb.check_invariants().unwrap();
}

#[test]
fn provenance_reflects_surviving_supports() {
    let mut kb = paper_kb();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    kb.create_ind("Rocky").unwrap();
    let car = IndRef::Classic(kb.schema_mut().symbols.individual("Car-1"));
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![car]))
        .unwrap();
    kb.assert_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    let car_id = kb
        .ind_id(kb.schema().symbols.find_individual("Car-1").unwrap())
        .unwrap();
    let lines = kb.explain_provenance(car_id);
    assert!(
        lines.iter().any(|l| l.contains("propagated from Rocky")),
        "ALL-propagation support recorded: {lines:?}"
    );

    kb.retract_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    let lines = kb.explain_provenance(car_id);
    assert!(
        !lines.iter().any(|l| l.contains("propagated from Rocky")),
        "stale support must be gone after retraction: {lines:?}"
    );
}

/// Where `retract-rule` starts: the individuals the rule has fired on,
/// found by scanning the whole arena — the antecedent's instances alone
/// are not enough, see
/// `retracting_a_rule_repairs_a_host_that_left_its_antecedent`.
fn seeds_by_scan(kb: &Kb, rule_ix: usize) -> BTreeSet<IndId> {
    kb.ind_ids()
        .filter(|&id| kb.ind(id).has_fired(rule_ix))
        .collect()
}

// ---------------------------------------------------------------------------
// The oracle: retraction ≡ rebuild from the surviving tellings, driven by
// the one history (tests/support/history.rs).
// ---------------------------------------------------------------------------

/// Every defined concept's explanation agrees with recognition, for
/// every individual: `explain_membership` repeats `known_instance` check
/// by check.
fn explanation_agrees(kb: &Kb, context: &str) {
    for id in kb.ind_ids() {
        for c in kb.schema().defined_concepts() {
            let nf = kb.schema().concept_nf(c).unwrap();
            let explained = kb.explain_membership(id, c).unwrap().satisfied;
            assert_eq!(
                explained,
                kb.known_instance(id, nf),
                "{context}: #{}",
                c.index()
            );
        }
    }
}

/// Each individual's provenance, as a set of lines: support discovery
/// order is an implementation detail, the supports are not.
fn provenance(kb: &Kb) -> Vec<(String, BTreeSet<String>)> {
    let mut lines: Vec<_> = (kb.ind_ids())
        .map(|id| {
            let name = kb.schema().symbols.individual_name(kb.ind(id).name);
            (
                name.to_owned(),
                kb.explain_provenance(id).into_iter().collect(),
            )
        })
        .collect();
    lines.sort();
    lines
}

/// Per-op ≡ rebuild from the surviving tellings, provenance included;
/// retracting rule 0 resets exactly the cone of the scan's seeds on both;
/// retracting everything restores the blank state. Checked over the
/// steps before the first retraction after a `CLOSE` (see the history
/// module): `close_then_retract_equals_rebuild` is the case left out.
fn retraction_equals_rebuild(steps: &[Step]) {
    let mut run = Run::default();
    explanation_agrees(&run.kb, "the base");
    for (at, step) in steps.iter().enumerate() {
        let done = run.step(step);
        let context = format!("after step {at} ({step:?})");
        run.kb
            .check_invariants()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        // A refused write or a read leaves the state as it was (cow.rs
        // checks that), so every state the history reaches is checked.
        if done.write && done.accepted {
            explanation_agrees(&run.kb, &context);
        }
    }
    let k = run.rebuildable_steps();
    if k < steps.len() {
        run = Run::over(&steps[..k]);
    }
    let mut rebuilt = history::rebuild(run.surviving(), false);
    history::assert_same(&run.kb, &rebuilt, "per-op and rebuilt");
    assert_eq!(provenance(&run.kb), provenance(&rebuilt));

    let mut emptied = run.kb.clone();
    let mut kb = run.kb.clone();
    let cone = kb.deps().affected_from(&seeds_by_scan(&kb, 0)).len() as u64;
    let report = kb.retract_rule_by_id(0).expect("the rule is live");
    assert_eq!(report.reset, cone);
    let again = rebuilt.retract_rule_by_id(0).expect("the rule is live");
    assert_eq!(
        (report.reset, report.requeued),
        (again.reset, again.requeued)
    );
    history::assert_same(&kb, &rebuilt, "without rule 0");

    // Retract every standing fact and rule, latest first.
    let mut blank = Vec::new();
    for telling in run.surviving().iter().rev() {
        match &telling.undo {
            Undo::Fact(row) => drop(emptied.retract_ind(&row.name, &row.desc).unwrap()),
            Undo::Rule(on, c) => drop(emptied.retract_rule(on, c).unwrap()),
            Undo::Never | Undo::Declare(_) => blank.push(telling.clone()),
        }
    }
    blank.reverse();
    let blank = history::rebuild(&blank, false);
    history::assert_same(&emptied, &blank, "everything retracted");
    assert_eq!(
        emptied.deps().len(),
        blank.deps().len(),
        "dangling dependency records"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn retraction_equals_rebuild_from_surviving_told_facts(steps in history::history(28)) {
        retraction_equals_rebuild(&steps);
    }
}

/// ROADMAP item 1: a rule firing outlives the recognition it rested on.
/// `x0`'s closed `r1` holds only `x1`, a `P0`, so `x0` is `COVERED` and
/// the rule makes it `covered`; retracting `x1`'s `P0` leaves it
/// `covered`, which a rebuild is not.
#[test]
#[ignore = "ROADMAP item 1: fails at HEAD"]
fn close_then_retract_equals_rebuild() {
    let fills = Atom::Fills(1, vec![1]);
    let steps = [
        Step::Assert(0, vec![fills]),
        Step::Close(0, 1),
        Step::Assert(1, vec![Atom::Name(0)]),
        Step::Retract(2),
    ];
    let run = Run::over(&steps);
    history::assert_same(
        &run.kb,
        &history::rebuild(run.surviving(), false),
        "rebuild",
    );
}

/// Each suite that runs the shared history, by its test's path, with how
/// many cases it draws and its longest history.
const SUITES: [(&str, u64, usize); 5] = [
    (
        "retract::retraction_equals_rebuild_from_surviving_told_facts",
        64,
        28,
    ),
    (
        "cow::a_clone_is_the_replay_of_what_preceded_its_cut_whatever_follows",
        48,
        40,
    ),
    (
        "incremental_oracle::incremental_report_equals_full_analysis",
        48,
        16,
    ),
    (
        "persistence_properties::any_accepted_history_replays_identically",
        64,
        24,
    ),
    (
        "segmented_properties::segmented_reopen_matches_in_memory_history",
        24,
        16,
    ),
];

/// A census of the very histories those suites draw, seeded as the
/// `proptest!` runner seeds each case: every step kind occurs both
/// accepted and refused, and cuts, `what-if?`s, `CLOSE`, retractions,
/// armed steps and `Hub`'s wide epoch each occur. Run with `--nocapture` for the counts, and for
/// how many histories each suite's rebuild and snapshot bounds leave
/// whole.
#[test]
fn the_histories_cover_every_kind() {
    let mut counts: std::collections::BTreeMap<String, [usize; 2]> = Default::default();
    let mut count =
        |key: String, accepted: bool| counts.entry(key).or_default()[accepted as usize] += 1;
    for (test, cases, max_len) in SUITES {
        let seed = proptest::test_runner::name_seed(test);
        let (mut rebuildable, mut snapshottable) = (0, 0);
        for case in 0..cases {
            let seed = seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let steps = history::history(max_len)
                .generate(&mut proptest::test_runner::TestRng::seed_from(seed));
            let mut run = Run::default();
            for step in &steps {
                let done = run.step(step);
                count(done.kind.to_owned(), done.accepted);
                if done.armed {
                    count("(armed)".to_owned(), done.accepted);
                }
                let form = done.form.as_deref().unwrap_or_default();
                if done.write && form.contains("(CLOSE ") {
                    count("(CLOSE)".to_owned(), done.accepted);
                }
                if form.starts_with("(assert-ind Hub ") {
                    count("(wide epoch)".to_owned(), done.accepted);
                }
            }
            rebuildable += usize::from(run.rebuildable_steps() == steps.len());
            snapshottable += usize::from(run.snapshot_steps() == steps.len());
        }
        println!("{test}: {cases} histories, {rebuildable} rebuildable whole, {snapshottable} snapshottable whole");
    }
    for (kind, [refused, accepted]) in &counts {
        println!("{kind:>18} {accepted:>6} accepted {refused:>6} refused");
    }
    let seen = |kind: &str| counts.get(kind).copied().unwrap_or_default();
    for kind in [
        "define-role",
        "define-attribute",
        "define-concept",
        "create-ind",
        "assert-ind",
        "assert-rule",
        "retract-ind",
        "retract-rule",
        "bulk-load",
        "(armed)",
        "(CLOSE)",
    ] {
        let [refused, accepted] = seen(kind);
        assert!(
            refused > 0 && accepted > 0,
            "{kind}: {accepted} accepted, {refused} refused"
        );
    }
    for kind in [
        "cut",
        "drop",
        "what-if?",
        "retrieve",
        "possible",
        "(wide epoch)",
    ] {
        assert!(seen(kind)[1] > 0, "{kind} never answered");
    }
}

#[test]
fn retract_ind_is_incremental_not_a_rebuild() {
    // A crude but load-bearing check that the tentpole actually works
    // incrementally: retracting one fact about one isolated individual in
    // a large database must not touch the others.
    let mut kb = paper_kb();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    for i in 0..200 {
        let name = format!("S{i}");
        kb.create_ind(&name).unwrap();
        kb.assert_ind(&name, &Concept::Name(person)).unwrap();
        kb.assert_ind(&name, &Concept::AtLeast(1, enrolled))
            .unwrap();
    }
    let report = kb
        .retract_ind("S0", &Concept::AtLeast(1, enrolled))
        .unwrap();
    assert!(
        report.reset <= 2,
        "only S0's cluster re-derived, not the whole database (reset={})",
        report.reset
    );
    kb.check_invariants().unwrap();
}
