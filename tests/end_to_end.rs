//! Cross-crate integration: the full pipeline from surface syntax through
//! the knowledge base, query processing, the relational view, and
//! persistence — the whole system the paper describes, exercised as one.

use classic::lang::{run_script, Outcome};
use classic::rel::{export_kb, Atom, ConjunctiveQuery, Term, Value};
use classic::store::{replay, roundtrip, same_state, snapshot_to_string};
use classic::{Concept, Kb, MarkedQuery, Query};

/// Build the paper's worked universe through the surface syntax alone.
fn build_kb() -> Kb {
    let mut kb = Kb::new();
    run_script(
        &mut kb,
        r#"
        (define-role thing-driven)
        (define-role enrolled-at)
        (define-role eat)
        (define-attribute driver)
        (define-attribute payer)

        (define-concept PERSON (PRIMITIVE THING person))
        (define-concept CAR (PRIMITIVE THING car))
        (define-concept EXPENSIVE-THING (PRIMITIVE THING expensive))
        (define-concept SPORTS-CAR
            (PRIMITIVE (AND CAR EXPENSIVE-THING) sports-car))
        (define-concept STUDENT (AND PERSON (AT-LEAST 1 enrolled-at)))
        (define-concept RICH-KID
            (AND STUDENT (ALL thing-driven SPORTS-CAR) (AT-LEAST 2 thing-driven)))
        (define-concept JUNK-FOOD (PRIMITIVE THING junk))
        (assert-rule STUDENT (ALL eat JUNK-FOOD))

        (create-ind Rocky)
        (assert-ind Rocky PERSON)
        (assert-ind Rocky (AT-LEAST 1 enrolled-at))
        (assert-ind Rocky (ALL thing-driven SPORTS-CAR))
        (assert-ind Rocky (FILLS thing-driven Volvo-17 Ferrari-512))
        (assert-ind Rocky (FILLS eat Twinkie-1))

        (create-ind Pat)
        (assert-ind Pat PERSON)
        "#,
    )
    .expect("script runs");
    kb
}

#[test]
fn recognition_flows_through_every_layer() {
    let mut kb = build_kb();
    // Rocky: STUDENT (recognized), RICH-KID (two fillers + ALL).
    let out = run_script(&mut kb, "(retrieve RICH-KID)").expect("query");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["Rocky".into()])
    );
    // The fillers were recognized as SPORTS-CARs by propagation.
    let out = run_script(&mut kb, "(retrieve SPORTS-CAR)").expect("query");
    match out.last().expect("one") {
        Outcome::Individuals(v) => {
            assert!(v.contains(&"Volvo-17".to_owned()));
            assert!(v.contains(&"Ferrari-512".to_owned()));
        }
        other => panic!("unexpected {other:?}"),
    }
    // The rule made Twinkie-1 junk food.
    let out = run_script(&mut kb, "(retrieve JUNK-FOOD)").expect("query");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["Twinkie-1".into()])
    );
}

#[test]
fn relational_view_matches_classic_known_facts() {
    let kb = build_kb();
    let db = export_kb(&kb);
    // role:thing-driven has exactly Rocky's two fillers.
    let q = ConjunctiveQuery::new(
        &["c"],
        vec![Atom::new(
            "role:thing-driven",
            vec![Term::sym("Rocky"), Term::var("c")],
        )],
    );
    let ans = q.evaluate(&db);
    assert_eq!(ans.len(), 2);
    // Relational join: students who drive something with concept SPORTS-CAR.
    let q = ConjunctiveQuery::new(
        &["s"],
        vec![
            Atom::new("concept:STUDENT", vec![Term::var("s")]),
            Atom::new("role:thing-driven", vec![Term::var("s"), Term::var("c")]),
            Atom::new("concept:SPORTS-CAR", vec![Term::var("c")]),
        ],
    );
    assert_eq!(q.evaluate(&db), vec![vec![Value::Sym("Rocky".into())]]);
}

#[test]
fn open_world_answers_diverge_from_closed_world() {
    let kb = build_kb();
    // Pat is a PERSON with nothing else known. "Persons enrolled
    // somewhere": known = Rocky only; possible includes Pat (open world).
    let person = kb.schema().symbols.find_concept("PERSON").expect("c");
    let enrolled = kb.schema().symbols.find_role("enrolled-at").expect("r");
    let q = Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]);
    let known = Query::concept(q.clone())
        .run(&kb)
        .expect("query")
        .into_known()
        .expect("known mode")
        .known;
    let possible = Query::concept(q.clone())
        .possible()
        .run(&kb)
        .expect("query")
        .into_possible()
        .expect("possible mode");
    assert_eq!(known.len(), 1);
    assert!(possible.len() > known.len());
    // Closed world on the export: the same question yields only Rocky too
    // — but for the *wrong* reason (only stored tuples), which shows up
    // when the enrollment is known to exist without a filler.
    let db = export_kb(&kb);
    let cw = ConjunctiveQuery::new(
        &["p"],
        vec![
            Atom::new("concept:PERSON", vec![Term::var("p")]),
            Atom::new("role:enrolled-at", vec![Term::var("p"), Term::var("s")]),
        ],
    );
    // Rocky's enrollment has no named school: closed world finds nothing.
    assert!(cw.evaluate(&db).is_empty());
    assert_eq!(known.len(), 1, "CLASSIC still knows Rocky is enrolled");
}

#[test]
fn marked_queries_and_descriptions_work_through_the_facade() {
    let kb = build_kb();
    let student = kb.schema().symbols.find_concept("STUDENT").expect("c");
    let eat = kb.schema().symbols.find_role("eat").expect("r");
    // (AND STUDENT (ALL eat ?:THING)) — extensional: things students eat.
    let q = MarkedQuery {
        concept: Concept::Name(student),
        marker: vec![eat],
    };
    let fillers = Query::marked(q.clone())
        .run(&kb)
        .expect("query")
        .into_necessary_set()
        .expect("necessary-set mode");
    assert_eq!(fillers.len(), 1);
    // Intensional: the description includes JUNK-FOOD via the rule.
    let desc = Query::marked(q)
        .description()
        .run(&kb)
        .expect("query")
        .into_description()
        .expect("description mode");
    let junk = kb.schema().symbols.find_concept("JUNK-FOOD").expect("c");
    let junk_nf = kb.schema().concept_nf(junk).expect("defined");
    assert!(classic::core::subsumes(junk_nf, &desc));
}

#[test]
fn persistence_round_trips_the_whole_database() {
    let kb = build_kb();
    let rebuilt = roundtrip(&kb, |_| {}).expect("replayable");
    assert!(same_state(&kb, &rebuilt));
    // The rebuilt KB answers queries identically.
    let mut rebuilt = rebuilt;
    let out = run_script(&mut rebuilt, "(retrieve RICH-KID)").expect("query");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["Rocky".into()])
    );
    // Snapshot text is stable across a round trip (canonical form).
    let snap1 = snapshot_to_string(&kb);
    let snap2 = snapshot_to_string(&rebuilt);
    assert_eq!(snap1, snap2);
}

#[test]
fn snapshot_is_a_runnable_script() {
    let kb = build_kb();
    let script = snapshot_to_string(&kb);
    let mut fresh = Kb::new();
    let n = replay(&mut fresh, &script).expect("replays");
    assert!(n > 10, "snapshot contains the full history");
    assert_eq!(fresh.ind_count(), kb.ind_count());
    assert_eq!(fresh.rules().len(), kb.rules().len());
}

#[test]
fn schema_extension_after_data_load() {
    let mut kb = build_kb();
    // Define a new concept over live data; recognition is immediate.
    run_script(
        &mut kb,
        "(define-concept DRIVER (AND PERSON (AT-LEAST 1 thing-driven)))",
    )
    .expect("late definition");
    let out = run_script(&mut kb, "(retrieve DRIVER)").expect("query");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["Rocky".into()])
    );
    // And taxonomy navigation sees the new node in place.
    let out = run_script(&mut kb, "(parents DRIVER)").expect("parents");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Concepts(vec!["PERSON".into()])
    );
}

#[test]
fn stats_counters_track_the_session() {
    let kb = build_kb();
    assert!(kb.stats.assertions.get() >= 6);
    assert!(kb.stats.rules_fired.get() >= 1);
    assert!(kb.stats.fills_propagations.get() >= 2);
    assert!(kb.stats.realizations.get() > 0);
}
