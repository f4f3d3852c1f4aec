//! The paper's §6 conclusion enumerates four contribution clusters.
//! This file is that list as an executable checklist — one test per
//! numbered claim, each quoting the paper and demonstrating the behavior
//! through the public API.

use classic::lang::{run_script, AspectValue, Outcome};
use classic::{Concept, Kb, MarkedQuery, Query};

fn known_of(kb: &mut Kb, q: &Concept) -> Vec<classic::IndId> {
    Query::concept(q.clone())
        .run(kb)
        .expect("q")
        .into_known()
        .expect("known mode")
        .known
}

fn possible_of(kb: &mut Kb, q: &Concept) -> Vec<classic::IndId> {
    Query::concept(q.clone())
        .possible()
        .run(kb)
        .expect("q")
        .into_possible()
        .expect("possible mode")
}

fn base_kb() -> Kb {
    let mut kb = Kb::new();
    run_script(
        &mut kb,
        r#"
        (define-role brother)
        (define-role eat)
        (define-role enrolled-at)
        (define-concept PERSON (PRIMITIVE THING person))
        (define-concept DOCTOR (PRIMITIVE PERSON doctor))
        (define-concept STUDENT (AND PERSON (AT-LEAST 1 enrolled-at)))
        "#,
    )
    .expect("schema");
    kb
}

/// §6(1): "individuals can be described not only in terms of their
/// relationship to other individuals, but also in terms of their
/// 'conceptual structure' (e.g., 'has 4 brothers', 'has brothers who are
/// all doctors'); features such as the absence of the closed world
/// assumption support an incremental model of information acquisition."
#[test]
fn contribution_1_partial_structural_descriptions() {
    let mut kb = base_kb();
    run_script(
        &mut kb,
        r#"
        (create-ind Rocky)
        (assert-ind Rocky PERSON)
        (assert-ind Rocky (AT-LEAST 4 brother))        ; "has 4 brothers"
        (assert-ind Rocky (ALL brother DOCTOR))        ; "all doctors"
        "#,
    )
    .expect("structural facts about unnamed brothers");
    // No brother is named, yet the structure is queryable…
    let brother = kb.schema().symbols.find_role("brother").unwrap();
    let doctor = kb.schema().symbols.find_concept("DOCTOR").unwrap();
    let q = Concept::and([
        Concept::AtLeast(4, brother),
        Concept::all(brother, Concept::Name(doctor)),
    ]);
    assert_eq!(known_of(&mut kb, &q).len(), 1);
    // …and open world: Rocky may have a fifth brother (no closed world).
    let five = Concept::AtLeast(5, brother);
    assert!(known_of(&mut kb, &five).is_empty());
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert!(possible_of(&mut kb, &five).contains(&rocky));
}

/// §6(2): "allowing the database to actively discover a limited number of
/// new relationships between individuals, not explicitly asserted by
/// users: concepts are classified with respect to each other, and
/// individuals are classified under concepts specified in the schema;
/// concept constructors … can add information about role fillers; simple
/// forward chaining rules provide new descriptors."
#[test]
fn contribution_2_active_discovery() {
    let mut kb = base_kb();
    // Concepts classify against each other…
    let out = run_script(&mut kb, "(subsumes? PERSON STUDENT)").expect("q");
    assert_eq!(out.last().unwrap(), &Outcome::Bool(true));
    // …individuals classify under schema concepts…
    run_script(
        &mut kb,
        "(create-ind Rocky)
         (assert-ind Rocky PERSON)
         (assert-ind Rocky (AT-LEAST 1 enrolled-at))",
    )
    .expect("facts");
    let out = run_script(&mut kb, "(retrieve STUDENT)").expect("q");
    assert_eq!(
        out.last().unwrap(),
        &Outcome::Individuals(vec!["Rocky".into()])
    );
    // …constructors add filler information (AT-MOST closes the role)…
    run_script(
        &mut kb,
        "(assert-ind Rocky (AT-MOST 1 brother))
         (assert-ind Rocky (FILLS brother Bob))",
    )
    .expect("facts");
    let out = run_script(&mut kb, "(ind-aspect Rocky CLOSE brother)").expect("q");
    assert_eq!(
        out.last().unwrap(),
        &Outcome::Aspect(AspectValue::Closed(true))
    );
    // …and rules derive new descriptors.
    run_script(
        &mut kb,
        "(define-concept JUNK-FOOD (PRIMITIVE THING junk))
         (assert-rule STUDENT (ALL eat JUNK-FOOD))
         (assert-ind Rocky (FILLS eat Twinkie-1))
         ",
    )
    .expect("rule");
    let out = run_script(&mut kb, "(retrieve JUNK-FOOD)").expect("q");
    assert_eq!(
        out.last().unwrap(),
        &Outcome::Individuals(vec!["Twinkie-1".into()])
    );
}

/// §6(3): "a single language is used to specify the schema (including
/// integrity constraints), the information added to the database, and the
/// queries to it; the schema and data can be manipulated uniformly and
/// with 'closure': schema objects (concepts) can be created, queried and
/// obtained as answers at any time."
#[test]
fn contribution_3_single_language_uniform_closure() {
    let mut kb = base_kb();
    // One expression serves as definition, assertion, and query.
    let expr = "(AND PERSON (AT-LEAST 1 enrolled-at))";
    run_script(&mut kb, &format!("(define-concept LEARNER {expr})")).expect("DDL");
    run_script(
        &mut kb,
        &format!("(create-ind Pat) (assert-ind Pat {expr})"),
    )
    .expect("DML");
    let out = run_script(&mut kb, &format!("(retrieve {expr})")).expect("query");
    assert_eq!(
        out.last().unwrap(),
        &Outcome::Individuals(vec!["Pat".into()])
    );
    // Schema objects are queried at any time, and *obtained as answers*:
    // classification returns concepts (LEARNER ≡ STUDENT here).
    let out = run_script(&mut kb, &format!("(classify {expr})")).expect("schema query");
    match out.last().unwrap() {
        Outcome::Description(d) => {
            assert!(d.contains("STUDENT") && d.contains("LEARNER"), "got {d}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// §6(4): "because of the open world assumption, different kinds of
/// answers to queries can be considered: sets of individuals that are
/// known to satisfy the query, sets of individuals that might satisfy the
/// query, and a most-specific description of the necessary properties of
/// the objects, known or unknown, that might satisfy the query."
#[test]
fn contribution_4_three_kinds_of_answers() {
    let mut kb = base_kb();
    run_script(
        &mut kb,
        r#"
        (define-concept JUNK-FOOD (PRIMITIVE THING junk))
        (assert-rule STUDENT (ALL eat JUNK-FOOD))
        (create-ind Rocky)
        (assert-ind Rocky PERSON)
        (assert-ind Rocky (AT-LEAST 1 enrolled-at))
        (create-ind Pat)
        (assert-ind Pat PERSON)
        "#,
    )
    .expect("facts");
    let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
    let q = Concept::Name(student);
    // (a) known answers,
    let known = known_of(&mut kb, &q);
    assert_eq!(known.len(), 1);
    // (b) possible answers (Pat might be enrolled somewhere),
    let poss = possible_of(&mut kb, &q);
    assert_eq!(poss.len(), 2);
    // (c) the necessary description of all possible answers at a marker —
    // including rule-derived information, with no junk-food instance
    // anywhere in the database.
    let eat = kb.schema().symbols.find_role("eat").unwrap();
    let desc = Query::marked(MarkedQuery {
        concept: q,
        marker: vec![eat],
    })
    .description()
    .run(&kb)
    .expect("intensional answer")
    .into_description()
    .expect("description mode");
    let junk = kb.schema().symbols.find_concept("JUNK-FOOD").unwrap();
    let junk_nf = kb.schema().concept_nf(junk).expect("defined");
    assert!(classic::core::subsumes(junk_nf, &desc));
}
