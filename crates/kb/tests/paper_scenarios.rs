//! Knowledge-base tests tracking the paper's §3 examples line by line:
//! Rocky, RICH-KID, STUDENT recognition, closure deductions, co-reference
//! propagation, rules, and integrity checking.

use classic_core::aspect::{Aspect, AspectKind};
use classic_core::desc::{Concept, IndRef};
use classic_core::error::{Clash, ClassicError};
use classic_core::schema::TestArg;
use classic_core::HostValue;
use classic_kb::Kb;

/// Shared schema from the paper: STUDENT, SPORTS-CAR, RICH-KID etc.
fn paper_kb() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("thing-driven").unwrap();
    kb.define_role("enrolled-at").unwrap();
    kb.define_role("maker").unwrap();
    kb.define_role("eat").unwrap();
    kb.define_role("likes").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    kb.define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
        .unwrap();
    kb.define_concept(
        "EXPENSIVE-THING",
        Concept::primitive(Concept::thing(), "expensive"),
    )
    .unwrap();
    let car = Concept::Name(kb.schema_mut().symbols.concept("CAR"));
    let exp = Concept::Name(kb.schema_mut().symbols.concept("EXPENSIVE-THING"));
    kb.define_concept(
        "SPORTS-CAR",
        Concept::primitive(Concept::and([car, exp]), "sports-car"),
    )
    .unwrap();
    // STUDENT is *defined* (non-primitive): a person enrolled somewhere.
    let person = Concept::Name(kb.schema_mut().symbols.concept("PERSON"));
    let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
    kb.define_concept(
        "STUDENT",
        Concept::and([person, Concept::AtLeast(1, enrolled)]),
    )
    .unwrap();
    // RICH-KID: a student driving at least 2 things, all sports cars.
    let student = Concept::Name(kb.schema_mut().symbols.concept("STUDENT"));
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    let sports = Concept::Name(kb.schema_mut().symbols.concept("SPORTS-CAR"));
    kb.define_concept(
        "RICH-KID",
        Concept::and([
            student,
            Concept::all(driven, sports),
            Concept::AtLeast(2, driven),
        ]),
    )
    .unwrap();
    kb
}

fn cname(kb: &mut Kb, n: &str) -> classic_core::ConceptName {
    kb.schema_mut().symbols.concept(n)
}

fn ind_ref(kb: &mut Kb, n: &str) -> IndRef {
    IndRef::Classic(kb.schema_mut().symbols.individual(n))
}

#[test]
fn create_ind_establishes_bare_identity() {
    let mut kb = paper_kb();
    let rocky = kb.create_ind("Rocky").unwrap();
    assert!(kb.ind(rocky).told().is_empty());
    assert!(kb.most_specific_concepts(rocky).is_empty());
    // Creating the same name again is rejected.
    assert!(matches!(
        kb.create_ind("Rocky"),
        Err(ClassicError::IndividualExists(_))
    ));
}

#[test]
fn student_recognition_from_enrollment() {
    // §3.3: "the moment we learn that Rocky (previously asserted to be a
    // PERSON) is enrolled at some school we implicitly recognize Rocky as
    // a STUDENT — it is not necessary to explicitly assert this fact."
    let mut kb = paper_kb();
    let rocky = kb.create_ind("Rocky").unwrap();
    let person = cname(&mut kb, "PERSON");
    let student = cname(&mut kb, "STUDENT");
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    assert!(!kb.is_instance_of(rocky, student).unwrap());
    let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
        .unwrap();
    assert!(kb.is_instance_of(rocky, student).unwrap());
    // And the instances query reflects it.
    assert!(kb.instances_of(student).unwrap().contains(&rocky));
}

#[test]
fn rich_kid_recognized_from_conjuncts() {
    // §3.2: asserting the three conjuncts separately lets CLASSIC "answer
    // affirmatively a query about Rocky's being a RICH-KID".
    let mut kb = paper_kb();
    let rocky = kb.create_ind("Rocky").unwrap();
    let student = cname(&mut kb, "STUDENT");
    let sports = cname(&mut kb, "SPORTS-CAR");
    let rich = cname(&mut kb, "RICH-KID");
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(student)).unwrap();
    kb.assert_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    assert!(!kb.is_instance_of(rocky, rich).unwrap());
    kb.assert_ind("Rocky", &Concept::AtLeast(2, driven))
        .unwrap();
    assert!(kb.is_instance_of(rocky, rich).unwrap());
}

#[test]
fn asserting_composed_concept_equals_conjunct_assertions() {
    // §3.2: asserting RICH-KID is "the equivalent of" the three conjunct
    // assertions.
    let mut kb = paper_kb();
    let rocky = kb.create_ind("Rocky").unwrap();
    let rich = cname(&mut kb, "RICH-KID");
    kb.assert_ind("Rocky", &Concept::Name(rich)).unwrap();
    let student = cname(&mut kb, "STUDENT");
    assert!(kb.is_instance_of(rocky, student).unwrap());
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    match kb.ind_aspect(rocky, AspectKind::AtLeast, Some(driven)) {
        Aspect::Bound(n) => assert!(n >= 2),
        other => panic!("expected bound, got {other:?}"),
    }
}

#[test]
fn fills_and_all_propagate_to_fillers() {
    // §3.3-style propagation: Rocky drives only sports cars and drives
    // Volvo-17, so Volvo-17 is recognized as a SPORTS-CAR (hence a CAR).
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    let sports = cname(&mut kb, "SPORTS-CAR");
    let volvo = ind_ref(&mut kb, "Volvo-17");
    kb.assert_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![volvo]))
        .unwrap();
    let volvo_id = kb
        .ind_id(kb.schema().symbols.find_individual("Volvo-17").unwrap())
        .unwrap();
    let car = cname(&mut kb, "CAR");
    assert!(kb.is_instance_of(volvo_id, sports).unwrap());
    assert!(kb.is_instance_of(volvo_id, car).unwrap());
}

#[test]
fn close_applies_to_currently_known_fillers() {
    // §3.2: CLOSE "closes the thing-driven role so that no further fillers
    // can be added".
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    let volvo = ind_ref(&mut kb, "Volvo-17");
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![volvo]))
        .unwrap();
    kb.assert_ind("Rocky", &Concept::Close(driven)).unwrap();
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert!(kb.ind(rocky).is_closed(driven));
    assert_eq!(kb.ind(rocky).fillers(driven).len(), 1);
    // Adding another filler is now a constraint violation…
    let saab = ind_ref(&mut kb, "Saab-9");
    let err = kb
        .assert_ind("Rocky", &Concept::Fills(driven, vec![saab]))
        .unwrap_err();
    assert!(matches!(err, ClassicError::Inconsistent { .. }));
    // …and the rejection rolled everything back, including the implicitly
    // created Saab-9.
    assert!(
        kb.schema().symbols.find_individual("Saab-9").is_none()
            || kb
                .ind_id(kb.schema().symbols.find_individual("Saab-9").unwrap())
                .is_err()
    );
    assert_eq!(kb.ind(rocky).fillers(driven).len(), 1);
}

#[test]
fn at_most_closes_role_when_reached() {
    // §3.3: "AT-MOST restrictions on roles can allow the DB to deduce that
    // a role is closed: … thing-driven being closed as soon as we learn
    // that Rocky drives Volvo-17."
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    kb.assert_ind("Rocky", &Concept::AtMost(1, driven)).unwrap();
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert!(!kb.ind(rocky).is_closed(driven));
    let volvo = ind_ref(&mut kb, "Volvo-17");
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![volvo]))
        .unwrap();
    assert!(kb.ind(rocky).is_closed(driven));
}

#[test]
fn same_as_derives_fillers() {
    // §3.3: SAME-AS((likes)(thing-driven)) "would lead to likes being
    // filled by Volvo-17, if it were already known that Rocky drives
    // Volvo-17". (Both roles declared as attributes, per the paper's §5
    // restriction of co-reference to single-valued roles.)
    let mut kb = Kb::new();
    let likes = kb.define_attribute("likes").unwrap();
    let driven = kb.define_attribute("thing-driven").unwrap();
    kb.create_ind("Rocky").unwrap();
    let volvo = ind_ref(&mut kb, "Volvo-17");
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![volvo.clone()]))
        .unwrap();
    kb.assert_ind("Rocky", &Concept::SameAs(vec![likes], vec![driven]))
        .unwrap();
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert_eq!(kb.ind(rocky).fillers(likes), vec![volvo]);
}

#[test]
fn same_as_clash_on_distinct_values() {
    let mut kb = Kb::new();
    let a = kb.define_attribute("a").unwrap();
    let b = kb.define_attribute("b").unwrap();
    kb.create_ind("X").unwrap();
    let v1 = ind_ref(&mut kb, "V1");
    let v2 = ind_ref(&mut kb, "V2");
    kb.assert_ind("X", &Concept::Fills(a, vec![v1])).unwrap();
    kb.assert_ind("X", &Concept::Fills(b, vec![v2])).unwrap();
    let err = kb
        .assert_ind("X", &Concept::SameAs(vec![a], vec![b]))
        .unwrap_err();
    assert!(matches!(
        err,
        ClassicError::Inconsistent {
            reason: Clash::CoreferenceClash { .. },
            ..
        }
    ));
}

#[test]
fn rules_fire_on_recognition_and_chain() {
    // §3.3: assert-rule[STUDENT, (ALL eat JUNK-FOOD)] — "the DB [can]
    // deduce that she eats junk food as soon as we know she is enrolled at
    // a school (and hence is a STUDENT)".
    let mut kb = paper_kb();
    kb.define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
        .unwrap();
    let junk = cname(&mut kb, "JUNK-FOOD");
    let eat = kb.schema_mut().symbols.find_role("eat").unwrap();
    kb.assert_rule("STUDENT", Concept::all(eat, Concept::Name(junk)))
        .unwrap();
    kb.create_ind("Rocky").unwrap();
    let person = cname(&mut kb, "PERSON");
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
        .unwrap();
    // The rule's consequent is now part of Rocky's derived description...
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    let junk_nf = kb.schema().concept_nf(junk).unwrap().clone();
    let vr = kb.ind(rocky).derived().value_restriction(eat);
    assert!(classic_core::subsumes(&junk_nf, &vr));
    // ...and propagates onto things Rocky eats.
    let twinkie = ind_ref(&mut kb, "Twinkie-1");
    kb.assert_ind("Rocky", &Concept::Fills(eat, vec![twinkie]))
        .unwrap();
    let t = kb
        .ind_id(kb.schema().symbols.find_individual("Twinkie-1").unwrap())
        .unwrap();
    assert!(kb.is_instance_of(t, junk).unwrap());
}

#[test]
fn rule_applies_to_existing_instances_when_added() {
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    let person = cname(&mut kb, "PERSON");
    let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
        .unwrap();
    // Rocky is already a STUDENT; now add the rule.
    kb.define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
        .unwrap();
    let junk = cname(&mut kb, "JUNK-FOOD");
    let eat = kb.schema_mut().symbols.find_role("eat").unwrap();
    kb.assert_rule("STUDENT", Concept::all(eat, Concept::Name(junk)))
        .unwrap();
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    let junk_nf = kb.schema().concept_nf(junk).unwrap().clone();
    assert!(classic_core::subsumes(
        &junk_nf,
        &kb.ind(rocky).derived().value_restriction(eat)
    ));
}

#[test]
fn rules_are_triggers_not_definitions() {
    // §3.3: "this is very different from making (ALL eat JUNK-FOOD) part
    // of the definition of STUDENT" — someone who doesn't provably eat
    // junk food is still recognized as a STUDENT.
    let mut kb = paper_kb();
    kb.define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
        .unwrap();
    let junk = cname(&mut kb, "JUNK-FOOD");
    let eat = kb.schema_mut().symbols.find_role("eat").unwrap();
    kb.assert_rule("STUDENT", Concept::all(eat, Concept::Name(junk)))
        .unwrap();
    let rocky = kb.create_ind("Rocky").unwrap();
    let person = cname(&mut kb, "PERSON");
    let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
        .unwrap();
    let student = cname(&mut kb, "STUDENT");
    assert!(kb.is_instance_of(rocky, student).unwrap());
}

#[test]
fn new_concept_recognizes_existing_individuals() {
    // §3.1: schema definition "can be interleaved with updates and
    // queries" — a late definition immediately recognizes old data.
    let mut kb = paper_kb();
    let rocky = kb.create_ind("Rocky").unwrap();
    let person = cname(&mut kb, "PERSON");
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(3, enrolled))
        .unwrap();
    // Define a new concept afterwards.
    let p = Concept::Name(person);
    kb.define_concept(
        "SERIAL-STUDENT",
        Concept::and([p, Concept::AtLeast(2, enrolled)]),
    )
    .unwrap();
    let serial = cname(&mut kb, "SERIAL-STUDENT");
    assert!(kb.is_instance_of(rocky, serial).unwrap());
    assert!(kb.instances_of(serial).unwrap().contains(&rocky));
}

#[test]
fn disjoint_primitive_integrity() {
    // §3.4: MALE and FEMALE are mutually exclusive primitive subclasses.
    let mut kb = Kb::new();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    let person = Concept::Name(kb.schema_mut().symbols.concept("PERSON"));
    kb.define_concept(
        "MALE",
        Concept::disjoint_primitive(person.clone(), "gender", "male"),
    )
    .unwrap();
    kb.define_concept(
        "FEMALE",
        Concept::disjoint_primitive(person, "gender", "female"),
    )
    .unwrap();
    let male = cname(&mut kb, "MALE");
    let female = cname(&mut kb, "FEMALE");
    let pat = kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(male)).unwrap();
    let err = kb.assert_ind("Pat", &Concept::Name(female)).unwrap_err();
    assert!(matches!(
        err,
        ClassicError::Inconsistent {
            reason: Clash::DisjointPrimitives(..),
            ..
        }
    ));
    // Still a MALE, not a FEMALE.
    assert!(kb.is_instance_of(pat, male).unwrap());
    assert!(!kb.is_instance_of(pat, female).unwrap());
}

#[test]
fn at_most_zero_conflicts_with_filler() {
    // §3.4: "we cannot have an individual belong to a concept that
    // contains (AT-MOST 0 thing-driven) and at the same time have … its
    // thing-driven role filled".
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    let volvo = ind_ref(&mut kb, "Volvo-17");
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![volvo]))
        .unwrap();
    let err = kb
        .assert_ind("Rocky", &Concept::AtMost(0, driven))
        .unwrap_err();
    assert!(matches!(err, ClassicError::Inconsistent { .. }));
}

#[test]
fn test_concepts_act_as_procedural_recognizers() {
    // §2.1.4: EVEN-INTEGER as (AND INTEGER (TEST even)). Host values are
    // checked by actually running the function.
    let mut kb = Kb::new();
    let even = kb.register_test("even", |arg| match arg {
        TestArg::Host(HostValue::Int(i)) => i % 2 == 0,
        _ => false,
    });
    kb.define_role("age").unwrap();
    let age = kb.schema_mut().symbols.find_role("age").unwrap();
    kb.create_ind("Rocky").unwrap();
    // Rocky's age is 41: fine against no constraint…
    kb.assert_ind(
        "Rocky",
        &Concept::Fills(age, vec![IndRef::Host(HostValue::Int(41))]),
    )
    .unwrap();
    // …but asserting that all ages are even is rejected.
    let err = kb
        .assert_ind("Rocky", &Concept::all(age, Concept::Test(even)))
        .unwrap_err();
    assert!(matches!(err, ClassicError::Inconsistent { .. }));

    // A fresh individual with an even age passes and is *recognized*.
    kb.define_concept("EVEN-AGED", Concept::all(age, Concept::Test(even)))
        .unwrap();
    let even_aged = cname(&mut kb, "EVEN-AGED");
    kb.create_ind("Bullwinkle").unwrap();
    kb.assert_ind(
        "Bullwinkle",
        &Concept::and([
            Concept::Fills(age, vec![IndRef::Host(HostValue::Int(42))]),
            Concept::Close(age),
        ]),
    )
    .unwrap();
    let b = kb
        .ind_id(kb.schema().symbols.find_individual("Bullwinkle").unwrap())
        .unwrap();
    assert!(kb.is_instance_of(b, even_aged).unwrap());
}

#[test]
fn retraction_removes_told_facts_but_rejects_never_told_ones() {
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    // Retracting something never told is a precise error, not a silent
    // no-op.
    assert!(matches!(
        kb.retract_ind("Rocky", &Concept::thing()),
        Err(ClassicError::NotAsserted(_))
    ));
    // A told fact can be retracted, and derived consequences go with it.
    let rich_kid = kb.schema().symbols.find_concept("RICH-KID").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let told = Concept::and([
        Concept::Name(person),
        Concept::AtLeast(1, enrolled),
        Concept::AtLeast(2, driven),
        Concept::all(driven, Concept::Name(sports)),
    ]);
    kb.assert_ind("Rocky", &told).unwrap();
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert!(kb.is_instance_of(rocky, rich_kid).unwrap());
    kb.retract_ind("Rocky", &told).unwrap();
    assert!(!kb.is_instance_of(rocky, rich_kid).unwrap());
    assert!(kb.ind(rocky).told().is_empty());
    kb.check_invariants().unwrap();
}

#[test]
fn host_individuals_cannot_gain_roles() {
    // (ALL age INTEGER) with a CLASSIC filler for age is a layer clash once
    // the filler must be an integer.
    let mut kb = Kb::new();
    kb.define_role("age").unwrap();
    let age = kb.schema_mut().symbols.find_role("age").unwrap();
    kb.create_ind("Rocky").unwrap();
    let friend = ind_ref(&mut kb, "Friend-1");
    kb.assert_ind("Rocky", &Concept::Fills(age, vec![friend]))
        .unwrap();
    let err = kb
        .assert_ind(
            "Rocky",
            &Concept::all(age, Concept::Builtin(classic_core::Layer::Host(None))),
        )
        .unwrap_err();
    assert!(matches!(err, ClassicError::Inconsistent { .. }));
}

#[test]
fn crime_example_end_to_end() {
    // §4: the law-enforcement example, including the DOMESTIC-CRIME
    // deduction that it has exactly one perpetrator.
    let mut kb = Kb::new();
    kb.define_role("victim").unwrap();
    kb.define_attribute("site").unwrap();
    kb.define_attribute("domicile").unwrap();
    kb.define_role("perpetrator").unwrap();
    kb.define_role("heard-speaking").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    let person = Concept::Name(kb.schema_mut().symbols.concept("PERSON"));
    let perp = kb.schema_mut().symbols.find_role("perpetrator").unwrap();
    let victim = kb.schema_mut().symbols.find_role("victim").unwrap();
    let site = kb.schema_mut().symbols.find_role("site").unwrap();
    let domicile = kb.schema_mut().symbols.find_role("domicile").unwrap();
    kb.define_concept(
        "CRIME",
        Concept::primitive(
            Concept::and([
                Concept::AtLeast(1, perp),
                Concept::all(perp, person),
                Concept::AtLeast(1, victim),
                Concept::AtLeast(1, site),
                Concept::AtMost(1, site),
            ]),
            "crime",
        ),
    )
    .unwrap();
    let crime = Concept::Name(kb.schema_mut().symbols.concept("CRIME"));
    kb.define_concept(
        "DOMESTIC-CRIME",
        Concept::and([
            crime.clone(),
            Concept::AtMost(1, perp),
            Concept::SameAs(vec![site], vec![perp, domicile]),
        ]),
    )
    .unwrap();
    // "It is inferrable by CLASSIC that a DOMESTIC-CRIME has exactly one
    // perpetrator."
    let dc = kb.schema_mut().symbols.concept("DOMESTIC-CRIME");
    let nf = kb.schema().concept_nf(dc).unwrap();
    let rr = nf.roles.get(&perp).expect("perpetrator restricted");
    assert_eq!(rr.at_least, 1);
    assert_eq!(rr.at_most, Some(1));

    // crime23 accumulates evidence.
    kb.create_ind("crime23").unwrap();
    let crime_name = kb.schema_mut().symbols.concept("CRIME");
    kb.assert_ind("crime23", &Concept::Name(crime_name))
        .unwrap();
    kb.assert_ind("crime23", &Concept::AtLeast(2, perp))
        .unwrap();
    let heard = kb.schema_mut().symbols.find_role("heard-speaking").unwrap();
    let ruritanian = ind_ref(&mut kb, "Ruritanian");
    kb.assert_ind(
        "crime23",
        &Concept::all(perp, Concept::all(heard, Concept::OneOf(vec![ruritanian]))),
    )
    .unwrap();
    // It is now NOT a domestic crime candidate (2 perpetrators ≥ 2 > 1 is
    // not yet contradictory with AT-MOST 1? It is: asserting
    // DOMESTIC-CRIME must fail.)
    let dc_name = kb.schema_mut().symbols.concept("DOMESTIC-CRIME");
    let err = kb
        .assert_ind("crime23", &Concept::Name(dc_name))
        .unwrap_err();
    assert!(matches!(err, ClassicError::Inconsistent { .. }));

    // A proper domestic crime: site = perpetrator's domicile is derived.
    kb.create_ind("crime15").unwrap();
    let wife = ind_ref(&mut kb, "Wife-1");
    let home = ind_ref(&mut kb, "Home-1");
    kb.assert_ind("crime15", &Concept::Name(crime_name))
        .unwrap();
    kb.assert_ind("crime15", &Concept::Fills(perp, vec![wife]))
        .unwrap();
    kb.assert_ind("crime15", &Concept::Fills(site, vec![home.clone()]))
        .unwrap();
    kb.assert_ind("crime15", &Concept::Name(dc_name)).unwrap();
    // Co-reference derives: Wife-1's domicile is Home-1.
    let wife_id = kb
        .ind_id(kb.schema().symbols.find_individual("Wife-1").unwrap())
        .unwrap();
    assert_eq!(kb.ind(wife_id).fillers(domicile), vec![home]);
    // And crime15 is recognized as a DOMESTIC-CRIME instance.
    let c15 = kb
        .ind_id(kb.schema().symbols.find_individual("crime15").unwrap())
        .unwrap();
    assert!(kb.is_instance_of(c15, dc_name).unwrap());
}

#[test]
fn assert_report_counts_derivations() {
    let mut kb = paper_kb();
    kb.create_ind("Rocky").unwrap();
    let driven = kb.schema_mut().symbols.find_role("thing-driven").unwrap();
    let sports = cname(&mut kb, "SPORTS-CAR");
    kb.assert_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    let volvo = ind_ref(&mut kb, "Volvo-17");
    let report = kb
        .assert_ind("Rocky", &Concept::Fills(driven, vec![volvo]))
        .unwrap();
    assert!(report.fills_propagated >= 1, "ALL should reach Volvo-17");
    assert!(report.inds_created >= 1, "Volvo-17 implicitly created");
    assert!(report.steps >= 2);
}

#[test]
fn rules_on_thing_equivalent_concepts_fire_universally() {
    // A concept defined as exactly THING aliases onto the taxonomy's TOP
    // node; a rule attached to it is a universal trigger.
    let mut kb = Kb::new();
    kb.define_role("tag").unwrap();
    let tag = kb.schema_mut().symbols.find_role("tag").unwrap();
    kb.define_concept("ANYTHING", Concept::thing()).unwrap();
    kb.assert_rule("ANYTHING", Concept::AtMost(5, tag)).unwrap();
    kb.create_ind("X").unwrap();
    let x = kb
        .ind_id(kb.schema().symbols.find_individual("X").unwrap())
        .unwrap();
    // The universal rule fired on creation-time realization… or at the
    // first assertion touching X.
    kb.assert_ind("X", &Concept::thing()).unwrap();
    assert_eq!(kb.ind(x).derived().role(tag).at_most, Some(5));
}

#[test]
fn equivalent_names_share_extensions_and_rules() {
    let mut kb = Kb::new();
    kb.define_role("r").unwrap();
    let r = kb.schema_mut().symbols.find_role("r").unwrap();
    kb.define_concept("A", Concept::exactly(1, r)).unwrap();
    kb.define_concept(
        "B",
        Concept::and([Concept::AtLeast(1, r), Concept::AtMost(1, r)]),
    )
    .unwrap();
    let a = kb.schema_mut().symbols.concept("A");
    let b = kb.schema_mut().symbols.concept("B");
    kb.create_ind("X").unwrap();
    kb.assert_ind("X", &Concept::exactly(1, r)).unwrap();
    let x = kb
        .ind_id(kb.schema().symbols.find_individual("X").unwrap())
        .unwrap();
    // Same node, same extension: instance of both names.
    assert!(kb.is_instance_of(x, a).unwrap());
    assert!(kb.is_instance_of(x, b).unwrap());
    assert_eq!(kb.instances_of(a).unwrap(), kb.instances_of(b).unwrap());
    // A rule on either name applies to the shared node.
    kb.define_role("s").unwrap();
    let s = kb.schema_mut().symbols.find_role("s").unwrap();
    kb.assert_rule("B", Concept::AtMost(2, s)).unwrap();
    assert_eq!(kb.ind(x).derived().role(s).at_most, Some(2));
}
