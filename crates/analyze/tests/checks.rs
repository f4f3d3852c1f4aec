//! End-to-end tests of the analyzer: each diagnostic code is provoked by
//! a small schema, and a clean paper-style schema yields no findings.

use classic_analyze::{analyze, Code, KbAnalyze, Severity, Span};
use classic_core::desc::Concept;
use classic_kb::Kb;

/// A small §3-style schema: PERSON with disjoint MALE/FEMALE, plus a
/// couple of roles. Coherent and lint-clean by construction.
fn base_kb() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("friend").unwrap();
    kb.define_role("pet").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    kb.define_concept(
        "MALE",
        Concept::disjoint_primitive(Concept::Name(person), "gender", "male"),
    )
    .unwrap();
    kb.define_concept(
        "FEMALE",
        Concept::disjoint_primitive(Concept::Name(person), "gender", "female"),
    )
    .unwrap();
    kb
}

fn named(kb: &Kb, name: &str) -> Concept {
    Concept::Name(kb.schema().symbols.find_concept(name).unwrap())
}

fn codes(kb: &mut Kb) -> Vec<Code> {
    analyze(kb).diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn clean_schema_has_no_findings() {
    let mut kb = base_kb();
    let friend = kb.schema().symbols.find_role("friend").unwrap();
    let male = named(&kb, "MALE");
    kb.define_concept(
        "SOCIABLE",
        Concept::and([named(&kb, "PERSON"), Concept::AtLeast(2, friend)]),
    )
    .unwrap();
    kb.assert_rule("MALE", Concept::AtLeast(1, friend)).unwrap();
    let report = kb.analyze();
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings:\n{}",
        report.render()
    );
    assert_eq!(report.concepts_checked, 4);
    assert_eq!(report.rules_checked, 1);
    assert!(report.passes(Severity::Warning));
    drop(male);
}

#[test]
fn incoherent_concept_is_flagged_with_culprit_conjunct() {
    let mut kb = base_kb();
    let friend = kb.schema().symbols.find_role("friend").unwrap();
    kb.define_concept(
        "LONER",
        Concept::and([
            named(&kb, "PERSON"),
            Concept::AtLeast(3, friend),
            Concept::AtMost(2, friend),
        ]),
    )
    .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::IncoherentConcept)
        .expect("A001 expected");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span, Span::Concept("LONER".into()));
    // Provenance must name conjunct 3 (the AT-MOST) as the culprit.
    assert!(
        d.provenance.iter().any(|l| l.contains("conjunct 3")),
        "provenance: {:?}",
        d.provenance
    );
    assert!(!report.passes(Severity::Error));
}

#[test]
fn disjoint_primitive_meet_is_incoherent() {
    let mut kb = base_kb();
    kb.define_concept(
        "HERMAPHRODITE",
        Concept::and([named(&kb, "MALE"), named(&kb, "FEMALE")]),
    )
    .unwrap();
    assert!(codes(&mut kb).contains(&Code::IncoherentConcept));
}

#[test]
fn vacuous_restriction_is_a_warning_not_an_error() {
    let mut kb = base_kb();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    kb.define_concept(
        "PETLESS",
        Concept::all(
            pet,
            Concept::and([named(&kb, "MALE"), named(&kb, "FEMALE")]),
        ),
    )
    .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::VacuousRestriction)
        .expect("A003 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("AT-MOST 0"));
    // The definition itself is coherent, so no A001.
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::IncoherentConcept));
    assert!(report.passes(Severity::Error));
    assert!(!report.passes(Severity::Warning));
}

#[test]
fn redundant_conjunct_is_flagged() {
    let mut kb = base_kb();
    // MALE's definition already carries PERSON as its parent, so the
    // explicit PERSON conjunct adds nothing.
    kb.define_concept(
        "REDUNDANT-MAN",
        Concept::and([named(&kb, "MALE"), named(&kb, "PERSON")]),
    )
    .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::RedundantConjunct)
        .expect("A008 expected");
    assert!(d.message.contains("conjunct 2"), "message: {}", d.message);
    assert!(d.provenance.iter().any(|l| l.contains("PERSON")));
}

#[test]
fn dead_rule_on_incoherent_antecedent() {
    let mut kb = base_kb();
    let friend = kb.schema().symbols.find_role("friend").unwrap();
    kb.define_concept(
        "DOOMED",
        Concept::and([named(&kb, "MALE"), named(&kb, "FEMALE")]),
    )
    .unwrap();
    kb.assert_rule("DOOMED", Concept::AtLeast(1, friend))
        .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DeadRule)
        .expect("A004 expected");
    assert!(matches!(&d.span, Span::Rule { antecedent, .. } if antecedent == "DOOMED"));
    // A dead rule is not additionally analyzed for shadowing/entailment.
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| matches!(d.code, Code::ShadowedRule | Code::EntailedConsequent)));
}

#[test]
fn entailed_consequent_is_flagged() {
    let mut kb = base_kb();
    // Every MALE is already a PERSON.
    kb.assert_rule("MALE", named(&kb, "PERSON")).unwrap();
    let report = analyze(&kb);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::EntailedConsequent));
}

#[test]
fn broader_rule_shadows_narrower_one() {
    let mut kb = base_kb();
    let friend = kb.schema().symbols.find_role("friend").unwrap();
    kb.assert_rule("PERSON", Concept::AtLeast(1, friend))
        .unwrap();
    kb.assert_rule("MALE", Concept::AtLeast(1, friend)).unwrap();
    let report = analyze(&kb);
    let shadowed: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::ShadowedRule)
        .collect();
    // Only the MALE rule is shadowed (PERSON fires strictly more often).
    assert_eq!(shadowed.len(), 1, "report:\n{}", report.render());
    assert!(matches!(&shadowed[0].span, Span::Rule { antecedent, .. } if antecedent == "MALE"));
}

#[test]
fn equivalent_rules_flag_only_the_later_one() {
    let mut kb = base_kb();
    let friend = kb.schema().symbols.find_role("friend").unwrap();
    kb.assert_rule("PERSON", Concept::AtLeast(1, friend))
        .unwrap();
    kb.assert_rule("PERSON", Concept::AtLeast(1, friend))
        .unwrap();
    let report = analyze(&kb);
    let shadowed: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::ShadowedRule)
        .collect();
    assert_eq!(shadowed.len(), 1, "report:\n{}", report.render());
    assert!(matches!(&shadowed[0].span, Span::Rule { index: 1, .. }));
}

#[test]
fn live_rule_duplicating_retired_rule_is_noted() {
    let mut kb = base_kb();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    kb.assert_rule("PERSON", Concept::AtLeast(1, pet)).unwrap();
    kb.retract_rule("PERSON", &Concept::AtLeast(1, pet))
        .unwrap();
    kb.assert_rule("MALE", Concept::AtLeast(1, pet)).unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::RetiredTwin)
        .expect("A007 expected");
    assert_eq!(d.severity, Severity::Info);
    // Info findings never fail a --deny warnings run.
    assert!(report.passes(Severity::Warning));
    assert_eq!(report.rules_checked, 2);
}

#[test]
fn report_renders_summary_line() {
    let kb = base_kb();
    let report = kb.analyze();
    let text = report.render();
    assert!(
        text.contains("0 error(s), 0 warning(s), 0 note(s)"),
        "render: {text}"
    );
    assert!(text.contains("3 concept(s), 0 rule(s), 0 individual(s) checked"));
}

#[test]
fn errors_sort_before_warnings() {
    let mut kb = base_kb();
    let friend = kb.schema().symbols.find_role("friend").unwrap();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    // One warning (vacuous ALL) and one error (incoherent concept).
    kb.define_concept(
        "PETLESS",
        Concept::all(
            pet,
            Concept::and([named(&kb, "MALE"), named(&kb, "FEMALE")]),
        ),
    )
    .unwrap();
    kb.define_concept(
        "LONER",
        Concept::and([Concept::AtLeast(3, friend), Concept::AtMost(2, friend)]),
    )
    .unwrap();
    let report = analyze(&kb);
    assert!(report.diagnostics.len() >= 2);
    assert_eq!(report.diagnostics[0].severity, Severity::Error);
    assert_eq!(report.worst(), Some(Severity::Error));
}
