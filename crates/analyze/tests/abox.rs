//! ABox-tier tests: each A009–A014 code is provoked by a minimal KB, the
//! severity/exit-code mapping is pinned, and incremental maintenance is
//! smoke-checked against the full pass (the full differential oracle
//! lives in `classic-lang`'s proptest suite, driven through the surface
//! language).

use classic_analyze::{analyze, AnalysisState, Code, Severity};
use classic_core::desc::{Concept, IndRef};
use classic_kb::Kb;
use std::collections::BTreeSet;

fn base_kb() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("r").unwrap();
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

fn ind_ref(kb: &mut Kb, name: &str) -> IndRef {
    IndRef::Classic(kb.schema_mut().symbols.individual(name))
}

fn codes(kb: &mut Kb) -> Vec<Code> {
    analyze(kb).diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn a009_obligation_with_too_few_viable_candidates() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    kb.create_ind("a").unwrap();
    kb.create_ind("b").unwrap();
    kb.assert_ind("a", &named(&kb, "MALE")).unwrap();
    kb.assert_ind("b", &named(&kb, "FEMALE")).unwrap();
    let pool = Concept::and([
        Concept::OneOf(vec![ind_ref(&mut kb, "a"), ind_ref(&mut kb, "b")]),
        named(&kb, "MALE"),
    ]);
    kb.create_ind("x").unwrap();
    kb.assert_ind(
        "x",
        &Concept::and([Concept::AtLeast(2, r), Concept::All(r, Box::new(pool))]),
    )
    .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UnsatisfiableObligation)
        .expect("A009 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.span, classic_analyze::Span::Individual("x".into()));
    assert!(
        d.provenance.iter().any(|p| p.contains("b is incompatible")),
        "provenance should name the blocked candidate: {:?}",
        d.provenance
    );
}

#[test]
fn a010_role_one_filler_from_its_bound() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    kb.create_ind("a").unwrap();
    kb.create_ind("x").unwrap();
    let a = ind_ref(&mut kb, "a");
    kb.assert_ind(
        "x",
        &Concept::and([Concept::AtMost(2, r), Concept::Fills(r, vec![a])]),
    )
    .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::NearBound)
        .expect("A010 expected");
    assert_eq!(d.severity, Severity::Info);
    assert!(d.message.contains("1 of at most 2"));
}

#[test]
fn a011_same_as_meeting_one_of() {
    let mut kb = base_kb();
    kb.define_attribute("site").unwrap();
    kb.define_attribute("mirror").unwrap();
    let site = kb.schema().symbols.find_role("site").unwrap();
    let mirror = kb.schema().symbols.find_role("mirror").unwrap();
    kb.create_ind("a").unwrap();
    kb.create_ind("b").unwrap();
    let pool = Concept::OneOf(vec![ind_ref(&mut kb, "a"), ind_ref(&mut kb, "b")]);
    kb.create_ind("x").unwrap();
    kb.assert_ind(
        "x",
        &Concept::and([
            Concept::SameAs(vec![site], vec![mirror]),
            Concept::All(site, Box::new(pool)),
        ]),
    )
    .unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::IncompleteReasoning)
        .expect("A011 expected");
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn a012_rule_no_individual_is_compatible_with() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    kb.assert_rule("MALE", Concept::AtLeast(1, r)).unwrap();
    // Every individual is FEMALE, so the MALE rule can never fire.
    kb.create_ind("f1").unwrap();
    kb.assert_ind("f1", &named(&kb, "FEMALE")).unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::InertRule)
        .expect("A012 expected");
    assert_eq!(d.severity, Severity::Warning);

    // An empty ABox is not an inert rule (nothing to be incompatible).
    let mut kb2 = base_kb();
    let r2 = kb2.schema().symbols.find_role("r").unwrap();
    kb2.assert_rule("MALE", Concept::AtLeast(1, r2)).unwrap();
    assert!(!codes(&mut kb2).contains(&Code::InertRule));

    // A compatible individual clears it.
    kb.create_ind("m1").unwrap();
    kb.assert_ind("m1", &named(&kb, "MALE")).unwrap();
    assert!(!codes(&mut kb).contains(&Code::InertRule));
}

#[test]
fn a013_orphan_individual() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    kb.create_ind("x").unwrap();
    kb.assert_ind("x", &Concept::AtLeast(1, r)).unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::OrphanIndividual)
        .expect("A013 expected");
    assert_eq!(d.severity, Severity::Info);

    // Recognized individuals are not orphans.
    kb.assert_ind("x", &named(&kb, "PERSON")).unwrap();
    assert!(!codes(&mut kb).contains(&Code::OrphanIndividual));
}

#[test]
fn a014_close_capturing_derived_fillers() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    kb.create_ind("a").unwrap();
    kb.create_ind("b").unwrap();
    kb.create_ind("x").unwrap();
    let a = ind_ref(&mut kb, "a");
    kb.assert_ind("x", &Concept::Fills(r, vec![a])).unwrap();
    // A rule derives a second filler, then the user closes the role: the
    // closure's bound rests on the rule-derived filler.
    let b = ind_ref(&mut kb, "b");
    kb.assert_rule("PERSON", Concept::Fills(r, vec![b]))
        .unwrap();
    kb.assert_ind("x", &named(&kb, "PERSON")).unwrap();
    kb.assert_ind("x", &Concept::Close(r)).unwrap();
    let report = analyze(&kb);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::StaleClose)
        .expect("A014 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        d.provenance.iter().any(|p| p.contains('b')),
        "provenance should name the derived filler: {:?}",
        d.provenance
    );

    // A CLOSE over told fillers only is not stale.
    let mut kb2 = base_kb();
    let r2 = kb2.schema().symbols.find_role("r").unwrap();
    kb2.create_ind("a").unwrap();
    kb2.create_ind("y").unwrap();
    let a2 = ind_ref(&mut kb2, "a");
    kb2.assert_ind("y", &Concept::Fills(r2, vec![a2])).unwrap();
    kb2.assert_ind("y", &Concept::Close(r2)).unwrap();
    assert!(!codes(&mut kb2).contains(&Code::StaleClose));
}

#[test]
fn abox_warnings_fail_deny_warnings_like_tbox_warnings() {
    // TBox warning only.
    let mut tbox = base_kb();
    let r = tbox.schema().symbols.find_role("r").unwrap();
    tbox.define_concept(
        "T",
        Concept::and([named(&tbox, "PERSON"), named(&tbox, "PERSON")]),
    )
    .unwrap();
    // ABox warning only (inert rule).
    let mut abox = base_kb();
    abox.assert_rule("MALE", Concept::AtLeast(1, r)).unwrap();
    abox.create_ind("f").unwrap();
    abox.assert_ind("f", &named(&abox, "FEMALE")).unwrap();

    let rt = analyze(&tbox);
    let ra = analyze(&abox);
    assert_eq!(rt.worst(), Some(Severity::Warning));
    assert_eq!(ra.worst(), Some(Severity::Warning));
    // Identical treatment under every deny threshold.
    for deny in [Severity::Warning, Severity::Error] {
        assert_eq!(rt.passes(deny), ra.passes(deny));
    }
    assert!(!ra.passes(Severity::Warning));
    assert!(ra.passes(Severity::Error));
}

#[test]
fn severity_spelling_is_single_sourced() {
    assert_eq!(Severity::Info.as_str(), "info");
    assert_eq!(Severity::Warning.as_str(), "warning");
    assert_eq!(Severity::Error.as_str(), "error");
    assert_eq!(Severity::parse_deny("warnings"), Some(Severity::Warning));
    assert_eq!(Severity::parse_deny("errors"), Some(Severity::Error));
    assert_eq!(Severity::parse_deny("nonsense"), None);
    for s in [Severity::Info, Severity::Warning, Severity::Error] {
        assert_eq!(s.to_string(), s.as_str());
    }
}

#[test]
fn json_lines_round_trip_shape() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    kb.create_ind("x").unwrap();
    kb.assert_ind("x", &Concept::AtLeast(1, r)).unwrap();
    let report = analyze(&kb);
    let lines = report.render_json_lines();
    assert!(!lines.is_empty());
    for line in lines.lines() {
        assert!(line.starts_with("{\"code\":\"A0"), "line: {line}");
        assert!(line.contains("\"severity\":"), "line: {line}");
        assert!(line.contains("\"span\":{\"kind\":"), "line: {line}");
        assert!(line.contains("\"provenance\":["), "line: {line}");
    }
}

#[test]
fn incremental_refresh_tracks_mutations() {
    let mut kb = base_kb();
    let r = kb.schema().symbols.find_role("r").unwrap();
    let mut state = AnalysisState::new();
    state.refresh(&kb);
    assert_eq!(state.report(&kb), analyze(&kb.clone()));

    // New individual with an orphan finding.
    kb.create_ind("x").unwrap();
    kb.assert_ind("x", &Concept::AtLeast(1, r)).unwrap();
    let id = kb.ind_ids().last().unwrap();
    state.mark_dirty(&kb, &BTreeSet::from([id]));
    let refresh = state.refresh(&kb);
    assert!(refresh.relinted >= 1);
    assert!(refresh
        .cone
        .iter()
        .any(|d| d.code == Code::OrphanIndividual));
    assert_eq!(state.report(&kb), analyze(&kb.clone()));

    // Clearing the orphan through another assert re-lints the cone only.
    kb.assert_ind("x", &named(&kb, "PERSON")).unwrap();
    state.mark_dirty(&kb, &BTreeSet::from([id]));
    state.refresh(&kb);
    let incr = state.report(&kb);
    assert!(!incr
        .diagnostics
        .iter()
        .any(|d| d.code == Code::OrphanIndividual));
    assert_eq!(incr, analyze(&kb.clone()));
}
