//! Thread-count invariance of the propagation fixpoint.
//!
//! `Kb::set_propagation_threads` is documented as changing wall time and
//! nothing else. Every scenario builds two KBs with identical schemas,
//! one planning on 1 thread and one on 4, applies the identical
//! operation sequence to both, and asserts that each operation is
//! accepted or rejected alike, reports the same `steps`, and leaves equal
//! *logical states*: same individuals by name, same derived normal
//! forms, same recognized concepts and most-specific frontiers, same
//! fired rules. There is no second engine to compare against: what pins
//! the result itself is `check_invariants` (closure under the step
//! included) here, the hand-written expectations in `paper_scenarios.rs`
//! and `cascades.rs`, and rebuild-from-told in `retract.rs`.
//!
//! The cascades are 70–120 individuals wide, past the engine's
//! 64-item inline threshold, so the scoped planning workers really run
//! — which is what the CI ThreadSanitizer leg (`-p classic-kb`) is here
//! to watch.

use classic_core::desc::{Concept, IndRef};
use classic_kb::Kb;

/// Clone-free logical-state equality, keyed by individual name.
fn assert_same_state(seq: &Kb, shd: &Kb, context: &str) {
    assert_eq!(
        seq.stats.propagation_steps.get(),
        shd.stats.propagation_steps.get(),
        "{context}: step counts differ"
    );
    assert_eq!(
        seq.ind_count(),
        shd.ind_count(),
        "{context}: individual counts differ"
    );
    for id in seq.ind_ids() {
        let a = seq.ind(id);
        let name = seq.schema().symbols.individual_name(a.name).to_owned();
        let bname = shd
            .schema()
            .symbols
            .find_individual(&name)
            .unwrap_or_else(|| panic!("{context}: {name} missing from sharded KB"));
        let b = shd.ind(shd.ind_id(bname).expect("created"));
        assert_eq!(
            a.derived, b.derived,
            "{context}: derived differs for {name}"
        );
        assert_eq!(
            a.instance_nodes, b.instance_nodes,
            "{context}: recognition differs for {name}"
        );
        assert_eq!(a.msc, b.msc, "{context}: msc differs for {name}");
        assert_eq!(
            a.fired_rules, b.fired_rules,
            "{context}: fired rules differ for {name}"
        );
        assert_eq!(a.told, b.told, "{context}: told facts differ for {name}");
    }
    seq.check_invariants().expect("1-thread invariants");
    shd.check_invariants().expect("4-thread invariants");
}

/// A pair of KBs built by the same schema closure: 1 and 4 threads.
fn engine_pair(schema: impl Fn(&mut Kb)) -> (Kb, Kb) {
    let mut seq = Kb::new();
    seq.set_propagation_threads(1);
    schema(&mut seq);
    let mut shd = Kb::new();
    shd.set_propagation_threads(4);
    schema(&mut shd);
    (seq, shd)
}

fn wide_schema(kb: &mut Kb) {
    kb.define_role("member").unwrap();
    kb.define_role("backup").unwrap();
    kb.define_concept("TRACKED", Concept::primitive(Concept::thing(), "tracked"))
        .unwrap();
    let member = kb.schema().symbols.find_role("member").unwrap();
    kb.define_concept("HUB", Concept::AtLeast(3, member))
        .unwrap();
}

#[test]
fn wide_all_cascade_matches_sequential() {
    let (mut seq, mut shd) = engine_pair(wide_schema);
    let steps = [&mut seq, &mut shd].map(|kb| {
        let mut steps: Vec<u64> = Vec::new();
        let member = kb.schema().symbols.find_role("member").unwrap();
        let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
        kb.create_ind("Hub").unwrap();
        // 120 fillers so the worklist goes wide across the arena.
        let fillers: Vec<IndRef> = (0..120)
            .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("m{i}"))))
            .collect();
        steps.push(
            kb.assert_ind("Hub", &Concept::Fills(member, fillers))
                .unwrap()
                .steps,
        );
        // The ALL restriction now propagates TRACKED onto all 120.
        steps.push(
            kb.assert_ind(
                "Hub",
                &Concept::All(member, Box::new(Concept::Name(tracked))),
            )
            .unwrap()
            .steps,
        );
        steps
    });
    assert_eq!(steps[0], steps[1], "per-op step counts differ");
    assert_same_state(&seq, &shd, "wide ALL cascade");
    let tracked = seq.schema().symbols.find_concept("TRACKED").unwrap();
    assert_eq!(seq.instances_of(tracked).unwrap().len(), 120);
}

#[test]
fn rule_cascade_matches_sequential() {
    let (mut seq, mut shd) = engine_pair(|kb| {
        wide_schema(kb);
        kb.define_concept("VIP", Concept::primitive(Concept::thing(), "vip"))
            .unwrap();
        let vip = kb.schema().symbols.find_concept("VIP").unwrap();
        // Every TRACKED individual becomes a VIP via forward chaining.
        kb.assert_rule("TRACKED", Concept::Name(vip)).unwrap();
    });
    let steps = [&mut seq, &mut shd].map(|kb| {
        let mut steps: Vec<u64> = Vec::new();
        let member = kb.schema().symbols.find_role("member").unwrap();
        let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
        kb.create_ind("Hub").unwrap();
        let fillers: Vec<IndRef> = (0..80)
            .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("w{i}"))))
            .collect();
        steps.push(
            kb.assert_ind("Hub", &Concept::Fills(member, fillers))
                .unwrap()
                .steps,
        );
        steps.push(
            kb.assert_ind(
                "Hub",
                &Concept::All(member, Box::new(Concept::Name(tracked))),
            )
            .unwrap()
            .steps,
        );
        steps
    });
    assert_eq!(steps[0], steps[1], "per-op step counts differ");
    assert_same_state(&seq, &shd, "rule cascade");
    let vip = seq.schema().symbols.find_concept("VIP").unwrap();
    assert_eq!(seq.instances_of(vip).unwrap().len(), 80);
}

#[test]
fn same_as_derivations_match_sequential() {
    let (mut seq, mut shd) = engine_pair(|kb| {
        kb.define_attribute("owner").unwrap();
        kb.define_attribute("driver").unwrap();
        kb.define_role("member").unwrap();
    });
    let steps = [&mut seq, &mut shd].map(|kb| {
        let mut steps: Vec<u64> = Vec::new();
        let owner = kb.schema().symbols.find_role("owner").unwrap();
        let driver = kb.schema().symbols.find_role("driver").unwrap();
        let member = kb.schema().symbols.find_role("member").unwrap();
        let mut cars: Vec<IndRef> = Vec::new();
        for i in 0..70 {
            let name = format!("car{i}");
            kb.create_ind(&name).unwrap();
            let olga = kb.schema_mut().symbols.individual(&format!("olga{i}"));
            steps.push(
                kb.assert_ind(&name, &Concept::Fills(owner, vec![IndRef::Classic(olga)]))
                    .unwrap()
                    .steps,
            );
            cars.push(IndRef::Classic(kb.schema_mut().symbols.individual(&name)));
        }
        // SAME-AS((owner)(driver)) — the driver must be the owner —
        // pushed onto all 70 cars at once through an ALL, so the epoch
        // that derives the drivers is wide enough to be planned on
        // workers.
        kb.create_ind("Fleet").unwrap();
        steps.push(
            kb.assert_ind("Fleet", &Concept::Fills(member, cars))
                .unwrap()
                .steps,
        );
        steps.push(
            kb.assert_ind(
                "Fleet",
                &Concept::All(member, Box::new(Concept::SameAs(vec![owner], vec![driver]))),
            )
            .unwrap()
            .steps,
        );
        steps
    });
    assert_eq!(steps[0], steps[1], "per-op step counts differ");
    assert_same_state(&seq, &shd, "SAME-AS derivation");
    // Spot-check the derivation actually happened.
    let driver = seq.schema().symbols.find_role("driver").unwrap();
    let car0 = seq
        .ind_id(seq.schema().symbols.find_individual("car0").unwrap())
        .unwrap();
    assert_eq!(seq.ind(car0).fillers(driver).len(), 1);
}

#[test]
fn rejected_updates_roll_back_identically() {
    let (mut seq, mut shd) = engine_pair(|kb| {
        wide_schema(kb);
        kb.define_concept("LONER", Concept::primitive(Concept::thing(), "loner"))
            .unwrap();
    });
    let steps = [&mut seq, &mut shd].map(|kb| {
        let mut steps: Vec<u64> = Vec::new();
        let member = kb.schema().symbols.find_role("member").unwrap();
        kb.create_ind("Hub").unwrap();
        let fillers: Vec<IndRef> = (0..80)
            .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("x{i}"))))
            .collect();
        steps.push(
            kb.assert_ind("Hub", &Concept::Fills(member, fillers))
                .unwrap()
                .steps,
        );
        // x0 already needs ≥2 members, so the ALL cascade below — which
        // pushes (AT-MOST 1 member) onto every filler — must clash on it
        // partway through a wide epoch and roll the whole update back.
        steps.push(
            kb.assert_ind("x0", &Concept::AtLeast(2, member))
                .unwrap()
                .steps,
        );
        let err = kb.assert_ind(
            "Hub",
            &Concept::All(member, Box::new(Concept::AtMost(1, member))),
        );
        assert!(err.is_err(), "cascade onto x0 must clash");
        steps
    });
    assert_eq!(steps[0], steps[1], "per-op step counts differ");
    assert_same_state(&seq, &shd, "rejected update rollback");
}

#[test]
fn retraction_rederivation_matches_sequential() {
    let (mut seq, mut shd) = engine_pair(wide_schema);
    let steps = [&mut seq, &mut shd].map(|kb| {
        let mut steps: Vec<u64> = Vec::new();
        let member = kb.schema().symbols.find_role("member").unwrap();
        let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
        kb.create_ind("Hub").unwrap();
        let fillers: Vec<IndRef> = (0..80)
            .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("r{i}"))))
            .collect();
        steps.push(
            kb.assert_ind("Hub", &Concept::Fills(member, fillers))
                .unwrap()
                .steps,
        );
        let all = Concept::All(member, Box::new(Concept::Name(tracked)));
        steps.push(kb.assert_ind("Hub", &all).unwrap().steps);
        // Retract the ALL: every filler loses TRACKED via re-derivation,
        // which seeds the widest worklist in the engine.
        steps.push(kb.retract_ind("Hub", &all).unwrap().steps);
        steps
    });
    assert_eq!(steps[0], steps[1], "per-op step counts differ");
    assert_same_state(&seq, &shd, "retraction re-derivation");
    let tracked = seq.schema().symbols.find_concept("TRACKED").unwrap();
    assert_eq!(seq.instances_of(tracked).unwrap().len(), 0);
}

#[test]
fn sharded_runs_are_deterministic_across_repeats() {
    let build = || {
        let mut kb = Kb::new();
        kb.set_propagation_threads(4);
        wide_schema(&mut kb);
        let member = kb.schema().symbols.find_role("member").unwrap();
        let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
        kb.create_ind("Hub").unwrap();
        let fillers: Vec<IndRef> = (0..100)
            .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("d{i}"))))
            .collect();
        kb.assert_ind("Hub", &Concept::Fills(member, fillers))
            .unwrap();
        kb.assert_ind(
            "Hub",
            &Concept::All(member, Box::new(Concept::Name(tracked))),
        )
        .unwrap();
        kb
    };
    let first = build();
    for round in 0..3 {
        let again = build();
        // Determinism is stronger than logical equality: the arena
        // creation order must match run to run, because effects apply in
        // batch order, never scheduling order.
        let names_first: Vec<String> = first
            .ind_ids()
            .map(|i| {
                first
                    .schema()
                    .symbols
                    .individual_name(first.ind(i).name)
                    .to_owned()
            })
            .collect();
        let names_again: Vec<String> = again
            .ind_ids()
            .map(|i| {
                again
                    .schema()
                    .symbols
                    .individual_name(again.ind(i).name)
                    .to_owned()
            })
            .collect();
        assert_eq!(
            names_first, names_again,
            "arena order varied on round {round}"
        );
        assert_same_state(&first, &again, "repeat determinism");
    }
}

#[test]
fn auto_thread_default_resolves_positive() {
    let kb = Kb::new();
    assert!(kb.propagation_threads() >= 1);
}
