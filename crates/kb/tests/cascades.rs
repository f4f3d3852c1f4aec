//! Reclassification cascades: "this might cause other individuals to be
//! reclassified, but this process is guaranteed to end" (paper §5).
//!
//! These tests pin the cascade machinery: information arriving at one
//! individual must re-trigger recognition at every individual whose
//! provable memberships depend on it (through role fillers), transitively,
//! and nowhere else. The wide cascades at the end run 70–120 individuals
//! through one epoch — the width a bulk chunk or a hub gives propagation —
//! and each ends in `check_invariants`, which asserts closure under the
//! step.

use classic_core::desc::{Concept, IndRef};
use classic_core::symbol::ConceptName;
use classic_kb::{IndId, Kb};
use classic_query::Query;
use classic_store::same_state;

/// DOG-OWNER = PERSON whose pets are all DOGs, with a closed pet role —
/// provable only by enumerating fillers, so it depends on the fillers'
/// own memberships.
fn schema() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("pet").unwrap();
    kb.define_role("barks-at").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    kb.define_concept("ANIMAL", Concept::primitive(Concept::thing(), "animal"))
        .unwrap();
    let animal = Concept::Name(kb.schema().symbols.find_concept("ANIMAL").unwrap());
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    // A DOG is *defined*: an animal that barks at something.
    kb.define_concept("DOG", Concept::and([animal, Concept::AtLeast(1, barks)]))
        .unwrap();
    let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
    let dog = Concept::Name(kb.schema().symbols.find_concept("DOG").unwrap());
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    kb.define_concept(
        "DOG-OWNER",
        Concept::and([person, Concept::AtLeast(1, pet), Concept::all(pet, dog)]),
    )
    .unwrap();
    kb
}

#[test]
fn filler_membership_change_reclassifies_the_owner() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();
    let owner_c = kb.schema().symbols.find_concept("DOG-OWNER").unwrap();

    let owner = kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind(
        "Pat",
        &Concept::and([Concept::Fills(pet, vec![rex]), Concept::Close(pet)]),
    )
    .unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    // Rex is not yet provably a DOG, so Pat is not a DOG-OWNER.
    assert!(!kb.is_instance_of(owner, owner_c).unwrap());

    // Information about *Rex* arrives; the cascade must reach Pat.
    kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert!(
        kb.is_instance_of(owner, owner_c).unwrap(),
        "owner must be reclassified when its filler becomes a DOG"
    );
}

#[test]
fn cascades_chain_through_multiple_levels() {
    // GRAND-OWNER = person all of whose pets are DOG-OWNERs' pets? Build a
    // two-level chain instead: OBSERVER closed over watched DOG-OWNERs.
    let mut kb = schema();
    kb.define_role("watches").unwrap();
    let watches = kb.schema().symbols.find_role("watches").unwrap();
    let owner_c = Concept::Name(kb.schema().symbols.find_concept("DOG-OWNER").unwrap());
    kb.define_concept(
        "OWNER-WATCHER",
        Concept::and([Concept::AtLeast(1, watches), Concept::all(watches, owner_c)]),
    )
    .unwrap();
    let watcher_c = kb.schema().symbols.find_concept("OWNER-WATCHER").unwrap();

    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();

    // cam watches Pat; Pat owns Rex (closed); Rex is an animal.
    let cam = kb.create_ind("Cam").unwrap();
    let pat = IndRef::Classic(kb.schema_mut().symbols.individual("Pat"));
    kb.assert_ind(
        "Cam",
        &Concept::and([Concept::Fills(watches, vec![pat]), Concept::Close(watches)]),
    )
    .unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind(
        "Pat",
        &Concept::and([Concept::Fills(pet, vec![rex]), Concept::Close(pet)]),
    )
    .unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    assert!(!kb.is_instance_of(cam, watcher_c).unwrap());

    // One fact about Rex cascades two levels: Rex→DOG, Pat→DOG-OWNER,
    // Cam→OWNER-WATCHER.
    let report = kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert!(kb.is_instance_of(cam, watcher_c).unwrap());
    assert!(
        report.reclassified >= 2,
        "at least Pat and Cam reclassified"
    );
}

#[test]
fn rejected_cascade_rolls_back_every_level() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    // CAT-PEOPLE: pets all provably non-dogs — model with AT-MOST 0
    // barks-at propagated through ALL.
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind("Pat", &Concept::Fills(pet, vec![rex]))
        .unwrap();
    // Rex barks at the mailman.
    let mailman = IndRef::Classic(kb.schema_mut().symbols.individual("Mailman"));
    kb.assert_ind("Rex", &Concept::Fills(barks, vec![mailman]))
        .unwrap();
    let rex_id = kb
        .ind_id(kb.schema().symbols.find_individual("Rex").unwrap())
        .unwrap();
    let before = kb.ind(rex_id).derived().clone();
    // Asserting that Pat's pets never bark contradicts Rex's filler — the
    // propagation reaches Rex, clashes there, and must roll back both.
    let err = kb
        .assert_ind("Pat", &Concept::all(pet, Concept::AtMost(0, barks)))
        .unwrap_err();
    assert!(matches!(
        err,
        classic_core::ClassicError::Inconsistent { .. }
    ));
    assert_eq!(kb.ind(rex_id).derived(), &before, "Rex fully restored");
    let pat_id = kb
        .ind_id(kb.schema().symbols.find_individual("Pat").unwrap())
        .unwrap();
    let vr = kb.ind(pat_id).derived().value_restriction(pet);
    assert!(vr.is_top(), "Pat's rejected ALL restriction removed");
}

#[test]
fn cascade_does_not_disturb_unrelated_individuals() {
    let mut kb = schema();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();
    kb.create_ind("Rex").unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    kb.create_ind("Unrelated").unwrap();
    let u = kb
        .ind_id(kb.schema().symbols.find_individual("Unrelated").unwrap())
        .unwrap();
    let before = kb.ind(u).derived().clone();
    let before_msc: Vec<_> = kb.ind(u).msc().collect();
    kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert_eq!(kb.ind(u).derived(), &before);
    assert!(kb.ind(u).msc().eq(before_msc));
}

/// An individual is where it sits: a concept defined *above* an
/// individual's most specific one installs nothing on it, yet the
/// individual is an instance of the newcomer through the taxonomy — and a
/// refused definition leaves every membership as it was.
#[test]
fn a_concept_defined_above_an_instance_holds_it_without_reinstalling() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();
    let owner_c = kb.schema().symbols.find_concept("DOG-OWNER").unwrap();
    let pat = kb.create_ind("Pat").unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    let told = [
        person.clone(),
        Concept::Fills(pet, vec![rex]),
        Concept::Close(pet),
    ];
    kb.assert_ind("Pat", &Concept::and(told)).unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert!(kb.is_instance_of(pat, owner_c).unwrap());
    let owner_node = kb.taxonomy().node_of(owner_c).unwrap();
    assert!(kb.ind(pat).msc().eq([owner_node]));

    // KEEPER sits strictly between PERSON and DOG-OWNER.
    let keeper_def = Concept::and([person.clone(), Concept::AtLeast(1, pet)]);
    let keeper = kb.define_concept("KEEPER", keeper_def).unwrap();
    let keeper_node = kb.taxonomy().node_of(keeper).unwrap();
    assert!(kb.taxonomy().is_strict_ancestor(keeper_node, owner_node));
    assert!(kb.ind(pat).msc().eq([owner_node]), "Pat stays where it sat");
    assert!(kb.is_instance_of(pat, keeper).unwrap());
    let retrieve = |kb: &Kb, c: ConceptName| {
        let answer = Query::concept(Concept::Name(c)).run(kb).unwrap();
        answer.into_known().unwrap().known
    };
    assert_eq!(retrieve(&kb, keeper), vec![pat]);
    kb.check_invariants().unwrap();

    // A definition whose recognizer panics on Pat is refused, and every
    // membership of every individual reads as before.
    let boom = kb.register_test("boom", |_| panic!("recognizer refuses"));
    let memberships = |kb: &Kb| -> Vec<(IndId, ConceptName, bool)> {
        let names = ["PERSON", "ANIMAL", "DOG", "DOG-OWNER", "KEEPER"];
        let names = names.map(|n| kb.schema().symbols.find_concept(n).unwrap());
        (kb.ind_ids())
            .flat_map(|id| names.map(|c| (id, c, kb.is_instance_of(id, c).unwrap())))
            .collect()
    };
    let before = memberships(&kb);
    let fragile = Concept::and([Concept::Name(keeper), Concept::Test(boom)]);
    assert!(kb.define_concept("FRAGILE", fragile).is_err());
    assert!(kb
        .schema()
        .symbols
        .find_concept("FRAGILE")
        .is_none_or(|c| { kb.taxonomy().node_of(c).is_none() }));
    assert_eq!(memberships(&kb), before);
    assert!(kb.ind(pat).msc().eq([owner_node]));
    assert_eq!(retrieve(&kb, keeper), vec![pat]);
    kb.check_invariants().unwrap();
}

#[test]
fn what_if_reports_without_mutating() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind("Pat", &Concept::Fills(pet, vec![rex]))
        .unwrap();
    let count_before = kb.ind_count();
    let pat = kb
        .ind_id(kb.schema().symbols.find_individual("Pat").unwrap())
        .unwrap();
    let derived_before = kb.ind(pat).derived().clone();

    // Hypothetical: what if all of Pat's pets bark at the mailman?
    let mailman = IndRef::Classic(kb.schema_mut().symbols.individual("Mailman"));
    let report = kb
        .what_if(
            "Pat",
            &Concept::all(pet, Concept::Fills(barks, vec![mailman])),
        )
        .expect("would be accepted");
    assert!(report.fills_propagated >= 1, "Rex would gain the filler");
    // Nothing actually changed — including the hypothetical Mailman.
    assert_eq!(kb.ind_count(), count_before, "Mailman rolled back");
    assert_eq!(kb.ind(pat).derived(), &derived_before);
    assert!(
        kb.schema().symbols.find_individual("Mailman").is_some(),
        "interned is fine"
    );
    let mailman_name = kb.schema().symbols.find_individual("Mailman").unwrap();
    assert!(kb.ind_id(mailman_name).is_err(), "but never created");

    // A contradictory hypothetical reports the rejection, equally without
    // side effects.
    let err = kb
        .what_if("Pat", &Concept::AtMost(0, pet))
        .expect_err("contradicts the known filler");
    assert!(matches!(
        err,
        classic_core::ClassicError::Inconsistent { .. }
    ));
    assert_eq!(kb.ind(pat).derived(), &derived_before);
}

// ---- wide cascades: one update, one epoch, 70–120 individuals ------------

/// A hub schema: `TRACKED` is what an `ALL member` pushes onto the
/// fillers, `HUB` is recognized from the filler count.
fn wide_schema() -> Kb {
    let mut kb = Kb::new();
    let member = kb.define_role("member").unwrap();
    kb.define_concept("TRACKED", Concept::primitive(Concept::thing(), "tracked"))
        .unwrap();
    kb.define_concept("HUB", Concept::AtLeast(3, member))
        .unwrap();
    kb
}

/// Create `Hub` and fill its `member` role with `n` fresh individuals
/// named `{prefix}{i}`; returns `(ALL member TRACKED)` for the caller to
/// assert.
fn hub_over(kb: &mut Kb, prefix: &str, n: usize) -> Concept {
    let member = kb.schema().symbols.find_role("member").unwrap();
    let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
    kb.create_ind("Hub").unwrap();
    let fillers: Vec<IndRef> = (0..n)
        .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("{prefix}{i}"))))
        .collect();
    kb.assert_ind("Hub", &Concept::Fills(member, fillers))
        .unwrap();
    Concept::all(member, Concept::Name(tracked))
}

fn arena_names(kb: &Kb) -> Vec<String> {
    kb.ind_ids()
        .map(|i| {
            kb.schema()
                .symbols
                .individual_name(kb.ind(i).name)
                .to_owned()
        })
        .collect()
}

#[test]
fn wide_all_cascade_reaches_every_filler() {
    let mut kb = wide_schema();
    let all = hub_over(&mut kb, "m", 120);
    let report = kb.assert_ind("Hub", &all).unwrap();
    assert_eq!(report.fills_propagated, 120);
    let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
    assert_eq!(kb.instances_of(tracked).unwrap().len(), 120);
    kb.check_invariants().unwrap();
}

#[test]
fn wide_rule_cascade_fires_on_every_filler() {
    let mut kb = wide_schema();
    kb.define_concept("VIP", Concept::primitive(Concept::thing(), "vip"))
        .unwrap();
    let vip = kb.schema().symbols.find_concept("VIP").unwrap();
    // Every TRACKED individual becomes a VIP via forward chaining.
    kb.assert_rule("TRACKED", Concept::Name(vip)).unwrap();
    let all = hub_over(&mut kb, "w", 80);
    let report = kb.assert_ind("Hub", &all).unwrap();
    assert_eq!(report.rules_fired, 80);
    assert_eq!(kb.instances_of(vip).unwrap().len(), 80);
    kb.check_invariants().unwrap();
}

#[test]
fn wide_same_as_cascade_derives_every_driver() {
    let mut kb = Kb::new();
    let owner = kb.define_attribute("owner").unwrap();
    let driver = kb.define_attribute("driver").unwrap();
    let member = kb.define_role("member").unwrap();
    let mut cars: Vec<IndRef> = Vec::new();
    for i in 0..70 {
        let name = format!("car{i}");
        kb.create_ind(&name).unwrap();
        let olga = kb.schema_mut().symbols.individual(&format!("olga{i}"));
        kb.assert_ind(&name, &Concept::Fills(owner, vec![IndRef::Classic(olga)]))
            .unwrap();
        cars.push(IndRef::Classic(kb.schema_mut().symbols.individual(&name)));
    }
    // SAME-AS((owner)(driver)) — the driver must be the owner — pushed
    // onto all 70 cars at once through an ALL, so one epoch derives
    // every driver.
    kb.create_ind("Fleet").unwrap();
    kb.assert_ind("Fleet", &Concept::Fills(member, cars))
        .unwrap();
    let report = kb
        .assert_ind(
            "Fleet",
            &Concept::all(member, Concept::SameAs(vec![owner], vec![driver])),
        )
        .unwrap();
    assert_eq!(report.corefs_derived, 70);
    for i in 0..70 {
        let car = kb
            .ind_id(
                kb.schema()
                    .symbols
                    .find_individual(&format!("car{i}"))
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(
            kb.ind(car).fillers(driver),
            kb.ind(car).fillers(owner),
            "car{i}: the driver is the owner"
        );
    }
    kb.check_invariants().unwrap();
}

#[test]
fn refused_wide_update_leaves_no_trace() {
    let mut kb = wide_schema();
    let member = kb.schema().symbols.find_role("member").unwrap();
    hub_over(&mut kb, "x", 80);
    // x0 already needs ≥2 members, so the ALL cascade below — which
    // pushes (AT-MOST 1 member) onto every filler — must clash on it
    // partway through a wide epoch and roll the whole update back.
    kb.assert_ind("x0", &Concept::AtLeast(2, member)).unwrap();
    let before = kb.clone();
    let err = kb
        .assert_ind("Hub", &Concept::all(member, Concept::AtMost(1, member)))
        .unwrap_err();
    assert!(matches!(
        err,
        classic_core::ClassicError::Inconsistent { .. }
    ));
    assert!(same_state(&before, &kb) && same_state(&kb, &before));
    assert_eq!(arena_names(&before), arena_names(&kb));
    kb.check_invariants().unwrap();
}

#[test]
fn retraction_after_a_wide_cascade_rederives_every_filler() {
    let mut kb = wide_schema();
    let all = hub_over(&mut kb, "r", 80);
    kb.assert_ind("Hub", &all).unwrap();
    // Retract the ALL: every filler loses TRACKED via re-derivation,
    // which seeds the widest worklist in the engine.
    let report = kb.retract_ind("Hub", &all).unwrap();
    assert!(report.reset >= 81, "the hub and its 80 fillers are reset");
    let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
    assert_eq!(kb.instances_of(tracked).unwrap().len(), 0);
    kb.check_invariants().unwrap();
}

#[test]
fn wide_cascades_are_deterministic_across_repeats() {
    let build = || {
        let mut kb = wide_schema();
        let all = hub_over(&mut kb, "d", 100);
        kb.assert_ind("Hub", &all).unwrap();
        kb
    };
    let first = build();
    first.check_invariants().unwrap();
    for round in 0..3 {
        let again = build();
        // Determinism is stronger than logical equality: the arena
        // creation order must match run to run, because effects apply in
        // batch order.
        assert_eq!(
            arena_names(&first),
            arena_names(&again),
            "arena order varied on round {round}"
        );
        assert_eq!(
            first.stats.propagation_steps.get(),
            again.stats.propagation_steps.get(),
            "step count varied on round {round}"
        );
        assert!(
            same_state(&first, &again) && same_state(&again, &first),
            "state varied on round {round}"
        );
    }
}
