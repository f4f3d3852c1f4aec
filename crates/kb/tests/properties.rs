//! Property-based tests for the knowledge-base invariants.
//!
//! Random sequences of `assert-ind` updates are driven against a fixed
//! schema; whatever the sequence, the paper's guarantees must hold:
//!
//! * **atomicity** (§3.1/§3.4): a rejected update leaves the database
//!   exactly as it was — derived descriptions, realizations, extensions;
//! * **monotonicity** (§5): accepted updates never shrink an individual's
//!   recognized concepts ("there is no 'removal'");
//! * **consistency** of the extension index with per-individual
//!   realizations;
//! * **answer-mode ordering** (§3.5.3): known answers ⊆ possible answers,
//!   and classified retrieval agrees exactly with the naive scan.

use classic_core::desc::{Concept, IndRef};
use classic_core::host::HostValue;
use classic_core::symbol::RoleId;
use classic_core::taxonomy::NodeId;
use classic_kb::{IndId, Kb};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[path = "../../../tests/support/history.rs"]
mod history;

const N_ROLES: usize = 3;
const N_INDS: usize = 5;
/// Host values told as fillers: `host_value(0..N_VALUES)`.
const N_VALUES: usize = 6;

/// The host values the oracle tells and asks for: three pairs that must
/// stay distinct — `1` and `1.0`, `"a"` and `'a`, `0.0` and `-0.0` — and,
/// at `N_VALUES`, one that is never told.
fn host_value(v: usize) -> HostValue {
    match v {
        0 => HostValue::Int(1),
        1 => HostValue::float(1.0),
        2 => HostValue::Str("a".into()),
        3 => HostValue::Sym("a".into()),
        4 => HostValue::float(0.0),
        5 => HostValue::float(-0.0),
        _ => HostValue::Int(7),
    }
}

fn schema_kb() -> Kb {
    let mut kb = Kb::new();
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
    kb.define_concept(
        "D-LEFT",
        Concept::disjoint_primitive(Concept::thing(), "side", "left"),
    )
    .unwrap();
    kb.define_concept(
        "D-RIGHT",
        Concept::disjoint_primitive(Concept::thing(), "side", "right"),
    )
    .unwrap();
    let r0 = RoleId::from_index(0);
    let r1 = RoleId::from_index(1);
    kb.define_concept(
        "HAS-R0",
        Concept::and([p0.clone(), Concept::AtLeast(1, r0)]),
    )
    .unwrap();
    kb.define_concept(
        "BUSY",
        Concept::and([p0, Concept::AtLeast(2, r0), Concept::AtMost(6, r1)]),
    )
    .unwrap();
    for i in 0..N_INDS {
        kb.create_ind(&format!("x{i}")).unwrap();
    }
    kb
}

/// One generated update step: (target individual, description).
#[derive(Debug, Clone)]
enum Step {
    Prim(usize, &'static str),
    AtLeast(usize, usize, u32),
    AtMost(usize, usize, u32),
    Fills(usize, usize, usize),
    /// `(FILLS r v)` with the host value `host_value(v)`.
    Value(usize, usize, usize),
    Close(usize, usize),
    All(usize, usize, &'static str),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            0..N_INDS,
            prop_oneof![Just("P0"), Just("D-LEFT"), Just("D-RIGHT")]
        )
            .prop_map(|(i, n)| Step::Prim(i, n)),
        (0..N_INDS, 0..N_ROLES, 0u32..4).prop_map(|(i, r, n)| Step::AtLeast(i, r, n)),
        (0..N_INDS, 0..N_ROLES, 0u32..4).prop_map(|(i, r, n)| Step::AtMost(i, r, n)),
        (0..N_INDS, 0..N_ROLES, 0..N_INDS).prop_map(|(i, r, j)| Step::Fills(i, r, j)),
        (0..N_INDS, 0..N_ROLES).prop_map(|(i, r)| Step::Close(i, r)),
        (
            0..N_INDS,
            0..N_ROLES,
            prop_oneof![Just("P0"), Just("D-LEFT")]
        )
            .prop_map(|(i, r, n)| Step::All(i, r, n)),
    ]
}

fn step_concept(kb: &mut Kb, step: &Step) -> (String, Concept) {
    let name_of = |kb: &mut Kb, j: usize| {
        IndRef::Classic(kb.schema_mut().symbols.individual(&format!("x{j}")))
    };
    let cname = |kb: &mut Kb, n: &str| Concept::Name(kb.schema_mut().symbols.concept(n));
    match step {
        Step::Prim(i, n) => (format!("x{i}"), cname(kb, n)),
        Step::AtLeast(i, r, n) => (
            format!("x{i}"),
            Concept::AtLeast(*n, RoleId::from_index(*r)),
        ),
        Step::AtMost(i, r, n) => (format!("x{i}"), Concept::AtMost(*n, RoleId::from_index(*r))),
        Step::Fills(i, r, j) => {
            let f = name_of(kb, *j);
            (
                format!("x{i}"),
                Concept::Fills(RoleId::from_index(*r), vec![f]),
            )
        }
        Step::Value(i, r, v) => (
            format!("x{i}"),
            Concept::Fills(RoleId::from_index(*r), vec![IndRef::Host(host_value(*v))]),
        ),
        Step::Close(i, r) => (format!("x{i}"), Concept::Close(RoleId::from_index(*r))),
        Step::All(i, r, n) => {
            let inner = cname(kb, n);
            (format!("x{i}"), Concept::all(RoleId::from_index(*r), inner))
        }
    }
}

/// What a generated query asks beside `P0` (always under it for
/// `AtLeast`, the original shape; optionally for the rest).
#[derive(Debug, Clone)]
enum Ask {
    AtLeast(usize, u32),
    /// `(FILLS r xj)`: candidates from xj's hosts.
    Fills(usize, usize),
    /// `(ALL r (FILLS s xj))`: a filler below the top level.
    AllFills(usize, usize, usize),
    /// `(AND (FILLS r xj) (FILLS s xk))`.
    TwoFills(usize, usize, usize, usize),
    /// `(FILLS r ghost)`, a name never created.
    Ghost(usize),
    /// `(ONE-OF xj xk)`.
    OneOf(usize, usize),
    /// `(FILLS r v)` with the host value `host_value(v)`, told or not.
    Value(usize, usize),
}

fn ask_strategy() -> impl Strategy<Value = Ask> {
    prop_oneof![
        5 => (0..N_ROLES, 0u32..3).prop_map(|(r, n)| Ask::AtLeast(r, n)),
        1 => (0..N_ROLES, 0..N_INDS).prop_map(|(r, j)| Ask::Fills(r, j)),
        1 => (0..N_ROLES, 0..N_ROLES, 0..N_INDS).prop_map(|(r, s, j)| Ask::AllFills(r, s, j)),
        1 => (0..N_ROLES, 0..N_INDS, 0..N_ROLES, 0..N_INDS)
            .prop_map(|(r, j, s, k)| Ask::TwoFills(r, j, s, k)),
        1 => (0..N_ROLES).prop_map(Ask::Ghost),
        1 => (0..N_INDS, 0..N_INDS).prop_map(|(j, k)| Ask::OneOf(j, k)),
        2 => (0..N_ROLES, 0..=N_VALUES).prop_map(|(r, v)| Ask::Value(r, v)),
    ]
}

fn ask_concept(kb: &mut Kb, ask: &Ask) -> Concept {
    let mut ind = |name: String| IndRef::Classic(kb.schema_mut().symbols.individual(&name));
    let role = RoleId::from_index;
    match *ask {
        Ask::AtLeast(r, n) => Concept::AtLeast(n, role(r)),
        Ask::Fills(r, j) => Concept::Fills(role(r), vec![ind(format!("x{j}"))]),
        Ask::AllFills(r, s, j) => {
            Concept::all(role(r), Concept::Fills(role(s), vec![ind(format!("x{j}"))]))
        }
        Ask::TwoFills(r, j, s, k) => Concept::and([
            Concept::Fills(role(r), vec![ind(format!("x{j}"))]),
            Concept::Fills(role(s), vec![ind(format!("x{k}"))]),
        ]),
        Ask::Ghost(r) => Concept::Fills(role(r), vec![ind("ghost".into())]),
        Ask::OneOf(j, k) => Concept::OneOf(vec![ind(format!("x{j}")), ind(format!("x{k}"))]),
        Ask::Value(r, v) => Concept::Fills(role(r), vec![IndRef::Host(host_value(v))]),
    }
}

/// The interior nodes `id` is an instance of, read through
/// [`Kb::is_instance_of`].
fn memberships(kb: &Kb, id: IndId) -> BTreeSet<NodeId> {
    (kb.taxonomy().interior_nodes())
        .filter(|&n| {
            let name = kb.taxonomy().node(n).names[0];
            kb.is_instance_of(id, name).unwrap()
        })
        .collect()
}

/// A node's instances, read through the extension index.
fn instances(kb: &Kb, node: NodeId) -> BTreeSet<IndId> {
    let mut ids = BTreeSet::new();
    kb.for_each_instance(node, |id| {
        ids.insert(id);
    });
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rejected_updates_roll_back_completely(
        steps in proptest::collection::vec(step_strategy(), 1..24)
    ) {
        let mut kb = schema_kb();
        for step in &steps {
            let (name, c) = step_concept(&mut kb, step);
            let before = history::Before::of(&kb);
            let count_before = kb.ind_count();
            match kb.assert_ind(&name, &c) {
                Ok(_) => {} // accepted; nothing to check here
                Err(_) => {
                    // Atomicity: identical state, including no leaked
                    // implicitly-created individuals.
                    prop_assert_eq!(kb.ind_count(), count_before);
                    before.assert_unchanged(&kb, "a rejected update");
                }
            }
        }
    }

    #[test]
    fn accepted_updates_are_monotone(
        steps in proptest::collection::vec(step_strategy(), 1..24)
    ) {
        let mut kb = schema_kb();
        for step in &steps {
            let (name, c) = step_concept(&mut kb, step);
            let memberships_before: Vec<BTreeSet<NodeId>> = kb
                .ind_ids()
                .map(|id| memberships(&kb, id))
                .collect();
            if kb.assert_ind(&name, &c).is_ok() {
                for (ix, before) in memberships_before.iter().enumerate() {
                    let after = memberships(&kb, IndId::from_index(ix));
                    prop_assert!(
                        before.is_subset(&after),
                        "individual {ix} lost memberships: {before:?} ⊄ {after:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn extension_index_is_consistent(
        steps in proptest::collection::vec(step_strategy(), 1..24)
    ) {
        let mut kb = schema_kb();
        for step in &steps {
            let (name, c) = step_concept(&mut kb, step);
            let _ = kb.assert_ind(&name, &c);
        }
        // The public invariant checker agrees with the hand-rolled checks
        // below.
        kb.check_invariants().expect("invariants hold");
        // Every individual appears in the instance set of every node it is
        // recognized under, and conversely.
        for id in kb.ind_ids() {
            for node in memberships(&kb, id) {
                prop_assert!(
                    instances(&kb, node).contains(&id),
                    "extension index missing {id:?} at node {node:?}"
                );
            }
        }
        for node in kb.taxonomy().interior_nodes() {
            for id in instances(&kb, node) {
                prop_assert!(
                    memberships(&kb, id).contains(&node),
                    "extension index has phantom {id:?} at node {node:?}"
                );
            }
        }
        // Recognition agrees with a scan that walks nothing: membership
        // at every node is `known_instance` against that node's form
        // (recognition's `classify_brute`, where `check_invariants`
        // recomputes it with the walk it checks).
        for id in kb.ind_ids() {
            let members = memberships(&kb, id);
            for node in kb.taxonomy().interior_nodes() {
                let scanned = kb.known_instance(id, &kb.taxonomy().node(node).nf);
                prop_assert_eq!(
                    members.contains(&node),
                    scanned,
                    "recognition of {:?} at node {:?} disagrees with the scan",
                    id,
                    node
                );
            }
        }
    }

    #[test]
    fn speculative_and_rejected_updates_leave_invariants_clean(
        steps in proptest::collection::vec(step_strategy(), 1..20)
    ) {
        let mut kb = schema_kb();
        for step in &steps {
            let (name, c) = step_concept(&mut kb, step);
            // A hypothetical is always rolled back, accepted or not.
            let before = history::Before::of(&kb);
            let _ = kb.what_if(&name, &c);
            before.assert_unchanged(&kb, "what_if mutated state");
            kb.check_invariants().expect("invariants after what_if");
            // The real update; rejected ones must also leave the
            // invariants intact (not just the same state).
            let _ = kb.assert_ind(&name, &c);
            kb.check_invariants().expect("invariants after assert");
            // Retracting a never-told fact is rejected and harmless.
            let bogus = Concept::AtLeast(9, RoleId::from_index(0));
            let before = history::Before::of(&kb);
            prop_assert!(kb.retract_ind(&name, &bogus).is_err());
            before.assert_unchanged(&kb, "failed retraction mutated state");
            kb.check_invariants().expect("invariants after failed retraction");
        }
    }

    #[test]
    fn derived_descriptions_stay_coherent(
        steps in proptest::collection::vec(step_strategy(), 1..24)
    ) {
        let mut kb = schema_kb();
        for step in &steps {
            let (name, c) = step_concept(&mut kb, step);
            let _ = kb.assert_ind(&name, &c);
            // Invariant: a committed database never contains an
            // incoherent individual (inconsistencies are rejected).
            for id in kb.ind_ids() {
                prop_assert!(
                    !kb.ind(id).derived().is_incoherent(),
                    "committed state contains ⊥ at {id:?}"
                );
            }
        }
    }
}

proptest! {
    // Twice the cases of the block above: half the queries keep the
    // original shape, `(AND P0 (AT-LEAST n r))`, so that shape is still
    // drawn about 96 times.
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn known_answers_subset_of_possible_and_scan_agrees(
        // Told fillers weighted up, so that postings are often the
        // smallest candidate source.
        steps in proptest::collection::vec(prop_oneof![
            2 => (0..N_INDS, 0..N_ROLES, 0..N_INDS).prop_map(|(i, r, j)| Step::Fills(i, r, j)),
            3 => step_strategy(),
            2 => (0..N_INDS, 0..N_ROLES, 0..N_VALUES).prop_map(|(i, r, v)| Step::Value(i, r, v)),
        ], 1..16),
        retracts in proptest::collection::vec(0usize..16, 0..3),
        refused in (0..N_INDS, 0..N_ROLES, 0..N_VALUES),
        ask in ask_strategy(),
        under_p0 in 0u8..2,
    ) {
        let mut kb = schema_kb();
        for step in &steps {
            let (name, c) = step_concept(&mut kb, step);
            let _ = kb.assert_ind(&name, &c);
        }
        // Retracting told fillers leaves the reverse-filler index and the
        // value postings with edges removed (and hosts re-derived) under
        // the query.
        for ix in &retracts {
            let step = &steps[ix % steps.len()];
            if let Step::Fills(..) | Step::Value(..) = step {
                let (name, c) = step_concept(&mut kb, step);
                let _ = kb.retract_ind(&name, &c);
            }
        }
        // A write that AT-MOST refuses one epoch after its host filler's
        // edge went in: xi's value edge is entered when the first epoch
        // ends; the second pushes a filler of r1 through y onto z, which
        // may have none.
        let (i, r, v) = refused;
        let [r1, r2] = [1, 2].map(RoleId::from_index);
        let [y, z] = ["y", "z"].map(|n| IndRef::Classic(kb.schema_mut().symbols.individual(n)));
        kb.create_ind("z").unwrap();
        kb.assert_ind("z", &Concept::AtMost(0, r1)).unwrap();
        kb.create_ind("y").unwrap();
        kb.assert_ind("y", &Concept::Fills(r2, vec![z])).unwrap();
        let value = |r| Concept::Fills(r, vec![IndRef::Host(host_value(v))]);
        let cascade = Concept::and([
            value(RoleId::from_index(r)),
            Concept::Fills(r2, vec![y]),
            Concept::all(r2, Concept::all(r2, value(r1))),
        ]);
        prop_assert!(kb.assert_ind(&format!("x{i}"), &cascade).is_err());
        kb.check_invariants().expect("a refused write leaves no edge behind");
        let asked = ask_concept(&mut kb, &ask);
        let q = if under_p0 == 1 || matches!(ask, Ask::AtLeast(..)) {
            let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
            Concept::and([p0, asked])
        } else {
            asked
        };
        let known = classic_query::Query::concept(q.clone())
            .run(&kb)
            .unwrap()
            .into_known()
            .unwrap();
        let naive = classic_query::retrieve_naive(&kb, &q).unwrap();
        // Unsorted on both sides: the answer is in id order.
        prop_assert_eq!(&known.known, &naive.known, "classified and naive retrieval disagree");
        let possible = classic_query::Query::concept(q.clone())
            .possible()
            .run(&kb)
            .unwrap()
            .into_possible()
            .unwrap();
        for id in &known.known {
            prop_assert!(possible.contains(id), "known answer not possible");
        }
        prop_assert!(known.stats.tested <= naive.stats.tested);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Confluence: the completion is a fixpoint of monotone operators, so
    /// a jointly-consistent set of *declarative* assertions yields the
    /// same final database whatever order it arrives in — the property
    /// that makes the paper's "incremental model of information
    /// acquisition" (§6) coherent.
    ///
    /// `CLOSE` is deliberately excluded: it is epistemic ("no fillers
    /// beyond those already known" — §3.2), so its meaning depends on
    /// *when* it is uttered, and order-dependence is correct behavior for
    /// it (proptest found exactly that counterexample when it was
    /// included). Order can also change *which* updates are accepted when
    /// the set is inconsistent, so the property is conditioned on the
    /// first order accepting everything.
    #[test]
    fn consistent_assertion_sets_are_order_independent(
        raw_steps in proptest::collection::vec(step_strategy(), 1..12),
        rotation in 0usize..12,
    ) {
        let steps: Vec<Step> = raw_steps
            .into_iter()
            .filter(|s| !matches!(s, Step::Close(..)))
            .collect();
        prop_assume!(!steps.is_empty());
        let mut kb1 = schema_kb();
        let mut all_accepted = true;
        for step in &steps {
            let (name, c) = step_concept(&mut kb1, step);
            if kb1.assert_ind(&name, &c).is_err() {
                all_accepted = false;
                break;
            }
        }
        prop_assume!(all_accepted);
        // Apply the same facts in a rotated order.
        let mut reordered = steps.clone();
        let k = rotation % reordered.len();
        reordered.rotate_left(k);
        let mut kb2 = schema_kb();
        for step in &reordered {
            let (name, c) = step_concept(&mut kb2, step);
            prop_assert!(
                kb2.assert_ind(&name, &c).is_ok(),
                "jointly-consistent set rejected under reordering"
            );
        }
        history::assert_same(&kb1, &kb2, "reordered");
    }
}
