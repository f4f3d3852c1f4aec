//! Property-based thread-count invariance of the propagation fixpoint:
//! on any random assertion history, a KB planning on 1 thread and a KB
//! planning on 4 must accept/reject the exact same ops, report the exact
//! same `steps` for each accepted op, and converge to the same logical
//! state — which must itself pass `check_invariants`, closure under the
//! propagation step included. This lives in the store crate because
//! `same_state` — the cross-crate logical-state comparator — and the
//! proptest dev-dependency are both already here.

use classic_core::desc::{Concept, IndRef};
use classic_core::symbol::RoleId;
use classic_kb::Kb;
use classic_store::same_state;
use proptest::prelude::*;

const N_ROLES: usize = 3;
const N_INDS: usize = 8;
/// Bystanders for [`Op::Crowd`]: more than the engine's 64-item inline
/// threshold, so an epoch over all of them is planned on workers.
const N_CROWD: usize = 72;

fn schema_kb(threads: usize) -> Kb {
    let mut kb = Kb::new();
    kb.set_propagation_threads(threads);
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
    kb.define_concept(
        "HAS-R0",
        Concept::and([p0.clone(), Concept::AtLeast(1, RoleId::from_index(0))]),
    )
    .unwrap();
    // A rule so histories exercise forward chaining.
    kb.assert_rule("HAS-R0", Concept::AtMost(9, RoleId::from_index(1)))
        .unwrap();
    for i in 0..N_INDS {
        kb.create_ind(&format!("x{i}")).unwrap();
    }
    for i in 0..N_CROWD {
        kb.create_ind(&format!("w{i}")).unwrap();
    }
    kb
}

#[derive(Debug, Clone)]
enum Op {
    Prim(usize),
    AtLeast(usize, usize, u32),
    AtMost(usize, usize, u32),
    Fills(usize, usize, usize),
    /// Fill a role with several individuals at once.
    FillsMany(usize, usize, Vec<usize>),
    /// Fill a role with the whole crowd *and* restrict it to `P0` in one
    /// assertion: the restriction lands on all 72 at once, and the epoch
    /// that re-plans them is the wide one this file needs under TSan.
    Crowd(usize, usize),
    All(usize, usize),
    SameAs(usize, usize, usize),
    Close(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N_INDS).prop_map(Op::Prim),
        (0..N_INDS, 0..N_ROLES, 0u32..3).prop_map(|(i, r, n)| Op::AtLeast(i, r, n)),
        (0..N_INDS, 0..N_ROLES, 1u32..4).prop_map(|(i, r, n)| Op::AtMost(i, r, n)),
        (0..N_INDS, 0..N_ROLES, 0..N_INDS).prop_map(|(i, r, j)| Op::Fills(i, r, j)),
        (
            0..N_INDS,
            0..N_ROLES,
            proptest::collection::vec(0..N_INDS, 2..6)
        )
            .prop_map(|(i, r, js)| Op::FillsMany(i, r, js)),
        (0..N_INDS, 0..N_ROLES).prop_map(|(i, r)| Op::All(i, r)),
        (0..N_INDS, 0..N_ROLES).prop_map(|(i, r)| Op::Crowd(i, r)),
        (0..N_INDS, 0..N_ROLES, 0..N_ROLES).prop_map(|(i, r, s)| Op::SameAs(i, r, s)),
        (0..N_INDS, 0..N_ROLES).prop_map(|(i, r)| Op::Close(i, r)),
    ]
}

/// Apply one op; returns the steps it took, or `None` if the KB refused
/// it.
fn apply(kb: &mut Kb, op: &Op) -> Option<u64> {
    let (name, c) = match op {
        Op::Prim(i) => (
            format!("x{i}"),
            Concept::Name(kb.schema().symbols.find_concept("P0").unwrap()),
        ),
        Op::AtLeast(i, r, n) => (
            format!("x{i}"),
            Concept::AtLeast(*n, RoleId::from_index(*r)),
        ),
        Op::AtMost(i, r, n) => (format!("x{i}"), Concept::AtMost(*n, RoleId::from_index(*r))),
        Op::Fills(i, r, j) => {
            let f = IndRef::Classic(kb.schema_mut().symbols.individual(&format!("x{j}")));
            (
                format!("x{i}"),
                Concept::Fills(RoleId::from_index(*r), vec![f]),
            )
        }
        Op::FillsMany(i, r, js) => {
            let fs: Vec<IndRef> = js
                .iter()
                .map(|j| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("x{j}"))))
                .collect();
            (format!("x{i}"), Concept::Fills(RoleId::from_index(*r), fs))
        }
        Op::All(i, r) => {
            let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
            (
                format!("x{i}"),
                Concept::All(RoleId::from_index(*r), Box::new(p0)),
            )
        }
        Op::Crowd(i, r) => {
            let role = RoleId::from_index(*r);
            let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
            let crowd: Vec<IndRef> = (0..N_CROWD)
                .map(|j| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("w{j}"))))
                .collect();
            (
                format!("x{i}"),
                Concept::and([Concept::Fills(role, crowd), Concept::all(role, p0)]),
            )
        }
        Op::SameAs(i, r, s) => (
            format!("x{i}"),
            Concept::SameAs(vec![RoleId::from_index(*r)], vec![RoleId::from_index(*s)]),
        ),
        Op::Close(i, r) => (format!("x{i}"), Concept::Close(RoleId::from_index(*r))),
    };
    kb.assert_ind(&name, &c).ok().map(|report| report.steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_engine_matches_sequential_on_random_histories(
        ops in proptest::collection::vec(op_strategy(), 1..32)
    ) {
        let mut seq = schema_kb(1);
        let mut shd = schema_kb(4);
        for (ix, op) in ops.iter().enumerate() {
            let a = apply(&mut seq, op);
            let b = apply(&mut shd, op);
            prop_assert_eq!(
                a, b,
                "op {} ({:?}): accept/reject or step count depends on the thread count",
                ix, op
            );
            seq.check_invariants().expect("1-thread invariants");
        }
        prop_assert!(
            same_state(&seq, &shd),
            "same history, different state at 1 and 4 threads"
        );
        shd.check_invariants().expect("4-thread invariants");
    }
}
