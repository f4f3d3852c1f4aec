//! Property-based tests for the segmented snapshot store: any accepted
//! update history — wherever compaction lands inside it, whatever the
//! segment budget, and in whatever order segments hydrate afterwards —
//! must reopen (eagerly *and* paged) to exactly the state of an
//! in-memory KB that executed the same history.

use classic_core::desc::{Concept, IndRef};
use classic_core::symbol::RoleId;
use classic_kb::Kb;
use classic_store::{same_state, snapshot_to_string, DurableKb};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const N_ROLES: usize = 3;
const N_INDS: usize = 4;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "classic-segprop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn oracle_kb() -> Kb {
    let mut kb = Kb::new();
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    kb.define_attribute("a0").unwrap();
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    kb.assert_rule("P0", Concept::AtMost(9, RoleId::from_index(1)))
        .unwrap();
    for i in 0..N_INDS {
        kb.create_ind(&format!("x{i}")).unwrap();
    }
    kb
}

fn store_with_schema(path: &std::path::Path, budget: usize) -> DurableKb {
    let mut store = DurableKb::open(path, |_| {}).unwrap();
    store.set_segment_budget(budget);
    for i in 0..N_ROLES {
        store.define_role(&format!("r{i}")).unwrap();
    }
    store.define_attribute("a0").unwrap();
    store
        .define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    store
        .assert_rule("P0", Concept::AtMost(9, RoleId::from_index(1)))
        .unwrap();
    for i in 0..N_INDS {
        store.create_ind(&format!("x{i}")).unwrap();
    }
    store
}

#[derive(Debug, Clone)]
enum Op {
    Prim(usize),
    AtLeast(usize, usize, u32),
    AtMost(usize, usize, u32),
    Fills(usize, usize, usize),
    FillsHost(usize, usize, i64),
    Close(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N_INDS).prop_map(Op::Prim),
        (0..N_INDS, 0..N_ROLES, 0u32..3).prop_map(|(i, r, n)| Op::AtLeast(i, r, n)),
        (0..N_INDS, 0..N_ROLES, 1u32..4).prop_map(|(i, r, n)| Op::AtMost(i, r, n)),
        (0..N_INDS, 0..N_ROLES, 0..N_INDS).prop_map(|(i, r, j)| Op::Fills(i, r, j)),
        (0..N_INDS, 0..N_ROLES, 0i64..5).prop_map(|(i, r, v)| Op::FillsHost(i, r, v)),
        (0..N_INDS, 0..N_ROLES).prop_map(|(i, r)| Op::Close(i, r)),
    ]
}

fn concept_for(op: &Op, intern: &mut dyn FnMut(&str) -> IndRef) -> (String, Concept) {
    match op {
        Op::Prim(_) => unreachable!("Prim is special-cased by the callers"),
        Op::AtLeast(i, r, n) => (
            format!("x{i}"),
            Concept::AtLeast(*n, RoleId::from_index(*r)),
        ),
        Op::AtMost(i, r, n) => (format!("x{i}"), Concept::AtMost(*n, RoleId::from_index(*r))),
        Op::Fills(i, r, j) => {
            let f = intern(&format!("x{j}"));
            (
                format!("x{i}"),
                Concept::Fills(RoleId::from_index(*r), vec![f]),
            )
        }
        Op::FillsHost(i, r, v) => (
            format!("x{i}"),
            Concept::Fills(
                RoleId::from_index(*r),
                vec![IndRef::Host(classic_core::HostValue::Int(*v))],
            ),
        ),
        Op::Close(i, r) => (format!("x{i}"), Concept::Close(RoleId::from_index(*r))),
    }
}

fn apply_to_kb(kb: &mut Kb, op: &Op) {
    let (name, c) = match op {
        Op::Prim(i) => (
            format!("x{i}"),
            Concept::Name(kb.schema().symbols.find_concept("P0").unwrap()),
        ),
        _ => {
            let mut intern = |n: &str| IndRef::Classic(kb.schema_mut().symbols.individual(n));
            let (name, c) = concept_for(op, &mut intern);
            (name, c)
        }
    };
    let _ = kb.assert_ind(&name, &c);
}

fn apply_to_store(store: &mut DurableKb, op: &Op) {
    let (name, c) = match op {
        Op::Prim(i) => (
            format!("x{i}"),
            Concept::Name(
                store
                    .kb()
                    .unwrap()
                    .schema()
                    .symbols
                    .find_concept("P0")
                    .unwrap(),
            ),
        ),
        Op::Fills(i, r, j) => {
            let f = IndRef::Classic(
                store
                    .kb()
                    .unwrap()
                    .schema()
                    .symbols
                    .find_individual(&format!("x{j}"))
                    .expect("created with the schema"),
            );
            (
                format!("x{i}"),
                Concept::Fills(RoleId::from_index(*r), vec![f]),
            )
        }
        _ => {
            let mut intern = |_: &str| unreachable!("only Fills interns");
            concept_for(op, &mut intern)
        }
    };
    let _ = store.assert_ind(&name, &c);
}

/// A deterministic permutation of the individual names, driven by a
/// proptest-chosen seed (simple LCG Fisher–Yates).
fn shuffled_names(seed: u64) -> Vec<String> {
    let mut names: Vec<String> = (0..N_INDS).map(|i| format!("x{i}")).collect();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in (1..names.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        names.swap(i, j);
    }
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any history, compacted at any point, reopens — eagerly and paged
    /// with segments hydrated in an arbitrary order — to the state of an
    /// in-memory KB that ran the same history.
    #[test]
    fn segmented_reopen_matches_in_memory_history(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        compact_pos in 0usize..16,
        budget in 1usize..=3,
        order_seed in 0u64..u64::MAX,
    ) {
        let dir = tmpdir();
        let path = dir.join("kb.log");
        let compact_at = compact_pos.min(ops.len());

        let mut oracle = oracle_kb();
        let mut store = store_with_schema(&path, budget);
        for (i, op) in ops.iter().enumerate() {
            if i == compact_at {
                store.compact().unwrap();
            }
            apply_to_kb(&mut oracle, op);
            apply_to_store(&mut store, op);
        }
        if compact_at == ops.len() {
            store.compact().unwrap();
        }
        prop_assert!(same_state(&oracle, store.kb().unwrap()), "live store diverged");
        let live_text = snapshot_to_string(store.kb().unwrap());
        drop(store);

        // Eager reopen: same state as the in-memory history, and the
        // snapshot text is a fixed point of the segmented round trip.
        let eager = DurableKb::open(&path, |_| {}).unwrap();
        prop_assert!(same_state(&oracle, eager.kb().unwrap()), "eager reopen diverged");
        prop_assert_eq!(&live_text, &snapshot_to_string(eager.kb().unwrap()));
        let eager_text = snapshot_to_string(eager.kb().unwrap());
        drop(eager);

        // Paged reopen, hydrating in an adversarial (random) order.
        let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
        for name in shuffled_names(order_seed) {
            paged.hydrate_for(&name).unwrap();
        }
        prop_assert!(paged.is_fully_hydrated(), "every name touched ⇒ fully hydrated");
        prop_assert!(same_state(&oracle, paged.kb().unwrap()), "paged reopen diverged");
        drop(paged);

        // Compacting the reopened store is a fixed point.
        let mut again = DurableKb::open(&path, |_| {}).unwrap();
        again.set_segment_budget(budget);
        again.compact().unwrap();
        drop(again);
        let last = DurableKb::open(&path, |_| {}).unwrap();
        prop_assert_eq!(eager_text, snapshot_to_string(last.kb().unwrap()));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
