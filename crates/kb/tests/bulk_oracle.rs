//! Oracle: `bulk_assert` is observationally equal to one-at-a-time
//! replay.
//!
//! The bulk path batches rule firing and realization into chunked
//! fixpoints and rolls rejected rows back with a journal, so it is a
//! different *mechanism* from the sequential `assert-ind` loop — but it
//! promises the same *semantics*: each row is accepted or rejected
//! exactly as the sequential loop would decide, a rejected row leaves
//! no trace (not even its target individual), and the final database
//! state is identical to replaying just the accepted rows in order.
//! These properties drive random row batches (duplicate targets, new
//! fillers, clashing restrictions) through both paths at several chunk
//! sizes — including chunk size 1, which forces the sequential
//! fallback machinery — and compare the final states with the shared
//! comparison (tests/support/history.rs).

use classic_core::desc::{Concept, IndRef};
use classic_core::symbol::RoleId;
use classic_kb::{BulkRow, Kb};
use proptest::prelude::*;

#[path = "../../../tests/support/history.rs"]
mod history;

const N_ROLES: usize = 3;
const N_TARGETS: usize = 4;
const N_FILLERS: usize = 3;

/// Fixed schema with enough structure to make rows interact: a
/// primitive, a disjoint pair (so rows can clash), and restrictions
/// that recognize individuals other rows touched.
fn schema_kb() -> Kb {
    let mut kb = Kb::new();
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
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
    let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
    kb.define_concept(
        "BUSY",
        Concept::and([
            p0,
            Concept::AtLeast(2, RoleId::from_index(0)),
            Concept::AtMost(6, RoleId::from_index(1)),
        ]),
    )
    .unwrap();
    kb
}

/// One generated row: a target name index plus a small description.
#[derive(Debug, Clone)]
enum Shape {
    Prim(&'static str),
    AtLeast(usize, u32),
    AtMost(usize, u32),
    Fills(usize, usize),
    Close(usize),
    All(usize, &'static str),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        prop_oneof![Just("P0"), Just("D-LEFT"), Just("D-RIGHT")].prop_map(Shape::Prim),
        (0..N_ROLES, 0u32..4).prop_map(|(r, n)| Shape::AtLeast(r, n)),
        (0..N_ROLES, 0u32..4).prop_map(|(r, n)| Shape::AtMost(r, n)),
        (0..N_ROLES, 0..N_FILLERS).prop_map(|(r, j)| Shape::Fills(r, j)),
        (0..N_ROLES).prop_map(Shape::Close),
        (0..N_ROLES, prop_oneof![Just("P0"), Just("D-LEFT")]).prop_map(|(r, n)| Shape::All(r, n)),
    ]
}

fn row_strategy() -> impl Strategy<Value = (usize, Vec<Shape>)> {
    (
        0..N_TARGETS,
        proptest::collection::vec(shape_strategy(), 1..3),
    )
}

fn build_row(kb: &mut Kb, target: usize, shapes: &[Shape]) -> BulkRow {
    let parts: Vec<Concept> = shapes
        .iter()
        .map(|s| match s {
            Shape::Prim(n) => Concept::Name(kb.schema_mut().symbols.concept(n)),
            Shape::AtLeast(r, n) => Concept::AtLeast(*n, RoleId::from_index(*r)),
            Shape::AtMost(r, n) => Concept::AtMost(*n, RoleId::from_index(*r)),
            Shape::Fills(r, j) => {
                let f = IndRef::Classic(kb.schema_mut().symbols.individual(&format!("y{j}")));
                Concept::Fills(RoleId::from_index(*r), vec![f])
            }
            Shape::Close(r) => Concept::Close(RoleId::from_index(*r)),
            Shape::All(r, n) => {
                let inner = Concept::Name(kb.schema_mut().symbols.concept(n));
                Concept::all(RoleId::from_index(*r), inner)
            }
        })
        .collect();
    BulkRow {
        name: format!("x{target}"),
        desc: Concept::and(parts),
    }
}

/// The sequential oracle: per row, create the target if absent, try the
/// assertion, and restore the whole-KB snapshot on rejection (so a
/// rejected row leaves no trace, matching the bulk contract). Returns
/// the per-row accept flags alongside the final state.
fn sequential_oracle(mut kb: Kb, rows: &[BulkRow]) -> (Kb, Vec<bool>) {
    let mut accepted = Vec::with_capacity(rows.len());
    for row in rows {
        let before = kb.clone();
        let exists = kb
            .schema()
            .symbols
            .find_individual(&row.name)
            .is_some_and(|n| kb.ind_id(n).is_ok());
        if !exists {
            kb.create_ind(&row.name).unwrap();
        }
        match kb.assert_ind(&row.name, &row.desc) {
            Ok(_) => accepted.push(true),
            Err(_) => {
                kb = before;
                accepted.push(false);
            }
        }
    }
    (kb, accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk load == sequential replay: same per-row accept/reject
    /// decisions, same final state, at every chunk size (1 forces the
    /// per-row fallback, 2 mixes chunked and fallback, 512 is the
    /// production default taking one chunk).
    #[test]
    fn bulk_assert_matches_sequential_replay(
        specs in proptest::collection::vec(row_strategy(), 1..16),
        chunk in prop_oneof![Just(1usize), Just(2), Just(512)],
    ) {
        let mut kb = schema_kb();
        let rows: Vec<BulkRow> = specs
            .iter()
            .map(|(t, shapes)| build_row(&mut kb, *t, shapes))
            .collect();
        let (oracle, oracle_accepted) = sequential_oracle(kb.clone(), &rows);

        let report = kb.bulk_assert_chunked(&rows, chunk);

        prop_assert_eq!(
            &report.row_accepted,
            &oracle_accepted,
            "bulk and sequential replay disagree on which rows commit"
        );
        prop_assert_eq!(report.accepted, oracle_accepted.iter().filter(|a| **a).count());
        prop_assert_eq!(report.rejected, rows.len() - report.accepted);
        history::assert_same(&kb, &oracle, &format!("final states diverge (chunk={chunk})"));
    }

    /// Rejected rows leave no trace even when the row itself introduced
    /// its target: the individual count after a bulk load equals the
    /// sequential oracle's, so no husk individuals leak.
    #[test]
    fn rejected_rows_leak_no_individuals(
        specs in proptest::collection::vec(row_strategy(), 1..16),
    ) {
        let mut kb = schema_kb();
        let rows: Vec<BulkRow> = specs
            .iter()
            .map(|(t, shapes)| build_row(&mut kb, *t, shapes))
            .collect();
        let (oracle, _) = sequential_oracle(kb.clone(), &rows);
        kb.bulk_assert(&rows);
        prop_assert_eq!(kb.ind_count(), oracle.ind_count());
    }
}
