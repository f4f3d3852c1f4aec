//! Aliasing oracle for the copy-on-write storage behind [`Kb::clone`].
//!
//! A clone shares its chunks with the KB it was cut from, so the failure
//! this guards against is a write — or a rollback, or the drop of another
//! clone — on one version showing through in another. The shared
//! histories (tests/support/history.rs), over every write operator, run
//! against one primary while clones are cut and dropped at random
//! points; each clone must remain, for as long as it lives, the state a
//! *replay* of the writes accepted before its cut produces on a KB that
//! shares nothing with anything.
//!
//! The same histories are the oracle for the transaction every write
//! runs in: the state is kept before each step, and a step that is
//! refused — a clash, a name nothing defines, a redefinition, a `TEST`
//! recognizer that panics, whichever of the write operators it was — or
//! that only reads, tries a `what-if?`, cuts or drops a version, must
//! leave the primary indistinguishable from it, schema, taxonomy, rule
//! table and primitive declarations included; and after every step,
//! accepted or not, the primary is a fixed point of the propagation
//! step.

use classic_core::desc::Concept;
use classic_kb::{BulkRow, Kb};
use classic_store::same_state;
use history::{Before, Run};
use proptest::prelude::*;
use std::collections::HashMap;

#[path = "../../../tests/support/history.rs"]
mod history;

/// Is `kb`, a version cut after the first `cut` accepted writes of
/// `log`, still exactly what their replay builds, sharing nothing? Each
/// replay is built once and only read after.
fn check(replays: &mut HashMap<usize, Kb>, kb: &Kb, log: &[String], cut: usize, context: &str) {
    let replay = replays
        .entry(cut)
        .or_insert_with(|| history::replay(&log[..cut]));
    let context = format!("{context}: a version cut after {cut} writes");
    history::assert_same(kb, replay, &context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_clone_is_the_replay_of_what_preceded_its_cut_whatever_follows(
        steps in history::history(40)
    ) {
        let mut run = Run::default();
        let mut replays = HashMap::new();
        run.versions.push((run.kb.clone(), 0));
        for (at, step) in steps.iter().enumerate() {
            let context = format!("after step {at} ({step:?})");
            let before = Before::of(&run.kb);
            let done = run.step(step);
            if !(done.write && done.accepted) {
                // Refused, read, cut or dropped means untouched, the
                // retired rules included.
                before.assert_unchanged(&run.kb, &context);
            }
            // Accepted means closed (and refused, still closed).
            run.kb.check_invariants().unwrap_or_else(|e| panic!("{context}: {e}"));
            // One version a step, in rotation, so every one is checked
            // against writes, rollbacks and drops that came after it.
            if !run.versions.is_empty() {
                let (kb, cut) = &run.versions[at % run.versions.len()];
                check(&mut replays, kb, run.log(), *cut, &context);
            }
        }
        // The primary is a version too; then every version, last of all
        // after the primary itself is gone.
        let log = run.log().to_vec();
        let mut versions = std::mem::take(&mut run.versions);
        versions.push((run.kb.clone(), log.len()));
        drop(run);
        for (kb, cut) in &versions {
            check(&mut replays, kb, &log, *cut, "end");
        }
        while let Some((kb, cut)) = versions.pop() {
            check(&mut replays, &kb, &log, cut, "primary gone");
        }
    }
}

/// The base's `P0`.
fn p0(kb: &Kb) -> Concept {
    Concept::Name(kb.schema().symbols.find_concept("P0").unwrap())
}

/// The same property where chunks are actually sealed and shared: a KB
/// of a few thousand individuals, written to across chunk boundaries
/// after the cut, with the sharing counted.
#[test]
fn a_large_clone_shares_all_but_what_the_writes_touched() {
    let mut kb = history::fresh();
    let r0 = kb.schema().symbols.find_role("r0").unwrap();
    let p0 = p0(&kb);
    let rows: Vec<BulkRow> = (0..3_000)
        .map(|i| BulkRow {
            name: format!("bulk-{i}"),
            desc: Concept::and([p0.clone(), Concept::AtLeast(1 + i % 2, r0)]),
        })
        .collect();
    assert_eq!(kb.bulk_assert(&rows).accepted, rows.len());
    let pinned = kb.clone();
    let whole = pinned.sharing_with(&kb);
    assert_eq!(whole.chunks_shared, whole.chunks_total);
    assert!(whole.chunks_total > 100, "{whole:?}");
    let before = (history::answers(&pinned), pinned.ind_count());

    // Writes at both ends and in the middle of the arena, a refused
    // one, a retraction and a rule over every BUSY individual.
    kb.create_ind("fresh").unwrap();
    kb.assert_ind("fresh", &p0).unwrap();
    kb.assert_ind("bulk-1500", &Concept::AtLeast(3, r0))
        .unwrap();
    assert!(kb.assert_ind("bulk-7", &Concept::AtMost(0, r0)).is_err());
    let after_point_writes = pinned.sharing_with(&kb);
    assert!(
        after_point_writes.chunks_total - after_point_writes.chunks_shared <= 16,
        "{after_point_writes:?}"
    );
    kb.retract_ind("bulk-1500", &Concept::AtLeast(3, r0))
        .unwrap();
    let r1 = kb.schema().symbols.find_role("r1").unwrap();
    kb.assert_rule("BUSY", Concept::AtMost(9, r1)).unwrap();
    kb.check_invariants().unwrap();

    assert_eq!((history::answers(&pinned), pinned.ind_count()), before);
    pinned.check_invariants().unwrap();
    let mut reference = history::fresh();
    assert_eq!(reference.bulk_assert(&rows).accepted, rows.len());
    assert!(same_state(&pinned, &reference) && same_state(&reference, &pinned));
    // With the primary gone the clone is the only holder, and is whole.
    drop(kb);
    assert_eq!(history::answers(&pinned), before.0);
    pinned.check_invariants().unwrap();
}

/// A read writes nothing. Classifying forms the taxonomy has never seen,
/// and retrieving through a `TEST` recognizer that accepts, leave the
/// taxonomy, every individual and the chunks a pinned clone shares as
/// they were.
#[test]
fn a_read_writes_nothing() {
    let mut kb = history::fresh();
    let role = |name| kb.schema().symbols.find_role(name).unwrap();
    let (r0, r1) = (role("r0"), role("r1"));
    for i in 0..4 {
        kb.assert_ind(&format!("x{i}"), &Concept::AtLeast(1, r0))
            .unwrap();
    }
    let pinned = kb.clone();
    let p0 = p0(&kb);
    let unseen = [
        Concept::and([p0.clone(), Concept::AtLeast(2, r0)]),
        Concept::AtMost(3, r1),
        Concept::and([p0.clone(), Concept::all(r1, p0)]),
    ];
    // No node subsumes it, so every individual is a candidate and the
    // recognizer runs on each one not yet refused.
    let fragile = kb.schema().symbols.find_test("fragile").unwrap();
    let tested = Concept::and([Concept::Test(fragile), Concept::AtLeast(1, r0)]);
    let state = |kb: &Kb| {
        let inds: Vec<String> = kb.ind_ids().map(|id| format!("{:?}", kb.ind(id))).collect();
        (kb.kernel_stats().interned, inds, kb.sharing_with(&pinned))
    };
    let before = state(&kb);
    for q in &unseen {
        let nf = kb.normalize(q).unwrap();
        let placed = kb.taxonomy().classify(&nf);
        assert_eq!(placed.equivalent, None, "{q:?} is new to the taxonomy");
    }
    let known = classic_query::Query::concept(tested).run(&kb).unwrap();
    let names: Vec<&str> = known
        .into_known()
        .expect("known answers")
        .known
        .into_iter()
        .map(|id| kb.schema().symbols.individual_name(kb.ind(id).name))
        .collect();
    assert_eq!(names, ["x0", "x2"]);
    assert_eq!(state(&kb), before);
    // The clone shares the taxonomy's counters, the one thing a read
    // bumps, so its `Debug` is the taxonomy's before the reads.
    assert_eq!(
        format!("{:?}", kb.taxonomy()),
        format!("{:?}", pinned.taxonomy())
    );
}
