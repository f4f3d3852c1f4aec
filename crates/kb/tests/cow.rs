//! Aliasing oracle for the copy-on-write storage behind [`Kb::clone`].
//!
//! A clone shares its chunks with the KB it was cut from, so the failure
//! this guards against is a write — or a rollback, or the drop of another
//! clone — on one version showing through in another. Random sequences
//! over every write operator run against one primary while clones are
//! cut and dropped at random points; each clone must remain, for as long
//! as it lives, the state a *replay* of the writes accepted before its
//! cut produces on a KB that shares nothing with anything.

use classic_core::desc::{Concept, IndRef};
use classic_core::schema::TestArg;
use classic_core::symbol::RoleId;
use classic_kb::{BulkRow, Kb};
use classic_store::same_state;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N_INDS: usize = 8;
const N_ROLES: usize = 2;
/// Fillers of `Hub`'s `member` role: wide enough (≥ 64) that a cascade
/// over them is planned on worker threads when the KB has any.
const N_MEMBERS: usize = 70;

/// The schema every history starts from, with every name a history can
/// mention interned up front — ids are then the same in the primary, in
/// its clones and in a reference built by calling this again, and a
/// `Concept` made for one is valid in all.
fn base(threads: usize, armed: &Arc<AtomicBool>) -> Kb {
    let mut kb = Kb::new();
    kb.set_propagation_threads(threads);
    for r in 0..N_ROLES {
        assert_eq!(kb.define_role(&format!("r{r}")).unwrap().index(), r);
    }
    let member = kb.define_role("member").unwrap();
    let switch = Arc::clone(armed);
    // Panics while armed; otherwise holds of every other individual, so
    // some positive outcomes are cached and must travel with their
    // individual — and be forgotten when a retraction resets it.
    kb.register_test("fragile", move |arg| {
        if switch.load(Ordering::SeqCst) {
            panic!("fragile recognizer blew up");
        }
        matches!(arg, TestArg::Ind(Some(name), _) if name.as_bytes()[name.len() - 1] % 2 == 0)
    });
    let fragile = kb.schema().symbols.find_test("fragile").unwrap();
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
    let r0 = RoleId::from_index(0);
    kb.define_concept("BUSY", Concept::and([p0.clone(), Concept::AtLeast(1, r0)]))
        .unwrap();
    kb.define_concept("SUSPECT", Concept::and([p0, Concept::Test(fragile)]))
        .unwrap();
    for k in 0..3 {
        kb.schema_mut().symbols.concept(&format!("N{k}"));
    }
    for i in 0..N_INDS {
        kb.schema_mut().symbols.individual(&format!("x{i}"));
    }
    kb.schema_mut().symbols.individual("xx-late");
    kb.create_ind("Hub").unwrap();
    let members: Vec<IndRef> = (0..N_MEMBERS)
        .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("m{i}"))))
        .collect();
    kb.assert_ind("Hub", &Concept::Fills(member, members))
        .unwrap();
    kb
}

/// One step of a history.
#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    /// `assert-ind x{i} <desc>`; may be refused.
    Assert(usize, Desc),
    WhatIf(usize, Desc),
    /// Retract the told fact `pick` selects among those still standing.
    Retract(usize),
    /// `assert-rule BUSY <desc>`; refused if it contradicts an instance.
    Rule(Desc),
    /// Retract the rule `pick` selects among the live ones.
    RetractRule(usize),
    /// Rows `(target, desc)`; clashing rows are refused one by one.
    Bulk(Vec<(usize, Desc)>),
    /// `define-concept N{k}`; refused the second time.
    Define(usize, Desc),
    /// Tell `x{i}` it is a `P0` while the recognizer panics: refused,
    /// unless its one `TEST` outcome is already cached.
    Panic(usize),
    /// Tell `Hub` that every member is a `P0`: one wide epoch.
    HubAll,
    /// Cut a clone here.
    Cut,
    /// Drop the clone `pick` selects among the live ones.
    Drop(usize),
}

/// A description, in a form that needs no symbol table to generate.
#[derive(Debug, Clone)]
enum Desc {
    P0,
    AtLeast(usize, u32),
    AtMost(usize, u32),
    Fills(usize, usize),
    AllP0(usize),
    /// Never satisfiable: `(AND (AT-LEAST 1 r) (AT-MOST 0 r))` beside a
    /// filler that would have to be created.
    Clash(usize),
}

impl Desc {
    fn concept(&self, kb: &Kb) -> Concept {
        let role = |r: &usize| RoleId::from_index(*r);
        let symbols = &kb.schema().symbols;
        let x = |i: &usize| IndRef::Classic(symbols.find_individual(&format!("x{i}")).unwrap());
        let p0 = Concept::Name(symbols.find_concept("P0").unwrap());
        match self {
            Desc::P0 => p0,
            Desc::AtLeast(r, n) => Concept::AtLeast(*n, role(r)),
            Desc::AtMost(r, n) => Concept::AtMost(*n, role(r)),
            Desc::Fills(r, j) => Concept::Fills(role(r), vec![x(j)]),
            Desc::AllP0(r) => Concept::all(role(r), p0),
            Desc::Clash(r) => Concept::and([
                Concept::Fills(
                    role(r),
                    vec![IndRef::Classic(symbols.find_individual("xx-late").unwrap())],
                ),
                Concept::AtLeast(1, role(r)),
                Concept::AtMost(0, role(r)),
            ]),
        }
    }
}

fn desc_strategy() -> impl Strategy<Value = Desc> {
    prop_oneof![
        2 => Just(Desc::P0),
        2 => (0..N_ROLES, 1u32..3).prop_map(|(r, n)| Desc::AtLeast(r, n)),
        1 => (0..N_ROLES, 0u32..3).prop_map(|(r, n)| Desc::AtMost(r, n)),
        3 => (0..N_ROLES, 0..N_INDS).prop_map(|(r, j)| Desc::Fills(r, j)),
        1 => (0..N_ROLES).prop_map(Desc::AllP0),
        1 => (0..N_ROLES).prop_map(Desc::Clash),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let row = (0..N_INDS, desc_strategy());
    prop_oneof![
        2 => (0..N_INDS).prop_map(Op::Create),
        6 => (0..N_INDS, desc_strategy()).prop_map(|(i, d)| Op::Assert(i, d)),
        2 => (0..N_INDS, desc_strategy()).prop_map(|(i, d)| Op::WhatIf(i, d)),
        3 => (0usize..64).prop_map(Op::Retract),
        1 => desc_strategy().prop_map(Op::Rule),
        1 => (0usize..8).prop_map(Op::RetractRule),
        2 => proptest::collection::vec(row, 1..6).prop_map(Op::Bulk),
        1 => (0usize..3, desc_strategy()).prop_map(|(k, d)| Op::Define(k, d)),
        1 => (0..N_INDS).prop_map(Op::Panic),
        1 => Just(Op::HubAll),
        4 => Just(Op::Cut),
        2 => (0usize..8).prop_map(Op::Drop),
    ]
}

/// An accepted write, as a reference replays it.
#[derive(Debug, Clone)]
enum Logged {
    Create(String),
    Assert(String, Concept),
    Retract(String, Concept),
    Rule(Concept),
    RetractRule(Concept),
    Define(String, Concept),
    Bulk(Vec<BulkRow>),
}

impl Logged {
    fn replay(&self, kb: &mut Kb) {
        let outcome = match self {
            Logged::Create(name) => kb.create_ind(name).map(drop),
            Logged::Assert(name, c) => kb.assert_ind(name, c).map(drop),
            Logged::Retract(name, c) => kb.retract_ind(name, c).map(drop),
            Logged::Rule(c) => kb.assert_rule("BUSY", c.clone()).map(drop),
            Logged::RetractRule(c) => kb.retract_rule("BUSY", c).map(drop),
            Logged::Define(name, c) => kb.define_concept(name, c.clone()).map(drop),
            Logged::Bulk(rows) => {
                assert_eq!(kb.bulk_assert(rows).accepted, rows.len(), "{self:?}");
                Ok(())
            }
        };
        outcome.unwrap_or_else(|e| panic!("an accepted write replays: {self:?}: {e}"));
    }
}

/// The fixed queries every version is asked, answered as text.
fn answers(kb: &Kb) -> String {
    let symbols = &kb.schema().symbols;
    let p0 = Concept::Name(symbols.find_concept("P0").unwrap());
    let queries = [
        p0.clone(),
        Concept::AtLeast(1, RoleId::from_index(0)),
        Concept::and([p0, Concept::AtLeast(1, RoleId::from_index(1))]),
        Concept::Name(symbols.find_concept("SUSPECT").unwrap()),
        Concept::thing(),
    ];
    let mut out = String::new();
    for q in queries {
        let known = classic_query::Query::concept(q)
            .run(kb)
            .expect("query runs")
            .into_known()
            .expect("known answers")
            .known;
        for id in known {
            out.push_str(symbols.individual_name(kb.ind(id).name));
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

/// A clone and the number of accepted writes that preceded its cut.
struct Pinned {
    kb: Kb,
    cut: usize,
}

impl Pinned {
    /// Is the clone still exactly what a replay of the first `cut`
    /// accepted writes builds, sharing nothing?
    fn check(&self, log: &[Logged], threads: usize, armed: &Arc<AtomicBool>, context: &str) {
        let mut reference = base(threads, armed);
        for write in &log[..self.cut] {
            write.replay(&mut reference);
        }
        assert!(
            same_state(&self.kb, &reference) && same_state(&reference, &self.kb),
            "{context}: a clone cut after {} writes drifted from their replay",
            self.cut
        );
        self.kb
            .check_invariants()
            .unwrap_or_else(|e| panic!("{context}: clone cut after {} writes: {e}", self.cut));
        assert_eq!(answers(&self.kb), answers(&reference), "{context}");
    }
}

fn run_history(ops: &[Op], threads: usize) {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = base(threads, &armed);
    let mut log: Vec<Logged> = Vec::new();
    // Told facts still standing, and live rules, for the retractions.
    let mut told: Vec<(String, Concept)> = Vec::new();
    let mut rules: Vec<Concept> = Vec::new();
    let mut clones: Vec<Pinned> = vec![Pinned {
        kb: kb.clone(),
        cut: 0,
    }];
    let x = |i: &usize| format!("x{i}");
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Create(i) => {
                if kb.create_ind(&x(i)).is_ok() {
                    log.push(Logged::Create(x(i)));
                }
            }
            Op::Assert(i, d) => {
                let c = d.concept(&kb);
                if kb.assert_ind(&x(i), &c).is_ok() {
                    told.push((x(i), c.clone()));
                    log.push(Logged::Assert(x(i), c));
                }
            }
            Op::WhatIf(i, d) => drop(kb.what_if(&x(i), &d.concept(&kb))),
            Op::Retract(pick) if !told.is_empty() => {
                let (name, c) = told.remove(pick % told.len());
                // Order-dependent told sets can refuse a retraction;
                // refused, the fact stands.
                match kb.retract_ind(&name, &c) {
                    Ok(_) => log.push(Logged::Retract(name, c)),
                    Err(_) => told.push((name, c)),
                }
            }
            Op::Rule(d) => {
                let c = d.concept(&kb);
                if kb.assert_rule("BUSY", c.clone()).is_ok() {
                    rules.push(c.clone());
                    log.push(Logged::Rule(c));
                }
            }
            Op::RetractRule(pick) if !rules.is_empty() => {
                let c = rules.remove(pick % rules.len());
                match kb.retract_rule("BUSY", &c) {
                    Ok(_) => log.push(Logged::RetractRule(c)),
                    Err(_) => rules.push(c),
                }
            }
            Op::Bulk(rows) => {
                let rows: Vec<BulkRow> = rows
                    .iter()
                    .map(|(i, d)| BulkRow {
                        name: x(i),
                        desc: d.concept(&kb),
                    })
                    .collect();
                let report = kb.bulk_assert(&rows);
                let accepted: Vec<BulkRow> = rows
                    .into_iter()
                    .zip(&report.row_accepted)
                    .filter_map(|(row, ok)| ok.then_some(row))
                    .collect();
                for row in &accepted {
                    told.push((row.name.clone(), row.desc.clone()));
                }
                if !accepted.is_empty() {
                    log.push(Logged::Bulk(accepted));
                }
            }
            Op::Define(k, d) => {
                let (name, c) = (format!("N{k}"), d.concept(&kb));
                if kb.define_concept(&name, c.clone()).is_ok() {
                    log.push(Logged::Define(name, c));
                }
            }
            Op::Panic(i) => {
                let c = Desc::P0.concept(&kb);
                armed.store(true, Ordering::SeqCst);
                let outcome = kb.assert_ind(&x(i), &c);
                armed.store(false, Ordering::SeqCst);
                if outcome.is_ok() {
                    told.push((x(i), c.clone()));
                    log.push(Logged::Assert(x(i), c));
                }
            }
            Op::HubAll => {
                let member = kb.schema().symbols.find_role("member").unwrap();
                let c = Concept::all(member, Desc::P0.concept(&kb));
                if kb.assert_ind("Hub", &c).is_ok() {
                    told.push(("Hub".to_owned(), c.clone()));
                    log.push(Logged::Assert("Hub".to_owned(), c));
                }
            }
            Op::Cut => clones.push(Pinned {
                kb: kb.clone(),
                cut: log.len(),
            }),
            Op::Drop(pick) if !clones.is_empty() => {
                clones.remove(pick % clones.len());
            }
            Op::Retract(_) | Op::RetractRule(_) | Op::Drop(_) => {}
        }
        // One clone a step, in rotation, so every one is checked against
        // writes, rollbacks and drops that came after it.
        if !clones.is_empty() {
            let context = format!("threads {threads}, after step {step} ({op:?})");
            clones[step % clones.len()].check(&log, threads, &armed, &context);
        }
    }
    // The primary is a version too; then every clone, last of all after
    // the primary itself is gone.
    clones.push(Pinned { cut: log.len(), kb });
    for (ix, pinned) in clones.iter().enumerate() {
        pinned.check(
            &log,
            threads,
            &armed,
            &format!("threads {threads}, end, #{ix}"),
        );
    }
    clones.pop();
    while let Some(pinned) = clones.pop() {
        pinned.check(
            &log,
            threads,
            &armed,
            &format!("threads {threads}, primary gone"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_clone_is_the_replay_of_what_preceded_its_cut_whatever_follows(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        for threads in [1, 4] {
            run_history(&ops, threads);
        }
    }
}

/// The same property where chunks are actually sealed and shared: a KB
/// of a few thousand individuals, written to across chunk boundaries
/// after the cut, with the sharing counted.
#[test]
fn a_large_clone_shares_all_but_what_the_writes_touched() {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = base(1, &armed);
    let r0 = RoleId::from_index(0);
    let p0 = Desc::P0.concept(&kb);
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
    assert!(whole.chunks_total > 150, "{whole:?}");
    let before = (answers(&pinned), pinned.ind_count());

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
    kb.assert_rule("BUSY", Concept::AtMost(9, RoleId::from_index(1)))
        .unwrap();
    kb.check_invariants().unwrap();

    assert_eq!((answers(&pinned), pinned.ind_count()), before);
    pinned.check_invariants().unwrap();
    let mut reference = base(1, &armed);
    assert_eq!(reference.bulk_assert(&rows).accepted, rows.len());
    assert!(same_state(&pinned, &reference) && same_state(&reference, &pinned));
    // With the primary gone the clone is the only holder, and is whole.
    drop(kb);
    assert_eq!(answers(&pinned), before.0);
    pinned.check_invariants().unwrap();
}
