//! Aliasing oracle for the copy-on-write storage behind [`Kb::clone`].
//!
//! A clone shares its chunks with the KB it was cut from, so the failure
//! this guards against is a write — or a rollback, or the drop of another
//! clone — on one version showing through in another. Random sequences
//! over every write operator run against one primary while clones are
//! cut and dropped at random points; each clone must remain, for as long
//! as it lives, the state a *replay* of the writes accepted before its
//! cut produces on a KB that shares nothing with anything.
//!
//! The same histories are the oracle for the transaction every write
//! runs in: a clone is cut before each step, and a step that is refused
//! — a clash, a name nothing defines, a redefinition, a `TEST` recognizer
//! that panics, whichever of the write operators it was — must leave the
//! primary indistinguishable from it, schema, taxonomy, rule table and
//! primitive declarations included; and after every step, accepted or
//! not, the primary is a fixed point of the propagation step.

use classic_core::desc::{Concept, IndRef};
use classic_core::error::ClassicError;
use classic_core::schema::TestArg;
use classic_core::symbol::RoleId;
use classic_kb::{BulkRow, Kb};
use classic_store::same_state;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N_INDS: usize = 8;
const N_ROLES: usize = 2;
/// Fillers of `Hub`'s `member` role: a cascade over them is one wide
/// epoch, the width a bulk chunk gives propagation.
const N_MEMBERS: usize = 70;
/// Concept names a history may define (`N0`…), and primitive indices it
/// may declare (`q0`…).
const N_NAMES: usize = 3;

/// The schema every history starts from, with every name a history can
/// mention interned up front — ids are then the same in the primary, in
/// its clones and in a reference built by calling this again, and a
/// `Concept` made for one is valid in all.
fn base(armed: &Arc<AtomicBool>) -> Kb {
    let mut kb = Kb::new();
    for r in 0..N_ROLES {
        assert_eq!(kb.define_role(&format!("r{r}")).unwrap().index(), r);
    }
    let member = kb.define_role("member").unwrap();
    let switch = Arc::clone(armed);
    // Panics while armed; otherwise holds of every other individual.
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
    // Every individual is an ANY, so a rule on it is due on a bare one.
    kb.define_concept("ANY", Concept::thing()).unwrap();
    for k in 0..N_NAMES {
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
    /// `assert-rule BUSY <desc>` (or `ANY`, which a bare individual
    /// satisfies); refused if it contradicts an instance.
    Rule(bool, Desc),
    /// Retract the rule `pick` selects among the live ones.
    RetractRule(usize),
    /// Rows `(target, desc)`; clashing rows are refused one by one.
    Bulk(Vec<(usize, Desc)>),
    /// `define-concept N{k}`; refused the second time.
    Define(usize, Desc),
    /// Tell `x{i}` it is a `P0` while the recognizer panics: refused,
    /// unless its description already carries the `TEST` atom.
    Panic(usize),
    /// Tell `Hub` that every member is a `P0`: one wide epoch.
    HubAll,
    /// Any of the above while the recognizer panics: refused wherever the
    /// step has to run it.
    Armed(Box<Op>),
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
    /// Several fillers in one telling.
    FillsMany(usize, Vec<usize>),
    AllP0(usize),
    /// `(SAME-AS (r) (s))`: pins both roles to one filler and derives
    /// the missing one from the other.
    SameAs(usize, usize),
    /// `(PRIMITIVE THING q{k})`: declares the atom the first time a
    /// telling that mentions it is accepted.
    Prim(usize),
    /// `N{k}`: a name nothing defines, until a history defines it.
    Named(usize),
    /// `(TEST fragile)`, with no primitive in front: as a definition it
    /// runs the recognizer on every individual there is, and on every
    /// one created afterwards.
    Fragile,
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
            Desc::FillsMany(r, js) => Concept::Fills(role(r), js.iter().map(x).collect()),
            Desc::AllP0(r) => Concept::all(role(r), p0),
            Desc::SameAs(r, s) => Concept::SameAs(vec![role(r)], vec![role(s)]),
            Desc::Prim(k) => Concept::primitive(Concept::thing(), &format!("q{k}")),
            Desc::Named(k) => Concept::Name(symbols.find_concept(&format!("N{k}")).unwrap()),
            Desc::Fragile => Concept::Test(symbols.find_test("fragile").unwrap()),
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
        1 => (0..N_ROLES, proptest::collection::vec(0..N_INDS, 2..6))
            .prop_map(|(r, js)| Desc::FillsMany(r, js)),
        1 => (0..N_ROLES).prop_map(Desc::AllP0),
        1 => (0..N_ROLES, 0..N_ROLES).prop_map(|(r, s)| Desc::SameAs(r, s)),
        1 => (0..N_NAMES).prop_map(Desc::Prim),
        1 => (0..N_NAMES).prop_map(Desc::Named),
        1 => Just(Desc::Fragile),
        1 => (0..N_ROLES).prop_map(Desc::Clash),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        7 => plain_op_strategy(),
        1 => plain_op_strategy().prop_map(|op| Op::Armed(Box::new(op))),
    ]
}

fn plain_op_strategy() -> impl Strategy<Value = Op> {
    let row = (0..N_INDS, desc_strategy());
    prop_oneof![
        2 => (0..N_INDS).prop_map(Op::Create),
        6 => (0..N_INDS, desc_strategy()).prop_map(|(i, d)| Op::Assert(i, d)),
        2 => (0..N_INDS, desc_strategy()).prop_map(|(i, d)| Op::WhatIf(i, d)),
        3 => (0usize..64).prop_map(Op::Retract),
        2 => (0usize..2, desc_strategy()).prop_map(|(any, d)| Op::Rule(any == 1, d)),
        1 => (0usize..8).prop_map(Op::RetractRule),
        2 => proptest::collection::vec(row, 1..6).prop_map(Op::Bulk),
        2 => (0..N_NAMES, desc_strategy()).prop_map(|(k, d)| Op::Define(k, d)),
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
    Rule(&'static str, Concept),
    RetractRule(&'static str, Concept),
    Define(String, Concept),
    Bulk(Vec<BulkRow>),
}

impl Logged {
    fn replay(&self, kb: &mut Kb) {
        let outcome = match self {
            Logged::Create(name) => kb.create_ind(name).map(drop),
            Logged::Assert(name, c) => kb.assert_ind(name, c).map(drop),
            Logged::Retract(name, c) => kb.retract_ind(name, c).map(drop),
            Logged::Rule(on, c) => kb.assert_rule(on, c.clone()).map(drop),
            Logged::RetractRule(on, c) => kb.retract_rule(on, c).map(drop),
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
    fn check(&self, log: &[Logged], armed: &Arc<AtomicBool>, context: &str) {
        let mut reference = base(armed);
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

/// What a refused write must leave alone beyond what `same_state`
/// compares: the sizes of the schema, the taxonomy and the rule table
/// (live and retired), and which of the `q{k}` atoms are declared.
fn schema_shape(kb: &Kb) -> (usize, usize, usize, usize, Vec<bool>) {
    let declared = |k| {
        let mention = kb.normalize(&Desc::Prim(k).concept(kb));
        !matches!(mention, Err(ClassicError::UndefinedName { .. }))
    };
    (
        kb.schema().concept_count(),
        kb.taxonomy().len(),
        kb.rules().len(),
        kb.active_rules().count(),
        (0..N_NAMES).map(declared).collect(),
    )
}

/// A primary, the accepted writes that built it, and the clones cut
/// along the way.
struct History {
    kb: Kb,
    armed: Arc<AtomicBool>,
    log: Vec<Logged>,
    /// Told facts still standing, and live rules, for the retractions.
    told: Vec<(String, Concept)>,
    rules: Vec<(&'static str, Concept)>,
    clones: Vec<Pinned>,
}

impl History {
    /// Run one step; `false` if it was a write and was refused whole.
    fn step(&mut self, op: &Op) -> bool {
        let x = |i: &usize| format!("x{i}");
        let kb = &mut self.kb;
        match op {
            Op::Create(i) => {
                let created = kb.create_ind(&x(i)).is_ok();
                if created {
                    self.log.push(Logged::Create(x(i)));
                }
                created
            }
            Op::Assert(i, d) => self.tell(&x(i), d.concept(&self.kb)),
            Op::WhatIf(i, d) => {
                drop(kb.what_if(&x(i), &d.concept(kb)));
                false
            }
            Op::Retract(pick) if !self.told.is_empty() => {
                let (name, c) = self.told.remove(pick % self.told.len());
                // Order-dependent told sets can refuse a retraction;
                // refused, the fact stands.
                let retracted = kb.retract_ind(&name, &c).is_ok();
                match retracted {
                    true => self.log.push(Logged::Retract(name, c)),
                    false => self.told.push((name, c)),
                }
                retracted
            }
            Op::Rule(any, d) => {
                let (on, c) = (if *any { "ANY" } else { "BUSY" }, d.concept(kb));
                let asserted = kb.assert_rule(on, c.clone()).is_ok();
                if asserted {
                    self.rules.push((on, c.clone()));
                    self.log.push(Logged::Rule(on, c));
                }
                asserted
            }
            Op::RetractRule(pick) if !self.rules.is_empty() => {
                let (on, c) = self.rules.remove(pick % self.rules.len());
                // The two spellings in turn: by antecedent and consequent,
                // and by the id of the rule that names.
                let live = |(_, r): &(usize, &classic_kb::Rule)| {
                    r.consequent == c && kb.schema().symbols.concept_name(r.antecedent) == on
                };
                let outcome = match kb.active_rules().filter(live).last() {
                    Some((id, _)) if pick % 2 == 1 => kb.retract_rule_by_id(id),
                    _ => kb.retract_rule(on, &c),
                };
                match outcome.is_ok() {
                    true => self.log.push(Logged::RetractRule(on, c)),
                    false => self.rules.push((on, c)),
                }
                outcome.is_ok()
            }
            Op::Bulk(rows) => {
                let rows: Vec<BulkRow> = rows
                    .iter()
                    .map(|(i, d)| BulkRow {
                        name: x(i),
                        desc: d.concept(kb),
                    })
                    .collect();
                let report = kb.bulk_assert(&rows);
                let accepted: Vec<BulkRow> = rows
                    .into_iter()
                    .zip(&report.row_accepted)
                    .filter_map(|(row, ok)| ok.then_some(row))
                    .collect();
                for row in &accepted {
                    self.told.push((row.name.clone(), row.desc.clone()));
                }
                let any = !accepted.is_empty();
                if any {
                    self.log.push(Logged::Bulk(accepted));
                }
                any
            }
            Op::Define(k, d) => {
                let (name, c) = (format!("N{k}"), d.concept(kb));
                let defined = kb.define_concept(&name, c.clone()).is_ok();
                if defined {
                    self.log.push(Logged::Define(name, c));
                }
                defined
            }
            Op::Panic(i) => self.step(&Op::Armed(Box::new(Op::Assert(*i, Desc::P0)))),
            Op::HubAll => {
                let member = kb.schema().symbols.find_role("member").unwrap();
                let c = Concept::all(member, Desc::P0.concept(kb));
                self.tell("Hub", c)
            }
            Op::Armed(op) => {
                self.armed.store(true, Ordering::SeqCst);
                let accepted = self.step(op);
                self.armed.store(false, Ordering::SeqCst);
                accepted
            }
            Op::Cut => {
                self.clones.push(Pinned {
                    kb: kb.clone(),
                    cut: self.log.len(),
                });
                true
            }
            Op::Drop(pick) if !self.clones.is_empty() => {
                self.clones.remove(pick % self.clones.len());
                true
            }
            Op::Retract(_) | Op::RetractRule(_) | Op::Drop(_) => true,
        }
    }

    /// `assert-ind name c`.
    fn tell(&mut self, name: &str, c: Concept) -> bool {
        let told = self.kb.assert_ind(name, &c).is_ok();
        if told {
            self.told.push((name.to_owned(), c.clone()));
            self.log.push(Logged::Assert(name.to_owned(), c));
        }
        told
    }
}

fn run_history(ops: &[Op]) {
    let armed = Arc::new(AtomicBool::new(false));
    let kb = base(&armed);
    let mut h = History {
        clones: vec![Pinned {
            kb: kb.clone(),
            cut: 0,
        }],
        kb,
        armed,
        log: Vec::new(),
        told: Vec::new(),
        rules: Vec::new(),
    };
    for (step, op) in ops.iter().enumerate() {
        let context = format!("after step {step} ({op:?})");
        let before = h.kb.clone();
        if !h.step(op) {
            // Refused means untouched.
            assert!(
                same_state(&before, &h.kb) && same_state(&h.kb, &before),
                "{context}: a refused write left a trace"
            );
            assert_eq!(schema_shape(&before), schema_shape(&h.kb), "{context}");
        }
        // Accepted means closed (and refused, still closed).
        h.kb.check_invariants()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        // One clone a step, in rotation, so every one is checked against
        // writes, rollbacks and drops that came after it.
        if !h.clones.is_empty() {
            h.clones[step % h.clones.len()].check(&h.log, &h.armed, &context);
        }
    }
    // The primary is a version too; then every clone, last of all after
    // the primary itself is gone.
    let History {
        kb,
        armed,
        log,
        mut clones,
        ..
    } = h;
    clones.push(Pinned { cut: log.len(), kb });
    for (ix, pinned) in clones.iter().enumerate() {
        pinned.check(&log, &armed, &format!("end, #{ix}"));
    }
    clones.pop();
    while let Some(pinned) = clones.pop() {
        pinned.check(&log, &armed, "primary gone");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_clone_is_the_replay_of_what_preceded_its_cut_whatever_follows(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        run_history(&ops);
    }
}

/// The same property where chunks are actually sealed and shared: a KB
/// of a few thousand individuals, written to across chunk boundaries
/// after the cut, with the sharing counted.
#[test]
fn a_large_clone_shares_all_but_what_the_writes_touched() {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = base(&armed);
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
    assert!(whole.chunks_total > 100, "{whole:?}");
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
    let mut reference = base(&armed);
    assert_eq!(reference.bulk_assert(&rows).accepted, rows.len());
    assert!(same_state(&pinned, &reference) && same_state(&reference, &pinned));
    // With the primary gone the clone is the only holder, and is whole.
    drop(kb);
    assert_eq!(answers(&pinned), before.0);
    pinned.check_invariants().unwrap();
}

/// A read writes nothing. Classifying forms the taxonomy has never seen,
/// and retrieving through a `TEST` recognizer that accepts, leave the
/// taxonomy, every individual and the chunks a pinned clone shares as
/// they were.
#[test]
fn a_read_writes_nothing() {
    let armed = Arc::new(AtomicBool::new(false));
    let mut kb = base(&armed);
    let (r0, r1) = (RoleId::from_index(0), RoleId::from_index(1));
    for i in 0..4 {
        kb.create_ind(&format!("x{i}")).unwrap();
        kb.assert_ind(&format!("x{i}"), &Concept::AtLeast(1, r0))
            .unwrap();
    }
    let pinned = kb.clone();
    let p0 = Desc::P0.concept(&kb);
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
