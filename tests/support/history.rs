//! One history, one oracle: what every write-path suite drives.
//!
//! The paper accepts or refuses each update whole and propagates "to a
//! fixed point"; under Borgida & Patel-Schneider's semantics that fixed
//! point is a function of the tellings that stand. So one oracle serves
//! every path — replay the surviving tellings, in order, into a fresh
//! [`Kb`] — and one strategy, [`history`], generates what every path is
//! driven with:
//!
//! - every write kind in the surface language, `define-concept` and
//!   `define-role` interleaved with data, each of them also refused;
//! - any write with the `fragile` `TEST` recognizer armed to panic;
//! - reads and `what-if?`s, which must leave nothing behind;
//! - `CLOSE` and host-value fillers;
//! - the rules and the two-step `(SAME-AS (site) (perpetrator domicile))`
//!   of the paper's §4 crime schema, and a rule that rests on a closed
//!   role's `ALL`;
//! - a wide epoch: `Hub` given 70 new members and each told `P0` at
//!   once;
//! - clone cuts, and versions held and dropped.
//!
//! A [`Run`] takes a history through a per-op `Kb` and keeps what the
//! oracle needs: the accepted writes, the tellings that survive, and the
//! versions cut along the way. [`replay`] and [`rebuild`] are the
//! oracle, and [`assert_same`] is the one comparison; [`Before`] makes
//! it for a step that must change nothing, against a value copy too.
//! Suites include this file with `#[path]`.
//!
//! One exception: a rebuild from the surviving tellings is compared only
//! over the part of a history before it first retracts a told fact after
//! telling a `CLOSE` ([`Run::rebuildable_steps`]). A closed role's `ALL`
//! is recognized from what its fillers are, no support records that, and
//! after such a retraction a rule firing can outlive the recognition it
//! rested on (ROADMAP item 1; `close_then_retract_equals_rebuild` in
//! `crates/kb/tests/retract.rs` pins it, ignored until it is fixed).
#![allow(dead_code)]

use classic_core::desc::Concept;
use classic_core::error::ClassicError;
use classic_core::normal::NormalForm;
use classic_core::schema::TestArg;
use classic_kb::{BulkRow, Kb};
use classic_lang::{eval, eval_read, parse, parse_one, Command, Outcome, Write};
use classic_store::same_state;
use proptest::prelude::*;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Individuals a history tells about: `x0`…; the first [`BASE_X`] exist
/// from the start, the rest come into being by a step.
const N_X: usize = 6;
const BASE_X: usize = 4;
/// Fillers of `Hub`'s `member` role: telling `Hub` its members and that
/// every member is a `P0` is one wide epoch, the width a bulk chunk
/// gives propagation. They come into being with that telling, so a
/// history without it runs on the `x`s and `Hub` alone.
const N_MEMBERS: usize = 70;
/// Concept names a history may define (`N0`…), and primitive atoms its
/// tellings may declare (`q0`…, `d0`…).
const N_NAMES: usize = 3;
/// Roles a description may name, weighted toward the two plain ones.
const ROLES: [&str; 8] = [
    "r0",
    "r1",
    "perpetrator",
    "victim",
    "site",
    "domicile",
    "typical-suspect",
    "jobs",
];
/// Named concepts a description may mention.
const NAMES: [&str; 5] = ["P0", "PERSON", "ADULT", "CRIME", "DOMESTIC-CRIME"];
/// What a rule may rest on: `ANY` holds of every individual, `N0` may
/// not be defined yet.
const ANTECEDENTS: [&str; 3] = ["BUSY", "ANY", "N0"];

/// The schema every history starts from. Rule 0 is `BUSY`'s; `COVERED`
/// is recognized through a closed role's `ALL`; the crime schema is the
/// paper's §4, with its heuristic rule. Roles are defined in name order,
/// as a snapshot defines them; `same_state` compares a `SAME-AS` pair in
/// either orientation, so its comparisons do not depend on that order.
const SCHEMA: &str = r#"
    (define-attribute domicile) (define-role jobs) (define-role member)
    (define-role perpetrator) (define-role r0) (define-role r1)
    (define-attribute site) (define-role typical-suspect) (define-role victim)
    (define-concept P0 (PRIMITIVE THING p0))
    (define-concept BUSY (AND P0 (AT-LEAST 1 r0)))
    (define-concept SUSPECT (AND P0 (TEST fragile)))
    (define-concept ANY THING)
    (define-concept COVERED (AND (AT-LEAST 1 r1) (ALL r1 P0)))
    (define-concept PERSON (PRIMITIVE THING person))
    (define-concept ADULT (PRIMITIVE PERSON adult))
    (define-concept CRIME
        (PRIMITIVE (AND (AT-LEAST 1 perpetrator) (ALL perpetrator PERSON)
                        (AT-LEAST 1 victim) (AT-LEAST 1 site) (AT-MOST 1 site))
                   crime))
    (define-concept DOMESTIC-CRIME
        (AND CRIME (AT-MOST 1 perpetrator) (SAME-AS (site) (perpetrator domicile))))
    (assert-rule BUSY (AT-MOST 5 r1))
    (assert-rule COVERED (PRIMITIVE THING covered))
    (assert-rule DOMESTIC-CRIME (ALL typical-suspect (AND ADULT (AT-MOST 0 jobs))))
"#;

/// Primitive atoms whose declaration a comparison checks: those a
/// telling declares, the one a clash carries, and those only reads
/// (`asked`) and `what-if?`s (`tried`) mention, which must never be.
const ATOMS: [&str; 6] = ["q0", "q1", "q2", "refused", "asked", "tried"];
/// The atoms only reads mention.
pub const PROBES: [&str; 2] = ["asked", "tried"];

/// The fixed queries every comparison asks.
pub const QUERIES: [&str; 7] = [
    "P0",
    "(AT-LEAST 1 r0)",
    "(AND P0 (AT-LEAST 1 r1))",
    "SUSPECT",
    "COVERED",
    "CRIME",
    "THING",
];

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// The `fragile` recognizer: panics while armed on this thread, and
/// otherwise holds of every individual whose name ends in an even byte.
fn fragile(arg: &TestArg<'_>) -> bool {
    if ARMED.with(Cell::get) {
        panic!("fragile recognizer blew up");
    }
    matches!(arg, TestArg::Ind(Some(name), _) if name.as_bytes()[name.len() - 1] % 2 == 0)
}

/// Run `f` with the recognizer armed to panic on this thread, if `arm`.
/// The panics it causes are expected, and are not printed.
fn armed<R>(arm: bool, f: impl FnOnce() -> R) -> R {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&"fragile recognizer blew up") {
                loud(info);
            }
        }));
    });
    ARMED.with(|a| a.set(arm));
    let out = f();
    ARMED.with(|a| a.set(false));
    out
}

/// Register the recognizers the base mentions: what a store's `open`
/// and a snapshot's `roundtrip` are handed.
pub fn register(kb: &mut Kb) {
    kb.register_test("fragile", fragile);
}

/// The base as one script: the schema, the first `x`s and `Hub`.
pub fn base_script() -> String {
    let mut script = String::from(SCHEMA);
    for i in 0..BASE_X {
        script.push_str(&format!("(create-ind x{i})\n"));
    }
    script + "(create-ind Hub)\n"
}

/// A fresh `Kb` holding the base, sharing nothing with any other: what
/// the oracle replays into.
pub fn fresh() -> Kb {
    static BASE: OnceLock<Vec<Command>> = OnceLock::new();
    let mut kb = Kb::new();
    register(&mut kb);
    for cmd in BASE.get_or_init(|| parse(&base_script()).expect("the base parses")) {
        eval(&mut kb, cmd).expect("the base is accepted");
    }
    kb
}

// ---------------------------------------------------------------------------
// The strategy.
// ---------------------------------------------------------------------------

/// One conjunct of a generated description; rendered to surface syntax,
/// it needs no symbol table.
#[derive(Debug, Clone)]
pub enum Atom {
    Name(usize),
    /// `N{k}`: a name nothing defines until a history defines it.
    Defined(usize),
    /// `(PRIMITIVE THING q{k})`: declares the atom when first accepted.
    Prim(usize),
    /// `(DISJOINT-PRIMITIVE THING side d{k})`: two on one individual clash.
    Disjoint(usize),
    AtLeast(usize, u32),
    AtMost(usize, u32),
    Fills(usize, Vec<usize>),
    FillsHost(usize, i64),
    AllP0(usize),
    AllOneOf(usize, usize, usize),
    /// `(SAME-AS (site) (domicile))`, or the crime schema's two-step
    /// `(SAME-AS (site) (perpetrator domicile))`.
    SameAs(bool),
    /// `(TEST fragile)`.
    Fragile,
    /// Never satisfiable, beside a filler that would have to be created
    /// and an atom of its own.
    Clash(usize),
}

impl Atom {
    fn render(&self) -> String {
        let x = |j: &usize| format!("x{j}");
        match self {
            Atom::Name(k) => NAMES[*k].to_owned(),
            Atom::Defined(k) => format!("N{k}"),
            Atom::Prim(k) => format!("(PRIMITIVE THING q{k})"),
            Atom::Disjoint(k) => format!("(DISJOINT-PRIMITIVE THING side d{k})"),
            Atom::AtLeast(r, n) => format!("(AT-LEAST {n} {})", ROLES[*r]),
            Atom::AtMost(r, n) => format!("(AT-MOST {n} {})", ROLES[*r]),
            Atom::Fills(r, js) => {
                let js: Vec<String> = js.iter().map(x).collect();
                format!("(FILLS {} {})", ROLES[*r], js.join(" "))
            }
            Atom::FillsHost(r, v) => format!("(FILLS {} {v})", ROLES[*r]),
            Atom::AllP0(r) => format!("(ALL {} P0)", ROLES[*r]),
            Atom::AllOneOf(r, j, k) => format!("(ALL {} (ONE-OF x{j} x{k}))", ROLES[*r]),
            Atom::SameAs(false) => "(SAME-AS (site) (domicile))".to_owned(),
            Atom::SameAs(true) => "(SAME-AS (site) (perpetrator domicile))".to_owned(),
            Atom::Fragile => "(TEST fragile)".to_owned(),
            Atom::Clash(r) => format!(
                "(AND (PRIMITIVE THING refused) (FILLS {r} xx-late) (AT-LEAST 1 {r}) (AT-MOST 0 {r}))",
                r = ROLES[*r]
            ),
        }
    }
}

/// A description: one atom, or the `AND` of several.
pub type Desc = Vec<Atom>;

fn render(desc: &Desc) -> String {
    match desc.as_slice() {
        [one] => one.render(),
        many => {
            let parts: Vec<String> = many.iter().map(Atom::render).collect();
            format!("(AND {})", parts.join(" "))
        }
    }
}

/// One step of a history.
#[derive(Debug, Clone)]
pub enum Step {
    /// `(create-ind x{i})`: refused for one that exists.
    Create(usize),
    /// `(assert-ind x{i} desc)`.
    Assert(usize, Desc),
    /// `(assert-ind x{i} (CLOSE r))`: rare, as closing a role is.
    Close(usize, usize),
    /// `(retract-ind x{i} desc)` of what was most likely never told.
    Untell(usize, Desc),
    /// Retract the told fact `pick` selects among those standing.
    Retract(usize),
    /// `(assert-rule ANTECEDENT desc)`.
    Rule(usize, Desc),
    /// Retract the rule `pick` selects among those the history asserted,
    /// by antecedent and consequent or, for an odd `pick`, by id.
    RetractRule(usize),
    /// `(bulk-load (into desc) (roles r) (row x{i} [x{j}|_])…)`.
    Bulk(Desc, usize, Vec<(usize, Option<usize>)>),
    /// `(define-concept N{k} desc)`: refused the second time.
    Define(usize, Desc),
    /// `(define-role s{k})`, or `(define-attribute s{k})`.
    DefineRole(usize, bool),
    /// `(assert-ind Hub (AND (FILLS member m0 …) (ALL member P0)))`: one
    /// wide epoch, over members the first such telling creates.
    HubAll,
    /// A read: `retrieve`, `possible`, a `what-if?` about `x{i}`, and a
    /// `what-if?` and a `retrieve` that mention an atom nothing declares.
    Ask(usize, usize, Desc),
    /// A write while the recognizer panics.
    Armed(Box<Step>),
    /// Cut a version here and hold it.
    Cut,
    /// Drop the held version `pick` selects.
    Drop(usize),
}

fn role() -> impl Strategy<Value = usize> {
    prop_oneof![4 => 0usize..2, 3 => 2usize..ROLES.len()]
}

fn atom() -> impl Strategy<Value = Atom> {
    let x = || 0..N_X;
    prop_oneof![
        3 => (0..NAMES.len()).prop_map(Atom::Name),
        1 => (0..N_NAMES).prop_map(Atom::Defined),
        1 => (0..N_NAMES).prop_map(Atom::Prim),
        1 => (0..N_NAMES).prop_map(Atom::Disjoint),
        2 => (role(), 1u32..3).prop_map(|(r, n)| Atom::AtLeast(r, n)),
        1 => (role(), 0u32..3).prop_map(|(r, n)| Atom::AtMost(r, n)),
        4 => (role(), proptest::collection::vec(x(), 1..4)).prop_map(|(r, js)| Atom::Fills(r, js)),
        1 => (role(), 0i64..4).prop_map(|(r, v)| Atom::FillsHost(r, v)),
        1 => role().prop_map(Atom::AllP0),
        1 => (role(), x(), x()).prop_map(|(r, j, k)| Atom::AllOneOf(r, j, k)),
        1 => (0usize..2).prop_map(|two| Atom::SameAs(two == 1)),
        1 => Just(Atom::Fragile),
        1 => role().prop_map(Atom::Clash),
    ]
}

fn desc() -> impl Strategy<Value = Desc> {
    proptest::collection::vec(atom(), 1..3)
}

/// A step that writes. `CLOSE` is weighted against the others so that a
/// history of `len` steps tells it about twice whatever its length:
/// enough to cover it, rarely enough that most of a history comes before
/// it (see [`Run::rebuildable_steps`]).
fn write(len: usize) -> impl Strategy<Value = Step> {
    let k = len as u32;
    let x = || 0..N_X;
    let row = (x(), prop_oneof![1 => Just(None), 3 => x().prop_map(Some)]);
    prop_oneof![
        2 * k => x().prop_map(Step::Create),
        10 * k => (x(), desc()).prop_map(|(i, d)| Step::Assert(i, d)),
        64 => (x(), role()).prop_map(|(i, r)| Step::Close(i, r)),
        k => (x(), desc()).prop_map(|(i, d)| Step::Untell(i, d)),
        4 * k => (0usize..64).prop_map(Step::Retract),
        2 * k => (0..ANTECEDENTS.len(), desc()).prop_map(|(a, d)| Step::Rule(a, d)),
        k => (0usize..8).prop_map(Step::RetractRule),
        2 * k => (desc(), role(), proptest::collection::vec(row, 1..6))
            .prop_map(|(d, r, rows)| Step::Bulk(d, r, rows)),
        2 * k => (0..N_NAMES, desc()).prop_map(|(k, d)| Step::Define(k, d)),
        k => (0usize..2, 0usize..2).prop_map(|(k, a)| Step::DefineRole(k, a == 1)),
        k => Just(Step::HubAll),
    ]
}

/// One step of a history of `len`: mostly writes, some of them armed;
/// reads; cuts and drops.
fn step(len: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        20 => write(len),
        3 => write(len).prop_map(|w| Step::Armed(Box::new(w))),
        4 => (0usize..5, 0..N_X, desc()).prop_map(|(k, i, d)| Step::Ask(k, i, d)),
        2 => Just(Step::Cut),
        1 => (0usize..8).prop_map(Step::Drop),
    ]
}

/// The one history strategy: between 1 and `max_len` steps.
pub fn history(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(step(max_len), 1..max_len + 1)
}

/// The history of `len` steps that `seed` draws, for a suite that runs
/// one deterministically.
pub fn seeded(seed: u64, len: usize) -> Vec<Step> {
    let steps = proptest::collection::vec(step(len), len);
    steps.generate(&mut proptest::test_runner::TestRng::seed_from(seed))
}

// ---------------------------------------------------------------------------
// A run, and the oracle.
// ---------------------------------------------------------------------------

/// What a telling that stands is taken back with.
#[derive(Debug, Clone)]
pub enum Undo {
    /// A definition or a creation stands for good.
    Never,
    /// So does the declaration of a primitive atom that an accepted
    /// telling mentioned first, whatever becomes of the telling.
    Declare(&'static str),
    Fact(BulkRow),
    Rule(String, Concept),
}

/// A telling that stands: the form that told it, as the log records it.
#[derive(Debug, Clone)]
pub struct Telling {
    pub form: String,
    pub undo: Undo,
}

/// What one step did.
#[derive(Debug, Clone)]
pub struct Done {
    /// The form sent, or `None` for a cut or a drop.
    pub form: Option<String>,
    /// The form's operator, or `cut` / `drop`.
    pub kind: &'static str,
    /// Whether the form can change the KB.
    pub write: bool,
    pub armed: bool,
    /// A write's acceptance, or whether a read was answered.
    pub accepted: bool,
    /// The propagation steps an accepted assertion or retraction took.
    pub steps: Option<u64>,
}

impl Done {
    fn version(kind: &'static str) -> Done {
        Done {
            form: None,
            kind,
            write: false,
            armed: false,
            accepted: true,
            steps: None,
        }
    }

    /// Send the step's form to a second target as it was sent to the
    /// first: parsed again, and with the recognizer armed if it was.
    pub fn send<R>(&self, target: impl FnOnce(&Command) -> R) -> Option<R> {
        let cmd = parse_one(self.form.as_deref()?).expect("a sent form parses");
        Some(armed(self.armed, || target(&cmd)))
    }
}

/// A history taken through a per-op `Kb`.
pub struct Run {
    pub kb: Kb,
    /// Accepted writes, in order.
    log: Vec<String>,
    /// Tellings that stand, in the order they were told.
    told: Vec<Telling>,
    /// Versions cut and held, each with the length of the log at its cut.
    pub versions: Vec<(Kb, usize)>,
    steps: usize,
    /// Has a `CLOSE` been told?
    closed: bool,
    /// Steps run before the first retraction of a told fact after a
    /// `CLOSE`.
    rebuildable: Option<usize>,
    /// Steps run before the first rule on `ANY` that names an individual.
    snapshottable: Option<usize>,
}

impl Default for Run {
    /// A run from a clone of one base built once: its writes copy what
    /// they touch, and the base is never written.
    fn default() -> Self {
        static START: OnceLock<Kb> = OnceLock::new();
        Run {
            kb: START.get_or_init(fresh).clone(),
            log: Vec::new(),
            told: Vec::new(),
            versions: Vec::new(),
            steps: 0,
            closed: false,
            rebuildable: None,
            snapshottable: None,
        }
    }
}

impl Run {
    /// A run of `steps` from the base.
    pub fn over(steps: &[Step]) -> Run {
        let mut run = Run::default();
        for step in steps {
            run.step(step);
        }
        run
    }

    /// Accepted writes, in order: what a version's replay tells.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// The tellings that stand, in order: what [`rebuild`] tells.
    pub fn surviving(&self) -> &[Telling] {
        &self.told
    }

    /// How many leading steps a rebuild from the surviving tellings is
    /// compared over: all of them, or those before the first retraction
    /// of a told fact after a `CLOSE`.
    pub fn rebuildable_steps(&self) -> usize {
        self.rebuildable.unwrap_or(self.steps)
    }

    /// How many leading steps a snapshot or a compacted store is
    /// compared over: all of them, or those before the first of two
    /// cases a snapshot gets wrong (each pinned by an ignored test in
    /// `crates/store/tests/persistence_properties.rs`):
    /// - an accepted rule on `ANY` whose consequent names an individual:
    ///   it fires on every individual a snapshot creates, and so brings
    ///   the named one into being before the snapshot's own `create-ind`
    ///   of it, which is then refused;
    /// - a retraction that leaves a primitive atom mentioned by no
    ///   standing telling or definition: the atom stays declared, and
    ///   the snapshot, which declares only what those mention, does not
    ///   declare it.
    pub fn snapshot_steps(&self) -> usize {
        self.snapshottable.unwrap_or(self.steps)
    }

    pub fn step(&mut self, step: &Step) -> Done {
        let done = self.run(step);
        self.steps += 1;
        done
    }

    fn run(&mut self, step: &Step) -> Done {
        let x = |i: &usize| format!("x{i}");
        let form = match step {
            Step::Armed(inner) => {
                let mut done = armed(true, || self.run(inner));
                done.armed = true;
                return done;
            }
            Step::Cut => {
                self.versions.push((self.kb.clone(), self.log.len()));
                return Done::version("cut");
            }
            Step::Drop(pick) => {
                if !self.versions.is_empty() {
                    self.versions.remove(pick % self.versions.len());
                }
                return Done::version("drop");
            }
            Step::Create(i) => format!("(create-ind {})", x(i)),
            Step::Assert(i, d) => format!("(assert-ind {} {})", x(i), render(d)),
            Step::Close(i, r) => format!("(assert-ind {} (CLOSE {}))", x(i), ROLES[*r]),
            Step::Untell(i, d) => format!("(retract-ind {} {})", x(i), render(d)),
            Step::Retract(pick) => {
                let facts: Vec<&BulkRow> = (self.told.iter())
                    .filter_map(|t| match &t.undo {
                        Undo::Fact(row) => Some(row),
                        _ => None,
                    })
                    .collect();
                match facts.get(pick % facts.len().max(1)) {
                    Some(row) => record(
                        &self.kb,
                        Write::RetractInd(&row.name, Cow::Borrowed(&row.desc)),
                    ),
                    None => "(retract-ind x0 (AT-LEAST 9 r0))".to_owned(),
                }
            }
            Step::Rule(a, d) => format!("(assert-rule {} {})", ANTECEDENTS[*a], render(d)),
            Step::RetractRule(pick) => {
                let rules: Vec<(&String, &Concept)> = (self.told.iter())
                    .filter_map(|t| match &t.undo {
                        Undo::Rule(on, c) => Some((on, c)),
                        _ => None,
                    })
                    .collect();
                match rules.get(pick % rules.len().max(1)) {
                    None => "(retract-rule ANY (AT-MOST 0 r0))".to_owned(),
                    Some((on, c)) => {
                        let kb = &self.kb;
                        let named = |(_, r): &(usize, &classic_kb::Rule)| {
                            r.consequent == **c
                                && kb.schema().symbols.concept_name(r.antecedent) == on.as_str()
                        };
                        match kb.active_rules().filter(named).last() {
                            Some((id, _)) if pick % 2 == 1 => format!("(retract-rule {id})"),
                            _ => record(kb, Write::RetractRule(on, Cow::Borrowed(c))),
                        }
                    }
                }
            }
            Step::Bulk(into, r, rows) => {
                let rows: Vec<String> = (rows.iter())
                    .map(|(i, j)| match j {
                        Some(j) => format!("(row x{i} x{j})"),
                        None => format!("(row x{i} _)"),
                    })
                    .collect();
                format!(
                    "(bulk-load (into {}) (roles {}) {})",
                    render(into),
                    ROLES[*r],
                    rows.join(" ")
                )
            }
            Step::Define(k, d) => format!("(define-concept N{k} {})", render(d)),
            Step::DefineRole(k, false) => format!("(define-role s{k})"),
            Step::DefineRole(k, true) => format!("(define-attribute s{k})"),
            Step::HubAll => {
                let members: Vec<String> = (0..N_MEMBERS).map(|m| format!("m{m}")).collect();
                format!(
                    "(assert-ind Hub (AND (FILLS member {}) (ALL member P0)))",
                    members.join(" ")
                )
            }
            Step::Ask(0, _, d) => format!("(retrieve {})", render(d)),
            Step::Ask(1, _, d) => format!("(possible {})", render(d)),
            Step::Ask(2, i, d) => format!("(what-if? {} {})", x(i), render(d)),
            Step::Ask(3, i, d) => {
                format!(
                    "(what-if? {} (AND (PRIMITIVE THING tried) {}))",
                    x(i),
                    render(d)
                )
            }
            Step::Ask(_, _, d) => format!("(retrieve (AND (PRIMITIVE THING asked) {}))", render(d)),
        };
        self.tell(form)
    }

    /// Send `form` to the per-op `Kb`, and keep what it told.
    fn tell(&mut self, form: String) -> Done {
        let cmd = parse_one(&form).expect("a generated form parses");
        let before = self.kb.ind_count();
        let undeclared: Vec<&str> = ATOMS
            .into_iter()
            .filter(|a| !declared(&self.kb, a))
            .collect();
        let outcome = eval(&mut self.kb, &cmd);
        let (accepted, steps) = verdict(&outcome);
        let done = Done {
            kind: cmd.kind(),
            write: cmd.is_mutation(),
            armed: false,
            accepted,
            steps,
            form: Some(form),
        };
        if let (true, true, Ok(outcome)) = (done.write, done.accepted, outcome) {
            for atom in undeclared.into_iter().filter(|a| declared(&self.kb, a)) {
                self.told.push(Telling {
                    form: format!("; declares {atom}"),
                    undo: Undo::Declare(atom),
                });
            }
            self.log
                .push(done.form.clone().expect("a write has a form"));
            self.keep(&cmd, outcome, before);
        }
        done
    }

    /// Keep what an accepted write told: the individuals it brought into
    /// being, then the telling itself, or drop the telling it took back.
    fn keep(&mut self, cmd: &Command, outcome: Outcome, before: usize) {
        let created: Vec<Telling> = (self.kb.ind_ids().skip(before))
            .map(|id| {
                let name = self
                    .kb
                    .schema()
                    .symbols
                    .individual_name(self.kb.ind(id).name);
                Telling {
                    form: format!("(create-ind {name})"),
                    undo: Undo::Never,
                }
            })
            .collect();
        self.told.extend(created);
        let write = cmd.to_write(self.kb.schema_mut());
        let facts = match write.expect("accepted, so it resolves").expect("a write") {
            Write::AssertInd(name, desc) => vec![BulkRow {
                name: name.to_owned(),
                desc: desc.into_owned(),
            }],
            Write::BulkLoad { into, roles, rows } => {
                let Outcome::BulkLoaded(report) = outcome else {
                    unreachable!("a bulk-load reports its rows")
                };
                let mut told = report.row_accepted.iter();
                let rows: Vec<_> = rows.into_iter().filter(|_| *told.next().unwrap()).collect();
                // The log keeps the rows accepted, as a store's does.
                let load = Write::BulkLoad {
                    into: into.clone(),
                    roles: roles.clone(),
                    rows: rows.clone(),
                };
                *self.log.last_mut().expect("logged") = record(&self.kb, load);
                // Each row told `(AND into (FILLS r1 v1) …)`, as
                // `Write::apply` builds it.
                (rows.iter())
                    .map(|(name, cells)| {
                        let fills = cells.iter().zip(&roles).filter_map(|(cell, &role)| {
                            Some(Concept::Fills(role, vec![cell.clone()?]))
                        });
                        BulkRow {
                            name: (*name).to_owned(),
                            desc: Concept::and(into.iter().cloned().chain(fills)),
                        }
                    })
                    .collect()
            }
            Write::AssertRule(on, consequent) => {
                let form = record(&self.kb, Write::AssertRule(on, consequent.clone()));
                if on == "ANY" && form.contains(" x") && self.snapshottable.is_none() {
                    self.snapshottable = Some(self.steps);
                }
                let undo = Undo::Rule(on.to_owned(), consequent.into_owned());
                self.told.push(Telling { form, undo });
                vec![]
            }
            Write::RetractInd(name, desc) => {
                self.untell(
                    |undo| matches!(undo, Undo::Fact(row) if row.name == name && row.desc == *desc),
                );
                if self.closed && self.rebuildable.is_none() {
                    self.rebuildable = Some(self.steps);
                }
                vec![]
            }
            Write::RetractRule(on, consequent) => {
                self.untell(
                    |undo| matches!(undo, Undo::Rule(a, c) if a == on && *c == *consequent),
                );
                vec![]
            }
            Write::RetractRuleById(id) => {
                let rule = &self.kb.rules()[id];
                let on = self
                    .kb
                    .schema()
                    .symbols
                    .concept_name(rule.antecedent)
                    .to_owned();
                let consequent = rule.consequent.clone();
                self.untell(
                    |undo| matches!(undo, Undo::Rule(a, c) if *a == on && *c == consequent),
                );
                vec![]
            }
            Write::CreateInd(_) => vec![],
            definition => {
                let form = record(&self.kb, definition);
                self.told.push(Telling {
                    form,
                    undo: Undo::Never,
                });
                vec![]
            }
        };
        for row in facts {
            let form = record(
                &self.kb,
                Write::AssertInd(&row.name, Cow::Borrowed(&row.desc)),
            );
            self.closed |= form.contains("(CLOSE ");
            self.told.push(Telling {
                form,
                undo: Undo::Fact(row),
            });
        }
    }

    /// Drop the latest standing telling `which` picks: the one a
    /// retraction took back.
    fn untell(&mut self, which: impl Fn(&Undo) -> bool) {
        let at = self.told.iter().rposition(|t| which(&t.undo));
        let telling = self.told.remove(at.expect("what was taken back was told"));
        let mut atoms = primitives(&telling.form);
        if atoms.any(|atom| !self.told.iter().any(|t| t.form.contains(atom)))
            && self.snapshottable.is_none()
        {
            self.snapshottable = Some(self.steps);
        }
    }
}

/// The primitive atoms `form` mentions, each spelled as the log spells
/// it: `PRIMITIVE THING q0)`, or `PRIMITIVE THING side d0)` for a
/// disjoint one.
fn primitives(form: &str) -> impl Iterator<Item = &str> {
    form.match_indices("PRIMITIVE THING ").map(|(at, _)| {
        let end = at + form[at..].find(')').expect("a mention closes");
        &form[at..=end]
    })
}

/// Was `outcome` an accepted write (a `bulk-load` that took a row) or
/// an answer, and how many propagation steps did an accepted assertion
/// or retraction take?
pub fn verdict(outcome: &classic_core::Result<Outcome>) -> (bool, Option<u64>) {
    match outcome {
        Ok(Outcome::Asserted(report)) => (true, Some(report.steps)),
        Ok(Outcome::Retracted(report)) => (true, Some(report.steps)),
        Ok(Outcome::BulkLoaded(report)) => (report.accepted > 0, None),
        Ok(_) => (true, None),
        Err(_) => (false, None),
    }
}

/// `write` as the one line the log would record.
fn record(kb: &Kb, write: Write<'_>) -> String {
    write.record(kb).expect("a generated write records")
}

/// Tell `forms` in order to a fresh `Kb`; each must be accepted.
pub fn replay<S: AsRef<str>>(forms: &[S]) -> Kb {
    let mut kb = fresh();
    for form in forms {
        let form = form.as_ref();
        let cmd = parse_one(form).expect("a recorded form parses");
        if let Err(e) = eval(&mut kb, &cmd) {
            panic!("replaying {form}: {e}");
        }
    }
    kb
}

/// The oracle: `tellings` replayed in order into a fresh `Kb`; with
/// `bulk`, the facts between two definitions or rules as one
/// `bulk_assert`, which creates what it names itself.
pub fn rebuild(tellings: &[Telling], bulk: bool) -> Kb {
    let mut kb = fresh();
    tell(&mut kb, tellings, bulk);
    kb
}

/// Tell `tellings` to `kb` in order, as [`rebuild`] does; each must be
/// accepted.
pub fn tell(kb: &mut Kb, tellings: &[Telling], bulk: bool) {
    let mut rows: Vec<BulkRow> = Vec::new();
    let load = |kb: &mut Kb, rows: &mut Vec<BulkRow>| {
        let report = kb.bulk_assert(rows);
        assert_eq!(report.accepted, rows.len(), "{:?}", report.rejections);
        assert_eq!(
            report.sequential_fallbacks, 0,
            "standing facts are consistent"
        );
        rows.clear();
    };
    for telling in tellings {
        match &telling.undo {
            Undo::Fact(row) if bulk => rows.push(row.clone()),
            Undo::Declare(atom) => {
                kb.schema_mut()
                    .declare(&Concept::primitive(Concept::thing(), atom));
            }
            Undo::Never if bulk && telling.form.starts_with("(create-ind") => {
                let cmd = parse_one(&telling.form).expect("a recorded form parses");
                eval(kb, &cmd).expect("a creation stands");
            }
            _ => {
                load(kb, &mut rows);
                let cmd = parse_one(&telling.form).expect("a recorded form parses");
                eval(kb, &cmd).unwrap_or_else(|e| panic!("{}: {e}", telling.form));
            }
        }
    }
    load(kb, &mut rows);
}

// ---------------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------------

/// What [`same_state`] leaves out: the number of concepts and taxonomy
/// nodes, the live rules, which of [`ATOMS`] are declared, each
/// individual's most specific concepts, and the fixed queries' answers
/// (or errors, for a schema without the base's names).
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    concepts: usize,
    nodes: usize,
    rules: Vec<String>,
    declared: Vec<&'static str>,
    realized: Vec<String>,
    answers: Vec<Result<Vec<String>, String>>,
}

fn shape(kb: &Kb) -> Shape {
    let symbols = &kb.schema().symbols;
    let mut rules: Vec<String> = (kb.active_rules())
        .map(|(_, r)| {
            let on = symbols.concept_name(r.antecedent);
            format!("{on} => {}", r.consequent.display(symbols))
        })
        .collect();
    rules.sort();
    let mut realized: Vec<String> = (kb.ind_ids())
        .map(|id| {
            let mut names: Vec<&str> = (kb.most_specific_concepts(id).into_iter())
                .map(|c| symbols.concept_name(c))
                .collect();
            names.sort();
            format!(
                "{}: {}",
                symbols.individual_name(kb.ind(id).name),
                names.join(" ")
            )
        })
        .collect();
    realized.sort();
    Shape {
        concepts: kb.schema().concept_count(),
        nodes: kb.taxonomy().len(),
        rules,
        declared: ATOMS.into_iter().filter(|a| declared(kb, a)).collect(),
        realized,
        answers: answers(kb),
    }
}

/// The [`QUERIES`], each a `retrieve`, parsed.
pub fn queries() -> &'static [Command] {
    static ASKED: OnceLock<Vec<Command>> = OnceLock::new();
    ASKED.get_or_init(|| {
        let forms = QUERIES.map(|q| format!("(retrieve {q})"));
        parse(&forms.join(" ")).expect("parses")
    })
}

/// The [`QUERIES`]' answers, each sorted, or the error a schema without
/// the base's names gives.
pub fn answers(kb: &Kb) -> Vec<Result<Vec<String>, String>> {
    (queries().iter())
        .map(|cmd| match eval_read(kb, cmd) {
            Ok(Outcome::Individuals(mut names)) => {
                names.sort();
                Ok(names)
            }
            other => Err(format!("{other:?}")),
        })
        .collect()
}

/// Is the primitive atom `index` declared?
pub fn declared(kb: &Kb, index: &str) -> bool {
    let mention = kb.normalize(&Concept::primitive(Concept::thing(), index));
    !matches!(mention, Err(ClassicError::UndefinedName { .. }))
}

/// The one comparison: `same_state` both ways, both closed under the
/// propagation step, and the same [`Shape`].
pub fn assert_same(a: &Kb, b: &Kb, context: &str) {
    a.check_invariants()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    b.check_invariants()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_equal(a, b, context);
}

/// `same_state` both ways, and the same [`Shape`].
fn assert_equal(a: &Kb, b: &Kb, context: &str) {
    assert!(
        same_state(a, b) && same_state(b, a),
        "{context}: the states differ"
    );
    assert_eq!(shape(a), shape(b), "{context}");
}

/// Each individual's name, derived normal form and most specific
/// concepts, in arena order: a value copy of the state, sharing nothing
/// with the `Kb` it was taken from.
fn fingerprint(kb: &Kb) -> Vec<(String, NormalForm, BTreeSet<usize>)> {
    (kb.ind_ids())
        .map(|id| {
            let ind = kb.ind(id);
            (
                kb.schema().symbols.individual_name(ind.name).to_owned(),
                ind.derived().clone(),
                ind.msc().map(|n| n.index()).collect(),
            )
        })
        .collect()
}

/// A state that a step must leave as it found it, kept two ways: a clone,
/// which shares its chunks with the `Kb` it was cut from, and a
/// [`fingerprint`], which shares nothing, so that a rollback writing
/// through shared storage cannot change both.
pub struct Before {
    kb: Kb,
    copy: Vec<(String, NormalForm, BTreeSet<usize>)>,
    rules: usize,
}

impl Before {
    pub fn of(kb: &Kb) -> Before {
        Before {
            kb: kb.clone(),
            copy: fingerprint(kb),
            rules: kb.rules().len(),
        }
    }

    /// `kb` is the state kept: the same by [`assert_same`], the same
    /// fingerprint, and the same rule table, retired rules included.
    /// Closure under the propagation step is a property of a state, not
    /// of a step, and is left to the caller.
    pub fn assert_unchanged(&self, kb: &Kb, context: &str) {
        assert_equal(&self.kb, kb, context);
        assert!(
            self.copy == fingerprint(kb),
            "{context}: the fingerprint differs"
        );
        assert_eq!(self.rules, kb.rules().len(), "{context}: the rule table");
    }
}
