//! One history, three ways, one fixed point.
//!
//! The paper's completion is a least fixed point ("rules continue
//! propagating until a fixed point is reached", §5), so the route an
//! accepted history took to it must not show. A seeded history over the
//! §4 crime schema (the heuristic rule, the `SAME-AS` domicile
//! derivation), including refused updates and retractions, is taken
//!
//! 1. operation by operation through `assert_ind` / `retract_ind`,
//! 2. as one `bulk_assert` of the told facts that survived it, and
//! 3. through a `DurableKb` that is then dropped and reopened from its log,
//!
//! and the live store of way 3 is kept beside the database its log
//! reopens to. All four databases must be pairwise `same_state` and pass
//! `check_invariants` (closure under the propagation step included), and
//! ways 1 and 3 must report the same `steps` for every operation.
//!
//! Nor may anything that was merely asked, tried, or refused show: the
//! live store of way 3 also takes reads, `what-if`s and refused writes
//! carrying fresh `PRIMITIVE`s between the operations, and must still
//! be the database its log reopens to — down to which later definitions
//! it accepts.
//!
//! Nor a refused write of any kind, on any way: a `define-concept` whose
//! recognizer panics, an `assert-rule` an instance contradicts and a
//! `create-ind` of somebody who exists are tried throughout all three,
//! and each must end as the per-op database that was never asked.
//!
//! And no version may show what came after it: each way is cut halfway —
//! a `Kb::clone`, which shares its storage with the database that goes
//! on taking the rest — and the clone must end the history as the
//! database that took the first half and nothing else.

use classic::kb::BulkRow;
use classic::lang::{eval, parse, parse_concept, Outcome};
use classic::store::{same_state, DurableKb};
use classic::{ClassicError, Concept, Kb};

const CRIMES: usize = 48;
const OPS: usize = 600;
/// Operations taken before each way's clone is cut.
const CUT: usize = OPS / 2;

const SCHEMA: &str = r#"
    (define-role perpetrator)
    (define-role victim)
    (define-attribute site)
    (define-attribute domicile)
    (define-role jobs)
    (define-role typical-suspect)
    (define-concept PERSON (PRIMITIVE THING person))
    (define-concept ADULT (PRIMITIVE PERSON adult))
    (define-concept CRIME
        (PRIMITIVE (AND (AT-LEAST 1 perpetrator) (ALL perpetrator PERSON)
                        (AT-LEAST 1 victim) (AT-LEAST 1 site) (AT-MOST 1 site))
                   crime))
    (define-concept DOMESTIC-CRIME
        (AND CRIME (AT-MOST 1 perpetrator) (SAME-AS (site) (perpetrator domicile))))
    (assert-rule DOMESTIC-CRIME
        (ALL typical-suspect (AND ADULT (AT-MOST 0 jobs))))
"#;

/// Knuth's MMIX linear congruential generator; the high bits are the
/// good ones.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// One operation of the history, in surface syntax.
struct Op {
    retract: bool,
    target: String,
    desc: String,
}

/// Crimes gather evidence in no particular order. Some of it cannot be
/// accepted (a second site, a crime without victims, two perpetrators of
/// a domestic crime), some is taken back, and some is taken back without
/// ever having been told.
fn history(seed: u64) -> Vec<Op> {
    let mut rng = Lcg(seed);
    (0..OPS)
        .map(|_| {
            let i = rng.below(CRIMES);
            let crime = format!("crime-{i}");
            let (retract, target, desc) = match rng.below(12) {
                0 => (false, crime, "CRIME".to_owned()),
                1 => (false, crime, format!("(FILLS victim victim-{i})")),
                2 => (false, crime, format!("(FILLS perpetrator suspect-{i})")),
                3 => (false, format!("suspect-{i}"), "PERSON".to_owned()),
                4 => (false, crime, format!("(FILLS site home-{i})")),
                5 => (false, crime, "DOMESTIC-CRIME".to_owned()),
                6 => {
                    let n = 1 + rng.below(2);
                    (false, crime, format!("(AT-LEAST {n} perpetrator)"))
                }
                7 => (false, crime, format!("(FILLS site elsewhere-{i})")),
                8 => (false, crime, "(AT-MOST 0 victim)".to_owned()),
                9 => (true, crime, "DOMESTIC-CRIME".to_owned()),
                10 => (true, crime, "(AT-LEAST 2 perpetrator)".to_owned()),
                _ => (true, format!("suspect-{i}"), "PERSON".to_owned()),
            };
            Op {
                retract,
                target,
                desc,
            }
        })
        .collect()
}

/// Writes every way is offered again and again, and refuses every time:
/// the recognizer panics on the first individual it is run on, `witness`
/// has a job, and `crime-0` exists. Each is refused inside its
/// transaction — the definition is classified, the rule is in the table
/// and firing — and the primitives two of them carry are declared by then.
const REFUSED: [&str; 3] = [
    "(define-concept WATCHED (AND (TEST fragile) (ALL jobs (PRIMITIVE THING watched))))",
    "(assert-rule PERSON (AND (PRIMITIVE THING idle) (AT-MOST 0 jobs)))",
    "(create-ind crime-0)",
];
/// How many operations pass between two rounds of [`REFUSED`].
const REFUSE_EVERY: usize = 40;

fn fragile(_: &classic::core::schema::TestArg<'_>) -> bool {
    panic!("fragile recognizer blew up")
}

/// Offer every write of [`REFUSED`] through `run`, which says whether it
/// was accepted.
fn offer_the_refused(run: &mut dyn FnMut(&classic::lang::Command) -> bool) {
    for form in REFUSED {
        let cmd = parse(form).expect("parses").pop().expect("one form");
        assert!(!run(&cmd), "{form} must be refused");
    }
}

/// The schema plus every crime and suspect as a bare individual; victims
/// and sites come into being by being referenced.
fn prepare(run: &mut dyn FnMut(&str)) {
    run(SCHEMA);
    run("(create-ind witness) (assert-ind witness (AND PERSON (AT-LEAST 1 jobs)))");
    for i in 0..CRIMES {
        run(&format!("(create-ind crime-{i}) (create-ind suspect-{i})"));
    }
}

fn fresh_kb() -> Kb {
    let mut kb = Kb::new();
    kb.register_test("fragile", fragile);
    prepare(&mut |script| {
        for cmd in parse(script).expect("parses") {
            eval(&mut kb, &cmd).expect("setup is accepted");
        }
    });
    kb
}

/// What one way of taking the history reports: per operation, the steps
/// it took, or `None` if it was refused.
type Trace = Vec<Option<u64>>;

fn concept(kb: &mut Kb, text: &str) -> Concept {
    parse_concept(text, kb.schema_mut()).expect("parses")
}

/// Way 1, with or without the refused writes between the operations.
/// Also returns the told facts that survive the history, in the order
/// they were accepted — what way 2 loads — and the clone cut after
/// [`CUT`] operations, if the history is that long.
fn per_op(ops: &[Op], refusing: bool) -> (Kb, Trace, Vec<&Op>, Option<Kb>) {
    let mut kb = fresh_kb();
    let mut surviving: Vec<&Op> = Vec::new();
    let mut trace = Trace::new();
    let mut cut = None;
    for (i, op) in ops.iter().enumerate() {
        if i == CUT {
            cut = Some(kb.clone());
        }
        if refusing && i % REFUSE_EVERY == 0 {
            offer_the_refused(&mut |cmd| eval(&mut kb, cmd).is_ok());
        }
        let desc = concept(&mut kb, &op.desc);
        if op.retract {
            let outcome = kb.retract_ind(&op.target, &desc);
            if outcome.is_ok() {
                // `retract-ind` removes the most recent matching told fact.
                let told = surviving
                    .iter()
                    .rposition(|told| told.target == op.target && told.desc == op.desc)
                    .expect("an accepted retraction was told");
                surviving.remove(told);
            } else {
                assert!(
                    matches!(outcome, Err(ClassicError::NotAsserted(_))),
                    "monotone told facts always re-derive: {outcome:?}"
                );
            }
            trace.push(outcome.ok().map(|report| report.steps));
        } else {
            let outcome = kb.assert_ind(&op.target, &desc);
            if outcome.is_ok() {
                surviving.push(op);
            }
            trace.push(outcome.ok().map(|report| report.steps));
        }
    }
    (kb, trace, surviving, cut)
}

/// Way 2, as two loads with a clone cut between them: the database and
/// the clone.
fn bulk(told: &[&Op]) -> (Kb, Kb) {
    let mut kb = fresh_kb();
    let rows: Vec<BulkRow> = told
        .iter()
        .map(|op| BulkRow {
            name: op.target.clone(),
            desc: concept(&mut kb, &op.desc),
        })
        .collect();
    let load = |kb: &mut Kb, rows: &[BulkRow]| {
        let report = kb.bulk_assert(rows);
        assert_eq!(report.accepted, rows.len(), "{:?}", report.rejections);
        assert_eq!(
            report.sequential_fallbacks, 0,
            "surviving facts are consistent"
        );
    };
    let (first, second) = rows.split_at(rows.len() / 2);
    offer_the_refused(&mut |cmd| eval(&mut kb, cmd).is_ok());
    load(&mut kb, first);
    offer_the_refused(&mut |cmd| eval(&mut kb, cmd).is_ok());
    let cut = kb.clone();
    load(&mut kb, second);
    offer_the_refused(&mut |cmd| eval(&mut kb, cmd).is_ok());
    (kb, cut)
}

/// What the live store of way 3 is asked, shown and refused on the side:
/// each form, and whether it is answered or an error. None may be logged
/// or leave a primitive declared.
const ASIDES: [(&str, bool); 8] = [
    ("(retrieve (PRIMITIVE THING asked))", false),
    ("(possible (AND CRIME (FILLS victim never-seen)))", true),
    ("(what-if? crime-0 (PRIMITIVE THING tried))", false),
    ("(what-if? crime-1 (AT-MOST 0 victim))", true),
    ("(define-concept REFUSED (AND (PRIMITIVE THING defined) NOSUCH))", false),
    ("(assert-ind crime-2 (AND (PRIMITIVE THING told) (AT-MOST 0 jobs) (AT-LEAST 1 jobs)))", false),
    ("(assert-rule PERSON (AND (PRIMITIVE THING ruled) NOSUCH))", false),
    ("(bulk-load (into (AND (PRIMITIVE THING loaded) (AT-MOST 0 jobs))) (roles jobs) (row crime-3 7))", true),
];

/// Would `kb` still take every index the asides mentioned, under a parent
/// of its own? (It is a copy that is asked.)
fn accepts_the_probes(kb: &Kb) -> bool {
    let mut kb = kb.clone();
    let asides = ["asked", "tried", "defined", "told", "ruled", "loaded"];
    (asides.iter().chain(&["watched", "idle"])).all(|index| {
        let name = index.to_uppercase();
        let probe = format!("(define-concept PROBE-{name} (PRIMITIVE PERSON {index}))");
        let probe = parse(&probe).expect("parses").pop().expect("one form");
        eval(&mut kb, &probe).is_ok()
    })
}

/// Way 3: the live store as it stood at the end, the database its log
/// reopened to, and the clone of the live store cut after [`CUT`]
/// operations.
fn durable_then_reopened(ops: &[Op]) -> (Kb, Kb, Trace, Kb) {
    let dir = std::env::temp_dir().join(format!("classic-same-fixpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("kb.log");
    let configure = |kb: &mut Kb| {
        kb.register_test("fragile", fragile);
    };
    let mut store = DurableKb::open(&path, configure).expect("fresh store");
    prepare(&mut |script| {
        for cmd in parse(script).expect("parses") {
            store.eval_durable(&cmd).expect("setup is accepted");
        }
    });
    let mut cut = None;
    let trace = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if i == CUT {
                cut = Some(store.kb().expect("eagerly opened").clone());
            }
            if i % REFUSE_EVERY == 0 {
                offer_the_refused(&mut |cmd| store.eval_durable(cmd).is_ok());
            }
            let (aside, answered) = ASIDES[i % ASIDES.len()];
            let cmd = parse(aside).expect("parses").pop().expect("one form");
            assert_eq!(store.eval_durable(&cmd).is_ok(), answered, "{aside}");
            let verb = if op.retract {
                "retract-ind"
            } else {
                "assert-ind"
            };
            let form = format!("({verb} {} {})", op.target, op.desc);
            let cmd = parse(&form).expect("parses").pop().expect("one form");
            match store.eval_durable(&cmd) {
                Ok(Outcome::Asserted(report)) => Some(report.steps),
                Ok(Outcome::Retracted(report)) => Some(report.steps),
                Ok(other) => panic!("{form}: unexpected outcome {other:?}"),
                Err(_) => None,
            }
        })
        .collect();
    let live = store.kb().expect("eagerly opened").clone();
    drop(store);
    let reopened = DurableKb::open(&path, configure).expect("log replays");
    let kb = reopened.kb().expect("eagerly opened").clone();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    (live, kb, trace, cut.expect("the history passes the cut"))
}

#[test]
fn per_op_bulk_and_replayed_histories_reach_the_same_fixed_point() {
    let ops = history(0x5EED_C1A5);

    let (per_op_kb, op_trace, surviving, op_cut) = per_op(&ops, true);
    let (never_asked, plain_trace, ..) = per_op(&ops, false);
    assert_eq!(op_trace, plain_trace, "per-op: a refused write showed");

    // The history is the one the file promises.
    let count = |retract: bool, accepted: bool| {
        ops.iter()
            .zip(&op_trace)
            .filter(|(op, outcome)| op.retract == retract && outcome.is_some() == accepted)
            .count()
    };
    assert!(count(false, false) > 10, "too few refused updates");
    assert!(count(true, false) > 10, "too few refused retractions");
    assert!(count(true, true) > 10, "too few accepted retractions");
    assert!(surviving.len() > 64, "the bulk load must plan a wide epoch");
    assert!(
        per_op_kb.stats.rules_fired.get() > 0,
        "the rule never fired"
    );
    assert!(
        per_op_kb.stats.coref_propagations.get() > 0,
        "SAME-AS derived nothing"
    );

    let (bulk_kb, bulk_cut) = bulk(&surviving);

    let (live, reopened, log_trace, live_cut) = durable_then_reopened(&ops);
    assert_eq!(log_trace, op_trace, "durable: differs from in-memory");

    let ways = [
        ("per-op, never offered the refused writes", &never_asked),
        ("per-op", &per_op_kb),
        ("bulk", &bulk_kb),
        ("reopened log", &reopened),
        ("live store", &live),
    ];
    for (name, kb) in ways {
        kb.check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    for (i, (a_name, a)) in ways.iter().enumerate() {
        for (b_name, b) in &ways[i + 1..] {
            assert!(same_state(a, b), "{a_name} and {b_name} differ");
        }
    }
    for (name, kb) in ways {
        assert!(
            accepts_the_probes(kb),
            "{name}: something refused left a trace"
        );
    }

    // The clones cut halfway saw none of the second half — nor of the
    // probes just tried on copies of their originals.
    let (first_half, ..) = per_op(&ops[..CUT], false);
    let (first_rows, ..) = bulk(&surviving[..surviving.len() / 2]);
    let cuts = [
        ("per-op", op_cut.expect("cut"), &first_half),
        ("live store", live_cut, &first_half),
        ("bulk", bulk_cut, &first_rows),
    ];
    for (name, cut, expected) in &cuts {
        cut.check_invariants()
            .unwrap_or_else(|e| panic!("clone of {name}: {e}"));
        assert!(
            same_state(cut, expected) && same_state(expected, cut),
            "clone of {name}: saw what followed its cut"
        );
    }
}
