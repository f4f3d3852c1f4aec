//! One history, four ways, one fixed point.
//!
//! The paper's completion is a least fixed point ("rules continue
//! propagating until a fixed point is reached", §5), so the route an
//! accepted history took to it must not show. One fixed-seed history of
//! the shared strategy (tests/support/history.rs: every write kind,
//! refusals, armed recognizers, reads and `what-if?`s, the §4 crime
//! schema's rule and `SAME-AS`) is taken
//!
//! 1. step by step through `eval` on a `Kb`,
//! 2. as `bulk_assert`s of the tellings that survive it,
//! 3. through a `DurableKb`, whose live database is kept, and which is
//!    then dropped and reopened from its log,
//!
//! and all must be pairwise the same state (`assert_same`: `same_state`
//! both ways, closure under the propagation step, the same shape), with
//! ways 1 and 3 reporting the same `steps` for every step. Way 2 loads
//! the tellings standing before the history first retracts a told fact
//! after a `CLOSE` (see the history module), and is compared with way 1
//! at that point.
//!
//! Nor may anything that was merely asked, tried or refused show: way 1
//! run over the accepted writes alone is the same state, step for step,
//! and no way declares an atom only reads mention.
//!
//! And no version may show what came after it: ways 1 and 3 are cut
//! halfway, and way 2 between its two halves — a `Kb::clone`, which
//! shares its storage with the database that goes on taking the rest —
//! and each clone must end as the database that took the first half and
//! nothing else.

use classic_kb::Kb;
use classic_lang::parse;
use classic_store::DurableKb;
use history::{assert_same, Done, Run, Step, Undo};

#[path = "support/history.rs"]
mod history;

const SEED: u64 = 0x5EED_C1A5;
const STEPS: usize = 600;
/// Steps taken before the clones of ways 1 and 3 are cut.
const CUT: usize = STEPS / 2;

/// Ways 1 and 3 in step: way 1's run and what each step did, the live
/// store as it stood at the end, the database its log reopened to, and
/// the clones of way 1 and of the live store cut after [`CUT`] steps.
fn per_op_and_durable(steps: &[Step]) -> (Run, Vec<Done>, Kb, Kb, [Kb; 2]) {
    let dir = std::env::temp_dir().join(format!("classic-same-fixpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, history::register).expect("fresh store");
    for cmd in parse(&history::base_script()).expect("parses") {
        store.eval_durable(&cmd).expect("the base is accepted");
    }
    let mut run = Run::default();
    let (mut trace, mut cuts) = (Vec::new(), None);
    for (at, step) in steps.iter().enumerate() {
        if at == CUT {
            cuts = Some([run.kb.clone(), store.kb().expect("eagerly opened").clone()]);
        }
        let done = run.step(step);
        if let Some(outcome) = done.send(|cmd| store.eval_durable(cmd)) {
            let verdict = history::verdict(&outcome);
            assert_eq!(
                verdict,
                (done.accepted, done.steps),
                "durable, step {at}: {done:?}"
            );
        }
        trace.push(done);
    }
    let live = store.kb().expect("eagerly opened").clone();
    drop(store);
    let reopened = DurableKb::open(&path, history::register).expect("log replays");
    let kb = reopened.kb().expect("eagerly opened").clone();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    (
        run,
        trace,
        live,
        kb,
        cuts.expect("the history passes the cut"),
    )
}

#[test]
fn per_op_bulk_and_replayed_histories_reach_the_same_fixed_point() {
    let steps = history::seeded(SEED, STEPS);
    let (run, trace, live, reopened, [per_op_cut, live_cut]) = per_op_and_durable(&steps);

    // The history is the one the file promises.
    let count = |kind: &str, accepted: bool| {
        let matches = |d: &&Done| d.kind == kind && d.accepted == accepted;
        trace.iter().filter(matches).count()
    };
    assert!(count("assert-ind", false) > 10, "too few refused updates");
    assert!(
        count("retract-ind", false) > 10,
        "too few refused retractions"
    );
    assert!(
        count("retract-ind", true) > 10,
        "too few accepted retractions"
    );
    assert!(
        trace.iter().any(|d| d.armed && !d.accepted),
        "no armed step refused"
    );
    assert!(run.kb.stats.rules_fired.get() > 0, "no rule fired");
    assert!(
        run.kb.stats.coref_propagations.get() > 0,
        "SAME-AS derived nothing"
    );

    // What was asked, tried or refused left nothing behind.
    let accepted: Vec<Step> = (steps.iter().zip(&trace))
        .filter(|(_, done)| done.write && done.accepted)
        .map(|(step, _)| step.clone())
        .collect();
    let mut never_asked = Run::default();
    let plain: Vec<_> = accepted.iter().map(|s| never_asked.step(s).steps).collect();
    let stepped: Vec<_> = trace
        .iter()
        .filter(|d| d.write && d.accepted)
        .map(|d| d.steps)
        .collect();
    assert_eq!(plain, stepped, "per-op: a refused write or a read showed");

    let ways = [
        ("per-op, never asked", &never_asked.kb),
        ("per-op", &run.kb),
        ("reopened log", &reopened),
        ("live store", &live),
    ];
    for (i, (a_name, a)) in ways.iter().enumerate() {
        for (b_name, b) in &ways[i + 1..] {
            assert_same(a, b, &format!("{a_name} and {b_name}"));
        }
        for probe in history::PROBES {
            assert!(
                !history::declared(a, probe),
                "{a_name}: {probe} was declared"
            );
        }
    }

    // Way 2, where a rebuild is defined: the tellings standing then, in
    // two loads with a clone cut between them.
    let prefix = Run::over(&steps[..run.rebuildable_steps()]);
    let tellings = prefix.surviving();
    let (first, second) = tellings.split_at(tellings.len() / 2);
    let mut bulk = history::rebuild(first, true);
    let bulk_cut = bulk.clone();
    history::tell(&mut bulk, second, true);
    assert_same(&prefix.kb, &bulk, "per-op and bulk");
    let facts = (tellings.iter()).filter(|t| matches!(t.undo, Undo::Fact(_)));
    assert!(facts.count() > 64, "the bulk loads must be wide");

    // The clones cut halfway saw none of the second half.
    let first_half = Run::over(&steps[..CUT]).kb;
    assert_same(&per_op_cut, &first_half, "clone of per-op");
    assert_same(&live_cut, &first_half, "clone of the live store");
    assert_same(&bulk_cut, &history::rebuild(first, true), "clone of bulk");
}
