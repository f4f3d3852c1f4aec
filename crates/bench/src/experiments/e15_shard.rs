//! E15 — thread-count invariance of the propagation fixpoint, and what
//! planning threads buy.
//!
//! The paper prices propagation to fixpoint at classes × individuals
//! (§5). The engine runs it as epochs of plan → effects → apply, and
//! `Kb::set_propagation_threads` only chooses how many threads plan a
//! wide epoch. E15 runs assert-to-fixpoint on an E9-scale software KB
//! augmented with wide ALL/rule cascades (one assertion touches
//! thousands of individuals) at 1, 2 and 4 planning threads.
//!
//! Asserted inline, on every host: each run passes `check_invariants`
//! (closure under the step included), every multi-threaded KB is
//! `same_state` with the single-threaded one, and the cascade takes
//! *exactly* the same number of steps at every thread count. Speedup is
//! against `threads=1` on the same step; the ≥2.5× floor at 4 threads is
//! asserted only when the host has ≥4 cores and the run is not a smoke
//! run — below that, threaded planning still runs (and must still
//! match) but its gain is unmeasured.
//!
//! Full run: 8 000 functions + 8 hubs × 1 500 members; smoke
//! (`CLASSIC_BENCH_SMOKE`): 400 functions + 2 hubs × 200 members.

use crate::experiments::time;
use crate::workload::software::{build, SoftwareConfig};
use classic_core::desc::{Concept, IndRef};
use classic_kb::Kb;
use std::fmt::Write as _;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var_os("CLASSIC_BENCH_SMOKE").is_some()
}

struct Scale {
    functions: usize,
    modules: usize,
    hubs: usize,
    members: usize,
}

fn scale() -> Scale {
    if smoke() {
        Scale {
            functions: 400,
            modules: 16,
            hubs: 2,
            members: 200,
        }
    } else {
        Scale {
            functions: 8_000,
            modules: 320,
            hubs: 8,
            members: 1_500,
        }
    }
}

/// Build the base KB, set the thread count, and run the measured cascade
/// phase. Returns the finished KB, the cascade wall time, the op count,
/// and the propagation steps the cascade's assertions reported.
fn run_cascade(threads: usize, sc: &Scale) -> (Kb, Duration, u64, u64) {
    let cfg = SoftwareConfig {
        modules: sc.modules,
        functions: sc.functions,
        ..SoftwareConfig::default()
    };
    let mut sw = build(&cfg);
    let kb = &mut sw.kb;
    kb.set_propagation_threads(threads);
    // Cascade schema: a wide role, a recognition target, and a rule so
    // every cascade does conjunction + recognition + forward chaining.
    kb.define_role("member").expect("fresh role");
    kb.define_concept("TRACKED", Concept::primitive(Concept::thing(), "tracked"))
        .expect("fresh");
    kb.define_concept("AUDITED", Concept::primitive(Concept::thing(), "audited"))
        .expect("fresh");
    let audited = kb.schema().symbols.find_concept("AUDITED").expect("c");
    kb.assert_rule("TRACKED", Concept::Name(audited))
        .expect("rule");
    let member = kb.schema().symbols.find_role("member").expect("role");
    let tracked = kb.schema().symbols.find_concept("TRACKED").expect("c");
    // Hubs point at existing function individuals so the cascade crosses
    // the whole arena, not a fresh corner of it.
    let mut ops = 0u64;
    let mut steps = 0u64;
    let (_, elapsed) = time(|| {
        for h in 0..sc.hubs {
            let hub = format!("hub-{h}");
            kb.create_ind(&hub).expect("fresh ind");
            let fillers: Vec<IndRef> = (0..sc.members)
                .map(|i| {
                    let f = format!("fn-{}", (h * 613 + i * 7) % sc.functions);
                    IndRef::Classic(kb.schema_mut().symbols.individual(&f))
                })
                .collect();
            let filled = kb
                .assert_ind(&hub, &Concept::Fills(member, fillers))
                .expect("coherent");
            // The measured fixpoint: TRACKED fans out over every member,
            // recognition re-runs, and the rule fires AUDITED on each.
            let cascaded = kb
                .assert_ind(
                    &hub,
                    &Concept::All(member, Box::new(Concept::Name(tracked))),
                )
                .expect("coherent");
            steps += filled.steps + cascaded.steps;
            ops += 2;
        }
    });
    kb.check_invariants().expect("invariants after cascade");
    let audited_count = kb.instances_of(audited).expect("defined").len();
    assert!(
        audited_count > 0,
        "cascade fired no rules — workload is broken"
    );
    (sw.kb, elapsed, ops, steps)
}

pub fn run() -> String {
    let sc = scale();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    let _ = writeln!(out, "== E15: propagation at 1, 2, 4 planning threads ==");
    let _ = writeln!(
        out,
        "assert-to-fixpoint over {} functions, {} hubs x {} members ({} cores)",
        sc.functions, sc.hubs, sc.members, cores
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>9} {:>9} {:>11}",
        "threads", "cascade ms", "ms/assert", "steps", "speedup", "same_state"
    );
    let mut single: Option<(Kb, Duration, u64)> = None;
    let mut speedup4 = 0.0f64;
    for threads in [1usize, 2, 4] {
        let (kb, elapsed, ops, steps) = run_cascade(threads, &sc);
        let (base, t1, steps1) = single.get_or_insert_with(|| (kb.clone(), elapsed, steps));
        assert!(
            classic_store::same_state(base, &kb),
            "{threads} planning threads reached a different state than 1"
        );
        assert_eq!(
            steps, *steps1,
            "{threads} planning threads took a different number of steps than 1"
        );
        let speedup = t1.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        if threads == 4 {
            speedup4 = speedup;
        }
        let _ = writeln!(
            out,
            "{:>8} {:>10.1} {:>12.2} {:>9} {:>8.2}x {:>11}",
            threads,
            elapsed.as_secs_f64() * 1e3,
            elapsed.as_secs_f64() * 1e3 / ops.max(1) as f64,
            steps,
            speedup,
            "yes",
        );
    }
    if cores >= 4 && !smoke() {
        assert!(
            speedup4 >= 2.5,
            "4-thread speedup {speedup4:.2}x below the 2.5x floor on a {cores}-core host"
        );
        let _ = writeln!(out, "asserted: 4-thread speedup {speedup4:.2}x >= 2.5x");
    } else {
        let _ = writeln!(
            out,
            "speedup floor not asserted ({} cores{}): threaded planning is unmeasured \
             below 4 cores; state and step equality were asserted",
            cores,
            if smoke() { ", smoke run" } else { "" }
        );
    }
    out
}
