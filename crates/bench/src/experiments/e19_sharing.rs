//! E19 — what a snapshot costs: cut, first write after a cut, drop.
//!
//! `Kb::clone` is how a version is pinned — the server's read snapshot,
//! a sandbox, a staged bulk load. The claim (DESIGN.md, "Versions share
//! structure"): everything that grows with the individuals lives in
//! chunked copy-on-write tables, so a clone shares it, and a write after
//! a clone copies the chunks it lands in — a number that depends on the
//! write, not on the database. Workload: a software information system
//! like the benchmark's `wire-mixed` tenant (modules, functions that are
//! defined in one and call one another, a `CALLER-k` ladder), at 10³,
//! 10⁴ and 10⁵ functions; each round pins a clone, creates one function
//! and tells it what `wire-mixed` tells its new functions, then drops
//! the clone.
//!
//! Exact counts are asserted inline, wall times are printed beside them:
//!
//! * **constant copy** — the chunks the pinned clone no longer shares
//!   with the primary after the round's one `create-ind` + one
//!   `assert-ind` ([`Kb::sharing_with`], by allocation identity) are the
//!   *same number* at every size;
//! * **shared** — at 10⁵ functions the clone still shares ≥ 99 % of its
//!   chunks after the write;
//! * **pinned** — the clone answers as before the write.

use crate::experiments::time;
use classic_core::desc::{Concept, IndRef};
use classic_core::host::HostValue;
use classic_kb::{BulkRow, Kb};
use std::fmt::Write as _;
use std::time::Duration;

/// Modules, and functions that call two others: both fixed, and created
/// first, so the individuals a round's write refers to — and the
/// `CALLER-2` extension it lands in — sit at the same place at every
/// size.
const MODULES: usize = 32;
const TWO_CALLERS: usize = 10;
/// Rounds per size; times are their medians.
const ROUNDS: usize = 9;

pub fn run() -> String {
    let smoke = std::env::var("CLASSIC_BENCH_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[1_000, 4_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    let mut out = String::new();
    let _ = writeln!(out, "== E19: a snapshot costs what the write dirtied ===");
    let _ = writeln!(
        out,
        "claim: Kb::clone shares every chunk; one create-ind + one assert-ind"
    );
    let _ = writeln!(
        out,
        "after it copies the same few chunks whatever the size (asserted)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>7} {:>8} {:>9} {:>10} {:>9}",
        "inds", "chunks", "copied", "shared", "µs cut", "µs write", "µs drop"
    );

    let mut copied_at: Vec<usize> = Vec::new();
    for &functions in sizes {
        let mut kb = build(functions);
        let (mut cuts, mut writes, mut drops) = (Vec::new(), Vec::new(), Vec::new());
        let mut first = None;
        for round in 0..ROUNDS {
            let (pinned, t_cut) = time(|| kb.clone());
            let whole = pinned.sharing_with(&kb);
            assert_eq!(
                whole.chunks_shared, whole.chunks_total,
                "a fresh clone shares every chunk"
            );
            let before = callers_of_two(&pinned);
            let ((), t_write) = time(|| write_one(&mut kb, round));
            let after = pinned.sharing_with(&kb);
            assert_eq!(callers_of_two(&pinned), before, "the clone moved");
            assert_eq!(callers_of_two(&kb), before + 1, "the write is missing");
            first.get_or_insert(after);
            let ((), t_drop) = time(|| drop(pinned));
            cuts.push(t_cut);
            writes.push(t_write);
            drops.push(t_drop);
        }
        let after = first.expect("at least one round");
        let copied = after.chunks_total - after.chunks_shared;
        copied_at.push(copied);
        let shared = after.chunks_shared as f64 / after.chunks_total as f64;
        if functions >= 100_000 {
            assert!(
                shared >= 0.99,
                "only {shared:.4} of the clone's chunks still shared at {functions} functions"
            );
        }
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>7} {:>7.2}% {:>9.1} {:>10.1} {:>9.1}",
            kb.ind_count(),
            after.chunks_total,
            copied,
            100.0 * shared,
            median_us(&mut cuts),
            median_us(&mut writes),
            median_us(&mut drops),
        );
    }
    assert!(
        copied_at.windows(2).all(|w| w[0] == w[1]),
        "chunks copied by one create + one assert depend on the size: {copied_at:?}"
    );

    let _ = writeln!(
        out,
        "expected shape: copied is one number and µs write stays flat; µs cut and"
    );
    let _ = writeln!(
        out,
        "µs drop grow with the chunk count (a pointer per chunk), not the individuals."
    );
    out
}

fn median_us(times: &mut [Duration]) -> f64 {
    times.sort();
    times[times.len() / 2].as_nanos() as f64 / 1000.0
}

/// Individuals recognized as calling at least two functions.
fn callers_of_two(kb: &Kb) -> usize {
    let caller = kb
        .schema()
        .symbols
        .find_concept("CALLER-2")
        .expect("defined");
    kb.instances_of(caller).expect("classified").len()
}

/// One round's write: a new function, told what `wire-mixed` tells one.
fn write_one(kb: &mut Kb, round: usize) {
    let name = format!("probe-{round}");
    kb.create_ind(&name).expect("a fresh name");
    let desc = function(kb, 3, 7, &["fn-0", "fn-1"]);
    kb.assert_ind(&name, &desc).expect("a coherent function");
}

/// `(AND FUNCTION (FILLS defined-in mod-m) (FILLS loc n) (FILLS calls …))`.
fn function(kb: &mut Kb, module: usize, loc: i64, calls: &[&str]) -> Concept {
    let symbols = &mut kb.schema_mut().symbols;
    let named = |symbols: &mut classic_core::SymbolTable, name: &str| {
        IndRef::Classic(symbols.individual(name))
    };
    let module = named(symbols, &format!("mod-{module}"));
    let calls = calls.iter().map(|c| named(symbols, c)).collect();
    let role = |name: &str| symbols.find_role(name).expect("declared");
    Concept::and([
        Concept::Name(symbols.find_concept("FUNCTION").expect("defined")),
        Concept::Fills(role("defined-in"), vec![module]),
        Concept::Fills(role("loc"), vec![IndRef::Host(HostValue::Int(loc))]),
        Concept::Fills(role("calls"), calls),
    ])
}

fn build(functions: usize) -> Kb {
    let mut kb = Kb::new();
    for role in ["defined-in", "calls", "loc"] {
        kb.define_role(role).expect("fresh role");
    }
    let calls = kb.schema().symbols.find_role("calls").expect("declared");
    let object = Concept::primitive(Concept::thing(), "software-object");
    kb.define_concept("SOFTWARE-OBJECT", object)
        .expect("coherent");
    let object = Concept::Name(
        kb.schema()
            .symbols
            .find_concept("SOFTWARE-OBJECT")
            .expect("defined"),
    );
    for kind in ["MODULE", "FUNCTION"] {
        let def = Concept::disjoint_primitive(object.clone(), "sw-kind", &kind.to_lowercase());
        kb.define_concept(kind, def).expect("coherent");
    }
    let function_c = Concept::Name(
        kb.schema()
            .symbols
            .find_concept("FUNCTION")
            .expect("defined"),
    );
    for k in 1..=2 {
        let def = Concept::and([function_c.clone(), Concept::AtLeast(k, calls)]);
        kb.define_concept(&format!("CALLER-{k}"), def)
            .expect("coherent");
    }
    let module_c = Concept::Name(kb.schema().symbols.find_concept("MODULE").expect("defined"));
    let mut rows: Vec<BulkRow> = (0..MODULES)
        .map(|m| BulkRow {
            name: format!("mod-{m}"),
            desc: module_c.clone(),
        })
        .collect();
    // Every function calls an earlier one (the first, itself); the few
    // after the first two call both of those.
    for f in 0..functions {
        let callee = format!("fn-{}", f / 2);
        let calls: &[&str] = if (2..2 + TWO_CALLERS).contains(&f) {
            &["fn-0", "fn-1"]
        } else {
            &[&callee]
        };
        rows.push(BulkRow {
            name: format!("fn-{f}"),
            desc: function(&mut kb, f % MODULES, 5 + (f % 495) as i64, calls),
        });
    }
    let report = kb.bulk_assert(&rows);
    assert_eq!(report.accepted, rows.len(), "{:?}", report.rejections);
    assert_eq!(callers_of_two(&kb), TWO_CALLERS);
    kb
}
