//! E19 — what a snapshot costs: cut, first write after a cut, drop.
//!
//! `Kb::clone` is how a version is pinned — the server's read snapshot,
//! a sandbox, a staged bulk load. The claim (DESIGN.md, "Versions share
//! structure"): everything that grows with the individuals lives in
//! chunked copy-on-write tables and the TBox behind `Arc`s only DDL
//! writes, so a clone copies pointers and no entry, and a write after a
//! clone copies the chunks it lands in — a number that depends on the
//! write, not on the database or the schema. Workload: a software
//! information system like the benchmark's `wire-mixed` tenant (modules,
//! functions that are defined in one and call one another, a `CALLER-k`
//! ladder), at 10³, 2·10³, 10⁴, 2·10⁴ and 10⁵ functions (the benchmark's
//! tenants are 2·10³ and 2·10⁴) on a 22-node taxonomy, and at
//! 10³ functions on a ≈ 6 000-node one (a two-level tree of primitive
//! tags beside the ladder); each round pins a clone, creates one
//! function and tells it what `wire-mixed` tells its new functions, then
//! drops the clone. Last, three times, one `define-concept` is made
//! while a clone is pinned and one like it with none.
//!
//! Exact counts are asserted inline, wall times are printed beside them:
//!
//! * **whole** — a fresh clone shares every chunk and the whole TBox
//!   ([`Kb::sharing_with`], by allocation identity);
//! * **constant copy** — the chunks the pinned clone no longer shares
//!   with the primary after the round's one `create-ind` + one
//!   `assert-ind` are the *same number* at every size of the data and of
//!   the schema; the write leaves the TBox shared. A round whose
//!   `create-ind` starts a fresh chunk of a table copies nothing there,
//!   so the number reported is the most any round copied;
//! * **shared** — at 10⁵ functions the clone still shares ≥ 99 % of its
//!   chunks after the write;
//! * **pinned** — the clone answers as before the write;
//! * **DDL copies the TBox** — a `define-concept` while a clone is
//!   pinned copies the schema's definitions and the taxonomy, and leaves
//!   the rule table shared.

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
/// Pinned and unpinned `define-concept`s per size; times are their
/// medians.
const DEFINES: u32 = 3;
/// Taxonomy nodes without the tags: `THING`, the empty concept,
/// `SOFTWARE-OBJECT`, `MODULE`, `FUNCTION`, `CALLER-1`, `CALLER-2` and
/// `TAG`.
const BASE_NODES: usize = 8;

pub fn run() -> String {
    let smoke = std::env::var("CLASSIC_BENCH_SMOKE").is_ok();
    // (functions, taxonomy nodes)
    let sizes: &[(usize, usize)] = if smoke {
        &[(1_000, 22), (4_000, 22), (1_000, 2_002)]
    } else {
        &[
            (1_000, 22),
            (2_000, 22),
            (10_000, 22),
            (20_000, 22),
            (100_000, 22),
            (1_000, 6_002),
        ]
    };

    let mut out = String::new();
    let _ = writeln!(out, "== E19: a snapshot costs what the write dirtied ===");
    let _ = writeln!(
        out,
        "claim: Kb::clone shares every chunk and the TBox; one create-ind + one"
    );
    let _ = writeln!(
        out,
        "assert-ind after it copies the same few chunks whatever the size (asserted)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>8} {:>7} {:>8} {:>9} {:>10} {:>9} {:>10} {:>9}",
        "inds",
        "nodes",
        "chunks",
        "copied",
        "shared",
        "µs cut",
        "µs write",
        "µs drop",
        "µs define",
        "unpinned"
    );

    let mut copied_at: Vec<usize> = Vec::new();
    for &(functions, nodes) in sizes {
        let mut kb = build(functions, nodes - BASE_NODES);
        assert_eq!(kb.taxonomy().len(), nodes);
        let (mut cuts, mut writes, mut drops) = (Vec::new(), Vec::new(), Vec::new());
        // (chunks copied, the sharing counted) of the round that copied most
        let mut most = None;
        for round in 0..ROUNDS {
            let (pinned, t_cut) = time(|| kb.clone());
            let whole = pinned.sharing_with(&kb);
            assert_eq!(
                (whole.chunks_shared, whole.tbox_shared),
                (whole.chunks_total, whole.tbox_total),
                "a fresh clone shares every chunk and the TBox"
            );
            let before = callers_of_two(&pinned);
            let ((), t_write) = time(|| write_one(&mut kb, round));
            let after = pinned.sharing_with(&kb);
            assert_eq!(callers_of_two(&pinned), before, "the clone moved");
            assert_eq!(callers_of_two(&kb), before + 1, "the write is missing");
            assert_eq!(
                after.tbox_shared, after.tbox_total,
                "a data write copied the TBox"
            );
            let copied = after.chunks_total - after.chunks_shared;
            if most.is_none_or(|(most, _)| copied > most) {
                most = Some((copied, after));
            }
            let ((), t_drop) = time(|| drop(pinned));
            cuts.push(t_cut);
            writes.push(t_write);
            drops.push(t_drop);
        }
        let (copied, after) = most.expect("at least one round");
        copied_at.push(copied);
        let shared = after.chunks_shared as f64 / after.chunks_total as f64;
        if functions >= 100_000 {
            assert!(
                shared >= 0.99,
                "only {shared:.4} of the clone's chunks still shared at {functions} functions"
            );
        }
        let (mut pinned, mut unpinned) = (Vec::new(), Vec::new());
        for round in 0..DEFINES {
            let (t_pinned, t_unpinned) = define_while_pinned(&mut kb, round);
            pinned.push(t_pinned);
            unpinned.push(t_unpinned);
        }
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>8} {:>7} {:>7.2}% {:>9.1} {:>10.1} {:>9.1} {:>10.1} {:>9.1}",
            kb.ind_count(),
            nodes,
            after.chunks_total,
            copied,
            100.0 * shared,
            median_us(&mut cuts),
            median_us(&mut writes),
            median_us(&mut drops),
            median_us(&mut pinned),
            median_us(&mut unpinned),
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
        "µs drop grow with the chunk count (a pointer per chunk), not with the"
    );
    let _ = writeln!(
        out,
        "individuals or the schema; µs define pays for copying the TBox once, unpinned not."
    );
    out
}

/// Define one concept while a clone is pinned: the TBox's definitions
/// and taxonomy are copied (once), its rule table is not, and the clone
/// does not see the concept. Then one more like it with no clone, which
/// copies nothing. Neither has an individual to recognize (no function
/// is a `TAG`), so the two differ by the copy. Returns the two times.
fn define_while_pinned(kb: &mut Kb, round: u32) -> (Duration, Duration) {
    let pinned = kb.clone();
    let calls = kb.schema().symbols.find_role("calls").expect("declared");
    let define = |kb: &mut Kb, k: u32| {
        let def = Concept::and([named(kb, "TAG"), Concept::AtLeast(k, calls)]);
        let (defined, t_define) = time(|| kb.define_concept(&format!("TAG-CALLER-{k}"), def));
        defined.expect("coherent");
        t_define
    };
    let t_pinned = define(kb, 2 * round + 1);
    let after = pinned.sharing_with(kb);
    assert_eq!(
        (after.tbox_shared, after.tbox_total),
        (1, 3),
        "define-concept copies the definitions and the taxonomy, not the rules"
    );
    assert!(pinned
        .schema()
        .symbols
        .find_concept(&format!("TAG-CALLER-{}", 2 * round + 1))
        .is_none());
    drop(pinned);
    (t_pinned, define(kb, 2 * round + 2))
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

/// The named concept `name`, as a description.
fn named(kb: &Kb, name: &str) -> Concept {
    Concept::Name(kb.schema().symbols.find_concept(name).expect("defined"))
}

/// `TAG` and `count` primitive tags below it, in a two-level tree of
/// about √`count` groups, so classifying each tests about 2·√`count`
/// nodes. No function is a `TAG`, so realizing one never looks below it.
fn define_tags(kb: &mut Kb, count: usize) {
    let tag = Concept::primitive(Concept::thing(), "tag");
    kb.define_concept("TAG", tag).expect("coherent");
    let fanout = (count as f64).sqrt().ceil() as usize;
    let mut defined = 0;
    for group in 0.. {
        if defined == count {
            break;
        }
        let head = format!("TAG-{group}");
        let def = Concept::primitive(named(kb, "TAG"), &head.to_lowercase());
        kb.define_concept(&head, def).expect("coherent");
        defined += 1;
        for leaf in 0..fanout.min(count - defined) {
            let name = format!("{head}-{leaf}");
            let def = Concept::primitive(named(kb, &head), &name.to_lowercase());
            kb.define_concept(&name, def).expect("coherent");
            defined += 1;
        }
    }
}

fn build(functions: usize, tags: usize) -> Kb {
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
    define_tags(&mut kb, tags);
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
