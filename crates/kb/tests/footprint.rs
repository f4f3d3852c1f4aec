//! Exact footprint gate: heap bytes a loaded individual costs.
//!
//! A counting global allocator tracks live heap bytes. Each case builds
//! its forms first, then loads them into a fresh `Kb` through
//! `classic_lang::{parse_one, eval}` and divides the heap the `Kb` holds
//! afterwards by its individuals. Allocation sizes are a pure function
//! of the inputs, which are generated from fixed seeds, so the figure is
//! the same on every run and every host: the bounds below are the
//! measured values plus 5 %, and any representation change that grows an
//! individual fails here rather than in a noisy RSS reading.
//!
//! The two shapes are the benchmark's software functions (four
//! `bulk-load` forms: modules with an import, functions with a module, a
//! size and up to six callees, leaves told `(AT-MOST 0 calls)`) and E17's
//! pets CSV (`id,kind,legs,score,team` under the TBox ingest infers for
//! it), each at 2 000 rows.

use classic_kb::Kb;
use classic_lang::{eval, parse_one};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// records the sizes it was asked for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ROWS: usize = 2_000;

/// SplitMix64: a fixed-seed stream, so the generated inputs (and with
/// them every allocation) are the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The benchmark's software schema and its four `bulk-load` forms.
fn software_forms(functions: usize, modules: usize) -> Vec<String> {
    let mut rng = Rng(1);
    let mut forms: Vec<String> = ["defined-in", "calls", "imports", "loc"]
        .iter()
        .map(|r| format!("(define-role {r})"))
        .collect();
    forms.push("(define-concept SOFTWARE-OBJECT (PRIMITIVE THING software-object))".into());
    for kind in ["MODULE", "FUNCTION", "FILE"] {
        forms.push(format!(
            "(define-concept {kind} (DISJOINT-PRIMITIVE SOFTWARE-OBJECT sw-kind {}))",
            kind.to_lowercase()
        ));
    }
    forms.push("(define-concept DEFINED-FUNCTION (AND FUNCTION (AT-LEAST 1 defined-in)))".into());
    forms.push("(define-concept LEAF-FUNCTION (AND FUNCTION (AT-MOST 0 calls)))".into());
    forms.push("(define-concept CONNECTED-MODULE (AND MODULE (AT-LEAST 1 imports)))".into());
    for k in 1..=8 {
        forms.push(format!(
            "(define-concept CALLER-{k} (AND FUNCTION (AT-LEAST {k} calls)))"
        ));
    }
    let module_rows: Vec<String> = (0..modules)
        .map(|m| match m > 0 && rng.below(10) < 7 {
            true => format!("(row mod-{m} mod-{})", rng.below(m)),
            false => format!("(row mod-{m} _)"),
        })
        .collect();
    forms.push(format!(
        "(bulk-load (into MODULE) (roles imports) {})",
        module_rows.join(" ")
    ));
    let (mut first, mut more, mut leaves) = (Vec::new(), Vec::new(), Vec::new());
    for f in 0..functions {
        let mut calls: Vec<usize> = Vec::new();
        if f > 0 {
            for _ in 0..rng.below(7) {
                let callee = rng.below(f);
                if !calls.contains(&callee) {
                    calls.push(callee);
                }
            }
        }
        let (module, loc) = (rng.below(modules), 5 + rng.below(495));
        let head = calls.first().map_or("_".to_owned(), |c| format!("fn-{c}"));
        first.push(format!("(row fn-{f} mod-{module} {loc} {head})"));
        more.extend(calls.iter().skip(1).map(|c| format!("(row fn-{f} fn-{c})")));
        if calls.is_empty() && rng.below(2) == 0 {
            leaves.push(format!("(row fn-{f} {loc})"));
        }
    }
    for (head, rows) in [
        ("(into FUNCTION) (roles defined-in loc calls)", first),
        ("(into FUNCTION) (roles calls)", more),
        (
            "(into (AND FUNCTION (AT-MOST 0 calls))) (roles loc)",
            leaves,
        ),
    ] {
        forms.push(format!("(bulk-load {head} {})", rows.join(" ")));
    }
    forms
}

/// E17's pets rows under the TBox ingest infers for them.
fn pets_forms(rows: usize) -> Vec<String> {
    const KINDS: [&str; 5] = ["dog", "cat", "bird", "fish", "hamster"];
    const TEAMS: [&str; 3] = ["red", "blue", "green"];
    let mut rng = Rng(2);
    let mut forms: Vec<String> = ["kind", "legs", "score", "team"]
        .iter()
        .map(|r| format!("(define-role {r})"))
        .collect();
    forms.push(
        "(define-concept PET (AND (PRIMITIVE THING pet) \
         (ALL kind (ONE-OF \"bird\" \"cat\" \"dog\" \"fish\" \"hamster\")) \
         (AT-MOST 1 kind) (AT-LEAST 1 kind) (ALL legs INTEGER) (AT-MOST 1 legs) \
         (AT-LEAST 1 legs) (ALL score FLOAT) (AT-MOST 1 score) (AT-LEAST 1 score) \
         (ALL team (ONE-OF \"blue\" \"green\" \"red\")) (AT-MOST 1 team) (AT-LEAST 1 team)))"
            .into(),
    );
    let rows: Vec<String> = (0..rows)
        .map(|i| {
            let kind = KINDS[rng.below(KINDS.len())];
            let legs = rng.below(9);
            let score = rng.below(10_000) as f64 / 100.0;
            let team = TEAMS[rng.below(TEAMS.len())];
            format!("(row r{i} \"{kind}\" {legs} {score:.2} \"{team}\")")
        })
        .collect();
    forms.push(format!(
        "(bulk-load (into PET) (roles kind legs score team) {})",
        rows.join(" ")
    ));
    forms
}

/// Heap bytes per individual of a `Kb` loaded with `forms`.
fn bytes_per_individual(forms: &[String]) -> f64 {
    let base = LIVE.load(Ordering::SeqCst);
    let mut kb = Kb::new();
    for form in forms {
        let cmd = parse_one(form).expect("form parses");
        eval(&mut kb, &cmd).expect("form is accepted");
    }
    let held = LIVE.load(Ordering::SeqCst) - base;
    let per = held as f64 / kb.ind_count() as f64;
    drop(kb);
    per
}

// One test function, so no other test allocates while it measures.
#[test]
fn an_individual_costs_what_its_facts_need() {
    let functions = bytes_per_individual(&software_forms(ROWS, 80));
    let pets = bytes_per_individual(&pets_forms(ROWS));
    println!("footprint: functions {functions:.1} B/individual, pets {pets:.1} B/individual");
    for (shape, measured, bound) in [
        ("functions", functions, FUNCTIONS_BOUND),
        ("pets", pets, PETS_BOUND),
    ] {
        assert!(
            measured <= bound,
            "{shape}: {measured:.1} heap bytes per individual, above the {bound} gate"
        );
    }
}

/// 1 899.8 B measured, plus 5 %.
const FUNCTIONS_BOUND: f64 = 1_995.0;
/// 2 355.7 B measured, plus 5 %.
const PETS_BOUND: f64 = 2_474.0;
