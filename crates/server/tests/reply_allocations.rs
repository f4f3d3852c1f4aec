//! Exact allocation gate: what writing a read's reply costs the heap.
//!
//! A counting global allocator counts every `alloc`, `alloc_zeroed` and
//! `realloc` the process makes. A tenant holds 20 000 individuals, 2 000
//! of them under `SMALL`, and the gate writes the whole reply line of
//! `(retrieve SMALL)` and of `(retrieve PERSON)` through
//! [`Tenant::write_reply`], the path both wire fronts take, from a
//! snapshot already cut. The answer is kept as ids and each name is
//! written from the snapshot's symbol table into the reply, so the two
//! replies make the same number of allocations, whatever their length:
//! the query's own, and two for the reply buffer (13 in all, here).
//! Before that path, a reply made at least one allocation per answered
//! name, each name first copied into a `String` of its own (2 014 and
//! 20 014 here).
//!
//! The binary holds this one test, so no other test's allocations land
//! in the counts. Allocation counts are a pure function of the inputs,
//! the same in debug and release and on every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use classic_server::{Json, Tenant};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// records that it was made.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most allocations a read's reply may make, answer size aside: the
/// 13 the gate measured, plus a little room.
const MOST: usize = 16;

/// Write the reply to `form` through the tenant, and count the
/// allocations that took.
fn reply(tenant: &Tenant, form: &str) -> (String, usize) {
    let cmd = classic_lang::parse_one(form).expect("the gate's forms parse");
    let mut out = String::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let failed = tenant.write_reply(&cmd, &mut out);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(!failed, "{form} failed: {out}");
    (out, made)
}

/// How many names the reply line `out` answers.
fn answered(out: &str) -> usize {
    let reply = Json::parse(out).expect("a reply is JSON");
    let names = reply.get("result").and_then(|r| r.get("names"));
    match names {
        Some(Json::Arr(names)) => names.len(),
        _ => panic!("not an answer of individuals: {out}"),
    }
}

#[test]
fn a_reply_allocates_the_same_however_many_names_it_answers() {
    let dir = std::env::temp_dir().join(format!("classic-reply-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tenant = Tenant::open("allocs", &dir).expect("tenant opens");
    let load = |into: &str, from: usize, to: usize| {
        let rows: String = (from..to).map(|i| format!(" (row p-{i})")).collect();
        format!("(bulk-load (into {into}) (roles){rows})")
    };
    for form in [
        "(define-concept PERSON (PRIMITIVE THING person))".to_owned(),
        "(define-concept SMALL (PRIMITIVE PERSON small))".to_owned(),
        load("SMALL", 0, 2_000),
        load("PERSON", 2_000, 20_000),
    ] {
        let cmd = classic_lang::parse_one(&form).expect("set-up forms parse");
        tenant.execute(&cmd).expect("set-up forms are accepted");
    }
    tenant.snapshot().expect("the snapshot is cut");
    // Once each unmeasured, so nothing a first read sets up is counted.
    for form in ["(retrieve SMALL)", "(retrieve PERSON)"] {
        reply(&tenant, form);
    }

    let (small, small_made) = reply(&tenant, "(retrieve SMALL)");
    let (large, large_made) = reply(&tenant, "(retrieve PERSON)");
    println!("allocations per reply: {small_made} for 2 000 names, {large_made} for 20 000");
    assert_eq!((answered(&small), answered(&large)), (2_000, 20_000));
    assert_eq!(small_made, large_made, "a reply allocates per name");
    assert!(
        large_made <= MOST,
        "{large_made} allocations, more than {MOST}"
    );

    drop(tenant);
    let _ = std::fs::remove_dir_all(&dir);
}
