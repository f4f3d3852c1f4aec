//! E12 — segmented snapshot store: open cost, compaction, crash matrix.
//!
//! The 1989 system persisted a knowledge base as one monolithic command
//! script, so *every* open replayed the whole ABox. The segmented store
//! (docs/FORMAT.md) splits the snapshot into fixed-budget segments behind
//! a generation-stamped manifest; a paged open loads the manifest and the
//! schema segment, replays only the log suffix past the manifest
//! generation, and hydrates individual segments on demand. This
//! experiment regenerates the format's three claims:
//!
//! * **open cost** — with a short log suffix, the paged open touches a
//!   *constant* number of segments while the monolithic ablation (full
//!   snapshot replay, what the old format did on every open) replays all
//!   N individuals. The segment counts are asserted inline — hydrated
//!   segments must not grow with N — so the sublinearity is structural,
//!   not a timing artifact.
//! * **equivalence** — eager open, paged open (after full hydration) and
//!   the monolithic replay all reach the same state (`same_state`
//!   oracle, asserted inline).
//! * **crash safety** — compaction cut short at every [`CrashPoint`]
//!   leaves a directory that reopens to exactly the no-crash state
//!   (asserted inline; the full matrix also runs as a test suite,
//!   `crates/store/tests/crash_matrix.rs`).

use crate::experiments::time;
use classic_core::desc::Concept;
use classic_kb::Kb;
use classic_store::{same_state, snapshot_to_string, CrashPoint, DurableKb};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Individuals per segment for the experiment stores (small enough that
/// even the smoke sizes span many segments).
const BUDGET: usize = 32;

/// Length of the log suffix left unfolded after the last compaction.
const SUFFIX: usize = 8;

fn smoke() -> bool {
    std::env::var_os("CLASSIC_BENCH_SMOKE").is_some()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("classic-e12-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build the university workload into any sink that accepts the five
/// mutating operations. `n` is the individual count.
fn build_schema(store: &mut DurableKb) {
    store.define_role("advisor").unwrap();
    store.define_role("enrolled-at").unwrap();
    store
        .define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    let person = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_concept("PERSON")
        .unwrap();
    let enrolled = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("enrolled-at")
        .unwrap();
    store
        .define_concept(
            "STUDENT",
            Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]),
        )
        .unwrap();
    let advisor = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("advisor")
        .unwrap();
    store
        .assert_rule("STUDENT", Concept::AtLeast(1, advisor))
        .unwrap();
}

fn populate(store: &mut DurableKb, n: usize) {
    let person = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_concept("PERSON")
        .unwrap();
    let enrolled = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("enrolled-at")
        .unwrap();
    for i in 0..n {
        let name = format!("S{i:05}");
        store.create_ind(&name).unwrap();
        store.assert_ind(&name, &Concept::Name(person)).unwrap();
        if i % 3 == 0 {
            store
                .assert_ind(&name, &Concept::AtLeast(1, enrolled))
                .unwrap();
        }
    }
}

/// The short post-compaction log suffix: a handful of updates touching a
/// handful of *adjacent* individuals — the common shape of "reopen after
/// a quiet shutdown plus a few fresh edits". Locality matters: these all
/// land in one ind segment, so a paged reopen hydrates one segment no
/// matter how large the ABox is.
fn apply_suffix(store: &mut DurableKb, n: usize) {
    let enrolled = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("enrolled-at")
        .unwrap();
    for k in 0..SUFFIX.min(n) {
        let name = format!("S{k:05}");
        store
            .assert_ind(&name, &Concept::AtLeast(1, enrolled))
            .unwrap();
    }
}

/// Build a store of `n` individuals, compact, apply the suffix, close.
/// Returns the compaction report captured right after the fold.
fn build_store(path: &Path, n: usize) -> classic_store::CompactionReport {
    let mut store = DurableKb::open(path, |_| {}).unwrap();
    store.set_segment_budget(BUDGET);
    build_schema(&mut store);
    populate(&mut store, n);
    store.compact().unwrap();
    let report = store.last_compaction().expect("compact() just ran");
    apply_suffix(&mut store, n);
    report
}

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== E12: segmented snapshot store ===");
    let _ = writeln!(
        out,
        "claim: with a short log suffix, paged open cost is sublinear in ABox"
    );
    let _ = writeln!(
        out,
        "size (constant segments hydrated — asserted); the monolithic ablation"
    );
    let _ = writeln!(
        out,
        "replays everything. Crash matrix convergence is asserted inline."
    );
    let sizes: &[usize] = if smoke() {
        &[128, 256]
    } else {
        &[256, 512, 1024, 2048]
    };

    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>9} {:>9} {:>11} {:>10} {:>10} {:>10}",
        "inds",
        "segments",
        "hydrated",
        "foldedOps",
        "µs/monolith",
        "µs/eager",
        "µs/paged",
        "segBytes"
    );

    let mut hydrated_counts = Vec::new();
    for &n in sizes {
        let dir = tmpdir(&format!("open-{n}"));
        let path = dir.join("kb.log");
        let report = build_store(&path, n);

        // Monolithic ablation: what every open cost before segmentation —
        // replay the full snapshot script into a fresh KB. (Render is
        // untimed; only the replay is charged.)
        let eager = DurableKb::open(&path, |_| {}).unwrap();
        let text = snapshot_to_string(eager.kb().unwrap());
        drop(eager);
        let (mono_kb, t_mono) = time(|| {
            let mut kb = Kb::new();
            classic_store::replay(&mut kb, &text).unwrap();
            kb
        });

        // Eager segmented open: replays every segment plus the suffix.
        let (eager, t_eager) = time(|| DurableKb::open(&path, |_| {}).unwrap());

        // Paged open: manifest + schema segment + log suffix only. The
        // suffix hydrates just the segments it touches.
        let (paged, t_paged) = time(|| DurableKb::open_paged(&path, |_| {}).unwrap());
        let total = paged.segment_count();
        let hydrated = total - paged.pending_segments();
        assert!(
            !paged.is_fully_hydrated(),
            "N={n}: a short suffix must not force full hydration"
        );

        // All three roads reach the same state.
        let mut paged = paged;
        assert!(
            same_state(paged.kb_hydrated().unwrap(), eager.kb().unwrap()),
            "N={n}: paged open diverged from eager open"
        );
        assert!(
            same_state(&mono_kb, eager.kb().unwrap()),
            "N={n}: monolithic replay diverged from segmented open"
        );

        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>9} {:>9} {:>11.1} {:>10.1} {:>10.1} {:>10}",
            n,
            total,
            hydrated,
            report.folded_ops,
            t_mono.as_nanos() as f64 / 1e3,
            t_eager.as_nanos() as f64 / 1e3,
            t_paged.as_nanos() as f64 / 1e3,
            report.bytes_written,
        );
        hydrated_counts.push((n, total, hydrated));
        drop(eager);
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The sublinearity claim, made structural: total segments grow with N
    // but the paged open hydrates a bounded set (the suffix touches at
    // most SUFFIX distinct individuals ⇒ at most SUFFIX ind segments).
    for &(n, total, hydrated) in &hydrated_counts {
        assert!(
            hydrated <= SUFFIX + 1,
            "N={n}: paged open hydrated {hydrated} of {total} segments — \
             more than the log suffix can touch"
        );
    }
    let (n0, t0, _) = hydrated_counts[0];
    let (n1, t1, _) = hydrated_counts[hydrated_counts.len() - 1];
    assert!(
        t1 > t0,
        "segment totals must grow with ABox size ({n0}→{t0}, {n1}→{t1})"
    );
    let _ = writeln!(
        out,
        "hydrated segments stay ≤ {} across all sizes while totals grow {}→{}",
        SUFFIX + 1,
        t0,
        t1
    );

    // Second compaction of an unchanged prefix: content-addressed reuse.
    {
        let n = sizes[sizes.len() - 1];
        let dir = tmpdir("reuse");
        let path = dir.join("kb.log");
        build_store(&path, n);
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(BUDGET);
        store.compact().unwrap();
        let r = store.last_compaction().unwrap();
        assert!(
            r.segments_reused > 0,
            "a compaction folding a {SUFFIX}-op suffix must reuse untouched segments"
        );
        let _ = writeln!(
            out,
            "refold of a {}-op suffix at N={}: {} segments reused, {} rewritten ({} bytes)",
            SUFFIX, n, r.segments_reused, r.segments_written, r.bytes_written
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Crash matrix: compaction cut short at every crash point converges
    // to the no-crash oracle on reopen.
    let n_crash = if smoke() { 64 } else { 256 };
    let oracle_dir = tmpdir("crash-oracle");
    let oracle_path = oracle_dir.join("kb.log");
    build_store(&oracle_path, n_crash);
    let oracle = DurableKb::open(&oracle_path, |_| {}).unwrap();
    let oracle_text = snapshot_to_string(oracle.kb().unwrap());
    drop(oracle);
    let _ = std::fs::remove_dir_all(&oracle_dir);
    let mut oracle_kb = Kb::new();
    classic_store::replay(&mut oracle_kb, &oracle_text).unwrap();

    for point in CrashPoint::ALL {
        let dir = tmpdir(&format!("crash-{point:?}"));
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(BUDGET);
        build_schema(&mut store);
        populate(&mut store, n_crash);
        store.compact().unwrap();
        apply_suffix(&mut store, n_crash);
        store.compact_crashing_at(point).unwrap();
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert!(
            same_state(reopened.kb().unwrap(), &oracle_kb),
            "crash at {point:?}: reopen diverged from the no-crash oracle"
        );
        let _ = writeln!(out, "crash at {point:?}: reopen converged to oracle ✓");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = writeln!(
        out,
        "PASS: equivalence, bounded hydration, segment reuse and all {} crash",
        CrashPoint::ALL.len()
    );
    let _ = writeln!(out, "points are asserted, not just reported.");
    out
}
