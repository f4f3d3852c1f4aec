//! Crash-ordering matrix for the segmented snapshot store.
//!
//! `docs/FORMAT.md` §8 specifies the publish pipeline's ordering
//! invariants: whichever rename the process dies around, reopening the
//! directory must converge to exactly the state of a store that never
//! crashed. This suite cuts compaction short at every [`CrashPoint`],
//! reopens (eagerly and paged), and compares against a no-crash oracle —
//! then compacts again and re-checks, proving the wreckage is also fully
//! recoverable, not merely readable.

use classic_core::desc::Concept;
use classic_store::{same_state, snapshot_to_string, CrashPoint, DurableKb, Manifest};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("classic-crash-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The base history: schema, a rule, and enough individuals to span
/// several segments at a small budget. Ends with a compaction so the
/// crashing compaction later has a previous generation to reuse from.
fn build_base(store: &mut DurableKb) {
    store.set_segment_budget(3);
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
    for i in 0..8 {
        let name = format!("S{i}");
        store.create_ind(&name).unwrap();
        store.assert_ind(&name, &Concept::Name(person)).unwrap();
    }
    store.compact().unwrap();
}

/// The log suffix folded by the compaction under test.
fn apply_suffix(store: &mut DurableKb) {
    let enrolled = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("enrolled-at")
        .unwrap();
    store
        .assert_ind("S3", &Concept::AtLeast(1, enrolled))
        .unwrap();
    store.create_ind("S8").unwrap();
    let person = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_concept("PERSON")
        .unwrap();
    store.assert_ind("S8", &Concept::Name(person)).unwrap();
    store
        .retract_ind("S3", &Concept::AtLeast(1, enrolled))
        .unwrap();
}

/// Snapshot text of the no-crash final state (the oracle).
fn oracle(tag: &str) -> String {
    let dir = tmpdir(&format!("oracle-{tag}"));
    let mut store = DurableKb::open(dir.join("kb.log"), |_| {}).unwrap();
    build_base(&mut store);
    apply_suffix(&mut store);
    let text = snapshot_to_string(store.kb().unwrap());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// The directory must contain only live state: the active log, the
/// manifest, and exactly the segments the manifest references.
fn assert_directory_is_clean(dir: &Path, log: &Path) {
    let manifest = Manifest::load(&log.with_extension("manifest"))
        .unwrap()
        .expect("a manifest exists after a successful compaction");
    let referenced: Vec<&str> = manifest.entries.iter().map(|e| e.file.as_str()).collect();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let live = name == "kb.log" || name == "kb.manifest" || referenced.contains(&name.as_str());
        assert!(live, "unexpected leftover file after recovery: {name}");
    }
}

fn run_crash_at(point: CrashPoint) {
    let tag = format!("{point:?}").to_lowercase();
    let expected = oracle(&tag);
    let dir = tmpdir(&tag);
    let path = dir.join("kb.log");

    let mut store = DurableKb::open(&path, |_| {}).unwrap();
    build_base(&mut store);
    apply_suffix(&mut store);
    store.compact_crashing_at(point).unwrap();
    drop(store);

    // First reopen after the crash: state converges to the oracle.
    let reopened = DurableKb::open(&path, |_| {}).unwrap();
    assert_eq!(
        expected,
        snapshot_to_string(reopened.kb().unwrap()),
        "crash at {point:?}: eager reopen diverged from the no-crash oracle"
    );
    drop(reopened);

    // Paged reopen converges too.
    let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
    let full = paged.kb_hydrated().unwrap();
    let mut oracle_kb = classic_kb::Kb::new();
    classic_store::replay(&mut oracle_kb, &expected).unwrap();
    assert!(
        same_state(full, &oracle_kb),
        "crash at {point:?}: paged reopen diverged from the no-crash oracle"
    );
    drop(paged);

    // Recovery is idempotent: a second reopen sees the same state.
    let again = DurableKb::open(&path, |_| {}).unwrap();
    assert_eq!(expected, snapshot_to_string(again.kb().unwrap()));
    drop(again);

    // And the wreckage is fully compactable: after one clean compaction
    // the directory holds only live state and still replays the oracle.
    let mut fresh = DurableKb::open(&path, |_| {}).unwrap();
    fresh.set_segment_budget(3);
    fresh.compact().unwrap();
    drop(fresh);
    assert_directory_is_clean(&dir, &path);
    let final_open = DurableKb::open(&path, |_| {}).unwrap();
    assert_eq!(expected, snapshot_to_string(final_open.kb().unwrap()));
}

#[test]
fn crash_after_log_rotation_converges() {
    run_crash_at(CrashPoint::AfterLogRotation);
}

#[test]
fn crash_after_first_segment_publish_converges() {
    run_crash_at(CrashPoint::AfterFirstSegmentPublish);
}

#[test]
fn crash_before_manifest_rename_converges() {
    run_crash_at(CrashPoint::BeforeManifestRename);
}

#[test]
fn crash_after_manifest_rename_converges() {
    run_crash_at(CrashPoint::AfterManifestRename);
}

#[test]
fn crash_before_cleanup_converges() {
    run_crash_at(CrashPoint::BeforeCleanup);
}

#[test]
fn leftover_compaction_temp_files_are_swept_on_open() {
    let dir = tmpdir("tmp-sweep");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, |_| {}).unwrap();
    build_base(&mut store);
    let expected = snapshot_to_string(store.kb().unwrap());
    drop(store);
    // Fabricate the debris an interrupted atomic write leaves behind.
    let debris = [
        dir.join("kb.manifest.tmp"),
        dir.join("kb.seg-00000000deadbeef.classic.tmp"),
        dir.join("kb.snapshot.tmp"),
    ];
    for p in &debris {
        std::fs::write(p, "; crashed mid-write").unwrap();
    }
    let reopened = DurableKb::open(&path, |_| {}).unwrap();
    assert_eq!(expected, snapshot_to_string(reopened.kb().unwrap()));
    for p in &debris {
        assert!(!p.exists(), "temp file must be swept: {}", p.display());
    }
}

#[test]
fn truncated_manifest_open_error_names_path_and_generation() {
    let dir = tmpdir("manifest-truncated");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, |_| {}).unwrap();
    build_base(&mut store);
    drop(store);
    let manifest_path = path.with_extension("manifest");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    // Cut off the `;!end` terminator: a torn manifest write that somehow
    // reached the final name (e.g. non-atomic copy by an operator).
    let cut = text.rfind(";!end").unwrap();
    std::fs::write(&manifest_path, &text[..cut]).unwrap();
    let err = match DurableKb::open(&path, |_| {}) {
        Err(e) => e,
        Ok(_) => panic!("a truncated manifest must not open cleanly"),
    };
    let msg = err.to_string();
    assert!(msg.contains("kb.manifest"), "must name the file: {msg}");
    assert!(
        msg.contains("generation"),
        "must name the generation: {msg}"
    );
}

#[test]
fn missing_segment_open_error_names_path() {
    let dir = tmpdir("segment-missing");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, |_| {}).unwrap();
    build_base(&mut store);
    drop(store);
    let manifest = Manifest::load(&path.with_extension("manifest"))
        .unwrap()
        .unwrap();
    let victim = manifest.ind_entries().next().unwrap().file.clone();
    std::fs::remove_file(dir.join(&victim)).unwrap();
    let err = match DurableKb::open(&path, |_| {}) {
        Err(e) => e,
        Ok(_) => panic!("a missing segment must not open cleanly"),
    };
    assert!(
        err.to_string().contains(&victim),
        "must name the missing segment: {err}"
    );
}
