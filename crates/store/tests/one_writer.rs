//! What the store writes, it reads back — to the same values.
//!
//! Every log and segment record is written by the language's one writer
//! (`classic_lang::Write::record`). These tests hold it to its contract
//! from the store's side: any host value an accepted update carried
//! survives a restart exactly (log tier, segment tier, eager and paged); a
//! write the reader could not read back is refused before it is applied,
//! with nothing logged; stores written by earlier builds still open to the
//! values that were acknowledged; and for printable-ASCII input the bytes
//! are the bytes the parent commit wrote.

use classic_core::desc::{Concept, IndRef};
use classic_core::{HostValue, RoleId};
use classic_kb::Kb;
use classic_lang::{BulkRowSpec, BulkSpec, Command, Expr};
use classic_store::{same_state, DurableKb};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "classic-one-writer-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The host fillers of `role` on `name`, as strings.
fn string_fillers(kb: &Kb, name: &str, role: &str) -> Vec<String> {
    let symbols = &kb.schema().symbols;
    let id = kb.ind_id(symbols.find_individual(name).unwrap()).unwrap();
    let role = symbols.find_role(role).unwrap();
    let fillers = kb.ind(id).derived().roles[&role].fillers.iter();
    fillers
        .map(|f| match f {
            IndRef::Host(HostValue::Str(s)) => s.clone(),
            other => panic!("expected a string filler, got {other:?}"),
        })
        .collect()
}

// ---- (c) histories holding arbitrary values reopen to the same state -----

const N_INDS: usize = 5;

fn finite_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(1e21),
        Just(5e-324),
        (0u64..=u64::MAX).prop_map(|bits| Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5)),
    ]
}

/// Strings of arbitrary Unicode — the stand-in's `.` draws C0 controls
/// (CR, NUL), U+2000–U+20FF (U+200B, U+2028), quotes and backslashes —
/// finite floats, and the four strings ISSUE 14 lost.
fn value() -> impl Strategy<Value = HostValue> {
    prop_oneof![
        ".{0,16}".prop_map(HostValue::Str),
        finite_float().prop_map(HostValue::float),
        Just(HostValue::Str("x\ry".into())),
        Just(HostValue::Str("x\u{1}y".into())),
        Just(HostValue::Str("12 Main St\r\nSpringfield".into())),
        Just(HostValue::Str("wid\u{200b}get".into())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_accepted_value_survives_restart_in_both_tiers(
        history in proptest::collection::vec((0..N_INDS, 0usize..2, value()), 1..24),
        compact_at in 0usize..24,
        budget in 1usize..4,
    ) {
        let dir = tmpdir("values");
        let path = dir.join("kb.log");
        let mut oracle = Kb::new();
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(budget);
        for role in ["r0", "r1"] {
            oracle.define_role(role).unwrap();
            store.define_role(role).unwrap();
        }
        for i in 0..N_INDS {
            oracle.create_ind(&format!("x{i}")).unwrap();
            store.create_ind(&format!("x{i}")).unwrap();
        }
        for (step, (ind, role, v)) in history.into_iter().enumerate() {
            if step == compact_at {
                // Everything before this point reopens from segments,
                // everything after from the log.
                store.compact().unwrap();
            }
            let desc = Concept::Fills(RoleId::from_index(role), vec![IndRef::Host(v)]);
            let name = format!("x{ind}");
            oracle.assert_ind(&name, &desc).unwrap();
            store.assert_ind(&name, &desc).unwrap();
        }
        drop(store);
        let eager = DurableKb::open(&path, |_| {}).unwrap();
        prop_assert!(same_state(&oracle, eager.kb().unwrap()));
        drop(eager);
        let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
        prop_assert!(same_state(&oracle, paged.kb_hydrated().unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- (d) what would not read back is refused, and leaves no trace --------

/// Names no reader would take for one symbol (ISSUE 14's five), and the
/// same texts as a primitive index, through every typed operator and both
/// bulk tiers: each is refused, not a byte is logged, the KB is as it was,
/// the store reopens, and the next write lands.
#[test]
fn unwritable_names_are_refused_with_nothing_logged() {
    let dir = tmpdir("unwritable");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, |_| {}).unwrap();
    let r = store.define_role("r").unwrap();
    store
        .define_concept("C", Concept::primitive(Concept::thing(), "c"))
        .unwrap();
    store.create_ind("ok").unwrap();
    let rule = store.assert_rule("C", Concept::AtMost(9, r)).unwrap();
    let logged = std::fs::read(&path).unwrap();
    let state = classic_store::snapshot_to_string(store.kb().unwrap());

    let thing = Concept::thing;
    for bad in ["a b", "17", "", "x)", "a;b", "two words"] {
        // The surface form of a filler resolves the name (a refused write
        // keeps the names it interned; it is what it declared that goes),
        // so the typed operators below can be handed its id.
        let told = Expr::Fills("r".into(), vec![classic_lang::IndLit::Name(bad.into())]);
        let by_name = store.eval_durable(&Command::AssertInd("ok".into(), told));
        assert!(by_name.is_err(), "a filler named {bad:?} was accepted");
        let symbols = &store.kb().unwrap().schema().symbols;
        let filler = IndRef::Classic(symbols.find_individual(bad).unwrap());
        let bulk = |name: &str, value: Option<&str>| BulkSpec {
            into: None,
            roles: vec!["r".into()],
            rows: vec![BulkRowSpec {
                name: name.into(),
                values: vec![value.map(|v| classic_lang::IndLit::Name(v.into()))],
            }],
        };
        let refused = [
            store.define_role(bad).map(drop),
            store.define_attribute(bad).map(drop),
            store.define_concept(bad, thing()).map(drop),
            (store.define_concept("D", Concept::primitive(thing(), bad))).map(drop),
            (store.define_concept("D", Concept::disjoint_primitive(thing(), bad, "d"))).map(drop),
            store.create_ind(bad).map(drop),
            store.assert_ind(bad, &thing()).map(drop),
            (store.assert_ind("ok", &Concept::Fills(r, vec![filler.clone()]))).map(drop),
            store.assert_rule(bad, thing()).map(drop),
            store
                .assert_rule("C", Concept::OneOf(vec![filler]))
                .map(drop),
            store.retract_ind(bad, &thing()).map(drop),
            store.retract_rule(bad, &thing()).map(drop),
            (store.eval_durable(&Command::BulkLoad(bulk(bad, None)))).map(drop),
            (store.eval_durable(&Command::BulkLoad(bulk("ok", Some(bad))))).map(drop),
            store.bulk_load(&[], &bulk(bad, None)).map(drop),
            (store.bulk_load(&[Command::DefineRole(bad.into())], &bulk("ok", None))).map(drop),
        ];
        for (op, r) in refused.into_iter().enumerate() {
            assert!(r.is_err(), "operator #{op} accepted the name {bad:?}");
        }
        assert_eq!(logged, std::fs::read(&path).unwrap(), "{bad:?} was logged");
        let now = classic_store::snapshot_to_string(store.kb().unwrap());
        assert_eq!(state, now, "{bad:?} was applied");
    }
    // Values the language has no literal for are refused the same way.
    let nan = IndRef::Host(HostValue::float(f64::NAN));
    assert!(store
        .assert_ind("ok", &Concept::Fills(r, vec![nan]))
        .is_err());
    let empty_symbol = IndRef::Host(HostValue::Sym(String::new()));
    assert!(store
        .assert_ind("ok", &Concept::Fills(r, vec![empty_symbol]))
        .is_err());
    // A dead rule id is refused by name; a live one retracts.
    assert!(store.retract_rule_by_id(rule + 1).is_err());
    assert_eq!(logged, std::fs::read(&path).unwrap());

    drop(store);
    let mut reopened = DurableKb::open(&path, |_| {}).unwrap();
    assert_eq!(
        state,
        classic_store::snapshot_to_string(reopened.kb().unwrap())
    );
    reopened.retract_rule_by_id(rule).unwrap();
    reopened.create_ind("next").unwrap();
    drop(reopened);
    let again = DurableKb::open(&path, |_| {}).unwrap();
    let kb = again.kb().unwrap();
    assert!(kb.schema().symbols.find_individual("next").is_some());
    assert_eq!(kb.active_rules().count(), 0);
}

/// Writes the knowledge base refuses, every kind of them, each as the
/// recognizer rests and as it panics (`true`): a redefinition, a name
/// nothing defines, a clash, somebody who exists, a fact never told, a
/// rule never asserted. Each is refused inside its transaction, with the
/// `d` it carries declared by then.
const REFUSED_BY_THE_KB: [(bool, &str); 19] = [
    (false, "(define-concept C (PRIMITIVE THING d))"),
    (false, "(define-concept D (AND (PRIMITIVE THING d) NOSUCH))"),
    (
        true,
        "(define-concept CHECKED (AND (TEST brittle) (ALL r (PRIMITIVE THING d))))",
    ),
    // What the refused definition would have let in — once accepted,
    // acknowledged, and cut off the log at the next open.
    (false, "(assert-ind X CHECKED)"),
    (false, "(create-ind X)"),
    (true, "(create-ind Z)"),
    (
        false,
        "(assert-ind X (AND (PRIMITIVE THING d) (AT-MOST 0 r)))",
    ),
    (true, "(assert-ind Y (AND (PRIMITIVE THING d) C))"),
    (
        false,
        "(assert-rule C (AND (PRIMITIVE THING d) (AT-MOST 0 r)))",
    ),
    (
        false,
        "(assert-rule ANY (AND (PRIMITIVE THING d) (AT-MOST 0 r)))",
    ),
    (true, "(assert-rule C (PRIMITIVE THING d))"),
    (false, "(retract-ind Y C)"),
    (true, "(retract-ind X C)"),
    (false, "(retract-rule C THING)"),
    (true, "(retract-rule C (AT-MOST 9 r))"),
    (false, "(retract-rule 7)"),
    (true, "(retract-rule 0)"),
    (
        false,
        "(bulk-load (into (AND C (AT-MOST 0 r))) (roles r) (row X 1) (row Y 2))",
    ),
    (true, "(bulk-load (into C) (roles r) (row Y 2) (row Z 3))"),
];

/// Through the durable store, none of them logs a byte, and the store
/// reopens to the live one.
#[test]
fn writes_the_kb_refuses_are_not_logged_and_the_store_reopens_to_the_live_one() {
    let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let configure = |kb: &mut Kb| {
        for test in ["fragile", "brittle"] {
            let switch = std::sync::Arc::clone(&armed);
            kb.register_test(test, move |_| {
                assert!(!switch.load(Ordering::SeqCst), "recognizer blew up");
                false
            });
        }
    };
    // Whether the store accepted the form, or any row of it.
    let run = |store: &mut DurableKb, form: &str| {
        let cmd = classic_lang::parse(form).unwrap().pop().unwrap();
        match store.eval_durable(&cmd) {
            Ok(classic_lang::Outcome::BulkLoaded(report)) => report.accepted > 0,
            outcome => outcome.is_ok(),
        }
    };
    let dir = tmpdir("refused");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, configure).unwrap();
    // WATCHED runs the recognizer on everybody; everybody is an ANY.
    for form in [
        "(define-role r)",
        "(define-concept C (PRIMITIVE THING c))",
        "(define-concept WATCHED (TEST fragile))",
        "(define-concept ANY THING)",
        "(create-ind X)",
        "(create-ind Y)",
        "(assert-ind X C)",
        "(assert-ind X (AT-LEAST 1 r))",
        "(assert-rule C (AT-MOST 9 r))",
    ] {
        assert!(run(&mut store, form), "{form}");
    }
    let logged = std::fs::read(&path).unwrap();
    for (panicking, form) in REFUSED_BY_THE_KB {
        armed.store(panicking, Ordering::SeqCst);
        let accepted = run(&mut store, form);
        armed.store(false, Ordering::SeqCst);
        assert!(!accepted, "{form} was accepted");
        assert_eq!(logged, std::fs::read(&path).unwrap(), "{form} was logged");
    }
    let live = store.kb().unwrap().clone();
    live.check_invariants().unwrap();
    drop(store);

    let mut reopened = DurableKb::open(&path, configure).unwrap();
    let kb = reopened.kb().unwrap();
    assert!(same_state(&live, kb) && same_state(kb, &live));
    assert_eq!(logged, std::fs::read(&path).unwrap());
    // Every name and index a refusal mentioned is still free.
    for form in [
        "(define-concept CHECKED (PRIMITIVE C d))",
        "(create-ind Z)",
        "(assert-ind Z CHECKED)",
    ] {
        assert!(run(&mut reopened, form), "{form}");
    }
    let live = reopened.kb().unwrap().clone();
    drop(reopened);
    let again = DurableKb::open(&path, configure).unwrap();
    let kb = again.kb().unwrap();
    assert!(same_state(&live, kb) && same_state(kb, &live));
}

// ---- (e) stores written by earlier builds read back what was acknowledged -

/// A log and segments written by the parent build (451d5d1), whose string
/// format was Rust's `{:?}`: `\r`, `\0` and `\u{…}` open to CR, NUL and
/// the characters named — where the parent itself reopened them as `r`,
/// `0` and `u{…}`.
#[test]
fn a_store_written_by_the_parent_build_opens_to_the_acknowledged_values() {
    for paged in [false, true] {
        let dir = tmpdir("legacy");
        for entry in std::fs::read_dir(fixture("legacy-451d5d1")).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        let raw = std::fs::read_to_string(dir.join("kb.log")).unwrap();
        assert!(
            raw.contains(r#""n\0l" "wid\u{200b}get" "x\u{1}y""#),
            "{raw}"
        );
        let path = dir.join("kb.log");
        let mut store = if paged {
            DurableKb::open_paged(&path, |_| {}).unwrap()
        } else {
            DurableKb::open(&path, |_| {}).unwrap()
        };
        let kb = store.kb_hydrated().unwrap();
        // From the segment…
        assert_eq!(
            string_fillers(kb, "a", "r"),
            ["12 Main St\r\nSpringfield", "x\ry"]
        );
        // …and from the log suffix.
        assert_eq!(
            string_fillers(kb, "b", "r"),
            ["n\0l", "wid\u{200b}get", "x\u{1}y"]
        );
        // Compacting rewrites them in today's spelling; nothing changes.
        let before = classic_store::snapshot_to_string(kb);
        store.compact().unwrap();
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(
            before,
            classic_store::snapshot_to_string(reopened.kb().unwrap())
        );
    }
}

// ---- printable ASCII is written byte for byte as the parent wrote it ------

/// The ten record kinds (a by-id `retract-rule`, and a `bulk-load` with a
/// rejected row, among them), driven through `eval_durable`: the log is
/// byte-identical to the one the parent build (451d5d1) wrote for the
/// same script.
#[test]
fn records_of_printable_ascii_input_are_byte_identical_to_the_parent_builds() {
    let script = std::fs::read_to_string(fixture("records-451d5d1/records.classic")).unwrap();
    let expected = std::fs::read_to_string(fixture("records-451d5d1/kb.log")).unwrap();
    let dir = tmpdir("records");
    let path = dir.join("kb.log");
    let mut store = DurableKb::open(&path, |_| {}).unwrap();
    for cmd in classic_lang::parse(&script).unwrap() {
        store.eval_durable(&cmd).unwrap();
    }
    drop(store);
    assert_eq!(expected, std::fs::read_to_string(&path).unwrap());
    for head in [
        "(define-role ",
        "(define-attribute ",
        "(define-concept ",
        "(create-ind ",
        "(assert-ind ",
        "(assert-rule ",
        "(retract-ind ",
        "(retract-rule ",
        "(bulk-load ",
    ] {
        assert!(
            expected.contains(head),
            "the fixture lacks a {head}…) record"
        );
    }
}
