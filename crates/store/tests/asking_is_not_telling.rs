//! Asking is not telling, and a refused telling is not one either: a read
//! or a refused write through a live `DurableKb` leaves it exactly where
//! its log would reopen it — no primitive declared, no name introduced.

use classic_core::ClassicError;
use classic_lang::{parse_one, Outcome};
use classic_store::{same_state, DurableKb};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "classic-asking-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(store: &mut DurableKb, form: &str) -> Result<Outcome, String> {
    let cmd = parse_one(form).unwrap();
    let symbols = |store: &DurableKb| store.kb().unwrap().schema().symbols.clone();
    store
        .eval_durable(&cmd)
        .map_err(|e| e.display(&symbols(store)).to_string())
}

fn store_with_person(dir: &std::path::Path) -> DurableKb {
    let mut store = DurableKb::open(dir.join("kb.log"), |_| {}).unwrap();
    for form in [
        "(define-role eat)",
        "(define-concept PERSON (PRIMITIVE THING person))",
        "(create-ind Rocky)",
        "(assert-ind Rocky PERSON)",
    ] {
        run(&mut store, form).unwrap();
    }
    store
}

/// After `noise` — commands that must change nothing — the live store
/// still takes the definition its reopened log takes, and the two agree.
fn live_equals_reopened_after(tag: &str, noise: &[&str]) {
    let dir = tmpdir(tag);
    let mut store = store_with_person(&dir);
    let logged = std::fs::read(dir.join("kb.log")).unwrap();
    for form in noise {
        let _ = run(&mut store, form);
    }
    assert_eq!(logged, std::fs::read(dir.join("kb.log")).unwrap());

    let define = "(define-concept X (PRIMITIVE PERSON x))";
    assert_eq!(run(&mut store, define), Ok(Outcome::Ok), "live store");
    let live = store.kb().unwrap().clone();
    drop(store);
    let reopened = DurableKb::open(dir.join("kb.log"), |_| {}).unwrap();
    assert!(same_state(&live, reopened.kb().unwrap()));
    assert!(same_state(reopened.kb().unwrap(), &live));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_read_declares_nothing() {
    live_equals_reopened_after(
        "read",
        &[
            "(retrieve (PRIMITIVE THING x))",
            "(possible (AND PERSON (DISJOINT-PRIMITIVE THING g x)))",
            "(subsumes? PERSON (PRIMITIVE THING x))",
            "(what-if? Rocky (PRIMITIVE THING x))",
        ],
    );
}

#[test]
fn a_refused_write_declares_nothing() {
    live_equals_reopened_after(
        "refused",
        &[
            "(define-concept Y (AND (PRIMITIVE THING x) NOSUCH))",
            "(assert-ind Rocky (AND (PRIMITIVE THING x) (AT-LEAST 1 nosuch)))",
            "(assert-ind Rocky (AND (PRIMITIVE THING x) (AT-LEAST 2 eat) (AT-MOST 1 eat)))",
            "(assert-rule PERSON (AND (PRIMITIVE THING x) NOSUCH))",
            "(assert-rule PERSON (AND (PRIMITIVE THING x) (AT-MOST 0 eat) (AT-LEAST 1 eat)))",
            "(bulk-load (into (AND (PRIMITIVE THING x) (AT-MOST 0 eat))) (roles eat) (row Rocky 7))",
        ],
    );
}

#[test]
fn an_undeclared_primitive_is_named_and_a_declared_one_answers() {
    let dir = tmpdir("named");
    let mut store = store_with_person(&dir);
    for form in [
        "(retrieve (PRIMITIVE THING nosuch))",
        "(what-if? Rocky (PRIMITIVE THING nosuch))",
    ] {
        assert_eq!(
            run(&mut store, form),
            Err("undefined primitive nosuch".into())
        );
    }
    assert!(matches!(
        store.eval_durable(&parse_one("(classify (DISJOINT-PRIMITIVE THING g nosuch))").unwrap()),
        Err(ClassicError::UndefinedName { kind: "primitive", name }) if name == "g/nosuch"
    ));
    // Declared, mentioned under its own parent: the atom PERSON is.
    assert_eq!(
        run(&mut store, "(retrieve (PRIMITIVE THING person))"),
        Ok(Outcome::Individuals(vec!["Rocky".into()]))
    );
    assert_eq!(
        run(&mut store, "(what-if? Rocky (PRIMITIVE THING person))").map(|o| o.render_json()),
        Ok("{\"type\":\"description\",\"text\":\"would be ACCEPTED (steps=1 fills=0 corefs=0 rules=0 reclassified=0); nothing was changed\"}".into())
    );
    // Declared, mentioned under another: as ever.
    assert_eq!(
        run(&mut store, "(retrieve (PRIMITIVE PERSON person))"),
        Err("primitive person re-registered with a different parent".into())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_read_introduces_no_names() {
    let dir = tmpdir("names");
    let mut store = store_with_person(&dir);
    run(&mut store, "(assert-ind Rocky (FILLS eat Pizza-1))").unwrap();
    let counts = |store: &DurableKb| {
        let symbols = &store.kb().unwrap().schema().symbols;
        (
            symbols.individuals().count(),
            symbols.role_count(),
            symbols.concept_count(),
        )
    };
    let before = counts(&store);
    // Answers are what interning the names gave at 708f782 …
    assert_eq!(
        run(&mut store, "(possible (FILLS eat Pizza-9))"),
        Ok(Outcome::Individuals(vec!["Rocky".into(), "Pizza-1".into()]))
    );
    assert_eq!(
        run(&mut store, "(retrieve (FILLS eat Pizza-9))"),
        Ok(Outcome::Individuals(vec![]))
    );
    assert_eq!(
        run(
            &mut store,
            "(ask-description (AND PERSON (ALL eat ?:(ONE-OF Pizza-9 Pizza-1))))"
        ),
        Ok(Outcome::Description(
            "(AND CLASSIC-THING (ONE-OF Pizza-1 Pizza-9))".into()
        ))
    );
    // … and so are the errors, spelled from the read's own copy.
    assert_eq!(
        run(&mut store, "(retrieve (AT-LEAST 1 munch))"),
        Err("undefined role munch".into())
    );
    assert_eq!(
        run(
            &mut store,
            "(subsumes? PERSON (AND Pizza-9 NO-SUCH-CONCEPT))"
        ),
        Err("undefined concept Pizza-9".into())
    );
    assert_eq!(counts(&store), before);
    let _ = std::fs::remove_dir_all(&dir);
}
