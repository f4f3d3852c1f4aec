//! Session-level tests: the macro facility (§2.1.4's anticipated
//! extension) working end to end with the rest of the language.

use classic_lang::{AspectValue, Outcome, Session};

#[test]
fn exactly_one_macro_defines_usable_concepts() {
    let mut s = Session::new();
    let out = s
        .run(
            r#"
            (define-macro EXACTLY-ONE (r)
                (AND (AT-LEAST 1 r) (AT-MOST 1 r)))
            (define-role wheel)
            (define-concept UNICYCLE (EXACTLY-ONE wheel))
            (subsumes? (AT-LEAST 1 wheel) UNICYCLE)
            (equivalent? UNICYCLE (AND (AT-LEAST 1 wheel) (AT-MOST 1 wheel)))
            "#,
        )
        .expect("script");
    assert_eq!(out[3], Outcome::Bool(true));
    assert_eq!(out[4], Outcome::Bool(true));
    assert_eq!(s.macro_names(), vec!["EXACTLY-ONE"]);
}

#[test]
fn macros_expand_inside_assertions_and_queries() {
    let mut s = Session::new();
    let out = s
        .run(
            r#"
            (define-macro DRIVES-ONLY (c) (ALL thing-driven c))
            (define-role thing-driven)
            (define-concept CAR (PRIMITIVE THING car))
            (create-ind Rocky)
            (assert-ind Rocky (DRIVES-ONLY CAR))
            (assert-ind Rocky (FILLS thing-driven Volvo-17))
            (retrieve CAR)
            "#,
        )
        .expect("script");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["Volvo-17".into()])
    );
}

#[test]
fn macros_compose() {
    let mut s = Session::new();
    let out = s
        .run(
            r#"
            (define-macro SOME (r) (AT-LEAST 1 r))
            (define-macro BUSY (r) (AND (SOME r) (AT-LEAST 3 r)))
            (define-role calls)
            (define-concept HUB (BUSY calls))
            (subsumes? (AT-LEAST 3 calls) HUB)
            "#,
        )
        .expect("script");
    assert_eq!(out.last().expect("one"), &Outcome::Bool(true));
}

#[test]
fn macro_errors_are_reported() {
    let mut s = Session::new();
    // Recursive macro.
    s.run("(define-macro LOOP (x) (AND (LOOP x)))")
        .expect("definition ok");
    let err = s.run("(define-role r) (classify (LOOP r))").unwrap_err();
    assert!(err.to_string().contains("depth"));
    // Shadowing a builtin.
    let err = s.run("(define-macro AND (x) x)").unwrap_err();
    assert!(err.to_string().contains("shadows"));
}

#[test]
fn session_without_macros_behaves_like_run_script() {
    let mut s = Session::new();
    let out = s
        .run(
            r#"
            (define-role r)
            (define-concept PERSON (PRIMITIVE THING person))
            (create-ind X)
            (assert-ind X PERSON)
            (retrieve PERSON)
            "#,
        )
        .expect("script");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["X".into()])
    );
}

#[test]
fn macros_work_with_query_markers() {
    let mut s = Session::new();
    let out = s
        .run(
            r#"
            (define-macro EATEN-BY (c) (AND c (ALL eat ?:THING)))
            (define-role eat)
            (define-concept PERSON (PRIMITIVE THING person))
            (create-ind Rocky)
            (assert-ind Rocky PERSON)
            (assert-ind Rocky (FILLS eat Pizza-1))
            (retrieve (EATEN-BY PERSON))
            "#,
        )
        .expect("script");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Individuals(vec!["Pizza-1".into()])
    );
}

#[test]
fn what_if_reports_hypothetically() {
    let mut s = Session::new();
    s.run(
        r#"
        (define-role r)
        (create-ind X)
        (assert-ind X (FILLS r V))
        "#,
    )
    .expect("setup");
    // A contradictory hypothetical reports rejection without mutating.
    let out = s.run("(what-if? X (AT-MOST 0 r))").expect("hypothetical");
    match out.last().expect("one") {
        Outcome::Description(d) => assert!(d.contains("REJECTED"), "got {d}"),
        other => panic!("unexpected {other:?}"),
    }
    // A consistent one reports acceptance — and still nothing changed.
    let out = s.run("(what-if? X (AT-MOST 3 r))").expect("hypothetical");
    match out.last().expect("one") {
        Outcome::Description(d) => assert!(d.contains("ACCEPTED"), "got {d}"),
        other => panic!("unexpected {other:?}"),
    }
    let out = s.run("(ind-aspect X AT-MOST r)").expect("aspect");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Aspect(AspectValue::None)
    );
}

#[test]
fn rules_are_listed_and_retractable_by_id() {
    let mut s = Session::new();
    let out = s
        .run(
            r#"
            (define-role eat)
            (define-concept PERSON (PRIMITIVE THING person))
            (define-concept GLUTTON (AND PERSON (AT-LEAST 2 eat)))
            (assert-rule PERSON (AT-LEAST 1 eat))
            "#,
        )
        .expect("setup");
    // The rule definition echoes the id retract-rule takes back.
    assert_eq!(out.last().expect("one"), &Outcome::RuleAsserted(0));
    let out = s.run("(list-rules)").expect("list");
    match out.last().expect("one") {
        Outcome::Description(d) => {
            assert!(d.contains("#0: PERSON"), "got {d}")
        }
        other => panic!("unexpected {other:?}"),
    }
    match s.run("(retract-rule 0)").expect("retract").pop() {
        Some(Outcome::Retracted(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
    let out = s.run("(list-rules)").expect("list");
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Description("no live rules".into())
    );
    // A dead id is a structured error, not a panic.
    assert!(s.run("(retract-rule 0)").is_err());
    assert!(s.run("(retract-rule 99)").is_err());
}

#[test]
fn obs_commands_expose_and_reset_metrics() {
    let mut s = Session::new();
    s.run(
        r#"
        (define-concept PERSON (PRIMITIVE THING person))
        (create-ind X)
        (assert-ind X PERSON)
        "#,
    )
    .expect("setup");
    let out = s.run("(obs-stats)").expect("stats");
    match out.last().expect("one") {
        Outcome::Description(d) => {
            assert!(
                d.contains("# TYPE classic_assertions_total counter"),
                "got {d}"
            );
            assert!(d.contains("classic_assertions_total 1"), "got {d}");
        }
        other => panic!("unexpected {other:?}"),
    }
    let out = s.run("(obs-stats json)").expect("stats json");
    match out.last().expect("one") {
        Outcome::Description(d) => {
            assert!(d.contains("\"classic_assertions_total\""), "got {d}")
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        s.run("(obs-reset)").expect("reset").pop(),
        Some(Outcome::Ok)
    );
    let out = s.run("(obs-stats)").expect("stats");
    match out.last().expect("one") {
        Outcome::Description(d) => {
            assert!(d.contains("classic_assertions_total 0"), "got {d}")
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_refused_write_leaves_no_interned_name() {
    use classic_kb::Kb;
    use classic_lang::{eval, parse_one};
    let mut kb = Kb::new();
    let run = |kb: &mut Kb, form: &str| {
        let cmd = parse_one(form).expect("form parses");
        eval(kb, &cmd).map_err(|e| e.display(&kb.schema().symbols).to_string())
    };
    for form in [
        "(define-role eat)",
        "(create-ind Rocky)",
        "(create-ind Pizza-1)",
    ] {
        run(&mut kb, form).expect("setup");
    }
    let names = kb.schema().symbols.individual_count();
    let before = run(&mut kb, "(describe Pizza-9)");
    assert!(before.is_err(), "Pizza-9 is no individual: {before:?}");

    // Refused: the told filler contradicts the told bound.
    let refused = run(
        &mut kb,
        "(assert-ind Rocky (AND (FILLS eat Pizza-9) (AT-MOST 0 eat)))",
    );
    assert!(refused.is_err(), "{refused:?}");
    assert_eq!(run(&mut kb, "(describe Pizza-9)"), before);
    assert_eq!(kb.schema().symbols.individual_count(), names);

    // A trial interns nothing either, accepted or refused.
    run(&mut kb, "(what-if? Rocky (FILLS eat Pizza-8))").expect("trial");
    run(
        &mut kb,
        "(what-if? Rocky (AND (FILLS eat Pizza-7) (AT-MOST 0 eat)))",
    )
    .expect("trial");
    assert_eq!(kb.schema().symbols.individual_count(), names);

    // An accepted write keeps the names it brought.
    run(&mut kb, "(assert-ind Rocky (FILLS eat Pizza-9))").expect("accepted");
    assert!(run(&mut kb, "(describe Pizza-9)").is_ok());
    assert_eq!(kb.schema().symbols.individual_count(), names + 1);
}
