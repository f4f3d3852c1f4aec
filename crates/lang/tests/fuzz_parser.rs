//! Reader robustness: arbitrary input — expressions, queries, whole command
//! scripts, macro definitions and their expansions — must never panic and
//! never overflow the stack; every outcome is either a parse or a
//! `Malformed` error. (The paper's `define-role`-catches-typos promise,
//! §3.1 footnote 3, only works if the front end survives the typo.)

use classic_core::schema::Schema;
use classic_lang::{parse_concept, parse_query};
use proptest::prelude::*;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.define_role("r").unwrap();
    s.define_concept(
        "C",
        classic_core::Concept::primitive(classic_core::Concept::thing(), "c"),
    )
    .unwrap();
    s.register_test("t", |_| true);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Completely arbitrary strings (including non-ASCII and control
    /// characters) never panic the lexer/parser.
    #[test]
    fn arbitrary_strings_never_panic(input in ".{0,120}") {
        let mut s = schema();
        let _ = parse_concept(&input, &mut s);
        let _ = parse_query(&input, &mut s);
    }

    /// Syntax-shaped soup: random sequences of plausible tokens.
    #[test]
    fn token_soup_never_panics(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("AND".to_owned()),
                Just("ALL".to_owned()),
                Just("AT-LEAST".to_owned()),
                Just("AT-MOST".to_owned()),
                Just("ONE-OF".to_owned()),
                Just("FILLS".to_owned()),
                Just("CLOSE".to_owned()),
                Just("SAME-AS".to_owned()),
                Just("PRIMITIVE".to_owned()),
                Just("TEST".to_owned()),
                Just("THING".to_owned()),
                Just("C".to_owned()),
                Just("r".to_owned()),
                Just("?:".to_owned()),
                Just("3".to_owned()),
                Just("-7".to_owned()),
                Just("'sym".to_owned()),
                Just("\"str\"".to_owned()),
                Just("; comment".to_owned()),
            ],
            0..24,
        )
    ) {
        let input = parts.join(" ");
        let mut s = schema();
        let _ = parse_concept(&input, &mut s);
        let _ = parse_query(&input, &mut s);
    }

    /// Valid expressions with one random mutation (deletion, insertion,
    /// duplication) still never panic — the common typo case.
    #[test]
    fn mutated_valid_expressions_never_panic(
        pos in 0usize..60,
        mutation in 0u8..3,
    ) {
        let base = "(AND C (ALL r (ONE-OF A B)) (AT-LEAST 2 r) (TEST t))";
        let bytes: Vec<char> = base.chars().collect();
        let pos = pos % bytes.len();
        let mutated: String = match mutation {
            0 => bytes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, c)| *c)
                .collect(),
            1 => {
                let mut v = bytes.clone();
                v.insert(pos, '(');
                v.into_iter().collect()
            }
            _ => {
                let mut v = bytes.clone();
                let c = v[pos];
                v.insert(pos, c);
                v.into_iter().collect()
            }
        };
        let mut s = schema();
        let _ = parse_concept(&mutated, &mut s);
    }
}

/// Every operator, clause keyword and token shape the command reader
/// knows, plus a few it does not.
fn script_part() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("("),
        Just(")"),
        Just("("),
        Just(")"),
        Just("define-role"),
        Just("define-attribute"),
        Just("define-concept"),
        Just("define-macro"),
        Just("create-ind"),
        Just("assert-ind"),
        Just("assert-rule"),
        Just("retract-ind"),
        Just("retract-rule"),
        Just("list-rules"),
        Just("obs-stats"),
        Just("obs-level"),
        Just("obs-sample"),
        Just("obs-slowlog"),
        Just("retrieve"),
        Just("possible"),
        Just("ask-description"),
        Just("ask-necessary-set"),
        Just("subsumes?"),
        Just("concept-aspect"),
        Just("ind-aspect"),
        Just("why?"),
        Just("what-if?"),
        Just("classify"),
        Just("lint-kb"),
        Just("bulk-load"),
        Just("into"),
        Just("roles"),
        Just("row"),
        Just("_"),
        Just("cone"),
        Just("json"),
        Just("AND"),
        Just("ALL"),
        Just("AT-LEAST"),
        Just("EXACTLY"),
        Just("FILLS"),
        Just("ONE-OF"),
        Just("SAME-AS"),
        Just("PRIMITIVE"),
        Just("M"),
        Just("x"),
        Just("X"),
        Just("r"),
        Just("?:"),
        Just("2"),
        Just("-1"),
        Just("0.5"),
        Just("'sym"),
        Just("\"str ( \""),
        Just("; comment\n"),
        Just("frobnicate"),
    ]
    .prop_map(str::to_owned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Command-shaped soup through every way in: the pure reader, and a
    /// session (form splitting, `define-macro`, expansion, evaluation).
    #[test]
    fn script_soup_never_panics(
        parts in proptest::collection::vec(script_part(), 0..40)
    ) {
        let input = parts.join(" ");
        let _ = classic_lang::parse(&input);
        let _ = classic_lang::parse_one(&input);
        let _ = classic_lang::Session::new().run(&input);
    }

    /// A valid script — macro definitions included — with one random
    /// character deleted, doubled, or turned into a paren.
    #[test]
    fn mutated_scripts_never_panic(
        pos in 0usize..400,
        mutation in 0u8..4,
    ) {
        let base = "(define-macro SOME (r) (AT-LEAST 1 r))\n\
                    (define-macro BOTH (a b) (AND a b))\n\
                    (define-role r) (define-concept C (PRIMITIVE THING c))\n\
                    (define-concept D (BOTH C (SOME r))) ; uses both\n\
                    (create-ind X) (assert-ind X (BOTH D (FILLS r Y 7 \"s\" 'q)))\n\
                    (bulk-load (into C) (roles r) (row Z Y) (row W _))\n\
                    (retrieve (AND C (ALL r ?:THING))) (subsumes? C (SOME r))\n\
                    (what-if? X (AT-MOST 0 r)) (retract-rule 0) (lint-kb cone)";
        let mut chars: Vec<char> = base.chars().collect();
        let pos = pos % chars.len();
        match mutation {
            0 => {
                chars.remove(pos);
            }
            1 => chars.insert(pos, chars[pos]),
            2 => chars[pos] = '(',
            _ => chars[pos] = ')',
        }
        let mutated: String = chars.into_iter().collect();
        let _ = classic_lang::parse(&mutated);
        let _ = classic_lang::Session::new().run(&mutated);
    }
}

/// Nesting that exists only *after* macro expansion meets the same bound
/// as nesting that was typed: 30 nested calls of a macro twenty levels
/// deep is 600 levels of `ALL` from a form written 31 deep. On a thread
/// with a server worker's stack (std's 2 MiB default) that must be an
/// error, not an overflow — and just under the bound must still load.
#[test]
fn macro_built_nesting_meets_the_same_bound() {
    let run = |calls: usize| {
        let script = format!(
            "(define-role r) (define-macro DEEPEN (x) {}x{})\n(classify {}THING{})",
            "(ALL r ".repeat(20),
            ")".repeat(20),
            "(DEEPEN ".repeat(calls),
            ")".repeat(calls)
        );
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || classic_lang::Session::new().run(&script))
            .unwrap()
            .join()
            .expect("no panic, no overflow")
    };
    let msg = run(30).unwrap_err().to_string();
    assert!(msg.contains("512-paren limit"), "{msg}");
    assert_eq!(run(3).expect("60 levels load").len(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The command layer (splitting, macro expansion, evaluation) is
    /// panic-free on arbitrary input too; errors come back as values.
    #[test]
    fn command_soup_never_panics(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("define-role".to_owned()),
                Just("define-concept".to_owned()),
                Just("define-macro".to_owned()),
                Just("create-ind".to_owned()),
                Just("assert-ind".to_owned()),
                Just("retrieve".to_owned()),
                Just("subsumes?".to_owned()),
                Just("why?".to_owned()),
                Just("what-if?".to_owned()),
                Just("classify".to_owned()),
                Just("AND".to_owned()),
                Just("X".to_owned()),
                Just("r".to_owned()),
                Just("?:".to_owned()),
                Just("2".to_owned()),
            ],
            0..20,
        )
    ) {
        let input = parts.join(" ");
        let mut session = classic_lang::Session::new();
        let _ = session.run(&input);
    }
}
