//! Property: printing a concept in the surface syntax and re-parsing it
//! yields the identical AST — for every host value, not only the tidy
//! ones: any `String`, any finite float, any symbol. This is the
//! guarantee the persistence layer (`classic-store`) leans on — the
//! command stream is only a sound serialization format if parse ∘ print
//! is the identity. And the same for whole records: what
//! [`Write::record`] writes, `parse` and `to_write` read back to an equal
//! [`Write`], whatever the names — or `record` refuses. And over the same
//! generated descriptions, a read is a function of the KB and the
//! command: it changes nothing and answers the same every time.

use classic_core::desc::{Concept, IndRef};
use classic_core::lexical::{is_symbol, is_symbol_char};
use classic_core::schema::Schema;
use classic_core::symbol::{RoleId, TestId};
use classic_core::HostValue;
use classic_kb::Kb;
use classic_lang::{eval_read, parse_concept, parse_one, run_script, Write};
use classic_store::same_state;
use proptest::prelude::*;
use std::borrow::Cow;

const N_ROLES: usize = 4;

fn vocabulary() -> Schema {
    let mut schema = Schema::new();
    for i in 0..N_ROLES {
        schema.define_role(&format!("role-{i}")).unwrap();
    }
    schema.define_attribute("attr-a").unwrap();
    schema.define_attribute("attr-b").unwrap();
    schema
        .define_concept("NAMED-0", Concept::primitive(Concept::thing(), "n0"))
        .unwrap();
    schema
        .define_concept("NAMED-1", Concept::primitive(Concept::thing(), "n1"))
        .unwrap();
    schema.register_test("test-fn", |_| true);
    for i in 0..6 {
        schema.symbols.individual(&format!("Ind-{i}"));
    }
    schema
}

fn role(i: usize) -> RoleId {
    RoleId::from_index(i % N_ROLES)
}

fn ind(i: usize) -> IndRef {
    match i % 6 {
        4 => IndRef::Host(HostValue::Int(i as i64 - 10)),
        5 => IndRef::Host(HostValue::Sym(format!("sym{}", i % 3))),
        k => IndRef::Classic(classic_core::IndName::from_index(k)),
    }
}

/// Finite floats: the awkward ones, and any bit pattern that is finite.
fn finite_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(1e21),
        Just(5e-324),
        Just(f64::MAX),
        (0u64..=u64::MAX).prop_map(|bits| Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5)),
    ]
}

/// Host values over the whole value space: strings of arbitrary Unicode
/// (the stand-in's `.` draws C0 controls — CR, NUL — U+2000–U+20FF —
/// U+200B, U+2028 — quotes and backslashes among the rest), finite
/// floats, integers, and symbols of every symbol character.
fn host_value() -> impl Strategy<Value = HostValue> {
    prop_oneof![
        ".{0,12}".prop_map(HostValue::Str),
        finite_float().prop_map(HostValue::float),
        (i64::MIN..=i64::MAX).prop_map(HostValue::Int),
        ".{1,12}".prop_map(|s| {
            let sym: String = s.chars().filter(|&c| is_symbol_char(c)).collect();
            HostValue::Sym(if sym.is_empty() { "s".into() } else { sym })
        }),
    ]
}

fn host_inds() -> impl Strategy<Value = Vec<IndRef>> {
    proptest::collection::vec(host_value().prop_map(IndRef::Host), 1..4)
}

/// Strategy over printable concepts (names/tests resolved against the
/// fixed vocabulary built in every test case).
fn concept_strategy() -> impl Strategy<Value = Concept> {
    let leaf = prop_oneof![
        host_inds().prop_map(Concept::OneOf),
        (0usize..N_ROLES, host_inds()).prop_map(|(r, v)| Concept::Fills(role(r), v)),
        Just(Concept::thing()),
        Just(Concept::Builtin(classic_core::Layer::Classic)),
        Just(Concept::Builtin(classic_core::Layer::Host(Some(
            classic_core::HostClass::Str
        )))),
        (0usize..2).prop_map(|i| Concept::Name(classic_core::ConceptName::from_index(i))),
        (0usize..N_ROLES, 0u32..5).prop_map(|(r, n)| Concept::AtLeast(n, role(r))),
        (0usize..N_ROLES, 0u32..5).prop_map(|(r, n)| Concept::AtMost(n, role(r))),
        (0usize..N_ROLES).prop_map(|r| Concept::Close(role(r))),
        Just(Concept::Test(TestId::from_index(0))),
        proptest::collection::vec(0usize..12, 1..4)
            .prop_map(|v| Concept::OneOf(v.into_iter().map(ind).collect())),
        (0usize..N_ROLES, proptest::collection::vec(0usize..12, 1..3))
            .prop_map(|(r, v)| Concept::Fills(role(r), v.into_iter().map(ind).collect())),
        // SAME-AS over the two attributes.
        Just(Concept::SameAs(
            vec![RoleId::from_index(N_ROLES)],
            vec![RoleId::from_index(N_ROLES + 1)],
        )),
        Just(Concept::primitive(Concept::thing(), "fresh-prim")),
        Just(Concept::disjoint_primitive(Concept::thing(), "grp", "left")),
    ];
    leaf.prop_recursive(3, 20, 4, |inner| {
        prop_oneof![
            (0usize..N_ROLES, inner.clone()).prop_map(|(r, c)| Concept::all(role(r), c)),
            proptest::collection::vec(inner, 1..4).prop_map(Concept::And),
        ]
    })
}

/// The strings and floats a respelling writer has lost before (ISSUE 14),
/// by name.
#[test]
fn the_values_earlier_builds_respelled_read_back_equal() {
    let mut schema = vocabulary();
    let strings = [
        "x\ry",
        "x\u{1}y",
        "12 Main St\r\nSpringfield",
        "wid\u{200b}get",
        "n\0l",
        "line\u{2028}sep",
        "say \"hi\" \\ there",
        "",
    ];
    let values = (strings.iter().map(|s| HostValue::Str((*s).into())))
        .chain([-0.0, 1e21, 5e-324].map(HostValue::float));
    for v in values {
        let c = Concept::OneOf(vec![IndRef::Host(v.clone())]);
        let printed = c.display(&schema.symbols).to_string();
        assert!(!printed.contains(['\n', '\r']), "{printed:?} spans lines");
        assert_eq!(
            parse_concept(&printed, &mut schema).unwrap(),
            c,
            "{printed:?}"
        );
    }
    // What earlier builds wrote for them (Rust's `{:?}`) still reads.
    let old = r#"(ONE-OF "x\ry" "n\0l" "wid\u{200b}get" "x\u{1}y" "it\'s")"#;
    let expect = ["x\ry", "n\0l", "wid\u{200b}get", "x\u{1}y", "it's"];
    let expect = expect.map(|s| IndRef::Host(HostValue::Str(s.into())));
    assert_eq!(
        parse_concept(old, &mut schema).unwrap(),
        Concept::OneOf(expect.to_vec())
    );
    for bad in [
        r#""\u{110000}""#,
        r#""\u{d800}""#,
        r#""\u{}""#,
        r#""\u{12"#,
        r#""\u{+41}""#,
    ] {
        assert!(parse_concept(bad, &mut schema).is_err(), "{bad}");
    }
}

fn kb_with_vocabulary() -> Kb {
    let mut kb = Kb::new();
    *kb.schema_mut() = vocabulary();
    kb
}

/// A rule id is recorded as the rule it names — ids do not survive
/// compaction — and a dead id is refused with the KB's own error.
#[test]
fn a_rule_id_is_recorded_as_its_rule() {
    let mut kb = Kb::new();
    let r = kb.define_role("r").unwrap();
    kb.define_concept("C", Concept::primitive(Concept::thing(), "c"))
        .unwrap();
    let id = kb.assert_rule("C", Concept::AtMost(3, r)).unwrap();
    let by_id = Write::RetractRuleById(id).record(&kb).unwrap();
    assert_eq!(by_id, "(retract-rule C (AT-MOST 3 r))");
    let by_name = Write::RetractRule("C", Cow::Owned(Concept::AtMost(3, r)));
    assert_eq!(by_id, by_name.record(&kb).unwrap());
    let dead = Write::RetractRuleById(id + 1).record(&kb).unwrap_err();
    assert_eq!(
        dead.to_string(),
        kb.retract_rule_by_id(id + 1).unwrap_err().to_string()
    );
}

/// A KB whose ids line up with [`vocabulary`]'s — so generated concepts
/// print against it — with data, a rule and a declared `fresh-prim`
/// under another parent for the reads to meet.
fn kb_with_data() -> Kb {
    let mut kb = Kb::new();
    kb.register_test("test-fn", |_| true);
    run_script(
        &mut kb,
        "(define-role role-0) (define-role role-1) (define-role role-2) (define-role role-3)
         (define-attribute attr-a) (define-attribute attr-b)
         (define-concept NAMED-0 (PRIMITIVE THING n0))
         (define-concept NAMED-1 (PRIMITIVE THING n1))
         (create-ind Ind-0) (create-ind Ind-1) (create-ind Ind-2)
         (create-ind Ind-3) (create-ind Ind-4) (create-ind Ind-5)
         (assert-ind Ind-0 (AND NAMED-0 (FILLS role-0 Ind-1 Ind-2) (AT-MOST 2 role-0)))
         (assert-ind Ind-1 (AND NAMED-1 (FILLS role-1 7 'sym0)))
         (assert-ind Ind-3 (ALL role-2 NAMED-0))
         (assert-rule NAMED-0 (ALL role-0 NAMED-1))
         (define-concept ELSEWHERE (PRIMITIVE NAMED-1 fresh-prim))",
    )
    .expect("the fixture is accepted");
    assert_eq!(
        kb.schema()
            .symbols
            .find_individual("Ind-5")
            .map(|i| i.index()),
        Some(5)
    );
    kb
}

/// How many names of each kind, and how many primitives, the KB holds.
fn name_counts(kb: &Kb) -> (usize, usize, usize, classic_core::PrimMark) {
    let symbols = &kb.schema().symbols;
    (
        symbols.role_count(),
        symbols.concept_count(),
        symbols.individuals().count(),
        kb.schema().clone().declare(&Concept::thing()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A read — over any description, with or without names and
    /// primitives the KB has never seen — leaves the KB as it was, and is
    /// answered the same a second time and on a deep copy.
    #[test]
    fn reads_change_nothing_and_repeat(
        c in concept_strategy(),
        stranger in 0usize..5,
        operator in 0usize..9,
    ) {
        let kb = kb_with_data();
        let before = kb.clone();
        let counts = name_counts(&kb);
        let c = c.display(&kb.schema().symbols).to_string();
        let c = match stranger {
            0 => format!("(AND {c} (FILLS role-1 Never-Seen))"),
            1 => format!("(AND {c} (ALL never-seen THING))"),
            2 => format!("(AND {c} NEVER-SEEN)"),
            3 => format!("(AND {c} (PRIMITIVE NAMED-0 never-seen))"),
            _ => c,
        };
        let read = match operator {
            0 => format!("(retrieve {c})"),
            1 => format!("(possible {c})"),
            2 => format!("(ask-necessary-set (AND NAMED-0 (ALL role-0 ?:{c})))"),
            3 => format!("(ask-description (AND NAMED-0 (ALL role-0 ?:{c})))"),
            4 => format!("(subsumes? NAMED-0 {c})"),
            5 => format!("(disjoint? {c} NAMED-1)"),
            6 => format!("(classify {c})"),
            7 => "(lint-kb)".to_owned(),
            _ => "(describe Ind-0)".to_owned(),
        };
        let read = parse_one(&read).unwrap_or_else(|e| panic!("{read:?} does not parse: {e}"));
        let first = eval_read(&kb, &read);
        prop_assert_eq!(&first, &eval_read(&kb, &read), "asked twice");
        prop_assert_eq!(&first, &eval_read(&before, &read), "asked of a copy");
        prop_assert!(same_state(&before, &kb) && same_state(&kb, &before));
        prop_assert_eq!(counts, name_counts(&kb));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every kind of record, over arbitrary text in every position a
    /// name, index or grouping can take: `record` either refuses — and
    /// then some text really is no symbol — or what it wrote is one line
    /// that parses and resolves back to the very same write.
    #[test]
    fn a_record_is_read_back_as_the_same_write_or_refused(
        kind in 0usize..9,
        name in ".{0,6}",
        index in ".{0,6}",
        grouping in ".{0,6}",
        tidy in 0usize..4,
        c in concept_strategy(),
        cell in host_value(),
    ) {
        // Mostly-valid inputs, so acceptance is exercised as hard as refusal.
        let tidied = |s: String, keep: bool| if keep { s } else {
            let t: String = s.chars().filter(|&c| is_symbol_char(c)).collect();
            if is_symbol(&t) { t } else { "t".into() }
        };
        let name = tidied(name, tidy == 1);
        let index = tidied(index, tidy == 2);
        let grouping = tidied(grouping, tidy == 3);
        let mut kb = kb_with_vocabulary();
        let named = IndRef::Classic(kb.schema_mut().symbols.individual(&name));
        let named_role = kb.schema_mut().symbols.role(&name);
        let desc = Concept::and([
            c,
            Concept::primitive(Concept::thing(), &index),
            Concept::disjoint_primitive(Concept::thing(), &grouping, &index),
            Concept::Fills(named_role, vec![named.clone()]),
        ]);
        let desc = || Cow::Borrowed(&desc);
        let write = match kind {
            0 => Write::DefineRole(&name),
            1 => Write::DefineAttribute(&name),
            2 => Write::DefineConcept(&name, desc()),
            3 => Write::CreateInd(&name),
            4 => Write::AssertInd(&name, desc()),
            5 => Write::AssertRule(&name, desc()),
            6 => Write::RetractInd(&name, desc()),
            7 => Write::RetractRule(&name, desc()),
            _ => Write::BulkLoad {
                into: Some(desc().into_owned()),
                roles: vec![role(0), named_role],
                rows: vec![
                    (&name, vec![Some(IndRef::Host(cell)), None]),
                    ("Ind-0", vec![Some(named), Some(IndRef::Host(HostValue::Int(7)))]),
                ],
            },
        };
        match write.record(&kb) {
            Ok(line) => {
                prop_assert!(!line.contains(['\n', '\r']), "{:?} spans lines", line);
                let cmd = parse_one(&line)
                    .unwrap_or_else(|e| panic!("{line:?} does not parse: {e}"));
                let back = cmd.to_write(kb.schema_mut()).unwrap();
                prop_assert_eq!(back.as_ref(), Some(&write), "record: {}", line);
            }
            Err(e) => prop_assert!(
                [&name, &index, &grouping].iter().any(|t| !is_symbol(t) || *t == "_"),
                "refused {:?} for no reason: {}", write, e
            ),
        }
    }

    #[test]
    fn print_then_parse_is_identity(c in concept_strategy()) {
        let mut schema = vocabulary();
        let printed = c.display(&schema.symbols).to_string();
        let reparsed = parse_concept(&printed, &mut schema)
            .unwrap_or_else(|e| panic!("reparse failed on {printed:?}: {e}"));
        prop_assert_eq!(&c, &reparsed, "surface form: {}", printed);
    }

    #[test]
    fn printed_forms_normalize_like_the_original(c in concept_strategy()) {
        let mut schema = vocabulary();
        let printed = c.display(&schema.symbols).to_string();
        let reparsed = parse_concept(&printed, &mut schema).expect("reparse");
        schema.declare(&c);
        let n1 = classic_core::normalize(&c, &schema).expect("normalizes");
        let n2 = classic_core::normalize(&reparsed, &schema).expect("normalizes");
        prop_assert_eq!(n1, n2);
    }
}
