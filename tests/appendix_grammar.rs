//! Appendix A conformance: every constructor of the paper's grammar, in
//! the concrete surface syntax, parses, prints back to itself, and
//! normalizes. One test per grammar production, plus the built-in
//! primitives the appendix lists (`THING`, `CLASSIC-THING`, `HOST-THING`).

use classic::lang::parse_concept;
use classic::{Concept, Kb};

fn kb() -> Kb {
    let mut kb = Kb::new();
    for r in ["r", "s", "thing-driven", "maker"] {
        kb.define_role(r).unwrap();
    }
    for a in ["driver", "insurance", "payer"] {
        kb.define_attribute(a).unwrap();
    }
    kb.define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
        .unwrap();
    kb.register_test("even", |_| true);
    kb
}

/// Parse, then print, then parse again: both parses must agree, and the
/// result must normalize without structural errors.
fn round_trip(kb: &mut Kb, src: &str) -> Concept {
    let c1 = parse_concept(src, kb.schema_mut())
        .unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"));
    let printed = c1.display(&kb.schema().symbols).to_string();
    let c2 = parse_concept(&printed, kb.schema_mut())
        .unwrap_or_else(|e| panic!("reparse failed for {printed:?}: {e}"));
    assert_eq!(c1, c2, "print/parse round trip for {src:?}");
    kb.schema_mut().declare(&c1);
    kb.normalize(&c1)
        .unwrap_or_else(|e| panic!("normalize failed for {src:?}: {e}"));
    c1
}

#[test]
fn builtin_primitives() {
    let mut kb = kb();
    for b in [
        "THING",
        "CLASSIC-THING",
        "HOST-THING",
        "INTEGER",
        "STRING",
        "SYMBOL",
    ] {
        round_trip(&mut kb, b);
    }
}

#[test]
fn concept_name_reference() {
    let mut kb = kb();
    round_trip(&mut kb, "CAR");
}

#[test]
fn primitive_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(PRIMITIVE THING boat)");
    round_trip(&mut kb, "(PRIMITIVE CAR sports-car)");
    round_trip(&mut kb, "(PRIMITIVE (AND CAR (AT-LEAST 1 r)) fancy)");
}

#[test]
fn disjoint_primitive_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(DISJOINT-PRIMITIVE THING gender male)");
    round_trip(&mut kb, "(DISJOINT-PRIMITIVE THING gender female)");
}

#[test]
fn one_of_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(ONE-OF GM Ford Chrysler)");
    round_trip(&mut kb, "(ONE-OF 1 2 3)");
    round_trip(&mut kb, r#"(ONE-OF "alpha" 'beta Gamma)"#);
}

#[test]
fn all_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(ALL thing-driven CAR)");
    round_trip(&mut kb, "(ALL thing-driven (ALL maker (ONE-OF Ferrari)))");
}

#[test]
fn cardinality_constructors() {
    let mut kb = kb();
    round_trip(&mut kb, "(AT-LEAST 3 r)");
    round_trip(&mut kb, "(AT-MOST 4 thing-driven)");
    round_trip(&mut kb, "(AT-LEAST 0 r)");
    round_trip(&mut kb, "(AT-MOST 0 r)");
}

#[test]
fn same_as_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(SAME-AS (driver) (insurance payer))");
}

#[test]
fn fills_and_close_constructors() {
    let mut kb = kb();
    round_trip(&mut kb, "(FILLS thing-driven Volvo-17)");
    round_trip(&mut kb, "(FILLS thing-driven Volvo-17 Ferrari-512)");
    round_trip(&mut kb, "(FILLS r 42)");
    round_trip(&mut kb, "(CLOSE thing-driven)");
}

#[test]
fn test_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(TEST even)");
    round_trip(&mut kb, "(AND INTEGER (TEST even))"); // the paper's EVEN-INTEGER
}

#[test]
fn and_constructor() {
    let mut kb = kb();
    round_trip(&mut kb, "(AND CAR (AT-LEAST 1 r))");
    // The paper's full §2.1.3 composite.
    round_trip(
        &mut kb,
        "(AND CAR \
           (ALL thing-driven (AND CAR (ALL maker (ONE-OF Ferrari)))) \
           (AT-LEAST 1 thing-driven) \
           (AT-MOST 2 thing-driven))",
    );
    // Empty and singleton conjunctions are grammatical.
    round_trip(&mut kb, "(AND)");
    round_trip(&mut kb, "(AND CAR)");
}

#[test]
fn whitespace_and_comments_are_insignificant() {
    let mut kb = kb();
    let a = parse_concept(
        "(AND CAR ; the car part\n  (AT-LEAST 1 r))",
        kb.schema_mut(),
    )
    .unwrap();
    let b = parse_concept("(AND CAR (AT-LEAST 1 r))", kb.schema_mut()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn deeply_nested_expressions() {
    let mut kb = kb();
    // 16 levels of ALL nesting — no recursion trouble, stable round trip.
    let mut src = String::from("CAR");
    for _ in 0..16 {
        src = format!("(ALL r {src})");
    }
    round_trip(&mut kb, &src);
}
