//! # classic-lang
//!
//! The concrete surface syntax of the CLASSIC reproduction: a tokenizer
//! and recursive-descent parser for the concept grammar of the paper's
//! Appendix A, the `?:`-marked query form of §3.5.3, and the operator
//! command language of §3 (`define-role`, `define-concept`, `create-ind`,
//! `assert-ind`, `assert-rule`, the query operators, and the
//! introspection operators).
//!
//! Printing lives with the AST in `classic-core` (`Concept::display`);
//! because parse ∘ print is the identity on the surface language, the
//! command stream doubles as the persistence format used by
//! `classic-store` — a direct consequence of the paper's "single language,
//! multiple roles" design.
//!
//! The whole stack in five forms — schema, data, and a query whose
//! answer was *recognized*, never asserted:
//!
//! ```
//! use classic_kb::Kb;
//! use classic_lang::{run_script, Outcome};
//!
//! let mut kb = Kb::new();
//! let out = run_script(&mut kb, r#"
//!     (define-role enrolled-at)
//!     (define-concept STUDENT (AND (PRIMITIVE THING person)
//!                                  (AT-LEAST 1 enrolled-at)))
//!     (create-ind Rocky)
//!     (assert-ind Rocky (AND (PRIMITIVE THING person)
//!                            (FILLS enrolled-at MIT)))
//!     (retrieve STUDENT)
//! "#)?;
//! assert_eq!(
//!     out.last(),
//!     Some(&Outcome::Individuals(vec!["Rocky".into()]))
//! );
//! # Ok::<(), classic_core::ClassicError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
mod command;
mod eval;
mod lexer;
mod macros;
mod outcome;
mod parser;
mod session;
mod write;

pub use ast::{Expr, IndLit, QueryExpr};
pub use command::{BulkRowSpec, BulkSpec, Command};
pub use eval::{eval, eval_read, mark_individual_dirty, run_script};
pub use outcome::{AspectValue, LintDiagnostic, LintReport, Outcome};
pub use parser::{
    parse, parse_concept, parse_expr, parse_one, parse_query, parse_query_expr, MAX_NESTING,
    TOO_DEEP,
};
pub use session::Session;
pub use write::{Touches, Write};

#[cfg(test)]
mod tests {
    use super::*;
    use classic_kb::Kb;

    /// The paper's §3 flow, driven end-to-end through the surface syntax.
    #[test]
    fn full_script_round_trip() {
        let mut kb = Kb::new();
        let outcomes = run_script(
            &mut kb,
            r#"
            (define-role thing-driven)
            (define-role enrolled-at)
            (define-concept PERSON (PRIMITIVE THING person))
            (define-concept CAR (PRIMITIVE THING car))
            (define-concept EXPENSIVE-THING (PRIMITIVE THING expensive))
            (define-concept SPORTS-CAR (PRIMITIVE (AND CAR EXPENSIVE-THING) sports-car))
            (define-concept STUDENT (AND PERSON (AT-LEAST 1 enrolled-at)))
            (define-concept RICH-KID (AND STUDENT (ALL thing-driven SPORTS-CAR)
                                          (AT-LEAST 2 thing-driven)))
            (create-ind Rocky)
            (assert-ind Rocky PERSON)
            (assert-ind Rocky (AT-LEAST 1 enrolled-at))
            (assert-ind Rocky (ALL thing-driven SPORTS-CAR))
            (assert-ind Rocky (AT-LEAST 2 thing-driven))
            (retrieve RICH-KID)
            "#,
        )
        .unwrap();
        match outcomes.last().unwrap() {
            Outcome::Individuals(names) => assert_eq!(names, &["Rocky"]),
            other => panic!("expected individuals, got {other:?}"),
        }
    }

    #[test]
    fn subsumption_queries_through_syntax() {
        let mut kb = Kb::new();
        run_script(
            &mut kb,
            "(define-role r)
             (define-concept A (AT-LEAST 2 r))",
        )
        .unwrap();
        let out = run_script(&mut kb, "(subsumes? (AT-LEAST 1 r) A)").unwrap();
        assert_eq!(out, vec![Outcome::Bool(true)]);
        let out = run_script(&mut kb, "(subsumes? A (AT-LEAST 1 r))").unwrap();
        assert_eq!(out, vec![Outcome::Bool(false)]);
        let out = run_script(
            &mut kb,
            "(equivalent? (EXACTLY 1 r) (AND (AT-LEAST 1 r) (AT-MOST 1 r)))",
        )
        .unwrap();
        assert_eq!(out, vec![Outcome::Bool(true)]);
    }

    #[test]
    fn marked_retrieve_returns_fillers() {
        let mut kb = Kb::new();
        let out = run_script(
            &mut kb,
            r#"
            (define-role eat)
            (define-concept PERSON (PRIMITIVE THING person))
            (create-ind Rocky)
            (assert-ind Rocky PERSON)
            (assert-ind Rocky (FILLS eat Pizza-1))
            (retrieve (AND PERSON (ALL eat ?:THING)))
            "#,
        )
        .unwrap();
        match out.last().unwrap() {
            Outcome::Individuals(v) => assert_eq!(v, &["Pizza-1"]),
            other => panic!("expected fillers, got {other:?}"),
        }
    }

    #[test]
    fn ask_description_through_syntax() {
        let mut kb = Kb::new();
        let out = run_script(
            &mut kb,
            r#"
            (define-role eat)
            (define-role enrolled-at)
            (define-concept PERSON (PRIMITIVE THING person))
            (define-concept JUNK-FOOD (PRIMITIVE THING junk))
            (define-concept STUDENT (AND PERSON (AT-LEAST 1 enrolled-at)))
            (assert-rule STUDENT (ALL eat JUNK-FOOD))
            (ask-description (AND STUDENT (ALL eat ?:THING)))
            "#,
        )
        .unwrap();
        match out.last().unwrap() {
            Outcome::Description(d) => assert!(d.contains("JUNK-FOOD"), "got {d}"),
            other => panic!("expected description, got {other:?}"),
        }
    }

    #[test]
    fn aspects_through_syntax() {
        let mut kb = Kb::new();
        let out = run_script(
            &mut kb,
            r#"
            (define-role thing-driven)
            (define-concept C (AND (AT-LEAST 2 thing-driven)
                                   (ALL thing-driven (ONE-OF A B))))
            (concept-aspect C AT-LEAST thing-driven)
            "#,
        )
        .unwrap();
        assert_eq!(*out.last().unwrap(), Outcome::Aspect(AspectValue::Bound(2)));
        // The derived AT-MOST from the enumerated value restriction (§2.2)
        // is visible as an aspect too.
        let out = run_script(&mut kb, "(concept-aspect C AT-MOST thing-driven)").unwrap();
        assert_eq!(*out.last().unwrap(), Outcome::Aspect(AspectValue::Bound(2)));
    }

    #[test]
    fn taxonomy_navigation_through_syntax() {
        let mut kb = Kb::new();
        run_script(
            &mut kb,
            "(define-concept CAR (PRIMITIVE THING car))
             (define-concept SPORTS-CAR (PRIMITIVE CAR sc))",
        )
        .unwrap();
        let out = run_script(&mut kb, "(parents SPORTS-CAR)").unwrap();
        assert_eq!(*out.last().unwrap(), Outcome::Concepts(vec!["CAR".into()]));
        let out = run_script(&mut kb, "(children CAR)").unwrap();
        assert_eq!(
            *out.last().unwrap(),
            Outcome::Concepts(vec!["SPORTS-CAR".into()])
        );
    }

    #[test]
    fn rejected_update_reports_error() {
        let mut kb = Kb::new();
        run_script(
            &mut kb,
            "(define-role r)
             (create-ind X)
             (assert-ind X (FILLS r V))",
        )
        .unwrap();
        let err = run_script(&mut kb, "(assert-ind X (AT-MOST 0 r))").unwrap_err();
        assert!(matches!(
            err,
            classic_core::ClassicError::Inconsistent { .. }
        ));
    }

    #[test]
    fn lint_kb_through_syntax() {
        let mut kb = Kb::new();
        let out = run_script(
            &mut kb,
            r#"
            (define-role r)
            (define-concept BAD (AND (AT-LEAST 2 r) (AT-MOST 1 r)))
            (lint-kb)
            "#,
        )
        .unwrap();
        match out.last().unwrap() {
            Outcome::Lint(report) => {
                assert_eq!(report.errors(), 1);
                assert_eq!(report.diagnostics[0].code, "A001");
                assert!(
                    report.diagnostics[0].subject.contains("BAD"),
                    "got: {:?}",
                    report.diagnostics[0]
                );
                let rendered = out.last().unwrap().render_text();
                assert!(rendered.contains("A001"), "got: {rendered}");
                let json = out.last().unwrap().render_json();
                assert!(json.contains(r#""type":"lint""#), "got: {json}");
                assert!(json.contains(r#""code":"A001""#), "got: {json}");
            }
            other => panic!("expected a lint report, got {other:?}"),
        }
    }

    #[test]
    fn bulk_load_through_syntax() {
        let mut kb = Kb::new();
        let out = run_script(
            &mut kb,
            r#"
            (define-role name)
            (define-role age)
            (define-role owns)
            (define-concept PERSON (PRIMITIVE THING person))
            (bulk-load
              (into PERSON)
              (roles name age owns)
              (row p1 "Ada" 36 Car-1)
              (row p2 "Grace" 45 _)
              (row p3 'anon _ Car-1))
            (retrieve PERSON)
            "#,
        )
        .unwrap();
        let Outcome::BulkLoaded(report) = &out[out.len() - 2] else {
            panic!("expected bulk-loaded, got {:?}", out[out.len() - 2]);
        };
        assert_eq!(report.rows, 3);
        assert_eq!(report.accepted, 3);
        assert_eq!(report.rejected, 0);
        // 3 row targets + Car-1, referenced twice but created once.
        assert_eq!(report.inds_created, 4);
        let Outcome::Individuals(names) = out.last().unwrap() else {
            panic!("expected individuals");
        };
        assert_eq!(names, &["p1", "p2", "p3"]);
        let json = out[out.len() - 2].render_json();
        assert!(json.contains(r#""type":"bulk-loaded""#), "got: {json}");
        assert!(json.contains(r#""accepted":3"#), "got: {json}");
    }

    #[test]
    fn bulk_load_rejects_ragged_and_headerless_rows() {
        let err = parse("(bulk-load (roles a b) (row x 1))").unwrap_err();
        assert!(err.to_string().contains("ragged"), "got: {err}");
        let err = parse("(bulk-load (row x 1))").unwrap_err();
        assert!(err.to_string().contains("header"), "got: {err}");
        let err = parse("(bulk-load (roles a) (into C))").unwrap_err();
        assert!(err.to_string().contains("precede"), "got: {err}");
    }

    #[test]
    fn describe_round_trips() {
        let mut kb = Kb::new();
        let out = run_script(
            &mut kb,
            "(define-role r)
             (define-concept PERSON (PRIMITIVE THING person))
             (create-ind X)
             (assert-ind X (AND PERSON (FILLS r V) (CLOSE r)))
             (describe X)",
        )
        .unwrap();
        let Outcome::Description(d) = out.last().unwrap() else {
            panic!("expected description");
        };
        // Reparse the description: it must normalize to X's derived NF.
        let c = parse_concept(d, kb.schema_mut()).unwrap();
        let nf = kb.normalize(&c).unwrap();
        let x = kb
            .ind_id(kb.schema().symbols.find_individual("X").unwrap())
            .unwrap();
        assert_eq!(&nf, kb.ind(x).derived());
    }
}
