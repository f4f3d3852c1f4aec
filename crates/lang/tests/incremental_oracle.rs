//! Differential oracle for the incremental analyzer: after *any* sequence
//! of surface-language operations (defines, creates, asserts, retracts,
//! rule edits, lints), the incrementally-maintained
//! [`classic_analyze::AnalysisState`] must report exactly what a
//! from-scratch [`classic_analyze::analyze`] reports on the same KB —
//! same codes, same spans, same provenance, same order.
//!
//! Operations are driven through [`classic_lang::eval`], which tells the
//! state nothing: the state is refreshed once before the operations, at
//! each `Lint` step and at the end, so one refresh spans several writes,
//! refusals and rollbacks, and what it re-checks is only what its
//! comparison of two KB versions finds. Rejected updates are kept in the
//! stream on purpose: a rolled-back assertion must leave the analysis
//! state consistent too.

use classic_analyze::AnalysisState;
use classic_kb::Kb;
use classic_lang::{eval, parse_one, Outcome};
use proptest::prelude::*;

const N_ROLES: usize = 3;
const N_INDS: usize = 4;
/// Untold individuals created before each `x`.
const PAD: usize = 45;

/// One conjunct of a generated description, rendered to surface syntax.
#[derive(Debug, Clone)]
enum Part {
    Prim(u8),
    DisPrim(u8),
    AtLeast(u8, u32),
    AtMost(u8, u32),
    Fills(u8, u8),
    Close(u8),
    AllOneOf(u8, u8, u8),
    AllPrim(u8, u8),
    SameAs(u8, u8),
    Ref(u8),
}

impl Part {
    /// Render against the current number of defined concepts (`Ref`s may
    /// only point backwards).
    fn render(&self, ndefs: usize) -> String {
        match self {
            Part::Prim(k) => format!("(PRIMITIVE THING p{})", k % 3),
            Part::DisPrim(k) => format!("(DISJOINT-PRIMITIVE THING side d{})", k % 3),
            Part::AtLeast(r, n) => format!("(AT-LEAST {n} r{})", *r as usize % N_ROLES),
            Part::AtMost(r, m) => format!("(AT-MOST {m} r{})", *r as usize % N_ROLES),
            Part::Fills(r, j) => format!(
                "(FILLS r{} x{})",
                *r as usize % N_ROLES,
                *j as usize % N_INDS
            ),
            Part::Close(r) => format!("(CLOSE r{})", *r as usize % N_ROLES),
            Part::AllOneOf(r, j, k) => format!(
                "(ALL r{} (ONE-OF x{} x{}))",
                *r as usize % N_ROLES,
                *j as usize % N_INDS,
                *k as usize % N_INDS
            ),
            Part::AllPrim(r, k) => {
                format!(
                    "(ALL r{} (PRIMITIVE THING p{}))",
                    *r as usize % N_ROLES,
                    k % 3
                )
            }
            Part::SameAs(a, b) => format!("(SAME-AS (a{}) (a{}))", a % 2, b % 2),
            Part::Ref(j) => {
                if ndefs == 0 {
                    "(PRIMITIVE THING p0)".to_owned()
                } else {
                    format!("C{}", *j as usize % ndefs)
                }
            }
        }
    }
}

fn arb_part() -> impl Strategy<Value = Part> {
    prop_oneof![
        (0u8..3).prop_map(Part::Prim),
        (0u8..3).prop_map(Part::DisPrim),
        (0u8..3, 0u32..4).prop_map(|(r, n)| Part::AtLeast(r, n)),
        (0u8..3, 0u32..4).prop_map(|(r, m)| Part::AtMost(r, m)),
        (0u8..3, 0u8..4).prop_map(|(r, j)| Part::Fills(r, j)),
        (0u8..3).prop_map(Part::Close),
        (0u8..3, 0u8..4, 0u8..4).prop_map(|(r, j, k)| Part::AllOneOf(r, j, k)),
        (0u8..3, 0u8..3).prop_map(|(r, k)| Part::AllPrim(r, k)),
        (0u8..2, 0u8..2).prop_map(|(a, b)| Part::SameAs(a, b)),
        (0u8..8).prop_map(Part::Ref),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Define(Vec<Part>),
    Assert(u8, Vec<Part>),
    Rule(u8, Vec<Part>),
    RetractTold(u8),
    RetractRule(u8),
    Lint,
}

fn arb_parts() -> impl Strategy<Value = Vec<Part>> {
    proptest::collection::vec(arb_part(), 1..4)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => arb_parts().prop_map(Op::Define),
        5 => (0u8..4, arb_parts()).prop_map(|(j, p)| Op::Assert(j, p)),
        2 => (0u8..8, arb_parts()).prop_map(|(j, p)| Op::Rule(j, p)),
        2 => (0u8..8).prop_map(Op::RetractTold),
        1 => (0u8..8).prop_map(Op::RetractRule),
        1 => Just(Op::Lint),
    ]
}

fn and(parts: &[Part], ndefs: usize) -> String {
    let rendered: Vec<String> = parts.iter().map(|p| p.render(ndefs)).collect();
    format!("(AND {})", rendered.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_report_equals_full_analysis(
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let mut kb = Kb::new();
        let mut state = AnalysisState::new();
        for i in 0..N_ROLES {
            kb.define_role(&format!("r{i}")).unwrap();
        }
        for i in 0..2 {
            kb.define_attribute(&format!("a{i}")).unwrap();
        }
        // Each `x` comes after individuals nothing is told about, so
        // that the four sit inside different arena chunks, at neither
        // end, and a refresh's comparison of versions has chunks to skip.
        for j in 0..N_INDS {
            for k in 0..PAD {
                kb.create_ind(&format!("pad{j}-{k}")).unwrap();
            }
            kb.create_ind(&format!("x{j}")).unwrap();
        }
        state.refresh(&kb);

        let mut ndefs = 0usize;
        let mut rules = 0usize;
        // (individual, expression) pairs that were accepted, so retracts
        // can target real told information.
        let mut told: Vec<(String, String)> = Vec::new();

        for op in &ops {
            let text = match op {
                Op::Define(parts) => {
                    Some(format!("(define-concept C{ndefs} {})", and(parts, ndefs)))
                }
                Op::Assert(j, parts) => Some(format!(
                    "(assert-ind x{} {})",
                    *j as usize % N_INDS,
                    and(parts, ndefs)
                )),
                Op::Rule(j, parts) => {
                    if ndefs == 0 {
                        None
                    } else {
                        Some(format!(
                            "(assert-rule C{} {})",
                            *j as usize % ndefs,
                            and(parts, ndefs)
                        ))
                    }
                }
                Op::RetractTold(t) => {
                    if told.is_empty() {
                        None
                    } else {
                        let (name, expr) = &told[*t as usize % told.len()];
                        Some(format!("(retract-ind {name} {expr})"))
                    }
                }
                Op::RetractRule(t) => {
                    if rules == 0 {
                        None
                    } else {
                        Some(format!("(retract-rule {})", *t as usize % rules))
                    }
                }
                Op::Lint => {
                    state.refresh(&kb);
                    let incremental = state.report(&kb);
                    let full = classic_analyze::analyze(&kb.clone());
                    prop_assert_eq!(
                        &incremental,
                        &full,
                        "incremental/full divergence at a lint after {:?}",
                        ops
                    );
                    None
                }
            };
            let Some(text) = text else { continue };
            let cmd = parse_one(&text).unwrap();
            match eval(&mut kb, &cmd) {
                Ok(Outcome::Ok) => {
                    if let Op::Define(_) = op {
                        ndefs += 1;
                    }
                }
                Ok(Outcome::RuleAsserted(_)) => rules += 1,
                Ok(Outcome::Asserted(_)) => {
                    if let Op::Assert(j, parts) = op {
                        told.push((format!("x{}", *j as usize % N_INDS), and(parts, ndefs)));
                    }
                }
                // Rejections (inconsistent updates, unknown rule ids,
                // never-told retractions) stay in the stream: the rolled
                // back KB must still match the full analysis.
                _ => {}
            }

        }
        state.refresh(&kb);
        let incremental = state.report(&kb);
        let full = classic_analyze::analyze(&kb.clone());
        prop_assert_eq!(
            &incremental,
            &full,
            "incremental/full divergence at the end of {:?}",
            ops
        );
    }
}
