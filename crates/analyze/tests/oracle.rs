//! Property oracle: the static analyzer against the dynamic semantics.
//!
//! Two directions, both driven by randomly generated TBoxes:
//!
//! * **Soundness of `A001`** — if the analyzer flags a defined concept as
//!   incoherent, then under *every* generated ABox the concept's
//!   extension is empty in the strongest sense: no individual is even a
//!   *possible* instance (the open-world disjointness test at the query
//!   layer), and every attempt to assert an individual under it is
//!   rejected by the completion machinery. These are independent
//!   computation paths from the one the analyzer used (re-normalization
//!   of the definition), so agreement is a real cross-check.
//! * **No false alarms** — a TBox generated from a coherent-by-
//!   construction grammar (all `AT-LEAST` bounds below all `AT-MOST`
//!   bounds, primitives drawn from one non-disjoint pool, references
//!   strictly to earlier definitions) must produce *zero* Error-severity
//!   diagnostics, however the fragments are conjoined.

use classic_analyze::{analyze, Code, Severity, Span};
use classic_core::desc::Concept;
use classic_core::symbol::RoleId;
use classic_kb::Kb;
use proptest::prelude::*;

const N_ROLES: usize = 3;
const N_INDS: usize = 4;

/// One conjunct of a generated definition. `Ref` points at an earlier
/// definition (resolved modulo the current position, so generation can't
/// build forward references or cycles).
#[derive(Debug, Clone)]
enum Part {
    Prim(u8),
    DisPrim(u8),
    AtLeast(u8, u32),
    AtMost(u8, u32),
    Ref(u8),
    AllPrim(u8, u8),
}

fn role(r: u8) -> RoleId {
    RoleId::from_index(r as usize % N_ROLES)
}

fn prim(k: u8) -> Concept {
    Concept::primitive(Concept::thing(), &format!("p{}", k % 3))
}

/// Resolve a part into a concept; `pos` is the index of the definition
/// being built (or `defs.len()` when building ABox assertions).
fn part_concept(kb: &mut Kb, part: &Part, pos: usize) -> Concept {
    match part {
        Part::Prim(k) => prim(*k),
        Part::DisPrim(k) => {
            Concept::disjoint_primitive(Concept::thing(), "side", &format!("d{}", k % 3))
        }
        Part::AtLeast(r, n) => Concept::AtLeast(*n, role(*r)),
        Part::AtMost(r, m) => Concept::AtMost(*m, role(*r)),
        Part::Ref(j) => {
            if pos == 0 {
                prim(*j)
            } else {
                Concept::Name(
                    kb.schema_mut()
                        .symbols
                        .concept(&format!("C{}", *j as usize % pos)),
                )
            }
        }
        Part::AllPrim(r, k) => Concept::all(role(*r), prim(*k)),
    }
}

/// Unconstrained parts: `AT-LEAST` up to 5 against `AT-MOST` down to 0,
/// plus mutually disjoint primitives — conflicts are common.
fn arb_part() -> impl Strategy<Value = Part> {
    prop_oneof![
        (0u8..3).prop_map(Part::Prim),
        (0u8..3).prop_map(Part::DisPrim),
        (0u8..3, 0u32..6).prop_map(|(r, n)| Part::AtLeast(r, n)),
        (0u8..3, 0u32..4).prop_map(|(r, m)| Part::AtMost(r, m)),
        (0u8..8).prop_map(Part::Ref),
        (0u8..3, 0u8..3).prop_map(|(r, k)| Part::AllPrim(r, k)),
    ]
}

/// Coherent-by-construction parts: every generated `AT-LEAST` is ≤ 2 and
/// every `AT-MOST` is ≥ 3, so no conjunction of these fragments — direct
/// or through `Ref` — can squeeze a role's bounds past each other, and
/// all primitives share one non-disjoint pool.
fn arb_coherent_part() -> impl Strategy<Value = Part> {
    prop_oneof![
        (0u8..3).prop_map(Part::Prim),
        (0u8..3, 0u32..3).prop_map(|(r, n)| Part::AtLeast(r, n)),
        (0u8..3, 3u32..6).prop_map(|(r, m)| Part::AtMost(r, m)),
        (0u8..8).prop_map(Part::Ref),
        (0u8..3, 0u8..3).prop_map(|(r, k)| Part::AllPrim(r, k)),
    ]
}

fn arb_defs() -> impl Strategy<Value = Vec<Vec<Part>>> {
    proptest::collection::vec(proptest::collection::vec(arb_part(), 1..4), 1..8)
}

fn arb_coherent_defs() -> impl Strategy<Value = Vec<Vec<Part>>> {
    proptest::collection::vec(proptest::collection::vec(arb_coherent_part(), 1..4), 1..8)
}

fn build_kb(defs: &[Vec<Part>]) -> Kb {
    let mut kb = Kb::new();
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    for (i, parts) in defs.iter().enumerate() {
        let cs: Vec<Concept> = parts.iter().map(|p| part_concept(&mut kb, p, i)).collect();
        kb.define_concept(&format!("C{i}"), Concept::and(cs))
            .unwrap();
    }
    for j in 0..N_INDS {
        kb.create_ind(&format!("x{j}")).unwrap();
    }
    kb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incoherent_flagged_concepts_have_empty_extensions(
        defs in arb_defs(),
        steps in proptest::collection::vec((0..N_INDS, arb_part()), 0..10),
    ) {
        let mut kb = build_kb(&defs);
        let report = analyze(&kb);
        let flagged: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::IncoherentConcept)
            .filter_map(|d| match &d.span {
                Span::Concept(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        // Populate the ABox; individual rejections are fine (the generator
        // produces inconsistent assertions on purpose).
        let n_defs = defs.len();
        for (i, part) in &steps {
            let c = part_concept(&mut kb, part, n_defs);
            let _ = kb.assert_ind(&format!("x{i}"), &c);
        }
        for name in &flagged {
            let id = kb.schema().symbols.find_concept(name).unwrap();
            let q = Concept::Name(id);
            // Open-world check: nothing is even *possibly* an instance of
            // a concept the analyzer called ⊥.
            let poss = classic_query::Query::concept(q.clone())
                .possible()
                .run(&kb)
                .unwrap()
                .into_possible()
                .unwrap();
            prop_assert!(
                poss.is_empty(),
                "analyzer flagged {name} incoherent but {} individual(s) are possible instances",
                poss.len()
            );
            // Completion check: the update machinery must reject every
            // direct membership assertion.
            for j in 0..N_INDS {
                prop_assert!(
                    kb.assert_ind(&format!("x{j}"), &q).is_err(),
                    "assertion of x{j} under incoherent-flagged {name} was accepted"
                );
            }
        }
    }

    #[test]
    fn clean_tboxes_yield_no_error_diagnostics(defs in arb_coherent_defs()) {
        let kb = build_kb(&defs);
        let report = analyze(&kb);
        prop_assert_eq!(
            report.count(Severity::Error),
            0,
            "false Error on coherent-by-construction TBox:\n{}",
            report.render()
        );
    }
}
