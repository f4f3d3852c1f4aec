//! Property-based tests for the core reasoning invariants.
//!
//! Random concept expressions (including incoherent ones) are generated
//! over a fixed vocabulary; the algebraic laws of normalization and
//! subsumption must hold for all of them:
//!
//! * subsumption is a preorder with ⊤/⊥ as extrema;
//! * `AND` is a greatest-lower-bound-like operation (below both
//!   conjuncts, commutative, associative, idempotent);
//! * normalization is canonical and stable under rendering;
//! * mutual subsumption coincides with structural equality of normal
//!   forms on this language.

use classic_core::desc::{Concept, IndRef};
use classic_core::normal::{normalize, NormalForm};
use classic_core::schema::Schema;
use classic_core::subsume::{disjoint, equivalent, subsumes};
use classic_core::symbol::RoleId;
use classic_core::{HostValue, Layer};
use proptest::prelude::*;

const N_ROLES: usize = 4;
const N_PRIMS: usize = 4;
const N_INDS: usize = 6;

/// Build the fixed vocabulary every generated concept draws from.
fn vocabulary() -> Schema {
    let mut schema = Schema::new();
    for i in 0..N_ROLES {
        schema.define_role(&format!("r{i}")).unwrap();
    }
    for i in 0..N_PRIMS {
        schema
            .define_concept(
                &format!("P{i}"),
                Concept::primitive(Concept::thing(), &format!("p{i}")),
            )
            .unwrap();
    }
    // Two disjoint primitives to exercise clash detection.
    schema
        .define_concept(
            "DLEFT",
            Concept::disjoint_primitive(Concept::thing(), "side", "left"),
        )
        .unwrap();
    schema
        .define_concept(
            "DRIGHT",
            Concept::disjoint_primitive(Concept::thing(), "side", "right"),
        )
        .unwrap();
    for i in 0..N_INDS {
        schema.symbols.individual(&format!("I{i}"));
    }
    schema
}

fn role(i: usize) -> RoleId {
    RoleId::from_index(i % N_ROLES)
}

fn ind_ref(i: usize, schema: &Schema) -> IndRef {
    match i % 8 {
        6 => IndRef::Host(HostValue::Int((i % 3) as i64)),
        7 => IndRef::Host(HostValue::Sym(format!("s{}", i % 2))),
        k => IndRef::Classic(
            schema
                .symbols
                .find_individual(&format!("I{}", k % N_INDS))
                .unwrap(),
        ),
    }
}

/// Strategy for arbitrary (possibly incoherent) concept expressions.
fn concept_strategy() -> impl Strategy<Value = Concept> {
    let leaf = prop_oneof![
        Just(Concept::thing()),
        Just(Concept::Builtin(Layer::Classic)),
        Just(Concept::Builtin(Layer::Host(None))),
        (0usize..N_PRIMS).prop_map(|i| {
            // Resolve names lazily inside apply(); store as marker here.
            Concept::primitive(Concept::thing(), &format!("p{i}"))
        }),
        Just(Concept::disjoint_primitive(
            Concept::thing(),
            "side",
            "left"
        )),
        Just(Concept::disjoint_primitive(
            Concept::thing(),
            "side",
            "right"
        )),
        (0usize..N_ROLES, 0u32..4).prop_map(|(r, n)| Concept::AtLeast(n, role(r))),
        (0usize..N_ROLES, 0u32..4).prop_map(|(r, n)| Concept::AtMost(n, role(r))),
        (0usize..N_ROLES).prop_map(|r| Concept::Close(role(r))),
        proptest::collection::vec(0usize..16, 1..4)
            .prop_map(|ixs| Concept::OneOf(ixs.into_iter().map(OneOfMarker).map(marker).collect())),
        (0usize..N_ROLES, proptest::collection::vec(0usize..16, 1..3)).prop_map(|(r, ixs)| {
            Concept::Fills(
                role(r),
                ixs.into_iter().map(OneOfMarker).map(marker).collect(),
            )
        }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (0usize..N_ROLES, inner.clone()).prop_map(|(r, c)| Concept::all(role(r), c)),
            proptest::collection::vec(inner, 1..4).prop_map(Concept::And),
        ]
    })
}

/// Individuals in strategies are generated as index markers and resolved
/// against the schema at test time (strategies cannot capture the schema).
struct OneOfMarker(usize);

fn marker(m: OneOfMarker) -> IndRef {
    // Placeholder: resolved by `resolve` below. Encode the index in a
    // fresh classic name id; this is safe because the test re-resolves
    // every IndRef before use.
    IndRef::Classic(classic_core::IndName::from_index(m.0))
}

/// Re-resolve placeholder individual references against the schema.
fn resolve(c: &Concept, schema: &Schema) -> Concept {
    match c {
        Concept::OneOf(inds) => {
            Concept::OneOf(inds.iter().map(|i| resolve_ind(i, schema)).collect())
        }
        Concept::Fills(r, inds) => {
            Concept::Fills(*r, inds.iter().map(|i| resolve_ind(i, schema)).collect())
        }
        Concept::All(r, inner) => Concept::all(*r, resolve(inner, schema)),
        Concept::And(parts) => Concept::And(parts.iter().map(|p| resolve(p, schema)).collect()),
        Concept::Primitive { parent, index } => Concept::Primitive {
            parent: Box::new(resolve(parent, schema)),
            index: index.clone(),
        },
        Concept::DisjointPrimitive {
            parent,
            grouping,
            index,
        } => Concept::DisjointPrimitive {
            parent: Box::new(resolve(parent, schema)),
            grouping: grouping.clone(),
            index: index.clone(),
        },
        other => other.clone(),
    }
}

fn resolve_ind(i: &IndRef, schema: &Schema) -> IndRef {
    match i {
        IndRef::Classic(n) => ind_ref(n.index(), schema),
        host => host.clone(),
    }
}

/// Replace `CLOSE` with `THING` throughout.
///
/// `CLOSE` is the paper's §3.2 *update operator*, reified as a descriptor
/// for uniformity: its meaning is contextual (it closes the role over the
/// sibling `FILLS` in the same expression), so compositionality laws that
/// compare separately-normalized conjuncts against the jointly-normalized
/// conjunction only hold on the closure-free fragment. The contextual
/// behavior itself is pinned by unit tests in `normal_tests.rs`.
fn strip_close(c: &Concept) -> Concept {
    match c {
        Concept::Close(_) => Concept::thing(),
        Concept::All(r, inner) => Concept::all(*r, strip_close(inner)),
        Concept::And(parts) => Concept::And(parts.iter().map(strip_close).collect()),
        Concept::Primitive { parent, index } => Concept::Primitive {
            parent: Box::new(strip_close(parent)),
            index: index.clone(),
        },
        Concept::DisjointPrimitive {
            parent,
            grouping,
            index,
        } => Concept::DisjointPrimitive {
            parent: Box::new(strip_close(parent)),
            grouping: grouping.clone(),
            index: index.clone(),
        },
        other => other.clone(),
    }
}

fn norm(c: &Concept, schema: &mut Schema) -> NormalForm {
    let resolved = resolve(c, schema);
    normalize(&resolved, schema).expect("vocabulary is fully declared")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn normalization_never_panics_and_is_stable(c in concept_strategy()) {
        let mut schema = vocabulary();
        let n1 = norm(&c, &mut schema);
        // Rendering and re-normalizing is the identity on normal forms.
        let rendered = n1.to_concept(&schema);
        let n2 = normalize(&rendered, &schema).expect("rendered form is well-formed");
        prop_assert_eq!(n1, n2);
    }

    #[test]
    fn subsumption_is_reflexive(c in concept_strategy()) {
        let mut schema = vocabulary();
        let n = norm(&c, &mut schema);
        prop_assert!(subsumes(&n, &n));
    }

    #[test]
    fn top_and_bottom_are_extrema(c in concept_strategy()) {
        let mut schema = vocabulary();
        let n = norm(&c, &mut schema);
        let top = NormalForm::top();
        let bot = NormalForm::bottom(classic_core::Clash::Incoherent);
        prop_assert!(subsumes(&top, &n));
        prop_assert!(subsumes(&n, &bot));
    }

    #[test]
    fn and_is_below_both_conjuncts(a in concept_strategy(), b in concept_strategy()) {
        // Closure-free fragment: see `strip_close`.
        let schema = vocabulary();
        let ra = strip_close(&resolve(&a, &schema));
        let rb = strip_close(&resolve(&b, &schema));
        let na = normalize(&ra, &schema).unwrap();
        let nb = normalize(&rb, &schema).unwrap();
        let nab = normalize(&Concept::And(vec![ra, rb]), &schema).unwrap();
        prop_assert!(subsumes(&na, &nab));
        prop_assert!(subsumes(&nb, &nab));
    }

    #[test]
    fn and_is_commutative_and_idempotent(a in concept_strategy(), b in concept_strategy()) {
        let schema = vocabulary();
        let ra = resolve(&a, &schema);
        let rb = resolve(&b, &schema);
        let ab = normalize(&Concept::And(vec![ra.clone(), rb.clone()]), &schema).unwrap();
        let ba = normalize(&Concept::And(vec![rb, ra.clone()]), &schema).unwrap();
        prop_assert_eq!(&ab, &ba);
        let aa = normalize(&Concept::And(vec![ra.clone(), ra.clone()]), &schema).unwrap();
        let just_a = normalize(&ra, &schema).unwrap();
        prop_assert_eq!(aa, just_a);
    }

    #[test]
    fn and_is_associative(
        a in concept_strategy(),
        b in concept_strategy(),
        c in concept_strategy(),
    ) {
        let schema = vocabulary();
        let (ra, rb, rc) = (resolve(&a, &schema), resolve(&b, &schema), resolve(&c, &schema));
        let left = normalize(
            &Concept::And(vec![Concept::And(vec![ra.clone(), rb.clone()]), rc.clone()]),
            &schema,
        ).unwrap();
        let right = normalize(
            &Concept::And(vec![ra, Concept::And(vec![rb, rc])]),
            &schema,
        ).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn subsumption_is_transitive_on_refinement_chains(
        a in concept_strategy(),
        b in concept_strategy(),
        c in concept_strategy(),
    ) {
        // a ⊒ a∧b ⊒ a∧b∧c must hold end to end (closure-free fragment:
        // see `strip_close`).
        let schema = vocabulary();
        let (ra, rb, rc) = (
            strip_close(&resolve(&a, &schema)),
            strip_close(&resolve(&b, &schema)),
            strip_close(&resolve(&c, &schema)),
        );
        let na = normalize(&ra, &schema).unwrap();
        let nab = normalize(&Concept::And(vec![ra.clone(), rb.clone()]), &schema).unwrap();
        let nabc = normalize(&Concept::And(vec![ra, rb, rc]), &schema).unwrap();
        prop_assert!(subsumes(&na, &nab));
        prop_assert!(subsumes(&nab, &nabc));
        prop_assert!(subsumes(&na, &nabc), "transitivity broken");
    }

    #[test]
    fn mutual_subsumption_matches_structural_equality(
        a in concept_strategy(),
        b in concept_strategy(),
    ) {
        let mut schema = vocabulary();
        let na = norm(&a, &mut schema);
        let nb = norm(&b, &mut schema);
        let mutual = subsumes(&na, &nb) && subsumes(&nb, &na);
        prop_assert_eq!(mutual, na == nb);
        prop_assert_eq!(equivalent(&na, &nb), mutual);
    }

    #[test]
    fn all_distributes_over_and(a in concept_strategy(), b in concept_strategy()) {
        // (ALL r (AND a b)) ≡ (AND (ALL r a) (ALL r b)) — paper §2.2.
        let schema = vocabulary();
        let r = role(0);
        let ra = resolve(&a, &schema);
        let rb = resolve(&b, &schema);
        let joined = normalize(
            &Concept::all(r, Concept::And(vec![ra.clone(), rb.clone()])),
            &schema,
        ).unwrap();
        let split = normalize(
            &Concept::And(vec![Concept::all(r, ra), Concept::all(r, rb)]),
            &schema,
        ).unwrap();
        prop_assert_eq!(joined, split);
    }

    #[test]
    fn disjointness_is_symmetric_and_consistent(
        a in concept_strategy(),
        b in concept_strategy(),
    ) {
        let mut schema = vocabulary();
        let na = norm(&a, &mut schema);
        let nb = norm(&b, &mut schema);
        let d1 = disjoint(&na, &nb, &schema);
        let d2 = disjoint(&nb, &na, &schema);
        prop_assert_eq!(d1, d2);
        // Coherent concepts subsumed by each other cannot be disjoint.
        if !na.is_incoherent() && equivalent(&na, &nb) {
            prop_assert!(!d1);
        }
    }

    #[test]
    fn conjoining_preserves_incoherence(a in concept_strategy(), b in concept_strategy()) {
        let mut schema = vocabulary();
        let na = norm(&a, &mut schema);
        let nb = norm(&b, &mut schema);
        let mut meet = na.clone();
        meet.conjoin(&nb, &schema);
        if na.is_incoherent() || nb.is_incoherent() {
            prop_assert!(meet.is_incoherent());
        }
        // And the meet is below both (when all are compared as sets).
        prop_assert!(subsumes(&na, &meet));
        prop_assert!(subsumes(&nb, &meet));
    }

    #[test]
    fn size_is_positive_and_bounded(c in concept_strategy()) {
        let schema = vocabulary();
        let resolved = resolve(&c, &schema);
        let n = normalize(&resolved, &schema).unwrap();
        prop_assert!(n.size() >= 1);
        // Normalization may derive facts but its size stays within a
        // constant factor of the input (no blow-up): generous bound.
        prop_assert!(n.size() <= resolved.size() * 8 + 64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cross-validation of two decision procedures: structural
    /// subsumption must coincide with the lattice characterization
    /// `a ⊒ b ⟺ a ⊓ b ≡ b` (closure-free fragment — see `strip_close`).
    /// The two paths share almost no code (one walks the subsumer's
    /// structure, the other conjoins and compares canonical forms), so
    /// agreement here is strong evidence both are right.
    #[test]
    fn subsumption_agrees_with_meet_characterization(
        a in concept_strategy(),
        b in concept_strategy(),
    ) {
        let schema = vocabulary();
        let ra = strip_close(&resolve(&a, &schema));
        let rb = strip_close(&resolve(&b, &schema));
        let na = normalize(&ra, &schema).unwrap();
        let nb = normalize(&rb, &schema).unwrap();
        let via_subsume = subsumes(&na, &nb);
        let meet = normalize(
            &Concept::And(vec![ra, rb]),
            &schema,
        ).unwrap();
        let via_meet = meet == nb;
        prop_assert_eq!(
            via_subsume, via_meet,
            "subsumes={} but (a⊓b==b)={}",
            via_subsume, via_meet
        );
    }
}
