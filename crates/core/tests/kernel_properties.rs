//! Property-based cross-validation of classification and the bitset
//! taxonomy closure against the plain (exhaustive, edge-walking)
//! procedures.
//!
//! The taxonomy answers reachability from transitive-closure bitsets and
//! prunes its classification walk with them; both are pure
//! accelerations, so on every generated input they must agree exactly
//! with the originals:
//!
//! * `classify` (pruned walk + bitsets) ≡ `classify_brute` (exhaustive
//!   scan) on randomly grown schemas, for parents, children, and
//!   equivalence. Unlike `taxonomy_properties.rs`, the generator here
//!   draws primitives, `ALL` restrictions and incoherent conjunctions;
//! * the bitset rows are transposes of each other and exclude the node.

use classic_core::desc::Concept;
use classic_core::normal::{normalize, NormalForm};
use classic_core::schema::Schema;
use classic_core::symbol::RoleId;
use classic_core::taxonomy::Taxonomy;
use proptest::prelude::*;

const N_ROLES: usize = 3;
const N_PRIMS: usize = 3;

/// The fixed vocabulary every generated concept draws from.
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
    schema
}

fn role(i: usize) -> RoleId {
    RoleId::from_index(i % N_ROLES)
}

/// One conjunct: a primitive, a number restriction, or a value
/// restriction on a primitive. Conjunctions of these produce a rich
/// subsumption lattice (including incoherent corners via
/// `AT-LEAST n > AT-MOST m`).
fn conjunct_strategy() -> impl Strategy<Value = Concept> {
    prop_oneof![
        (0usize..N_PRIMS).prop_map(|i| Concept::primitive(Concept::thing(), &format!("p{i}"))),
        (0usize..N_ROLES, 0u32..4).prop_map(|(r, n)| Concept::AtLeast(n, role(r))),
        (0usize..N_ROLES, 0u32..4).prop_map(|(r, n)| Concept::AtMost(n, role(r))),
        (0usize..N_ROLES, 0usize..N_PRIMS).prop_map(|(r, p)| Concept::all(
            role(r),
            Concept::primitive(Concept::thing(), &format!("p{p}"))
        )),
    ]
}

/// A small conjunction over the fixed vocabulary.
fn concept_strategy() -> impl Strategy<Value = Concept> {
    proptest::collection::vec(conjunct_strategy(), 1..4).prop_map(Concept::And)
}

fn norm(c: &Concept, schema: &mut Schema) -> NormalForm {
    normalize(c, schema).expect("vocabulary is fully declared")
}

/// Grow a taxonomy from a list of generated definitions. Incoherent
/// definitions are skipped (`Schema::define_concept` rejects ⊥), mirroring
/// what a knowledge base does.
fn grow(defs: &[Concept]) -> (Schema, Taxonomy) {
    let mut schema = vocabulary();
    let mut taxo = Taxonomy::new();
    for (i, c) in defs.iter().enumerate() {
        if let Ok(id) = schema.define_concept(&format!("C{i}"), c.clone()) {
            let nf = schema.concept_nf(id).unwrap().clone();
            taxo.insert(id, nf);
        }
    }
    (schema, taxo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The pruned classification agrees with the exhaustive brute-force
    /// scan on randomly grown schemas.
    #[test]
    fn classification_paths_agree_on_random_schemas(
        defs in proptest::collection::vec(concept_strategy(), 2..10),
        queries in proptest::collection::vec(concept_strategy(), 1..5),
    ) {
        let (mut schema, taxo) = grow(&defs);
        for q in &queries {
            let nf = norm(q, &mut schema);
            let fast = taxo.classify(&nf);
            let brute = taxo.classify_brute(&nf);
            prop_assert_eq!(&fast.parents, &brute.parents);
            prop_assert_eq!(&fast.children, &brute.children);
            prop_assert_eq!(fast.equivalent, brute.equivalent);
        }
    }

    /// The bitset closure answers reachability exactly like an edge walk,
    /// node by node, on randomly grown schemas.
    #[test]
    fn bitset_reachability_matches_edge_structure(
        defs in proptest::collection::vec(concept_strategy(), 2..12),
    ) {
        use classic_core::taxonomy::NodeId;
        let (_schema, taxo) = grow(&defs);
        let all: Vec<NodeId> = taxo
            .interior_nodes()
            .chain([NodeId::TOP, NodeId::BOTTOM])
            .collect();
        for &a in &all {
            let desc = taxo.strict_descendants(a);
            let anc = taxo.strict_ancestors(a);
            prop_assert!(!desc.contains(&a), "strict sets exclude the node");
            prop_assert!(!anc.contains(&a), "strict sets exclude the node");
            for &d in &desc {
                prop_assert!(taxo.is_strict_ancestor(a, d));
                prop_assert!(
                    taxo.strict_ancestors(d).contains(&a),
                    "ancestor/descendant rows must be transposes"
                );
            }
        }
    }
}
