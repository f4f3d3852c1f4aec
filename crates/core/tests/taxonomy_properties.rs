//! Property-based oracle tests for classification: on randomly generated
//! schemas, the pruned two-phase traversal must agree exactly with the
//! brute-force all-pairs classification, and the maintained Hasse diagram
//! must be exactly the transitive reduction of the subsumption preorder.

use classic_core::desc::Concept;
use classic_core::normal::normalize;
use classic_core::schema::Schema;
use classic_core::subsume::subsumes;
use classic_core::symbol::RoleId;
use classic_core::taxonomy::{NodeId, Taxonomy};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N_ROLES: usize = 3;

/// A definition recipe: conjunction of earlier concepts + restrictions.
#[derive(Debug, Clone)]
struct DefRecipe {
    /// Indices (mod number-defined-so-far) of parent concepts to conjoin.
    parents: Vec<usize>,
    /// (role, at_least in 0..3) restrictions.
    at_least: Vec<(usize, u32)>,
    /// (role, at_most in 3..6) restrictions.
    at_most: Vec<(usize, u32)>,
}

fn recipe_strategy() -> impl Strategy<Value = DefRecipe> {
    (
        proptest::collection::vec(0usize..64, 0..3),
        proptest::collection::vec((0usize..N_ROLES, 0u32..3), 0..3),
        proptest::collection::vec((0usize..N_ROLES, 3u32..6), 0..2),
    )
        .prop_map(|(parents, at_least, at_most)| DefRecipe {
            parents,
            at_least,
            at_most,
        })
}

/// Materialize a schema + taxonomy from recipes; returns all normal forms.
fn build(recipes: &[DefRecipe]) -> (Schema, Taxonomy, Vec<classic_core::normal::NormalForm>) {
    let mut schema = Schema::new();
    for i in 0..N_ROLES {
        schema.define_role(&format!("r{i}")).unwrap();
    }
    // A primitive base so not everything collapses to THING.
    schema
        .define_concept("BASE", Concept::primitive(Concept::thing(), "base"))
        .unwrap();
    let base = Concept::Name(schema.symbols.find_concept("BASE").unwrap());
    let mut taxo = Taxonomy::new();
    let base_nf = schema
        .concept_nf(schema.symbols.find_concept("BASE").unwrap())
        .unwrap()
        .clone();
    let base_name = schema.symbols.find_concept("BASE").unwrap();
    taxo.insert(base_name, base_nf.clone());
    let mut nfs = vec![base_nf];
    let mut names = vec![base_name];
    for (i, r) in recipes.iter().enumerate() {
        let mut parts = vec![base.clone()];
        for &p in &r.parents {
            parts.push(Concept::Name(names[p % names.len()]));
        }
        for &(role, n) in &r.at_least {
            parts.push(Concept::AtLeast(n, RoleId::from_index(role)));
        }
        for &(role, m) in &r.at_most {
            parts.push(Concept::AtMost(m, RoleId::from_index(role)));
        }
        let def = Concept::And(parts);
        let name = schema
            .define_concept(&format!("C{i}"), def)
            .expect("well-formed definition");
        let nf = schema.concept_nf(name).unwrap().clone();
        taxo.insert(name, nf.clone());
        nfs.push(nf);
        names.push(name);
    }
    (schema, taxo, nfs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_classification_agrees_with_brute_force(
        recipes in proptest::collection::vec(recipe_strategy(), 1..14),
        probe in recipe_strategy(),
    ) {
        let (schema, taxo, _) = build(&recipes);
        // Classify a fresh probe concept both ways.
        let mut parts = vec![Concept::Name(schema.symbols.find_concept("BASE").unwrap())];
        for &(role, n) in &probe.at_least {
            parts.push(Concept::AtLeast(n, RoleId::from_index(role)));
        }
        for &(role, m) in &probe.at_most {
            parts.push(Concept::AtMost(m, RoleId::from_index(role)));
        }
        let nf = normalize(&Concept::And(parts), &schema).unwrap();
        let pruned = taxo.classify(&nf);
        let brute = taxo.classify_brute(&nf);
        prop_assert_eq!(&pruned.parents, &brute.parents);
        prop_assert_eq!(&pruned.children, &brute.children);
        prop_assert_eq!(pruned.equivalent, brute.equivalent);
        prop_assert!(pruned.tests <= brute.tests);
    }

    #[test]
    fn hasse_diagram_edges_are_subsumptions_with_nothing_between(
        recipes in proptest::collection::vec(recipe_strategy(), 1..12),
    ) {
        let (_, taxo, _) = build(&recipes);
        for node in taxo.interior_nodes() {
            let n = taxo.node(node);
            for &p in &n.parents {
                if p == NodeId::TOP {
                    continue;
                }
                // Edge implies subsumption…
                prop_assert!(
                    subsumes(&taxo.node(p).nf, &n.nf),
                    "edge without subsumption"
                );
                // …and immediacy: no third node strictly between.
                for mid in taxo.interior_nodes() {
                    if mid == node || mid == p {
                        continue;
                    }
                    let m = &taxo.node(mid).nf;
                    let strictly_between = subsumes(&taxo.node(p).nf, m)
                        && !subsumes(m, &taxo.node(p).nf)
                        && subsumes(m, &n.nf)
                        && !subsumes(&n.nf, m);
                    prop_assert!(
                        !strictly_between,
                        "edge {:?}→{:?} skips {:?}",
                        p,
                        node,
                        mid
                    );
                }
            }
        }
    }

    #[test]
    fn reachability_equals_subsumption(
        recipes in proptest::collection::vec(recipe_strategy(), 1..12),
    ) {
        // For every pair of taxonomy nodes: a is an ancestor of b iff
        // a's concept subsumes b's (completeness of the stored DAG).
        let (_, taxo, _) = build(&recipes);
        let nodes: Vec<NodeId> = taxo.interior_nodes().collect();
        for &a in &nodes {
            let descendants: BTreeSet<_> = taxo.strict_descendants(a).collect();
            for &b in &nodes {
                if a == b {
                    continue;
                }
                let subs = subsumes(&taxo.node(a).nf, &taxo.node(b).nf);
                let reach = descendants.contains(&b);
                // Equivalent concepts share a node, so distinct nodes with
                // mutual subsumption cannot occur.
                prop_assert_eq!(
                    subs, reach,
                    "subsumption/reachability mismatch between {:?} and {:?}",
                    a, b
                );
            }
        }
    }

    #[test]
    fn equivalent_insertions_alias(
        recipes in proptest::collection::vec(recipe_strategy(), 1..10),
        dup in 0usize..10,
    ) {
        // Re-inserting an existing definition under a new name aliases
        // onto the same node.
        let (mut schema, mut taxo, nfs) = build(&recipes);
        let pick = dup % nfs.len();
        let alias = schema.symbols.concept("ALIAS");
        let (node, report) = taxo.insert(alias, nfs[pick].clone());
        prop_assert!(report.equivalent.is_some());
        prop_assert!(taxo.node(node).names.contains(&alias));
        prop_assert!(taxo.node(node).names.len() >= 2);
    }
}
