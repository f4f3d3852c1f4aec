//! E2 — schema classification cost and taxonomy pruning.
//!
//! Paper §5: "all concepts in the schema are reduced to a normal form,
//! and then are compared to each other to establish the subsumption
//! hierarchy". The naive reading is all-pairs comparison (O(N²)
//! subsumption tests to build a schema of N concepts); the classification
//! traversal this reproduction implements (and the CLASSIC literature
//! describes) prunes: a node's children are only visited when the node
//! subsumes the candidate.
//!
//! Workload: layered synthetic schemas of N ∈ {50 … 1600} defined
//! concepts. Reported: total subsumption tests for the pruned build, the
//! exact all-pairs cost a brute-force build would pay, the ratio, and
//! wall time per definition.

use crate::experiments::{ns_per, time};
use crate::workload::schema_gen::{generate_schema, SchemaGenConfig};
use classic_core::taxonomy::Taxonomy;
use classic_kb::Kb;
use std::fmt::Write as _;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E2: schema classification (pruned vs all-pairs) ======"
    );
    let _ = writeln!(
        out,
        "paper claim (§5): schema concepts are normalized then compared to"
    );
    let _ = writeln!(
        out,
        "establish the subsumption hierarchy; pruning makes this affordable"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "N", "prunedTests", "bruteTests", "ratio", "µs/define", "taxoNodes"
    );
    for n in [50usize, 100, 200, 400, 800, 1600] {
        let cfg = SchemaGenConfig {
            concepts: n,
            layer_width: (n / 8).max(8),
            ..SchemaGenConfig::default()
        };
        let schema = generate_schema(&cfg);
        // Pruned build (the production path), timed.
        let (kb, elapsed) = time(|| schema.build_kb());
        let pruned_tests = kb.kernel_stats().subsume_tests;
        // Brute cost: replay the same definitions, classifying each
        // against the growing taxonomy by comparing against every node in
        // both directions (what a system without traversal pruning pays).
        let brute_tests = brute_build_cost(&schema);
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>12} {:>8.2} {:>12.1} {:>10}",
            n,
            pruned_tests,
            brute_tests,
            brute_tests as f64 / pruned_tests.max(1) as f64,
            ns_per(elapsed, n as u64) / 1000.0,
            kb.taxonomy().len(),
        );
    }
    let _ = writeln!(
        out,
        "expected shape: pruned/brute ratio grows with N (pruning wins more"
    );
    let _ = writeln!(out, "on bigger schemas); µs/define grows slowly with N.");
    out
}

/// Exact all-pairs classification cost for the same definition sequence.
fn brute_build_cost(schema: &crate::workload::schema_gen::GeneratedSchema) -> u64 {
    let mut kb = Kb::new();
    for r in &schema.roles {
        kb.define_role(r).expect("fresh role");
    }
    let mut taxo = Taxonomy::new();
    let mut total = 0u64;
    for (name, def) in &schema.definitions {
        let cname = kb.schema_mut().symbols.concept(name);
        // Define on the KB's schema (for name resolution of later defs)…
        kb.define_concept(name, def.clone())
            .expect("generated definition is well-formed");
        let nf = kb.schema().concept_nf(cname).expect("just defined").clone();
        // …but classify into our shadow taxonomy with the brute method.
        let report = taxo.classify_brute(&nf);
        total += report.tests as u64;
        taxo.insert(cname, nf);
    }
    total
}
