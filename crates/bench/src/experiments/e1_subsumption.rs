//! E1 — subsumption complexity.
//!
//! Paper §5: "The subsumption relationship is established in time
//! proportional to the sizes of the two concepts" and "our current
//! algorithm for subsumption has low-order polynomial complexity."
//!
//! Workload: seeded random coherent concept pairs with structural sizes
//! n ∈ {8 … 512}. For each size we normalize once, then time
//! `subsumes(a, a ⊓ b)` (a full traversal that must succeed) and
//! `subsumes(a, b)` (typically failing early). The table reports ns/op
//! and the normalized quotient ns / (|a|·|b|): the paper's claim predicts
//! the quotient stays roughly flat (bounded) as sizes grow, rather than
//! growing with n.

use crate::experiments::{ns_per, time};
use crate::workload::concepts::{ConceptGen, ConceptGenConfig};
use classic_core::desc::Concept;
use classic_core::normal::normalize;
use classic_core::subsume::subsumes;
use std::fmt::Write as _;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E1: subsumption time vs concept size ================="
    );
    let _ = writeln!(
        out,
        "paper claim (§5): time proportional to the product of concept sizes"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>12} {:>14} {:>12}",
        "size", "|a|·|b|", "pairs", "ns/subsume", "ns/(|a|·|b|)", "hit-rate"
    );
    let mut g = ConceptGen::new(&ConceptGenConfig::default());
    for target in [8usize, 16, 32, 64, 128, 256, 512] {
        // Pre-generate and pre-normalize the pairs: E1 times subsumption
        // alone (normalization is E5).
        let pairs = 64usize;
        let mut prepared = Vec::with_capacity(pairs);
        let mut size_product_sum = 0u64;
        for _ in 0..pairs {
            let a = g.concept(target);
            let b = g.concept(target);
            let both = Concept::And(vec![a.clone(), b.clone()]);
            let na = normalize(&a, &g.schema).expect("coherent");
            let nb = normalize(&b, &g.schema).expect("coherent");
            let nboth = normalize(&both, &g.schema).expect("coherent");
            size_product_sum += (na.size() * nboth.size()) as u64;
            prepared.push((na, nb, nboth));
        }
        let reps = 16u64;
        let mut hits = 0u64;
        let (_, elapsed) = time(|| {
            for _ in 0..reps {
                for (na, nb, nboth) in &prepared {
                    // Must-succeed full traversal…
                    if subsumes(na, nboth) {
                        hits += 1;
                    }
                    // …and a typically-failing comparison.
                    if subsumes(na, nb) {
                        hits += 1;
                    }
                }
            }
        });
        let ops = reps * pairs as u64 * 2;
        let avg_product = size_product_sum as f64 / pairs as f64;
        let nsop = ns_per(elapsed, ops);
        let _ = writeln!(
            out,
            "{:>6} {:>8.0} {:>8} {:>12.1} {:>14.4} {:>11.1}%",
            target,
            avg_product,
            pairs,
            nsop,
            nsop / avg_product,
            100.0 * hits as f64 / ops as f64,
        );
    }
    let _ = writeln!(
        out,
        "expected shape: ns/(|a|·|b|) bounded above and non-increasing (the"
    );
    let _ = writeln!(
        out,
        "paper claims an upper bound proportional to the size product; early"
    );
    let _ = writeln!(
        out,
        "exits and subset checks only make real runs cheaper than the bound);"
    );
    let _ = writeln!(out, "ns/subsume grows low-order polynomially with size.");
    out
}
