//! E5 — normalization and the §2.2 equivalences.
//!
//! Paper §2.2 exhibits concept pairs that "denote the same class":
//!
//! 1. `(AND (ALL r CAR) (ALL r EXPENSIVE-THING))`
//!    ≡ `(ALL r (AND CAR EXPENSIVE-THING))`
//! 2. `(ALL r (AND (ONE-OF Ford-1 Volvo-2 Toyota-3)
//!                 (ONE-OF Volvo-2 Toyota-3 VW-4)))`
//!    ≡ `(AND (ALL r (ONE-OF Volvo-2 Toyota-3)) (AT-MOST 2 r))`
//!
//! "The recognition of all the necessary equivalences is the kind of
//! inference that is at the core of the limited deduction and query
//! processing performed by the CLASSIC system."
//!
//! This experiment (a) checks both worked examples normalize to
//! *identical* normal forms, (b) generates random equivalent pairs by
//! running the equivalences backwards and confirms a 100% identification
//! rate, and (c) measures normalization cost vs expression size.

use crate::experiments::{ns_per, time};
use crate::workload::concepts::{ConceptGen, ConceptGenConfig};
use classic_core::normal::normalize;
use classic_lang::parse_concept;
use std::fmt::Write as _;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E5: normalization identifies the §2.2 equivalences ===="
    );

    // (a) The paper's worked examples, verbatim through the parser.
    let mut g = ConceptGen::new(&ConceptGenConfig::default());
    g.schema.define_role("thing-driven").expect("fresh");
    g.schema
        .define_concept(
            "CAR",
            classic_core::Concept::primitive(classic_core::Concept::thing(), "car"),
        )
        .expect("fresh");
    g.schema
        .define_concept(
            "EXPENSIVE-THING",
            classic_core::Concept::primitive(classic_core::Concept::thing(), "expensive"),
        )
        .expect("fresh");
    let worked = [
        (
            "(AND (ALL thing-driven CAR) (ALL thing-driven EXPENSIVE-THING))",
            "(ALL thing-driven (AND CAR EXPENSIVE-THING))",
        ),
        (
            "(ALL thing-driven (AND (ONE-OF Ford-1 Volvo-2 Toyota-3) \
                                    (ONE-OF Volvo-2 Toyota-3 VW-4)))",
            "(AND (ALL thing-driven (ONE-OF Volvo-2 Toyota-3)) (AT-MOST 2 thing-driven))",
        ),
    ];
    for (i, (a, b)) in worked.iter().enumerate() {
        let ca = parse_concept(a, &mut g.schema).expect("parses");
        let cb = parse_concept(b, &mut g.schema).expect("parses");
        let na = normalize(&ca, &g.schema).expect("coherent");
        let nb = normalize(&cb, &g.schema).expect("coherent");
        let _ = writeln!(
            out,
            "paper example {}: identical normal forms = {}",
            i + 1,
            na == nb
        );
        assert_eq!(na, nb, "paper §2.2 example {} must normalize equal", i + 1);
    }

    // (b)+(c) Random equivalent pairs, identification rate and cost.
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>10} {:>12} {:>14}",
        "size", "pairs", "identified", "µs/normalize", "ns/size-unit"
    );
    for target in [8usize, 16, 32, 64, 128, 256] {
        let pairs = 48usize;
        let mut generated = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            generated.push(g.equivalent_pair(target));
        }
        let mut identified = 0usize;
        let mut size_sum = 0usize;
        let (_, elapsed) = time(|| {
            for (a, b) in &generated {
                size_sum += a.size() + b.size();
                let na = normalize(a, &g.schema).expect("coherent");
                let nb = normalize(b, &g.schema).expect("coherent");
                if na == nb {
                    identified += 1;
                }
            }
        });
        assert_eq!(
            identified, pairs,
            "every equivalent pair must be identified"
        );
        let ops = (pairs * 2) as u64;
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>9}% {:>12.1} {:>14.1}",
            target,
            pairs,
            100 * identified / pairs,
            ns_per(elapsed, ops) / 1000.0,
            ns_per(elapsed, ops) / (size_sum as f64 / ops as f64),
        );
    }
    let _ = writeln!(
        out,
        "expected shape: 100% identification (canonical normal forms);"
    );
    let _ = writeln!(
        out,
        "normalization cost low-order polynomial in expression size."
    );
    out
}
