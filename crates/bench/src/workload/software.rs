//! The software information system workload (experiments E3, E8).
//!
//! The paper reports that kandor (CLASSIC's predecessor) backed "a
//! prototype tool for representing and querying a knowledge base of
//! several hundred concepts (and several thousand individuals) about a
//! large software system and its structure", since upgraded to CLASSIC
//! (§4). That AT&T knowledge base is proprietary, so — per the
//! substitution rule in DESIGN.md — this module generates a deterministic
//! synthetic equivalent of the same shape: modules, files and functions
//! with `defined-in`/`calls`/`imports`/`loc` relationships, a schema of
//! primitive kinds plus a ladder of *defined* concepts, and query
//! workloads that exercise the classification-pruned retrieval of §5.

use classic_core::desc::{Concept, IndRef};
use classic_core::HostValue;
use classic_kb::Kb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the software-IS generator.
#[derive(Debug, Clone)]
pub struct SoftwareConfig {
    pub modules: usize,
    pub functions: usize,
    /// Max outgoing `calls` edges per function.
    pub max_calls: usize,
    /// Extra defined concepts (the `CALLER-{k}` ladder) to widen the
    /// schema, mirroring the "several hundred concepts" scale knob.
    pub ladder: usize,
    pub seed: u64,
}

impl Default for SoftwareConfig {
    fn default() -> Self {
        SoftwareConfig {
            modules: 20,
            functions: 400,
            max_calls: 6,
            ladder: 8,
            seed: 0x50F7_3142,
        }
    }
}

/// Names of the roles/concepts the generated KB guarantees to contain.
pub struct SoftwareKb {
    pub kb: Kb,
    pub cfg: SoftwareConfig,
}

/// Build the software-IS knowledge base.
pub fn build(cfg: &SoftwareConfig) -> SoftwareKb {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut kb = Kb::new();
    // Roles.
    kb.define_role("defined-in").expect("fresh");
    kb.define_role("calls").expect("fresh");
    kb.define_role("imports").expect("fresh");
    kb.define_role("loc").expect("fresh");
    let defined_in = kb.schema().symbols.find_role("defined-in").expect("role");
    let calls = kb.schema().symbols.find_role("calls").expect("role");
    let imports = kb.schema().symbols.find_role("imports").expect("role");
    let loc = kb.schema().symbols.find_role("loc").expect("role");
    // Primitive kinds, mutually disjoint (a software object is exactly one
    // of module/file/function — the §3.4 integrity idiom).
    kb.define_concept(
        "SOFTWARE-OBJECT",
        Concept::primitive(Concept::thing(), "software-object"),
    )
    .expect("fresh");
    let so = Concept::Name(
        kb.schema()
            .symbols
            .find_concept("SOFTWARE-OBJECT")
            .expect("c"),
    );
    for kind in ["MODULE", "FUNCTION", "FILE"] {
        kb.define_concept(
            kind,
            Concept::disjoint_primitive(so.clone(), "sw-kind", &kind.to_lowercase()),
        )
        .expect("fresh");
    }
    let function = Concept::Name(kb.schema().symbols.find_concept("FUNCTION").expect("c"));
    let module = Concept::Name(kb.schema().symbols.find_concept("MODULE").expect("c"));
    // Defined concepts (recognition targets).
    kb.define_concept(
        "DEFINED-FUNCTION",
        Concept::and([function.clone(), Concept::AtLeast(1, defined_in)]),
    )
    .expect("fresh");
    kb.define_concept(
        "LEAF-FUNCTION",
        Concept::and([function.clone(), Concept::AtMost(0, calls)]),
    )
    .expect("fresh");
    kb.define_concept(
        "CONNECTED-MODULE",
        Concept::and([module.clone(), Concept::AtLeast(1, imports)]),
    )
    .expect("fresh");
    // The CALLER-k ladder: functions with at least k outgoing calls.
    for k in 1..=cfg.ladder {
        kb.define_concept(
            &format!("CALLER-{k}"),
            Concept::and([function.clone(), Concept::AtLeast(k as u32, calls)]),
        )
        .expect("fresh");
    }
    // Individuals: modules with imports, functions with defined-in, calls
    // and host-valued loc.
    for m in 0..cfg.modules {
        let name = format!("mod-{m}");
        kb.create_ind(&name).expect("fresh ind");
        kb.assert_ind(&name, &module).expect("coherent");
        if m > 0 && rng.gen_bool(0.7) {
            let target = format!("mod-{}", rng.gen_range(0..m));
            let t = IndRef::Classic(kb.schema_mut().symbols.individual(&target));
            kb.assert_ind(&name, &Concept::Fills(imports, vec![t]))
                .expect("coherent");
        }
    }
    for f in 0..cfg.functions {
        let name = format!("fn-{f}");
        kb.create_ind(&name).expect("fresh ind");
        kb.assert_ind(&name, &function).expect("coherent");
        let m = format!("mod-{}", rng.gen_range(0..cfg.modules));
        let mref = IndRef::Classic(kb.schema_mut().symbols.individual(&m));
        kb.assert_ind(&name, &Concept::Fills(defined_in, vec![mref]))
            .expect("coherent");
        let n_calls = rng.gen_range(0..=cfg.max_calls);
        if n_calls > 0 && f > 0 {
            let targets: Vec<IndRef> = (0..n_calls)
                .map(|_| {
                    let t = format!("fn-{}", rng.gen_range(0..f));
                    IndRef::Classic(kb.schema_mut().symbols.individual(&t))
                })
                .collect();
            kb.assert_ind(&name, &Concept::Fills(calls, targets))
                .expect("coherent");
        } else if rng.gen_bool(0.5) {
            // Provably leaf: calls closed at zero.
            kb.assert_ind(&name, &Concept::Close(calls))
                .expect("coherent");
        }
        let lines = HostValue::Int(rng.gen_range(5..500));
        kb.assert_ind(&name, &Concept::Fills(loc, vec![IndRef::Host(lines)]))
            .expect("coherent");
    }
    SoftwareKb {
        kb,
        cfg: cfg.clone(),
    }
}

impl SoftwareKb {
    /// The query workload: refinements at varying selectivity, phrased as
    /// ad-hoc concepts (not schema names), so retrieval must classify
    /// them (§5's technique) rather than hit the extension index alone.
    pub fn queries(&mut self) -> Vec<(String, Concept)> {
        let s = self.kb.schema_mut();
        let calls = s.symbols.find_role("calls").expect("role");
        let defined_in = s.symbols.find_role("defined-in").expect("role");
        let imports = s.symbols.find_role("imports").expect("role");
        let function = Concept::Name(s.symbols.find_concept("FUNCTION").expect("c"));
        let module = Concept::Name(s.symbols.find_concept("MODULE").expect("c"));
        vec![
            (
                "busy functions (≥3 calls, defined somewhere)".into(),
                Concept::and([
                    function.clone(),
                    Concept::AtLeast(3, calls),
                    Concept::AtLeast(1, defined_in),
                ]),
            ),
            (
                "very busy functions (≥5 calls)".into(),
                Concept::and([function.clone(), Concept::AtLeast(5, calls)]),
            ),
            (
                "provably-leaf functions".into(),
                Concept::and([function.clone(), Concept::AtMost(0, calls)]),
            ),
            (
                "hub modules (≥1 import, ≤8 imports)".into(),
                Concept::and([
                    module,
                    Concept::AtLeast(1, imports),
                    Concept::AtMost(8, imports),
                ]),
            ),
            (
                "defined functions with some call".into(),
                Concept::and([
                    function,
                    Concept::AtLeast(1, defined_in),
                    Concept::AtLeast(1, calls),
                ]),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_recognizes() {
        let mut sw = build(&SoftwareConfig {
            modules: 5,
            functions: 60,
            ..SoftwareConfig::default()
        });
        assert_eq!(sw.kb.ind_count(), 65);
        // Every function with a defined-in is a DEFINED-FUNCTION.
        let df = sw
            .kb
            .schema()
            .symbols
            .find_concept("DEFINED-FUNCTION")
            .expect("c");
        let instances = sw.kb.instances_of(df).expect("defined");
        assert_eq!(instances.len(), 60);
        // Queries agree between pruned and naive retrieval.
        for (label, q) in sw.queries() {
            let a = classic_query::Query::concept(q.clone())
                .run(&sw.kb)
                .expect("query")
                .into_known()
                .expect("known mode");
            let b = classic_query::retrieve_naive(&sw.kb, &q).expect("query");
            let mut x = a.known.clone();
            let mut y = b.known.clone();
            x.sort();
            y.sort();
            assert_eq!(x, y, "pruned/naive disagree on {label}");
            assert!(
                a.stats.tested <= b.stats.tested,
                "pruning tested more candidates on {label}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let cfg = SoftwareConfig {
            modules: 4,
            functions: 30,
            ..SoftwareConfig::default()
        };
        let a = build(&cfg);
        let b = build(&cfg);
        assert_eq!(a.kb.ind_count(), b.kb.ind_count());
        let leaf_a =
            a.kb.schema()
                .symbols
                .find_concept("LEAF-FUNCTION")
                .expect("c");
        let leaf_b =
            b.kb.schema()
                .symbols
                .find_concept("LEAF-FUNCTION")
                .expect("c");
        assert_eq!(
            a.kb.instances_of(leaf_a).expect("ok").len(),
            b.kb.instances_of(leaf_b).expect("ok").len()
        );
    }
}
