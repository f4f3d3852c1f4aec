//! A software information system, the paper's flagship application.
//!
//! §4: "kandor, the immediate predecessor of CLASSIC, has been used to
//! implement a prototype tool for representing and querying a knowledge
//! base of several hundred concepts (and several thousand individuals)
//! about a large software system and its structure. The knowledge base
//! for this system has already been upgraded to use CLASSIC."
//!
//! The AT&T knowledge base is proprietary; this example builds the
//! synthetic equivalent from `classic-bench`'s generator (modules,
//! functions, call graph, host-valued line counts), then demonstrates the
//! workflows the paper describes: ad-hoc concept queries answered through
//! classification, schema extension over live data, and persistence of
//! the whole KB through the surface-syntax snapshot.
//!
//! Run with: `cargo run --release -p classic-bench --example software_is`

use classic::{Concept, Query};
use classic_bench::workload::software::{build, SoftwareConfig};

fn main() {
    // ---- build the KB at the paper's reported scale -----------------------
    let cfg = SoftwareConfig {
        modules: 40,
        functions: 3_000, // "several thousand individuals"
        ladder: 8,
        ..SoftwareConfig::default()
    };
    let mut sw = build(&cfg);
    println!(
        "software IS: {} individuals, {} named concepts, {} taxonomy nodes",
        sw.kb.ind_count(),
        sw.kb.schema().concept_count(),
        sw.kb.taxonomy().len()
    );

    // ---- ad-hoc queries, answered via classification (§5) ------------------
    for (label, q) in sw.queries() {
        let ans = Query::concept(q)
            .run(&sw.kb)
            .expect("coherent query")
            .into_known()
            .expect("known mode");
        println!(
            "{label}: {} answers ({} free from subsumed concepts, {} tested)",
            ans.known.len(),
            ans.stats.free,
            ans.stats.tested
        );
    }

    // ---- schema grows over live data (§3.1) --------------------------------
    // Define GOD-FUNCTION after the fact; existing functions are
    // immediately recognized.
    let calls = sw.kb.schema().symbols.find_role("calls").expect("r");
    let function = Concept::Name(sw.kb.schema().symbols.find_concept("FUNCTION").expect("c"));
    sw.kb
        .define_concept(
            "GOD-FUNCTION",
            Concept::and([function, Concept::AtLeast(6, calls)]),
        )
        .expect("fresh");
    let god = sw
        .kb
        .schema()
        .symbols
        .find_concept("GOD-FUNCTION")
        .expect("c");
    let gods = sw.kb.instances_of(god).expect("defined");
    println!(
        "GOD-FUNCTION defined after load: {} existing functions recognized",
        gods.len()
    );

    // ---- relational view (§3.5.2) -------------------------------------------
    let db = classic::rel::export_kb(&sw.kb);
    println!(
        "relational export: {} relations, {} tuples",
        db.relation_names().count(),
        db.total_tuples()
    );

    // ---- persistence round-trip ----------------------------------------------
    let snapshot = classic::store::snapshot_to_string(&sw.kb);
    let rebuilt = classic::store::roundtrip(&sw.kb, |_| {}).expect("replayable");
    assert!(classic::store::same_state(&sw.kb, &rebuilt));
    println!(
        "snapshot round-trip OK ({} KiB of CLASSIC surface syntax)",
        snapshot.len() / 1024
    );
    println!("software_is OK");
}
