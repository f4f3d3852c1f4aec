//! Scale smoke test at the paper's reported application size ("several
//! hundred concepts … several thousand individuals", §4): all the
//! cross-cutting invariants must survive a database three orders of
//! magnitude beyond the unit-test fixtures.

use classic_bench::workload::software::{build, SoftwareConfig};

#[test]
fn invariants_hold_at_several_thousand_individuals() {
    let cfg = SoftwareConfig {
        modules: 40,
        functions: 1_500,
        ladder: 8,
        ..SoftwareConfig::default()
    };
    let mut sw = build(&cfg);
    assert!(sw.kb.ind_count() > 1_500);

    // 1. Classified retrieval agrees with the naive scan on every query,
    //    with fewer candidate tests.
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
        assert_eq!(x, y, "disagreement on {label}");
        assert!(a.stats.tested <= b.stats.tested);
    }

    // 2. Extension index consistency over the whole database.
    for id in sw.kb.ind_ids() {
        for node in sw.kb.ind(id).msc() {
            let mut found = false;
            sw.kb.for_each_instance(node, |i| found |= i == id);
            assert!(found, "extension index missing an instance");
        }
    }

    // 3. No committed individual is incoherent.
    for id in sw.kb.ind_ids() {
        assert!(!sw.kb.ind(id).derived().is_incoherent());
    }

    // 4. The whole database persists and replays identically.
    let rebuilt = classic_store::roundtrip(&sw.kb, |_| {}).expect("replay");
    assert!(classic_store::same_state(&sw.kb, &rebuilt));

    // 5. The relational export is consistent with the KB's known facts.
    let db = classic_rel::export_kb(&sw.kb);
    let functions = sw
        .kb
        .schema()
        .symbols
        .find_concept("FUNCTION")
        .expect("defined");
    let classic_count = sw.kb.instances_of(functions).expect("defined").len();
    let rel_count = db.relation("concept:FUNCTION").expect("exported").len();
    assert_eq!(classic_count, rel_count);
}
