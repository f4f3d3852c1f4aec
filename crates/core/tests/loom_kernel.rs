//! Loom model test for the shared subsumption kernel.
//!
//! `classic-query` fans instance tests out across scoped threads that
//! share one `&Taxonomy`; every subsumption test they run goes through
//! `Taxonomy::classify(&self)`, which locks the hash-consing/memo kernel
//! (`Mutex<Kernel>`) and extends it concurrently. The soundness claim this
//! models: concurrent classification — with the memo being *written* by
//! all threads at once — returns exactly the results sequential
//! classification returns, for every interleaving of lock acquisitions.
//!
//! Runs under the vendored `loom` stress-subset (randomized yield
//! injection, 64 iterations); against real loom the same test explores
//! interleavings exhaustively.

use classic_core::desc::Concept;
use classic_core::normal::normalize;
use classic_core::schema::Schema;
use classic_core::taxonomy::{NodeId, Taxonomy};
use loom::sync::Arc;
use loom::thread;

/// The schedule-independent part of a classification result (`tests`
/// varies with memo warmth, which depends on the interleaving).
fn shape(c: &classic_core::taxonomy::Classification) -> (Option<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    (c.equivalent, c.parents.clone(), c.children.clone())
}

#[test]
fn concurrent_classification_matches_sequential() {
    // Build the taxonomy once: a small §3-style hierarchy plus a set of
    // ad-hoc query forms that classify at interior positions.
    let mut schema = Schema::new();
    let r = schema.define_role("r").unwrap();
    let s = schema.define_role("s").unwrap();
    let defs: Vec<(&str, Concept)> = vec![
        ("A", Concept::primitive(Concept::thing(), "a")),
        ("B", Concept::primitive(Concept::thing(), "b")),
        ("A1", Concept::AtLeast(1, r)),
        ("A2", Concept::AtLeast(2, r)),
        (
            "A3",
            Concept::and([Concept::AtLeast(2, r), Concept::AtMost(5, s)]),
        ),
    ];
    let mut tax = Taxonomy::new();
    for (name, c) in &defs {
        schema.declare(c);
        let nf = normalize(c, &schema).expect("definition normalizes");
        let id = schema.symbols.concept(name);
        tax.insert(id, nf);
    }
    let queries: Vec<_> = [
        Concept::AtLeast(3, r),
        Concept::and([Concept::AtLeast(1, r), Concept::AtMost(5, s)]),
        Concept::AtLeast(2, r),
        Concept::and([Concept::AtLeast(4, r), Concept::AtMost(2, s)]),
        Concept::AtMost(0, r),
    ]
    .iter()
    .map(|c| normalize(c, &schema).expect("query normalizes"))
    .collect();
    let expected: Vec<_> = queries.iter().map(|nf| shape(&tax.classify(nf))).collect();

    let tax = Arc::new(tax);
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    loom::model(move || {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let tax = Arc::clone(&tax);
                let queries = Arc::clone(&queries);
                let expected = Arc::clone(&expected);
                thread::spawn(move || {
                    // Each thread walks the queries from a different start,
                    // so lock acquisitions interleave on different forms.
                    for k in 0..queries.len() {
                        let i = (k + t) % queries.len();
                        let got = shape(&tax.classify(&queries[i]));
                        assert_eq!(got, expected[i], "query {i} diverged on thread {t}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}
