//! E8 — ablations of the design choices §5 calls out.
//!
//! The paper motivates three implementation decisions; each ablation
//! removes one and measures the cost on a fixed software-IS workload:
//!
//! * **A1 — taxonomy pruning off.** Retrieval tests every individual
//!   instead of classifying the query (§5's central technique).
//! * **A2 — extension index off.** The query is still classified, but
//!   candidates are drawn from the whole database rather than the
//!   most-specific subsumers' extensions (isolates the index's
//!   contribution from subsumee short-circuiting).
//! * **A3 — normal-form reuse off.** The query is re-normalized on every
//!   execution instead of once ("a great deal of preprocessing in order
//!   to facilitate query answering", §5).
//! * **A4 — filler postings off.** Candidates come from the most
//!   selective most-specific subsumer's extension only, never from the
//!   reverse-filler index of an individual the query names as a filler,
//!   nor from the value posting of a host value it names. Run on its own
//!   queries, in two groups — `FILLS defined-in` / `FILLS calls`, and
//!   `FILLS loc` — since the five above name no filler, so postings do
//!   not change their rows.

use crate::experiments::{ns_per, time};
use crate::workload::software::{build, SoftwareConfig};
use classic_core::desc::{Concept, IndRef};
use classic_core::host::HostValue;
use classic_core::normal::NormalForm;
use classic_kb::{IndId, Kb};
use std::fmt::Write as _;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E8: ablations (fixed workload: 8000 functions) ========="
    );
    let cfg = SoftwareConfig {
        modules: 320,
        functions: 8_000,
        ..SoftwareConfig::default()
    };
    let mut sw = build(&cfg);
    let queries = sw.queries();
    let nfs: Vec<NormalForm> = queries
        .iter()
        .map(|(_, q)| sw.kb.normalize(q).expect("coherent"))
        .collect();
    let reps = 8usize;
    let n_q = (reps * nfs.len()) as u64;
    // Warm caches so the first-measured configuration isn't penalized.
    for nf in &nfs {
        let _ = classic_query::retrieve_nf(&sw.kb, nf).expect("retrieval");
        let _ = classic_query::retrieve_naive_nf(&sw.kb, nf).expect("retrieval");
    }

    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>12} {:>9}",
        "configuration", "tests/q", "µs/query", "slowdown"
    );

    // Full system.
    let mut tested = 0u64;
    let (_, t_full) = time(|| {
        for _ in 0..reps {
            for nf in &nfs {
                tested += classic_query::retrieve_nf(&sw.kb, nf)
                    .expect("retrieval")
                    .stats
                    .tested as u64;
            }
        }
    });
    let base = t_full.as_secs_f64();
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>12.1} {:>8.1}x",
        "full system (classified, indexed, cached NF)",
        tested / n_q,
        ns_per(t_full, n_q) / 1000.0,
        1.0
    );

    // A1: no classification — scan everything.
    let mut tested = 0u64;
    let (_, t_naive) = time(|| {
        for _ in 0..reps {
            for nf in &nfs {
                tested += classic_query::retrieve_naive_nf(&sw.kb, nf)
                    .expect("retrieval")
                    .stats
                    .tested as u64;
            }
        }
    });
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>12.1} {:>8.1}x",
        "A1: taxonomy pruning off (naive scan)",
        tested / n_q,
        ns_per(t_naive, n_q) / 1000.0,
        t_naive.as_secs_f64() / base
    );

    // A2: classified but candidates = whole database.
    let mut tested = 0u64;
    let (_, t_noindex) = time(|| {
        for _ in 0..reps {
            for nf in &nfs {
                tested += retrieve_without_extension_index(&sw.kb, nf) as u64;
            }
        }
    });
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>12.1} {:>8.1}x",
        "A2: extension index off (classify, scan all)",
        tested / n_q,
        ns_per(t_noindex, n_q) / 1000.0,
        t_noindex.as_secs_f64() / base
    );

    // A3: re-normalize the query expression every execution.
    let mut tested = 0u64;
    let (_, t_renorm) = time(|| {
        for _ in 0..reps {
            for (_, q) in &queries {
                let nf = sw.kb.normalize(q).expect("coherent");
                tested += classic_query::retrieve_nf(&sw.kb, &nf)
                    .expect("retrieval")
                    .stats
                    .tested as u64;
            }
        }
    });
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>12.1} {:>8.1}x",
        "A3: normal-form reuse off (re-normalize/query)",
        tested / n_q,
        ns_per(t_renorm, n_q) / 1000.0,
        t_renorm.as_secs_f64() / base
    );

    let _ = writeln!(
        out,
        "expected shape: A1 and A2 well above full (the §5 technique is the"
    );
    let _ = writeln!(
        out,
        "big win); A3 statistically indistinguishable from full at this"
    );
    let _ = writeln!(
        out,
        "query size (re-normalizing a ~10-node query costs microseconds"
    );
    let _ = writeln!(
        out,
        "against a ~0.5 ms retrieval) — the preprocessing §5 celebrates"
    );
    let _ = writeln!(out, "matters as queries and schemas grow, not here.");
    filler_postings_ablation(&mut sw.kb, reps, &mut out);
    out
}

/// A4: the same retrieval with candidates from the taxonomy alone, on
/// queries that name a module or a function as a filler, then on queries
/// that name a host value.
fn filler_postings_ablation(kb: &mut Kb, reps: usize, out: &mut String) {
    let symbols = &mut kb.schema_mut().symbols;
    let defined_in = symbols.find_role("defined-in").expect("role");
    let calls = symbols.find_role("calls").expect("role");
    let loc = symbols.find_role("loc").expect("role");
    let function = Concept::Name(symbols.find_concept("FUNCTION").expect("c"));
    let lines = |n: i64| vec![IndRef::Host(HostValue::Int(n))];
    let valued = [
        Concept::and([function.clone(), Concept::Fills(loc, lines(100))]),
        Concept::and([
            function.clone(),
            Concept::AtLeast(2, calls),
            Concept::Fills(loc, lines(250)),
        ]),
    ];
    let mut named = |name: &str| vec![IndRef::Classic(symbols.individual(name))];
    let named = [
        Concept::and([function.clone(), Concept::Fills(defined_in, named("mod-7"))]),
        Concept::and([function.clone(), Concept::Fills(calls, named("fn-3"))]),
        Concept::and([
            function.clone(),
            Concept::AtLeast(2, calls),
            Concept::Fills(defined_in, named("mod-11")),
        ]),
        Concept::and([
            function,
            Concept::Fills(calls, named("fn-0")),
            Concept::Fills(defined_in, named("mod-3")),
        ]),
    ];
    ablate_postings(kb, &named, "FILLS defined-in / FILLS calls", reps, out);
    ablate_postings(kb, &valued, "FILLS loc", reps, out);
}

/// One group of A4's queries: assert that the answers are the same with
/// and without postings, and print tests/query and time for both.
fn ablate_postings(kb: &Kb, queries: &[Concept], what: &str, reps: usize, out: &mut String) {
    let nfs: Vec<NormalForm> = queries
        .iter()
        .map(|q| kb.normalize(q).expect("coherent"))
        .collect();
    for nf in &nfs {
        let with = classic_query::retrieve_nf(kb, nf).expect("retrieval");
        let (without, _) = retrieve_taxonomy_candidates(kb, nf);
        assert_eq!(with.known, without, "A4 changed an answer");
    }
    let n_q = (reps * nfs.len()) as u64;
    let mut tested = 0u64;
    let (_, t_on) = time(|| {
        for _ in 0..reps {
            for nf in &nfs {
                tested += classic_query::retrieve_nf(kb, nf)
                    .expect("retrieval")
                    .stats
                    .tested as u64;
            }
        }
    });
    let tested_on = tested;
    let mut tested = 0u64;
    let (_, t_off) = time(|| {
        for _ in 0..reps {
            for nf in &nfs {
                tested += retrieve_taxonomy_candidates(kb, nf).1 as u64;
            }
        }
    });
    let _ = writeln!(out, "-- A4 on {} {what} queries --", nfs.len());
    for (label, tests, t) in [
        ("full system (filler postings on)", tested_on, t_on),
        ("A4: filler postings off (taxonomy only)", tested, t_off),
    ] {
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12.1} {:>8.1}x",
            label,
            tests / n_q,
            ns_per(t, n_q) / 1000.0,
            t.as_secs_f64() / t_on.as_secs_f64()
        );
    }
}

/// Retrieval with the candidate rule before filler postings: free
/// answers from the subsumees, candidates from the most selective
/// parent's extension. Returns the answer (ascending) and the count of
/// candidates tested.
fn retrieve_taxonomy_candidates(kb: &Kb, nf: &NormalForm) -> (Vec<IndId>, usize) {
    let instances = |node| {
        let mut ids = Vec::new();
        kb.for_each_instance(node, |id| ids.push(id));
        ids.sort();
        ids.dedup();
        ids
    };
    let cls = kb.taxonomy().classify(nf);
    if let Some(eq) = cls.equivalent {
        return (instances(eq), 0);
    }
    let mut known: Vec<IndId> = cls.children.iter().flat_map(|&c| instances(c)).collect();
    known.sort();
    known.dedup();
    // The parent with the fewest extension entries, duplicates counted.
    let extent = |node| {
        let mut n = 0usize;
        kb.for_each_instance(node, |_| n += 1);
        n
    };
    let Some(best) = cls.parents.iter().copied().min_by_key(|&p| extent(p)) else {
        return (known, 0);
    };
    let candidates: Vec<IndId> = instances(best)
        .into_iter()
        .filter(|id| known.binary_search(id).is_err())
        .collect();
    let tested = candidates.len();
    known.extend(
        candidates
            .into_iter()
            .filter(|&id| kb.known_instance(id, nf)),
    );
    known.sort();
    (known, tested)
}

/// Classify the query (so subsumee extensions still short-circuit), but
/// test candidates drawn from the entire database.
fn retrieve_without_extension_index(kb: &Kb, nf: &NormalForm) -> usize {
    let cls = kb.taxonomy().classify(nf);
    let mut free: std::collections::BTreeSet<classic_kb::IndId> = Default::default();
    // Even with an exact match, the ablation re-tests everyone else.
    for node in cls.equivalent.iter().chain(&cls.children) {
        kb.for_each_instance(*node, |id| {
            free.insert(id);
        });
    }
    let mut tested = 0usize;
    for id in kb.ind_ids() {
        if free.contains(&id) {
            continue;
        }
        tested += 1;
        let _ = kb.known_instance(id, nf);
    }
    tested
}
