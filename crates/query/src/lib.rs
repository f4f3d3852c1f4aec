//! # classic-query
//!
//! Query processing for the CLASSIC reproduction (paper §3.5):
//!
//! * **Concepts as queries** — any concept expression asks for the
//!   individuals satisfying it ([`Query::concept`]); answered with the §5
//!   technique: "first, the query concept is itself classified with
//!   respect to the concepts in the schema; then the instances of the
//!   parent concepts are tested individually … all instances of schema
//!   concepts that are subsumed by the query are known to satisfy the
//!   query and are therefore not explicitly tested." The tested
//!   candidates come from the smallest of four supersets of the answer
//!   ([`Kb::candidates`]): the most selective parent's extension, the
//!   hosts of an individual the query names as a role filler (the
//!   reverse-filler index: a role as an access path), the hosts of a host
//!   value it names as a role filler (the value postings), and the
//!   query's `ONE-OF` members. The answer is built by merging sorted runs, so a
//!   read costs the answer and its candidates, not the database.
//!   [`retrieve_naive`] is the unpruned baseline (experiments E3/E8).
//! * **Open-world answer modes** — "sets of individuals that are *known*
//!   to satisfy the query, sets of individuals that *might* satisfy the
//!   query" ([`Query::possible`]), and
//! * **intensional answers** — "a most-specific description of the
//!   necessary properties of the objects, known or unknown, that might
//!   satisfy the query" ([`Query::description`]), including information
//!   contributed by forward-chaining rules (the JUNK-FOOD example).
//! * **Marked queries** — the `?:` marker distinguishing the subexpression
//!   whose instances are wanted ([`MarkedQuery`], [`Query::marked`]).
//!
//! All four answer forms are fronted by one builder, [`Query`], whose
//! [`Query::run`] returns a structured [`Answer`]. Candidate instance
//! tests inside [`retrieve_nf`] fan out across scoped threads when the
//! candidate set is large.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conjunctive;

pub use conjunctive::{answer, KbAtom, KbQuery, KbTerm};

use classic_core::desc::{Concept, IndRef};
use classic_core::error::Result;
use classic_core::normal::NormalForm;
use classic_core::symbol::RoleId;
use classic_core::taxonomy::NodeId;
use classic_kb::{guard_recognizers, IndId, Kb};
use std::collections::BTreeSet;

/// A query concept with a `?:` marker: the marker sits in front of the
/// value restriction reached by following `marker` through nested `ALL`s.
///
/// `?:PERSON` is `{ concept: PERSON, marker: [] }`; the paper's
///
/// ```text
/// (AND STUDENT (ALL thing-driven ?:(ALL maker (ONE-OF Ferrari))))
/// ```
///
/// is `{ concept: (AND STUDENT (ALL thing-driven (ALL maker (ONE-OF
/// Ferrari)))), marker: [thing-driven] }` — "the objects that are driven
/// by students and have maker Ferrari" (§3.5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkedQuery {
    /// The full query concept (marker removed).
    pub concept: Concept,
    /// Role chain from the query subject to the marked subexpression.
    pub marker: Vec<RoleId>,
}

impl MarkedQuery {
    /// A marker on the query subject itself (`?:C`).
    pub fn subject(concept: Concept) -> MarkedQuery {
        MarkedQuery {
            concept,
            marker: Vec::new(),
        }
    }
}

/// Instrumentation for one retrieval (experiment E3's cost model: tested
/// candidates are the disk-access proxy).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Individuals accepted without an instance test, because they are
    /// instances of schema concepts subsumed by the query.
    pub free: usize,
    /// Individuals individually tested against the query: the smallest
    /// of the most selective parent's extension, a named filler's hosts,
    /// a named host value's hosts and the `ONE-OF` members
    /// ([`Kb::candidates`]), less the free answers.
    pub tested: usize,
    /// Subsumption tests spent classifying the query concept.
    pub classify_tests: usize,
}

/// An extensional answer: the individuals *known* to satisfy the query.
#[derive(Debug, Clone)]
pub struct Answers {
    /// Individuals provably satisfying the query, in id order.
    pub known: Vec<IndId>,
    /// How the answer was computed.
    pub stats: QueryStats,
}

/// Which of the paper's answer forms a [`Query`] asks for (§3.5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryMode {
    /// Individuals *known* to satisfy the query (closed answer).
    Known,
    /// Individuals that *might* satisfy it under the open world.
    Possible,
    /// The fillers at the `?:` marker across all known answers.
    NecessarySet,
    /// The most-specific *description* of the marked objects, known
    /// examples or not.
    Description,
}

/// A query under construction: one concept expression, an optional `?:`
/// marker path, and the answer form wanted. This is the single front door
/// to the §3.5 query facilities.
///
/// ```
/// use classic_core::Concept;
/// use classic_kb::Kb;
/// use classic_query::{Answer, Query};
///
/// let mut kb = Kb::new();
/// kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "p"))?;
/// let person = kb.schema().symbols.find_concept("PERSON").unwrap();
/// kb.create_ind("Rocky")?;
/// kb.assert_ind("Rocky", &Concept::Name(person))?;
/// let ans = Query::concept(Concept::Name(person)).run(&kb)?;
/// match ans {
///     Answer::Known(a) => assert_eq!(a.known.len(), 1),
///     _ => unreachable!("a Known query returns Answer::Known"),
/// }
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    concept: Concept,
    marker: Vec<RoleId>,
    mode: QueryMode,
}

impl Query {
    /// Start a query from a concept expression; defaults to the *known*
    /// answer set, evaluated via classification (§5).
    ///
    /// ```
    /// use classic_core::Concept;
    /// use classic_kb::Kb;
    ///
    /// let mut kb = Kb::new();
    /// let wheels = kb.define_role("wheel")?;
    /// kb.define_concept("VEHICLE", Concept::primitive(Concept::thing(), "v"))?;
    /// let vehicle = kb.schema().symbols.find_concept("VEHICLE").unwrap();
    /// for (name, n) in [("Bike", 2), ("Trike", 3), ("Car", 4)] {
    ///     kb.create_ind(name)?;
    ///     kb.assert_ind(name, &Concept::Name(vehicle))?;
    ///     kb.assert_ind(name, &Concept::AtLeast(n, wheels))?;
    /// }
    /// let q = Concept::and([Concept::Name(vehicle), Concept::AtLeast(3, wheels)]);
    /// let answers = classic_query::Query::concept(q)
    ///     .run(&kb)?
    ///     .into_known()
    ///     .unwrap();
    /// assert_eq!(answers.known.len(), 2); // Trike and Car
    /// # Ok::<(), classic_core::ClassicError>(())
    /// ```
    pub fn concept(concept: Concept) -> Query {
        Query {
            concept,
            marker: Vec::new(),
            mode: QueryMode::Known,
        }
    }

    /// Start from a marked query (`?:`); defaults to the necessary filler
    /// set, the answer form marked queries exist for.
    pub fn marked(q: MarkedQuery) -> Query {
        Query {
            concept: q.concept,
            marker: q.marker,
            mode: QueryMode::NecessarySet,
        }
    }

    /// Place the `?:` marker at the end of `path` (role chain from the
    /// query subject).
    pub fn marker(mut self, path: impl IntoIterator<Item = RoleId>) -> Query {
        self.marker = path.into_iter().collect();
        self
    }

    /// Ask for the individuals *known* to satisfy the query.
    pub fn known(mut self) -> Query {
        self.mode = QueryMode::Known;
        self
    }

    /// Ask for the individuals that *might* satisfy the query under the
    /// open-world assumption (§3.5.3): everything whose derived
    /// description is not provably disjoint from the query. Always a
    /// superset of the known answers.
    pub fn possible(mut self) -> Query {
        self.mode = QueryMode::Possible;
        self
    }

    /// `ask-necessary-set`: the fillers at the marker position across all
    /// known answers (§3.5.3). Fillers may be host values.
    pub fn necessary_set(mut self) -> Query {
        self.mode = QueryMode::NecessarySet;
        self
    }

    /// `ask-description`: the most specific description that
    /// *necessarily* holds of every possible object at the marker
    /// position — "independent of the known examples" (§3.5.3).
    ///
    /// The description is assembled from the query's value restrictions
    /// along the marker path, then repeatedly augmented with the
    /// consequents of every rule attached to a schema concept that
    /// subsumes it ("the description of this set, in light of the
    /// forward-chaining rules in effect at that time, might include
    /// JUNK-FOOD"), to a fixed point.
    pub fn description(mut self) -> Query {
        self.mode = QueryMode::Description;
        self
    }

    /// The marked form of this query (concept + marker path).
    fn marked_query(&self) -> MarkedQuery {
        MarkedQuery {
            concept: self.concept.clone(),
            marker: self.marker.clone(),
        }
    }

    /// Evaluate against a knowledge base. The [`Answer`] variant always
    /// matches the requested mode.
    pub fn run(&self, kb: &Kb) -> Result<Answer> {
        match self.mode {
            QueryMode::Known => Ok(Answer::Known(retrieve_impl(kb, &self.concept)?)),
            QueryMode::Possible => Ok(Answer::Possible(possible_impl(kb, &self.concept)?)),
            QueryMode::NecessarySet => Ok(Answer::NecessarySet(ask_necessary_set_impl(
                kb,
                &self.marked_query(),
            )?)),
            QueryMode::Description => Ok(Answer::Description(ask_description_impl(
                kb,
                &self.marked_query(),
            )?)),
        }
    }
}

/// A structured answer: one variant per answer form of [`Query`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// The individuals known to satisfy the query, with retrieval stats.
    Known(Answers),
    /// The individuals that might satisfy the query (open world).
    Possible(Vec<IndId>),
    /// The necessary filler set at the `?:` marker.
    NecessarySet(Vec<IndRef>),
    /// The intensional description of the marked objects.
    Description(NormalForm),
}

impl Answer {
    /// The known-answer payload, if this is a [`Answer::Known`].
    pub fn into_known(self) -> Option<Answers> {
        match self {
            Answer::Known(a) => Some(a),
            _ => None,
        }
    }

    /// The possible-answer payload, if this is a [`Answer::Possible`].
    pub fn into_possible(self) -> Option<Vec<IndId>> {
        match self {
            Answer::Possible(ids) => Some(ids),
            _ => None,
        }
    }

    /// The filler set, if this is a [`Answer::NecessarySet`].
    pub fn into_necessary_set(self) -> Option<Vec<IndRef>> {
        match self {
            Answer::NecessarySet(fs) => Some(fs),
            _ => None,
        }
    }

    /// The description, if this is a [`Answer::Description`].
    pub fn into_description(self) -> Option<NormalForm> {
        match self {
            Answer::Description(nf) => Some(nf),
            _ => None,
        }
    }
}

fn retrieve_impl(kb: &Kb, query: &Concept) -> Result<Answers> {
    let nf = kb.normalize(query)?;
    retrieve_nf(kb, &nf)
}

/// Evaluate an already-normalized query via classification.
///
/// Errors with [`classic_core::ClassicError::RecognizerPanicked`] if a user-registered
/// `TEST` recognizer panics during an instance test — the panic is caught
/// at the retrieval boundary instead of aborting the process.
pub fn retrieve_nf(kb: &Kb, nf: &NormalForm) -> Result<Answers> {
    let obs = QueryObs::attach(kb);
    let _span = classic_obs::span_timed(kb.flight_recorder(), "query.retrieve", &obs.retrieve_ns);
    obs.retrieves.bump();
    let mut stats = QueryStats::default();
    if nf.is_incoherent() {
        return Ok(Answers {
            known: Vec::new(),
            stats,
        });
    }
    let cls = kb.taxonomy().classify(nf);
    stats.classify_tests = cls.tests;
    let (free, candidates) = kb.candidates(nf, &cls);
    stats.free = free.len();
    // An exactly-matching schema concept answers from the extension index
    // alone.
    if cls.equivalent.is_some() {
        return Ok(Answers { known: free, stats });
    }
    stats.tested = candidates.len();
    let passed = test_candidates(kb, nf, &candidates)?;
    obs.candidates.record(stats.tested as u64);
    obs.free_answers.add(stats.free as u64);
    obs.tested.add(stats.tested as u64);
    classic_obs::event("free", stats.free as u64);
    classic_obs::event("tested", stats.tested as u64);
    // Two disjoint ascending runs: the stable sort merges them.
    let mut known = free;
    known.extend(passed);
    known.sort();
    Ok(Answers { known, stats })
}

/// Handles onto the retrieval series in the KB's metric registry,
/// attached idempotently per call (one mutex round-trip; retrieval does
/// orders of magnitude more work than that per query).
struct QueryObs {
    retrieves: classic_obs::Counter,
    free_answers: classic_obs::Counter,
    tested: classic_obs::Counter,
    candidates: classic_obs::Histogram,
    retrieve_ns: classic_obs::Histogram,
}

impl QueryObs {
    fn attach(kb: &Kb) -> QueryObs {
        let m = kb.metrics();
        QueryObs {
            retrieves: m
                .get_or_counter("classic_retrieve_total", "retrieve queries answered")
                .expect("query metric registration"),
            free_answers: m
                .get_or_counter(
                    "classic_retrieve_free_total",
                    "answers taken from subsumed extensions without a test",
                )
                .expect("query metric registration"),
            tested: m
                .get_or_counter(
                    "classic_retrieve_tested_total",
                    "candidates individually instance-tested",
                )
                .expect("query metric registration"),
            candidates: m
                .get_or_histogram(
                    "classic_retrieve_candidates",
                    "candidates tested per retrieval",
                )
                .expect("query metric registration"),
            retrieve_ns: m
                .get_or_duration_histogram("classic_retrieve_ns", "retrieve wall time (ns)")
                .expect("query metric registration"),
        }
    }
}

/// Candidate sets at least this large are tested on scoped worker
/// threads, one slice per core. Placed from sweeps of `retrieve_nf` over
/// the software workload (E3/E8's generator) at 2 000 – 20 000 functions,
/// each query timed with every candidate set forced sequential and forced
/// parallel (2 cores, best of six rounds of 20; the middle rows from two
/// sweeps, the first and last from an earlier one):
///
/// | candidates | sequential µs | parallel µs | parallel ÷ sequential |
/// |--:|--:|--:|--:|
/// | 14 – 545 | 4 – 26 | 122 – 170 | 5.6 – 33 |
/// | 1 158 – 2 000 | 90 – 244 | 176 – 304 | 1.08 – 3.28 |
/// | 2 280 – 4 000 | 206 – 644 | 296 – 745 | 0.92 – 2.24 |
/// | 4 594 – 10 000 | 608 – 1 669 | 581 – 1 557 | 0.79 – 0.96 |
/// | 11 417 – 20 000 | 1 911 – 7 857 | 1 673 – 5 951 | 0.55 – 0.88 |
///
/// The fork costs 90–250 µs whatever the work. Below 4 000 candidates it
/// lost or tied; from 4 594 up it won in every run (the earlier sweep
/// read one tie, 1.01, at 6 881 – 8 000).
/// `wire-mixed`'s whole-extension reads (≈ 2 000 candidates) stay on the
/// calling thread; `wire-read-large`'s (11 000 – 20 000) fork.
const PARALLEL_THRESHOLD: usize = 4_500;

/// Filter `candidates` down to the known instances of `nf`, fanning the
/// instance tests out across threads when the candidate set is large.
/// Instance testing only *reads* the knowledge base, so a scoped borrow of
/// `&Kb` can be shared across workers with no new dependencies.
///
/// A panic in a user recognizer — on either the sequential or the parallel
/// path — surfaces as `Err(RecognizerPanicked)` rather than unwinding
/// through (or aborting from) a worker thread.
fn test_candidates(kb: &Kb, nf: &NormalForm, candidates: &[IndId]) -> Result<Vec<IndId>> {
    if candidates.len() < PARALLEL_THRESHOLD {
        return guard_recognizers(|| {
            candidates
                .iter()
                .copied()
                .filter(|&id| kb.known_instance(id, nf))
                .collect()
        });
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(candidates.len());
    let chunk = candidates.len().div_ceil(workers);
    let mut hits: Vec<IndId> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = candidates
            .chunks(chunk)
            .map(|part| {
                let recorder = std::sync::Arc::clone(kb.flight_recorder());
                s.spawn(move || {
                    // Catch inside the worker so the panic becomes data;
                    // `scope` still joins every thread before returning.
                    guard_recognizers(|| {
                        // Worker threads have no open parent span, so each
                        // batch becomes its own root trace in the recorder.
                        let _span = classic_obs::span(&recorder, "query.worker_batch");
                        classic_obs::event("batch_size", part.len() as u64);
                        part.iter()
                            .copied()
                            .filter(|&id| kb.known_instance(id, nf))
                            .collect::<Vec<IndId>>()
                    })
                })
            })
            .collect();
        for h in handles {
            // A panic that escaped the guard is not a recognizer's.
            let guarded = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            hits.extend(guarded?);
        }
        Ok(())
    })?;
    Ok(hits)
}

/// The naive baseline: test every individual in the database against the
/// query (what a system without the classification index must do).
pub fn retrieve_naive(kb: &Kb, query: &Concept) -> Result<Answers> {
    let nf = kb.normalize(query)?;
    retrieve_naive_nf(kb, &nf)
}

/// Naive retrieval over an already-normalized query. Shares the
/// panic-to-error contract of [`retrieve_nf`].
pub fn retrieve_naive_nf(kb: &Kb, nf: &NormalForm) -> Result<Answers> {
    let mut stats = QueryStats::default();
    if nf.is_incoherent() {
        return Ok(Answers {
            known: Vec::new(),
            stats,
        });
    }
    let ids: Vec<IndId> = kb.ind_ids().collect();
    stats.tested = ids.len();
    let known = guard_recognizers(|| {
        ids.into_iter()
            .filter(|&id| kb.known_instance(id, nf))
            .collect()
    })?;
    Ok(Answers { known, stats })
}

fn possible_impl(kb: &Kb, query: &Concept) -> Result<Vec<IndId>> {
    let nf = kb.normalize(query)?;
    let ids: Vec<IndId> = kb.ind_ids().collect();
    guard_recognizers(|| {
        ids.into_iter()
            .filter(|&id| kb.possible_instance(id, &nf))
            .collect()
    })
}

fn ask_necessary_set_impl(kb: &Kb, q: &MarkedQuery) -> Result<Vec<IndRef>> {
    let subjects = retrieve_impl(kb, &q.concept)?.known;
    let mut frontier: BTreeSet<IndRef> = subjects
        .into_iter()
        .map(|id| IndRef::Classic(kb.ind(id).name))
        .collect();
    for &role in &q.marker {
        let mut next: BTreeSet<IndRef> = BTreeSet::new();
        for x in frontier {
            if let IndRef::Classic(n) = x {
                if let Ok(id) = kb.ind_id(n) {
                    next.extend(kb.ind(id).fillers(role));
                }
            }
        }
        frontier = next;
    }
    Ok(frontier.into_iter().collect())
}

fn ask_description_impl(kb: &Kb, q: &MarkedQuery) -> Result<NormalForm> {
    let mut subject = kb.normalize(&q.concept)?;
    // A singleton enumeration names a known individual: fold in everything
    // the database has derived about it — the paper's crime15 pattern,
    // "to see if crime15 was classified as a kind of crime for which
    // additional descriptive information about its suspect can be
    // inferred" (§4).
    if let Some(s) = &subject.one_of {
        if s.len() == 1 {
            if let Some(IndRef::Classic(n)) = s.iter().next().cloned() {
                if let Ok(id) = kb.ind_id(n) {
                    let derived = kb.ind(id).derived().clone();
                    subject.conjoin(&derived, kb.schema());
                }
            }
        }
    }
    // Rules attached to concepts subsuming the *subject* contribute value
    // restrictions visible at the marker (the JUNK-FOOD example)…
    augment_with_rules(kb, &mut subject)?;
    let mut desc = path_restriction(&subject, &q.marker);
    // …and the marked description may itself trigger further rules.
    augment_with_rules(kb, &mut desc)?;
    Ok(desc)
}

/// Conjoin, to a fixed point, the consequents of every rule attached to a
/// schema concept that subsumes `desc`. Each rule applies at most once.
fn augment_with_rules(kb: &Kb, desc: &mut NormalForm) -> Result<()> {
    let mut applied: BTreeSet<usize> = BTreeSet::new();
    loop {
        let cls = kb.taxonomy().classify(desc);
        let mut subsumers: BTreeSet<NodeId> = BTreeSet::new();
        if let Some(eq) = cls.equivalent {
            subsumers.insert(eq);
            subsumers.extend(kb.taxonomy().strict_ancestors(eq));
        } else {
            for &p in &cls.parents {
                subsumers.insert(p);
                subsumers.extend(kb.taxonomy().strict_ancestors(p));
            }
        }
        let due: Vec<usize> = kb
            .active_rules()
            .filter(|(ix, r)| !applied.contains(ix) && subsumers.contains(&r.node))
            .map(|(ix, _)| ix)
            .collect();
        if due.is_empty() {
            return Ok(());
        }
        for ix in due {
            applied.insert(ix);
            let cnf = kb.normalize(&kb.rules()[ix].consequent)?;
            desc.conjoin(&cnf, kb.schema());
        }
    }
}

/// The value restriction reached by following `path` through the query's
/// normalized `ALL` structure (`THING` where unrestricted).
pub fn path_restriction(nf: &NormalForm, path: &[RoleId]) -> NormalForm {
    match nf.at_path(path) {
        Some(sub) => sub.clone(),
        None => NormalForm::top(),
    }
}

/// Render an individual's complete derived description as a concept
/// expression — the descriptive answer form for individuals.
pub fn describe(kb: &Kb, id: IndId) -> Concept {
    kb.ind(id).derived().to_concept(kb.schema())
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;
    use classic_core::error::ClassicError;
    use classic_core::host::HostValue;

    fn retrieve(kb: &Kb, q: &Concept) -> Result<Answers> {
        Ok(Query::concept(q.clone()).run(kb)?.into_known().unwrap())
    }

    fn possible(kb: &Kb, q: &Concept) -> Result<Vec<IndId>> {
        let ans = Query::concept(q.clone()).possible().run(kb)?;
        Ok(ans.into_possible().unwrap())
    }

    fn kb_with_schema() -> Kb {
        let mut kb = Kb::new();
        kb.define_role("enrolled-at").unwrap();
        kb.define_role("eat").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = Concept::Name(kb.schema_mut().symbols.concept("PERSON"));
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        kb.define_concept(
            "STUDENT",
            Concept::and([person, Concept::AtLeast(1, enrolled)]),
        )
        .unwrap();
        kb
    }

    #[test]
    fn retrieve_uses_subsumed_extensions_for_free() {
        let mut kb = kb_with_schema();
        let person = kb.schema_mut().symbols.concept("PERSON");
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        for i in 0..10 {
            let name = format!("S{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &Concept::Name(person)).unwrap();
            kb.assert_ind(&name, &Concept::AtLeast(1, enrolled))
                .unwrap();
        }
        // Query = exactly STUDENT's definition: answered via equivalence,
        // zero per-individual tests.
        let q = Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]);
        let ans = retrieve(&kb, &q).unwrap();
        assert_eq!(ans.known.len(), 10);
        assert_eq!(ans.stats.tested, 0);
        // The naive baseline tests everyone.
        let naive = retrieve_naive(&kb, &q).unwrap();
        assert_eq!(naive.known.len(), 10);
        assert_eq!(naive.stats.tested, kb.ind_count());
    }

    #[test]
    fn retrieve_strict_refinement_tests_candidates() {
        let mut kb = kb_with_schema();
        let person = kb.schema_mut().symbols.concept("PERSON");
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        for i in 0..6 {
            let name = format!("P{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &Concept::Name(person)).unwrap();
            kb.assert_ind(&name, &Concept::AtLeast(i as u32, enrolled))
                .unwrap();
        }
        // STUDENTs enrolled at ≥ 3 places: a strict refinement of STUDENT.
        let q = Concept::and([Concept::Name(person), Concept::AtLeast(3, enrolled)]);
        let ans = retrieve(&kb, &q).unwrap();
        assert_eq!(ans.known.len(), 3); // P3, P4, P5
                                        // Candidates came from STUDENT's extension (P1..P5 = 5), not the
                                        // whole DB.
        assert!(ans.stats.tested <= 5);
        let naive = retrieve_naive(&kb, &q).unwrap();
        let mut a = ans.known.clone();
        let mut b = naive.known.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn named_filler_and_one_of_bound_the_candidates() {
        // Forty STUDENTs, all enrolled at Other; eight also at Hub, three
        // of whom are HUB-EATERs. Asking for Hub's students must test
        // Hub's hosts less the free HUB-EATERs, not STUDENT's extension.
        let mut kb = kb_with_schema();
        let person = Concept::Name(kb.schema_mut().symbols.concept("PERSON"));
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        let eat = kb.schema().symbols.find_role("eat").unwrap();
        let [hub, other, ghost, p5] = ["Hub", "Other", "Ghost", "P5"]
            .map(|name| IndRef::Classic(kb.schema_mut().symbols.individual(name)));
        let at_hub = Concept::and([person.clone(), Concept::Fills(enrolled, vec![hub.clone()])]);
        kb.define_concept(
            "HUB-EATER",
            Concept::and([at_hub.clone(), Concept::AtLeast(1, eat)]),
        )
        .unwrap();
        for i in 0..40 {
            let name = format!("P{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &person).unwrap();
            kb.assert_ind(&name, &Concept::Fills(enrolled, vec![other.clone()]))
                .unwrap();
            if i < 8 {
                kb.assert_ind(&name, &Concept::Fills(enrolled, vec![hub.clone()]))
                    .unwrap();
            }
            if i < 3 {
                kb.assert_ind(&name, &Concept::AtLeast(1, eat)).unwrap();
            }
        }
        let student = kb.schema_mut().symbols.concept("STUDENT");
        let parent_extension = kb.instances_of(student).unwrap().len();
        assert_eq!(parent_extension, 40);

        let ans = retrieve(&kb, &at_hub).unwrap();
        assert_eq!(ans.known, retrieve_naive(&kb, &at_hub).unwrap().known);
        assert_eq!(ans.known.len(), 8);
        assert_eq!(ans.stats.free, 3);
        assert_eq!(ans.stats.tested, 8 - 3);
        assert!(ans.stats.tested < parent_extension - ans.stats.free);

        let single = Concept::and([person.clone(), Concept::OneOf(vec![p5])]);
        let ans = retrieve(&kb, &single).unwrap();
        assert_eq!(ans.known, retrieve_naive(&kb, &single).unwrap().known);
        assert_eq!(ans.known.len(), 1);
        assert!(ans.stats.tested <= 1);

        // A filler never created has no hosts: nothing to test.
        let at_ghost = Concept::and([person, Concept::Fills(enrolled, vec![ghost])]);
        let ans = retrieve(&kb, &at_ghost).unwrap();
        assert!(ans.known.is_empty());
        assert_eq!(ans.stats.tested, 0);
    }

    #[test]
    fn host_value_filler_bounds_the_candidates() {
        // Forty PERSONs aged 0–3 (ten of each), three more aged 1.0 (a
        // float, another value); three of the ten aged 1 are AGE-1-EATERs.
        // Asking for those aged 1 must test the ten hosts of the value
        // less the free AGE-1-EATERs, not PERSON's extension.
        let mut kb = kb_with_schema();
        let age = kb.define_role("age").unwrap();
        let eat = kb.schema().symbols.find_role("eat").unwrap();
        let person = Concept::Name(kb.schema_mut().symbols.concept("PERSON"));
        let aged = |v: HostValue| Concept::Fills(age, vec![IndRef::Host(v)]);
        let aged_1 = Concept::and([person.clone(), aged(HostValue::Int(1))]);
        kb.define_concept(
            "AGE-1-EATER",
            Concept::and([aged_1.clone(), Concept::AtLeast(1, eat)]),
        )
        .unwrap();
        for i in 0..43 {
            let name = format!("P{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &person).unwrap();
            let value = match i {
                0..40 => HostValue::Int(i % 4),
                _ => HostValue::float(1.0),
            };
            kb.assert_ind(&name, &aged(value)).unwrap();
            if i % 4 == 1 && i < 12 {
                kb.assert_ind(&name, &Concept::AtLeast(1, eat)).unwrap();
            }
        }
        let person_node = kb.instances_of(kb.schema().symbols.find_concept("PERSON").unwrap());
        let parent_extension = person_node.unwrap().len();
        assert_eq!(parent_extension, 43);

        let ans = retrieve(&kb, &aged_1).unwrap();
        assert_eq!(ans.known, retrieve_naive(&kb, &aged_1).unwrap().known);
        assert_eq!(ans.known.len(), 10);
        assert_eq!(ans.stats.free, 3);
        assert_eq!(ans.stats.tested, 10 - 3);
        assert!(ans.stats.tested < parent_extension - ans.stats.free);

        // 1 and 1.0 are two values: neither answer holds a host of the other.
        let aged_1_0 = Concept::and([person.clone(), aged(HostValue::float(1.0))]);
        let floats = retrieve(&kb, &aged_1_0).unwrap();
        assert_eq!(floats.known, retrieve_naive(&kb, &aged_1_0).unwrap().known);
        assert_eq!((floats.known.len(), floats.stats.tested), (3, 3));
        assert!(floats.known.iter().all(|id| !ans.known.contains(id)));

        // A value no one was told has no hosts: nothing to test.
        let aged_99 = Concept::and([person, aged(HostValue::Int(99))]);
        let ans = retrieve(&kb, &aged_99).unwrap();
        assert!(ans.known.is_empty());
        assert_eq!(ans.stats.tested, 0);
    }

    #[test]
    fn possible_is_superset_of_known() {
        let mut kb = kb_with_schema();
        let person = kb.schema_mut().symbols.concept("PERSON");
        kb.create_ind("Maybe").unwrap();
        kb.create_ind("Yes").unwrap();
        kb.assert_ind("Yes", &Concept::Name(person)).unwrap();
        let q = Concept::Name(person);
        let known = retrieve(&kb, &q).unwrap().known;
        let poss = possible(&kb, &q).unwrap();
        assert_eq!(known.len(), 1);
        // Open world: Maybe is not *known* to be a PERSON but *might* be.
        assert_eq!(poss.len(), 2);
        for k in &known {
            assert!(poss.contains(k));
        }
    }

    #[test]
    fn marked_query_collects_fillers() {
        let mut kb = kb_with_schema();
        let eat = kb.schema().symbols.find_role("eat").unwrap();
        let person = kb.schema_mut().symbols.concept("PERSON");
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        let pizza = IndRef::Classic(kb.schema_mut().symbols.individual("Pizza-1"));
        kb.assert_ind("Rocky", &Concept::Fills(eat, vec![pizza.clone()]))
            .unwrap();
        // (AND PERSON (ALL eat ?:THING)) — "things eaten by persons".
        let q = MarkedQuery {
            concept: Concept::Name(person),
            marker: vec![eat],
        };
        let fillers = Query::marked(q).run(&kb).unwrap();
        assert_eq!(fillers.into_necessary_set().unwrap(), vec![pizza]);
    }

    #[test]
    fn ask_description_includes_rule_consequences() {
        // The paper's JUNK-FOOD example: the description of what students
        // eat includes JUNK-FOOD because of the rule, with no junk food
        // instance anywhere in the database.
        let mut kb = kb_with_schema();
        kb.define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
            .unwrap();
        let junk = kb.schema_mut().symbols.concept("JUNK-FOOD");
        let eat = kb.schema().symbols.find_role("eat").unwrap();
        kb.assert_rule("STUDENT", Concept::all(eat, Concept::Name(junk)))
            .unwrap();
        let student = kb.schema_mut().symbols.concept("STUDENT");
        // (AND STUDENT (ALL eat ?:THING))
        let q = MarkedQuery {
            concept: Concept::Name(student),
            marker: vec![eat],
        };
        let desc = Query::marked(q)
            .description()
            .run(&kb)
            .unwrap()
            .into_description()
            .unwrap();
        let junk_nf = kb.schema().concept_nf(junk).unwrap();
        assert!(classic_core::subsumes(junk_nf, &desc));
    }

    #[test]
    fn describe_round_trips_through_language() {
        let mut kb = kb_with_schema();
        let person = kb.schema_mut().symbols.concept("PERSON");
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        kb.assert_ind("Rocky", &Concept::AtLeast(2, enrolled))
            .unwrap();
        let rocky = kb
            .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
            .unwrap();
        let c = describe(&kb, rocky);
        // Re-normalizing the description reproduces the derived NF.
        let renf = kb.normalize(&c).unwrap();
        assert_eq!(&renf, kb.ind(rocky).derived());
    }

    #[test]
    fn query_builder_matches_free_functions() {
        let mut kb = kb_with_schema();
        let person = kb.schema_mut().symbols.concept("PERSON");
        let eat = kb.schema().symbols.find_role("eat").unwrap();
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        let pizza = IndRef::Classic(kb.schema_mut().symbols.individual("Pizza-1"));
        kb.assert_ind("Rocky", &Concept::Fills(eat, vec![pizza.clone()]))
            .unwrap();
        kb.create_ind("Maybe").unwrap();

        // Known answers: the builder, the normalized entry point it
        // fronts, and the unpruned baseline agree.
        let q = Concept::Name(person);
        let known = retrieve(&kb, &q).unwrap().known;
        let nf = kb.normalize(&q).unwrap();
        assert_eq!(known, retrieve_nf(&kb, &nf).unwrap().known);
        assert_eq!(known, retrieve_naive(&kb, &q).unwrap().known);
        assert_eq!(possible(&kb, &q).unwrap().len(), 3);

        // Marked answers: `concept(..).marker(..)` and `marked(..)` are
        // two routes to the same query.
        let mq = MarkedQuery {
            concept: q.clone(),
            marker: vec![eat],
        };
        let set = Query::marked(mq.clone()).run(&kb).unwrap();
        let set = set.into_necessary_set().unwrap();
        let routed = Query::concept(q.clone())
            .marker([eat])
            .necessary_set()
            .run(&kb)
            .unwrap();
        assert_eq!(set, routed.into_necessary_set().unwrap());
        assert_eq!(set, vec![pizza]);

        let desc = Query::concept(q)
            .marker([eat])
            .description()
            .run(&kb)
            .unwrap()
            .into_description()
            .unwrap();
        let marked = Query::marked(mq).description().run(&kb).unwrap();
        assert_eq!(desc, marked.into_description().unwrap());
    }

    #[test]
    fn answer_accessors_reject_other_variants() {
        let ans = Answer::Possible(Vec::new());
        assert!(ans.clone().into_known().is_none());
        assert!(ans.clone().into_necessary_set().is_none());
        assert!(ans.clone().into_description().is_none());
        assert!(ans.into_possible().is_some());
    }

    #[test]
    fn parallel_candidate_testing_agrees_with_sequential() {
        // Enough candidates to cross PARALLEL_THRESHOLD, so the scoped
        // thread fan-out actually runs and must reproduce the sequential
        // (naive) answer exactly.
        let mut kb = kb_with_schema();
        let person = kb.schema_mut().symbols.concept("PERSON");
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        let total = PARALLEL_THRESHOLD + 64;
        for i in 0..total {
            let name = format!("P{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &Concept::Name(person)).unwrap();
            kb.assert_ind(&name, &Concept::AtLeast((i % 5 + 1) as u32, enrolled))
                .unwrap();
        }
        // Strict refinement of STUDENT: every PERSON with ≥ 1 enrollment
        // is a candidate; only those with ≥ 3 pass the instance test.
        let q = Concept::and([Concept::Name(person), Concept::AtLeast(3, enrolled)]);
        let ans = retrieve(&kb, &q).unwrap();
        assert!(
            ans.stats.tested >= PARALLEL_THRESHOLD,
            "expected the parallel path to engage (tested {})",
            ans.stats.tested
        );
        let mut a = ans.known.clone();
        a.sort();
        let mut b = retrieve_naive(&kb, &q).unwrap().known;
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn panicking_recognizer_is_an_error_not_an_abort() {
        let mut kb = kb_with_schema();
        kb.register_test("boom", |_| panic!("recognizer boom"));
        let boom = kb.schema().symbols.find_test("boom").unwrap();
        let person = kb.schema_mut().symbols.concept("PERSON");
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        // One candidate: the sequential instance-test path.
        let q = Concept::and([Concept::Name(person), Concept::Test(boom)]);
        let err = retrieve(&kb, &q).unwrap_err();
        assert!(
            matches!(err, ClassicError::RecognizerPanicked(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("recognizer boom"), "{err}");
        // The naive baseline reports the same failure.
        let err = retrieve_naive(&kb, &q).unwrap_err();
        assert!(matches!(err, ClassicError::RecognizerPanicked(_)));
        // The KB remains usable: no cache was poisoned by the unwind.
        let sane = retrieve(&kb, &Concept::Name(person)).unwrap();
        assert_eq!(sane.known.len(), 1);
    }

    #[test]
    fn panicking_recognizer_is_caught_on_the_parallel_path() {
        let mut kb = kb_with_schema();
        kb.register_test("boom", |_| panic!("recognizer boom"));
        let boom = kb.schema().symbols.find_test("boom").unwrap();
        let person = kb.schema_mut().symbols.concept("PERSON");
        // Enough candidates to cross PARALLEL_THRESHOLD, so the panic is
        // raised inside a scoped worker thread.
        for i in 0..(PARALLEL_THRESHOLD + 32) {
            let name = format!("P{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &Concept::Name(person)).unwrap();
        }
        let q = Concept::and([Concept::Name(person), Concept::Test(boom)]);
        let err = retrieve(&kb, &q).unwrap_err();
        assert!(
            matches!(err, ClassicError::RecognizerPanicked(_)),
            "unexpected error: {err}"
        );
        // Still usable afterwards.
        let sane = retrieve(&kb, &Concept::Name(person)).unwrap();
        assert_eq!(sane.known.len(), PARALLEL_THRESHOLD + 32);
    }

    #[test]
    fn panicking_recognizer_surfaces_through_conjunctive_queries() {
        let mut kb = kb_with_schema();
        kb.register_test("boom", |_| panic!("recognizer boom"));
        let boom = kb.schema().symbols.find_test("boom").unwrap();
        let person = kb.schema_mut().symbols.concept("PERSON");
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        let q = KbQuery::new(
            &["x"],
            vec![conjunctive::KbAtom::IsA(
                conjunctive::KbTerm::var("x"),
                Concept::and([Concept::Name(person), Concept::Test(boom)]),
            )],
        );
        let err = answer(&kb, &q).unwrap_err();
        assert!(matches!(err, ClassicError::RecognizerPanicked(_)));
    }

    #[test]
    fn incoherent_query_has_no_answers() {
        let mut kb = kb_with_schema();
        kb.create_ind("X").unwrap();
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        let q = Concept::and([Concept::AtLeast(2, enrolled), Concept::AtMost(1, enrolled)]);
        assert!(retrieve(&kb, &q).unwrap().known.is_empty());
        assert!(retrieve_naive(&kb, &q).unwrap().known.is_empty());
        assert!(possible(&kb, &q).unwrap().is_empty());
    }
}
