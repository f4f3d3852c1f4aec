//! The CLASSIC knowledge base: schema + taxonomy + individuals + rules.
//!
//! [`Kb`] is the paper's "database": it exposes the operator vocabulary of
//! §3 — `define-role`, `define-attribute`, `define-concept` (DDL, freely
//! interleaved with everything else), `create-ind` and `assert-ind` (DML
//! under the open-world assumption), `assert-rule` (limited forward
//! chaining), and the introspection/query surface consumed by
//! `classic-query`.
//!
//! Every update is atomic: "updates … are either accepted or rejected
//! because of constraint violations" (§3.1). Each of the write operators
//! runs in the one transaction (`Kb::transact`): it stages its told
//! change through a journal, propagation closes over it, and a refusal —
//! a clash, a name nothing defines, a panicking `TEST` recognizer — is
//! undone by `Kb::rollback`, the only undo there is.
//!
//! Everything here that grows with the number of individuals is held in
//! the copy-on-write tables of [`classic_core::chunked`], and the TBox
//! behind `Arc`s only DDL writes, so [`Kb::clone`] — a read snapshot, a
//! sandbox, a staged bulk load — shares both, and a write after a clone
//! copies the chunks it touches (DESIGN.md, "Versions share structure").

use crate::deps::{DependencyJournal, RetractReport, Support, SupportKind};
use crate::individual::{IndId, Individual};
use crate::plan::Effect;
use crate::propagate::{guard_recognizers, Propagation};
use classic_core::chunked::{Chunked, ChunkedSet};
use classic_core::desc::{Concept, IndRef};
use classic_core::error::{ClassicError, Result};
use classic_core::host::HostValue;
use classic_core::normal::{conjoin_expression, NormalForm};
use classic_core::schema::{PrimMark, Schema, TestArg};
use classic_core::symbol::{ConceptName, IndName, RoleId, TestId};
use classic_core::taxonomy::{Classification, NodeId, Taxonomy};
use classic_obs::{Counter, Histogram, Registry};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// A forward-chaining rule: "if an individual is a `<concept1>` then it is
/// also a `<concept2>`" (§3.3). Rules are "triggers activated only when a new
/// individual is found of which the antecedent concept description holds" —
/// *not* part of the antecedent's definition.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The named concept the rule is attached to.
    pub antecedent: ConceptName,
    /// The taxonomy node the antecedent classifies at.
    pub node: NodeId,
    /// The consequent description, conjoined onto every recognized
    /// instance.
    pub consequent: Concept,
    /// Whether the rule has been retracted. Retired rules stay in the
    /// table so the `usize` indices stored in `fired_rules` and
    /// `Rules::by_node` remain stable; every consumer must filter them
    /// (use [`Kb::active_rules`]).
    pub retired: bool,
}

/// The rule table: schema-sized, written only by `assert-rule` and
/// `retract-rule`, so a KB holds it behind an `Arc` its clones share.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rules {
    /// Every rule in assertion order, retired ones included.
    pub(crate) table: Vec<Rule>,
    /// The live rules' ids by antecedent node, ascending.
    pub(crate) by_node: HashMap<NodeId, Vec<usize>>,
}

/// The KB's metric series: cumulative instrumentation counters
/// (experiments E3/E4/E6) and the duration histograms of its operations.
///
/// Each field is a handle onto a series of the KB's own [`Registry`],
/// registered once by [`Kb::new`], so the `(obs-stats)` and `--metrics`
/// expositions read the same atomics the engine bumps, and no read or
/// write looks a series up by name. A `Kb` holds them behind one `Arc`
/// that its clones share.
///
/// Classification counters (subsumption tests, closure rebuilds) live
/// with the taxonomy; snapshot them via [`Kb::kernel_stats`].
#[derive(Debug)]
pub struct KbStats {
    /// Top-level `assert-ind` calls accepted.
    pub assertions: Counter,
    /// Worklist items processed by the propagation engine.
    pub propagation_steps: Counter,
    /// Descriptions pushed onto fillers by `ALL` restrictions.
    pub fills_propagations: Counter,
    /// Fillers derived through `SAME-AS` co-reference.
    pub coref_propagations: Counter,
    /// Rule firings (each rule at most once per individual).
    pub rules_fired: Counter,
    /// Individual (re-)realizations performed.
    pub realizations: Counter,
    /// Node-level instance tests performed during realization/queries.
    pub instance_tests: Counter,
    /// `retrieve` queries answered (bumped by `classic-query`).
    pub retrieves: Counter,
    /// Answers taken from subsumed extensions without a test.
    pub retrieve_free: Counter,
    /// Candidates individually instance-tested by `retrieve`.
    pub retrieve_tested: Counter,
    /// Candidates tested per retrieval.
    pub retrieve_candidates: Histogram,
    /// `retrieve` wall time, nanoseconds (Full only).
    pub retrieve_ns: Histogram,
    // `bulk_assert`'s series, then the operations' wall times (Full only).
    pub(crate) bulk_rows: Counter,
    pub(crate) bulk_rows_accepted: Counter,
    pub(crate) bulk_rows_rejected: Counter,
    pub(crate) bulk_chunks: Counter,
    pub(crate) bulk_fallbacks: Counter,
    pub(crate) bulk_ns: Histogram,
    pub(crate) assert_ns: Histogram,
    pub(crate) retract_ns: Histogram,
    pub(crate) propagate_ns: Histogram,
}

impl KbStats {
    /// Register the KB's series in `registry`.
    pub(crate) fn register(registry: &Registry) -> KbStats {
        let c = |name: &str, help: &str| {
            registry
                .counter(name, help)
                .expect("kb metric registration")
        };
        let h = |name: &str, help: &str| {
            registry
                .histogram(name, help)
                .expect("kb metric registration")
        };
        let dh = |name: &str, help: &str| {
            registry
                .duration_histogram(name, help)
                .expect("kb metric registration")
        };
        KbStats {
            assertions: c(
                "classic_assertions_total",
                "top-level assert-ind calls accepted",
            ),
            propagation_steps: c(
                "classic_propagation_steps_total",
                "worklist items processed by the propagation engine",
            ),
            fills_propagations: c(
                "classic_fills_propagations_total",
                "descriptions pushed onto fillers by ALL restrictions",
            ),
            coref_propagations: c(
                "classic_coref_propagations_total",
                "fillers derived through SAME-AS co-reference",
            ),
            rules_fired: c("classic_rules_fired_total", "forward-chaining rule firings"),
            realizations: c(
                "classic_realizations_total",
                "individual (re-)realizations performed",
            ),
            instance_tests: c(
                "classic_instance_tests_total",
                "node-level instance tests during realization/queries",
            ),
            retrieves: c("classic_retrieve_total", "retrieve queries answered"),
            retrieve_free: c(
                "classic_retrieve_free_total",
                "answers taken from subsumed extensions without a test",
            ),
            retrieve_tested: c(
                "classic_retrieve_tested_total",
                "candidates individually instance-tested",
            ),
            retrieve_candidates: h(
                "classic_retrieve_candidates",
                "candidates tested per retrieval",
            ),
            retrieve_ns: dh("classic_retrieve_ns", "retrieve wall time (ns)"),
            bulk_rows: c("classic_bulk_rows_total", "rows offered to bulk_assert"),
            bulk_rows_accepted: c("classic_bulk_rows_accepted_total", "bulk rows accepted"),
            bulk_rows_rejected: c("classic_bulk_rows_rejected_total", "bulk rows rejected"),
            bulk_chunks: c(
                "classic_bulk_chunks_total",
                "batched fixpoints run by bulk_assert",
            ),
            bulk_fallbacks: c(
                "classic_bulk_sequential_fallbacks_total",
                "bulk chunks replayed row-by-row after a combined clash",
            ),
            bulk_ns: dh("classic_bulk_assert_ns", "bulk_assert wall time (ns)"),
            assert_ns: dh("classic_assert_ns", "assert-ind wall time (ns)"),
            retract_ns: dh(
                "classic_retract_ns",
                "retract-ind/retract-rule wall time (ns)",
            ),
            propagate_ns: dh(
                "classic_propagate_fixpoint_ns",
                "propagation fixpoint wall time (ns)",
            ),
        }
    }
}

/// Per-assertion report: what one accepted update caused (E6's
/// derived-facts-per-asserted-fact metric).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AssertReport {
    /// Propagation steps taken: individuals planned, summed over the
    /// fixpoint's epochs (an individual re-planned in a later epoch
    /// counts again).
    pub steps: u64,
    /// `ALL` restrictions propagated onto fillers.
    pub fills_propagated: u64,
    /// Role fillers derived via `SAME-AS`.
    pub corefs_derived: u64,
    /// Rules fired.
    pub rules_fired: u64,
    /// Individuals whose most specific concepts changed.
    pub reclassified: u64,
    /// Individuals created implicitly by being referenced.
    pub inds_created: u64,
}

/// What [`Kb::sharing_with`] counts.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharing {
    /// Chunks that are one allocation in both KBs.
    pub chunks_shared: usize,
    /// Chunks the KB asked holds.
    pub chunks_total: usize,
    /// Of the shared chunks, the TBox's: the schema's definitions, the
    /// taxonomy and the rule table, one each.
    pub tbox_shared: usize,
    /// Of all the chunks, the TBox's (3).
    pub tbox_total: usize,
}

/// One update transaction: what [`Kb::rollback`] needs to undo it, the
/// worklist its fixpoint drains and the counts it reports.
#[derive(Default)]
pub(crate) struct Journal {
    /// First-touch snapshots of modified individuals.
    touched: HashMap<IndId, Individual>,
    /// The first individual created during the transaction; every later
    /// one follows it — they occupy the arena tail.
    first_created: Option<IndId>,
    /// Access-path edges added during the transaction.
    edges_added: Vec<Edge>,
    /// Dependency records earned during the transaction; absorbed into
    /// [`Kb::deps`] on commit, dropped on rollback.
    pub(crate) supports: Vec<Support>,
    /// Committed dependency records removed during a retraction;
    /// restored on rollback.
    supports_removed: Vec<Support>,
    /// Access-path edges removed during a retraction; restored on
    /// rollback.
    edges_removed: Vec<Edge>,
    /// Value edges the current epoch applied, entered into the postings
    /// when it ends ([`Kb::add_value_edges`]).
    pub(crate) value_edges: Vec<u64>,
    /// Where the schema's primitive declarations stood before the
    /// transaction's first told description; rollback truncates back.
    declared: Option<PrimMark>,
    /// The schema-sized change of a `define-concept`, an `assert-rule` or
    /// a `retract-rule` — a transaction makes at most one.
    ddl: Option<Ddl>,
    /// How many individual names were interned before the write's own;
    /// rollback truncates back (see [`Kb::schema_for_write`]).
    names: Option<usize>,
    /// Individuals waiting to be planned: the write's roots, then
    /// whatever applying an epoch's effects enqueues.
    pub(crate) work: VecDeque<IndId>,
    /// What the transaction has derived so far.
    pub(crate) report: AssertReport,
}

/// The individual an error is about, if it names one.
fn named_individual(e: &ClassicError) -> Option<IndName> {
    match e {
        ClassicError::Inconsistent { individual, .. } => *individual,
        ClassicError::UnknownIndividual(name)
        | ClassicError::IndividualExists(name)
        | ClassicError::NotAsserted(name) => Some(*name),
        _ => None,
    }
}

/// An access path from a role filler to the individuals holding it:
/// one entry of the reverse-filler index or of the value postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    /// `host` holds the CLASSIC individual `filler` as a role filler.
    Filler { filler: IndId, host: IndId },
    /// `host` holds a host value as a filler of a role; `key` is
    /// [`value_key`] of the pair.
    Value { key: u32, host: IndId },
}

/// The value-posting key of host value `value` as a filler of `role`: a
/// 32-bit hash of the pair. Two pairs may share a key; a posting then
/// holds the hosts of both, which is still a superset of either's (see
/// [`Kb::candidates`]). `DefaultHasher::new` hashes alike in every
/// call, so a read finds what a write put there; the postings are never
/// persisted, so the hash need not outlive the build.
pub(crate) fn value_key(role: RoleId, value: &HostValue) -> u32 {
    let mut hasher = DefaultHasher::new();
    (role, value).hash(&mut hasher);
    hasher.finish() as u32
}

/// A value posting's entry: its key above its host, so the entries of
/// one key are a range, ascending by host.
pub(crate) fn value_entry(key: u32, host: IndId) -> u64 {
    u64::from(key) << 32 | u64::from(host.0)
}

/// The key and the host of a value posting's entry.
fn value_entry_parts(entry: u64) -> (u32, IndId) {
    ((entry >> 32) as u32, IndId(entry as u32))
}

/// Every top-level (role, filler) pair of `nf`.
fn role_fillers(nf: &NormalForm) -> impl Iterator<Item = (RoleId, &IndRef)> {
    (nf.roles.iter()).flat_map(|(&r, rr)| rr.fillers.iter().map(move |f| (r, f)))
}

/// A change to the schema-sized state, as [`Kb::rollback`] inverts it.
enum Ddl {
    /// This concept was defined and classified.
    Defined(ConceptName),
    /// A rule was pushed onto the end of the rule table.
    RulePushed,
    /// The rule with this id was retired.
    RuleRetired(usize),
}

impl Journal {
    pub(crate) fn touch(&mut self, kb: &Kb, id: IndId) {
        if self.first_created.is_none_or(|first| id < first) {
            self.touched
                .entry(id)
                .or_insert_with(|| kb.inds[id.index()].clone());
        }
    }

    /// Add `edge` to `kb`, remembering it for rollback if it was new.
    pub(crate) fn add_edge(&mut self, kb: &mut Kb, edge: Edge) {
        if kb.add_edge(edge) {
            self.edges_added.push(edge);
        }
    }

    pub(crate) fn note_support(&mut self, s: Support) {
        self.supports.push(s);
    }
}

/// The CLASSIC knowledge base.
///
/// ```
/// use classic_core::desc::Concept;
/// use classic_kb::Kb;
///
/// let mut kb = Kb::new();
/// kb.define_role("friend")?;
/// kb.define_concept("POPULAR", Concept::primitive(Concept::thing(), "popular"))?;
/// let friend = kb.schema().symbols.find_role("friend").unwrap();
/// // Rule: anyone with ≥3 friends is POPULAR.
/// kb.define_concept("GREGARIOUS", Concept::AtLeast(3, friend))?;
/// kb.assert_rule(
///     "GREGARIOUS",
///     Concept::Name(kb.schema().symbols.find_concept("POPULAR").unwrap()),
/// )?;
/// kb.create_ind("Rocky")?;
/// kb.assert_ind("Rocky", &Concept::AtLeast(3, friend))?;
/// // The rule fired: Rocky is now recognized as POPULAR.
/// let popular = kb.schema().symbols.find_concept("POPULAR").unwrap();
/// let rocky = kb.ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())?;
/// assert!(kb.instances_of(popular)?.contains(&rocky));
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
///
/// # Cloning
///
/// [`Kb::clone`] is a second, independent version of the logical state,
/// and how a version is pinned: a server read snapshot, a sandbox, a
/// staged bulk load. It copies pointers and no entry. The TBox — the
/// schema's definitions, the taxonomy and the rules — sits behind
/// `Arc`s that only DDL writes, so the versions share it until one of
/// them changes the schema. The arena, the name index, the extensions,
/// the reverse-filler index, the value postings, the dependency journal
/// and the symbol table are chunked tables whose chunks, the last and
/// partial ones too, both versions go on sharing until one of them
/// writes there — a clone copies their spines (a pointer per chunk:
/// thirty-two individuals, or hundreds of the smaller entries). Neither
/// version ever sees the other's later writes.
///
/// The observability handles are *shared* outright: the metric registry
/// and the series (`stats`) are `Arc`'d, so a clone's
/// operations keep counting against the original KB's series. This is
/// exactly what a server read snapshot wants — queries against the
/// snapshot show up in the tenant's metrics — and it avoids enrolling
/// throwaway registries in the process-global roll-up for every snapshot
/// taken.
#[derive(Debug, Clone)]
pub struct Kb {
    pub(crate) schema: Schema,
    pub(crate) taxonomy: Taxonomy,
    /// The individual arena, in creation (= roster) order.
    pub(crate) inds: Chunked<Individual>,
    /// `IndName` index → arena id + 1; 0 for a name interned but not
    /// (or no longer) created. See [`Kb::find_ind`].
    by_name: Chunked<u32>,
    /// Direct extensions: for each taxonomy node, the individuals whose
    /// *most specific* concepts include it. Instances of a node = direct
    /// extensions of the node and all its descendants.
    pub(crate) extensions: Chunked<ChunkedSet<IndId>>,
    pub(crate) rules: Arc<Rules>,
    /// filler → individuals having it as a role filler (the reclassification
    /// cascade of §5 walks this).
    /// Keyed by the filler's id; see [`Kb::hosts_of`]. Each entry is a
    /// chunked set of its own, so copying a chunk of this table — or
    /// telling a module one more function is defined in it — does not
    /// copy the thousands of hosts a hub may have.
    reverse_fillers: Chunked<ChunkedSet<IndId>>,
    /// The value postings: for each (role, host value), the individuals
    /// whose derived form holds that value as a filler of that role, as
    /// `value_entry(value_key(role, value), host)` words in one sorted
    /// set. A posting is the range of one key (see [`Kb::value_hosts`]).
    /// One set, not a table of sets, so a clone copies a few dozen run
    /// pointers whatever the number of distinct values (DESIGN.md §4.6).
    value_postings: ChunkedSet<u64>,
    /// No value posting holds a host at or above this id. An individual
    /// created since the last value edge went in — every row of a bulk
    /// load, every newcomer told its first facts — is looked up in no
    /// run.
    value_hosts_below: u32,
    /// How many individual names were interned before the names of the
    /// write now under way: set by [`Kb::schema_for_write`] and
    /// [`Kb::create_ind`], cleared by [`Kb::schema_mut`] and a bulk load,
    /// taken by the next transaction, and truncated back to if that
    /// transaction is refused.
    pub(crate) names_mark: Option<usize>,
    /// Committed dependency records: why each individual's derived state
    /// is what it is. Consulted by retraction and `explain_provenance`.
    pub(crate) deps: DependencyJournal,
    /// The KB's metric series, shared with its clones.
    pub stats: Arc<KbStats>,
    /// This KB's metric registry. Every series the engine bumps
    /// (`stats`, the classification counters, and anything a wrapper
    /// such as `DurableKb` registers) lives here; the registry is also
    /// enrolled in the process-global roll-up that `--metrics` dumps.
    pub(crate) obs: Arc<Registry>,
}

impl Default for Kb {
    fn default() -> Self {
        Self::new()
    }
}

impl Kb {
    /// An empty knowledge base (schema, taxonomy and data all empty).
    ///
    /// Each `Kb` owns a fresh metric [`Registry`]; see [`Kb::metrics`].
    /// Its operations' traces go to the process-wide flight recorder
    /// ([`classic_obs::all_traces`]).
    pub fn new() -> Kb {
        let obs = Registry::new();
        let taxonomy = Taxonomy::with_obs(&obs);
        let stats = Arc::new(KbStats::register(&obs));
        let mut extensions = Chunked::default();
        (0..taxonomy.len()).for_each(|_| extensions.push(ChunkedSet::default()));
        Kb {
            schema: Schema::new(),
            taxonomy,
            inds: Chunked::default(),
            by_name: Chunked::default(),
            extensions,
            rules: Arc::default(),
            reverse_fillers: Chunked::default(),
            value_postings: ChunkedSet::default(),
            value_hosts_below: 0,
            names_mark: None,
            deps: DependencyJournal::default(),
            stats,
            obs,
        }
    }

    // ---- accessors -------------------------------------------------------

    /// The schema (roles, named concepts, primitives, tests).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (interning names for ad-hoc expressions).
    /// Individual names interned through it belong to the caller and are
    /// kept whatever becomes of the next write.
    pub fn schema_mut(&mut self) -> &mut Schema {
        self.names_mark = None;
        &mut self.schema
    }

    /// Mutable schema access for resolving the names of the write about
    /// to be applied: an individual name interned through it belongs to
    /// that write, and is forgotten again if the write is refused.
    pub fn schema_for_write(&mut self) -> &mut Schema {
        self.mark_names();
        &mut self.schema
    }

    /// Names interned from here on belong to the next transaction.
    fn mark_names(&mut self) {
        let count = self.schema.symbols.individual_count();
        self.names_mark.get_or_insert(count);
    }

    /// The IS-A hierarchy over the defined concepts.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Snapshot of the taxonomy's classification counters (subsumption
    /// tests, closure rebuilds; the memo fields read as
    /// [`classic_core::KernelStats`] says). Complements the ABox counters
    /// in [`Kb::stats`].
    pub fn kernel_stats(&self) -> classic_core::KernelStats {
        self.taxonomy.kernel_stats()
    }

    /// This KB's metric registry: every series the engine bumps
    /// (assertions, propagation, classification, durations).
    /// Snapshot or render it directly, or register additional series
    /// (the durable store does) so one exposition covers the whole
    /// stack.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The individual stored at `id`.
    pub fn ind(&self, id: IndId) -> &Individual {
        &self.inds[id.index()]
    }

    /// Number of CLASSIC individuals in the database.
    pub fn ind_count(&self) -> usize {
        self.inds.len()
    }

    /// Every individual handle, in creation order.
    pub fn ind_ids(&self) -> impl Iterator<Item = IndId> {
        (0..self.inds.len()).map(IndId::from_index)
    }

    /// The created individual called `name`, if there is one.
    pub(crate) fn find_ind(&self, name: IndName) -> Option<IndId> {
        let slot = *self.by_name.get(name.index())?;
        slot.checked_sub(1).map(IndId)
    }

    /// Resolve a created individual by name.
    pub fn ind_id(&self, name: IndName) -> Result<IndId> {
        self.find_ind(name)
            .ok_or(ClassicError::UnknownIndividual(name))
    }

    /// The individuals holding `filler` as a role filler, ascending (the
    /// reclassification cascade of §5 walks this).
    pub(crate) fn hosts_of(&self, filler: IndId) -> impl Iterator<Item = IndId> + '_ {
        let hosts = self.reverse_fillers.get(filler.index());
        hosts.into_iter().flat_map(ChunkedSet::iter)
    }

    /// Is `host` recorded as holding `filler`?
    pub(crate) fn holds_reverse_edge(&self, filler: IndId, host: IndId) -> bool {
        let hosts = self.reverse_fillers.get(filler.index());
        hosts.is_some_and(|hosts| hosts.contains(&host))
    }

    /// The individuals in the value posting of `key`, ascending: every
    /// host of a (role, value) pair whose [`value_key`] it is.
    fn value_hosts(&self, key: u32) -> impl Iterator<Item = IndId> + '_ {
        let from = self.value_postings.iter_from(value_entry(key, IndId(0)));
        let entries = from.map(value_entry_parts);
        entries
            .take_while(move |&(k, _)| k == key)
            .map(|(_, host)| host)
    }

    /// Is `host` in the value posting of `key`?
    pub(crate) fn holds_value_edge(&self, key: u32, host: IndId) -> bool {
        host.0 < self.value_hosts_below && self.value_postings.contains(&value_entry(key, host))
    }

    /// Enter the value edges the epoch applied into the postings, in
    /// ascending order, and journal them. Nothing reads the postings while
    /// an epoch applies, so deferring them to its end changes nothing
    /// else; in order, each insert lands beside the one before, where a
    /// bulk chunk's rows in effect order would scatter over every run
    /// (their keys are hashes).
    pub(crate) fn add_value_edges(&mut self, journal: &mut Journal) {
        let mut entries = std::mem::take(&mut journal.value_edges);
        entries.sort_unstable();
        for &entry in &entries {
            let (key, host) = value_entry_parts(entry);
            journal.add_edge(self, Edge::Value { key, host });
        }
        entries.clear();
        journal.value_edges = entries;
    }

    /// Record `edge`; `false` (and nothing copied) if it was known.
    fn add_edge(&mut self, edge: Edge) -> bool {
        match edge {
            Edge::Filler { filler, host } => {
                !self.holds_reverse_edge(filler, host)
                    && self.reverse_fillers.slot(filler.index()).insert(host)
            }
            Edge::Value { key, host } => {
                self.value_hosts_below = self.value_hosts_below.max(host.0 + 1);
                self.value_postings.insert(value_entry(key, host))
            }
        }
    }

    /// Forget `edge`; `false` (and nothing copied) if it was not known.
    fn remove_edge(&mut self, edge: Edge) -> bool {
        match edge {
            Edge::Filler { filler, host } => {
                self.holds_reverse_edge(filler, host)
                    && self.reverse_fillers[filler.index()].remove(&host)
            }
            Edge::Value { key, host } => self.value_postings.remove(&value_entry(key, host)),
        }
    }

    /// How much of this KB's storage `other` shares, by allocation
    /// identity: the probe experiment E19 and the aliasing tests read.
    /// Counts every chunk of every table — the arena, the name index, the
    /// reverse-filler index, the value postings, both sides of the
    /// dependency journal, the symbol table, the extension table and each
    /// node's extension — and the three parts of the TBox, one each.
    #[doc(hidden)]
    pub fn sharing_with(&self, other: &Kb) -> Sharing {
        let [symbols, definitions] = self.schema.sharing_with(&other.schema);
        let rules = usize::from(Arc::ptr_eq(&self.rules, &other.rules));
        let tbox = [
            definitions,
            self.taxonomy.sharing_with(&other.taxonomy),
            (rules, 1),
        ];
        let mut parts = vec![
            self.inds.sharing_with(&other.inds),
            self.by_name.sharing_with(&other.by_name),
            self.reverse_fillers.sharing_with(&other.reverse_fillers),
            self.value_postings.sharing_with(&other.value_postings),
            symbols,
            self.extensions.sharing_with(&other.extensions),
        ];
        parts.extend(self.deps.sharing_with(&other.deps));
        let extensions = self.extensions.iter().zip(other.extensions.iter());
        parts.extend(extensions.map(|(mine, theirs)| mine.sharing_with(theirs)));
        parts.extend(tbox);
        Sharing {
            chunks_shared: parts.iter().map(|(shared, _)| shared).sum(),
            chunks_total: parts.iter().map(|(_, total)| total).sum(),
            tbox_shared: tbox.iter().map(|(shared, _)| shared).sum(),
            tbox_total: tbox.len(),
        }
    }

    /// The forward-chaining rules, in assertion order. Includes retired
    /// (retracted) rules so indices stay stable; see [`Kb::active_rules`].
    pub fn rules(&self) -> &[Rule] {
        &self.rules.table
    }

    /// The live (non-retired) rules, with their stable indices.
    pub fn active_rules(&self) -> impl Iterator<Item = (usize, &Rule)> {
        self.rules
            .table
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.retired)
    }

    /// The committed dependency records (why each individual's derived
    /// state is what it is); consulted by retraction and explanation.
    pub fn deps(&self) -> &DependencyJournal {
        &self.deps
    }

    /// Normalize an ad-hoc concept expression against this KB's schema.
    pub fn normalize(&self, c: &Concept) -> Result<NormalForm> {
        classic_core::normal::normalize(c, &self.schema)
    }

    // ---- DDL --------------------------------------------------------------

    /// `define-role[name]` (§3.1).
    pub fn define_role(&mut self, name: &str) -> Result<RoleId> {
        self.schema.define_role(name)
    }

    /// Declare a single-valued role, usable in `SAME-AS` chains.
    pub fn define_attribute(&mut self, name: &str) -> Result<RoleId> {
        self.schema.define_attribute(name)
    }

    /// Register a host-language `TEST` function (§2.1.4).
    pub fn register_test<F>(&mut self, name: &str, f: F) -> TestId
    where
        F: Fn(&TestArg<'_>) -> bool + Send + Sync + 'static,
    {
        self.schema.register_test(name, f)
    }

    /// `define-concept[name, expr]` (§3.1): normalize, store, classify into
    /// the taxonomy, and *recognize* any existing individuals that already
    /// satisfy the new definition — the schema can grow "any time it seems
    /// useful" and the data immediately reflects it. The individuals that
    /// may satisfy it are the roots of the definition's fixpoint, so a
    /// refusal at any point — a `TEST` recognizer that panics on one of
    /// them included — leaves the schema and the taxonomy as they were.
    pub fn define_concept(&mut self, name: &str, told: Concept) -> Result<ConceptName> {
        let defined = self.transact(true, |kb, journal| {
            journal.declared = Some(kb.schema.declare(&told));
            let cname = kb.schema.define_concept(name, told)?;
            journal.ddl = Some(Ddl::Defined(cname));
            let nf = kb.schema.concept_nf(cname)?.clone();
            let (node, placed) = kb.taxonomy.insert(cname, nf);
            while kb.extensions.len() < kb.taxonomy.len() {
                kb.extensions.push(ChunkedSet::default());
            }
            // A second name for a node changes nobody's recognition. A
            // new node holds the answers to its definition read as a
            // query. The free ones already sit below it, where it holds
            // them without a new `msc`, and no rule names it yet: only the
            // candidates a retrieval would test are re-planned.
            if placed.equivalent.is_none() {
                let (_, tested) = kb.candidates(&kb.taxonomy.node(node).nf, &placed);
                journal.work.extend(tested);
            }
            Ok(cname)
        });
        defined.map(|(cname, _)| cname)
    }

    // ---- individuals -------------------------------------------------------

    /// `create-ind[name]` (§3.2): "creates an individual … about whom
    /// nothing is known (except that it is a THING)". Establishes identity
    /// independent of properties. A transaction like every other write:
    /// the newcomer is recognized, a rule whose antecedent a bare
    /// individual satisfies fires on it, and a `TEST` recognizer that
    /// panics on it leaves no trace of it.
    pub fn create_ind(&mut self, name: &str) -> Result<IndId> {
        self.mark_names();
        let iname = self.schema.symbols.individual(name);
        if self.find_ind(iname).is_some() {
            return Err(ClassicError::IndividualExists(iname));
        }
        let created = self.transact(true, |kb, journal| kb.ensure_ind(iname, journal));
        created.map(|(id, _)| id)
    }

    /// Get the individual named `name`, creating it if referenced for the
    /// first time (the paper's examples assert facts about `Volvo-17`
    /// without a prior `create-ind`). A newcomer is recognized where it
    /// is created, inside the transaction that rolls it back: blank, it
    /// has nothing to push anywhere, so it joins the worklist only if a
    /// rule is due on it (the step is what fires rules).
    pub(crate) fn ensure_ind(&mut self, iname: IndName, journal: &mut Journal) -> Result<IndId> {
        if let Some(id) = self.find_ind(iname) {
            return Ok(id);
        }
        let id = IndId::from_index(self.inds.len());
        self.inds.push(Individual::new(iname));
        *self.by_name.slot(iname.index()) = id.0 + 1;
        journal.first_created.get_or_insert(id);
        self.stats.realizations.bump();
        let (qualifying, msc) = guard_recognizers(|| self.compute_recognition(id))?;
        let live_rules = |n| {
            self.rules
                .by_node
                .get(n)
                .is_some_and(|live| !live.is_empty())
        };
        if qualifying.iter().any(live_rules) {
            journal.work.push_back(id);
        }
        self.install_recognition(id, msc);
        Ok(id)
    }

    /// The one transaction every write to the KB runs in. `stage` makes
    /// the write's own change through the journal and leaves its roots on
    /// the worklist; propagation then closes over them. Accepted and
    /// `keep`, the supports the fixpoint earned are committed; refused —
    /// or a trial (`keep` false), whatever its outcome — everything is
    /// rolled back.
    pub(crate) fn transact<T>(
        &mut self,
        keep: bool,
        stage: impl FnOnce(&mut Kb, &mut Journal) -> Result<T>,
    ) -> Result<(T, AssertReport)> {
        let mut journal = Journal {
            names: self.names_mark.take(),
            ..Journal::default()
        };
        let staged = stage(self, &mut journal)
            .and_then(|staged| Propagation::run(self, &mut journal).map(|()| staged));
        // A refusal that names an individual keeps that name, so the
        // error still reads as it did.
        if let (Some(len), Err(e)) = (&mut journal.names, &staged) {
            if let Some(name) = named_individual(e) {
                *len = (*len).max(name.index() + 1);
            }
        }
        let mut report = std::mem::take(&mut journal.report);
        let created = journal.first_created;
        report.inds_created = created.map_or(0, |first| (self.inds.len() - first.index()) as u64);
        if keep && staged.is_ok() {
            self.deps.absorb(journal.supports);
        } else if let (Some(name), false) = (self.rollback(journal).into_iter().next(), keep) {
            // A trial declares nothing: a primitive index it would have
            // had to declare is its error, accepted or not.
            let kind = "primitive";
            return Err(ClassicError::UndefinedName { kind, name });
        }
        staged.map(|staged| (staged, report))
    }

    /// `assert-ind[name, desc]` (§3.2): incrementally add (possibly
    /// partial) information. Accepted atomically or rejected with a rolled
    /// back state and the clash that caused the rejection (§3.4).
    ///
    /// Recognition is automatic (§3.3): asserting the parts of a defined
    /// concept makes the individual an instance of it.
    ///
    /// ```
    /// use classic_core::Concept;
    /// use classic_kb::Kb;
    ///
    /// let mut kb = Kb::new();
    /// let enrolled = kb.define_role("enrolled-at")?;
    /// kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))?;
    /// let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    /// kb.define_concept(
    ///     "STUDENT",
    ///     Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]),
    /// )?;
    /// let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
    ///
    /// let rocky = kb.create_ind("Rocky")?;
    /// kb.assert_ind("Rocky", &Concept::Name(person))?;
    /// assert!(!kb.is_instance_of(rocky, student)?);
    /// kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))?;
    /// assert!(kb.is_instance_of(rocky, student)?); // recognized, not asserted
    /// # Ok::<(), classic_core::ClassicError>(())
    /// ```
    pub fn assert_ind(&mut self, name: &str, desc: &Concept) -> Result<AssertReport> {
        let iname = self.schema.symbols.individual(name);
        let id = self.ind_id(iname)?;
        self.assert_ind_by_id(id, desc)
    }

    /// `assert-ind` addressed by handle.
    pub(crate) fn assert_ind_by_id(&mut self, id: IndId, desc: &Concept) -> Result<AssertReport> {
        let _span = classic_obs::span_timed("kb.assert", &self.stats.assert_ns);
        let ((), report) = self.transact(true, |kb, journal| kb.stage_told(id, desc, journal))?;
        self.stats.assertions.bump();
        Ok(report)
    }

    /// The told half of an assertion, before any propagation: declare
    /// `desc`'s primitive atoms, record it as told on `id`, conjoin it
    /// into the derived description and make `id` a root.
    pub(crate) fn stage_told(
        &mut self,
        id: IndId,
        desc: &Concept,
        journal: &mut Journal,
    ) -> Result<()> {
        journal.touch(self, id);
        let mark = self.schema.declare(desc);
        journal.declared.get_or_insert(mark);
        // Auto-create any individuals the description references, so
        // FILLS/ONE-OF targets exist (paper examples rely on this).
        self.ensure_referenced_inds(desc, journal)?;
        journal.work.push_back(id);
        let ind = &mut self.inds[id.index()];
        journal.note_support(Support {
            target: id,
            source: id,
            kind: SupportKind::Told {
                index: ind.told.len(),
            },
        });
        ind.told.push(desc.clone());
        // Conjoin the asserted expression *contextually* (CLOSE applies to
        // the currently known fillers — §3.2).
        conjoin_expression(desc, &self.schema, &mut ind.derived)
    }

    pub(crate) fn ensure_referenced_inds(
        &mut self,
        desc: &Concept,
        journal: &mut Journal,
    ) -> Result<()> {
        match desc {
            Concept::OneOf(inds) | Concept::Fills(_, inds) => {
                for i in inds {
                    if let IndRef::Classic(n) = i {
                        self.ensure_ind(*n, journal)?;
                    }
                }
            }
            Concept::All(_, inner) => self.ensure_referenced_inds(inner, journal)?,
            Concept::And(parts) => {
                for p in parts {
                    self.ensure_referenced_inds(p, journal)?;
                }
            }
            Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
                self.ensure_referenced_inds(parent, journal)?
            }
            _ => {}
        }
        Ok(())
    }

    /// Hypothetical assertion: would `desc` be accepted, and what would it
    /// derive? The update is run through the full propagation engine and
    /// then rolled back unconditionally, leaving the database untouched
    /// either way. A trial declares nothing: a description carrying a
    /// primitive index nothing has declared is an error that names it.
    ///
    /// This is the question every configuration session asks ("can this
    /// part still be added?") and the natural complement of the paper's
    /// accept-or-reject update model: the same journal that makes rejected
    /// updates atomic (§3.4) makes accepted ones reversible for free.
    pub fn what_if(&mut self, name: &str, desc: &Concept) -> Result<AssertReport> {
        let iname = self.schema.symbols.individual(name);
        let id = self.ind_id(iname)?;
        let ((), report) = self.transact(false, |kb, journal| kb.stage_told(id, desc, journal))?;
        Ok(report)
    }

    /// `retract-ind[name, desc]`: remove a previously *told* description
    /// and re-derive every affected individual from its surviving told
    /// facts — the destructive update the paper defers ("we … are now
    /// implementing … and will report on this at a future date", §3.2).
    ///
    /// `desc` must syntactically match a told assertion on the individual
    /// (most recent match is removed); derived information cannot be
    /// retracted directly, only by removing the told facts it rests on.
    /// The semantic contract is the rebuild oracle: after retraction the
    /// database is indistinguishable from one built fresh from the
    /// surviving told facts (see `tests/retract.rs`). Re-derivation walks
    /// the dependency journal's forward closure instead of rebuilding the
    /// whole KB.
    ///
    /// A retraction whose re-derivation fails (possible with
    /// order-dependent `CLOSE` told facts) is rejected atomically, like a
    /// failing `assert-ind`.
    pub fn retract_ind(&mut self, name: &str, desc: &Concept) -> Result<RetractReport> {
        let iname = self.schema.symbols.individual(name);
        let id = self.ind_id(iname)?;
        self.retract_ind_by_id(id, desc)
    }

    /// `retract-ind` addressed by handle.
    pub(crate) fn retract_ind_by_id(&mut self, id: IndId, desc: &Concept) -> Result<RetractReport> {
        let _span = classic_obs::span_timed("kb.retract", &self.stats.retract_ns);
        let Some(pos) = self.inds[id.index()].told.iter().rposition(|t| t == desc) else {
            return Err(ClassicError::NotAsserted(self.inds[id.index()].name));
        };
        self.retract(|kb, journal| {
            journal.touch(kb, id);
            kb.inds[id.index()].told.remove(pos);
            BTreeSet::from([id])
        })
    }

    /// A retraction's transaction: `stage` removes the told entry (or
    /// retires the rule) and names the individuals that rested on it.
    /// Everyone whose derived state may rest on those seeds is reset to
    /// their surviving told facts and the whole region re-propagated to a
    /// fixed point.
    fn retract(
        &mut self,
        stage: impl FnOnce(&mut Kb, &mut Journal) -> BTreeSet<IndId>,
    ) -> Result<RetractReport> {
        let ((reset, requeued), report) = self.transact(true, |kb, journal| {
            let seeds = stage(kb, journal);
            kb.reset_cone(&seeds, journal)
        })?;
        Ok(RetractReport {
            reset,
            requeued,
            steps: report.steps,
            reclassified: report.reclassified,
        })
    }

    /// Reset the forward dependency closure of `seeds` and make it, plus
    /// the hosts that must re-push onto it, the roots of the fixpoint;
    /// returns how many individuals were reset and how many enqueued.
    fn reset_cone(&mut self, seeds: &BTreeSet<IndId>, journal: &mut Journal) -> Result<(u64, u64)> {
        // RESET: the forward dependency closure — everyone whose derived
        // state may (transitively) rest on retracted information.
        let reset = self.deps.affected_from(seeds);
        // ENQUEUE: RESET plus its transitive reverse-filler hosts. Hosts
        // keep their derived state (it does not depend on the retracted
        // fact — they are outside the closure) but must re-run so their
        // ALL restrictions and SAME-AS corefs re-push information the
        // reset wiped. Transitivity matters: a multi-step SAME-AS source
        // is only reachable through a chain of reverse-filler edges.
        // Computed before stale edges are removed below.
        let enqueue = self.with_hosts(reset.clone());
        for &i in &enqueue {
            journal.touch(self, i);
        }
        // Void the old provenance of reset individuals (restored on
        // rollback), and the access-path edges they host — their role
        // fillers are about to be recomputed, and propagation will
        // re-insert the surviving edges.
        journal
            .supports_removed
            .extend(self.deps.remove_targets(&reset));
        // An edge exists only for a filler the host's derived description
        // names, so each reset host's own fillers — read before the reset
        // below wipes them — find every stale edge: the cost is the
        // cone's, not the index's. A host loses all its value edges here
        // and re-planning re-adds one for each value it still holds, so a
        // key two of its values share is never removed from under a live
        // one.
        for &host in &reset {
            let edges: Vec<Edge> = role_fillers(&self.inds[host.index()].derived)
                .filter_map(|(r, f)| match f {
                    IndRef::Classic(name) => Some(Edge::Filler {
                        filler: self.find_ind(*name)?,
                        host,
                    }),
                    IndRef::Host(v) => Some(Edge::Value {
                        key: value_key(r, v),
                        host,
                    }),
                })
                .collect();
            for edge in edges {
                if self.remove_edge(edge) {
                    journal.edges_removed.push(edge);
                }
            }
        }
        // Reset each member to its surviving told facts. Fired rules are
        // only valid for growing descriptions, so they are cleared.
        for &i in &reset {
            let mut derived = NormalForm::top();
            derived.layer = classic_core::Layer::Classic;
            for (ix, t) in self.inds[i.index()].told.iter().enumerate() {
                conjoin_expression(t, &self.schema, &mut derived)?;
                journal.note_support(Support {
                    target: i,
                    source: i,
                    kind: SupportKind::Told { index: ix },
                });
            }
            let ind = &mut self.inds[i.index()];
            ind.derived = derived;
            ind.fired_rules.clear();
        }
        journal.work.extend(&enqueue);
        Ok((reset.len() as u64, enqueue.len() as u64))
    }

    /// `cone` plus its transitive reverse-filler hosts.
    fn with_hosts(&self, mut cone: BTreeSet<IndId>) -> BTreeSet<IndId> {
        let mut frontier: VecDeque<IndId> = cone.iter().copied().collect();
        while let Some(i) = frontier.pop_front() {
            for h in self.hosts_of(i) {
                if cone.insert(h) {
                    frontier.push_back(h);
                }
            }
        }
        cone
    }

    /// The individuals of this KB whose state may differ from `old`'s, a
    /// version cloned from or to it, and how many chunks differ: those in
    /// an arena chunk `old` does not share, and those whose dependency
    /// records differ. A superset of the individuals that changed (a
    /// chunk holds several), found in one walk of the two tables' spines
    /// and the record chunks that differ: it costs what was written since
    /// `old`, not the KB.
    pub fn changed_since(&self, old: &Kb) -> (BTreeSet<IndId>, usize) {
        let count = self.ind_count();
        let mut changed = BTreeSet::new();
        let mut mark = |ix: usize| {
            if ix < count {
                changed.insert(IndId::from_index(ix));
            }
        };
        let mut differ = self.inds.diff_chunks(&old.inds, |at, mine, _| {
            (at..at + mine.len()).for_each(&mut mark)
        });
        differ += self.deps.diff_records(&old.deps, &mut mark);
        (changed, differ)
    }

    // ---- rules --------------------------------------------------------------

    /// `assert-rule[C1, C2]` (§3.3): attach a forward-chaining trigger to a
    /// *named* concept and immediately apply it to every currently
    /// recognized instance — the roots of the rule's fixpoint —
    /// propagating "until a fixed point is reached" (§5). If applying the
    /// rule makes any individual inconsistent the rule is rejected and
    /// the database, rule table included, left unchanged.
    pub fn assert_rule(&mut self, antecedent: &str, consequent: Concept) -> Result<usize> {
        let cname = self.schema.symbols.concept(antecedent);
        let node = self
            .taxonomy
            .node_of(cname)
            .ok_or(ClassicError::RuleOnUndefinedConcept(cname))?;
        let asserted = self.transact(true, |kb, journal| {
            journal.declared = Some(kb.schema.declare(&consequent));
            // Validate the consequent normalizes at all.
            kb.normalize(&consequent)?;
            let rules = Arc::make_mut(&mut kb.rules);
            let rule_ix = rules.table.len();
            rules.table.push(Rule {
                antecedent: cname,
                node,
                consequent,
                retired: false,
            });
            rules.by_node.entry(node).or_default().push(rule_ix);
            journal.ddl = Some(Ddl::RulePushed);
            kb.for_each_instance(node, |id| journal.work.push_back(id));
            Ok(rule_ix)
        });
        asserted.map(|(rule_ix, _)| rule_ix)
    }

    /// `retract-rule[C1, C2]`: retire the most recently asserted live rule
    /// with this antecedent and consequent, and re-derive every individual
    /// it fired on from surviving told facts (plus the still-active rules).
    ///
    /// The rule slot is retired, not removed — rule indices are stored in
    /// `fired_rules` and `rules_by_node` and must stay stable.
    pub fn retract_rule(
        &mut self,
        antecedent: &str,
        consequent: &Concept,
    ) -> Result<RetractReport> {
        let cname = self.schema.symbols.concept(antecedent);
        let Some(rule_ix) = self
            .rules
            .table
            .iter()
            .rposition(|r| !r.retired && r.antecedent == cname && r.consequent == *consequent)
        else {
            return Err(self.no_such_rule(antecedent, cname));
        };
        self.retract_rule_at(rule_ix)
    }

    /// `retract-rule` addressed by the stable rule id [`Kb::assert_rule`]
    /// returned (and that `(list-rules)` displays). Retires the rule and
    /// re-derives every individual it fired on, exactly like
    /// [`Kb::retract_rule`]; out-of-range or already-retired ids are
    /// rejected with a [`ClassicError::NoSuchRule`] naming the id.
    pub fn retract_rule_by_id(&mut self, rule_ix: usize) -> Result<RetractReport> {
        self.live_rule(rule_ix)?;
        self.retract_rule_at(rule_ix)
    }

    /// The live rule with id `rule_ix` — what `retract-rule` by id
    /// retires, and what the durable log records it as.
    pub fn live_rule(&self, rule_ix: usize) -> Result<&Rule> {
        let no_such = |hint: String| ClassicError::NoSuchRule {
            antecedent: format!("#{rule_ix}"),
            suggestion: Some(hint),
        };
        match self.rules.table.get(rule_ix) {
            None => Err(no_such(format!(
                "rule ids range over 0..{} (see list-rules)",
                self.rules.table.len()
            ))),
            Some(rule) if rule.retired => Err(no_such("that rule was already retracted".into())),
            Some(rule) => Ok(rule),
        }
    }

    /// Retire the (live) rule at `rule_ix` and re-derive everything it
    /// fired on. The seeds are found by scanning the arena for the
    /// firing, not among the antecedent's instances: a `retract-ind` can
    /// shrink a host's recognition without resetting it (ROADMAP.md, "a
    /// firing can outlive the recognition it rested on"), and such a
    /// host is no longer an instance yet still holds the consequent.
    fn retract_rule_at(&mut self, rule_ix: usize) -> Result<RetractReport> {
        let _span = classic_obs::span_timed("kb.retract_rule", &self.stats.retract_ns);
        self.retract(|kb, journal| {
            let rules = Arc::make_mut(&mut kb.rules);
            let rule = &mut rules.table[rule_ix];
            rule.retired = true;
            let live = rules.by_node.entry(rule.node).or_default();
            live.retain(|&r| r != rule_ix);
            journal.ddl = Some(Ddl::RuleRetired(rule_ix));
            kb.ind_ids()
                .filter(|i| kb.inds[i.index()].fired_rules.contains(&rule_ix))
                .collect()
        })
    }

    /// Build the "unknown rule" error for `retract-rule`: names the
    /// antecedent as given and, when possible, points at what the caller
    /// probably meant — a near-miss antecedent among the live rules
    /// (typo), or a note that the antecedent's live rules carry different
    /// consequents.
    fn no_such_rule(&self, antecedent: &str, cname: ConceptName) -> ClassicError {
        let live: Vec<&Rule> = self.active_rules().map(|(_, r)| r).collect();
        let with_antecedent = live.iter().filter(|r| r.antecedent == cname).count();
        let suggestion = if with_antecedent > 0 {
            Some(format!(
                "{with_antecedent} live rule(s) on {antecedent:?} have a \
                 different consequent"
            ))
        } else {
            nearest_match(
                antecedent,
                live.iter()
                    .map(|r| self.schema.symbols.concept_name(r.antecedent)),
            )
            .map(|name| format!("did you mean {name:?}?"))
        };
        ClassicError::NoSuchRule {
            antecedent: antecedent.to_owned(),
            suggestion,
        }
    }

    // ---- extensions -----------------------------------------------------------

    /// The instances of `nodes`, ascending and without duplicates
    /// (`BOTTOM` has none).
    ///
    /// They are the direct extensions of the nodes and their descendants:
    /// sorted runs, which overlap where an individual has several
    /// most-specific concepts. A bitset over the runs' id span merges
    /// them and drops the repeats, in one pass over the runs and one over
    /// the words. It is used only where the span holds at most 64 ids per
    /// visit, so it is never larger than the visits; a sparser set of
    /// runs is sorted instead.
    fn sorted_instances(&self, nodes: &[NodeId]) -> Vec<IndId> {
        if nodes.contains(&NodeId::TOP) {
            return self.ind_ids().collect();
        }
        let mut runs: Vec<&ChunkedSet<IndId>> = Vec::new();
        for &node in nodes.iter().filter(|&&node| node != NodeId::BOTTOM) {
            let below = self.taxonomy.strict_descendants(node);
            let run = |n: NodeId| &self.extensions[n.index()];
            runs.extend(std::iter::once(node).chain(below).map(run));
        }
        let visits: usize = runs.iter().map(|run| run.len()).sum();
        let ends = runs
            .iter()
            .filter_map(|run| Some((run.iter().next()?, run.iter().next_back()?)));
        let Some((lo, hi)) = ends.reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b))) else {
            return Vec::new();
        };
        let (lo, span) = (lo.index(), hi.index() - lo.index() + 1);
        if span > 64 * visits {
            let mut ids: Vec<IndId> = runs.iter().flat_map(|run| run.iter()).collect();
            ids.sort_unstable();
            ids.dedup();
            return ids;
        }
        let mut words = vec![0u64; span.div_ceil(64)];
        for run in &runs {
            // Neighbours in a run mostly share a word: gather its bits in
            // a register and store them when the run moves past it.
            let (mut word, mut bits) = (0, 0u64);
            for id in run.iter() {
                let at = id.index() - lo;
                if at / 64 != word {
                    words[word] |= bits;
                    (word, bits) = (at / 64, 0);
                }
                bits |= 1 << (at % 64);
            }
            words[word] |= bits;
        }
        let mut ids = Vec::with_capacity(visits.min(span));
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                ids.push(IndId::from_index(
                    lo + w * 64 + bits.trailing_zeros() as usize,
                ));
                bits &= bits - 1;
            }
        }
        ids
    }

    /// Visit every instance of a node without materializing the set.
    /// Individuals with several most-specific concepts may be visited more
    /// than once; callers needing distinctness must deduplicate.
    pub fn for_each_instance(&self, node: NodeId, mut f: impl FnMut(IndId)) {
        if node == NodeId::TOP {
            for id in self.ind_ids() {
                f(id);
            }
            return;
        }
        for id in self.extensions[node.index()].iter() {
            f(id);
        }
        for d in self.taxonomy.strict_descendants(node) {
            for id in self.extensions[d.index()].iter() {
                f(id);
            }
        }
    }

    /// Cheap upper bound on a node's instance count (duplicates across
    /// multiple most-specific concepts counted repeatedly). Used to pick
    /// the most selective subsumer in [`Kb::candidates`].
    fn extension_size_bound(&self, node: NodeId) -> usize {
        if node == NodeId::TOP {
            return self.ind_count();
        }
        let mut n = self.extensions[node.index()].len();
        for d in self.taxonomy.strict_descendants(node) {
            n += self.extensions[d.index()].len();
        }
        n
    }

    /// §5's split of the known instances of `nf`, a query classified as
    /// `cls`: the answers free of any test, and the candidates left to
    /// test, both ascending and without duplicates.
    ///
    /// The free answers are the instances of `cls`'s subsumees, or of the
    /// node equivalent to `nf` (then nothing is left to test). The
    /// candidates are the smallest of four sources, each a superset of
    /// the answers, less the free ones:
    ///
    /// * The extension of the most selective of `cls.parents`: every
    ///   answer is an instance of each ("the instances of the parent
    ///   concepts are tested individually").
    /// * For each CLASSIC individual `a` among `nf`'s top-level fillers of
    ///   some role, the hosts recorded as holding `a`. An answer's derived
    ///   form holds every filler the query names, and at the fixed point
    ///   every CLASSIC filler of a derived form has its reverse edge
    ///   (clause 4 of [`Kb::check_invariants`]). The index records no
    ///   roles, so it may hold more hosts than answers, never fewer.
    /// * For each host value `v` among `nf`'s top-level fillers of a role
    ///   `r`, the value posting of `(r, v)`: by the same argument, at the
    ///   fixed point every host filler of a derived form has its value
    ///   edge. A posting is keyed by a hash of the pair, so it may also
    ///   hold the hosts of another pair, never fewer than `(r, v)`'s.
    /// * The CLASSIC members of `nf`'s `ONE-OF`.
    ///
    /// A filler or member naming no created individual, or a value no
    /// derived form holds, has no host, so its source is empty. A value
    /// posting is counted only up to the smallest source offered before
    /// it, and read out only if it wins.
    pub fn candidates(&self, nf: &NormalForm, cls: &Classification) -> (Vec<IndId>, Vec<IndId>) {
        if let Some(eq) = cls.equivalent {
            return (self.sorted_instances(&[eq]), Vec::new());
        }
        enum Source<'a> {
            Node(NodeId),
            Hosts(Option<&'a ChunkedSet<IndId>>),
            Values(u32),
            Members(Vec<IndId>),
        }
        let mut best: Option<(usize, Source<'_>)> = None;
        let mut offer = |size: usize, source| {
            if best.as_ref().is_none_or(|(least, _)| size < *least) {
                best = Some((size, source));
            }
        };
        for &p in &cls.parents {
            offer(self.extension_size_bound(p), Source::Node(p));
        }
        let mut values = Vec::new();
        for (r, f) in role_fillers(nf) {
            match f {
                IndRef::Classic(name) => {
                    let hosts = self
                        .find_ind(*name)
                        .and_then(|a| self.reverse_fillers.get(a.index()));
                    offer(hosts.map_or(0, ChunkedSet::len), Source::Hosts(hosts));
                }
                IndRef::Host(v) => values.push(value_key(r, v)),
            }
        }
        if let Some(members) = &nf.one_of {
            let mut ids: Vec<IndId> = members
                .iter()
                .filter_map(|m| match m {
                    IndRef::Classic(name) => self.find_ind(*name),
                    IndRef::Host(_) => None,
                })
                .collect();
            ids.sort_unstable();
            offer(ids.len(), Source::Members(ids));
        }
        // A posting has no stored length: count its range, but no further
        // than the size it has to beat.
        for key in values {
            let least = best.as_ref().map_or(usize::MAX, |(least, _)| *least);
            let size = self.value_hosts(key).take(least).count();
            if size < least {
                best = Some((size, Source::Values(key)));
            }
        }
        let mut tested = match best {
            None => Vec::new(),
            Some((_, Source::Node(p))) => self.sorted_instances(&[p]),
            Some((_, Source::Hosts(hosts))) => hosts.map_or_else(Vec::new, |h| h.iter().collect()),
            Some((_, Source::Values(key))) => self.value_hosts(key).collect(),
            Some((_, Source::Members(ids))) => ids,
        };
        let free = self.sorted_instances(&cls.children);
        if !free.is_empty() {
            tested.retain(|id| free.binary_search(id).is_err());
        }
        (free, tested)
    }

    /// Instances of a *named* concept (extensional query, §3.5.3).
    pub fn instances_of(&self, name: ConceptName) -> Result<BTreeSet<IndId>> {
        let node = self
            .taxonomy
            .node_of(name)
            .ok_or(ClassicError::UndefinedConcept(name))?;
        // Built in one go from the sorted ids, where inserting id by id
        // would walk the tree once for each.
        Ok(self.sorted_instances(&[node]).into_iter().collect())
    }

    // ---- diagnostics ------------------------------------------------------------

    /// Verify the database's internal invariants, returning the first
    /// violation found. Intended for tests and debugging; a healthy `Kb`
    /// always passes:
    ///
    /// 1. no committed individual is incoherent (§3.4 — inconsistent
    ///    updates are rejected, never stored);
    /// 2. the extension index and per-individual realizations agree in
    ///    both directions;
    /// 3. every individual's `msc` is an antichain whose upward closure
    ///    is exactly the set of nodes recognition finds it under;
    /// 4. *closure*: the committed state is a fixed point of the
    ///    propagation step — planning any individual calls for no change
    ///    (only support records, which restate the fixed point). A
    ///    scheduler that drops a needed re-enqueue leaves the state open
    ///    and fails this; one that plans too much cannot be wrong, the
    ///    step being monotone. A missing access-path edge is such a
    ///    change;
    /// 5. *no stale value edge*: every entry of the value postings is
    ///    justified by a host filler of its host's derived form under the
    ///    entry's key — a refused or retracted write leaves none behind.
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(ClassicError::Malformed(format!(
                "invariant violated: {msg}"
            )))
        };
        for id in self.ind_ids() {
            let ind = self.ind(id);
            if ind.derived.is_incoherent() {
                return fail(format!("individual {:?} is incoherent", ind.name));
            }
            for &node in &ind.msc {
                if !self.extensions[node.index()].contains(&id) {
                    return fail(format!(
                        "extension index missing {:?} at node {}",
                        ind.name,
                        node.index()
                    ));
                }
                // msc is an antichain: no msc member strictly above another.
                for &other in &ind.msc {
                    if other != node && self.taxonomy.is_strict_ancestor(node, other) {
                        return fail(format!("msc of {:?} is not an antichain", ind.name));
                    }
                }
            }
            // Upward closure of msc == the nodes recognition qualifies.
            let mut closure: BTreeSet<NodeId> = ind.msc.iter().copied().collect();
            for &node in &ind.msc {
                closure.extend(self.taxonomy.strict_ancestors(node));
            }
            closure.remove(&NodeId::BOTTOM);
            closure.insert(NodeId::TOP);
            let qualifying = match guard_recognizers(|| self.compute_recognition(id)) {
                Ok((qualifying, _)) => qualifying,
                Err(e) => return fail(format!("recognizing {:?} failed: {e}", ind.name)),
            };
            if !closure.iter().eq(&qualifying) {
                return fail(format!(
                    "instance set of {:?} is not the closure of its msc",
                    ind.name
                ));
            }
        }
        let mut all_nodes: Vec<NodeId> = vec![NodeId::TOP, NodeId::BOTTOM];
        all_nodes.extend(self.taxonomy.interior_nodes());
        for node in all_nodes {
            for id in self.extensions[node.index()].iter() {
                if !self.ind(id).msc.contains(&node) {
                    return fail(format!(
                        "extension at node {} lists a non-member individual",
                        node.index()
                    ));
                }
            }
        }
        let mut effects = Vec::new();
        for id in self.ind_ids() {
            self.plan_guarded(id, &mut effects);
            let open = effects
                .drain(..)
                .find(|e| !matches!(e, Effect::Support { .. }));
            if let Some(effect) = open {
                return fail(format!(
                    "state is not closed under the propagation step: planning {:?} \
                     still calls for {effect:?}",
                    self.schema.symbols.individual_name(self.ind(id).name)
                ));
            }
        }
        for (key, host) in self.value_postings.iter().map(value_entry_parts) {
            let justified = self.inds.get(host.index()).is_some_and(|ind| {
                role_fillers(&ind.derived)
                    .any(|(r, f)| matches!(f, IndRef::Host(v) if value_key(r, v) == key))
            });
            if !justified {
                return fail(format!(
                    "value posting {key:#x} lists {host:?}, which holds no such value"
                ));
            }
        }
        Ok(())
    }

    // ---- rollback ---------------------------------------------------------------

    /// Undo the transaction — the only undo there is; returns the
    /// primitive keys it had declared. In order: the primitive
    /// declarations, the supports and access-path edges, the
    /// individuals it created, the ones it touched, the one
    /// schema-sized change, which everything before it may mention, and
    /// last the individual names the write interned.
    fn rollback(&mut self, journal: Journal) -> Vec<String> {
        // Nothing restored below mentions the primitives the refused
        // descriptions declared.
        let undeclared = journal
            .declared
            .map_or_else(Vec::new, |mark| self.schema.undeclare(mark));
        // Supports earned during the transaction were never committed
        // (journal.supports is simply dropped); supports *removed* by a
        // failed retraction are restored.
        self.deps.absorb(journal.supports_removed);
        // Undo access-path edges added during the transaction. This must
        // run before restoring removed edges: a retraction may remove an
        // edge and then re-add the same edge during re-propagation, and
        // the pre-transaction state has the edge.
        for edge in journal.edges_added.into_iter().rev() {
            self.remove_edge(edge);
        }
        // Restore access-path edges removed by a failed retraction.
        for edge in journal.edges_removed {
            self.add_edge(edge);
        }
        // Remove individuals created during the transaction (arena tail);
        // every edge onto one of them was added, and undone, above.
        if let Some(first) = journal.first_created {
            while self.inds.len() > first.index() {
                let ind = self.inds.pop().expect("created individual present");
                self.by_name[ind.name.index()] = 0;
                for n in &ind.msc {
                    self.extensions[n.index()].remove(&IndId::from_index(self.inds.len()));
                }
            }
            self.reverse_fillers.truncate(first.index());
        }
        // Restore touched individuals and their extension entries.
        for (id, old) in journal.touched {
            for n in &self.inds[id.index()].msc {
                self.extensions[n.index()].remove(&id);
            }
            for n in &old.msc {
                self.extensions[n.index()].insert(id);
            }
            self.inds[id.index()] = old;
        }
        match journal.ddl {
            None => {}
            Some(Ddl::Defined(cname)) => {
                self.taxonomy.uninsert(cname);
                self.extensions.truncate(self.taxonomy.len());
                self.schema.undefine_concept(cname);
            }
            Some(Ddl::RulePushed) => {
                let rules = Arc::make_mut(&mut self.rules);
                let rule = rules.table.pop().expect("pushed rule present");
                rules.by_node.entry(rule.node).or_default().pop();
            }
            Some(Ddl::RuleRetired(rule_ix)) => {
                let rules = Arc::make_mut(&mut self.rules);
                let rule = &mut rules.table[rule_ix];
                rule.retired = false;
                let live = rules.by_node.entry(rule.node).or_default();
                live.insert(live.partition_point(|&r| r < rule_ix), rule_ix);
            }
        }
        // Last, the names the refused write interned: nothing restored
        // above mentions them, and every individual they named is gone.
        if let Some(len) = journal.names {
            self.schema.symbols.forget_individuals(len);
            if self.by_name.len() > len {
                self.by_name.truncate(len);
            }
        }
        undeclared
    }
}

/// Nearest-match hint over a candidate name set: the closest candidate
/// by Levenshtein distance, if it is close enough to plausibly be a typo
/// (distance at most `max(2, len/3)` of the candidate). This is the same
/// acceptance rule `retract-rule` has always used; it is exported so
/// every "unknown name" surface (lint provenance, eval errors) offers
/// the same suggestion.
pub fn nearest_match<'a>(
    unknown: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .into_iter()
        .filter(|name| *name != unknown)
        .map(|name| (edit_distance(unknown, name), name))
        .min()
        .filter(|(d, name)| *d <= 2.max(name.len() / 3))
        .map(|(_, name)| name)
}

/// Levenshtein distance, used for the `retract-rule` nearest-match hint.
/// Rule antecedent names are short, so the quadratic table is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;

    fn kb_with_person() -> Kb {
        let mut kb = Kb::new();
        kb.define_role("r").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        kb
    }

    /// Loom model test for the instrumentation counters. Parallel query
    /// workers bump [`KbStats`] counters through a shared `&Kb`; the
    /// monotone-counter contract is that no increment is ever lost,
    /// regardless of interleaving. (Relaxed ordering is sufficient:
    /// `fetch_add` is atomic read-modify-write; ordering only affects
    /// *when* other threads observe the total, which readers never rely
    /// on — they read after joining.)
    #[test]
    fn counters_lose_no_increments_under_concurrent_bumps() {
        loom::model(|| {
            let stats = loom::sync::Arc::new(KbStats::register(&Registry::new()));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let stats = loom::sync::Arc::clone(&stats);
                    loom::thread::spawn(move || {
                        for _ in 0..50 {
                            stats.instance_tests.bump();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(stats.instance_tests.get(), 150);
        });
    }

    #[test]
    fn retract_rule_by_id_undoes_the_rule_and_rejects_bad_ids() {
        let mut kb = kb_with_person();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        kb.define_concept("VIP", Concept::primitive(Concept::thing(), "vip"))
            .unwrap();
        let vip = kb.schema().symbols.find_concept("VIP").unwrap();
        kb.create_ind("X").unwrap();
        kb.assert_ind("X", &Concept::Name(person)).unwrap();
        let rule_id = kb.assert_rule("PERSON", Concept::Name(vip)).unwrap();
        let x = kb
            .ind_id(kb.schema().symbols.find_individual("X").unwrap())
            .unwrap();
        assert!(kb.is_instance_of(x, vip).unwrap());
        // Bad ids: out of range, then (after retraction) already retired.
        assert!(matches!(
            kb.retract_rule_by_id(rule_id + 1),
            Err(ClassicError::NoSuchRule { .. })
        ));
        kb.retract_rule_by_id(rule_id).unwrap();
        assert!(!kb.is_instance_of(x, vip).unwrap());
        assert_eq!(kb.active_rules().count(), 0);
        assert!(matches!(
            kb.retract_rule_by_id(rule_id),
            Err(ClassicError::NoSuchRule { .. })
        ));
    }

    #[test]
    fn check_invariants_rejects_a_state_not_closed_under_the_step() {
        let mut kb = kb_with_person();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        let hub = kb.create_ind("Hub").unwrap();
        let spoke = IndRef::Classic(kb.schema_mut().symbols.individual("Spoke"));
        kb.assert_ind("Hub", &Concept::Fills(r, vec![spoke]))
            .unwrap();
        kb.check_invariants().unwrap();
        // Write (ALL r PERSON) straight into Hub's derived description,
        // bypassing propagation: Spoke never hears that it is a PERSON.
        let all = kb
            .normalize(&Concept::all(r, Concept::Name(person)))
            .unwrap();
        let mut derived = kb.inds[hub.index()].derived.clone();
        derived.conjoin(&all, &kb.schema);
        kb.inds[hub.index()].derived = derived;
        let msg = kb.check_invariants().unwrap_err().to_string();
        assert!(
            msg.contains("not closed under the propagation step"),
            "{msg}"
        );
        assert!(
            msg.contains("\"Hub\""),
            "must name the open individual: {msg}"
        );
        // Running the step closes it again.
        kb.assert_ind("Hub", &Concept::thing()).unwrap();
        kb.check_invariants().unwrap();
    }

    #[test]
    fn unknown_individual_is_reported() {
        let mut kb = kb_with_person();
        let err = kb.assert_ind("Ghost", &Concept::thing()).unwrap_err();
        assert!(matches!(err, ClassicError::UnknownIndividual(_)));
    }

    #[test]
    fn instances_of_undefined_concept_is_an_error() {
        let kb = kb_with_person();
        let ghost = ConceptName::from_index(99);
        assert!(matches!(
            kb.instances_of(ghost),
            Err(ClassicError::UndefinedConcept(_))
        ));
    }

    #[test]
    fn rule_on_undefined_concept_is_rejected() {
        let mut kb = kb_with_person();
        let err = kb.assert_rule("GHOST", Concept::thing()).unwrap_err();
        assert!(matches!(err, ClassicError::RuleOnUndefinedConcept(_)));
        assert!(kb.rules().is_empty());
    }

    #[test]
    fn rule_contradicting_existing_instances_is_rejected_atomically() {
        let mut kb = kb_with_person();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        kb.create_ind("X").unwrap();
        kb.assert_ind("X", &Concept::Name(person)).unwrap();
        kb.assert_ind("X", &Concept::AtLeast(2, r)).unwrap();
        // Rule: every PERSON has at most 1 filler for r — contradicts X.
        let err = kb.assert_rule("PERSON", Concept::AtMost(1, r)).unwrap_err();
        assert!(matches!(err, ClassicError::Inconsistent { .. }));
        // The rule was fully removed and X is untouched.
        assert!(kb.rules().is_empty());
        let x = kb
            .ind_id(kb.schema().symbols.find_individual("X").unwrap())
            .unwrap();
        assert_eq!(kb.ind(x).derived.role(r).at_most, None);
        assert!(!kb.ind(x).derived.is_incoherent());
    }

    #[test]
    fn assert_by_id_equals_assert_by_name() {
        let mut kb = kb_with_person();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        let id = kb.create_ind("X").unwrap();
        kb.assert_ind_by_id(id, &Concept::Name(person)).unwrap();
        assert!(kb.is_instance_of(id, person).unwrap());
    }

    #[test]
    fn an_individual_sits_at_its_most_specific_concept() {
        let mut kb = kb_with_person();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        let p = Concept::Name(person);
        kb.define_concept("BUSY", Concept::and([p.clone(), Concept::AtLeast(1, r)]))
            .unwrap();
        let busy = kb.schema().symbols.find_concept("BUSY").unwrap();
        let id = kb.create_ind("X").unwrap();
        kb.assert_ind("X", &p).unwrap();
        kb.assert_ind("X", &Concept::AtLeast(1, r)).unwrap();
        let person_node = kb.taxonomy().node_of(person).unwrap();
        let busy_node = kb.taxonomy().node_of(busy).unwrap();
        // X's most specific concept is BUSY, so it sits in BUSY's
        // extension, not PERSON's — but is an instance of both.
        assert!(kb.ind(id).msc().eq([busy_node]));
        assert!(kb.extensions[busy_node.index()].contains(&id));
        assert!(!kb.extensions[person_node.index()].contains(&id));
        assert!(kb.is_instance_of(id, person).unwrap());
        assert!(kb.sorted_instances(&[person_node]).contains(&id));
    }

    #[test]
    fn for_each_instance_covers_sorted_instances() {
        let mut kb = kb_with_person();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        for i in 0..5 {
            let name = format!("X{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &Concept::Name(person)).unwrap();
        }
        let node = kb.taxonomy().node_of(person).unwrap();
        let set = kb.sorted_instances(&[node]);
        let mut visited = Vec::new();
        kb.for_each_instance(node, |id| visited.push(id));
        visited.sort();
        visited.dedup();
        assert_eq!(set, visited);
        assert!(kb.extension_size_bound(node) >= set.len());
    }

    #[test]
    fn sorted_instances_merge_overlapping_runs_dense_and_sparse() {
        // Two primitives under PERSON; every third individual is both, so
        // it sits in both extensions and is visited twice under PERSON.
        let mut kb = kb_with_person();
        let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
        for tag in ["a", "b"] {
            let sub = Concept::primitive(person.clone(), tag);
            kb.define_concept(&tag.to_uppercase(), sub).unwrap();
        }
        let [a, b] =
            ["A", "B"].map(|c| Concept::Name(kb.schema().symbols.find_concept(c).unwrap()));
        let node = kb
            .taxonomy()
            .node_of(kb.schema().symbols.find_concept("PERSON").unwrap());
        let node = node.unwrap();
        let check = |kb: &Kb| {
            let mut visited = Vec::new();
            kb.for_each_instance(node, |id| visited.push(id));
            let want: Vec<IndId> = visited
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            assert_eq!(kb.sorted_instances(&[node, NodeId::BOTTOM]), want);
            want.len()
        };
        // Sparse: two instances 299 ids apart take the sorting branch.
        for i in 0..300 {
            kb.create_ind(&format!("X{i}")).unwrap();
        }
        kb.assert_ind("X0", &a).unwrap();
        kb.assert_ind("X299", &a).unwrap();
        kb.assert_ind("X299", &b).unwrap();
        assert_eq!(check(&kb), 2);
        // Dense: most individuals are instances, take the bitset branch.
        for i in 1..299 {
            let name = format!("X{i}");
            kb.assert_ind(&name, if i % 2 == 0 { &a } else { &b })
                .unwrap();
            if i % 3 == 0 {
                kb.assert_ind(&name, if i % 2 == 0 { &b } else { &a })
                    .unwrap();
            }
        }
        assert_eq!(check(&kb), 300);
        assert_eq!(kb.sorted_instances(&[NodeId::TOP]).len(), 300);
        assert!(kb.sorted_instances(&[NodeId::BOTTOM]).is_empty());
    }

    /// Is the primitive index declared (under whatever parent)?
    fn declared(kb: &Kb, index: &str) -> bool {
        let mention = kb.normalize(&Concept::primitive(Concept::thing(), index));
        !matches!(mention, Err(ClassicError::UndefinedName { .. }))
    }

    #[test]
    fn a_refused_telling_declares_nothing_and_a_trial_never_does() {
        let mut kb = kb_with_person();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
        kb.create_ind("X").unwrap();
        kb.assert_ind("X", &person).unwrap();
        kb.assert_ind("X", &Concept::AtLeast(1, r)).unwrap();
        let prim = |index: &str| Concept::primitive(Concept::thing(), index);
        let clash = |index: &str| {
            Concept::and([prim(index), Concept::AtLeast(2, r), Concept::AtMost(1, r)])
        };

        // assert-ind: refused by a clash, and by an undeclared role.
        assert!(kb.assert_ind("X", &clash("told")).is_err());
        let ghost = kb.schema_mut().symbols.role("ghost");
        let typo = Concept::and([prim("told"), Concept::AtLeast(1, ghost)]);
        assert!(kb.assert_ind("X", &typo).is_err());
        assert!(!declared(&kb, "told"));

        // assert-rule: a consequent that does not normalize, and one that
        // contradicts an instance.
        assert!(kb.assert_rule("PERSON", typo.clone()).is_err());
        let empty = Concept::and([prim("ruled"), Concept::AtMost(0, r)]);
        assert!(matches!(
            kb.assert_rule("PERSON", empty),
            Err(ClassicError::Inconsistent { .. })
        ));
        assert!(!declared(&kb, "told") && !declared(&kb, "ruled"));

        // bulk rows: the chunk falls back, the good row lands, the bad
        // one leaves nothing.
        let rows =
            [("Y", prim("kept")), ("Z", clash("dropped"))].map(|(name, desc)| crate::BulkRow {
                name: name.to_owned(),
                desc,
            });
        assert_eq!(kb.bulk_assert(&rows).row_accepted, [true, false]);
        assert!(declared(&kb, "kept") && !declared(&kb, "dropped"));

        // what-if: an undeclared index is an error naming it, accepted or
        // not; a declared one is tried as ever.
        for desc in [prim("tried"), clash("tried")] {
            match kb.what_if("X", &desc) {
                Err(ClassicError::UndefinedName { kind, name }) => {
                    assert_eq!((kind, name.as_str()), ("primitive", "tried"))
                }
                other => panic!("expected the undeclared index, got {other:?}"),
            }
        }
        assert!(!declared(&kb, "tried"));
        assert!(kb.what_if("X", &prim("kept")).is_ok());
        assert!(kb.what_if("X", &clash("kept")).is_err());

        // Every index a refusal mentioned is still free to be declared
        // under another parent — and an accepted telling does declare.
        for (name, index) in [
            ("A", "told"),
            ("B", "ruled"),
            ("C", "dropped"),
            ("D", "tried"),
        ] {
            kb.define_concept(name, Concept::primitive(person.clone(), index))
                .unwrap();
        }
        assert!(matches!(
            kb.define_concept("E", Concept::primitive(person, "kept")),
            Err(ClassicError::PrimitiveReparented(_))
        ));
        kb.check_invariants().unwrap();
    }

    #[test]
    fn normalize_interns_without_declaring() {
        let mut kb = kb_with_person();
        // An undeclared role in an ad-hoc expression is an error...
        let ghost = kb.schema_mut().symbols.role("ghost");
        let res = kb.normalize(&Concept::AtLeast(1, ghost));
        assert!(matches!(res, Err(ClassicError::UndefinedRole(_))));
        // ...and the failed normalize didn't corrupt the schema.
        assert!(kb.define_role("ghost").is_ok());
        assert!(kb.normalize(&Concept::AtLeast(1, ghost)).is_ok());
    }
}
