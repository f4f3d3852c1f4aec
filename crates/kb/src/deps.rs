//! Persistent dependency records for retraction (§3.2's deferred
//! "destructive update" surface).
//!
//! The transaction [`Journal`](crate::kb) makes one update atomic; the
//! [`DependencyJournal`] makes updates *reversible across transactions*:
//! every time propagation changes an individual's derived normal form it
//! records a [`Support`] — which individual contributed the information
//! and through which mechanism (a told assertion, an `ALL` restriction
//! pushed onto a filler, a `SAME-AS` co-reference, or a rule firing).
//!
//! Retraction then inverts the derivation: the individuals whose derived
//! state may rest on a retracted fact are exactly the *forward closure*
//! of the retraction seed under the support graph (follow supports whose
//! `source` is affected to their `target`s). Those individuals are reset
//! to their surviving told facts and re-propagated to a new fixed point;
//! everything outside the closure is untouched, which is what makes
//! incremental retraction cheaper than a rebuild (experiment E10).
//!
//! The records are deliberately *coarse* (per individual-pair-mechanism,
//! not per derived fact), and they are recorded whenever the mechanism
//! *applies* — an `ALL` restriction over a filler edge, a rule firing —
//! whether or not the conjunction changed anything. That makes the
//! support set a function of the fixed point rather than of arrival
//! order, which is what lets provenance survive retraction exactly: the
//! journal after a retraction equals the journal of a rebuild from the
//! surviving told facts (the `provenance_after_retraction_…` oracle in
//! `tests/retract.rs`). Coarseness makes the reset a superset of the
//! strictly necessary one — sound, since re-derivation from told facts
//! is confluent — while keeping the journal small and maintenance O(1)
//! per propagation step.
//!
//! Propagation keeps this fixed-point characterization whoever plans an
//! epoch: planning never writes the journal. `ALL` and rule supports
//! travel as effects and are recorded as they are applied,
//! *unconditionally* (whenever the mechanism applies), while `SAME-AS`
//! supports are recorded only when the co-reference changed something.

use crate::individual::IndId;
use classic_core::chunked::Chunked;
use classic_core::symbol::RoleId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How a piece of derived information reached an individual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SupportKind {
    /// A told assertion on the individual itself.
    Told {
        /// Position in `told` at recording time (indices shift on
        /// retraction, so this is informational, not used for
        /// addressing).
        index: usize,
    },
    /// An `(ALL role C)` restriction on `source` pushed `C` onto this
    /// filler.
    All {
        /// The role the restriction was attached to.
        role: RoleId,
    },
    /// A `SAME-AS` co-reference on `source` derived a filler here.
    Coref {
        /// The final role of the resolved chain.
        role: RoleId,
    },
    /// A rule fired on the individual (source == target).
    Rule {
        /// The rule's stable index in [`crate::Kb::rules`].
        index: usize,
    },
}

/// One dependency record: `target`'s derived state partly rests on
/// information held by `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Support {
    /// The individual whose derived state was changed.
    pub target: IndId,
    /// The individual whose information caused the change.
    pub source: IndId,
    /// The mechanism that carried it.
    pub kind: SupportKind,
}

/// The persistent support graph, keyed by target. Committed supports only;
/// in-flight supports live on the transaction journal until commit.
///
/// Both sides are [`Chunked`] tables keyed by individual id, so a clone
/// shares them with the original and recording a support copies the
/// chunks around its two ends.
#[derive(Debug, Default, Clone)]
pub struct DependencyJournal {
    records: Chunked<BTreeSet<Support>>,
    /// Maintained source→target edge refcounts (distinct supports per
    /// pair), so [`Self::affected_from`] walks only the closure instead
    /// of scanning the whole journal. Self-edges are not indexed: they
    /// never grow the closure.
    by_source: Chunked<BTreeMap<IndId, u32>>,
}

impl DependencyJournal {
    /// Insert one record (idempotent — the set deduplicates, and a record
    /// already held copies nothing).
    pub(crate) fn insert(&mut self, s: Support) {
        let held = self.records.get(s.target.index());
        if held.is_some_and(|records| records.contains(&s)) {
            return;
        }
        self.records.slot(s.target.index()).insert(s);
        if s.source != s.target {
            *self
                .by_source
                .slot(s.source.index())
                .entry(s.target)
                .or_insert(0) += 1;
        }
    }

    /// Absorb a transaction's recorded supports on commit.
    pub(crate) fn absorb(&mut self, supports: impl IntoIterator<Item = Support>) {
        for s in supports {
            self.insert(s);
        }
    }

    /// The committed supports of one individual (why it is what it is).
    pub fn supports_of(&self, target: IndId) -> impl Iterator<Item = &Support> {
        self.records.get(target.index()).into_iter().flatten()
    }

    /// Total number of committed support records (diagnostics/E10).
    pub fn len(&self) -> usize {
        self.records.iter().map(|s| s.len()).sum()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.iter().all(|s| s.is_empty())
    }

    /// Forward dependency closure: every individual whose derived state
    /// may (transitively) rest on information held by one of `seeds`.
    /// Always includes the seeds themselves.
    ///
    /// Walks the maintained source→targets index, so the cost is
    /// O(edges inside the closure), not O(journal).
    pub fn affected_from(&self, seeds: &BTreeSet<IndId>) -> BTreeSet<IndId> {
        let mut closed: BTreeSet<IndId> = seeds.clone();
        let mut work: VecDeque<IndId> = seeds.iter().copied().collect();
        while let Some(id) = work.pop_front() {
            let targets = self.by_source.get(id.index());
            for &t in targets.into_iter().flat_map(BTreeMap::keys) {
                if closed.insert(t) {
                    work.push_back(t);
                }
            }
        }
        closed
    }

    /// Chunks shared with `other` and chunks held, per side (the probe
    /// behind `Kb::sharing_with`).
    pub(crate) fn sharing_with(&self, other: &DependencyJournal) -> [(usize, usize); 2] {
        [
            self.records.sharing_with(&other.records),
            self.by_source.sharing_with(&other.by_source),
        ]
    }

    /// Call `changed` with the index of every target whose records differ
    /// from `old`'s, a version cloned from or to this one, comparing the
    /// record chunks the two do not share; returns how many differ.
    pub(crate) fn diff_records(
        &self,
        old: &DependencyJournal,
        mut changed: impl FnMut(usize),
    ) -> usize {
        let none = BTreeSet::new();
        self.records.diff_chunks(&old.records, |at, mine, theirs| {
            for j in 0..mine.len().max(theirs.len()) {
                if mine.get(j).unwrap_or(&none) != theirs.get(j).unwrap_or(&none) {
                    changed(at + j);
                }
            }
        })
    }

    /// Remove and return every record whose *target* is in `set` (those
    /// individuals are about to be re-derived from scratch, so their old
    /// provenance is void). Returned records go on the transaction journal
    /// so a failed retraction can restore them.
    pub(crate) fn remove_targets(&mut self, set: &BTreeSet<IndId>) -> Vec<Support> {
        let mut removed = Vec::new();
        for id in set {
            if self.supports_of(*id).next().is_some() {
                removed.extend(std::mem::take(&mut self.records[id.index()]));
            }
        }
        for s in &removed {
            if s.source == s.target {
                continue;
            }
            let targets = &mut self.by_source[s.source.index()];
            if let Some(count) = targets.get_mut(&s.target) {
                *count -= 1;
                if *count == 0 {
                    targets.remove(&s.target);
                }
            }
        }
        removed
    }
}

/// Per-retraction report: what one accepted retraction cost (E10's
/// incremental-vs-rebuild metric).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RetractReport {
    /// Individuals whose derived state was reset and re-derived.
    pub reset: u64,
    /// Individuals re-enqueued for propagation (reset plus their
    /// transitive reverse-filler hosts).
    pub requeued: u64,
    /// Worklist steps the re-propagation took.
    pub steps: u64,
    /// Individuals whose most specific concepts changed.
    pub reclassified: u64,
}
