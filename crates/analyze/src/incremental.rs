//! The persistent, incrementally-maintained analysis state.
//!
//! [`AnalysisState`] caches diagnostics *per entity* (per defined
//! concept, per rule, per individual) together with the bookkeeping
//! needed to know which caches a mutation invalidated:
//!
//! * **concepts** — definitions are immutable once accepted, so a
//!   concept's diagnostics are computed once and kept forever; new
//!   definitions are detected by cache miss.
//! * **rules** — append-only with in-place retirement; a change to the
//!   `(len, retired-flags)` signature recomputes the rule tier *and*
//!   marks every individual dirty (rule assertion/retraction re-derives
//!   instances).
//! * **individuals** — the expensive tier. A mutation's caller marks the
//!   dirty cone ([`Kb::analysis_cone`] over the mutation seeds); refresh
//!   fingerprints the cone, re-lints only the members whose committed
//!   state actually changed (plus any A009 *hosts* that consulted a
//!   changed candidate), and maintains per-rule compatibility counts so
//!   A012 re-renders in O(rules) without an ABox scan.
//!
//! The full analyzer is the same machine primed from empty
//! ([`crate::analyze`] constructs a fresh state and refreshes it), so
//! "incremental equals full" is a property of the *dirtiness
//! bookkeeping*, which is exactly what the proptest differential oracle
//! exercises.

use crate::{abox, checks, Diagnostic, Report};
use classic_core::symbol::ConceptName;
use classic_kb::{IndId, Kb};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// What one [`AnalysisState::refresh`] did, for lint-on-write replies and
/// the E16 experiment.
#[derive(Debug, Clone, Default)]
pub struct Refresh {
    /// Individuals in the marked dirty cone (before fingerprint pruning).
    pub cone_size: usize,
    /// Individuals actually re-linted (changed fingerprints plus consulted
    /// hosts).
    pub relinted: usize,
    /// Diagnostics now attached to the entities this refresh re-checked,
    /// in report order. Empty when nothing in the cone produced findings.
    pub cone: Vec<Diagnostic>,
}

/// Persistent per-entity diagnostic caches plus dirtiness bookkeeping.
/// See the module docs for the invalidation model.
#[derive(Default)]
pub struct AnalysisState {
    concept_cache: HashMap<ConceptName, Vec<Diagnostic>>,
    cycle_diags: Vec<Diagnostic>,
    seen_concepts: usize,
    /// Retired-flag signature of the rule base at the last refresh.
    rule_sig: Vec<bool>,
    rule_infos: Vec<checks::RuleInfo>,
    rule_diags: Vec<Vec<Diagnostic>>,
    /// Per-rule A012, regenerated from `compat_count` each refresh.
    inert: Vec<Option<Diagnostic>>,
    /// Per-rule count of individuals compatible with the antecedent.
    compat_count: Vec<usize>,
    ind_diags: HashMap<IndId, Vec<Diagnostic>>,
    fingerprints: HashMap<IndId, u64>,
    /// host → candidates its A009 check consulted (for edge cleanup).
    consults: HashMap<IndId, BTreeSet<IndId>>,
    /// candidate → hosts that consulted it (re-lint them when it changes).
    consulted_by: HashMap<IndId, BTreeSet<IndId>>,
    /// individual → rule indices it is compatible with.
    compat: HashMap<IndId, BTreeSet<usize>>,
    seen_inds: usize,
    dirty_inds: BTreeSet<IndId>,
}

/// Committed-state fingerprint of one individual: everything the ABox
/// checks read from it. `DefaultHasher` is keyed with fixed constants, so
/// fingerprints are stable across calls within a process (they are never
/// persisted).
fn fingerprint(kb: &Kb, id: IndId) -> u64 {
    let ind = kb.ind(id);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ind.derived().hash(&mut h);
    ind.told().hash(&mut h);
    for n in ind.msc() {
        n.hash(&mut h);
    }
    for r in ind.fired_rules() {
        r.hash(&mut h);
    }
    let mut supports: Vec<_> = kb.deps().supports_of(id).collect();
    supports.sort();
    supports.hash(&mut h);
    h.finish()
}

impl AnalysisState {
    /// An empty state: the first refresh analyzes everything.
    pub fn new() -> AnalysisState {
        AnalysisState::default()
    }

    /// Mark the analysis cone of `seeds` dirty — call with the mutation's
    /// seed individuals (the asserted/retracted individual) against the
    /// KB state that still contains the relevant dependency edges (post-op
    /// for assertions, pre-op for retractions).
    pub fn mark_dirty(&mut self, kb: &Kb, seeds: &BTreeSet<IndId>) {
        let cone = kb.analysis_cone(seeds);
        // Attaches to the enclosing request span (if any), so slowlog
        // entries for mutations can report how much they dirtied.
        classic_obs::event("dirty_cone", cone.len() as u64);
        self.dirty_inds.extend(cone);
    }

    /// Bring every cache up to date with `kb`, re-checking only dirty
    /// entities, and report what was done. New concepts, rule-base
    /// changes, and new individuals are detected without marking; told
    /// assert/retract cones must have been marked via
    /// [`Self::mark_dirty`].
    pub fn refresh(&mut self, kb: &Kb) -> Refresh {
        let registry = kb.metrics().clone();
        let recorder = kb.flight_recorder().clone();
        let dur = registry
            .get_or_duration_histogram(
                "classic_analyze_incremental_ns",
                "Incremental re-analysis latency per refresh",
            )
            .ok();
        let _span = dur
            .as_ref()
            .map(|h| classic_obs::span_timed(&recorder, "analyze.incremental", h));

        let mut cone_out: Vec<Diagnostic> = Vec::new();

        // ---- concepts (immutable definitions: cache misses only) ----
        let defined: Vec<ConceptName> = kb.schema().defined_concepts().collect();
        let mut new_concepts = false;
        for &name in &defined {
            if let std::collections::hash_map::Entry::Vacant(slot) = self.concept_cache.entry(name)
            {
                let diags = checks::concept_diagnostics(kb, name);
                cone_out.extend(diags.iter().cloned());
                slot.insert(diags);
                new_concepts = true;
            }
        }
        if new_concepts || defined.len() != self.seen_concepts {
            self.cycle_diags = checks::definition_cycles(kb);
        }
        self.seen_concepts = defined.len();

        // ---- rules (signature change recomputes the tier) ----
        let sig: Vec<bool> = kb.rules().iter().map(|r| r.retired).collect();
        let rules_dirty = sig != self.rule_sig;
        if rules_dirty {
            self.rule_sig = sig;
            self.rule_infos = checks::rule_infos(kb);
            self.rule_diags = (0..self.rule_infos.len())
                .map(|i| checks::rule_diagnostics(kb, i, &self.rule_infos))
                .collect();
            cone_out.extend(self.rule_diags.iter().flatten().cloned());
            self.compat.clear();
            self.compat_count = vec![0; self.rule_infos.len()];
        }

        // ---- individuals ----
        // A new definition recognizes existing individuals (their msc — and
        // via rule firings, their derived state — can change), so new
        // concepts re-fingerprint the whole ABox like a rule-base change;
        // Phase A prunes the members that did not actually move.
        let ind_count = kb.ind_count();
        let all_inds = rules_dirty || new_concepts;
        let mut marked: BTreeSet<IndId> = if all_inds {
            self.dirty_inds.clear();
            kb.ind_ids().collect()
        } else {
            std::mem::take(&mut self.dirty_inds)
        };
        for ix in self.seen_inds..ind_count {
            marked.insert(IndId::from_index(ix));
        }
        marked.retain(|id| id.index() < ind_count);
        self.seen_inds = ind_count;
        let cone_size = marked.len();

        // Phase A: fingerprint the cone; only genuinely-changed members
        // (and brand-new ones) proceed.
        let mut changed: Vec<IndId> = Vec::new();
        for &id in &marked {
            let fp = fingerprint(kb, id);
            if self.fingerprints.get(&id) != Some(&fp) {
                self.fingerprints.insert(id, fp);
                changed.push(id);
            }
        }
        // Phase B: a changed candidate invalidates the A009 verdicts of
        // every host that consulted it, even hosts outside the cone.
        let mut recheck: BTreeSet<IndId> = changed.iter().copied().collect();
        for &c in &changed {
            if let Some(hosts) = self.consulted_by.get(&c) {
                recheck.extend(hosts.iter().copied());
            }
        }
        recheck.retain(|id| id.index() < ind_count);

        for &id in &recheck {
            let (diags, consulted) = abox::abox_diagnostics(kb, id);
            cone_out.extend(diags.iter().cloned());
            if let Some(old) = self.consults.get(&id) {
                for c in old {
                    if let Some(hosts) = self.consulted_by.get_mut(c) {
                        hosts.remove(&id);
                    }
                }
            }
            for &c in &consulted {
                self.consulted_by.entry(c).or_default().insert(id);
            }
            if consulted.is_empty() {
                self.consults.remove(&id);
            } else {
                self.consults.insert(id, consulted);
            }
            self.ind_diags.insert(id, diags);

            let new_compat = abox::compat_rules(kb, id, &self.rule_infos);
            let old_compat = self.compat.get(&id).cloned().unwrap_or_default();
            for &r in old_compat.difference(&new_compat) {
                self.compat_count[r] -= 1;
            }
            for &r in new_compat.difference(&old_compat) {
                self.compat_count[r] += 1;
            }
            if new_compat.is_empty() {
                self.compat.remove(&id);
            } else {
                self.compat.insert(id, new_compat);
            }
        }
        let relinted = recheck.len();

        // A rule-tier rebuild cleared every compat entry, but Phase A
        // pruning keeps unchanged individuals out of `recheck` — their
        // diagnostics are still valid, their compat sets are not. Rebuild
        // just the compatibility half for the pruned members.
        if rules_dirty {
            for &id in &marked {
                if id.index() >= ind_count || recheck.contains(&id) {
                    continue;
                }
                let new_compat = abox::compat_rules(kb, id, &self.rule_infos);
                for &r in &new_compat {
                    self.compat_count[r] += 1;
                }
                if !new_compat.is_empty() {
                    self.compat.insert(id, new_compat);
                }
            }
        }

        // ---- A012 re-render from maintained counts ----
        let inert_new: Vec<Option<Diagnostic>> = self
            .rule_infos
            .iter()
            .enumerate()
            .map(|(i, info)| checks::inert_rule_diagnostic(info, ind_count, self.compat_count[i]))
            .collect();
        for (i, d) in inert_new.iter().enumerate() {
            let changed = rules_dirty || self.inert.get(i) != Some(d);
            if changed {
                if let Some(d) = d {
                    cone_out.push(d.clone());
                }
            }
        }
        self.inert = inert_new;

        crate::sort_diagnostics(&mut cone_out);
        self.record_metrics(&registry, cone_size, &cone_out);
        Refresh {
            cone_size,
            relinted,
            cone: cone_out,
        }
    }

    fn record_metrics(
        &self,
        registry: &classic_obs::Registry,
        cone_size: usize,
        cone: &[Diagnostic],
    ) {
        if let Ok(h) = registry.get_or_histogram(
            "classic_analyze_cone_size",
            "Individuals in the dirty cone per incremental refresh",
        ) {
            h.record(cone_size as u64);
        }
        for d in cone {
            let name = format!(
                "classic_analyze_diag_{}_total",
                d.code.as_str().to_ascii_lowercase()
            );
            if let Ok(c) = registry.get_or_counter(&name, "Diagnostics emitted by re-analysis") {
                c.bump();
            }
        }
    }

    /// Assemble the full [`Report`] from the caches. Call after
    /// [`Self::refresh`]; the result equals what a from-scratch
    /// [`crate::analyze`] would produce on the same KB.
    pub fn report(&self, kb: &Kb) -> Report {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        for name in kb.schema().defined_concepts() {
            if let Some(d) = self.concept_cache.get(&name) {
                diagnostics.extend(d.iter().cloned());
            }
        }
        diagnostics.extend(self.cycle_diags.iter().cloned());
        for (i, d) in self.rule_diags.iter().enumerate() {
            diagnostics.extend(d.iter().cloned());
            if let Some(Some(inert)) = self.inert.get(i).map(Option::as_ref) {
                diagnostics.push(inert.clone());
            }
        }
        for id in kb.ind_ids() {
            if let Some(d) = self.ind_diags.get(&id) {
                diagnostics.extend(d.iter().cloned());
            }
        }
        crate::sort_diagnostics(&mut diagnostics);
        Report {
            diagnostics,
            concepts_checked: self.seen_concepts,
            rules_checked: self.rule_infos.len(),
            inds_checked: self.seen_inds,
        }
    }
}
