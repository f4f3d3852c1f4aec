//! The completion engine: propagation, recognition, and rule firing.
//!
//! "CLASSIC can actively discover new information about objects from
//! several sources: it can recognize new classes under which an object
//! falls based on a description of the object, it can propagate some
//! deductive consequences of DB updates, it has simple procedural
//! recognizers, and it supports a limited form of forward-chaining rules"
//! (paper abstract). This module implements all four, as a worklist that
//! runs to a fixed point:
//!
//! 1. **`ALL` propagation** — a value restriction applies to every known
//!    filler, so the restriction is conjoined onto each filler's derived
//!    description (and host fillers are checked against it).
//! 2. **Co-reference propagation** — `SAME-AS` chains that resolve on one
//!    side derive the filler on the other (§3.3: asserting
//!    `SAME-AS((likes)(thing-driven))` on Rocky fills `likes` with
//!    `Volvo-17`).
//! 3. **Recognition / realization** — "individuals … are classified
//!    whenever new information about them is asserted, so that each
//!    individual is associated with the lowest concept(s) in the schema
//!    whose description(s) it satisfies" (§5). Recognition runs registered
//!    `TEST` functions as procedural recognizers.
//! 4. **Rules** — fired when an individual is newly recognized under the
//!    antecedent concept, each rule at most once per individual; "rules
//!    continue propagating until a fixed point is reached" (§5).
//!
//! Termination is the paper's own argument: membership is monotone
//! ("every individual can move into a class at most once, since there is
//! no removal"), derived descriptions only grow within a finite lattice of
//! conjoined sub-descriptions, and each rule fires at most once per
//! individual — so the fixpoint is bounded by #classes × #individuals
//! (experiment E4 measures this).
//!
//! The worklist belongs to a transaction. Every write operator —
//! `create-ind`, `assert-ind`, `what-if`, `retract-ind`, `define-concept`
//! (its roots: the candidates `Kb::candidates` tests for the new node's
//! form), `assert-rule` (the antecedent's instances), `retract-rule`
//! (the reset cone), a bulk chunk, a bulk row — stages its roots in
//! `Kb::transact`, which alone calls [`Propagation::run`] and alone
//! commits or rolls back; recognition is installed nowhere else, but
//! for the first recognition of an individual created inside one.

use crate::deps::{Support, SupportKind};
use crate::individual::IndId;
use crate::kb::{value_entry, Edge, Journal, Kb};
use crate::plan::{Effect, TargetRef};
use classic_core::desc::{IndRef, Path};
use classic_core::error::{ClassicError, Result};
use classic_core::host::HostValue;
use classic_core::normal::{conjoin_expression, NormalForm};
use classic_core::schema::TestArg;
use classic_core::subsume::subsumes;
use classic_core::symbol::RoleId;
use classic_core::taxonomy::NodeId;
use classic_core::VecSet;

/// How a `SAME-AS` path resolves against the current state.
pub(crate) enum PathResolution {
    /// Every step has a known filler; this is the value at the end.
    Complete(IndRef),
    /// All but the final step resolve; the holder lacks a filler for the
    /// last role, so a derived value can be asserted there.
    AtLastStep { holder: IndId, last: RoleId },
    /// Some earlier step is unresolved (nothing can be derived yet —
    /// CLASSIC never invents anonymous individuals).
    Unresolved,
}

/// Run `f`, which may call user-registered `TEST` recognizers, turning
/// a panic in one into [`ClassicError::RecognizerPanicked`] — the one
/// panic boundary around recognizers, for propagation here and for
/// `classic-query`'s instance tests (on its worker threads too).
///
/// `AssertUnwindSafe` is sound here: `f` only reads the KB. What it
/// writes — atomic counters, and spans, which take the flight recorder's
/// lock only when a root span closes, never while a recognizer runs — a
/// panicking recognizer cannot leave mid-update.
pub fn guard_recognizers<T>(f: impl FnOnce() -> T) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_owned());
        ClassicError::RecognizerPanicked(msg)
    })
}

/// Namespace for the worklist driver.
pub(crate) struct Propagation;

impl Propagation {
    /// Drain the transaction's worklist to a fixed point. On error
    /// [`Kb::transact`](crate::Kb), the only caller, rolls the journal
    /// back.
    ///
    /// Every epoch is plan → effects → apply: the worklist drains into a
    /// sorted, deduplicated batch; each item is *planned* read-only
    /// against the epoch-start state ([`Kb::plan_one`]); the effects are
    /// applied sequentially, in batch order, through the journal-tracked
    /// mutations of [`Kb::apply_effect`], which re-fill the worklist; the
    /// epoch's value edges go in last, sorted ([`Kb::add_value_edges`]).
    /// The closure being computed is a least fixed point of a monotone
    /// step, so the schedule cannot change it; the apply order is
    /// `(source id, emission index)`, so state, journal, arena layout
    /// and step counts repeat exactly from run to run.
    pub(crate) fn run(kb: &mut Kb, journal: &mut Journal) -> Result<()> {
        // A write with no roots (a plain `create-ind`) is no fixpoint:
        // no span, no sample in the propagation histogram.
        if journal.work.is_empty() {
            return Ok(());
        }
        let _span = classic_obs::span_timed("propagate.fixpoint", &kb.stats.propagate_ns);
        let mut steps = 0u64;
        let mut effects: Vec<Effect> = Vec::new();
        loop {
            let mut batch: Vec<IndId> = journal.work.drain(..).collect();
            batch.sort_unstable();
            batch.dedup();
            if batch.is_empty() {
                break;
            }
            steps += batch.len() as u64;
            journal.report.steps += batch.len() as u64;
            kb.stats.propagation_steps.add(batch.len() as u64);
            // Recomputed every epoch: rule firings and `ALL` propagation
            // create individuals mid-fixpoint, so a bound frozen at entry
            // can go stale against the count that justifies it.
            let limit = Self::step_limit(kb);
            if steps > limit {
                return Err(Self::fixpoint_overrun(kb, steps, limit, batch[0]));
            }
            Self::plan_batch(kb, &batch, &mut effects);
            for effect in effects.drain(..) {
                kb.apply_effect(effect, journal)?;
            }
            kb.add_value_edges(journal);
        }
        classic_obs::event("steps", steps);
        Ok(())
    }

    /// Generous safety bound far above the paper's #classes ×
    /// #individuals argument (each enqueue follows an actual monotone
    /// change; re-planning without change never re-enqueues).
    fn step_limit(kb: &Kb) -> u64 {
        1_000_000u64.max(
            (kb.ind_count() as u64 + 16)
                * (kb.taxonomy().len() as u64 + kb.rules().len() as u64 + 16)
                * 8,
        )
    }

    /// The non-termination diagnosis: names the step count, the bound it
    /// overran, and the first individual of the epoch that overran it.
    fn fixpoint_overrun(kb: &Kb, steps: u64, limit: u64, at: IndId) -> ClassicError {
        let name = kb.schema.symbols.individual_name(kb.inds[at.index()].name);
        ClassicError::Malformed(format!(
            "propagation failed to reach a fixed point within bounds \
             (step {steps} exceeded limit {limit} while processing {name:?})"
        ))
    }

    /// Plan every item of a sorted batch into `out`, in batch order, on
    /// the calling thread.
    fn plan_batch(kb: &Kb, batch: &[IndId], out: &mut Vec<Effect>) {
        for &id in batch {
            kb.plan_guarded(id, out);
        }
    }
}

impl Kb {
    /// [`Kb::plan_one`] with the panic boundary: a `TEST` recognizer
    /// that panics while `id` is planned becomes an [`Effect::Abort`], so
    /// the update is rejected and rolled back like any other.
    pub(crate) fn plan_guarded(&self, id: IndId, out: &mut Vec<Effect>) {
        if let Err(error) = guard_recognizers(|| self.plan_one(id, out)) {
            out.push(Effect::Abort { error });
        }
    }

    /// Resolve an effect target to an arena id, creating a
    /// referenced-but-missing individual.
    fn resolve_target(&mut self, target: TargetRef, journal: &mut Journal) -> Result<IndId> {
        match target {
            TargetRef::Id(id) => Ok(id),
            TargetRef::Name(name) => self.ensure_ind(name, journal),
        }
    }

    /// Apply one planned effect. All mutation of the fixpoint happens
    /// here, through the journal, so rollback and provenance see it.
    pub(crate) fn apply_effect(&mut self, effect: Effect, journal: &mut Journal) -> Result<()> {
        match effect {
            Effect::Abort { error } => Err(error),
            Effect::ReverseEdge { filler, host } => {
                let filler = self.resolve_target(filler, journal)?;
                journal.add_edge(self, Edge::Filler { filler, host });
                Ok(())
            }
            Effect::ValueEdge { key, host } => {
                journal.value_edges.push(value_entry(key, host));
                Ok(())
            }
            Effect::Support {
                target,
                source,
                kind,
            } => {
                let fid = self.resolve_target(target, journal)?;
                journal.note_support(Support {
                    target: fid,
                    source,
                    kind,
                });
                Ok(())
            }
            Effect::Conjoin {
                target,
                nf,
                source,
                kind,
            } => {
                let fid = self.resolve_target(target, journal)?;
                let changed = self.conjoin_nf(fid, &nf, journal)?;
                match kind {
                    SupportKind::All { .. } => {
                        if changed {
                            self.stats.fills_propagations.bump();
                            journal.report.fills_propagated += 1;
                        }
                        // Recorded whether or not the conjunction changed
                        // anything: the support set must be a function of
                        // the fixed point, not of arrival order, or
                        // provenance would not survive retraction (see
                        // tests/retract.rs).
                        journal.note_support(Support {
                            target: fid,
                            source,
                            kind,
                        });
                    }
                    SupportKind::Coref { .. } => {
                        if changed {
                            self.stats.coref_propagations.bump();
                            journal.report.corefs_derived += 1;
                            journal.note_support(Support {
                                target: fid,
                                source,
                                kind,
                            });
                        }
                    }
                    // Told/Rule supports never travel as Conjoin effects.
                    SupportKind::Told { .. } | SupportKind::Rule { .. } => {}
                }
                // The source was planned against the state before this
                // write; its later phases (a `SAME-AS` chain through the
                // target, a closed-role instance check) may depend on
                // it. Re-planning it next epoch is a no-op once nothing
                // changes, so the fixed point is the same.
                if changed {
                    journal.work.push_back(source);
                }
                Ok(())
            }
            Effect::Install { ind, msc } => {
                // Stale installs are possible (an earlier effect of this
                // epoch may have grown `ind` further); recognition is
                // monotone, so installing the plan-time subset and
                // letting the re-enqueued target correct itself next
                // epoch converges.
                if self.inds[ind.index()].msc == msc {
                    return Ok(());
                }
                journal.touch(self, ind);
                self.install_recognition(ind, msc);
                journal.report.reclassified += 1;
                // Individuals holding `ind` as a filler may now pass
                // instance checks that enumerate closed-role fillers.
                journal.work.extend(self.hosts_of(ind));
                Ok(())
            }
            Effect::FireRule { ind, rule_ix } => self.apply_rule_firing(ind, rule_ix, journal),
        }
    }

    /// Fire one due rule on `id`: mark it fired, conjoin the consequent,
    /// record the support, and enqueue the consequences.
    fn apply_rule_firing(
        &mut self,
        id: IndId,
        rule_ix: usize,
        journal: &mut Journal,
    ) -> Result<()> {
        if self.inds[id.index()].fired_rules.contains(&rule_ix) {
            return Ok(());
        }
        journal.touch(self, id);
        let consequent = self.rules.table[rule_ix].consequent.clone();
        self.ensure_referenced_inds(&consequent, journal)?;
        let ind = &mut self.inds[id.index()];
        ind.fired_rules.insert(rule_ix);
        let before = ind.derived.clone();
        conjoin_expression(&consequent, &self.schema, &mut ind.derived)?;
        let changed = ind.derived != before;
        self.stats.rules_fired.bump();
        classic_obs::event("rule_fired", rule_ix as u64);
        journal.report.rules_fired += 1;
        // As with ALL-propagation, the support is recorded even when
        // the consequent added nothing — firing is a fact about the
        // fixed point, not about what the conjunction changed.
        journal.note_support(Support {
            target: id,
            source: id,
            kind: SupportKind::Rule { index: rule_ix },
        });
        if changed {
            journal.work.push_back(id);
            journal.work.extend(self.hosts_of(id));
        }
        Ok(())
    }

    /// Conjoin an already-canonical normal form into an individual's
    /// derived description. Returns whether anything changed; enqueues the
    /// target (and its dependents) when it did.
    fn conjoin_nf(
        &mut self,
        target: IndId,
        nf: &NormalForm,
        journal: &mut Journal,
    ) -> Result<bool> {
        // Cheap monotone short-circuit: nothing to add if the target is
        // already at least as specific.
        if subsumes(nf, &self.inds[target.index()].derived) {
            return Ok(false);
        }
        journal.touch(self, target);
        let ind = &mut self.inds[target.index()];
        ind.derived.conjoin(nf, &self.schema);
        if let Some(clash) = ind.derived.clash() {
            return Err(ClassicError::Inconsistent {
                individual: Some(ind.name),
                reason: clash.clone(),
            });
        }
        journal.work.push_back(target);
        Ok(true)
    }

    /// Walk a `SAME-AS` attribute chain from `id` through known fillers.
    pub(crate) fn resolve_path(&self, id: IndId, path: &Path) -> PathResolution {
        let mut cur = id;
        for (k, &role) in path.iter().enumerate() {
            let last = k + 1 == path.len();
            let filler = self.inds[cur.index()]
                .derived
                .roles
                .get(&role)
                .and_then(|rr| rr.fillers.iter().next().cloned());
            match filler {
                None => {
                    return if last {
                        PathResolution::AtLastStep {
                            holder: cur,
                            last: role,
                        }
                    } else {
                        PathResolution::Unresolved
                    };
                }
                Some(v @ IndRef::Host(_)) => {
                    return if last {
                        PathResolution::Complete(v)
                    } else {
                        // A host value has no roles to continue through.
                        PathResolution::Unresolved
                    };
                }
                Some(v @ IndRef::Classic(name)) => {
                    if last {
                        return PathResolution::Complete(v);
                    }
                    match self.find_ind(name) {
                        Some(next) => cur = next,
                        None => return PathResolution::Unresolved,
                    }
                }
            }
        }
        PathResolution::Unresolved
    }

    // ---- recognition ----------------------------------------------------

    /// Replace `id`'s most-specific frontier, keeping the extension index
    /// in step.
    pub(crate) fn install_recognition(&mut self, id: IndId, msc: VecSet<NodeId>) {
        let ind = &mut self.inds[id.index()];
        for n in &ind.msc {
            self.extensions[n.index()].remove(&id);
        }
        for n in &msc {
            self.extensions[n.index()].insert(id);
        }
        ind.msc = msc;
    }

    /// Recognition (§5): the taxonomy's one top-down walk
    /// ([`Taxonomy::walk_down`](classic_core::taxonomy::Taxonomy::walk_down)),
    /// testing each node it reaches with [`Kb::known_instance`]. Returns
    /// the nodes `id` is recognized under, `THING` included, ascending,
    /// and the most specific of them.
    ///
    /// Read-only (`&self`) by construction: it runs in the planning half
    /// of the step.
    pub(crate) fn compute_recognition(&self, id: IndId) -> (Vec<NodeId>, VecSet<NodeId>) {
        let (qualifying, msc) = self.taxonomy.walk_down(|nf| {
            self.stats.instance_tests.bump();
            self.known_instance(id, nf)
        });
        (qualifying, msc.into_iter().collect())
    }

    // ---- instance checking ------------------------------------------------

    /// Is `id` *provably* an instance of `nf` given current knowledge?
    ///
    /// This is the recognition predicate of §3.3: it consults the derived
    /// description, enumerates closed-role fillers for `ALL` checks,
    /// resolves `SAME-AS` chains through actual fillers, and runs `TEST`
    /// procedural recognizers. Under the open-world assumption a `false`
    /// means "not provable", never "provably not" (see
    /// [`Kb::possible_instance`]).
    pub fn known_instance(&self, id: IndId, nf: &NormalForm) -> bool {
        if nf.is_incoherent() {
            return false;
        }
        if nf.is_top() {
            return true;
        }
        let ind = &self.inds[id.index()];
        let d = &ind.derived;
        if !nf.layer.subsumes(d.layer) {
            return false;
        }
        if !nf.prims.is_subset(&d.prims) {
            return false;
        }
        if let Some(s) = &nf.one_of {
            if !s.contains(&IndRef::Classic(ind.name)) {
                return false;
            }
        }
        // TEST atoms: derivable from the description, or established by
        // running the procedural recognizer now.
        for &t in &nf.tests {
            if d.tests.contains(&t) {
                continue;
            }
            let name = self.schema.symbols.individual_name(ind.name);
            let passed = self
                .schema
                .run_test(t, &TestArg::Ind(Some(name), d))
                .unwrap_or(false);
            if !passed {
                return false;
            }
        }
        for (&r, rr1) in &nf.roles {
            let rr2 = d.roles.get(&r);
            let (min2, max2, closed2) = match rr2 {
                Some(rr2) => (rr2.min_count(), rr2.max_count(), rr2.closed),
                None => (0, u32::MAX, false),
            };
            if rr1.at_least > min2 {
                return false;
            }
            if let Some(m1) = rr1.at_most {
                if max2 > m1 {
                    return false;
                }
            }
            if rr1.closed && !closed2 {
                return false;
            }
            if !rr1.fillers.is_empty() {
                match rr2 {
                    Some(rr2) if rr1.fillers.is_subset(&rr2.fillers) => {}
                    _ => return false,
                }
            }
            if let Some(all1) = &rr1.all {
                if max2 == 0 {
                    continue; // vacuously satisfied
                }
                // Either the derived value restriction already entails it…
                let entailed = rr2
                    .and_then(|rr2| rr2.all.as_deref())
                    .is_some_and(|all2| subsumes(all1, all2));
                if entailed {
                    continue;
                }
                // …or the role is closed and every known filler provably
                // satisfies it.
                if !closed2 {
                    return false;
                }
                let fillers: Vec<IndRef> = rr2
                    .map(|rr2| rr2.fillers.iter().cloned().collect())
                    .unwrap_or_default();
                for f in fillers {
                    let ok = match f {
                        // Terminates: `all1` is a strict sub-form of `nf`.
                        IndRef::Classic(n) => match self.find_ind(n) {
                            Some(fid) => self.known_instance(fid, all1),
                            None => false,
                        },
                        IndRef::Host(v) => self.host_satisfies(&v, all1),
                    };
                    if !ok {
                        return false;
                    }
                }
            }
        }
        // SAME-AS: implied structurally, or witnessed by actual fillers.
        for (p, q) in nf.same_as.pairs() {
            if d.same_as.implies(p, q) {
                continue;
            }
            let a = self.resolve_path_value(id, p);
            let b = self.resolve_path_value(id, q);
            match (a, b) {
                (Some(x), Some(y)) if x == y => {}
                _ => return false,
            }
        }
        true
    }

    fn resolve_path_value(&self, id: IndId, path: &Path) -> Option<IndRef> {
        match self.resolve_path(id, path) {
            PathResolution::Complete(v) => Some(v),
            _ => None,
        }
    }

    /// Could `id` possibly be an instance of `nf`? Under the open-world
    /// assumption the answer is yes unless the derived description is
    /// provably disjoint from the query (§3.5.3's "sets of individuals
    /// that *might* satisfy the query").
    pub fn possible_instance(&self, id: IndId, nf: &NormalForm) -> bool {
        let ind = &self.inds[id.index()];
        let mut meet = ind.derived.clone();
        // The individual's identity participates: a ONE-OF that excludes it
        // is an immediate refutation.
        if let Some(s) = &nf.one_of {
            if !s.contains(&IndRef::Classic(ind.name)) {
                return false;
            }
        }
        meet.conjoin(nf, &self.schema);
        !meet.is_incoherent()
    }

    /// Does a host value satisfy a description? Host individuals "cannot
    /// have roles, but are otherwise first class citizens" (§3.2).
    pub fn host_satisfies(&self, v: &HostValue, nf: &NormalForm) -> bool {
        if nf.is_incoherent() {
            return false;
        }
        if !nf
            .layer
            .subsumes(classic_core::Layer::Host(Some(v.class())))
        {
            return false;
        }
        // Primitive membership can never be established for a host value
        // (nothing can be asserted of one).
        if !nf.prims.is_empty() {
            return false;
        }
        if let Some(s) = &nf.one_of {
            if !s.contains(&IndRef::Host(v.clone())) {
                return false;
            }
        }
        for &t in &nf.tests {
            if !self.schema.run_test(t, &TestArg::Host(v)).unwrap_or(false) {
                return false;
            }
        }
        // Any demand for fillers is unsatisfiable; pure upper bounds and
        // value restrictions hold vacuously.
        if nf.roles.values().any(|rr| rr.min_count() > 0) {
            return false;
        }
        if !nf.same_as.is_empty() {
            return false;
        }
        true
    }
}
