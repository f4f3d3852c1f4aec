//! The read-only half of the propagation step: [`Kb::plan_one`] and the
//! [`Effect`]s it emits.
//!
//! Every epoch of the fixpoint (see `propagate.rs`) *plans* each
//! worklist item against the shared epoch-start state (`&Kb`) — the
//! conjunctions it pushes onto fillers, its `SAME-AS` derivations,
//! reverse-filler and value edges, recognition installs, rule firings —
//! and only then applies the emitted effects, sequentially, through the
//! journal.
//! Planning is a pure function of the epoch-start state, so what is
//! applied, and in which order, depends only on the sorted batch.

use crate::deps::SupportKind;
use crate::individual::IndId;
use crate::kb::{value_key, Kb};
use crate::propagate::PathResolution;
use classic_core::desc::IndRef;
use classic_core::error::{Clash, ClassicError};
use classic_core::normal::{NormalForm, RoleRestriction};
use classic_core::subsume::subsumes;
use classic_core::symbol::{IndName, RoleId};
use classic_core::taxonomy::NodeId;
use std::collections::BTreeSet;

/// Where an effect lands: an individual that existed at epoch start, or
/// one referenced by name that the apply phase must create (effects
/// apply in a fixed order, so arena layout stays deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TargetRef {
    /// An individual present at epoch start.
    Id(IndId),
    /// A referenced-but-uncreated individual.
    Name(IndName),
}

/// One mutation planning an individual calls for; `Kb::apply_effect`
/// performs it.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Conjoin `nf` onto `target`, recording a support from `source`
    /// (unconditionally for `All` supports, only-if-changed for `Coref`).
    Conjoin {
        target: TargetRef,
        nf: NormalForm,
        source: IndId,
        kind: SupportKind,
    },
    /// Record a support without conjoining: the restriction was already
    /// subsumed at plan time, and derived descriptions only grow, so it
    /// stays subsumed at apply time.
    Support {
        target: TargetRef,
        source: IndId,
        kind: SupportKind,
    },
    /// `host` holds `filler` as a role filler (idempotent to re-add).
    ReverseEdge { filler: TargetRef, host: IndId },
    /// `host` holds a host value as a role filler: enter it in the value
    /// posting of `key` when the epoch's effects are applied (idempotent
    /// to re-add).
    ValueEdge { key: u32, host: IndId },
    /// `ind`'s recognition changed: install the recomputed most-specific
    /// frontier.
    Install { ind: IndId, msc: BTreeSet<NodeId> },
    /// Rule `rule_ix` is due on `ind` (recognized under the antecedent,
    /// not yet fired).
    FireRule { ind: IndId, rule_ix: usize },
    /// Planning found an inconsistency (or a `TEST` recognizer
    /// panicked); the first abort in apply order becomes the
    /// transaction's error and the caller rolls back.
    Abort { error: ClassicError },
}

impl Kb {
    /// The propagation step for one individual: check coherence, push
    /// `ALL` restrictions and `SAME-AS` derivations outward, re-recognize,
    /// find due rules — computed against the current (epoch-start) state
    /// and emitted in a deterministic order, never applied in place. Safe
    /// to run concurrently over a shared `&Kb` (interior mutability is
    /// limited to atomic counters and the monotone per-individual TEST
    /// cache).
    pub(crate) fn plan_one(&self, id: IndId, out: &mut Vec<Effect>) {
        let ind = &self.inds[id.index()];
        if let Some(clash) = ind.derived.clash() {
            out.push(Effect::Abort {
                error: ClassicError::Inconsistent {
                    individual: Some(ind.name),
                    reason: clash.clone(),
                },
            });
            return;
        }

        // ---- phase 1: ALL-propagation to fillers --------------------------
        for (&r, rr) in &ind.derived.roles {
            let all = rr.all.as_deref();
            for f in &rr.fillers {
                match f {
                    IndRef::Classic(name) => {
                        let target = match self.find_ind(*name) {
                            Some(fid) => TargetRef::Id(fid),
                            None => TargetRef::Name(*name),
                        };
                        let edge_known = matches!(&target, TargetRef::Id(fid)
                            if self.holds_reverse_edge(*fid, id));
                        if !edge_known {
                            out.push(Effect::ReverseEdge {
                                filler: target.clone(),
                                host: id,
                            });
                        }
                        if let Some(d) = all {
                            let kind = SupportKind::All { role: r };
                            // Subsumed at plan time stays subsumed at
                            // apply time (derived only grows), so the
                            // conjunction is pre-filtered to a bare
                            // support record here on the read side.
                            let already = matches!(&target, TargetRef::Id(fid)
                                if subsumes(d, &self.inds[fid.index()].derived));
                            if already {
                                out.push(Effect::Support {
                                    target,
                                    source: id,
                                    kind,
                                });
                            } else {
                                out.push(Effect::Conjoin {
                                    target,
                                    nf: d.clone(),
                                    source: id,
                                    kind,
                                });
                            }
                        }
                    }
                    IndRef::Host(v) => {
                        let key = value_key(r, v);
                        if !self.holds_value_edge(key, id) {
                            out.push(Effect::ValueEdge { key, host: id });
                        }
                        if let Some(d) = all {
                            if !self.host_satisfies(v, d) {
                                out.push(Effect::Abort {
                                    error: ClassicError::Inconsistent {
                                        individual: Some(ind.name),
                                        reason: Clash::FillerViolation { role: r },
                                    },
                                });
                                return;
                            }
                        }
                    }
                }
            }
        }

        // ---- phase 2: SAME-AS co-reference ---------------------------------
        for class in ind.derived.same_as.classes() {
            if class.len() < 2 {
                continue;
            }
            let mut value: Option<IndRef> = None;
            let mut pending: Vec<(IndId, RoleId)> = Vec::new();
            let mut clash_role: Option<RoleId> = None;
            for path in &class {
                match self.resolve_path(id, path) {
                    PathResolution::Complete(v) => match &value {
                        None => value = Some(v),
                        Some(prev) if *prev != v => {
                            clash_role = Some(*path.last().expect("non-empty"));
                            break;
                        }
                        Some(_) => {}
                    },
                    PathResolution::AtLastStep { holder, last } => {
                        pending.push((holder, last));
                    }
                    PathResolution::Unresolved => {}
                }
            }
            if let Some(role) = clash_role {
                out.push(Effect::Abort {
                    error: ClassicError::Inconsistent {
                        individual: Some(ind.name),
                        reason: Clash::CoreferenceClash { role },
                    },
                });
                return;
            }
            if let Some(v) = value {
                for (holder, last) in pending {
                    let mut fills = NormalForm::top();
                    fills.roles.insert(
                        last,
                        RoleRestriction {
                            fillers: BTreeSet::from([v.clone()]),
                            ..RoleRestriction::default()
                        },
                    );
                    fills.renormalize(&self.schema);
                    // Coref supports are recorded only when the
                    // conjunction changes something; an
                    // already-subsumed derivation emits nothing at all.
                    if subsumes(&fills, &self.inds[holder.index()].derived) {
                        continue;
                    }
                    out.push(Effect::Conjoin {
                        target: TargetRef::Id(holder),
                        nf: fills,
                        source: id,
                        kind: SupportKind::Coref { role: last },
                    });
                }
            }
        }

        // ---- phase 3: recognition + due rules ------------------------------
        self.stats.realizations.bump();
        let (qualifying, msc) = self.compute_recognition(id);
        let due: Vec<usize> = qualifying
            .iter()
            .filter_map(|n| self.rules_by_node.get(n))
            .flatten()
            .copied()
            .filter(|ix| !ind.fired_rules.contains(ix))
            .collect();
        if msc != ind.msc {
            out.push(Effect::Install { ind: id, msc });
        }
        for rule_ix in due {
            out.push(Effect::FireRule { ind: id, rule_ix });
        }
    }
}
