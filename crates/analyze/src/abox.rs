//! The ABox analysis pass: per-individual diagnostics A009–A011 and
//! A013/A014, plus the per-individual half of A012 (rule compatibility).
//!
//! Everything here is *advisory*: a committed KB is coherent by
//! construction (integrity checking rejects clashing updates), so the
//! ABox tier does not hunt for contradictions — it surfaces states the
//! structural reasoner admits but a schema author should know about:
//! obligations that are running out of room, bounds one update from
//! closing, combinations the paper's structural subsumption is known to
//! under-report, individuals the schema says nothing about, and epistemic
//! closures resting on derived (retractable) information.
//!
//! Each check reads only the individual's own committed state plus — for
//! A009 — the derived state of the `ONE-OF` pool candidates it *consults*.
//! The consulted set is returned alongside the diagnostics so the
//! incremental analyzer can re-lint a host when a candidate changes.

use crate::checks::RuleInfo;
use crate::{Code, Diagnostic, Span};
use classic_core::desc::{Concept, IndRef};
use classic_core::symbol::RoleId;
use classic_kb::{IndId, Kb};
use std::collections::BTreeSet;

fn ind_ref_str(kb: &Kb, r: &IndRef) -> String {
    match r {
        IndRef::Classic(n) => kb.schema().symbols.individual_name(*n).to_owned(),
        IndRef::Host(v) => v.to_string(),
    }
}

/// Collect the roles a told expression closes, and the told fillers per
/// role, walking through `AND` and primitive wrappers.
fn collect_told_role_facts(
    c: &Concept,
    closes: &mut BTreeSet<RoleId>,
    fills: &mut Vec<(RoleId, IndRef)>,
) {
    match c {
        Concept::Close(r) => {
            closes.insert(*r);
        }
        Concept::Fills(r, refs) => {
            for f in refs {
                fills.push((*r, f.clone()));
            }
        }
        Concept::And(parts) => {
            for p in parts {
                collect_told_role_facts(p, closes, fills);
            }
        }
        Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
            collect_told_role_facts(parent, closes, fills);
        }
        _ => {}
    }
}

/// Run every per-individual check on `id`. Returns the diagnostics in
/// canonical order (A009 per role, A010 per role, A011, A013, A014 per
/// role) plus the set of other individuals whose derived state the A009
/// viability test consulted.
pub(crate) fn abox_diagnostics(kb: &Kb, id: IndId) -> (Vec<Diagnostic>, BTreeSet<IndId>) {
    let mut out = Vec::new();
    let mut consulted = BTreeSet::new();
    let ind = kb.ind(id);
    let name = kb.schema().symbols.individual_name(ind.name).to_owned();
    let span = || Span::Individual(name.clone());

    // A009: unsatisfiable pending obligations. A role with an AT-LEAST
    // (or FILLS-implied) lower bound whose value restriction enumerates a
    // ONE-OF pool needs `min_count` fillers drawn from that pool; if too
    // few pool members remain compatible with the restriction, the
    // obligation can never be met. Open-world care: unresolved names and
    // host values count as viable.
    for (&role, rr) in &ind.derived().roles {
        let need = rr.min_count() as usize;
        if need == 0 {
            continue;
        }
        let Some(body) = rr.all.as_deref() else {
            continue;
        };
        let Some(pool) = &body.one_of else {
            continue;
        };
        let mut viable = 0usize;
        let mut blocked: Vec<String> = Vec::new();
        for m in pool {
            if rr.fillers.contains(m) {
                viable += 1; // already a filler — compatible by commit-time integrity
                continue;
            }
            let IndRef::Classic(n) = m else {
                viable += 1; // host value: satisfies the body or not, never "used up"
                continue;
            };
            let Ok(fid) = kb.ind_id(*n) else {
                viable += 1; // not yet created — open world, still satisfiable
                continue;
            };
            consulted.insert(fid);
            let mut trial = kb.ind(fid).derived().clone();
            trial.conjoin(body, kb.schema());
            if trial.is_incoherent() {
                blocked.push(format!(
                    "candidate {} is incompatible: {}",
                    ind_ref_str(kb, m),
                    trial.clash().expect("incoherent form carries a clash")
                ));
            } else {
                viable += 1;
            }
        }
        if viable < need {
            let sym = &kb.schema().symbols;
            let rname = sym.role_name(role).to_owned();
            let mut prov = vec![format!("value restriction: {}", body.display(sym))];
            prov.extend(blocked);
            out.push(
                Diagnostic::new(
                    Code::UnsatisfiableObligation,
                    span(),
                    format!(
                        "role {rname}: only {viable} of {} ONE-OF candidate(s) remain viable \
                         for an AT-LEAST {need} obligation",
                        pool.len()
                    ),
                )
                .with_provenance(prov),
            );
        }
    }

    // A010: AT-MOST/FILLS near-violation — a bounded, still-open role one
    // filler away from its AT-MOST, at which point the paper's §3.3
    // deduction closes it. Roles with no fillers yet are skipped (every
    // bare attribute would otherwise warn).
    for (&role, rr) in &ind.derived().roles {
        let Some(m) = rr.at_most else { continue };
        if rr.closed || rr.fillers.is_empty() {
            continue;
        }
        if rr.fillers.len() as u32 + 1 == m {
            let sym = &kb.schema().symbols;
            let rname = sym.role_name(role).to_owned();
            let known: Vec<String> = rr.fillers.iter().map(|f| ind_ref_str(kb, f)).collect();
            out.push(
                Diagnostic::new(
                    Code::NearBound,
                    span(),
                    format!(
                        "role {rname} holds {} of at most {m} filler(s) — one more FILLS \
                         reaches the bound and closes the role",
                        rr.fillers.len()
                    ),
                )
                .with_provenance(vec![format!("known fillers: {}", known.join(", "))]),
            );
        }
    }

    // A011: SAME-AS co-references meeting a ONE-OF enumeration — the
    // combination for which structural subsumption is known-incomplete
    // (Borgida & Patel-Schneider's completeness analysis, PAPERS.md #1):
    // consequences may silently go underived.
    if !ind.derived().same_as.is_empty() {
        let mut one_of_met = ind.derived().one_of.is_some();
        if !one_of_met {
            'paths: for path in ind.derived().same_as.all_paths() {
                let mut cur = ind.derived().clone();
                for &role in &path {
                    let vr = cur.value_restriction(role);
                    if vr.one_of.is_some() {
                        one_of_met = true;
                        break 'paths;
                    }
                    cur = vr;
                }
            }
        }
        if one_of_met {
            let sym = &kb.schema().symbols;
            out.push(
                Diagnostic::new(
                    Code::IncompleteReasoning,
                    span(),
                    "SAME-AS co-references meet a ONE-OF enumeration — structural completion \
                     is known-incomplete for this combination"
                        .to_owned(),
                )
                .with_provenance(vec![
                    format!("same-as: {}", ind.derived().same_as.display(sym)),
                    "consequences of identifying enumerated individuals may go underived"
                        .to_owned(),
                ]),
            );
        }
    }

    // A013: orphan individual — told something, yet recognized under no
    // defined concept (its most-specific classification is THING itself).
    if !ind.told().is_empty() && ind.msc().all(|n| n == classic_core::taxonomy::NodeId::TOP) {
        out.push(
            Diagnostic::new(
                Code::OrphanIndividual,
                span(),
                "recognized only under THING — no defined concept describes this individual"
                    .to_owned(),
            )
            .with_provenance(vec![format!(
                "{} told assertion(s) never lifted it below THING",
                ind.told().len()
            )]),
        );
    }

    // A014: stale CLOSE — a role the user closed epistemically, whose
    // closure also rests on *derived* fillers (propagation, SAME-AS, rule
    // firings). Retracting the source of a derived filler reopens or
    // shifts the bound, so the told CLOSE means less than it reads.
    let mut closes = BTreeSet::new();
    let mut told_fills = Vec::new();
    for t in ind.told() {
        collect_told_role_facts(t, &mut closes, &mut told_fills);
    }
    for role in closes {
        let Some(rr) = ind.derived().roles.get(&role) else {
            continue;
        };
        if !rr.closed {
            continue;
        }
        let told_set: BTreeSet<&IndRef> = told_fills
            .iter()
            .filter(|(r, _)| *r == role)
            .map(|(_, f)| f)
            .collect();
        let extra: Vec<String> = rr
            .fillers
            .iter()
            .filter(|f| !told_set.contains(f))
            .map(|f| ind_ref_str(kb, f))
            .collect();
        if extra.is_empty() {
            continue;
        }
        let sym = &kb.schema().symbols;
        let rname = sym.role_name(role).to_owned();
        out.push(
            Diagnostic::new(
                Code::StaleClose,
                span(),
                format!(
                    "(CLOSE {rname}) captured {} derived filler(s) beyond the told FILLS — \
                     the closure rests on retractable derivations",
                    extra.len()
                ),
            )
            .with_provenance(vec![
                format!("derived filler(s): {}", extra.join(", ")),
                "these arrived via propagation (ALL / SAME-AS / rule support), not told FILLS"
                    .to_owned(),
            ]),
        );
    }

    (out, consulted)
}

/// The rule indices whose antecedent this individual is compatible with —
/// the per-individual half of A012. A rule that already fired here is
/// compatible by definition; otherwise the individual is compatible iff
/// conjoining the antecedent into its derived description stays coherent.
pub(crate) fn compat_rules(kb: &Kb, id: IndId, infos: &[RuleInfo]) -> BTreeSet<usize> {
    let ind = kb.ind(id);
    let mut out = BTreeSet::new();
    for info in infos {
        if info.retired {
            continue;
        }
        let Some((ant, _)) = &info.nf else { continue };
        if ant.is_incoherent() {
            continue;
        }
        if ind.has_fired(info.index) {
            out.insert(info.index);
            continue;
        }
        let mut trial = ind.derived().clone();
        trial.conjoin(ant, kb.schema());
        if !trial.is_incoherent() {
            out.insert(info.index);
        }
    }
    out
}
