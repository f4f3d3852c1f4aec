//! The TBox/rule-base analysis passes, factored *per entity* so the full
//! analyzer and the incremental [`crate::AnalysisState`] run literally the
//! same code — full analysis is "prime an empty state", which is what makes
//! the differential oracle (`analyze_full == analyze_incremental`) hold by
//! construction rather than by parallel maintenance.

use crate::{Code, Diagnostic, Span};
use classic_core::desc::Concept;
use classic_core::subsume::{equivalent, subsumes};
use classic_core::symbol::{ConceptName, RoleId};
use classic_core::NormalForm;
use classic_kb::Kb;
use std::collections::HashMap;

/// A001 + A003 + A008: everything the analyzer has to say about one
/// defined concept. Definitions are immutable once accepted, so the
/// result can be cached for the concept's lifetime.
///
/// * **A001 incoherent-concept** — the normal form is ⊥. Provenance
///   replays the definition's told conjuncts as *prefixes*, re-normalizing
///   `(AND c1 … ck)` from scratch for growing `k` until the prefix first
///   turns incoherent. Replaying from scratch (rather than conjoining
///   incrementally) matters: `CLOSE`/`FILLS` are contextual, so an
///   incremental replay can clash where single-pass normalization does
///   not, which would misattribute the culprit conjunct.
/// * **A003 vacuous-restriction** — a told `(ALL r body)` whose body is ⊥.
///   The normal form silently folds this to `(AT-MOST 0 r)`: a legal
///   description, but almost never what the author meant.
/// * **A008 redundant-conjunct** — a told conjunct entailed by its
///   siblings: re-normalizing the definition without it yields an
///   equivalent normal form.
pub(crate) fn concept_diagnostics(kb: &Kb, name: ConceptName) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (nf, told) = {
        let s = kb.schema();
        let Ok(nf) = s.concept_nf(name) else {
            return out;
        };
        let Ok(told) = s.concept_told(name) else {
            return out;
        };
        (nf.clone(), told.clone())
    };
    let cname = kb.schema().symbols.concept_name(name).to_owned();

    if nf.is_incoherent() {
        let mut prov = vec![format!(
            "normal form is ⊥: {}",
            nf.clash()
                .expect("incoherent form carries a clash")
                .display(&kb.schema().symbols)
        )];
        if let Concept::And(parts) = &told {
            for k in 0..parts.len() {
                let prefix = Concept::And(parts[..=k].to_vec());
                let Ok(pnf) = kb.normalize(&prefix) else {
                    break;
                };
                if !pnf.is_incoherent() {
                    continue;
                }
                let sym = &kb.schema().symbols;
                if k == 0 {
                    prov.push(format!(
                        "the first conjunct {} is itself incoherent",
                        parts[0].display(sym)
                    ));
                } else {
                    prov.push(format!(
                        "conjuncts 1..{} are coherent; adding conjunct {} {} produces the clash",
                        k,
                        k + 1,
                        parts[k].display(sym)
                    ));
                }
                break;
            }
        }
        out.push(
            Diagnostic::new(
                Code::IncoherentConcept,
                Span::Concept(cname.clone()),
                format!("definition of {cname} is unsatisfiable — no individual can ever be an instance"),
            )
            .with_provenance(prov),
        );
        // An incoherent definition is already an A001; piling on A003/A008
        // for its sub-bodies would be noise.
        return out;
    }

    // A003: vacuous value restrictions.
    let mut alls = Vec::new();
    collect_alls(&told, &mut alls);
    for (role, body) in alls {
        let Ok(bnf) = kb.normalize(&body) else {
            continue;
        };
        if !bnf.is_incoherent() {
            continue;
        }
        let sym = &kb.schema().symbols;
        let rname = sym.role_name(role).to_owned();
        out.push(
            Diagnostic::new(
                Code::VacuousRestriction,
                Span::Concept(cname.clone()),
                format!(
                    "(ALL {rname} …) has an unsatisfiable body — it collapses to (AT-MOST 0 {rname})"
                ),
            )
            .with_provenance(vec![
                format!("body: {}", body.display(sym)),
                format!(
                    "body clash: {}",
                    bnf.clash().expect("incoherent form carries a clash")
                ),
            ]),
        );
    }

    // A008: redundant conjuncts.
    if let Concept::And(parts) = &told {
        if parts.len() >= 2 {
            for i in 0..parts.len() {
                let rest: Vec<Concept> = parts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, p)| p.clone())
                    .collect();
                let Ok(rnf) = kb.normalize(&Concept::And(rest)) else {
                    continue;
                };
                if !equivalent(&rnf, &nf) {
                    continue;
                }
                let sym = &kb.schema().symbols;
                out.push(
                    Diagnostic::new(
                        Code::RedundantConjunct,
                        Span::Concept(cname.clone()),
                        format!(
                            "conjunct {} of {} is redundant — the remaining conjuncts already entail it",
                            i + 1,
                            parts.len()
                        ),
                    )
                    .with_provenance(vec![format!(
                        "redundant conjunct: {}",
                        parts[i].display(sym)
                    )]),
                );
            }
        }
    }
    out
}

/// A002: cycles in the told reference graph over defined concepts.
///
/// `define-concept` already makes these unreachable (forward references
/// and self-reference are rejected, redefinition is rejected), so this is
/// a defensive re-check of the *stored* schema: if an embedder ever
/// constructs one by other means, analysis reports it rather than
/// trusting the invariant.
pub(crate) fn definition_cycles(kb: &Kb) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let schema = kb.schema();
    let names: Vec<ConceptName> = schema.defined_concepts().collect();
    let mut graph: HashMap<ConceptName, Vec<ConceptName>> = HashMap::new();
    for &n in &names {
        let Ok(told) = schema.concept_told(n) else {
            continue;
        };
        let mut refs = Vec::new();
        told.referenced_names(&mut refs);
        refs.retain(|r| schema.is_defined(*r));
        refs.dedup();
        graph.insert(n, refs);
    }

    // Three-color DFS; `path` reconstructs the cycle for provenance.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<ConceptName, Color> = names.iter().map(|&n| (n, Color::White)).collect();
    for &start in &names {
        if color[&start] != Color::White {
            continue;
        }
        // Explicit stack of (node, next-child-index); the gray entries on
        // the stack are the current path, used to reconstruct cycles.
        let mut stack: Vec<(ConceptName, usize)> = vec![(start, 0)];
        color.insert(start, Color::Gray);
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, next) = stack[top];
            let children = &graph[&node];
            if next < children.len() {
                stack[top].1 += 1;
                let child = children[next];
                match color[&child] {
                    Color::White => {
                        color.insert(child, Color::Gray);
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        // Found a cycle: the gray path from `child` to `node`.
                        let pos = stack.iter().position(|&(n, _)| n == child).unwrap_or(0);
                        let sym = &schema.symbols;
                        let mut chain: Vec<String> = stack[pos..]
                            .iter()
                            .map(|&(n, _)| sym.concept_name(n).to_owned())
                            .collect();
                        chain.push(sym.concept_name(child).to_owned());
                        let head = chain[0].clone();
                        out.push(
                            Diagnostic::new(
                                Code::DefinitionCycle,
                                Span::Concept(head.clone()),
                                format!(
                                    "definition of {head} is cyclic — recursive definitions are forbidden (§2.2)"
                                ),
                            )
                            .with_provenance(vec![format!("cycle: {}", chain.join(" → "))]),
                        );
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    out
}

/// Collect every `(ALL r body)` anywhere inside a told expression.
fn collect_alls(c: &Concept, out: &mut Vec<(RoleId, Concept)>) {
    match c {
        Concept::All(r, body) => {
            out.push((*r, (**body).clone()));
            collect_alls(body, out);
        }
        Concept::And(parts) => {
            for p in parts {
                collect_alls(p, out);
            }
        }
        Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
            collect_alls(parent, out);
        }
        _ => {}
    }
}

/// Everything the rule passes need to know about one rule, normalized
/// once. Rules are append-only (retraction retires in place), so a
/// snapshot stays valid until the rule base's retired-flag signature
/// changes.
pub(crate) struct RuleInfo {
    pub(crate) index: usize,
    pub(crate) aname: String,
    pub(crate) consequent: Concept,
    pub(crate) retired: bool,
    /// `(antecedent NF, consequent NF)`; `None` if either failed to
    /// normalize.
    pub(crate) nf: Option<(NormalForm, NormalForm)>,
}

/// Snapshot and pre-normalize the whole rule base (antecedent NF from the
/// schema, consequent NF by normalizing the told consequent).
pub(crate) fn rule_infos(kb: &Kb) -> Vec<RuleInfo> {
    let raw: Vec<(String, Concept, bool, ConceptName)> = kb
        .rules()
        .iter()
        .map(|r| {
            (
                kb.schema().symbols.concept_name(r.antecedent).to_owned(),
                r.consequent.clone(),
                r.retired,
                r.antecedent,
            )
        })
        .collect();
    raw.into_iter()
        .enumerate()
        .map(|(index, (aname, consequent, retired, antecedent))| {
            let nf = (|| {
                let ant = kb.schema().concept_nf(antecedent).ok().cloned()?;
                let cons = kb.normalize(&consequent).ok()?;
                Some((ant, cons))
            })();
            RuleInfo {
                index,
                aname,
                consequent,
                retired,
                nf,
            }
        })
        .collect()
}

/// A004/A005/A006/A007: the per-rule analysis of rule `i` against its
/// siblings. (A012, the per-rule *ABox* check, is generated separately
/// from maintained compatibility counts — see
/// [`inert_rule_diagnostic`].)
///
/// * **A004 dead-rule** — the antecedent is ⊥, so the trigger never fires.
/// * **A006 entailed-consequent** — the antecedent already entails the
///   consequent, so firing changes nothing.
/// * **A005 shadowed-rule** — some other live rule fires at least as often
///   (its antecedent subsumes this one's) and concludes at least as much
///   (its consequent is subsumed by this one's). On exact ties the
///   later-indexed rule is the one flagged.
/// * **A007 retired-twin** — a live rule whose coverage duplicates a
///   *retired* rule: it re-introduces conclusions that were deliberately
///   retracted, which is worth knowing but not necessarily wrong.
pub(crate) fn rule_diagnostics(kb: &Kb, i: usize, infos: &[RuleInfo]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let info = &infos[i];
    if info.retired {
        return out;
    }
    let Some((ant, cons)) = &info.nf else {
        return out;
    };
    let span = Span::Rule {
        index: info.index,
        antecedent: info.aname.clone(),
    };

    if ant.is_incoherent() {
        out.push(
            Diagnostic::new(
                Code::DeadRule,
                span,
                format!(
                    "antecedent {} is unsatisfiable — the rule can never fire",
                    info.aname
                ),
            )
            .with_provenance(vec![format!(
                "antecedent clash: {}",
                ant.clash().expect("incoherent form carries a clash")
            )]),
        );
        return out;
    }

    if subsumes(cons, ant) {
        out.push(
            Diagnostic::new(
                Code::EntailedConsequent,
                span.clone(),
                format!(
                    "every {} is already an instance of the consequent — firing adds nothing",
                    info.aname
                ),
            )
            .with_provenance(vec![format!(
                "consequent: {}",
                info.consequent.display(&kb.schema().symbols)
            )]),
        );
    }

    // A005: shadowed by a live sibling.
    for (j, other) in infos.iter().enumerate() {
        if j == i || other.retired {
            continue;
        }
        let Some((ant_j, cons_j)) = &other.nf else {
            continue;
        };
        if ant_j.is_incoherent() {
            continue;
        }
        let j_covers_i = subsumes(ant_j, ant) && subsumes(cons, cons_j);
        let i_covers_j = subsumes(ant, ant_j) && subsumes(cons_j, cons);
        if j_covers_i && (!i_covers_j || j < i) {
            out.push(
                Diagnostic::new(
                    Code::ShadowedRule,
                    span.clone(),
                    format!(
                        "shadowed by rule #{} (on {}) — that rule fires at least as often and concludes at least as much",
                        other.index, other.aname
                    ),
                )
                .with_provenance(vec![format!(
                    "this rule's consequent: {}",
                    info.consequent.display(&kb.schema().symbols)
                )]),
            );
            break;
        }
    }

    // A007: coverage duplicated by a retired rule.
    for other in infos.iter() {
        if !other.retired {
            continue;
        }
        let Some((ant_k, cons_k)) = &other.nf else {
            continue;
        };
        if ant_k.is_incoherent() {
            continue;
        }
        if subsumes(ant_k, ant) && subsumes(cons, cons_k) {
            out.push(Diagnostic::new(
                Code::RetiredTwin,
                span.clone(),
                format!(
                    "duplicates retired rule #{} (on {}) — it re-introduces retracted conclusions",
                    other.index, other.aname
                ),
            ));
            break;
        }
    }
    out
}

/// A012 inert-rule: a live, satisfiable rule that cannot fire on the
/// *current* ABox — every existing individual's derived description
/// clashes with the antecedent. Generated from the maintained per-rule
/// compatibility count (`compat`, the number of individuals compatible
/// with the antecedent), so the incremental analyzer re-renders it in
/// O(rules) without re-scanning the ABox.
pub(crate) fn inert_rule_diagnostic(
    info: &RuleInfo,
    ind_count: usize,
    compat: usize,
) -> Option<Diagnostic> {
    if info.retired || ind_count == 0 || compat > 0 {
        return None;
    }
    let (ant, _) = info.nf.as_ref()?;
    if ant.is_incoherent() {
        return None; // already an A004 dead-rule
    }
    Some(
        Diagnostic::new(
            Code::InertRule,
            Span::Rule {
                index: info.index,
                antecedent: info.aname.clone(),
            },
            format!(
                "no current individual is compatible with {} — the rule cannot fire on this ABox",
                info.aname
            ),
        )
        .with_provenance(vec![format!(
            "{ind_count} individual(s) checked; every derived description clashes with the antecedent"
        )]),
    )
}
