//! Evaluating parsed commands against a knowledge base.
//!
//! [`eval`] is where a pure [`Command`] first meets a KB: names resolve
//! against its schema, the operator runs, and the result comes back as an
//! [`Outcome`]. The ten operators that write are resolved, and applied,
//! by [`crate::Write`]; `what-if` is tried and rolled back; the rest only
//! ask, and [`eval_read`] answers them from a `&Kb`. [`eval_monitored`]
//! additionally keeps an incremental analysis state in step with the
//! writes.

use crate::command::Command;
use crate::outcome::{AspectValue, LintReport, Outcome};
use crate::parser::parse;
use classic_core::desc::IndRef;
use classic_core::error::{ClassicError, Result};
use classic_core::schema::Schema;
use classic_core::symbol::{ConceptName, SymbolTable};
use classic_kb::{IndId, Kb};
use classic_query::Query;
use std::borrow::Cow;

/// `unknown concept NAME` with a nearest-match suggestion when some
/// defined name is within typo distance.
fn unknown_concept(kb: &Kb, name: &str) -> ClassicError {
    ClassicError::Malformed(suggest(
        format!("unknown concept {name:?}"),
        classic_kb::nearest_match(name, kb.schema().symbols.concepts().map(|(_, n)| n)),
    ))
}

fn unknown_individual(kb: &Kb, name: &str) -> ClassicError {
    ClassicError::Malformed(suggest(
        format!("unknown individual {name:?}"),
        classic_kb::nearest_match(name, kb.schema().symbols.individuals().map(|(_, n)| n)),
    ))
}

pub(crate) fn unknown_role(schema: &Schema, name: &str) -> ClassicError {
    ClassicError::Malformed(suggest(
        format!("unknown role {name:?}"),
        classic_kb::nearest_match(name, schema.symbols.roles().map(|(_, n)| n)),
    ))
}

/// The individual a read names: looked up, never created.
fn find_ind(kb: &Kb, name: &str) -> Result<IndId> {
    let found = kb.schema().symbols.find_individual(name);
    kb.ind_id(found.ok_or_else(|| unknown_individual(kb, name))?)
}

/// The concept name a read mentions: looked up, never interned.
fn find_concept(kb: &Kb, name: &str) -> Result<ConceptName> {
    let found = kb.schema().symbols.find_concept(name);
    found.ok_or_else(|| unknown_concept(kb, name))
}

fn suggest(mut msg: String, near: Option<&str>) -> String {
    if let Some(n) = near {
        msg.push_str(&format!(" — did you mean {n:?}?"));
    }
    msg
}

/// Evaluate a parsed command against a knowledge base. A command is one
/// of three kinds, and each meets the KB in one place: a *write* is
/// resolved and applied by [`crate::Write`]; `what-if` is the one *trial*
/// — asserted, reported, and rolled back whatever the verdict; anything
/// else is a *read*, answered by [`eval_read`] from a borrow.
pub fn eval(kb: &mut Kb, cmd: &Command) -> Result<Outcome> {
    if let Some(write) = cmd.to_write(kb.schema_mut())? {
        return write.apply(kb);
    }
    let Command::WhatIf(name, c) = cmd else {
        return eval_read(kb, cmd);
    };
    let c = c.resolve(kb.schema_mut())?;
    match kb.what_if(name, &c) {
        Ok(report) => Ok(Outcome::Description(format!(
            "would be ACCEPTED (steps={} fills={} corefs={} rules={} reclassified={}); nothing was changed",
            report.steps,
            report.fills_propagated,
            report.corefs_derived,
            report.rules_fired,
            report.reclassified
        ))),
        Err(ClassicError::Inconsistent { reason, .. }) => Ok(Outcome::Description(format!(
            "would be REJECTED: {}; nothing was changed",
            reason.display(&kb.schema().symbols)
        ))),
        Err(other) => Err(other),
    }
}

/// Answer a read: any command that is neither a write nor `what-if`
/// (those are errors here). Asking is not telling — the KB is borrowed,
/// and a name it has never seen is resolved in a copy of its symbol
/// table made at that first miss, so the read introduces none.
pub fn eval_read(kb: &Kb, cmd: &Command) -> Result<Outcome> {
    let symbols = &kb.schema().symbols;
    let mut names = Cow::Borrowed(symbols);
    // An id only the copy knows would mean nothing to the caller, who
    // names errors from the KB's table: spell it here.
    read(kb, cmd, &mut names).map_err(|e| match e {
        ClassicError::UndefinedRole(r) if r.index() >= symbols.role_count() => {
            ClassicError::UndefinedName {
                kind: "role",
                name: names.role_name(r).to_owned(),
            }
        }
        ClassicError::UndefinedConcept(c) if c.index() >= symbols.concept_count() => {
            ClassicError::UndefinedName {
                kind: "concept",
                name: names.concept_name(c).to_owned(),
            }
        }
        e => e,
    })
}

fn read(kb: &Kb, cmd: &Command, names: &mut Cow<'_, SymbolTable>) -> Result<Outcome> {
    match cmd {
        Command::DefineRole(_)
        | Command::DefineAttribute(_)
        | Command::DefineConcept(..)
        | Command::CreateInd(_)
        | Command::AssertInd(..)
        | Command::AssertRule(..)
        | Command::RetractInd(..)
        | Command::RetractRule(..)
        | Command::RetractRuleById(_)
        | Command::BulkLoad(_)
        | Command::WhatIf(..) => Err(ClassicError::Malformed(
            "not a read: a write or what-if needs a knowledge base to change".into(),
        )),
        Command::ListRules => {
            let symbols = &kb.schema().symbols;
            let lines: Vec<String> = kb
                .active_rules()
                .map(|(ix, r)| {
                    format!(
                        "#{ix}: {} => {}",
                        symbols.concept_name(r.antecedent),
                        r.consequent.display(symbols)
                    )
                })
                .collect();
            if lines.is_empty() {
                Ok(Outcome::Description("no live rules".into()))
            } else {
                Ok(Outcome::Description(lines.join("\n")))
            }
        }
        Command::ObsStats { json } => {
            let snap = kb.metrics().snapshot();
            Ok(Outcome::Description(if *json {
                classic_obs::render_json(&snap)
            } else {
                classic_obs::render_prometheus(&snap)
            }))
        }
        Command::ObsTrace(op) => {
            let recorder = kb.flight_recorder();
            if op == "*" {
                let mut lines: Vec<String> = recorder
                    .ops()
                    .into_iter()
                    .map(|(name, n)| format!("{name}: {n} trace(s) retained"))
                    .collect();
                lines.sort();
                return Ok(Outcome::Description(if lines.is_empty() {
                    no_traces_hint()
                } else {
                    lines.join("\n")
                }));
            }
            let traces = recorder.traces_for(op);
            if traces.is_empty() {
                return Ok(Outcome::Description(no_traces_hint()));
            }
            Ok(Outcome::Description(
                traces
                    .iter()
                    .map(|t| t.render())
                    .collect::<Vec<_>>()
                    .join("\n"),
            ))
        }
        Command::ObsReset => {
            kb.metrics().reset();
            kb.flight_recorder().clear();
            Ok(Outcome::Ok)
        }
        Command::ObsLevel(level) => {
            use classic_obs::ObsLevel;
            match level.as_deref() {
                None => {}
                Some("off") => {
                    classic_obs::set_level(ObsLevel::Off);
                }
                Some("counters") => {
                    classic_obs::set_level(ObsLevel::Counters);
                }
                Some("full") => {
                    classic_obs::set_level(ObsLevel::Full);
                }
                Some(other) => {
                    return Err(ClassicError::Malformed(format!(
                        "unknown obs level {other:?} (off, counters, full)"
                    )))
                }
            }
            Ok(Outcome::Description(format!(
                "obs level: {:?}",
                classic_obs::level()
            )))
        }
        Command::ObsSample(rate) => {
            if let Some(r) = rate {
                if !(0.0..=1.0).contains(r) {
                    return Err(ClassicError::Malformed(format!(
                        "sample rate must be in [0, 1], got {r}"
                    )));
                }
                classic_obs::set_sample_rate(*r);
            }
            Ok(Outcome::Description(format!(
                "obs sample rate: {}",
                classic_obs::sample_rate()
            )))
        }
        Command::ObsSlowlog(n) => Ok(Outcome::Description(
            classic_obs::global_slowlog()
                .render_text(n.unwrap_or(10))
                .trim_end()
                .to_string(),
        )),
        Command::Provenance(name) => {
            let id = find_ind(kb, name)?;
            let lines = kb.explain_provenance(id);
            if lines.is_empty() {
                Ok(Outcome::Description(format!(
                    "{name}: no recorded derivations (identity only)"
                )))
            } else {
                Ok(Outcome::Description(lines.join("\n")))
            }
        }
        // `retrieve` with a `?:` marker is `ask-necessary-set`.
        Command::Retrieve(q) | Command::AskNecessarySet(q) => {
            let q = q.resolve(names)?;
            if q.marker.is_empty() && matches!(cmd, Command::Retrieve(_)) {
                let ans = Query::concept(q.concept)
                    .run(kb)?
                    .into_known()
                    .expect("a Known query yields Answer::Known");
                return Ok(Outcome::Individuals(render_inds(kb, ans.known)));
            }
            let fillers = Query::marked(q)
                .run(kb)?
                .into_necessary_set()
                .expect("a NecessarySet query yields Answer::NecessarySet");
            Ok(Outcome::Individuals(render_ind_refs(names, &fillers)))
        }
        Command::Possible(c) => {
            let c = c.resolve(names)?;
            let ids = Query::concept(c)
                .possible()
                .run(kb)?
                .into_possible()
                .expect("a Possible query yields Answer::Possible");
            Ok(Outcome::Individuals(render_inds(kb, ids)))
        }
        Command::AskDescription(q) => {
            let q = q.resolve(names)?;
            let nf = Query::marked(q)
                .description()
                .run(kb)?
                .into_description()
                .expect("a Description query yields Answer::Description");
            let c = match names {
                Cow::Borrowed(_) => nf.to_concept(kb.schema()),
                // `to_concept` orders individuals by name, and one this
                // read was the first to mention is named only in its copy.
                Cow::Owned(copy) => {
                    let mut schema = kb.schema().clone();
                    schema.symbols.clone_from(copy);
                    nf.to_concept(&schema)
                }
            };
            Ok(Outcome::Description(c.display(names).to_string()))
        }
        Command::Subsumes(a, b) | Command::Equivalent(a, b) | Command::Disjoint(a, b) => {
            let a = a.resolve(names)?;
            let b = b.resolve(names)?;
            let na = kb.normalize(&a)?;
            let nb = kb.normalize(&b)?;
            Ok(Outcome::Bool(match cmd {
                Command::Subsumes(..) => classic_core::subsumes(&na, &nb),
                Command::Equivalent(..) => classic_core::equivalent(&na, &nb),
                _ => classic_core::disjoint(&na, &nb, kb.schema()),
            }))
        }
        Command::ConceptAspect(name, kind, role) => {
            let cname = find_concept(kb, name)?;
            let role = resolve_role(kb, role.as_deref())?;
            let nf = kb.schema().concept_nf(cname)?;
            let aspect = classic_core::aspect::concept_aspect(nf, *kind, role);
            Ok(Outcome::Aspect(render_aspect(kb, &aspect)))
        }
        Command::IndAspect(name, kind, role) => {
            let id = find_ind(kb, name)?;
            let role = resolve_role(kb, role.as_deref())?;
            let aspect = kb.ind_aspect(id, *kind, role);
            Ok(Outcome::Aspect(render_aspect(kb, &aspect)))
        }
        Command::Describe(name) => {
            let id = find_ind(kb, name)?;
            let c = classic_query::describe(kb, id);
            Ok(Outcome::Description(
                c.display(&kb.schema().symbols).to_string(),
            ))
        }
        Command::Classify(c) => {
            let c = c.resolve(names)?;
            let placement = kb.classify_concept(&c)?;
            let render = |kb: &Kb, names: &[ConceptName]| -> Vec<String> {
                names
                    .iter()
                    .map(|&n| kb.schema().symbols.concept_name(n).to_owned())
                    .collect()
            };
            let mut lines = Vec::new();
            if !placement.equivalent.is_empty() {
                lines.push(format!(
                    "equivalent: {}",
                    render(kb, &placement.equivalent).join(" ")
                ));
            }
            lines.push(format!(
                "parents: {}",
                render(kb, &placement.parents).join(" ")
            ));
            lines.push(format!(
                "children: {}",
                render(kb, &placement.children).join(" ")
            ));
            Ok(Outcome::Description(lines.join("\n")))
        }
        Command::Why(ind_name, concept_name) => {
            let id = find_ind(kb, ind_name)?;
            let cname = find_concept(kb, concept_name)?;
            let e = kb.explain_membership(id, cname)?;
            let verdict = if e.satisfied {
                format!("{ind_name} IS a {concept_name}:\n")
            } else {
                format!("{ind_name} is NOT provably a {concept_name}:\n")
            };
            Ok(Outcome::Description(format!("{verdict}{}", e.render())))
        }
        Command::Parents(name) | Command::Children(name) => {
            let cname = find_concept(kb, name)?;
            let node = kb
                .taxonomy()
                .node_of(cname)
                .ok_or(ClassicError::UndefinedConcept(cname))?;
            let neighbors = if matches!(cmd, Command::Parents(_)) {
                &kb.taxonomy().node(node).parents
            } else {
                &kb.taxonomy().node(node).children
            };
            let mut names = Vec::new();
            for &n in neighbors {
                for &cn in &kb.taxonomy().node(n).names {
                    names.push(kb.schema().symbols.concept_name(cn).to_owned());
                }
                if n == classic_core::taxonomy::NodeId::TOP {
                    names.push("THING".to_owned());
                }
            }
            names.sort();
            names.dedup();
            Ok(Outcome::Concepts(names))
        }
        Command::LintKb { .. } => {
            // One-shot evaluation holds no analysis state, so the full
            // report and the first cone coincide; `eval_monitored` (and
            // the server's per-tenant state) serve true cone deltas.
            let report = classic_analyze::analyze(kb);
            Ok(Outcome::Lint(LintReport::from(&report)))
        }
    }
}

/// Evaluate `cmd` while maintaining an incremental
/// [`classic_analyze::AnalysisState`] alongside the KB:
///
/// * `retract-ind` marks its analysis cone **before** evaluation (the
///   retraction removes the very dependency edges that define the cone);
/// * `assert-ind` and `bulk-load` mark their targets' cones **after**
///   evaluation (so fresh edges and propagation targets are inside them);
/// * concept/rule changes and brand-new individuals are detected by the
///   state itself on the next refresh;
/// * `(lint-kb)` is answered from the state — refreshed in O(cone), full
///   report assembled from the caches; `(lint-kb cone)` returns only the
///   diagnostics the refresh re-derived, with `inds_checked` reporting
///   how many individuals were actually re-linted.
pub fn eval_monitored(
    kb: &mut Kb,
    cmd: &Command,
    state: &mut classic_analyze::AnalysisState,
) -> Result<Outcome> {
    fn itself(kb: &Kb) -> Result<&Kb> {
        Ok(kb)
    }
    eval_monitored_in(kb, cmd, state, itself, eval)
}

/// [`eval_monitored`] for a KB that lives inside a `host` which has to do
/// the evaluating itself — the server's durable store, whose writes go
/// through its log: `kb_of` views the KB in the host, `eval_in` evaluates
/// a command against the host. The marking discipline is the same one,
/// because it is this one.
pub fn eval_monitored_in<H>(
    host: &mut H,
    cmd: &Command,
    state: &mut classic_analyze::AnalysisState,
    kb_of: impl Fn(&H) -> Result<&Kb>,
    eval_in: impl FnOnce(&mut H, &Command) -> Result<Outcome>,
) -> Result<Outcome> {
    if let Command::LintKb { cone } = cmd {
        let kb = kb_of(host)?;
        let refresh = state.refresh(kb);
        return Ok(Outcome::Lint(if *cone {
            LintReport::from_refresh(&refresh)
        } else {
            LintReport::from(&state.report(kb))
        }));
    }
    if let Command::RetractInd(name, _) = cmd {
        mark_individual_dirty(kb_of(host)?, state, name);
    }
    let out = eval_in(host, cmd)?;
    match cmd {
        Command::AssertInd(name, _) => mark_individual_dirty(kb_of(host)?, state, name),
        // Every row target, as one cone (brand-new individuals are
        // detected by the state itself, but rows may extend pre-existing
        // ones).
        Command::BulkLoad(spec) => mark_dirty(
            kb_of(host)?,
            state,
            spec.rows.iter().map(|row| row.name.as_str()),
        ),
        _ => {}
    }
    Ok(out)
}

/// Mark the named individual's analysis cone dirty in `state`, if the
/// individual exists. Call *before* a retraction (the retraction removes
/// the dependency edges the cone is computed from) and *after* an
/// assertion (so fresh edges and propagation targets are inside it) —
/// [`eval_monitored`] and [`eval_monitored_in`] do both; this is the
/// single step, for callers that time or drive it themselves.
pub fn mark_individual_dirty(kb: &Kb, state: &mut classic_analyze::AnalysisState, name: &str) {
    mark_dirty(kb, state, [name]);
}

/// Mark the joint analysis cone of those of `names` that exist.
fn mark_dirty<'n>(
    kb: &Kb,
    state: &mut classic_analyze::AnalysisState,
    names: impl IntoIterator<Item = &'n str>,
) {
    let symbols = &kb.schema().symbols;
    let seeds: std::collections::BTreeSet<_> = names
        .into_iter()
        .filter_map(|name| kb.ind_id(symbols.find_individual(name)?).ok())
        .collect();
    if !seeds.is_empty() {
        state.mark_dirty(kb, &seeds);
    }
}

fn no_traces_hint() -> String {
    format!(
        "no traces retained (current obs level: {:?}; spans record at Full — try (obs-level full))",
        classic_obs::level()
    )
}

fn resolve_role(kb: &Kb, role: Option<&str>) -> Result<Option<classic_core::RoleId>> {
    match role {
        None => Ok(None),
        Some(r) => kb
            .schema()
            .symbols
            .find_role(r)
            .map(Some)
            .ok_or_else(|| unknown_role(kb.schema(), r)),
    }
}

fn render_inds(kb: &Kb, ids: Vec<IndId>) -> Vec<String> {
    let symbols = &kb.schema().symbols;
    ids.into_iter()
        .map(|id| symbols.individual_name(kb.ind(id).name).to_owned())
        .collect()
}

fn render_ind_refs(symbols: &SymbolTable, refs: &[IndRef]) -> Vec<String> {
    refs.iter()
        .map(|r| match r {
            IndRef::Classic(n) => symbols.individual_name(*n).to_owned(),
            IndRef::Host(v) => v.to_string(),
        })
        .collect()
}

fn render_aspect(kb: &Kb, aspect: &classic_core::aspect::Aspect) -> AspectValue {
    use classic_core::aspect::Aspect;
    match aspect {
        Aspect::None => AspectValue::None,
        Aspect::Bound(n) => AspectValue::Bound(*n),
        Aspect::Closed(b) => AspectValue::Closed(*b),
        Aspect::Enumeration(v) | Aspect::Fillers(v) => {
            AspectValue::Values(render_ind_refs(&kb.schema().symbols, v))
        }
        Aspect::ValueRestriction(nf) => AspectValue::Restriction(
            nf.to_concept(kb.schema())
                .display(&kb.schema().symbols)
                .to_string(),
        ),
    }
}

/// Parse then evaluate each command in `input`, returning all outcomes.
/// Macro-free; for scripts using `define-macro`, use [`crate::Session`].
pub fn run_script(kb: &mut Kb, input: &str) -> Result<Vec<Outcome>> {
    let commands = parse(input)?;
    commands.iter().map(|c| eval(kb, c)).collect()
}
