//! The write set of the operator language, resolved.
//!
//! Ten operators change a knowledge base. A [`Write`] is one of them with
//! its names resolved — the form in which a write is *applied*
//! ([`Write::apply`], the only place a command reaches the KB's write
//! operators), *recorded* ([`Write::record`], the only producer of log
//! and segment record text) and *located* ([`Write::touches`]).
//! [`Command::to_write`] is the one resolve that produces it. Everything
//! that writes — [`crate::eval`], the durable store's commit, log replay,
//! snapshot rendering, bulk ingest — goes through these four.

use crate::command::{BulkSpec, Command};
use crate::outcome::Outcome;
use crate::parser::{MAX_NESTING, TOO_DEEP};
use classic_core::desc::{Concept, IndRef};
use classic_core::error::{ClassicError, Result};
use classic_core::lexical::Writer;
use classic_core::schema::Schema;
use classic_core::symbol::{RoleId, SymbolTable};
use classic_kb::{BulkRow, Kb};
use std::borrow::Cow;
use std::fmt;

/// A mutating command, resolved: names plus [`Concept`]s. Both are
/// borrowed where the caller already holds them (a parsed [`Command`], a
/// typed operator's arguments, the KB being snapshotted).
#[derive(Debug, Clone, PartialEq)]
pub enum Write<'a> {
    /// `(define-role name)`.
    DefineRole(&'a str),
    /// `(define-attribute name)`.
    DefineAttribute(&'a str),
    /// `(define-concept NAME told)`.
    DefineConcept(&'a str, Cow<'a, Concept>),
    /// `(create-ind Name)`.
    CreateInd(&'a str),
    /// `(assert-ind Name desc)`.
    AssertInd(&'a str, Cow<'a, Concept>),
    /// `(assert-rule ANTECEDENT consequent)`.
    AssertRule(&'a str, Cow<'a, Concept>),
    /// `(retract-ind Name desc)`.
    RetractInd(&'a str, Cow<'a, Concept>),
    /// `(retract-rule ANTECEDENT consequent)`.
    RetractRule(&'a str, Cow<'a, Concept>),
    /// `(retract-rule id)`. Recorded as the `RetractRule` of the rule the
    /// id names: compaction renumbers ids, so one is not replay-stable,
    /// while identical rules have identical consequences, so retracting
    /// *a* live rule with that antecedent and consequent is the same.
    RetractRuleById(usize),
    /// `(bulk-load [(into C)] (roles r…) (row Name v…)…)`.
    BulkLoad {
        /// Conjoined onto every row's description.
        into: Option<Concept>,
        /// One role per value column.
        roles: Vec<RoleId>,
        /// Each row's target and cells (`None` = the `_` cell).
        rows: Vec<(&'a str, Vec<Option<IndRef>>)>,
    },
}

/// Which existing individuals a [`Write`] reads or re-derives: what a
/// store holding some of them on disk must bring into memory first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touches<'a> {
    /// None: a definition, or a brand-new individual.
    Nothing,
    /// This individual, and from it only what propagation reaches.
    Individual(&'a str),
    /// Potentially any: a rule fires on every instance of its
    /// antecedent, a retraction re-derives a cone that can span the
    /// arena, bulk rows name arbitrary targets and fillers.
    Everything,
}

impl Command {
    /// Resolve a mutating command against `schema`; `None` for a command
    /// that writes nothing ([`Command::is_mutation`] without the
    /// resolving). Interns names, declares nothing.
    pub fn to_write(&self, schema: &mut Schema) -> Result<Option<Write<'_>>> {
        let resolved = |e: &crate::Expr, schema: &mut Schema| e.resolve(schema).map(Cow::Owned);
        Ok(Some(match self {
            Command::DefineRole(name) => Write::DefineRole(name),
            Command::DefineAttribute(name) => Write::DefineAttribute(name),
            Command::DefineConcept(name, e) => Write::DefineConcept(name, resolved(e, schema)?),
            Command::CreateInd(name) => Write::CreateInd(name),
            Command::AssertInd(name, e) => Write::AssertInd(name, resolved(e, schema)?),
            Command::AssertRule(name, e) => Write::AssertRule(name, resolved(e, schema)?),
            Command::RetractInd(name, e) => Write::RetractInd(name, resolved(e, schema)?),
            Command::RetractRule(name, e) => Write::RetractRule(name, resolved(e, schema)?),
            Command::RetractRuleById(ix) => Write::RetractRuleById(*ix),
            Command::BulkLoad(spec) => spec.to_write(schema)?,
            // Pinned to `is_mutation` by a test that is exhaustive.
            _ => return Ok(None),
        }))
    }
}

impl BulkSpec {
    /// [`Command::to_write`] for a `bulk-load`, for callers that hold the
    /// spec itself. Roles must already be declared.
    pub fn to_write(&self, schema: &mut Schema) -> Result<Write<'_>> {
        let into = self.into.as_ref().map(|e| e.resolve(schema)).transpose()?;
        let roles = (self.roles.iter())
            .map(|r| {
                let found = schema.symbols.find_role(r);
                found.ok_or_else(|| crate::eval::unknown_role(schema, r))
            })
            .collect::<Result<_>>()?;
        let rows = (self.rows.iter())
            .map(|row| {
                let cells = row.values.iter();
                let cells = cells.map(|v| v.as_ref().map(|lit| lit.resolve(schema)));
                (row.name.as_str(), cells.collect())
            })
            .collect();
        Ok(Write::BulkLoad { into, roles, rows })
    }
}

impl Write<'_> {
    /// What must be in memory before [`apply`](Write::apply).
    pub fn touches(&self) -> Touches<'_> {
        match self {
            Write::DefineRole(_)
            | Write::DefineAttribute(_)
            | Write::DefineConcept(..)
            | Write::CreateInd(_) => Touches::Nothing,
            Write::AssertInd(name, _) => Touches::Individual(name),
            Write::AssertRule(..)
            | Write::RetractInd(..)
            | Write::RetractRule(..)
            | Write::RetractRuleById(_)
            | Write::BulkLoad { .. } => Touches::Everything,
        }
    }

    /// Apply the write to `kb`: the one place a command reaches the KB's
    /// write operators. An `Err` leaves the KB as it was.
    pub fn apply(&self, kb: &mut Kb) -> Result<Outcome> {
        Ok(match self {
            Write::DefineRole(name) => kb.define_role(name).map(|_| Outcome::Ok)?,
            Write::DefineAttribute(name) => kb.define_attribute(name).map(|_| Outcome::Ok)?,
            Write::DefineConcept(name, told) => kb
                .define_concept(name, told.as_ref().clone())
                .map(|_| Outcome::Ok)?,
            Write::CreateInd(name) => kb.create_ind(name).map(|_| Outcome::Ok)?,
            Write::AssertInd(name, desc) => Outcome::Asserted(kb.assert_ind(name, desc)?),
            Write::AssertRule(name, consequent) => {
                Outcome::RuleAsserted(kb.assert_rule(name, consequent.as_ref().clone())?)
            }
            Write::RetractInd(name, desc) => Outcome::Retracted(kb.retract_ind(name, desc)?),
            Write::RetractRule(name, consequent) => {
                Outcome::Retracted(kb.retract_rule(name, consequent)?)
            }
            Write::RetractRuleById(ix) => Outcome::Retracted(kb.retract_rule_by_id(*ix)?),
            Write::BulkLoad { into, roles, rows } => {
                // Each row asserts `(AND into (FILLS r1 v1) … (FILLS rk vk))`.
                let rows: Vec<BulkRow> = (rows.iter())
                    .map(|(name, cells)| {
                        let fills = cells.iter().zip(roles).filter_map(|(cell, &role)| {
                            Some(Concept::Fills(role, vec![cell.clone()?]))
                        });
                        BulkRow {
                            name: (*name).to_owned(),
                            desc: Concept::and(into.iter().cloned().chain(fills)),
                        }
                    })
                    .collect();
                Outcome::BulkLoaded(kb.bulk_assert(&rows))
            }
        })
    }

    /// The write as one line of surface text: the record the operation
    /// log appends and segment files hold, which [`crate::parse`] and
    /// [`Command::to_write`] read back to this same write.
    ///
    /// # Errors
    ///
    /// Whatever would not read back — so the caller can refuse the write
    /// *before* applying it: a name that is not a symbol (empty, other
    /// characters, reads as a number), a non-finite float, a row value
    /// named `_`, nesting past [`MAX_NESTING`], a dead rule id.
    pub fn record(&self, kb: &Kb) -> Result<String> {
        let s = &kb.schema().symbols;
        // Most records fit: one allocation instead of a doubling series.
        let mut w = Writer::new(String::with_capacity(128));
        let written = match self {
            Write::DefineRole(name) => form(&mut w, s, "define-role", name, None),
            Write::DefineAttribute(name) => form(&mut w, s, "define-attribute", name, None),
            Write::DefineConcept(name, told) => form(&mut w, s, "define-concept", name, Some(told)),
            Write::CreateInd(name) => form(&mut w, s, "create-ind", name, None),
            Write::AssertInd(name, desc) => form(&mut w, s, "assert-ind", name, Some(desc)),
            Write::AssertRule(name, c) => form(&mut w, s, "assert-rule", name, Some(c)),
            Write::RetractInd(name, desc) => form(&mut w, s, "retract-ind", name, Some(desc)),
            Write::RetractRule(name, c) => form(&mut w, s, "retract-rule", name, Some(c)),
            Write::RetractRuleById(ix) => {
                let rule = kb.live_rule(*ix)?;
                let antecedent = s.concept_name(rule.antecedent);
                form(
                    &mut w,
                    s,
                    "retract-rule",
                    antecedent,
                    Some(&rule.consequent),
                )
            }
            Write::BulkLoad { into, roles, rows } => (|| {
                w.open("bulk-load")?;
                if let Some(c) = into {
                    w.open("into")?;
                    c.write(s, &mut w)?;
                    w.close()?;
                }
                w.open("roles")?;
                for &r in roles {
                    w.symbol(s.role_name(r))?;
                }
                w.close()?;
                for (name, cells) in rows {
                    w.open("row")?;
                    w.symbol(name)?;
                    for cell in cells {
                        match cell {
                            None => w.symbol("_")?,
                            Some(ind) => ind.write(s, &mut w)?,
                        }
                        if matches!(cell, Some(IndRef::Classic(n)) if s.individual_name(*n) == "_")
                        {
                            w.refuse(|| "a row value named _ reads back as a missing cell".into());
                        }
                    }
                    w.close()?;
                }
                w.close()
            })(),
        };
        written.expect("writing to a String cannot fail");
        let unreadable = |what| ClassicError::Malformed(format!("cannot be recorded: {what}"));
        let (line, deepest) = w.finish().map_err(unreadable)?;
        if deepest > MAX_NESTING {
            return Err(ClassicError::Malformed(TOO_DEEP.to_owned()));
        }
        Ok(line)
    }
}

/// `(head name [desc])`.
fn form(
    w: &mut Writer<String>,
    symbols: &SymbolTable,
    head: &'static str,
    name: &str,
    desc: Option<&Concept>,
) -> fmt::Result {
    w.open(head)?;
    w.symbol(name)?;
    if let Some(c) = desc {
        c.write(symbols, w)?;
    }
    w.close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, QueryExpr};
    use classic_core::aspect::AspectKind;

    /// The variant after `cmd`'s, in declaration order. The match is
    /// exhaustive, so a new `Command` variant does not compile until it
    /// is threaded in here — and so cannot dodge the test below.
    fn next(cmd: &Command) -> Option<Command> {
        let e = || Expr::Name("THING".into());
        let q = || QueryExpr::subject(e());
        let n = || String::from("N");
        let spec = BulkSpec {
            into: None,
            roles: Vec::new(),
            rows: Vec::new(),
        };
        Some(match cmd {
            Command::DefineRole(_) => Command::DefineAttribute(n()),
            Command::DefineAttribute(_) => Command::DefineConcept(n(), e()),
            Command::DefineConcept(..) => Command::CreateInd(n()),
            Command::CreateInd(_) => Command::AssertInd(n(), e()),
            Command::AssertInd(..) => Command::AssertRule(n(), e()),
            Command::AssertRule(..) => Command::RetractInd(n(), e()),
            Command::RetractInd(..) => Command::RetractRule(n(), e()),
            Command::RetractRule(..) => Command::RetractRuleById(0),
            Command::RetractRuleById(_) => Command::ListRules,
            Command::ListRules => Command::ObsStats { json: false },
            Command::ObsStats { .. } => Command::ObsTrace(n()),
            Command::ObsTrace(_) => Command::ObsReset,
            Command::ObsReset => Command::ObsLevel(None),
            Command::ObsLevel(_) => Command::ObsSample(None),
            Command::ObsSample(_) => Command::ObsSlowlog(None),
            Command::ObsSlowlog(_) => Command::Provenance(n()),
            Command::Provenance(_) => Command::Retrieve(q()),
            Command::Retrieve(_) => Command::Possible(e()),
            Command::Possible(_) => Command::AskNecessarySet(q()),
            Command::AskNecessarySet(_) => Command::AskDescription(q()),
            Command::AskDescription(_) => Command::Subsumes(e(), e()),
            Command::Subsumes(..) => Command::Equivalent(e(), e()),
            Command::Equivalent(..) => Command::Disjoint(e(), e()),
            Command::Disjoint(..) => Command::ConceptAspect(n(), AspectKind::All, None),
            Command::ConceptAspect(..) => Command::IndAspect(n(), AspectKind::All, None),
            Command::IndAspect(..) => Command::Describe(n()),
            Command::Describe(_) => Command::Parents(n()),
            Command::Parents(_) => Command::Children(n()),
            Command::Children(_) => Command::Classify(e()),
            Command::Classify(_) => Command::Why(n(), n()),
            Command::Why(..) => Command::WhatIf(n(), e()),
            Command::WhatIf(..) => Command::BulkLoad(spec),
            Command::BulkLoad(_) => Command::LintKb { cone: false },
            Command::LintKb { .. } => return None,
        })
    }

    #[test]
    fn is_mutation_holds_exactly_when_to_write_yields_a_write() {
        let mut schema = Schema::new();
        let mut cmd = Some(Command::DefineRole("N".into()));
        let (mut seen, mut writes) = (0, 0);
        while let Some(c) = cmd {
            let write = c.to_write(&mut schema).unwrap();
            assert_eq!(c.is_mutation(), write.is_some(), "{c:?}");
            seen += 1;
            writes += usize::from(write.is_some());
            cmd = next(&c);
        }
        assert_eq!((seen, writes), (34, 10));
    }

    #[test]
    fn only_assert_ind_is_confined_to_one_individual() {
        let c = || Cow::Owned(Concept::thing());
        assert_eq!(Write::CreateInd("x").touches(), Touches::Nothing);
        assert_eq!(Write::DefineConcept("C", c()).touches(), Touches::Nothing);
        assert_eq!(
            Write::AssertInd("x", c()).touches(),
            Touches::Individual("x")
        );
        assert_eq!(Write::RetractInd("x", c()).touches(), Touches::Everything);
        assert_eq!(Write::RetractRuleById(0).touches(), Touches::Everything);
    }
}
