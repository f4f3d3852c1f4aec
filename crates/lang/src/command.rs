//! The operator language's commands, as data.
//!
//! This is the "simple and uniform interface" of paper §6: "through the
//! use of multiple operators, a single language is used to specify the
//! schema (including integrity constraints), the information added to the
//! database, and the queries to it". Commands are written as
//! s-expressions, e.g.:
//!
//! ```text
//! (define-role thing-driven)
//! (define-concept RICH-KID (AND STUDENT (ALL thing-driven SPORTS-CAR)
//!                                (AT-LEAST 2 thing-driven)))
//! (create-ind Rocky)
//! (assert-ind Rocky (FILLS thing-driven Volvo-17))
//! (assert-rule STUDENT (ALL eat JUNK-FOOD))
//! (retrieve (AND STUDENT (AT-LEAST 2 thing-driven)))
//! (ask-description (AND STUDENT (ALL eat ?:THING)))
//! (subsumes? PERSON STUDENT)
//! ```
//!
//! The same command stream doubles as the persistence format
//! (`classic-store`) and the wire protocol (`classic-server`), honoring
//! the paper's point that one language plays every role — which is why a
//! [`Command`] is plain data between three independent steps: the reader
//! ([`crate::parse`], pure — names stay symbols, no KB in scope, so a
//! server can parse a request before choosing a tenant), evaluation
//! ([`crate::eval`], which resolves names against one KB — a command
//! that writes into a [`crate::Write`], the form it is applied and
//! recorded in), and rendering ([`crate::Outcome`]).

use crate::ast::{Expr, IndLit, QueryExpr};
use classic_core::aspect::AspectKind;

/// A parsed top-level command over the unresolved AST: every concept or
/// query payload is an [`Expr`]/[`QueryExpr`] whose names are still
/// strings. Resolution against a concrete KB happens at [`crate::eval`] time.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `(define-role name)` (§3.1).
    DefineRole(String),
    /// `(define-attribute name)`: a single-valued role.
    DefineAttribute(String),
    /// `(define-concept NAME expr)` (§3.1).
    DefineConcept(String, Expr),
    /// `(create-ind Name)` (§3.2).
    CreateInd(String),
    /// `(assert-ind Name expr)` (§3.2).
    AssertInd(String, Expr),
    /// `(assert-rule NAME expr)` (§3.3).
    AssertRule(String, Expr),
    /// `(retract-ind Name expr)`: remove a told description and re-derive
    /// everything that depended on it.
    RetractInd(String, Expr),
    /// `(retract-rule NAME expr)`: retire a rule and re-derive the
    /// individuals it fired on.
    RetractRule(String, Expr),
    /// `(retract-rule 7)`: retire a rule by the id echoed when it was
    /// asserted (`list-rules` shows the live ids).
    RetractRuleById(usize),
    /// `(list-rules)`: every live rule with its id, antecedent, and
    /// consequent.
    ListRules,
    /// `(obs-stats)` / `(obs-stats json)`: dump this KB's metric
    /// registry in Prometheus text or JSON exposition format.
    ObsStats {
        /// Render JSON instead of Prometheus text.
        json: bool,
    },
    /// `(obs-trace op)`: render the process-wide flight recorder's
    /// retained traces whose root span matches `op` (e.g. `kb.assert`,
    /// `query.retrieve`), whatever knowledge base or tenant recorded
    /// them, as `(obs-slowlog)` does; `(obs-trace *)` lists the retained
    /// ops.
    ObsTrace(String),
    /// `(obs-reset)`: zero this KB's counters and histograms; its
    /// gauges are levels and keep their values. Retained traces are
    /// process-wide and stay: one tenant cannot clear another's.
    ObsReset,
    /// `(obs-level off|counters|full)`: set the process-wide
    /// observability level (`full` enables span tracing for
    /// `obs-trace`); `(obs-level)` reports the current one.
    ObsLevel(Option<String>),
    /// `(obs-sample rate)`: set the process-wide head-sampling rate for
    /// request tracing (`0.0`–`1.0`; a request that loses the draw
    /// records no spans but is still timed and slowlog-eligible);
    /// `(obs-sample)` reports the current rate.
    ObsSample(Option<f64>),
    /// `(obs-slowlog [n])`: render the up-to-`n` (default 10) slowest
    /// wire requests from the process-global slow-op log, with request
    /// identity and span trees.
    ObsSlowlog(Option<usize>),
    /// `(provenance Name)`: where the individual's derived information
    /// came from (the dependency journal, rendered).
    Provenance(String),
    /// `(retrieve q)` / `(instances q)`: known answers.
    Retrieve(QueryExpr),
    /// `(possible q)`: open-world possible answers.
    Possible(Expr),
    /// `(ask-necessary-set q)`: fillers at the marker across answers.
    AskNecessarySet(QueryExpr),
    /// `(ask-description q)`: intensional answer.
    AskDescription(QueryExpr),
    /// `(subsumes? C1 C2)`.
    Subsumes(Expr, Expr),
    /// `(equivalent? C1 C2)`.
    Equivalent(Expr, Expr),
    /// `(disjoint? C1 C2)`.
    Disjoint(Expr, Expr),
    /// `(concept-aspect NAME KIND [role])`.
    ConceptAspect(String, AspectKind, Option<String>),
    /// `(ind-aspect Name KIND [role])`.
    IndAspect(String, AspectKind, Option<String>),
    /// `(describe Name)`: descriptive answer for one individual.
    Describe(String),
    /// `(parents NAME)`: immediate subsumers in the taxonomy.
    Parents(String),
    /// `(children NAME)`: immediate subsumees in the taxonomy.
    Children(String),
    /// `(classify expr)`: immediate named parents/children/equivalents of
    /// an arbitrary concept expression (§3.5.1).
    Classify(Expr),
    /// `(why? Ind NAME)`: explain why the individual is or is not
    /// recognized under the named concept (the explanation extension).
    Why(String, String),
    /// `(what-if? Ind expr)`: hypothetical assertion — report whether the
    /// update would be accepted and what it would derive, then roll it
    /// back unconditionally.
    WhatIf(String, Expr),
    /// `(bulk-load [(into expr)] (roles r…) (row Name v…)…)`: batched
    /// assertion of tabular rows through the deferred-fixpoint bulk
    /// path ([`classic_kb::Kb::bulk_assert`]). Each row asserts
    /// `(AND into (FILLS r1 v1) … (FILLS rk vk))` about its target,
    /// with `_` marking a missing cell. Infallible per row: the
    /// outcome reports per-row accept/reject counts.
    BulkLoad(BulkSpec),
    /// `(lint-kb)` / `(lint-kb cone)`: run the static analyzer
    /// (`classic-analyze`) over the schema, rule base, and ABox.
    /// `cone` asks for only the diagnostics re-derived since the last
    /// lint (the dirty cone); against a stateless evaluator the first
    /// cone is the full report.
    LintKb {
        /// Report only the dirty-cone diagnostics instead of the full set.
        cone: bool,
    },
}

impl Command {
    /// Whether evaluating this command can change the knowledge base:
    /// [`Command::to_write`] yields a [`crate::Write`] exactly when this
    /// holds (a test pins the two together), and this is the predicate
    /// for callers with no schema at hand. The server routes mutating
    /// commands through the durable write path and everything else
    /// against a pinned read snapshot. (`what-if?` mutates transiently
    /// but always rolls back, so it counts as read-only;
    /// `obs-reset`/`obs-level` touch only observability state.)
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
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
        )
    }

    /// The command's surface-language operator name — the request-kind
    /// attribute the server stamps on traces and slowlog entries.
    pub fn kind(&self) -> &'static str {
        match self {
            Command::DefineRole(_) => "define-role",
            Command::DefineAttribute(_) => "define-attribute",
            Command::DefineConcept(..) => "define-concept",
            Command::CreateInd(_) => "create-ind",
            Command::AssertInd(..) => "assert-ind",
            Command::AssertRule(..) => "assert-rule",
            Command::RetractInd(..) => "retract-ind",
            Command::RetractRule(..) | Command::RetractRuleById(_) => "retract-rule",
            Command::ListRules => "list-rules",
            Command::ObsStats { .. } => "obs-stats",
            Command::ObsTrace(_) => "obs-trace",
            Command::ObsReset => "obs-reset",
            Command::ObsLevel(_) => "obs-level",
            Command::ObsSample(_) => "obs-sample",
            Command::ObsSlowlog(_) => "obs-slowlog",
            Command::Provenance(_) => "provenance",
            Command::Retrieve(_) => "retrieve",
            Command::Possible(_) => "possible",
            Command::AskNecessarySet(_) => "ask-necessary-set",
            Command::AskDescription(_) => "ask-description",
            Command::Subsumes(..) => "subsumes?",
            Command::Equivalent(..) => "equivalent?",
            Command::Disjoint(..) => "disjoint?",
            Command::ConceptAspect(..) => "concept-aspect",
            Command::IndAspect(..) => "ind-aspect",
            Command::Describe(_) => "describe",
            Command::Parents(_) => "parents",
            Command::Children(_) => "children",
            Command::Classify(_) => "classify",
            Command::Why(..) => "why?",
            Command::WhatIf(..) => "what-if?",
            Command::BulkLoad(_) => "bulk-load",
            Command::LintKb { .. } => "lint-kb",
        }
    }
}

/// The payload of a `(bulk-load …)` form: an optional concept every row
/// is typed with, a role header, and the rows themselves. Parsed purely
/// (names still strings); resolution happens at [`crate::eval`] time.
///
/// Surface grammar (see `docs/INGEST.md` §"The (bulk-load …) form"):
///
/// ```text
/// (bulk-load
///   (into EXPR)            ; optional — conjoined onto every row
///   (roles r1 … rk)        ; the column header
///   (row Name v1 … vk)     ; one per row; k values each
///   …)
/// ```
///
/// Values are individual literals — a bare symbol is a CLASSIC
/// individual reference, `42`/`1.5`/`"s"`/`'sym` are host values — and
/// the reserved symbol `_` marks a missing cell (no `FILLS` emitted).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkSpec {
    /// Concept expression conjoined onto every row's description.
    pub into: Option<Expr>,
    /// Role names, one per value column.
    pub roles: Vec<String>,
    /// The rows, in submission order.
    pub rows: Vec<BulkRowSpec>,
}

/// One `(row Name v1 … vk)` of a [`BulkSpec`]: the target individual
/// and one optional value per role column (`None` = the `_` cell).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkRowSpec {
    /// Target individual name.
    pub name: String,
    /// Cell values, index-aligned with [`BulkSpec::roles`].
    pub values: Vec<Option<IndLit>>,
}
