//! # classic-analyze
//!
//! A diagnostic pass over a CLASSIC schema/KB, in two tiers:
//!
//! **TBox/rule tier** (codes A001–A008) — run *before* data arrives.
//! CLASSIC's §5 tractability argument rests on every description having a
//! coherent normal form, yet an unsatisfiable concept (`AT-LEAST 3 r` ∧
//! `AT-MOST 2 r`, an empty `ONE-OF` intersection, disjoint primitives
//! conjoined, a `SAME-AS` forcing conflicting fillers) classifies below
//! everything and only surfaces later as confusing propagation errors at
//! assert time. This tier finds those statically: incoherent definitions
//! (with an explain-style derivation of *which conjunct*), definition
//! cycles, dead/shadowed/entailed/retired-twin rules, and redundant
//! conjuncts.
//!
//! **ABox tier** (codes A009–A014) — run over the individuals. A
//! committed ABox is coherent by construction, so this tier surfaces what
//! structural reasoning *admits* but authors should know about:
//! obligations running out of `ONE-OF` candidates, roles one filler from
//! their `AT-MOST` bound, `SAME-AS`/`ONE-OF` combinations where the
//! paper's structural subsumption is known-incomplete, rules inert on the
//! current ABox, orphan individuals, and epistemic `CLOSE`s resting on
//! derived fillers.
//!
//! Analysis is **incremental**: [`AnalysisState`] keeps per-entity
//! diagnostic caches and re-lints only what changed since its last
//! refresh, found by comparing the two KB versions
//! ([`classic_kb::Kb::changed_since`]); [`analyze`] is the same machine
//! primed from empty, which is what keeps the two in exact agreement.
//!
//! Diagnostics are structured ([`Diagnostic`]) and surfaced four ways:
//! [`KbAnalyze::analyze`] for embedders, the `lint-kb` surface-language
//! command in `classic-lang`, the `classic-analyze` CLI binary (text or
//! `--json` lines) with `--deny warnings`-style exit codes for CI, and
//! `classic-server`'s per-tenant `(lint-kb)` / `GET /lint` /
//! lint-on-write surfaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abox;
mod checks;
mod incremental;

pub use incremental::{AnalysisState, Refresh};

use classic_kb::Kb;
use classic_obs::json_string;
use std::fmt;

/// How serious a diagnostic is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; nothing is wrong.
    Info,
    /// Almost certainly not what the schema author meant, but the KB
    /// remains sound.
    Warning,
    /// The schema is broken: some definition can never be satisfied.
    Error,
}

impl Severity {
    /// The canonical lowercase name — the single source of truth for how
    /// severities are spelled across the CLI, REPL, and wire surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parse a `--deny` threshold as the CLI spells it (`warnings`,
    /// `errors`; singular accepted). The inverse of [`Severity::as_str`]
    /// up to pluralization.
    pub fn parse_deny(s: &str) -> Option<Severity> {
        match s {
            "warnings" | "warning" => Some(Severity::Warning),
            "errors" | "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes (see DESIGN.md §4.10 and §4.15 for the full
/// tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `A001`: a defined concept's normal form is ⊥.
    IncoherentConcept,
    /// `A002`: definitions are cyclic (recursive definitions, forbidden).
    DefinitionCycle,
    /// `A003`: a told `ALL` body is ⊥ — the restriction silently collapses
    /// to `AT-MOST 0` instead of restricting anything.
    VacuousRestriction,
    /// `A004`: a rule whose antecedent is incoherent can never fire.
    DeadRule,
    /// `A005`: a rule is shadowed by another live rule that fires at least
    /// as often and concludes at least as much.
    ShadowedRule,
    /// `A006`: a rule's consequent is already entailed by its antecedent.
    EntailedConsequent,
    /// `A007`: a live rule duplicates a *retired* rule (same coverage as a
    /// rule that was previously retracted).
    RetiredTwin,
    /// `A008`: a told conjunct is absorbed by its siblings.
    RedundantConjunct,
    /// `A009`: an individual's `AT-LEAST` obligation on a `ONE-OF`
    /// restricted role has too few viable candidates left.
    UnsatisfiableObligation,
    /// `A010`: a still-open role is one filler from its `AT-MOST` bound
    /// (the next `FILLS` closes it).
    NearBound,
    /// `A011`: `SAME-AS` meets `ONE-OF` — structural subsumption is
    /// known-incomplete for the combination.
    IncompleteReasoning,
    /// `A012`: a live, satisfiable rule no current individual is
    /// compatible with — inert on this ABox.
    InertRule,
    /// `A013`: an individual with told assertions recognized only under
    /// THING.
    OrphanIndividual,
    /// `A014`: a told `CLOSE` whose closure rests on derived (retractable)
    /// fillers.
    StaleClose,
}

impl Code {
    /// The stable `A0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::IncoherentConcept => "A001",
            Code::DefinitionCycle => "A002",
            Code::VacuousRestriction => "A003",
            Code::DeadRule => "A004",
            Code::ShadowedRule => "A005",
            Code::EntailedConsequent => "A006",
            Code::RetiredTwin => "A007",
            Code::RedundantConjunct => "A008",
            Code::UnsatisfiableObligation => "A009",
            Code::NearBound => "A010",
            Code::IncompleteReasoning => "A011",
            Code::InertRule => "A012",
            Code::OrphanIndividual => "A013",
            Code::StaleClose => "A014",
        }
    }

    /// A short human slug, e.g. `incoherent-concept`.
    pub fn slug(self) -> &'static str {
        match self {
            Code::IncoherentConcept => "incoherent-concept",
            Code::DefinitionCycle => "definition-cycle",
            Code::VacuousRestriction => "vacuous-restriction",
            Code::DeadRule => "dead-rule",
            Code::ShadowedRule => "shadowed-rule",
            Code::EntailedConsequent => "entailed-consequent",
            Code::RetiredTwin => "retired-twin",
            Code::RedundantConjunct => "redundant-conjunct",
            Code::UnsatisfiableObligation => "unsatisfiable-obligation",
            Code::NearBound => "near-bound",
            Code::IncompleteReasoning => "incomplete-reasoning",
            Code::InertRule => "inert-rule",
            Code::OrphanIndividual => "orphan-individual",
            Code::StaleClose => "stale-close",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::IncoherentConcept | Code::DefinitionCycle => Severity::Error,
            Code::VacuousRestriction
            | Code::DeadRule
            | Code::ShadowedRule
            | Code::EntailedConsequent
            | Code::RedundantConjunct
            | Code::UnsatisfiableObligation
            | Code::IncompleteReasoning
            | Code::InertRule
            | Code::StaleClose => Severity::Warning,
            Code::RetiredTwin | Code::NearBound | Code::OrphanIndividual => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Where in the schema/KB a diagnostic points. There is no source text at
/// this layer — definitions arrive through an API — so spans name schema
/// objects; the surface language prepends script positions when it has
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// A defined concept, by name.
    Concept(String),
    /// A rule, by index and antecedent name.
    Rule {
        /// The rule's index in [`Kb::rules`].
        index: usize,
        /// The antecedent concept's name.
        antecedent: String,
    },
    /// An individual, by name.
    Individual(String),
    /// The schema as a whole.
    Schema,
}

impl Span {
    /// Render the span as a JSON object (strict-parser compatible).
    pub fn render_json(&self) -> String {
        match self {
            Span::Concept(name) => {
                format!("{{\"kind\":\"concept\",\"name\":{}}}", json_string(name))
            }
            Span::Rule { index, antecedent } => format!(
                "{{\"kind\":\"rule\",\"index\":{index},\"antecedent\":{}}}",
                json_string(antecedent)
            ),
            Span::Individual(name) => {
                format!("{{\"kind\":\"individual\",\"name\":{}}}", json_string(name))
            }
            Span::Schema => "{\"kind\":\"schema\"}".to_owned(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Concept(name) => write!(f, "concept {name}"),
            Span::Rule { index, antecedent } => {
                write!(f, "rule #{index} (on {antecedent})")
            }
            Span::Individual(name) => write!(f, "individual {name}"),
            Span::Schema => write!(f, "schema"),
        }
    }
}

/// One structured finding from the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`A001`…), grouping findings of the same kind.
    pub code: Code,
    /// Severity, always `code.severity()`.
    pub severity: Severity,
    /// The schema object the finding points at.
    pub span: Span,
    /// One-line human description.
    pub message: String,
    /// Explain-style derivation of *why* — e.g. which conjunct of a
    /// definition produced the clash, or which sibling rule shadows.
    pub provenance: Vec<String>,
}

impl Diagnostic {
    pub(crate) fn new(code: Code, span: Span, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message,
            provenance: Vec::new(),
        }
    }

    pub(crate) fn with_provenance(mut self, provenance: Vec<String>) -> Diagnostic {
        self.provenance = provenance;
        self
    }

    /// Render the diagnostic as one JSON object (the CLI's `--json` line
    /// format; parseable by `classic-server`'s strict JSON parser).
    pub fn render_json(&self) -> String {
        let prov: Vec<String> = self.provenance.iter().map(|p| json_string(p)).collect();
        format!(
            "{{\"code\":{},\"slug\":{},\"severity\":{},\"span\":{},\"message\":{},\"provenance\":[{}]}}",
            json_string(self.code.as_str()),
            json_string(self.code.slug()),
            json_string(self.severity.as_str()),
            self.span.render_json(),
            json_string(&self.message),
            prov.join(",")
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        for line in &self.provenance {
            write!(f, "\n  = {line}")?;
        }
        Ok(())
    }
}

/// The canonical report order: severity descending, then code ascending;
/// the sort is stable, so diagnostics of one code keep entity order.
pub(crate) fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.as_str().cmp(b.code.as_str()))
    });
}

/// The result of one analysis pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Findings, ordered by severity then code.
    pub diagnostics: Vec<Diagnostic>,
    /// How many defined concepts were checked.
    pub concepts_checked: usize,
    /// How many rules (live and retired) were checked.
    pub rules_checked: usize,
    /// How many individuals were checked by the ABox tier.
    pub inds_checked: usize,
}

impl Report {
    /// Number of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Does the report pass under a deny threshold? `deny = Error` fails
    /// only on errors; `deny = Warning` fails on warnings too (the CLI's
    /// `--deny warnings`). Purely severity-based: an ABox warning (A009+)
    /// fails `--deny warnings` exactly like a TBox warning.
    pub fn passes(&self, deny: Severity) -> bool {
        self.worst().is_none_or(|w| w < deny)
    }

    /// Render the full report, one diagnostic per paragraph, with a
    /// closing summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s); {} concept(s), {} rule(s), {} individual(s) checked",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.concepts_checked,
            self.rules_checked,
            self.inds_checked,
        ));
        out
    }

    /// Render the report as machine-readable JSON lines: one diagnostic
    /// object per line (no summary line). Every line parses under the
    /// server's strict JSON parser.
    pub fn render_json_lines(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_json());
            out.push('\n');
        }
        out
    }
}

/// Run the full analysis pass over a knowledge base — both tiers, from
/// scratch. This is [`AnalysisState`] primed from empty, so the result is
/// definitionally what incremental maintenance converges to.
pub fn analyze(kb: &Kb) -> Report {
    let mut state = AnalysisState::new();
    state.refresh(kb);
    state.report(kb)
}

/// Extension trait giving embedders `kb.analyze()`.
pub trait KbAnalyze {
    /// Run the full analysis pass ([`analyze`]).
    fn analyze(&self) -> Report;
}

impl KbAnalyze for Kb {
    fn analyze(&self) -> Report {
        analyze(self)
    }
}
