//! What evaluating a command yields: data first, rendering second.
//!
//! [`Outcome`] has two renderers shared by the REPL and the wire protocol
//! — [`Outcome::render_text`] and [`Outcome::render_json`] — both total
//! over every variant, so the two surfaces can never drift.

use classic_kb::{AssertReport, BulkReport, RetractReport};
use classic_obs::json_string;

/// One structured static-analysis finding, mirroring
/// [`classic_analyze::Diagnostic`] as plain serializable data (the span is
/// pre-rendered to a subject string; code and severity stay structured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Stable code, `A001`…`A008`.
    pub code: String,
    /// Severity of the finding.
    pub severity: classic_analyze::Severity,
    /// The schema object the finding points at (`concept BAD`,
    /// `rule #2 (on STUDENT)`, `schema`).
    pub subject: String,
    /// One-line human description.
    pub message: String,
    /// Explain-style derivation of *why*.
    pub provenance: Vec<String>,
}

/// A static-analysis report as data (`lint-kb`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Findings, ordered by severity then code.
    pub diagnostics: Vec<LintDiagnostic>,
    /// How many defined concepts were checked.
    pub concepts_checked: usize,
    /// How many rules were checked.
    pub rules_checked: usize,
    /// How many individuals were checked (for a cone report: re-linted).
    pub inds_checked: usize,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(classic_analyze::Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(classic_analyze::Severity::Warning)
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: classic_analyze::Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// The cone form: just the diagnostics one incremental refresh
    /// re-derived, with `inds_checked` reporting how many individuals
    /// were actually re-linted (concept/rule totals are not re-counted).
    pub fn from_refresh(refresh: &classic_analyze::Refresh) -> LintReport {
        LintReport {
            diagnostics: refresh.cone.iter().map(LintDiagnostic::from).collect(),
            concepts_checked: 0,
            rules_checked: 0,
            inds_checked: refresh.relinted,
        }
    }
}

impl From<&classic_analyze::Diagnostic> for LintDiagnostic {
    fn from(d: &classic_analyze::Diagnostic) -> LintDiagnostic {
        LintDiagnostic {
            code: d.code.as_str().to_owned(),
            severity: d.severity,
            subject: d.span.to_string(),
            message: d.message.clone(),
            provenance: d.provenance.clone(),
        }
    }
}

impl From<&classic_analyze::Report> for LintReport {
    fn from(report: &classic_analyze::Report) -> LintReport {
        LintReport {
            diagnostics: report
                .diagnostics
                .iter()
                .map(LintDiagnostic::from)
                .collect(),
            concepts_checked: report.concepts_checked,
            rules_checked: report.rules_checked,
            inds_checked: report.inds_checked,
        }
    }
}

/// A structured aspect answer (`concept-aspect` / `ind-aspect`),
/// mirroring [`classic_core::aspect::Aspect`] with individuals rendered
/// to names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AspectValue {
    /// The aspect is absent.
    None,
    /// A numeric bound (`AT-LEAST`/`AT-MOST`).
    Bound(u32),
    /// Whether the role is closed.
    Closed(bool),
    /// An enumeration or filler set, by name/host value.
    Values(Vec<String>),
    /// A value restriction, rendered in the surface syntax.
    Restriction(String),
}

/// The result of evaluating one command: data first, rendering second.
/// [`Outcome::render_text`] is the human form (REPL, CLI);
/// [`Outcome::render_json`] is the wire form (`classic-server`). Both are
/// total over every variant, so the two surfaces can never drift.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Nothing to report (DDL, create).
    Ok,
    /// An accepted rule, with the id `retract-rule` takes back.
    RuleAsserted(usize),
    /// An accepted assertion, with its propagation report.
    Asserted(AssertReport),
    /// An accepted retraction, with its re-derivation report.
    Retracted(RetractReport),
    /// A list of individual names / host values.
    Individuals(Vec<String>),
    /// A yes/no answer.
    Bool(bool),
    /// A description rendered in the surface syntax.
    Description(String),
    /// A list of concept names.
    Concepts(Vec<String>),
    /// A structured aspect value.
    Aspect(AspectValue),
    /// A static-analysis report (`lint-kb`).
    Lint(LintReport),
    /// A completed `bulk-load`, with its per-row accounting.
    BulkLoaded(BulkReport),
}

impl Outcome {
    /// Render for a human: the REPL/CLI form. Multi-valued outcomes
    /// render one item per line; engine reports render as `; `-prefixed
    /// summaries matching the historical REPL output.
    pub fn render_text(&self) -> String {
        match self {
            Outcome::Ok => "; ok".to_owned(),
            Outcome::RuleAsserted(ix) => {
                format!("; rule #{ix} asserted (retract with (retract-rule {ix}))")
            }
            Outcome::Asserted(r) => format!(
                "; accepted (steps={} fills={} corefs={} rules={} reclassified={})",
                r.steps, r.fills_propagated, r.corefs_derived, r.rules_fired, r.reclassified
            ),
            Outcome::Retracted(r) => format!(
                "; retracted (reset={} requeued={} steps={} reclassified={})",
                r.reset, r.requeued, r.steps, r.reclassified
            ),
            Outcome::Individuals(names) => {
                if names.is_empty() {
                    "; no known answers".to_owned()
                } else {
                    names.join("\n")
                }
            }
            Outcome::Bool(b) => b.to_string(),
            Outcome::Description(d) => d.clone(),
            Outcome::Concepts(names) => names.join("\n"),
            Outcome::Aspect(a) => match a {
                AspectValue::None => "none".to_owned(),
                AspectValue::Bound(n) => n.to_string(),
                AspectValue::Closed(b) => b.to_string(),
                AspectValue::Values(v) => format!("({})", v.join(" ")),
                AspectValue::Restriction(c) => c.clone(),
            },
            Outcome::Lint(report) => {
                let mut out = String::new();
                for d in &report.diagnostics {
                    out.push_str(&format!(
                        "{} {}: {}: {}\n",
                        d.code,
                        d.severity.as_str(),
                        d.subject,
                        d.message
                    ));
                    for p in &d.provenance {
                        out.push_str(&format!("    {p}\n"));
                    }
                }
                out.push_str(&format!(
                    "{} error(s), {} warning(s); {} concept(s), {} rule(s), {} individual(s) checked",
                    report.errors(),
                    report.warnings(),
                    report.concepts_checked,
                    report.rules_checked,
                    report.inds_checked,
                ));
                out
            }
            Outcome::BulkLoaded(r) => {
                let mut out = format!(
                    "; bulk-loaded (rows={} accepted={} rejected={} created={} chunks={} fallbacks={})",
                    r.rows, r.accepted, r.rejected, r.inds_created, r.chunks, r.sequential_fallbacks
                );
                for rej in &r.rejections {
                    out.push_str(&format!(
                        "\n;   row {} ({}): {}",
                        rej.row, rej.name, rej.error
                    ));
                }
                out
            }
        }
    }

    /// Render as a single-line JSON object: `{"type": …, …}`. This is the
    /// wire form the server sends; the REPL's `render_text` reads the
    /// same data, so protocol and shell can never disagree about what an
    /// outcome *is*.
    pub fn render_json(&self) -> String {
        match self {
            Outcome::Ok => r#"{"type":"ok"}"#.to_owned(),
            Outcome::RuleAsserted(ix) => {
                format!(r#"{{"type":"rule-asserted","id":{ix}}}"#)
            }
            Outcome::Asserted(r) => format!(
                concat!(
                    r#"{{"type":"asserted","steps":{},"fills":{},"corefs":{},"#,
                    r#""rules":{},"reclassified":{},"created":{}}}"#
                ),
                r.steps,
                r.fills_propagated,
                r.corefs_derived,
                r.rules_fired,
                r.reclassified,
                r.inds_created
            ),
            Outcome::Retracted(r) => format!(
                r#"{{"type":"retracted","reset":{},"requeued":{},"steps":{},"reclassified":{}}}"#,
                r.reset, r.requeued, r.steps, r.reclassified
            ),
            Outcome::Individuals(names) => {
                format!(r#"{{"type":"individuals","names":{}}}"#, json_array(names))
            }
            Outcome::Bool(b) => format!(r#"{{"type":"bool","value":{b}}}"#),
            Outcome::Description(d) => {
                format!(r#"{{"type":"description","text":{}}}"#, json_string(d))
            }
            Outcome::Concepts(names) => {
                format!(r#"{{"type":"concepts","names":{}}}"#, json_array(names))
            }
            Outcome::Aspect(a) => {
                let value = match a {
                    AspectValue::None => r#"{"kind":"none"}"#.to_owned(),
                    AspectValue::Bound(n) => format!(r#"{{"kind":"bound","n":{n}}}"#),
                    AspectValue::Closed(b) => {
                        format!(r#"{{"kind":"closed","value":{b}}}"#)
                    }
                    AspectValue::Values(v) => {
                        format!(r#"{{"kind":"values","values":{}}}"#, json_array(v))
                    }
                    AspectValue::Restriction(c) => {
                        format!(r#"{{"kind":"restriction","concept":{}}}"#, json_string(c))
                    }
                };
                format!(r#"{{"type":"aspect","value":{value}}}"#)
            }
            Outcome::Lint(report) => {
                let diags: Vec<String> = report
                    .diagnostics
                    .iter()
                    .map(|d| {
                        format!(
                            concat!(
                                r#"{{"code":{},"severity":{},"subject":{},"#,
                                r#""message":{},"provenance":{}}}"#
                            ),
                            json_string(&d.code),
                            json_string(d.severity.as_str()),
                            json_string(&d.subject),
                            json_string(&d.message),
                            json_array(&d.provenance),
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        r#"{{"type":"lint","errors":{},"warnings":{},"concepts_checked":{},"#,
                        r#""rules_checked":{},"inds_checked":{},"diagnostics":[{}]}}"#
                    ),
                    report.errors(),
                    report.warnings(),
                    report.concepts_checked,
                    report.rules_checked,
                    report.inds_checked,
                    diags.join(",")
                )
            }
            Outcome::BulkLoaded(r) => {
                let rejections: Vec<String> = r
                    .rejections
                    .iter()
                    .map(|rej| {
                        format!(
                            r#"{{"row":{},"name":{},"error":{}}}"#,
                            rej.row,
                            json_string(&rej.name),
                            json_string(&rej.error)
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        r#"{{"type":"bulk-loaded","rows":{},"accepted":{},"rejected":{},"#,
                        r#""created":{},"steps":{},"rules":{},"reclassified":{},"chunks":{},"#,
                        r#""fallbacks":{},"rejections":[{}]}}"#
                    ),
                    r.rows,
                    r.accepted,
                    r.rejected,
                    r.inds_created,
                    r.steps,
                    r.rules_fired,
                    r.reclassified,
                    r.chunks,
                    r.sequential_fallbacks,
                    rejections.join(",")
                )
            }
        }
    }
}

fn json_array(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", parts.join(","))
}
