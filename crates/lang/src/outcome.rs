//! What evaluating a command yields: data first, rendering second.
//!
//! [`Outcome`] has two renderers shared by the REPL and the wire protocol
//! — [`Outcome::render_text`] and [`Outcome::write_json`] (with
//! [`Outcome::render_json`] its wrapper) — both total over every variant,
//! so the two surfaces can never drift. A read's [`Answer`] is written
//! by the same writer, from the KB it was read from.

use std::fmt::Write as _;

use classic_kb::{AssertReport, BulkReport, IndId, Kb, RetractReport};
use classic_obs::write_json_string;

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
    /// outcome *is*. A wrapper around [`Outcome::write_json`].
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the [`Outcome::render_json`] form to `out`, so a server can
    /// write a reply's envelope and its outcome into the one buffer the
    /// socket sends. Reserves the rendered length first, plus a few bytes
    /// for the caller's envelope to close and end its line, so a large
    /// answer is not copied while it grows.
    pub fn write_json(&self, out: &mut String) {
        out.reserve(self.json_len() + TAIL);
        match self {
            Outcome::Ok => out.push_str(r#"{"type":"ok"}"#),
            Outcome::RuleAsserted(ix) => {
                let _ = write!(out, r#"{{"type":"rule-asserted","id":{ix}}}"#);
            }
            Outcome::Asserted(r) => {
                let _ = write!(
                    out,
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
                );
            }
            Outcome::Retracted(r) => {
                let _ = write!(
                    out,
                    r#"{{"type":"retracted","reset":{},"requeued":{},"steps":{},"reclassified":{}}}"#,
                    r.reset, r.requeued, r.steps, r.reclassified
                );
            }
            Outcome::Individuals(names) => {
                write_names(out, "individuals", names.iter().map(String::as_str));
            }
            Outcome::Bool(b) => {
                let _ = write!(out, r#"{{"type":"bool","value":{b}}}"#);
            }
            Outcome::Description(d) => {
                out.push_str(r#"{"type":"description","text":"#);
                write_json_string(out, d);
                out.push('}');
            }
            Outcome::Concepts(names) => {
                write_names(out, "concepts", names.iter().map(String::as_str));
            }
            Outcome::Aspect(a) => {
                out.push_str(r#"{"type":"aspect","value":"#);
                match a {
                    AspectValue::None => out.push_str(r#"{"kind":"none"}"#),
                    AspectValue::Bound(n) => {
                        let _ = write!(out, r#"{{"kind":"bound","n":{n}}}"#);
                    }
                    AspectValue::Closed(b) => {
                        let _ = write!(out, r#"{{"kind":"closed","value":{b}}}"#);
                    }
                    AspectValue::Values(v) => {
                        out.push_str(r#"{"kind":"values","values":"#);
                        write_json_array(out, v.iter().map(String::as_str));
                        out.push('}');
                    }
                    AspectValue::Restriction(c) => {
                        out.push_str(r#"{"kind":"restriction","concept":"#);
                        write_json_string(out, c);
                        out.push('}');
                    }
                }
                out.push('}');
            }
            Outcome::Lint(report) => {
                let _ = write!(
                    out,
                    concat!(
                        r#"{{"type":"lint","errors":{},"warnings":{},"concepts_checked":{},"#,
                        r#""rules_checked":{},"inds_checked":{},"diagnostics":["#
                    ),
                    report.errors(),
                    report.warnings(),
                    report.concepts_checked,
                    report.rules_checked,
                    report.inds_checked,
                );
                for (ix, d) in report.diagnostics.iter().enumerate() {
                    if ix > 0 {
                        out.push(',');
                    }
                    out.push_str(r#"{"code":"#);
                    write_json_string(out, &d.code);
                    out.push_str(r#","severity":"#);
                    write_json_string(out, d.severity.as_str());
                    out.push_str(r#","subject":"#);
                    write_json_string(out, &d.subject);
                    out.push_str(r#","message":"#);
                    write_json_string(out, &d.message);
                    out.push_str(r#","provenance":"#);
                    write_json_array(out, d.provenance.iter().map(String::as_str));
                    out.push('}');
                }
                out.push_str("]}");
            }
            Outcome::BulkLoaded(r) => {
                let _ = write!(
                    out,
                    concat!(
                        r#"{{"type":"bulk-loaded","rows":{},"accepted":{},"rejected":{},"#,
                        r#""created":{},"steps":{},"rules":{},"reclassified":{},"chunks":{},"#,
                        r#""fallbacks":{},"rejections":["#
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
                );
                for (ix, rej) in r.rejections.iter().enumerate() {
                    if ix > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, r#"{{"row":{},"name":"#, rej.row);
                    write_json_string(out, &rej.name);
                    out.push_str(r#","error":"#);
                    write_json_string(out, &rej.error);
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
    }

    /// The length [`Outcome::write_json`] writes when no string in the
    /// outcome needs an escape: exact for the strings, generous for the
    /// fixed text and the numbers around them.
    fn json_len(&self) -> usize {
        let strings = |items: &[String]| strings_len(items.iter().map(String::as_str));
        FIXED
            + match self {
                Outcome::Individuals(v)
                | Outcome::Concepts(v)
                | Outcome::Aspect(AspectValue::Values(v)) => strings(v),
                Outcome::Description(s) | Outcome::Aspect(AspectValue::Restriction(s)) => {
                    s.len() + 2
                }
                Outcome::Lint(report) => report
                    .diagnostics
                    .iter()
                    .map(|d| {
                        FIXED
                            + d.code.len()
                            + d.subject.len()
                            + d.message.len()
                            + strings(&d.provenance)
                    })
                    .sum(),
                Outcome::BulkLoaded(r) => r
                    .rejections
                    .iter()
                    .map(|rej| FIXED + rej.name.len() + rej.error.len())
                    .sum(),
                _ => 0,
            }
    }
}

/// Room [`Outcome::json_len`] allows for an object's fixed text and
/// numbers: the longest, `bulk-loaded`'s, is 138 bytes and one more per
/// digit of its nine counts.
const FIXED: usize = 256;

/// Bytes [`Outcome::write_json`] reserves past the outcome, for the
/// envelope's closing brace and the line's newline.
const TAIL: usize = 8;

/// What [`write_json_array`] writes for `items` when none needs an
/// escape, less the brackets: each string, its quotes and a comma.
fn strings_len<'a>(items: impl Iterator<Item = &'a str>) -> usize {
    items.map(|s| s.len() + 3).sum()
}

/// Append `items` to `out` as a JSON array of strings.
fn write_json_array<'a>(out: &mut String, items: impl IntoIterator<Item = &'a str>) {
    out.push('[');
    for (ix, item) in items.into_iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        write_json_string(out, item);
    }
    out.push(']');
}

/// Append `{"type":ty,"names":[…]}` to `out`.
fn write_names<'a>(out: &mut String, ty: &str, names: impl IntoIterator<Item = &'a str>) {
    out.push_str(r#"{"type":""#);
    out.push_str(ty);
    out.push_str(r#"","names":"#);
    write_json_array(out, names);
    out.push('}');
}

/// A read's answer, as it stands in the KB it was read from. A
/// `retrieve` without a marker and a `possible` hold the individuals'
/// ids and a borrow of that KB, so the names are looked up in its symbol
/// table only when the answer is written; every other read holds its
/// [`Outcome`]. [`Answer::write_json`] writes the bytes
/// [`Outcome::write_json`] writes for the same answer: both go through
/// one string-array writer.
pub struct Answer<'kb>(Held<'kb>);

enum Held<'kb> {
    Individuals(&'kb Kb, Vec<IndId>),
    Outcome(Outcome),
}

impl<'kb> Answer<'kb> {
    /// The individuals `ids`, which `kb` names.
    pub(crate) fn individuals(kb: &'kb Kb, ids: Vec<IndId>) -> Answer<'kb> {
        Answer(Held::Individuals(kb, ids))
    }

    /// Append the answer's JSON form to `out`, reserving it first, plus
    /// a few bytes for the caller's envelope, as [`Outcome::write_json`]
    /// does. Each name is copied once, from the symbol table into `out`.
    pub fn write_json(&self, out: &mut String) {
        match &self.0 {
            Held::Individuals(kb, ids) => {
                let symbols = &kb.schema().symbols;
                let names = ids
                    .iter()
                    .map(|&id| symbols.individual_name(kb.ind(id).name));
                out.reserve(FIXED + strings_len(names.clone()) + TAIL);
                write_names(out, "individuals", names);
            }
            Held::Outcome(outcome) => outcome.write_json(out),
        }
    }

    /// The answer as an [`Outcome`], each name copied into a `String`.
    pub(crate) fn into_outcome(self) -> Outcome {
        match self.0 {
            Held::Individuals(kb, ids) => {
                let symbols = &kb.schema().symbols;
                Outcome::Individuals(
                    ids.into_iter()
                        .map(|id| symbols.individual_name(kb.ind(id).name).to_owned())
                        .collect(),
                )
            }
            Held::Outcome(outcome) => outcome,
        }
    }
}

impl From<Outcome> for Answer<'_> {
    fn from(outcome: Outcome) -> Self {
        Answer(Held::Outcome(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A string holding everything the escaper tells apart: a quote, a
    /// backslash, the short escapes, control characters, DEL, U+2028 and
    /// an astral character.
    const NASTY: &str = "q\"b\\s\nt\tr\r\u{1}\u{1f}\u{7f}é\u{2028}𝄞";

    /// One of every variant, every aspect kind, an empty and a full
    /// list, and strings holding everything the escaper tells apart.
    fn golden_cases() -> Vec<Outcome> {
        use classic_analyze::Severity;
        use classic_kb::{AssertReport, BulkRejection, BulkReport, RetractReport};
        let nasty = NASTY;
        vec![
            Outcome::Ok,
            Outcome::RuleAsserted(7),
            Outcome::Asserted(AssertReport {
                steps: 1,
                fills_propagated: 2,
                corefs_derived: 3,
                rules_fired: 4,
                reclassified: 5,
                inds_created: 6,
            }),
            Outcome::Retracted(RetractReport {
                reset: 1,
                requeued: 2,
                steps: 3,
                reclassified: 4,
            }),
            Outcome::Individuals(Vec::new()),
            Outcome::Individuals(vec!["Rocky".to_owned(), "42".to_owned(), nasty.to_owned()]),
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Description(format!("(AND PERSON (FILLS name \"{nasty}\"))")),
            Outcome::Concepts(Vec::new()),
            Outcome::Concepts(vec!["PERSON".to_owned(), "THING".to_owned()]),
            Outcome::Aspect(AspectValue::None),
            Outcome::Aspect(AspectValue::Bound(3)),
            Outcome::Aspect(AspectValue::Closed(true)),
            Outcome::Aspect(AspectValue::Values(Vec::new())),
            Outcome::Aspect(AspectValue::Values(vec!["a".to_owned(), nasty.to_owned()])),
            Outcome::Aspect(AspectValue::Restriction("(AT-LEAST 1 child)".to_owned())),
            Outcome::Lint(LintReport::default()),
            Outcome::Lint(LintReport {
                diagnostics: vec![
                    LintDiagnostic {
                        code: "A001".to_owned(),
                        severity: Severity::Error,
                        subject: "concept BAD".to_owned(),
                        message: format!("never satisfiable: {nasty}"),
                        provenance: vec!["BAD < A".to_owned(), "A disjoint \"B\"".to_owned()],
                    },
                    LintDiagnostic {
                        code: "A004".to_owned(),
                        severity: Severity::Warning,
                        subject: "rule #2 (on STUDENT)".to_owned(),
                        message: "shadowed".to_owned(),
                        provenance: Vec::new(),
                    },
                    LintDiagnostic {
                        code: "A008".to_owned(),
                        severity: Severity::Info,
                        subject: "schema".to_owned(),
                        message: String::new(),
                        provenance: vec![String::new()],
                    },
                ],
                concepts_checked: 4,
                rules_checked: 2,
                inds_checked: 9,
            }),
            Outcome::BulkLoaded(BulkReport::default()),
            Outcome::BulkLoaded(BulkReport {
                rows: 5,
                accepted: 3,
                rejected: 2,
                inds_created: 8,
                steps: 13,
                fills_propagated: 1,
                corefs_derived: 1,
                rules_fired: 2,
                reclassified: 4,
                chunks: 1,
                sequential_fallbacks: 1,
                row_accepted: vec![true, false, true, true, false],
                rejections: vec![
                    BulkRejection {
                        row: 1,
                        name: "r-1".to_owned(),
                        error: "clash: (AT-MOST 1 loc)".to_owned(),
                    },
                    BulkRejection {
                        row: 4,
                        name: nasty.to_owned(),
                        error: format!("bad value \"{nasty}\""),
                    },
                ],
            }),
        ]
    }

    /// What `render_json` wrote for `golden_cases()` before it became a
    /// wrapper around `write_json`, byte for byte.
    const GOLDEN: [&str; 21] = [
            "{\"type\":\"ok\"}",
            "{\"type\":\"rule-asserted\",\"id\":7}",
            "{\"type\":\"asserted\",\"steps\":1,\"fills\":2,\"corefs\":3,\"rules\":4,\"reclassified\":5,\"created\":6}",
            "{\"type\":\"retracted\",\"reset\":1,\"requeued\":2,\"steps\":3,\"reclassified\":4}",
            "{\"type\":\"individuals\",\"names\":[]}",
            "{\"type\":\"individuals\",\"names\":[\"Rocky\",\"42\",\"q\\\"b\\\\s\\nt\\tr\\r\\u0001\\u001f\u{7f}é\u{2028}𝄞\"]}",
            "{\"type\":\"bool\",\"value\":true}",
            "{\"type\":\"bool\",\"value\":false}",
            "{\"type\":\"description\",\"text\":\"(AND PERSON (FILLS name \\\"q\\\"b\\\\s\\nt\\tr\\r\\u0001\\u001f\u{7f}é\u{2028}𝄞\\\"))\"}",
            "{\"type\":\"concepts\",\"names\":[]}",
            "{\"type\":\"concepts\",\"names\":[\"PERSON\",\"THING\"]}",
            "{\"type\":\"aspect\",\"value\":{\"kind\":\"none\"}}",
            "{\"type\":\"aspect\",\"value\":{\"kind\":\"bound\",\"n\":3}}",
            "{\"type\":\"aspect\",\"value\":{\"kind\":\"closed\",\"value\":true}}",
            "{\"type\":\"aspect\",\"value\":{\"kind\":\"values\",\"values\":[]}}",
            "{\"type\":\"aspect\",\"value\":{\"kind\":\"values\",\"values\":[\"a\",\"q\\\"b\\\\s\\nt\\tr\\r\\u0001\\u001f\u{7f}é\u{2028}𝄞\"]}}",
            "{\"type\":\"aspect\",\"value\":{\"kind\":\"restriction\",\"concept\":\"(AT-LEAST 1 child)\"}}",
            "{\"type\":\"lint\",\"errors\":0,\"warnings\":0,\"concepts_checked\":0,\"rules_checked\":0,\"inds_checked\":0,\"diagnostics\":[]}",
            "{\"type\":\"lint\",\"errors\":1,\"warnings\":1,\"concepts_checked\":4,\"rules_checked\":2,\"inds_checked\":9,\"diagnostics\":[{\"code\":\"A001\",\"severity\":\"error\",\"subject\":\"concept BAD\",\"message\":\"never satisfiable: q\\\"b\\\\s\\nt\\tr\\r\\u0001\\u001f\u{7f}é\u{2028}𝄞\",\"provenance\":[\"BAD < A\",\"A disjoint \\\"B\\\"\"]},{\"code\":\"A004\",\"severity\":\"warning\",\"subject\":\"rule #2 (on STUDENT)\",\"message\":\"shadowed\",\"provenance\":[]},{\"code\":\"A008\",\"severity\":\"info\",\"subject\":\"schema\",\"message\":\"\",\"provenance\":[\"\"]}]}",
            "{\"type\":\"bulk-loaded\",\"rows\":0,\"accepted\":0,\"rejected\":0,\"created\":0,\"steps\":0,\"rules\":0,\"reclassified\":0,\"chunks\":0,\"fallbacks\":0,\"rejections\":[]}",
            "{\"type\":\"bulk-loaded\",\"rows\":5,\"accepted\":3,\"rejected\":2,\"created\":8,\"steps\":13,\"rules\":2,\"reclassified\":4,\"chunks\":1,\"fallbacks\":1,\"rejections\":[{\"row\":1,\"name\":\"r-1\",\"error\":\"clash: (AT-MOST 1 loc)\"},{\"row\":4,\"name\":\"q\\\"b\\\\s\\nt\\tr\\r\\u0001\\u001f\u{7f}é\u{2028}𝄞\",\"error\":\"bad value \\\"q\\\"b\\\\s\\nt\\tr\\r\\u0001\\u001f\u{7f}é\u{2028}𝄞\\\"\"}]}",
    ];

    #[test]
    fn every_outcome_renders_as_it_did_before_the_one_buffer_writer() {
        let cases = golden_cases();
        assert_eq!(cases.len(), GOLDEN.len());
        for (outcome, golden) in cases.iter().zip(GOLDEN) {
            assert_eq!(outcome.render_json(), golden, "{outcome:?}");
            let mut appended = String::from("{\"ok\":true,\"result\":");
            outcome.write_json(&mut appended);
            assert_eq!(appended[20..], *golden);
            classic_obs::Json::parse(golden).expect("golden replies are JSON");
        }
    }

    /// The borrowed writer writes the golden bytes of the two
    /// `individuals` cases, names it looks up in the KB included, and
    /// what it writes parses back to the names the KB holds.
    #[test]
    fn a_borrowed_answer_renders_as_its_outcome_does() {
        let names = ["Rocky", "42", NASTY];
        let mut kb = Kb::new();
        let ids: Vec<IndId> = (names.iter())
            .map(|n| kb.create_ind(n).expect("a fresh name"))
            .collect();
        let cases = [(Vec::new(), GOLDEN[4]), (ids, GOLDEN[5])];
        for (ids, golden) in cases {
            let answer = Answer::individuals(&kb, ids);
            let mut written = String::new();
            answer.write_json(&mut written);
            assert_eq!(written, golden);
            let parsed = classic_obs::Json::parse(&written).expect("the answer is JSON");
            let Some(classic_obs::Json::Arr(items)) = parsed.get("names") else {
                panic!("no names in {written}");
            };
            let read: Vec<&str> = items.iter().filter_map(classic_obs::Json::as_str).collect();
            let Outcome::Individuals(owned) = answer.into_outcome() else {
                panic!("an answer of individuals is an Individuals outcome");
            };
            assert_eq!(read, owned);
            assert_eq!(Outcome::Individuals(owned).render_json(), golden);
        }
    }
}
