//! Per-connection protocol state: tenant binding and what-if sandboxes.
//!
//! A [`WireSession`] owns everything one client connection can see. The
//! wire protocol is the CLASSIC surface syntax itself — the same
//! s-expressions the REPL, the persistence log, and the test scripts
//! use — plus four *session* forms that never reach a KB:
//!
//! | form                 | effect                                        |
//! |----------------------|-----------------------------------------------|
//! | `(tenant NAME)`      | bind the session to tenant `NAME`             |
//! | `(sandbox begin)`    | start a private what-if copy of the tenant KB |
//! | `(sandbox commit)`   | replay sandbox mutations into the tenant      |
//! | `(sandbox rollback)` | discard the sandbox                           |
//! | `(lint-on-write on)` | attach cone diagnostics to mutation replies   |
//! | `(trace-id "HEX")`   | adopt a client trace id for the *next* form   |
//! | `(ping)`             | liveness probe                                |
//! | `(quit)`             | close the connection                          |
//!
//! Every form gets exactly one reply line:
//! `{"ok":true,"result":<outcome>}` or `{"ok":false,"error":"..."}`.
//!
//! ## Request tracing
//!
//! Every form is a *request*: the session mints a fresh
//! [`classic_obs::TraceId`] (or takes the one a preceding `(trace-id)`
//! form adopted), opens a `server.request` root span labelled with the
//! bound tenant so every span the evaluation opens nests under it, and
//! on completion feeds the wall time to the server's
//! request histogram (with the trace id as an OpenMetrics exemplar) and
//! the process slowlog. A malformed or oversize client id is answered
//! with a positioned error and **not** adopted — the next form gets a
//! minted id, never a corrupted one. `(obs-level)` and `(obs-sample)`
//! are global switches, so the wire gates them: a session may raise
//! observability above the operator's `--obs-floor`/`--sample-floor`
//! but never lower it below.
//!
//! A sandbox is the paper's `what-if` operator promoted from one
//! assertion to a whole session: `sandbox begin` takes a version of its
//! own off the tenant's current snapshot (`Kb::clone`: the storage is
//! shared, and only what the sandbox goes on to write is copied);
//! mutations evaluate against it *and* are recorded; `commit` replays the recording
//! through the tenant's durable path, `rollback` drops it. Commit is
//! sequential, not transactional — it stops at the first command the
//! primary rejects (possible when the tenant moved underneath the
//! sandbox) and reports how many landed.

use std::sync::Arc;

use classic_lang::{Answer, Command, LintReport, Outcome};
use classic_obs::{json_string, write_json_string, RequestCtx, TraceId};

use crate::server::Shared;
use crate::tenant::{write_read, Tenant};

/// What the connection loop should do after a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading forms.
    Continue,
    /// Client said `(quit)`: flush the reply and close.
    Quit,
}

struct Sandbox {
    kb: classic_kb::Kb,
    recorded: Vec<Command>,
}

impl Sandbox {
    /// Write the reply to `cmd`, evaluated against the sandbox alone:
    /// `(lint-kb)` here analyzes the sandbox from scratch and never
    /// touches the tenant's incremental analysis state. A read takes the
    /// tenant's read path, with the sandbox's KB in place of a snapshot;
    /// an accepted write is recorded for `commit`.
    fn write_reply(&mut self, cmd: Command, out: &mut String) {
        if !cmd.is_mutation() && !matches!(cmd, Command::WhatIf(..)) {
            write_read(&self.kb, &cmd, out);
            return;
        }
        match classic_lang::eval(&mut self.kb, &cmd) {
            Ok(outcome) => {
                write_ok(out, &outcome.into(), None);
                if cmd.is_mutation() {
                    self.recorded.push(cmd);
                }
            }
            Err(e) => write_err(out, &e.display(&self.kb.schema().symbols).to_string()),
        }
    }
}

/// How a form classifies before evaluation: the split is computed up
/// front so the request root span can carry the command kind.
enum Parsed {
    /// A session form (tenant/sandbox/ping/quit/…): the split words.
    Session(Vec<String>),
    /// Exactly one surface command.
    Command(Command),
    /// Parse failure, empty input, or more than one form.
    Reject(String),
}

/// One client's protocol state.
pub struct WireSession {
    shared: Arc<Shared>,
    tenant: Arc<Tenant>,
    sandbox: Option<Sandbox>,
    /// Server-assigned session number, attached to every request ctx.
    session_id: u64,
    /// A client-adopted trace id waiting for the next form.
    pending_trace: Option<TraceId>,
}

fn ok(result_json: &str) -> String {
    format!("{{\"ok\":true,\"result\":{result_json}}}")
}

/// The `{"ok":false,"error":…}` reply line (no trailing newline).
pub(crate) fn err(message: &str) -> String {
    let mut out = String::new();
    write_err(&mut out, message);
    out
}

/// Append the `{"ok":true,"result":…}` envelope around `result` to
/// `out`, followed by the cone diagnostics a lint-on-write mutation
/// carries. The result is written in place: the envelope, the result
/// and the lint report share one buffer, which [`Answer::write_json`]
/// sizes for the whole reply and the newline that ends its line.
pub(crate) fn write_ok(out: &mut String, result: &Answer<'_>, lint: Option<LintReport>) {
    out.push_str(r#"{"ok":true,"result":"#);
    result.write_json(out);
    if let Some(lint) = lint {
        out.push_str(r#","lint":"#);
        Outcome::Lint(lint).write_json(out);
    }
    out.push('}');
}

/// Append the `{"ok":false,"error":…}` envelope to `out`.
pub(crate) fn write_err(out: &mut String, message: &str) {
    out.push_str(r#"{"ok":false,"error":"#);
    write_json_string(out, message);
    out.push('}');
}

impl WireSession {
    /// Open a session bound to the `default` tenant.
    pub fn new(shared: Arc<Shared>) -> classic_core::Result<WireSession> {
        let tenant = shared.tenant("default")?;
        Ok(WireSession {
            shared,
            tenant,
            sandbox: None,
            session_id: classic_obs::next_session_id(),
            pending_trace: None,
        })
    }

    /// The server-assigned session number carried in request contexts.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The tenant this session is bound to.
    pub fn tenant(&self) -> &Arc<Tenant> {
        &self.tenant
    }

    /// Handle one complete top-level form; returns the reply line (no
    /// trailing newline) and whether to keep the connection open.
    ///
    /// This is the tracing front: the form is classified first (so the
    /// root span knows the command kind), then served and accounted for
    /// by `Shared::request`, the one accounting block both fronts share.
    pub fn handle_form(&mut self, form: &str) -> (String, Control) {
        // A tenant some request panicked in has been (or is now) replaced
        // in the table by one reopened from its log: rebind to that one.
        if self.tenant.is_poisoned() {
            if let Ok(reopened) = self.shared.tenant(self.tenant.name()) {
                self.tenant = reopened;
            }
        }
        self.shared.metrics.requests.bump();
        self.tenant.count_request();
        let parsed = classify(form);
        let kind = match &parsed {
            Parsed::Session(_) => "session",
            Parsed::Command(c) => c.kind(),
            Parsed::Reject(_) => "parse-error",
        };
        let ctx = RequestCtx {
            trace_id: self.pending_trace.take().unwrap_or_else(TraceId::mint),
            tenant: self.tenant.name().to_owned(),
            session: self.session_id,
            kind,
        };
        let shared = Arc::clone(&self.shared);
        shared.request(ctx, || {
            let (reply, control) = self.dispatch(parsed);
            let failed = reply.starts_with("{\"ok\":false");
            ((reply, control), failed)
        })
    }

    fn dispatch(&mut self, parsed: Parsed) -> (String, Control) {
        let cmd = match parsed {
            Parsed::Session(words) => return self.session_command(&words),
            Parsed::Reject(msg) => return (err(&msg), Control::Continue),
            Parsed::Command(c) => c,
        };
        if let Some(reply) = self.gate_obs_command(&cmd) {
            return (reply, Control::Continue);
        }
        let mut reply = String::new();
        match &mut self.sandbox {
            Some(sandbox) => sandbox.write_reply(cmd, &mut reply),
            None => {
                self.tenant.write_reply(&cmd, &mut reply);
            }
        }
        (reply, Control::Continue)
    }

    /// Operator-floor gating for the global observability switches: a
    /// wire session may raise the level or sampling rate, never lower
    /// them below the floors the server was started with. Returns a
    /// rejection reply when the command must not reach evaluation.
    fn gate_obs_command(&self, cmd: &Command) -> Option<String> {
        match cmd {
            Command::ObsLevel(Some(level)) => {
                // Unknown level names fall through to eval's own error.
                let requested = classic_obs::ObsLevel::parse(level)?;
                let floor = self.shared.obs_floor();
                (requested < floor).then(|| {
                    err(&format!(
                        "obs-level {level} is below the server's operator floor \
                         ({}); sessions may raise observability, not lower it",
                        floor.name()
                    ))
                })
            }
            Command::ObsSample(Some(rate)) => {
                let floor = self.shared.sample_floor();
                (*rate < floor).then(|| {
                    err(&format!(
                        "obs-sample {rate} is below the server's operator floor \
                         ({floor}); sessions may raise the sampling rate, not lower it"
                    ))
                })
            }
            _ => None,
        }
    }

    fn session_command(&mut self, words: &[String]) -> (String, Control) {
        match words {
            [w] if w == "ping" => (ok("{\"type\":\"pong\"}"), Control::Continue),
            [w] if w == "quit" => (ok("{\"type\":\"bye\"}"), Control::Quit),
            [w, name] if w == "tenant" => {
                if self.sandbox.is_some() {
                    return (
                        err("sandbox active: commit or rollback before switching tenants"),
                        Control::Continue,
                    );
                }
                match self.shared.tenant(name) {
                    Ok(t) => {
                        self.tenant = t;
                        (
                            ok(&format!(
                                "{{\"type\":\"tenant\",\"name\":{}}}",
                                json_string(name)
                            )),
                            Control::Continue,
                        )
                    }
                    Err(e) => (err(&e.to_string()), Control::Continue),
                }
            }
            [w, id] if w == "trace-id" => {
                // Accept the id bare or quoted. A malformed or oversize
                // id is a positioned error and adopts NOTHING — the next
                // form gets a minted id, never a corrupted one.
                match TraceId::parse(id.trim_matches('"')) {
                    Ok(t) => {
                        self.pending_trace = Some(t);
                        (
                            ok(&format!(
                                "{{\"type\":\"trace-id\",\"id\":{}}}",
                                json_string(&t.to_string())
                            )),
                            Control::Continue,
                        )
                    }
                    Err(e) => (err(&e.to_string()), Control::Continue),
                }
            }
            [w] if w == "trace-id" => (
                err("trace-id takes one hex id of 1-32 digits"),
                Control::Continue,
            ),
            [w, mode] if w == "lint-on-write" => match mode.as_str() {
                "on" | "off" => {
                    self.tenant.set_lint_on_write(mode == "on");
                    (
                        ok(&format!(
                            "{{\"type\":\"lint-on-write\",\"enabled\":{}}}",
                            mode == "on"
                        )),
                        Control::Continue,
                    )
                }
                _ => (err("lint-on-write takes on|off"), Control::Continue),
            },
            [w, sub] if w == "sandbox" && sub == "begin" => {
                if self.sandbox.is_some() {
                    return (err("sandbox already active"), Control::Continue);
                }
                match self.tenant.snapshot().map(|s| s.kb().clone()) {
                    Ok(kb) => {
                        self.sandbox = Some(Sandbox {
                            kb,
                            recorded: Vec::new(),
                        });
                        (
                            ok("{\"type\":\"sandbox\",\"state\":\"active\"}"),
                            Control::Continue,
                        )
                    }
                    Err(e) => (err(&e.to_string()), Control::Continue),
                }
            }
            [w, sub] if w == "sandbox" && sub == "rollback" => match self.sandbox.take() {
                Some(s) => (
                    ok(&format!(
                        "{{\"type\":\"sandbox\",\"state\":\"rolled-back\",\"discarded\":{}}}",
                        s.recorded.len()
                    )),
                    Control::Continue,
                ),
                None => (err("no sandbox active"), Control::Continue),
            },
            [w, sub] if w == "sandbox" && sub == "commit" => match self.sandbox.take() {
                Some(s) => {
                    let total = s.recorded.len();
                    for (ix, cmd) in s.recorded.iter().enumerate() {
                        if let Err(e) = self.tenant.execute(cmd) {
                            return (
                                err(&format!(
                                    "sandbox commit failed at mutation {} of {total}: {e}",
                                    ix + 1
                                )),
                                Control::Continue,
                            );
                        }
                    }
                    (
                        ok(&format!(
                            "{{\"type\":\"sandbox\",\"state\":\"committed\",\"applied\":{total}}}"
                        )),
                        Control::Continue,
                    )
                }
                None => (err("no sandbox active"), Control::Continue),
            },
            _ => (err("unknown session form"), Control::Continue),
        }
    }
}

/// Classify one framed form: session form, exactly one surface command,
/// or a rejection message — computed before evaluation so the request
/// root span can name the command kind.
fn classify(form: &str) -> Parsed {
    if let Some(words) = session_form(form) {
        return Parsed::Session(words);
    }
    let commands = match classic_lang::parse(form) {
        Ok(c) => c,
        Err(e) => return Parsed::Reject(e.to_string()),
    };
    let mut cmd_iter = commands.into_iter();
    match (cmd_iter.next(), cmd_iter.next()) {
        (Some(c), None) => Parsed::Command(c),
        (None, _) => Parsed::Reject("empty form".to_owned()),
        // The framing layer feeds one balanced form at a time, so this
        // is unreachable in practice; fail loudly rather than silently
        // evaluate half the input.
        (Some(_), Some(_)) => Parsed::Reject("expected exactly one form".to_owned()),
    }
}

/// Recognize a session form: a single flat s-expression whose head is
/// one of the session keywords. Returns the words inside the parens.
/// Anything else (including all KB commands) returns `None` and flows
/// to the real parser.
fn session_form(form: &str) -> Option<Vec<String>> {
    let t = form.trim();
    let inner = t.strip_prefix('(')?.strip_suffix(')')?;
    if inner.contains('(') || inner.contains(')') {
        return None;
    }
    let words: Vec<String> = inner.split_whitespace().map(str::to_owned).collect();
    match words.first().map(String::as_str) {
        Some("tenant" | "sandbox" | "ping" | "quit" | "lint-on-write" | "trace-id") => Some(words),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_form_recognizes_meta_only() {
        assert!(session_form("(ping)").is_some());
        assert!(session_form(" (tenant t1) ").is_some());
        assert!(session_form("(sandbox begin)").is_some());
        assert!(session_form("(trace-id \"deadbeef\")").is_some());
        assert!(session_form("(define-role r)").is_none());
        assert!(session_form("(retrieve (and A B) ?x)").is_none());
        // Nested parens never match, even with a meta head.
        assert!(session_form("(tenant (and))").is_none());
    }
}
