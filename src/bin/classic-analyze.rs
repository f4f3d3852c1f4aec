//! `classic-analyze` — lint CLASSIC surface-language scripts from CI.
//!
//! ```text
//! classic-analyze [--deny warnings|errors] [--json] [--quiet] [--metrics <path>]
//!                 [--trace-out <path>] <script.classic>...
//! ```
//!
//! `--json` switches the report to machine-readable output: one JSON
//! object per diagnostic per line (code, severity, span, message,
//! provenance), in the same stable order as the text report. CI pipes
//! this through the server's strict JSON parser (`json-check`) so the
//! diagnostic format stays pinned to the wire grammar.
//!
//! `--metrics <path>` dumps the engine's metric roll-up after analysis
//! (loading the scripts exercises assertion/propagation/classification):
//! Prometheus text at `<path>`, JSON at `<path>.json`.
//!
//! `--trace-out <path>` raises observability to Full and, after all
//! scripts have been analyzed, dumps the retained span trees as Chrome
//! trace-event JSON (Perfetto-loadable) — a profile of where load and
//! analysis time went.
//!
//! Each script is loaded into its own fresh session (so a broken schema in
//! one file cannot mask findings in another), then the static analyzer
//! runs over the resulting schema and rule base. Exit codes:
//!
//! * `0` — every script loaded and passed the deny threshold;
//! * `1` — at least one report crossed the threshold (default: errors;
//!   `--deny warnings` also fails on warnings);
//! * `2` — a script failed to load (parse error or rejected update), or
//!   the command line was malformed.

use classic::analyze::{analyze, Severity};
use classic::lang::Session;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: classic-analyze [--deny warnings|errors] [--json] [--quiet] [--metrics <path>]\n\
         \x20                      [--trace-out <path>] <script.classic>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut deny = Severity::Error;
    let mut json = false;
    let mut quiet = false;
    let mut metrics: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut scripts: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => match args.next().as_deref().and_then(Severity::parse_deny) {
                Some(level) => deny = level,
                None => return usage(),
            },
            "--json" => json = true,
            "--metrics" => match args.next() {
                Some(path) => metrics = Some(path),
                None => return usage(),
            },
            "--trace-out" => match args.next() {
                Some(path) => {
                    // Spans only record at Full; raise before any work.
                    classic::obs::set_level(classic::obs::ObsLevel::Full);
                    trace_out = Some(path);
                }
                None => return usage(),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(),
            _ => scripts.push(arg),
        }
    }
    if scripts.is_empty() {
        return usage();
    }

    let mut failed = false;
    let mut broken = false;
    for path in &scripts {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                broken = true;
                continue;
            }
        };
        let mut session = Session::new();
        if let Err(e) = session.run(&source) {
            let named = e.display(&session.kb.schema().symbols);
            eprintln!("{path}: script failed to load: {named}");
            broken = true;
            continue;
        }
        let report = analyze(&session.kb);
        if json {
            // Machine mode: diagnostics only, one JSON object per line,
            // no per-file banner (the span names the subject).
            print!("{}", report.render_json_lines());
        } else if !quiet || !report.passes(deny) {
            println!("== {path}");
            println!("{}", report.render());
        }
        if !report.passes(deny) {
            failed = true;
        }
    }
    if let Some(path) = metrics {
        if let Err(e) = std::fs::write(&path, classic::obs::render_all_prometheus()) {
            eprintln!("{path}: cannot write metrics: {e}");
            broken = true;
        }
        let json_path = format!("{path}.json");
        if let Err(e) = std::fs::write(&json_path, classic::obs::render_all_json()) {
            eprintln!("{json_path}: cannot write metrics: {e}");
            broken = true;
        }
    }
    if let Some(path) = trace_out {
        let traces = classic::obs::all_traces();
        if let Err(e) = std::fs::write(&path, classic::obs::render_chrome_trace(&traces)) {
            eprintln!("{path}: cannot write trace dump: {e}");
            broken = true;
        }
    }
    if broken {
        ExitCode::from(2)
    } else if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
