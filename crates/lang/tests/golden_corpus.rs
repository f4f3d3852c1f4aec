//! The golden parse corpus: every form named in `docs/PROTOCOL.md`, one
//! instance of every command, the paper's appendix grammar, and the
//! adversarial framing cases, with the reader's verdict on each recorded
//! at the commit *before* the single-cursor reader landed (6738bdb).
//!
//! `golden/parse_corpus.txt` holds the inputs (`%% cmd|expr|query`
//! header, then the text); `golden/parse_corpus.golden` holds one verdict
//! line per input: `ok <Debug of the parse>`, `err pos` (rejected, the
//! message carried a `line:col` position) or `err nopos`. The contract a
//! reader change must keep:
//!
//! * accepted input parses to the byte-identical `Debug` rendering;
//! * rejected input is still rejected, and still carries a position
//!   wherever it did when recorded (gaining one is fine; the message
//!   text itself is free to improve).

use classic_lang::{parse, parse_expr, parse_query_expr};

const CORPUS: &str = include_str!("golden/parse_corpus.txt");
const GOLDEN: &str = include_str!("golden/parse_corpus.golden");

fn entries() -> Vec<(&'static str, &'static str)> {
    let body = CORPUS.strip_prefix("%% ").expect("leading entry header");
    body.strip_suffix('\n')
        .unwrap_or(body)
        .split("\n%% ")
        .map(|entry| entry.split_once('\n').expect("mode line, then the input"))
        .collect()
}

/// Does `msg` carry a `line:col` source position?
fn positioned(msg: &str) -> bool {
    let b = msg.as_bytes();
    (1..b.len().saturating_sub(1))
        .any(|i| b[i] == b':' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
}

fn verdict(mode: &str, input: &str) -> String {
    let parsed = match mode {
        "cmd" => parse(input).map(|c| format!("{c:?}")),
        "expr" => parse_expr(input).map(|e| format!("{e:?}")),
        "query" => parse_query_expr(input).map(|q| format!("{q:?}")),
        other => panic!("unknown corpus mode {other:?}"),
    };
    match parsed {
        Ok(debug) => format!("ok {debug}"),
        Err(e) if positioned(&e.to_string()) => "err pos".to_owned(),
        Err(_) => "err nopos".to_owned(),
    }
}

#[test]
fn reader_verdicts_match_the_recorded_corpus() {
    let entries = entries();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(entries.len(), golden.len(), "corpus and golden out of step");
    assert!(entries.len() > 250, "corpus unexpectedly small");
    let mut failures = Vec::new();
    for ((mode, input), want) in entries.iter().zip(&golden) {
        let got = verdict(mode, input);
        let holds = match *want {
            "err nopos" => got.starts_with("err"),
            want => got == want,
        };
        if !holds {
            failures.push(format!(
                "{mode} {input:?}\n  recorded: {want}\n  now:      {got}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus entries changed verdict:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn position_detector_sees_line_col_only() {
    assert!(positioned("malformed expression: 1:14: expected ')'"));
    assert!(positioned("3:1: unbalanced"));
    assert!(!positioned("malformed expression: <eof>: unexpected end"));
    assert!(!positioned("expected exactly one command, found 2"));
    assert!(!positioned("unknown operator \"a:b\""));
}
