//! An interactive CLASSIC shell over the surface syntax.
//!
//! The paper's whole interface — DDL, DML, rules, queries, introspection —
//! "appears here as a short appendix" (§6); this REPL exposes it all:
//!
//! ```text
//! cargo run --example repl
//! classic> (define-role thing-driven)
//! classic> (define-concept CAR (PRIMITIVE THING car))
//! classic> (create-ind Rocky)
//! classic> (assert-ind Rocky (FILLS thing-driven Volvo-17))
//! classic> (retrieve (AT-LEAST 1 thing-driven))
//! Rocky
//! classic> (describe Rocky)
//! ...
//! ```
//!
//! Pass a file path to run a script instead: `cargo run --example repl -- setup.classic`.
//! `:quit` exits, `:stats` prints engine counters, `:snapshot` dumps the
//! database as a replayable script.

use classic::lang::Session;
use std::io::{BufRead, Write};

fn main() {
    let mut session = Session::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = args.first() {
        let script = std::fs::read_to_string(path).expect("script file readable");
        match session.run(&script) {
            Ok(outcomes) => {
                for o in &outcomes {
                    println!("{}", o.render_text());
                }
                println!("; script OK ({} commands)", outcomes.len());
            }
            Err(e) => {
                eprintln!("error: {}", e.display(&session.kb.schema().symbols));
                std::process::exit(1);
            }
        }
        return;
    }

    println!("CLASSIC shell — s-expression commands, :help for meta commands");
    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("classic> ");
        } else {
            print!("    ...> ");
        }
        std::io::stdout().flush().expect("stdout");
        line.clear();
        if stdin.lock().read_line(&mut line).expect("stdin") == 0 {
            break;
        }
        let trimmed = line.trim();
        match trimmed {
            ":quit" | ":q" => break,
            ":help" => {
                println!(
                    "commands: (define-role r) (define-attribute r) \
                     (define-concept N expr) (create-ind I)\n  (assert-ind I expr) \
                     (assert-rule N expr) (retract-ind I expr) (retract-rule N expr)\n  \
                     (retract-rule 7) (list-rules) \
                     (define-macro M (p…) expr) (retrieve q)\n  \
                     (possible q) (ask-description q) (ask-necessary-set q) \
                     (subsumes? a b) (equivalent? a b)\n  (disjoint? a b) (classify expr) \
                     (concept-aspect N KIND [r]) (ind-aspect I KIND [r])\n  (describe I) \
                     (why? I N) (what-if? I expr) (provenance I) \
                     (parents N) (children N) (lint-kb)\n  \
                     (obs-stats [json]) (obs-trace op|*) (obs-reset) (obs-level [off|counters|full])\n\
                     (obs-sample [rate]) (obs-slowlog [n])\n\
                     meta: :stats :snapshot :quit"
                );
                continue;
            }
            ":stats" => {
                let kb = &session.kb;
                println!(
                    "; individuals={} concepts={} taxonomy-nodes={} rules={} macros={}",
                    kb.ind_count(),
                    kb.schema().concept_count(),
                    kb.taxonomy().len(),
                    kb.active_rules().count(),
                    session.macro_names().len()
                );
                println!(
                    "; assertions={} propagation-steps={} rules-fired={} instance-tests={}",
                    kb.stats.assertions.get(),
                    kb.stats.propagation_steps.get(),
                    kb.stats.rules_fired.get(),
                    kb.stats.instance_tests.get()
                );
                continue;
            }
            ":snapshot" => {
                print!("{}", classic::store::snapshot_to_string(&session.kb));
                continue;
            }
            "" => continue,
            _ => {}
        }
        buffer.push_str(&line);
        // Keep reading until parentheses balance.
        let opens = buffer.matches('(').count();
        let closes = buffer.matches(')').count();
        if opens > closes {
            continue;
        }
        let input = std::mem::take(&mut buffer);
        match session.run(&input) {
            Ok(outcomes) => {
                // One renderer for the shell and the wire protocol:
                // Outcome::render_text is what the server's JSON mirrors.
                for o in &outcomes {
                    println!("{}", o.render_text());
                }
            }
            Err(e) => eprintln!("rejected: {}", e.display(&session.kb.schema().symbols)),
        }
    }
    println!("bye");
}
