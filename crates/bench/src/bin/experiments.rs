//! Experiment runner: regenerates every quantitative result of the
//! reproduction (see DESIGN.md §5 and EXPERIMENTS.md).
//!
//! ```text
//! cargo run -p classic-bench --release --bin experiments           # all
//! cargo run -p classic-bench --release --bin experiments -- e3 e7  # some
//! cargo run -p classic-bench --release --bin experiments -- list
//! cargo run -p classic-bench --release --bin experiments -- e13 --metrics out.prom
//! cargo run -p classic-bench --release --bin experiments -- e4 --trace-out run.json
//! ```
//!
//! `--metrics <path>` dumps the process-wide metric roll-up (every KB the
//! experiments built) after the run: Prometheus text at `<path>`, JSON at
//! `<path>.json`.
//!
//! `--trace-out <path>` raises observability to Full for the run and
//! afterwards dumps every retained span tree — including those of KBs
//! the experiments already dropped (their recorders bury traces in a
//! process graveyard) — as Chrome trace-event JSON. Load the file in
//! Perfetto or `chrome://tracing`.

use classic_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(ix) = args.iter().position(|a| a == "--smoke") {
        // Smoke mode: experiments that honor it shrink their workload
        // sizes (CI runs E12 and E13 this way).
        args.remove(ix);
        std::env::set_var("CLASSIC_BENCH_SMOKE", "1");
    }
    let mut metrics_path: Option<String> = None;
    if let Some(ix) = args.iter().position(|a| a == "--metrics") {
        if ix + 1 >= args.len() {
            eprintln!("--metrics needs a path");
            std::process::exit(1);
        }
        metrics_path = Some(args.remove(ix + 1));
        args.remove(ix);
    }
    let mut trace_path: Option<String> = None;
    if let Some(ix) = args.iter().position(|a| a == "--trace-out") {
        if ix + 1 >= args.len() {
            eprintln!("--trace-out needs a path");
            std::process::exit(1);
        }
        trace_path = Some(args.remove(ix + 1));
        args.remove(ix);
        // Spans only record at Full; the dump would be empty otherwise.
        classic_obs::set_level(classic_obs::ObsLevel::Full);
    }
    if args.iter().any(|a| a == "list") {
        for (id, desc, _) in experiments::registry() {
            println!("{id}: {desc}");
        }
        return;
    }
    let ids: Vec<String> = if args.is_empty() {
        vec!["all".to_owned()]
    } else {
        args
    };
    for id in ids {
        match experiments::run(&id) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!("unknown experiment {id:?}; try `list`");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = metrics_path {
        std::fs::write(&path, classic_obs::render_all_prometheus())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        let json_path = format!("{path}.json");
        std::fs::write(&json_path, classic_obs::render_all_json())
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("; metrics written to {path} and {json_path}");
    }
    if let Some(path) = trace_path {
        let traces = classic_obs::all_traces();
        std::fs::write(&path, classic_obs::render_chrome_trace(&traces))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!(
            "; {} retained trace(s) written to {path} (Chrome trace-event JSON)",
            traces.len()
        );
    }
}
