//! The CLASSIC benchmark: four workloads against an in-process
//! `classic_server` over loopback sockets, every reply checked.
//!
//! ```text
//! classic-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--check-repeat] [--record FILE]
//! ```
//!
//! With `--workload` this is the command of `BENCHMARK.json`: the last
//! line of standard output is one JSON object holding every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). Without
//! it, all four workloads run in turn. See `README.md` beside this
//! package for what is measured and why.

mod gen;
mod report;
mod round;
mod spans;
mod stats;
mod trace;
mod wire;

use gen::{Sizes, Workload};
use report::{Metric, Stamp, END_TO_END, PER_LAYER};
use round::{DirGuard, Outcome};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Repetitions of a workload in one untraced run: at least this many,
/// more while `--seconds` allows, never more than the cap.
const MIN_REPETITIONS: usize = 3;
const MAX_REPETITIONS: usize = 40;

/// Where repetitions keep their tenants and where traces are written,
/// relative to the working directory: the root of the checkout.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    check_repeat: bool,
    record: Option<PathBuf>,
    /// Set in a repetition's own process: which pass to run, and where.
    child: Option<(String, PathBuf)>,
    /// Set when the repetition's process has a mount namespace of its
    /// own, so a tmpfs it mounts is gone when it exits.
    private_mounts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        traced: false,
        smoke: false,
        check_repeat: false,
        record: None,
        child: None,
        private_mounts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--child" => args.child = Some((value()?, PathBuf::from(value()?))),
            "--private-mounts" => args.private_mounts = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    }
}

// ---- a repetition, in its own process ------------------------------------

/// Whether a repetition can be given a mount namespace of its own
/// (`unshare --mount`): asked once.
fn private_mounts_available() -> bool {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        Command::new("unshare")
            .args(["--mount", "true"])
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    })
}

/// Run one pass and print what it measured, a line per fact.
fn child(args: &Args, pass: &str, dir: &Path) -> ExitCode {
    let workload = args.workload.expect("a repetition is given its workload");
    if dir.exists() {
        eprintln!("{} exists: refusing to measure on top of it", dir.display());
        return ExitCode::from(2);
    }
    let _cleanup = DirGuard(dir.to_owned());
    std::fs::create_dir_all(dir).expect("creating the repetition's directory");
    // Tenants live in memory where the process may arrange it: every
    // fsync is still issued, but the shared disk of the sandbox — whose
    // flush latency drifts by a factor of two within minutes — stays out
    // of the round trips. The mount is private to this process's
    // namespace and goes with it.
    let on_tmpfs = args.private_mounts
        && Command::new("mount")
            .args(["-t", "tmpfs", "tmpfs"])
            .arg(dir)
            .status()
            .is_ok_and(|s| s.success());
    let fs = if on_tmpfs {
        "tmpfs".to_owned()
    } else {
        report::fs_of(dir)
    };
    let sizes = sizes(args.smoke);
    let plan = gen::plan(workload, args.seed, &sizes);
    let out = match pass {
        "measure" => round::measure(&plan, dir, None, |_, _| Vec::new()),
        "contended" => round::contended_ops_per_s(&plan, dir),
        "traced" => {
            let trace_file = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
            // Beside the repetition's directory, so on the checkout's own
            // device whatever the directory itself is mounted on.
            let device_dir = DirGuard(dir.with_extension("device"));
            trace::traced(&plan, &sizes, dir, &device_dir.0, &trace_file)
        }
        other => {
            eprintln!("unknown pass {other}");
            return ExitCode::from(2);
        }
    };
    let mut text = String::new();
    for (name, value) in &out.metrics {
        let _ = writeln!(text, "metric {name} {value}");
    }
    let _ = writeln!(text, "fs {fs}");
    let _ = writeln!(text, "attempted {}", out.attempted);
    let _ = writeln!(text, "failed {}", out.failed);
    for note in &out.notes {
        let _ = writeln!(text, "note {}", note.replace('\n', " "));
    }
    print!("{text}");
    ExitCode::SUCCESS
}

/// Start one repetition in a fresh process of this program — the peak
/// resident set is per process, and a KB left over from the repetition
/// before slows the next — and read back what it printed.
fn repetition(args: &Args, workload: Workload, pass: &str, dir: &Path) -> Outcome {
    let exe = std::env::current_exe().expect("own path");
    let mut command = if private_mounts_available() {
        let mut c = Command::new("unshare");
        c.arg("--mount").arg(exe).arg("--private-mounts");
        c
    } else {
        Command::new(exe)
    };
    command
        .args(["--child", pass])
        .arg(dir)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let mut out = Outcome::default();
    let finished = command.output();
    // A repetition that died left its directory behind.
    let _ = std::fs::remove_dir_all(dir);
    let output = match finished {
        Ok(o) if o.status.success() => o,
        other => {
            out.check(false, || {
                format!("{pass} repetition of {} died: {other:?}", workload.name())
            });
            return out;
        }
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut words = line.splitn(3, ' ');
        match (words.next(), words.next(), words.next()) {
            (Some("metric"), Some(name), Some(v)) => {
                out.set(name, v.parse().expect("a repetition prints numbers"));
            }
            (Some("fs"), Some(fs), None) => out.data_dir_fs = fs.to_owned(),
            (Some("attempted"), Some(n), None) => out.attempted = n.parse().expect("count"),
            (Some("failed"), Some(n), None) => out.failed = n.parse().expect("count"),
            (Some("note"), ..) => out.notes.push(line[5..].to_owned()),
            _ => {}
        }
    }
    out
}

// ---- a run: the repetitions of one workload -------------------------------

fn absorb(result: &mut report::Result, out: Outcome) {
    if !out.data_dir_fs.is_empty() {
        result.data_dir_fs = out.data_dir_fs;
    }
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.notes.extend(out.notes);
    for (name, value) in out.metrics {
        result.raw.entry(name).or_default().push(value);
    }
}

/// Untraced: repetitions for as long as the next one is likely to end
/// within `--seconds`; a metric is the best of them if it is a time, the
/// median if it is a size (`report::Over`).
fn run_untraced(args: &Args, workload: Workload, run_dir: &Path) -> report::Result {
    let mut result = report::Result::default();
    let began = Instant::now();
    for k in 0..MAX_REPETITIONS {
        let used = began.elapsed().as_secs_f64();
        let full = args.smoke || used + 1.15 * used / k as f64 > args.seconds;
        if k >= MIN_REPETITIONS && full {
            break;
        }
        let dir = run_dir.join(format!("{}-{k}", workload.name()));
        absorb(&mut result, repetition(args, workload, "measure", &dir));
    }
    result
}

/// Traced: one untraced repetition, one with the benchmark's spans on
/// and the layers probed, one with two clients; the per-layer metrics
/// come from the three together.
fn run_traced(args: &Args, workload: Workload, run_dir: &Path) -> report::Result {
    let mut result = report::Result::default();
    let mut ops_per_s = [0.0; 3];
    for (ix, pass) in ["measure", "traced", "contended"].iter().enumerate() {
        let dir = run_dir.join(format!("{}-{pass}", workload.name()));
        let mut out = repetition(args, workload, pass, &dir);
        ops_per_s[ix] = out.metrics.get("ops_per_s").copied().unwrap_or(0.0);
        // Only the traced pass speaks for the layers; of the other two
        // only the throughput is used.
        if *pass != "traced" {
            out.metrics.clear();
        }
        absorb(&mut result, out);
    }
    let [plain, traced, contended] = ops_per_s;
    let mut ratios = Outcome::default();
    ratios.set("obs.trace_overhead", traced / plain);
    ratios.set("server.two_client_scaling", contended / plain);
    absorb(&mut result, ratios);
    result
}

fn run_workload(args: &Args, workload: Workload, run_dir: &Path) -> report::Result {
    if args.traced {
        run_traced(args, workload, run_dir)
    } else {
        run_untraced(args, workload, run_dir)
    }
}

fn metrics_of(args: &Args) -> &'static [Metric] {
    if args.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One set: every requested workload once, each with its table and then
/// the line the driver reads, which so is the last line of a run of one
/// workload.
fn run_set(args: &Args, run_dir: &Path) -> Vec<(Workload, report::Result)> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    workloads
        .into_iter()
        .map(|w| {
            let result = run_workload(args, w, run_dir);
            println!("{}", result.table(w.name()));
            println!("{}", result.driver_line(metrics_of(args)));
            (w, result)
        })
        .collect()
}

fn set_json(set: &[(Workload, report::Result)]) -> String {
    let parts: Vec<String> = set
        .iter()
        .map(|(w, r)| format!("\"{}\":{}", w.name(), r.json()))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Two sets of the same build back to back: for every workload and
/// end-to-end metric, how far the second median is worse than the first,
/// beside the bound. Returns whether every difference is within it.
fn check_repeat(
    first: &[(Workload, report::Result)],
    second: &[(Workload, report::Result)],
) -> (bool, String) {
    let mut table = format!(
        "== check-repeat: second set against the first\n{:<18} {:<26} {:>14} {:>14} {:>8} {:>6}\n",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut within = true;
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (a.value(m), b.value(m)) else {
                continue;
            };
            let worse = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let ok = worse <= m.bound;
            within &= ok;
            let _ = writeln!(
                table,
                "{:<18} {:<26} {a:>14.4} {b:>14.4} {:>7.1}% {:>5.0}%{}",
                w.name(),
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    (within, table)
}

fn parent(args: &Args) -> ExitCode {
    let out_root = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_root) {
        eprintln!("cannot create {OUT_DIR} (run from the root of the checkout): {e}");
        return ExitCode::from(2);
    }
    let run_dir = out_root.join(format!("run-{}", std::process::id()));
    if run_dir.exists() {
        eprintln!(
            "{} exists: refusing to measure on top of it",
            run_dir.display()
        );
        return ExitCode::from(2);
    }
    let _cleanup = DirGuard(run_dir.clone());
    std::fs::create_dir_all(&run_dir).expect("creating the run directory");

    let stamp = Stamp::take();
    let sizes = sizes(args.smoke);
    println!(
        "classic-benchmark seed={} seconds={} traced={} smoke={} stamp={} sizes={sizes:?}",
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        stamp.json()
    );

    // A wrong answer is reported in the result line; the exit code speaks
    // for it only where nobody parses that line.
    let clean = |set: &[(Workload, report::Result)]| {
        !(args.smoke || args.check_repeat) || set.iter().all(|(_, r)| r.failed == 0)
    };
    let first = run_set(args, &run_dir);
    let mut sets = vec![set_json(&first)];
    let mut ok = clean(&first);
    let mut repeat_json = "null".to_owned();
    if args.check_repeat {
        let second = run_set(args, &run_dir);
        ok &= clean(&second);
        sets.push(set_json(&second));
        let (within, table) = check_repeat(&first, &second);
        println!("{table}");
        repeat_json = format!("{{\"within_bounds\":{within}}}");
        ok &= within;
    }
    if let Some(path) = &args.record {
        let ledger = format!(
            "{{\"seed\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\"stamp\":{},\"sizes\":\"{sizes:?}\",\
             \"check_repeat\":{repeat_json},\"sets\":[{}]}}\n",
            args.seed,
            args.seconds,
            args.traced,
            args.smoke,
            stamp.json(),
            sets.join(",")
        );
        if let Err(e) = std::fs::write(path, ledger) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.child {
        Some((pass, dir)) => child(&args, pass, dir),
        None => parent(&args),
    }
}
