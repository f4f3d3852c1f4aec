//! E18 — end-to-end request tracing: overhead, attribution, export.
//!
//! The paper positions CLASSIC as a shared DBMS facility (§1, §5);
//! PR 10 gives the reproduction the forensics such a facility needs:
//! every wire request runs under a trace id (client-adopted or minted),
//! the span tree roots at the request, and the slowest requests are
//! retained with full attribution. This experiment drives the E14
//! workload shape (concurrent line-protocol clients over several
//! tenants, fsynced writes + snapshot reads) and asserts the tracing
//! claims inline:
//!
//! 1. **Overhead**: best-of-N wall time with Full tracing and default
//!    sampling is ≤ 1.05× the Counters-level wall (+30 ms absolute
//!    slack so a sub-second smoke wall cannot flake the ratio).
//! 2. **Attribution**: after the traced run, every slowlog entry
//!    belongs to a workload tenant, carries a 32-hex trace id, and —
//!    when sampled — roots at `server.request`.
//! 3. **Export**: a client-adopted trace id is retrievable via
//!    `GET /trace?id=…` as Chrome trace-event JSON that parses under
//!    the strict `classic_obs` parser with ts/dur nested inside the
//!    request root; the tenant-wide dump parses too.
//! 4. **Accounting**: `classic_tenant_requests_total{tenant="…"}` on
//!    `/metrics` matches the exact number of forms each tenant was
//!    sent.
//!
//! Full run: 8 clients × 2 tenants × 60 iterations, best of 3; smoke
//! (`CLASSIC_BENCH_SMOKE`): 4 × 2 × 15, best of 2.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use classic_obs::{Json, ObsLevel};
use classic_server::{ServerConfig, ServerHandle};
use std::fmt::Write as _;

fn smoke() -> bool {
    std::env::var_os("CLASSIC_BENCH_SMOKE").is_some()
}

/// Minimal line-protocol client: one form out, one JSON line back.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Round-trip one form; panics unless the reply is `ok:true`.
    fn ok(&mut self, form: &str) -> String {
        let stream = self.reader.get_mut();
        stream.write_all(form.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        assert!(
            line.starts_with("{\"ok\":true"),
            "form {form:?} failed: {line}"
        );
        line
    }
}

/// One `GET` against the server's HTTP side, returning the body.
fn http_get(handle: &ServerHandle, path: &str) -> String {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in reply to GET {path}"));
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "GET {path} failed: {head}"
    );
    body.to_owned()
}

struct Workload {
    clients: usize,
    tenants: usize,
    iters: usize,
}

impl Workload {
    /// Forms routed to tenant `t`: the 3 schema forms plus each bound
    /// client's `iters` iterations of 2 writes + 1 read. (The
    /// `(tenant …)` binding form itself counts against the session's
    /// previous tenant, i.e. `default`.)
    fn expected_requests(&self, t: usize) -> usize {
        let bound = (0..self.clients).filter(|c| c % self.tenants == t).count();
        3 + bound * self.iters * 3
    }
}

/// Stand a fresh server up, drive the workload, return (wall, handle).
/// The caller shuts the server down (after optional forensics).
fn run_once(w: &Workload, tag: &str) -> (Duration, ServerHandle, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("classic-bench-e18-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        workers: w.clients + 2,
        ..ServerConfig::default()
    })
    .expect("server starts");

    for t in 0..w.tenants {
        let mut c = Client::connect(&handle);
        c.ok(&format!("(tenant e18-{t})"));
        c.ok("(define-role child)");
        c.ok("(define-concept PERSON (PRIMITIVE THING person))");
        c.ok("(define-concept PARENT (AND PERSON (AT-LEAST 1 child)))");
    }

    let wall = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients)
            .map(|c_ix| {
                let server = &handle;
                let w = &w;
                scope.spawn(move || {
                    let mut client = Client::connect(server);
                    client.ok(&format!("(tenant e18-{})", c_ix % w.tenants));
                    for i in 0..w.iters {
                        let ind = format!("c{c_ix}-i{i}");
                        client.ok(&format!("(create-ind {ind})"));
                        client.ok(&format!(
                            "(assert-ind {ind} (AND PERSON (FILLS child {ind}-kid)))"
                        ));
                        client.ok("(retrieve PARENT)");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    (wall.elapsed(), handle, dir)
}

/// Per-tenant request accounting on the labeled `/metrics` exposition:
/// `classic_tenant_requests_total{tenant="…"}` must match exactly.
fn assert_tenant_accounting(handle: &ServerHandle, w: &Workload, out: &mut String) {
    let metrics = http_get(handle, "/metrics");
    for t in 0..w.tenants {
        let needle = format!("classic_tenant_requests_total{{tenant=\"e18-{t}\"}} ");
        let got: usize = metrics
            .lines()
            .find_map(|l| l.strip_prefix(needle.as_str())?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{needle:?} missing from /metrics"));
        assert_eq!(
            got,
            w.expected_requests(t),
            "per-tenant request accounting off for e18-{t}"
        );
    }
    let _ = writeln!(
        out,
        "asserted: classic_tenant_requests_total{{tenant=…}} exact for all {} tenants",
        w.tenants
    );
}

/// Slowlog forensics after the traced run: every retained entry belongs
/// to the workload, and sampled entries root at the wire request.
fn assert_slowlog(handle: &ServerHandle, out: &mut String) {
    let body = http_get(handle, "/slowlog?n=32");
    let log = Json::parse(body.trim()).expect("slowlog is strict JSON");
    let entries = log
        .get("slowlog")
        .and_then(Json::as_arr)
        .expect("slowlog array");
    assert!(!entries.is_empty(), "traced run left the slowlog empty");
    for e in entries {
        let tenant = e.get("tenant").and_then(Json::as_str).expect("tenant");
        assert!(
            tenant.starts_with("e18-") || tenant == "default",
            "foreign tenant in a freshly cleared slowlog: {tenant}"
        );
        let id = e.get("trace_id").and_then(Json::as_str).expect("trace id");
        assert_eq!(id.len(), 32, "trace id not 32 hex digits: {id:?}");
        if e.get("sampled").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                e.get("root").and_then(Json::as_str),
                Some("server.request"),
                "sampled slowlog entry not rooted at the request: {e:?}"
            );
        }
    }
    let sampled = entries
        .iter()
        .filter(|e| e.get("sampled").and_then(Json::as_bool) == Some(true))
        .count();
    assert!(
        sampled > 0,
        "no sampled entries despite Full tracing at rate 1.0"
    );
    let _ = writeln!(
        out,
        "asserted: {} slowlog entries, {sampled} with span trees, all rooted at server.request",
        entries.len()
    );
}

/// Wire-propagated id → span tree → Chrome export, end to end: adopt a
/// known id over the line protocol, then pull that one trace back out
/// over HTTP and check attribution and ts/dur nesting under the strict
/// JSON parser.
fn assert_trace_export(handle: &ServerHandle, out: &mut String) {
    let mut c = Client::connect(handle);
    c.ok("(tenant e18-0)");
    c.ok("(trace-id \"e18aced\")");
    c.ok("(retrieve PARENT)");

    let body = http_get(handle, "/trace?id=e18aced");
    let dump = Json::parse(body.trim()).expect("chrome dump parses under the strict parser");
    let events = dump
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let root = spans
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("server.request"))
        .expect("exported tree roots at server.request");
    let args = root.get("args").expect("root args");
    assert_eq!(
        args.get("trace_id").and_then(Json::as_str),
        Some("0000000000000000000000000e18aced"),
        "adopted id lost on the way to the export"
    );
    assert_eq!(args.get("tenant").and_then(Json::as_str), Some("e18-0"));
    assert_eq!(args.get("kind").and_then(Json::as_str), Some("retrieve"));

    let ts = |e: &Json| e.get("ts").and_then(Json::as_num).expect("ts");
    let dur = |e: &Json| e.get("dur").and_then(Json::as_num).expect("dur");
    let (rts, rdur) = (ts(root), dur(root));
    for s in &spans {
        assert!(ts(s) + 1e-3 >= rts, "span starts before the root: {s:?}");
        assert!(
            ts(s) + dur(s) <= rts + rdur + 1e-3,
            "span outlives the root: {s:?}"
        );
    }

    // The tenant-wide dump is strict JSON too.
    let body = http_get(handle, "/trace?tenant=e18-0");
    let dump = Json::parse(body.trim()).expect("tenant trace dump parses");
    let n = dump
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents")
        .len();
    let _ = writeln!(
        out,
        "asserted: adopted id round-trips to Chrome export ({} spans), tenant dump = {n} events, \
         ts/dur nested",
        spans.len()
    );
}

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E18: end-to-end request tracing: overhead, attribution, export =="
    );
    let _ = writeln!(
        out,
        "E14-shaped workload (concurrent clients, fsynced writes + snapshot reads);"
    );
    let _ = writeln!(
        out,
        "walls are best-of-N per observability level, forensics asserted inline."
    );

    let w = Workload {
        clients: if smoke() { 4 } else { 8 },
        tenants: 2,
        iters: if smoke() { 15 } else { 60 },
    };
    let reps = if smoke() { 2 } else { 3 };
    let ops = w.clients * w.iters * 3;
    let _ = writeln!(
        out,
        "workload: {} clients x {} iterations over {} tenants ({ops} ops), best of {reps}",
        w.clients, w.iters, w.tenants
    );

    let prev_level = classic_obs::level();
    let prev_rate = classic_obs::sample_rate();
    classic_obs::set_sample_rate(1.0); // the default head-sampling rate

    // Counters: histograms and accounting, no spans.
    classic_obs::set_level(ObsLevel::Counters);
    let mut counters_best = Duration::MAX;
    for rep in 0..reps {
        let (wall, handle, dir) = run_once(&w, &format!("counters-{rep}"));
        counters_best = counters_best.min(wall);
        handle.shutdown().expect("graceful shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Full: every request traced (rate 1.0). The last rep's server stays
    // up for the forensics; the slowlog is cleared right before it so
    // every retained entry is attributable to this run.
    classic_obs::set_level(ObsLevel::Full);
    let mut full_best = Duration::MAX;
    let mut last: Option<(ServerHandle, std::path::PathBuf)> = None;
    for rep in 0..reps {
        if rep + 1 == reps {
            classic_obs::global_slowlog().clear();
        }
        let (wall, handle, dir) = run_once(&w, &format!("full-{rep}"));
        full_best = full_best.min(wall);
        if rep + 1 == reps {
            last = Some((handle, dir));
        } else {
            handle.shutdown().expect("graceful shutdown");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (handle, dir) = last.expect("final traced server");

    let _ = writeln!(out, "{:>22} {:>12} {:>14}", "level", "best wall s", "ns/op");
    for (name, wall) in [("counters", counters_best), ("full tracing", full_best)] {
        let _ = writeln!(
            out,
            "{:>22} {:>12.3} {:>14.0}",
            name,
            wall.as_secs_f64(),
            wall.as_nanos() as f64 / ops as f64
        );
    }
    let ratio = full_best.as_secs_f64() / counters_best.as_secs_f64().max(1e-9);
    assert!(
        full_best.as_secs_f64() <= counters_best.as_secs_f64() * 1.05 + 0.030,
        "full tracing cost {ratio:.3}x the counters wall (budget 1.05x + 30ms)"
    );
    // The 30 ms slack, as a share of the counters wall: at smoke size it
    // is most of the budget.
    let slack = 0.030 / counters_best.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "asserted: full/counters wall ratio {ratio:.3} within the budget of 1.05x + 30 ms \
         (30 ms = {slack:.3}x the counters wall, so {:.3}x here)",
        1.05 + slack
    );

    assert_tenant_accounting(&handle, &w, &mut out);
    assert_slowlog(&handle, &mut out);
    assert_trace_export(&handle, &mut out);

    handle.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    classic_obs::set_level(prev_level);
    classic_obs::set_sample_rate(prev_rate);
    out
}
