//! One repetition of one workload, run in a process of its own: start a
//! server on a fresh data directory, set it up, time the op stream over
//! loopback sockets, restart the server on what it left on disk, and
//! check every reply on the way.

use crate::gen::{self, Class, Expect, Op, Plan, Stream};
use crate::spans::SpanLog;
use crate::stats;
use crate::wire::{self, LineClient};
use classic_server::{ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

/// Tenant the warm-up ingest of a set-up goes to.
const WARM_TENANT: &str = "warm";

/// What one repetition measured, by metric name, and what it checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
    /// File system the tenants lived on.
    pub data_dir_fs: String,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Removes the repetition's data directory when the repetition ends,
/// by return or by panic.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The requests of one connection, and the tenant it binds to.
struct Work<'a> {
    tenant: String,
    ingest_options: &'a str,
    ops: Vec<&'a Op>,
}

/// One client per stream; or, contended, two clients on the first
/// stream's tenant (an ingest holds its tenant's lock from start to end,
/// so two ingests go to two tenants instead).
fn deal(plan: &Plan, contended: bool) -> Vec<Work<'_>> {
    fn work<'a>(s: &'a Stream, tenant: String, ops: Vec<&'a Op>) -> Work<'a> {
        Work {
            tenant,
            ingest_options: &s.ingest_options,
            ops,
        }
    }
    let first = &plan.streams[0];
    if !contended {
        return plan
            .streams
            .iter()
            .map(|s| work(s, s.tenant.clone(), s.ops.iter().collect()))
            .collect();
    }
    if plan.primary == Class::Ingest {
        return ["", "2"]
            .iter()
            .map(|suffix| {
                work(
                    first,
                    format!("{}{suffix}", first.tenant),
                    first.ops.iter().collect(),
                )
            })
            .collect();
    }
    if let [_, second] = plan.streams.as_slice() {
        return [first, second]
            .iter()
            .map(|s| work(s, first.tenant.clone(), s.ops.iter().collect()))
            .collect();
    }
    // Whole passes, alternately: the requests of one depend on each
    // other (create before assert), passes do not.
    (0..2)
        .map(|c| {
            let passes = first.ops.chunks(plan.pass).skip(c).step_by(2);
            work(first, first.tenant.clone(), passes.flatten().collect())
        })
        .collect()
}

/// How a reply is judged. Contended, two clients interleave on one
/// tenant, so the answer to a read is no longer known in advance.
fn reply_ok(expect: &Expect, reply: &str, contended: bool) -> bool {
    match expect {
        Expect::Ok => reply.starts_with("{\"ok\":true"),
        Expect::Refused => reply.starts_with("{\"ok\":false"),
        Expect::Reply(_) if contended => reply.starts_with("{\"ok\":true"),
        Expect::Reply(want) => reply == want,
        Expect::Accepted(n) => {
            reply.starts_with("{\"ok\":true")
                && reply.contains(&format!("\"accepted\":{n},"))
                && reply.contains("\"rejected\":0,")
        }
    }
}

fn clip(s: &str) -> &str {
    match s.char_indices().nth(160) {
        Some((at, _)) => &s[..at],
        None => s,
    }
}

/// One timed round trip.
struct Trip {
    class: Class,
    started: Instant,
    ended: Instant,
    reply_bytes: usize,
    /// One form, or the rows of a CSV.
    units: usize,
}

/// Send one request and judge the reply.
fn send(
    addr: SocketAddr,
    client: &mut LineClient,
    tenant: &str,
    ingest_options: &str,
    op: &Op,
    contended: bool,
    out: &mut Outcome,
) -> Trip {
    let started = Instant::now();
    let (ok, len, shown) = if op.class == Class::Ingest {
        let target = format!("/ingest?tenant={tenant}&{ingest_options}");
        match wire::http(addr, "POST", &target, op.text.as_bytes()) {
            Ok((200, body)) => (
                reply_ok(&op.expect, body.trim_end(), contended),
                body.len(),
                clip(&body).to_owned(),
            ),
            Ok((status, body)) => (false, body.len(), format!("HTTP {status}: {}", clip(&body))),
            Err(e) => (false, 0, e.to_string()),
        }
    } else {
        match client.request(&op.text) {
            Ok(reply) => (
                reply_ok(&op.expect, reply, contended),
                reply.len(),
                clip(reply).to_owned(),
            ),
            Err(e) => (false, 0, e.to_string()),
        }
    };
    let ended = Instant::now();
    out.check(ok, || format!("{} -> {shown}", clip(&op.text)));
    Trip {
        class: op.class,
        started,
        ended,
        reply_bytes: len,
        units: match op.expect {
            Expect::Accepted(rows) => rows,
            _ => 1,
        },
    }
}

pub fn connect(addr: SocketAddr, tenant: &str, out: &mut Outcome) -> LineClient {
    let mut client = LineClient::connect(addr).expect("connecting to the server just started");
    let bound = client
        .request(&format!("(tenant {tenant})"))
        .is_ok_and(|r| r.starts_with("{\"ok\":true"));
    out.check(bound, || format!("(tenant {tenant}) failed"));
    client
}

fn start(data_dir: &Path) -> ServerHandle {
    classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir.to_owned(),
        ..ServerConfig::default()
    })
    .expect("server starts on a free loopback port")
}

/// Round trips of the timed section.
///
/// The host is shared: its neighbours slow a memory-bound round trip by a
/// fifth for minutes on end and by half for seconds, while between their
/// bursts it runs at its own speed for tens of milliseconds at a time. A
/// connection's requests are therefore passes that all hold the same
/// requests, cut into windows, and the section reports its best pass —
/// each window of it the best seen at that place in a pass: the program's
/// speed where the host left it alone, which a median over the section
/// does not find.
#[derive(Default)]
pub struct Timed {
    /// Forms (CSV rows for an ingest) acknowledged per second in each
    /// connection's best pass, summed over connections.
    pub ops_per_s: f64,
    /// The median round trip of the primary class in the best pass of
    /// the connection where it is lowest.
    pub p50_us: f64,
    /// Every round trip of the section, by class.
    pub latency_us: BTreeMap<Class, Vec<f64>>,
    pub read_reply_bytes: u64,
    pub reads: u64,
}

impl Timed {
    pub fn p(&self, class: Class, p: f64) -> Option<f64> {
        let sample = self.latency_us.get(&class)?;
        Some(stats::percentile(&stats::sorted(sample.clone()), p))
    }
}

/// Set-up: start the server, send schema and preload. Returns when timing
/// may start.
fn set_up(plan: &Plan, data_dir: &Path, contended: bool, out: &mut Outcome) -> ServerHandle {
    let server = start(data_dir);
    let addr = server.local_addr();
    for (ix, stream) in plan.streams.iter().enumerate() {
        // Contended, every stream lands in the first tenant, which takes
        // one schema and every preload.
        let tenant = if contended {
            &plan.streams[0].tenant
        } else {
            &stream.tenant
        };
        let mut client = connect(addr, tenant, out);
        for op in &stream.setup {
            if contended && ix > 0 && op.group == gen::SCHEMA {
                continue;
            }
            let to = if op.class == Class::Ingest {
                WARM_TENANT
            } else {
                tenant
            };
            send(
                addr,
                &mut client,
                to,
                &stream.ingest_options,
                op,
                false,
                out,
            );
        }
    }
    server
}

/// The timed section: one thread per connection, released together.
fn timed(
    plan: &Plan,
    server: &ServerHandle,
    contended: bool,
    mut spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) -> Timed {
    let works = deal(plan, contended);
    let barrier = Barrier::new(works.len());
    let addr = server.local_addr();
    struct Done {
        out: Outcome,
        trips: Vec<Trip>,
    }
    let done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = works
            .iter()
            .map(|work| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut client = connect(addr, &work.tenant, &mut out);
                    let mut trips = Vec::with_capacity(work.ops.len());
                    barrier.wait();
                    for op in &work.ops {
                        trips.push(send(
                            addr,
                            &mut client,
                            &work.tenant,
                            work.ingest_options,
                            op,
                            contended,
                            &mut out,
                        ));
                    }
                    Done { out, trips }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut t = Timed {
        p50_us: f64::INFINITY,
        ..Timed::default()
    };
    for d in &done {
        // The connection's best pass, put together place by place: the
        // window that took least, and the window whose primary round
        // trips have the lowest median.
        let places = plan.pass / plan.window;
        let mut fastest: Vec<Option<(f64, usize)>> = vec![None; places];
        let mut quickest: Vec<Option<(f64, Vec<f64>)>> = vec![None; places];
        for (k, w) in d.trips.chunks(plan.window).enumerate() {
            let units: usize = w.iter().map(|trip| trip.units).sum();
            let wall = (w[w.len() - 1].ended - w[0].started).as_secs_f64();
            if fastest[k % places].is_none_or(|(best, _)| wall < best) {
                fastest[k % places] = Some((wall, units));
            }
            let primary: Vec<f64> = w
                .iter()
                .filter(|trip| trip.class == plan.primary)
                .map(|trip| (trip.ended - trip.started).as_secs_f64() * 1e6)
                .collect();
            if primary.is_empty() {
                continue;
            }
            let median = stats::median(&primary);
            if quickest[k % places]
                .as_ref()
                .is_none_or(|(best, _)| median < *best)
            {
                quickest[k % places] = Some((median, primary));
            }
        }
        let (wall, units) = fastest
            .iter()
            .flatten()
            .fold((0.0, 0), |(wall, units), (w, u)| (wall + w, units + u));
        if units > 0 {
            t.ops_per_s += units as f64 / wall;
        }
        let pooled: Vec<f64> = quickest
            .into_iter()
            .flatten()
            .flat_map(|(_, p)| p)
            .collect();
        if !pooled.is_empty() {
            t.p50_us = t.p50_us.min(stats::median(&pooled));
        }
    }
    let mut request = 0u64;
    for d in done {
        out.attempted += d.out.attempted;
        out.failed += d.out.failed;
        out.notes.extend(d.out.notes);
        for trip in d.trips {
            t.latency_us
                .entry(trip.class)
                .or_default()
                .push((trip.ended - trip.started).as_secs_f64() * 1e6);
            if trip.class == Class::Read {
                t.read_reply_bytes += trip.reply_bytes as u64;
                t.reads += 1;
            }
            if let Some(log) = spans.as_deref_mut() {
                let class = trip.class.name();
                log.record(
                    "wire.request",
                    class,
                    trip.started,
                    trip.ended,
                    None,
                    request,
                );
            }
            request += 1;
        }
    }
    out.notes.truncate(8);
    t
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A `kB` field of `/proc/self/status`, in MiB: `VmHWM`, the peak
/// resident set of this process so far, or `VmRSS`, the current one.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every form the server acknowledged that changes a tenant, in order:
/// what an in-memory replay must reproduce.
fn acknowledged(stream: &Stream) -> impl Iterator<Item = &Op> {
    stream.setup.iter().chain(&stream.ops).filter(|op| {
        !matches!(op.class, Class::Read | Class::Ingest) && op.expect != Expect::Refused
    })
}

/// Reopen a tenant's directory from disk and compare it with an
/// in-memory replay of the forms the server acknowledged: equal derived
/// state, and nothing of a refused form.
fn durable_state_matches(data_dir: &Path, stream: &Stream, extra: &[String]) -> Result<(), String> {
    let log = data_dir.join(&stream.tenant).join("kb.log");
    let store = classic_store::DurableKb::open(&log, |_| {}).map_err(|e| e.to_string())?;
    let mut replayed = classic_kb::Kb::new();
    let forms = acknowledged(stream)
        .map(|op| op.text.as_str())
        .chain(extra.iter().map(String::as_str));
    for form in forms {
        let cmd = classic_lang::parse_one(form).map_err(|e| e.to_string())?;
        classic_lang::eval(&mut replayed, &cmd).map_err(|e| format!("{form}: {e}"))?;
    }
    let on_disk = store.kb().map_err(|e| e.to_string())?;
    if classic_store::same_state(on_disk, &replayed) {
        Ok(())
    } else {
        Err(format!(
            "tenant {} on disk ({} individuals) differs from the replay of its acknowledged forms ({})",
            stream.tenant,
            on_disk.ind_count(),
            replayed.ind_count()
        ))
    }
}

/// One measured repetition. `spans`, when given, receives a
/// `wire.request` span per timed round trip; `while_reopened` runs
/// against the restarted server (the traced pass probes it there) and
/// returns, stream by stream, the forms it had acknowledged.
pub fn measure(
    plan: &Plan,
    data_dir: &Path,
    spans: Option<&mut SpanLog>,
    while_reopened: impl FnOnce(&ServerHandle, &mut Outcome) -> Vec<Vec<String>>,
) -> Outcome {
    let mut out = Outcome::default();
    let resident = status_mib("VmRSS");
    let began = Instant::now();
    let server = set_up(plan, data_dir, false, &mut out);
    out.set("setup_s", began.elapsed().as_secs_f64());
    let preloaded: usize = server
        .shared()
        .all_stats()
        .iter()
        .map(|s| s.individuals)
        .sum();
    out.set(
        "kb.bytes_per_individual",
        (status_mib("VmRSS") - resident).max(0.0) * 1024.0 * 1024.0 / preloaded.max(1) as f64,
    );

    let t = timed(plan, &server, false, spans, &mut out);
    out.set("ops_per_s", t.ops_per_s);
    out.set("p50_us", t.p50_us);
    // Over the whole section, stalls and all, for the table.
    for class in Class::ALL {
        if let (Some(p50), Some(p99)) = (t.p(class, 0.5), t.p(class, 0.99)) {
            out.set(&format!("{}_p50_us", class.name()), p50);
            out.set(&format!("{}_p99_us", class.name()), p99);
        }
    }
    out.set(
        "p99_us",
        out.metrics[&format!("{}_p99_us", plan.primary.name())],
    );
    if t.reads > 0 {
        out.set(
            "reply_bytes_per_read",
            t.read_reply_bytes as f64 / t.reads as f64,
        );
    }

    // The peak is read before the restart: whether the restarted server's
    // threads inherit the heap arenas the first one freed is the
    // allocator's luck, and doubles the figure or does not.
    out.set("rss_peak_mib", status_mib("VmHWM"));
    server.shutdown().expect("graceful shutdown");
    let disk: u64 = plan
        .streams
        .iter()
        .map(|s| dir_bytes(&data_dir.join(&s.tenant)))
        .sum();
    let user: u64 = plan.streams.iter().map(Stream::user_bytes).sum();
    out.set("disk_bytes_per_user_byte", disk as f64 / user as f64);

    // Restart on the same directory; the clock stops at the first
    // correct answer from every tenant.
    let began = Instant::now();
    let server = start(data_dir);
    let addr = server.local_addr();
    for stream in &plan.streams {
        let mut client = connect(addr, &stream.tenant, &mut out);
        let check = &stream.reopen_check;
        send(
            addr,
            &mut client,
            &stream.tenant,
            "",
            check,
            false,
            &mut out,
        );
    }
    out.set("reopen_s", began.elapsed().as_secs_f64());

    let extra = while_reopened(&server, &mut out);
    server.shutdown().expect("graceful shutdown");

    // Where the timed section wrote through the log, what is on disk
    // must be what was acknowledged, no more and no less.
    if plan
        .streams
        .iter()
        .any(|s| s.ops.iter().any(|op| op.class == Class::Write))
    {
        for (ix, stream) in plan.streams.iter().enumerate() {
            let extra = extra.get(ix).map_or(&[][..], Vec::as_slice);
            let verdict = durable_state_matches(data_dir, stream, extra);
            out.check(verdict.is_ok(), || verdict.unwrap_err());
        }
    }
    out
}

/// Throughput with two connections where [`measure`] has one per tenant.
pub fn contended_ops_per_s(plan: &Plan, data_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let server = set_up(plan, data_dir, true, &mut out);
    let t = timed(plan, &server, true, None, &mut out);
    out.set("ops_per_s", t.ops_per_s);
    server.shutdown().expect("graceful shutdown");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Sizes, Workload};

    /// A directory of this test's own under the package's ignored `out/`.
    fn scratch(name: &str) -> DirGuard {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DirGuard(dir)
    }

    fn measured(plan: &Plan, name: &str) -> Outcome {
        let dir = scratch(name);
        measure(plan, &dir.0, None, |_, _| Vec::new())
    }

    #[test]
    fn every_workload_passes_its_oracles_at_smoke_size() {
        for w in Workload::ALL {
            let out = measured(&gen::plan(w, 3, &Sizes::SMOKE), w.name());
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            assert!(out.attempted > 0);
            for m in &crate::report::END_TO_END {
                assert!(
                    out.metrics[m.name] > 0.0,
                    "{} reports no {}",
                    w.name(),
                    m.name
                );
            }
        }
    }

    #[test]
    fn a_wrong_answer_is_counted() {
        let mut plan = gen::plan(Workload::WireMixed, 3, &Sizes::SMOKE);
        let read = plan.streams[0]
            .ops
            .iter_mut()
            .find(|op| op.class == Class::Read)
            .expect("wire-mixed reads");
        let Expect::Reply(want) = &mut read.expect else {
            panic!("reads expect an exact reply");
        };
        *want = want.replacen("\"names\":[", "\"names\":[\"nobody\",", 1);
        assert_eq!(measured(&plan, "wrong-answer").failed, 1);
    }

    #[test]
    fn an_update_accepted_against_expectation_is_counted() {
        // Expect a refusal where the server, rightly, accepts: the reply
        // check fails, and so does the comparison of what is on disk with
        // the replay, which leaves the "refused" form out.
        let mut plan = gen::plan(Workload::WireWriteRules, 3, &Sizes::SMOKE);
        let write = plan.streams[0]
            .ops
            .iter_mut()
            .find(|op| op.text.contains("(FILLS victim "))
            .expect("every crime has a victim");
        write.expect = Expect::Refused;
        assert_eq!(measured(&plan, "accepted").failed, 2);
    }

    #[test]
    fn contended_rounds_run_two_clients() {
        for w in Workload::ALL {
            let dir = scratch(&format!("contended-{}", w.name()));
            let plan = gen::plan(w, 3, &Sizes::SMOKE);
            assert_eq!(deal(&plan, true).len(), 2);
            let out = contended_ops_per_s(&plan, &dir.0);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            assert!(out.metrics["ops_per_s"] > 0.0);
        }
    }
}
