//! The traced pass: where a request's time goes, layer by layer.
//!
//! Layers are measured from outside. Every timed round trip is wrapped
//! in a `wire.request` span; afterwards the same op stream is replayed
//! in this process through the public functions the server itself
//! composes — parse, durable eval or snapshot clone, normalize, classify,
//! retrieve, render — one child span per call, laid inside the request
//! span it explains. A fixed probe stream (create, assert, read, retract)
//! follows the workload's own, so a layer the workload never enters
//! still has a number, taken against the same tenant state.

use crate::gen::{self, Class, Expect, Op, Plan, Sizes, Stream};
use crate::round::{self, Outcome};
use crate::spans::{self, SpanLog};
use crate::stats;
use classic_analyze::AnalysisState;
use classic_ingest::{Format, IngestOptions};
use classic_kb::Kb;
use classic_lang::{Command, Outcome as Reply};
use classic_server::{ServerHandle, WireSession};
use classic_store::DurableKb;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let began = Instant::now();
    let value = f();
    (value, began.elapsed())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        stats::median(sample)
    }
}

// ---- probes of the live server --------------------------------------------

/// Against the restarted server: the probe stream over the wire, then
/// through `WireSession::handle_form` with no socket, then
/// `Tenant::snapshot` right after a write. Returns the forms each
/// stream's tenant acknowledged.
fn probe_live(
    plan: &Plan,
    sizes: &Sizes,
    server: &ServerHandle,
    out: &mut Outcome,
) -> Vec<Vec<String>> {
    let stream = &plan.streams[0];
    let n = sizes.probe_iterations;
    let mut acknowledged = Vec::new();
    let mut wire: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut direct: BTreeMap<Class, Vec<f64>> = BTreeMap::new();

    let mut client = round::connect(server.local_addr(), &stream.tenant, out);
    let shared = Arc::clone(server.shared());
    let mut session = WireSession::new(Arc::clone(&shared)).expect("session on a running server");
    session.handle_form(&format!("(tenant {})", stream.tenant));
    for i in 0..2 * n {
        for (class, form) in stream.probe.forms(i) {
            let (ok, spent) = if i < n {
                let (reply, spent) = timed(|| client.request(&form).map(str::to_owned));
                (reply.is_ok_and(|r| r.starts_with("{\"ok\":true")), spent)
            } else {
                let ((reply, _), spent) = timed(|| session.handle_form(&form));
                (reply.starts_with("{\"ok\":true"), spent)
            };
            out.check(ok, || format!("probe form refused: {form}"));
            let sample = if i < n { &mut wire } else { &mut direct };
            sample.entry(class).or_default().push(us(spent));
            if class != Class::Read {
                acknowledged.push(form);
            }
        }
    }
    let mut front = Vec::new();
    for class in [Class::Create, Class::Write, Class::Read, Class::Retract] {
        let (w, d) = (p50(&wire[&class]), p50(&direct[&class]));
        out.set(&format!("server.{}_p50_us", class.name()), w);
        out.set(&format!("server.handle_form_{}_us", class.name()), d);
        front.push(w - d);
    }
    // Socket, framing and the hand-off to a worker: what the wire adds to
    // handle_form, the median over the four classes.
    out.set("server.front_us", p50(&front));

    let tenant = shared.tenant(&stream.tenant).expect("tenant is open");
    let mut cuts = Vec::new();
    for i in 2 * n..3 * n {
        let [(_, create), ..] = stream.probe.forms(i);
        let cmd = classic_lang::parse_one(&create).expect("probe forms parse");
        let wrote = tenant.execute(&cmd).is_ok();
        out.check(wrote, || format!("probe form refused: {create}"));
        acknowledged.push(create);
        let (cut, spent) = timed(|| tenant.snapshot());
        out.check(cut.is_ok(), || "snapshot cut failed".to_owned());
        cuts.push(us(spent));
    }
    out.set("server.snapshot_cut_us", p50(&cuts));

    let mut per_stream = vec![Vec::new(); plan.streams.len()];
    per_stream[0] = acknowledged;
    per_stream
}

// ---- the replay ------------------------------------------------------------

/// The state the replay keeps where the server keeps a tenant: a durable
/// store, the snapshot readers share, the analysis state — and a plain
/// in-memory KB told the same things, which sizes the KB's share of a
/// durable write.
struct Shadow {
    store: DurableKb,
    snapshot: Option<Kb>,
    analysis: AnalysisState,
    twin: Kb,
}

/// Exact counts the replay adds up, from the program's own reports.
#[derive(Default)]
struct Counts {
    reads: u64,
    answers: u64,
    tested: u64,
    free: u64,
    subsume_tests: u64,
    writes: u64,
    steps: u64,
    rules_fired: u64,
    written_bytes: u64,
    bulk_rows: u64,
    bulk_ns: u64,
    bulk_chunks: u64,
    bulk_fallbacks: u64,
    ingest_rows: u64,
}

/// Lays replayed calls end to end inside the request span they explain.
struct Cursor<'a> {
    log: &'a mut SpanLog,
    request: u64,
    at_ns: u64,
}

impl Cursor<'_> {
    /// Run `f` as a span named `name` under `parent`.
    fn call<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, usize) {
        let (value, spent) = timed(f);
        let end = self.at_ns + spent.as_nanos() as u64;
        let ix = self
            .log
            .push(name, "", self.at_ns, end, Some(parent), self.request);
        self.at_ns = end;
        (value, ix)
    }

    /// A call that ran apart, shown as the first part of span `inside`:
    /// the share of that span the call accounts for.
    fn share(&mut self, name: &'static str, inside: usize, spent: Duration) {
        let start = self.log.spans[inside].start_ns;
        let end = (start + spent.as_nanos() as u64).min(self.log.spans[inside].end_ns);
        self.log
            .push(name, "", start, end, Some(inside), self.request);
    }
}

fn tests_so_far(kb: &Kb) -> u64 {
    let k = kb.kernel_stats();
    k.memo_hits + k.memo_misses
}

/// The options of a `POST /ingest` query string, as the server reads them.
fn ingest_options(query: &str) -> IngestOptions {
    let get = |key: &str| {
        query
            .split('&')
            .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
    };
    IngestOptions {
        format: Format::Csv,
        entity: get("entity").unwrap_or("record").to_owned(),
        id_column: get("id").map(str::to_owned),
        infer: get("infer") == Some("1"),
        source: "benchmark".to_owned(),
    }
}

impl Shadow {
    /// A mutating form: what `Tenant::execute` does around
    /// `DurableKb::eval_durable`.
    fn write(
        &mut self,
        c: &mut Cursor,
        root: usize,
        op: &Op,
        counts: &mut Counts,
        out: &mut Outcome,
    ) {
        let (cmd, _) = c.call("lang.parse", root, || classic_lang::parse_one(&op.text));
        let cmd = cmd.expect("generated forms parse");
        let target = match &cmd {
            Command::AssertInd(name, _) | Command::RetractInd(name, _) => Some(name.clone()),
            _ => None,
        };
        if let (Command::RetractInd(..), Some(name)) = (&cmd, &target) {
            let kb = self.store.kb().expect("shadow store is hydrated");
            c.call("analyze.mark_dirty", root, || {
                classic_lang::mark_individual_dirty(kb, &mut self.analysis, name)
            });
        }
        // The same command on the in-memory twin: the KB's own work.
        let (told, in_memory) = timed(|| classic_lang::eval(&mut self.twin, &cmd));
        let (reply, durable) = c.call("store.eval_durable", root, || self.store.eval_durable(&cmd));
        let kb_span = match op.class {
            Class::Create => "kb.create",
            Class::Retract => "kb.retract",
            _ => "kb.assert",
        };
        c.share(kb_span, durable, in_memory);
        let refused = op.expect == Expect::Refused;
        out.check(reply.is_ok() != refused && told.is_ok() != refused, || {
            format!("replay disagrees with the expectation on {}", op.text)
        });
        if let (Command::AssertInd(..), Some(name)) = (&cmd, &target) {
            let kb = self.store.kb().expect("shadow store is hydrated");
            c.call("analyze.mark_dirty", root, || {
                classic_lang::mark_individual_dirty(kb, &mut self.analysis, name)
            });
        }
        if self.snapshot.is_some() {
            c.call("kb.drop", root, || self.snapshot = None);
        }
        let Ok(reply) = reply else { return };
        counts.writes += 1;
        counts.written_bytes += op.text.len() as u64;
        match &reply {
            Reply::Asserted(r) => {
                counts.steps += r.steps;
                counts.rules_fired += r.rules_fired;
            }
            Reply::Retracted(r) => counts.steps += r.steps,
            _ => {}
        }
        c.call("lang.render", root, || reply.render_json());
    }

    /// A `retrieve`: what `Tenant::execute` does for a read, taken apart
    /// into the calls `classic_lang::eval` makes.
    fn read(
        &mut self,
        c: &mut Cursor,
        root: usize,
        op: &Op,
        counts: &mut Counts,
        out: &mut Outcome,
    ) {
        let (cmd, _) = c.call("lang.parse", root, || classic_lang::parse_one(&op.text));
        let Ok(Command::Retrieve(query)) = cmd else {
            panic!("generated reads are retrieve forms: {}", op.text);
        };
        if self.snapshot.is_none() {
            let primary = self.store.kb().expect("shadow store is hydrated");
            let (cut, _) = c.call("kb.clone", root, || primary.clone());
            self.snapshot = Some(cut);
        }
        let kb = self.snapshot.as_mut().expect("snapshot just cut");
        let tests_before = tests_so_far(kb);
        let (marked, _) = c.call("lang.resolve", root, || query.resolve(kb.schema_mut()));
        let concept = marked.expect("generated queries resolve").concept;
        let (nf, _) = c.call("core.normalize", root, || kb.normalize(&concept));
        let nf = nf.expect("generated queries are coherent");
        // retrieve_nf classifies the query itself; one more call, apart,
        // sizes that share of it.
        let (_, classify) = timed(|| kb.taxonomy().classify(&nf));
        let (answers, retrieve) = c.call("query.retrieve", root, || {
            classic_query::retrieve_nf(kb, &nf)
        });
        c.share("core.classify", retrieve, classify);
        let answers = answers.expect("retrieval succeeds");
        let (names, _) = c.call("lang.names", root, || {
            let symbols = &kb.schema().symbols;
            answers
                .known
                .iter()
                .map(|&id| symbols.individual_name(kb.ind(id).name).to_owned())
                .collect::<Vec<String>>()
        });
        let (rendered, _) = c.call("lang.render", root, || {
            Reply::Individuals(names).render_json()
        });
        if let Expect::Reply(want) = &op.expect {
            let same = format!("{{\"ok\":true,\"result\":{rendered}}}") == *want;
            out.check(same, || format!("replayed answer differs on {}", op.text));
        }
        counts.reads += 1;
        counts.answers += answers.known.len() as u64;
        counts.tested += answers.stats.tested as u64;
        counts.free += answers.stats.free as u64;
        // The extra classify call ran its tests a second time.
        counts.subsume_tests +=
            tests_so_far(kb) - tests_before - answers.stats.classify_tests as u64;
    }

    /// `POST /ingest`: plan, then the segment-tier load.
    fn ingest(
        &mut self,
        c: &mut Cursor,
        root: usize,
        csv: &str,
        options: &IngestOptions,
        counts: &mut Counts,
        out: &mut Outcome,
    ) {
        let (plan, _) = c.call("ingest.plan", root, || {
            classic_ingest::plan(csv.as_bytes(), options)
        });
        let plan = plan.expect("generated CSV plans");
        let (in_memory, spent) = timed(|| classic_ingest::run_in_memory(&plan));
        let (twin, report) = in_memory.expect("generated rows load");
        self.twin = twin;
        counts.bulk_rows += report.rows as u64;
        counts.bulk_ns += spent.as_nanos() as u64;
        counts.bulk_chunks += report.chunks;
        counts.bulk_fallbacks += report.sequential_fallbacks;
        let (loaded, run) = c.call("ingest.run_durable", root, || {
            classic_ingest::run_durable(&mut self.store, &plan)
        });
        c.share("kb.bulk", run, spent);
        let accepted = loaded.map_or(0, |l| l.report.accepted);
        out.check(accepted == plan.rows(), || {
            "replayed ingest rejected rows".to_owned()
        });
        counts.ingest_rows += plan.rows() as u64;
        self.snapshot = None;
    }

    /// A set-up form, untimed except for what `(bulk-load …)` costs the
    /// in-memory twin.
    fn set_up(&mut self, op: &Op, counts: &mut Counts) {
        if matches!(op.class, Class::Read | Class::Ingest) {
            return;
        }
        let cmd = classic_lang::parse_one(&op.text).expect("generated forms parse");
        let (told, spent) = timed(|| classic_lang::eval(&mut self.twin, &cmd));
        if let Ok(Reply::BulkLoaded(report)) = told {
            counts.bulk_rows += report.rows as u64;
            counts.bulk_ns += spent.as_nanos() as u64;
            counts.bulk_chunks += report.chunks;
            counts.bulk_fallbacks += report.sequential_fallbacks;
        }
        self.store
            .eval_durable(&cmd)
            .expect("set-up forms are accepted");
    }
}

/// Median, over the requests of one class, of the time their child spans
/// account for layer by layer; printed as the attribution table.
fn attribution(log: &SpanLog, roots: &[usize], label: &str) -> (f64, f64, String) {
    let selfs = spans::self_times_ns(&log.spans);
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut explained = Vec::new();
    let mut wire = Vec::new();
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (ix, s) in log.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(ix);
        }
    }
    for &root in roots {
        let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
        let mut stack = children.get(&root).cloned().unwrap_or_default();
        while let Some(ix) = stack.pop() {
            let layer = log.spans[ix].name.split('.').next().unwrap_or("");
            *per_layer.entry(layer).or_default() += selfs[ix] as f64 / 1000.0;
            stack.extend(children.get(&ix).into_iter().flatten());
        }
        explained.push(per_layer.values().sum::<f64>());
        wire.push(log.spans[root].duration_ns() as f64 / 1000.0);
        for (layer, t) in per_layer {
            by_layer.entry(layer).or_default().push(t);
        }
    }
    let (wire_p50, explained_p50) = (p50(&wire), p50(&explained));
    let mut table = format!(
        "  {label:<8} n={:<5} wire p50 {wire_p50:>10.1} us\n",
        roots.len()
    );
    for (layer, sample) in &by_layer {
        // A layer absent from a request spent nothing there.
        let mut sample = sample.clone();
        sample.resize(roots.len(), 0.0);
        let t = p50(&sample);
        table.push_str(&format!(
            "    {layer:<10} self p50 {t:>10.1} us  {:>5.1}%\n",
            100.0 * t / wire_p50
        ));
    }
    table.push_str(&format!(
        "    {:<10}          {:>10.1} us  {:>5.1}%\n",
        "residual",
        wire_p50 - explained_p50,
        100.0 * (1.0 - explained_p50 / wire_p50)
    ));
    (wire_p50, explained_p50, table)
}

/// Open the shadow store again, fold its log into segments, open it
/// paged: what restart and compaction cost at this tenant's size.
fn probe_store(log_path: &Path, store: DurableKb, stream: &Stream, out: &mut Outcome) {
    drop(store);
    let (opened, spent) = timed(|| DurableKb::open(log_path, |_| {}));
    let mut store = opened.expect("shadow store reopens");
    out.set("store.open_us", us(spent));
    out.set(
        "store.replay_ops_per_s",
        store.pending_ops() as f64 / spent.as_secs_f64(),
    );

    let (started, render) = timed(|| store.compact_in_background());
    out.check(started.is_ok_and(|s| s), || {
        "compaction did not start".to_owned()
    });
    let (report, publish) = timed(|| store.wait_for_compaction());
    out.set("store.compact_render_us", us(render));
    out.set("store.compact_publish_us", us(publish));
    let report = report.ok().flatten();
    out.check(report.is_some(), || "compaction did not finish".to_owned());
    out.set(
        "store.segments_written",
        report.map_or(0.0, |r| r.segments_written as f64),
    );
    out.set(
        "store.segments_reused",
        report.map_or(0.0, |r| r.segments_reused as f64),
    );
    drop(store);

    let (paged, spent) = timed(|| DurableKb::open_paged(log_path, |_| {}));
    let mut paged = paged.expect("shadow store opens paged");
    out.set("store.open_paged_us", us(spent));
    let (hydrated, spent) = timed(|| paged.hydrate_for(&stream.sample_individual));
    out.check(hydrated.is_ok(), || "hydrate_for failed".to_owned());
    out.set("store.hydrate_for_us", us(spent));
}

/// The traced repetition: a measured round with request spans, probes of
/// the live server, the replay, the store probes; writes the trace file.
pub fn traced(
    plan: &Plan,
    sizes: &Sizes,
    dir: &Path,
    device_dir: &Path,
    trace_file: &Path,
) -> Outcome {
    let mut log = SpanLog::new();
    let mut out = round::measure(plan, &dir.join("server"), Some(&mut log), |live, out| {
        probe_live(plan, sizes, live, out)
    });
    out.set(
        "lang.reply_bytes_per_read",
        out.metrics
            .get("reply_bytes_per_read")
            .copied()
            .unwrap_or(0.0),
    );
    out.set("server.p99_us", out.metrics["p99_us"]);
    out.set("server.reopen_s", out.metrics["reopen_s"]);

    let stream = &plan.streams[0];
    // Reads that found the shared snapshot stale: those that follow a
    // write. The set-up of a read-only stream ends with reads.
    let mut stale = !matches!(stream.setup.last(), Some(op) if op.class == Class::Read);
    let (mut reads, mut cuts) = (0u32, 0u32);
    for op in &stream.ops {
        if op.class == Class::Read {
            reads += 1;
            cuts += u32::from(stale);
            stale = false;
        } else if op.expect != Expect::Refused {
            stale = true;
        }
    }
    out.set(
        "server.snapshot_cuts_per_read",
        f64::from(cuts) / f64::from(reads.max(1)),
    );

    let shadow_dir = dir.join("shadow");
    std::fs::create_dir_all(&shadow_dir).expect("creating the shadow directory");
    let log_path = shadow_dir.join("kb.log");
    let mut shadow = Shadow {
        store: DurableKb::open(&log_path, |_| {}).expect("fresh shadow store"),
        snapshot: None,
        analysis: AnalysisState::new(),
        twin: Kb::new(),
    };
    let mut counts = Counts::default();
    for op in &stream.setup {
        shadow.set_up(op, &mut counts);
    }
    let options = ingest_options(&stream.ingest_options);
    let appends_before = store_counters(&shadow.store);
    let tests_before = shadow.store.kb().expect("hydrated").kernel_stats();

    // The stream's own requests are the first spans of the log, in order.
    let mut roots: BTreeMap<Class, Vec<usize>> = BTreeMap::new();
    let replay_one = |shadow: &mut Shadow,
                      log: &mut SpanLog,
                      root: usize,
                      op: &Op,
                      counts: &mut Counts,
                      out: &mut Outcome| {
        let mut c = Cursor {
            at_ns: log.spans[root].start_ns,
            request: log.spans[root].request,
            log,
        };
        match op.class {
            Class::Read => shadow.read(&mut c, root, op, counts, out),
            Class::Ingest => shadow.ingest(&mut c, root, &op.text, &options, counts, out),
            _ => shadow.write(&mut c, root, op, counts, out),
        }
        c.at_ns
    };
    for (k, op) in stream.ops.iter().enumerate() {
        assert!(log.spans[k].name == "wire.request" && log.spans[k].request == k as u64);
        replay_one(&mut shadow, &mut log, k, op, &mut counts, &mut out);
        roots.entry(op.class).or_default().push(k);
    }
    // The probe stream has no round trip to sit in: each request gets a
    // root span as long as its calls.
    let mut request = log.spans.len() as u64;
    let mut at_ns = log.spans.last().map_or(0, |s| s.end_ns);
    for i in 3 * sizes.probe_iterations..4 * sizes.probe_iterations {
        for (class, text) in stream.probe.forms(i) {
            let op = Op {
                class,
                group: 0,
                text,
                expect: Expect::Ok,
            };
            let root = log.push("probe.request", class.name(), at_ns, at_ns, None, request);
            at_ns = replay_one(&mut shadow, &mut log, root, &op, &mut counts, &mut out);
            log.spans[root].end_ns = at_ns;
            request += 1;
        }
    }
    // A workload that ingests nothing still says what ingest costs: a
    // reference CSV into a store of its own.
    if counts.ingest_rows == 0 {
        let reference_dir = dir.join("reference");
        std::fs::create_dir_all(&reference_dir).expect("creating the reference directory");
        let mut reference = Shadow {
            store: DurableKb::open(reference_dir.join("kb.log"), |_| {}).expect("fresh store"),
            snapshot: None,
            analysis: AnalysisState::new(),
            twin: Kb::new(),
        };
        let csv = gen::reference_csv(1, sizes.bulk_warm_rows);
        let options = ingest_options(gen::INGEST_OPTIONS);
        let root = log.push(
            "probe.request",
            Class::Ingest.name(),
            at_ns,
            at_ns,
            None,
            request,
        );
        let mut c = Cursor {
            at_ns,
            request,
            log: &mut log,
        };
        // The preload already said what a bulk fixpoint costs this KB.
        let mut apart = Counts::default();
        reference.ingest(&mut c, root, &csv, &options, &mut apart, &mut out);
        log.spans[root].end_ns = c.at_ns;
        counts.ingest_rows = apart.ingest_rows;
    }

    // Layer metrics: the median duration of each kind of span.
    let by_name = |name: &str| -> Vec<f64> {
        log.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1000.0)
            .collect()
    };
    for (metric, span) in [
        ("core.normalize_us", "core.normalize"),
        ("core.classify_us", "core.classify"),
        ("kb.assert_us", "kb.assert"),
        ("kb.retract_us", "kb.retract"),
        ("kb.clone_us", "kb.clone"),
        ("kb.drop_us", "kb.drop"),
        ("query.retrieve_us", "query.retrieve"),
        ("lang.parse_us", "lang.parse"),
        ("lang.render_us", "lang.render"),
        ("analyze.mark_dirty_us", "analyze.mark_dirty"),
    ] {
        out.set(metric, p50(&by_name(span)));
    }
    // What the durable write adds to the KB's own work: log append, fsync.
    let selfs = spans::self_times_ns(&log.spans);
    let appends: Vec<f64> = log
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "store.eval_durable")
        .map(|(_, &t)| t as f64 / 1000.0)
        .collect();
    out.set("store.append_us", p50(&appends));
    out.set(
        "store.append_disk_us",
        append_on_device_us(device_dir, sizes.probe_iterations),
    );
    let rows = counts.ingest_rows.max(1) as f64;
    out.set(
        "ingest.plan_us_per_row",
        by_name("ingest.plan").iter().sum::<f64>() / rows,
    );
    out.set(
        "ingest.run_us_per_row",
        by_name("ingest.run_durable").iter().sum::<f64>() / rows,
    );

    // Exact counts, from the program's own counters and reports.
    let kb = shadow.store.kb().expect("hydrated");
    let kernel = kb.kernel_stats();
    let hits = kernel.memo_hits - tests_before.memo_hits;
    let misses = kernel.memo_misses - tests_before.memo_misses;
    out.set(
        "core.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("core.nf_interned", kernel.interned as f64);
    out.set(
        "core.subsume_tests_per_read",
        counts.subsume_tests as f64 / counts.reads.max(1) as f64,
    );
    out.set(
        "query.tested_per_answer",
        counts.tested as f64 / counts.answers.max(1) as f64,
    );
    out.set(
        "query.free_share",
        counts.free as f64 / counts.answers.max(1) as f64,
    );
    out.set(
        "kb.propagation_steps_per_write",
        counts.steps as f64 / counts.writes.max(1) as f64,
    );
    out.set(
        "kb.rules_fired_per_write",
        counts.rules_fired as f64 / counts.writes.max(1) as f64,
    );
    out.set(
        "kb.bulk_rows_per_s",
        counts.bulk_rows as f64 / (counts.bulk_ns.max(1) as f64 / 1e9),
    );
    out.set("kb.bulk_chunks", counts.bulk_chunks as f64);
    out.set("kb.bulk_fallbacks", counts.bulk_fallbacks as f64);
    let appends_after = store_counters(&shadow.store);
    out.set(
        "store.appends_per_write",
        (appends_after.0 - appends_before.0) as f64 / counts.writes.max(1) as f64,
    );
    out.set(
        "store.log_bytes_per_user_byte",
        (appends_after.1 - appends_before.1) as f64 / counts.written_bytes.max(1) as f64,
    );

    // Where the time of a round trip goes.
    eprintln!(
        "-- {}: layer self time per request class (traced pass)",
        plan.workload.name()
    );
    let mut unattributed = 0.0;
    for (class, roots) in &roots {
        let (wire, explained, table) = attribution(&log, roots, class.name());
        eprint!("{table}");
        if *class == plan.primary {
            unattributed = 1.0 - explained / wire;
        }
    }
    out.set("server.unattributed_share", unattributed);

    let Shadow { store, .. } = shadow;
    probe_store(&log_path, store, stream, &mut out);

    let written = std::fs::write(trace_file, spans::chrome_json(&log.spans));
    out.check(written.is_ok(), || {
        format!("cannot write {}", trace_file.display())
    });
    out
}

/// What a durable write costs on the checkout's own device, whatever the
/// tenants live on: `create-ind` through `DurableKb::eval_durable` on a
/// store under `device_dir`, minus the same form on an in-memory KB.
fn append_on_device_us(device_dir: &Path, n: usize) -> f64 {
    std::fs::create_dir_all(device_dir).expect("creating the device directory");
    let mut store = DurableKb::open(device_dir.join("kb.log"), |_| {}).expect("fresh store");
    let mut twin = Kb::new();
    let sample: Vec<f64> = (0..4 * n)
        .map(|i| {
            let cmd = Command::CreateInd(format!("device-{i}"));
            let (_, in_memory) = timed(|| classic_lang::eval(&mut twin, &cmd));
            let (reply, durable) = timed(|| store.eval_durable(&cmd));
            reply.expect("a fresh name is accepted");
            us(durable.saturating_sub(in_memory))
        })
        .collect();
    p50(&sample)
}

/// `classic_store_appends_total` and `classic_store_append_bytes_total`
/// of the store's KB.
fn store_counters(store: &DurableKb) -> (u64, u64) {
    let snapshot = store.kb().expect("hydrated").metrics().snapshot();
    let get = |name: &str| snapshot.counters.get(name).map_or(0, |(_, v)| *v);
    (
        get("classic_store_appends_total"),
        get("classic_store_append_bytes_total"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use crate::report::PER_LAYER;
    use classic_server::Json;

    #[test]
    fn traced_pass_reports_every_layer_and_writes_a_trace() {
        // The two ratios against the plain and the contended repetition
        // are the runner's to compute.
        let from_runner = ["obs.trace_overhead", "server.two_client_scaling"];
        for w in Workload::ALL {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{}-traced-{}", std::process::id(), w.name()));
            let _ = std::fs::remove_dir_all(&dir);
            let _cleanup = round::DirGuard(dir.clone());
            std::fs::create_dir_all(&dir).expect("test directory");
            let trace_file = dir.join("trace.json");
            let sizes = Sizes::SMOKE;
            let plan = gen::plan(w, 5, &sizes);
            let out = traced(
                &plan,
                &sizes,
                &dir.join("run"),
                &dir.join("device"),
                &trace_file,
            );
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            // A replay slower than the round trip it explains, or a wire
            // round trip faster than handle_form, gives a negative
            // difference; everything else is a time or a count.
            let differences = ["server.unattributed_share", "server.front_us"];
            for m in PER_LAYER.iter().filter(|m| !from_runner.contains(&m.name)) {
                let value = out.metrics.get(m.name);
                assert!(
                    value.is_some_and(
                        |v| v.is_finite() && (*v >= 0.0 || differences.contains(&m.name))
                    ),
                    "{} reports {} as {value:?}",
                    w.name(),
                    m.name
                );
            }
            let share = out.metrics["server.unattributed_share"];
            assert!(
                share < 1.0,
                "{}: nothing of a round trip is explained",
                w.name()
            );

            let trace = std::fs::read_to_string(&trace_file).expect("trace file");
            let json = Json::parse(&trace).expect("the trace is JSON");
            let events = json
                .get("traceEvents")
                .and_then(Json::as_arr)
                .expect("events");
            let named = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                    .count()
            };
            assert_eq!(
                named("wire.request"),
                plan.streams.iter().map(|s| s.ops.len()).sum()
            );
            assert_eq!(
                named("lang.parse"),
                plan.streams[0].ops.len() + 4 * sizes.probe_iterations
                    - plan.streams[0]
                        .ops
                        .iter()
                        .filter(|op| op.class == Class::Ingest)
                        .count()
            );
        }
    }
}
