//! End-to-end protocol tests: every command over the wire, tenant
//! isolation, snapshot isolation across compaction, sandbox sessions,
//! the HTTP endpoints, and durability across a server restart.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use classic_server::{Json, ServerConfig, ServerHandle};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("classic-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn start(dir: &Path) -> ServerHandle {
    start_with(dir, ServerConfig::default())
}

fn start_with(dir: &Path, config: ServerConfig) -> ServerHandle {
    classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.to_path_buf(),
        workers: 4,
        ..config
    })
    .expect("server starts")
}

/// A line-protocol client: send one form, read one JSON reply line.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        Client {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, form: &str) -> Json {
        let stream = self.reader.get_mut();
        stream.write_all(form.as_bytes()).expect("send form");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    /// Send, assert `ok:true`, return the `result` object.
    fn ok(&mut self, form: &str) -> Json {
        let reply = self.send(form);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "form {form:?} failed: {reply:?}"
        );
        reply.get("result").expect("ok reply has result").clone()
    }

    /// Send, assert `ok:false`, return the error message.
    fn err(&mut self, form: &str) -> String {
        let reply = self.send(form);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "form {form:?} unexpectedly succeeded: {reply:?}"
        );
        reply
            .get("error")
            .and_then(Json::as_str)
            .expect("error reply has message")
            .to_owned()
    }
}

fn result_type(result: &Json) -> String {
    result
        .get("type")
        .and_then(Json::as_str)
        .expect("result has a type tag")
        .to_owned()
}

fn names_of(result: &Json) -> Vec<String> {
    result
        .get("names")
        .and_then(Json::as_arr)
        .expect("individuals result has names")
        .iter()
        .map(|j| j.as_str().expect("name is a string").to_owned())
        .collect()
}

/// Every `Command` variant crosses the wire and comes back as
/// well-typed JSON. This is the protocol round-trip matrix: surface
/// form in, `{"ok":true,"result":{"type":...}}` out, with the type tag
/// matching what `Outcome::render_json` promises for that command.
#[test]
fn every_command_round_trips_over_the_wire() {
    let dir = tmpdir("matrix");
    let handle = start(&dir);
    let mut c = Client::connect(&handle);

    // (command form, expected result type) in execution order; later
    // commands depend on state the earlier ones built.
    let matrix: &[(&str, &str)] = &[
        // Schema mutations.
        ("(define-role child)", "ok"),
        ("(define-attribute domicile)", "ok"),
        ("(define-concept PERSON (PRIMITIVE THING person))", "ok"),
        (
            "(define-concept PARENT (AND PERSON (AT-LEAST 1 child)))",
            "ok",
        ),
        // Individual mutations.
        ("(create-ind Mary)", "ok"),
        (
            "(assert-ind Mary (AND PERSON (FILLS child Bob)))",
            "asserted",
        ),
        ("(assert-ind Bob PERSON)", "asserted"),
        (
            "(assert-rule PARENT (AT-LEAST 1 domicile))",
            "rule-asserted",
        ),
        // Rule bookkeeping.
        ("(list-rules)", "description"),
        // Queries, all three answer modes.
        ("(retrieve PARENT)", "individuals"),
        ("(instances PARENT)", "individuals"),
        ("(possible PARENT)", "individuals"),
        (
            "(ask-necessary-set (AND PARENT (ALL child ?:PERSON)))",
            "individuals",
        ),
        (
            "(ask-description (AND PARENT (ALL child ?:PERSON)))",
            "description",
        ),
        // Terminological questions.
        ("(subsumes? PERSON PARENT)", "bool"),
        (
            "(equivalent? PARENT (AND PERSON (AT-LEAST 1 child)))",
            "bool",
        ),
        ("(disjoint? PERSON PARENT)", "bool"),
        // Aspects.
        ("(concept-aspect PARENT AT-LEAST child)", "aspect"),
        ("(ind-aspect Mary FILLS child)", "aspect"),
        // Introspection.
        ("(describe Mary)", "description"),
        ("(parents PARENT)", "concepts"),
        ("(children PERSON)", "concepts"),
        ("(classify (AND PERSON (AT-LEAST 2 child)))", "description"),
        ("(why? Mary PARENT)", "description"),
        ("(what-if? Mary (AT-MOST 1 child))", "description"),
        ("(provenance Mary)", "description"),
        // Observability.
        ("(obs-stats)", "description"),
        ("(obs-stats json)", "description"),
        ("(obs-trace *)", "description"),
        ("(obs-level)", "description"),
        ("(obs-reset)", "ok"),
        // Lint.
        ("(lint-kb)", "lint"),
        // Retractions, by form and by id.
        (
            "(retract-ind Mary (AND PERSON (FILLS child Bob)))",
            "retracted",
        ),
        ("(retract-rule PARENT (AT-LEAST 1 domicile))", "retracted"),
        // Session meta commands.
        ("(ping)", "pong"),
    ];
    for (form, want) in matrix {
        let result = c.ok(form);
        assert_eq!(
            result_type(&result),
            *want,
            "result type mismatch for {form:?}: {result:?}"
        );
    }

    // Spot-check payloads, not just type tags. The matrix ended by
    // retracting Mary's whole told description, so only Bob (asserted
    // PERSON directly) remains a known PERSON.
    let r = c.ok("(retrieve PERSON)");
    assert_eq!(names_of(&r), ["Bob"]);

    let r = c.ok("(subsumes? PERSON PARENT)");
    assert_eq!(r.get("value").and_then(Json::as_bool), Some(true));

    // Retraction above removed the only child filler: no longer a PARENT.
    let r = c.ok("(retrieve PARENT)");
    assert_eq!(names_of(&r), Vec::<String>::new());

    let r = c.ok("(concept-aspect PARENT AT-LEAST child)");
    let aspect = r.get("value").expect("aspect value");
    assert_eq!(aspect.get("kind").and_then(Json::as_str), Some("bound"));
    assert_eq!(aspect.get("n").and_then(Json::as_num), Some(1.0));

    // A second rule, retracted by id this time.
    let r = c.ok("(assert-rule PARENT (AT-LEAST 1 domicile))");
    let id = r.get("id").and_then(Json::as_num).expect("rule id") as usize;
    let r = c.ok(&format!("(retract-rule {id})"));
    assert_eq!(result_type(&r), "retracted");

    // Errors come back as ok:false with a message, connection intact.
    let msg = c.err("(retrieve NO-SUCH-CONCEPT)");
    assert!(msg.contains("undefined concept"), "unhelpful error: {msg}");
    let msg = c.err("(frobnicate)");
    assert!(msg.contains("frobnicate"), "unhelpful error: {msg}");
    assert_eq!(result_type(&c.ok("(ping)")), "pong");

    let r = c.ok("(quit)");
    assert_eq!(result_type(&r), "bye");
    handle.shutdown().expect("clean shutdown");
}

/// Two tenants in one process share nothing: schemas, individuals, and
/// on-disk directories are fully separate.
#[test]
fn tenants_are_isolated() {
    let dir = tmpdir("tenants");
    let handle = start(&dir);

    let mut a = Client::connect(&handle);
    a.ok("(tenant alpha)");
    a.ok("(define-role child)");
    a.ok("(define-concept PERSON (PRIMITIVE THING person))");
    a.ok("(create-ind Mary)");
    a.ok("(assert-ind Mary PERSON)");

    let mut b = Client::connect(&handle);
    b.ok("(tenant beta)");
    // alpha's schema is invisible here.
    let msg = b.err("(retrieve PERSON)");
    assert!(msg.contains("undefined concept"), "unhelpful error: {msg}");
    // Same names, different universe: no clash with alpha's Mary.
    b.ok("(define-concept PERSON (PRIMITIVE THING person))");
    b.ok("(create-ind Mary)");

    // alpha still answers with its own Mary.
    let r = a.ok("(retrieve PERSON)");
    assert_eq!(names_of(&r), ["Mary"]);
    // beta's Mary has nothing asserted, so PERSON has no known instances.
    let r = b.ok("(retrieve PERSON)");
    assert_eq!(names_of(&r), Vec::<String>::new());

    // Invalid tenant names are rejected before touching the filesystem.
    let msg = a.err("(tenant ../escape)");
    assert!(msg.contains("tenant name"), "unhelpful error: {msg}");

    handle.shutdown().expect("clean shutdown");
    assert!(dir.join("alpha").join("kb.log").is_file());
    assert!(dir.join("beta").join("kb.log").is_file());
}

/// A reader pinned at generation G keeps a consistent view while the
/// store compacts to G+1 and a writer lands new facts: the old
/// snapshot never sees them, a fresh snapshot does.
#[test]
fn snapshots_pin_generation_across_compaction() {
    let dir = tmpdir("snapshot");
    let handle = start(&dir);
    let shared = handle.shared().clone();
    let tenant = shared.tenant("pinned").expect("tenant opens");

    let run = |form: &str| {
        for cmd in classic_lang::parse(form).expect("parse") {
            tenant.execute(&cmd).expect("execute");
        }
    };
    run("(define-role child)");
    run("(define-concept PERSON (PRIMITIVE THING person))");
    run("(create-ind Mary) (assert-ind Mary PERSON)");

    let pinned = tenant.snapshot().expect("snapshot");
    let gen_before = pinned.generation;

    // Writer side: compact (generation bump) plus a new individual.
    tenant
        .with_store(|s| s.compact())
        .expect("store lock")
        .expect("compaction");
    run("(create-ind Bob) (assert-ind Bob PERSON)");

    let fresh = tenant.snapshot().expect("fresh snapshot");
    assert!(
        fresh.generation > gen_before,
        "compaction should advance the generation ({} -> {})",
        gen_before,
        fresh.generation
    );
    assert_eq!(pinned.generation, gen_before, "pinned snapshot moved");

    let known = |snap: &classic_server::Snapshot| -> Vec<String> {
        let cmd = classic_lang::parse_one("(retrieve PERSON)").expect("parse");
        match snap.eval(&cmd).expect("query") {
            classic_lang::Outcome::Individuals(mut names) => {
                names.sort();
                names
            }
            other => panic!("expected individuals, got {other:?}"),
        }
    };
    assert_eq!(known(&pinned), ["Mary"], "pinned snapshot saw the write");
    assert_eq!(known(&fresh), ["Bob", "Mary"]);

    // Stats reflect the post-compaction, post-write state.
    let stats = tenant.stats().expect("stats");
    assert_eq!(stats.generation, fresh.generation);
    assert_eq!(stats.individuals, 2);

    handle.shutdown().expect("clean shutdown");
}

/// Sandboxes: mutations are visible inside the session, invisible to
/// other sessions, discarded on rollback, and replayed on commit.
#[test]
fn sandboxes_isolate_and_commit() {
    let dir = tmpdir("sandbox");
    let handle = start(&dir);

    let mut a = Client::connect(&handle);
    a.ok("(define-role child)");
    a.ok("(define-concept PERSON (PRIMITIVE THING person))");
    a.ok("(create-ind Mary)");

    let r = a.ok("(sandbox begin)");
    assert_eq!(r.get("state").and_then(Json::as_str), Some("active"));
    a.ok("(assert-ind Mary PERSON)");
    a.ok("(create-ind Bob)");
    a.ok("(assert-ind Bob PERSON)");
    // Inside the sandbox: both are PERSONs.
    let mut names = names_of(&a.ok("(retrieve PERSON)"));
    names.sort();
    assert_eq!(names, ["Bob", "Mary"]);

    // A second session sees none of it.
    let mut b = Client::connect(&handle);
    assert_eq!(names_of(&b.ok("(retrieve PERSON)")), Vec::<String>::new());

    // Rollback discards all three mutations.
    let r = a.ok("(sandbox rollback)");
    assert_eq!(r.get("state").and_then(Json::as_str), Some("rolled-back"));
    assert_eq!(r.get("discarded").and_then(Json::as_num), Some(3.0));
    assert_eq!(names_of(&a.ok("(retrieve PERSON)")), Vec::<String>::new());

    // Begin again; this time commit.
    a.ok("(sandbox begin)");
    a.ok("(assert-ind Mary PERSON)");
    let r = a.ok("(sandbox commit)");
    assert_eq!(r.get("state").and_then(Json::as_str), Some("committed"));
    assert_eq!(r.get("applied").and_then(Json::as_num), Some(1.0));
    // Now the other session sees it too.
    assert_eq!(names_of(&b.ok("(retrieve PERSON)")), ["Mary"]);

    // Guard rails.
    let msg = a.err("(sandbox commit)");
    assert!(msg.contains("no sandbox"), "unhelpful error: {msg}");
    a.ok("(sandbox begin)");
    let msg = a.err("(sandbox begin)");
    assert!(msg.contains("already active"), "unhelpful error: {msg}");
    let msg = a.err("(tenant other)");
    assert!(msg.contains("sandbox"), "unhelpful error: {msg}");
    a.ok("(sandbox rollback)");

    handle.shutdown().expect("clean shutdown");
}

fn http(handle: &ServerHandle, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, payload)
}

/// The HTTP side: health, stateless eval, per-tenant stats, and the
/// Prometheus exposition including the server's own request series.
#[test]
fn http_endpoints_serve_eval_stats_and_metrics() {
    let dir = tmpdir("http");
    let handle = start(&dir);

    let (status, body) = http(&handle, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let script = "(define-role child)\n(define-concept PERSON (PRIMITIVE THING person))\n\
                  (create-ind Mary)\n(assert-ind Mary PERSON)\n(retrieve PERSON)";
    let (status, body) = http(&handle, "POST", "/eval?tenant=web", script);
    assert_eq!(status, 200, "eval failed: {body}");
    let results = Json::parse(body.trim()).expect("eval returns JSON");
    let results = results.as_arr().expect("array of results");
    assert_eq!(results.len(), 5);
    for r in results {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    }
    assert_eq!(names_of(results[4].get("result").unwrap()), ["Mary"]);

    // A failing form stops the batch and reports the error in place.
    let (status, body) = http(
        &handle,
        "POST",
        "/eval?tenant=web",
        "(retrieve NO-SUCH)\n(retrieve PERSON)",
    );
    assert_eq!(status, 200);
    let results = Json::parse(body.trim()).expect("JSON");
    let results = results.as_arr().expect("array");
    assert_eq!(results.len(), 1, "batch should stop at the failure");
    assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(false));

    // Parse errors are a 400 with a JSON error body.
    let (status, body) = http(&handle, "POST", "/eval?tenant=web", "(retrieve");
    assert_eq!(status, 400);
    let err = Json::parse(body.trim()).expect("JSON error body");
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));

    let (status, body) = http(&handle, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = Json::parse(body.trim()).expect("stats JSON");
    let tenants = stats.get("tenants").and_then(Json::as_arr).expect("list");
    let web = tenants
        .iter()
        .find(|t| t.get("name").and_then(Json::as_str) == Some("web"))
        .expect("web tenant listed");
    assert_eq!(web.get("individuals").and_then(Json::as_num), Some(1.0));
    assert!(web.get("version").and_then(Json::as_num).unwrap_or(0.0) >= 4.0);

    let (status, body) = http(&handle, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("classic_server_requests_total"),
        "server series missing from exposition"
    );
    assert!(
        body.contains("classic_server_connections_total"),
        "connection counter missing"
    );

    let (status, _) = http(&handle, "GET", "/no-such-route", "");
    assert_eq!(status, 404);

    handle.shutdown().expect("clean shutdown");
}

/// Send one HTTP request verbatim and return (status, head, body) — for
/// tests that need to inspect response headers.
fn http_headers(handle: &ServerHandle, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .unwrap_or((response.clone(), String::new()));
    (status, head, body)
}

/// The tentpole end to end on the line protocol: a client-adopted trace
/// id flows through the session into the span layer, the resulting span
/// tree roots at `server.request` with tenant/session/kind attribution,
/// and `GET /trace?id=…` exports it as strict, monotonically consistent
/// Chrome trace-event JSON. Malformed, oversize, and zero ids are
/// positioned errors that adopt nothing.
#[test]
fn trace_ids_adopt_propagate_and_export_as_chrome_json() {
    let dir = tmpdir("trace");
    let handle = start(&dir);
    // The level is process-global and tests run in parallel: only ever
    // raise it (Full is a superset of every lower level), never restore,
    // so no test can yank tracing out from under another.
    classic_obs::set_level(classic_obs::ObsLevel::Full);
    let mut c = Client::connect(&handle);
    c.ok("(tenant traced)");

    // Adoption: the reply echoes the zero-extended id, the *next* form
    // runs under it.
    let r = c.ok("(trace-id \"deadbeef\")");
    assert_eq!(
        r.get("id").and_then(Json::as_str),
        Some("000000000000000000000000deadbeef")
    );
    c.ok("(define-role child)");

    let (status, body) = http(&handle, "GET", "/trace?id=deadbeef", "");
    assert_eq!(status, 200, "trace export failed: {body}");
    let dump = Json::parse(body.trim()).expect("chrome dump parses under the strict parser");
    let events = dump
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "no spans exported: {body}");

    // The root span is the wire request, attributed to tenant and kind.
    let root = spans
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("server.request"))
        .expect("span tree roots at server.request");
    let args = root.get("args").expect("root span carries args");
    assert_eq!(
        args.get("trace_id").and_then(Json::as_str),
        Some("000000000000000000000000deadbeef")
    );
    assert_eq!(args.get("tenant").and_then(Json::as_str), Some("traced"));
    assert_eq!(args.get("kind").and_then(Json::as_str), Some("define-role"));
    assert!(args.get("session").and_then(Json::as_num).is_some());

    // ts/dur are monotonically consistent: every span nests inside the
    // request root's [ts, ts+dur] window.
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

    // Malformed, oversize, and zero ids: positioned errors, nothing
    // adopted, connection intact.
    let msg = c.err("(trace-id \"xyz\")");
    assert!(
        msg.contains("invalid trace id") && msg.contains("byte"),
        "unpositioned error: {msg}"
    );
    let msg = c.err(&format!("(trace-id \"{}\")", "a".repeat(33)));
    assert!(msg.contains("oversize"), "unhelpful error: {msg}");
    let msg = c.err("(trace-id \"0\")");
    assert!(msg.contains("zero"), "unhelpful error: {msg}");
    let msg = c.err("(trace-id)");
    assert!(msg.contains("trace-id"), "unhelpful error: {msg}");
    c.ok("(ping)");

    handle.shutdown().expect("clean shutdown");
}

/// `POST /eval` adopts `X-Classic-Trace`, echoes the id in effect on
/// the response, and answers a malformed header with a positioned 400
/// rather than silently minting a fresh id.
#[test]
fn http_eval_adopts_and_echoes_trace_ids() {
    let dir = tmpdir("http-trace");
    let handle = start(&dir);

    let post = |trace_header: &str, body: &str| {
        format!(
            "POST /eval?tenant=webtrace HTTP/1.1\r\nHost: test\r\n{trace_header}\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };

    // Client-supplied id comes back zero-extended in the echo header.
    // (`(ping)` is a session form the stateless endpoint rejects, so
    // the probe command here is a real one.)
    let (status, head, _) = http_headers(&handle, &post("X-Classic-Trace: abc\r\n", "(obs-stats)"));
    assert_eq!(status, 200);
    assert!(
        head.contains("X-Classic-Trace: 00000000000000000000000000000abc"),
        "echo header missing or wrong: {head}"
    );

    // No header: a minted 32-hex id is echoed.
    let (status, head, _) = http_headers(&handle, &post("", "(obs-stats)"));
    assert_eq!(status, 200);
    let echoed = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Classic-Trace: "))
        .expect("minted id echoed");
    assert_eq!(echoed.trim().len(), 32, "minted id not 32 hex: {echoed:?}");
    assert!(echoed.trim().chars().all(|c| c.is_ascii_hexdigit()));

    // Malformed header: positioned 400 naming the header, not a mint.
    let (status, _, body) = http_headers(
        &handle,
        &post("X-Classic-Trace: not-hex!\r\n", "(obs-stats)"),
    );
    assert_eq!(status, 400, "malformed trace header accepted: {body}");
    let err = Json::parse(body.trim()).expect("error body is JSON");
    let msg = err.get("error").and_then(Json::as_str).expect("message");
    assert!(
        msg.contains("X-Classic-Trace") && msg.contains("byte"),
        "unpositioned error: {msg}"
    );

    handle.shutdown().expect("clean shutdown");
}

/// The process slowlog captures wire requests with tenant attribution
/// and serves them as strict JSON on `GET /slowlog`; at Full the
/// entries carry span trees rooted at `server.request`.
#[test]
fn slowlog_attributes_requests_and_serves_json() {
    let dir = tmpdir("slowlog");
    let handle = start(&dir);
    // Raise, never lower (see the trace test).
    classic_obs::set_level(classic_obs::ObsLevel::Full);
    // The slowlog is process-global (tests share it): clear, then make
    // our entries — admission is guaranteed while it is under capacity.
    classic_obs::global_slowlog().clear();

    let mut c = Client::connect(&handle);
    c.ok("(tenant slowtenant)");
    c.ok("(define-role r)");

    let (status, body) = http(&handle, "GET", "/slowlog?n=32", "");
    assert_eq!(status, 200);
    let log = Json::parse(body.trim()).expect("slowlog is strict JSON");
    let entries = log
        .get("slowlog")
        .and_then(Json::as_arr)
        .expect("slowlog array");
    let ours: Vec<&Json> = entries
        .iter()
        .filter(|e| e.get("tenant").and_then(Json::as_str) == Some("slowtenant"))
        .collect();
    assert!(
        !ours.is_empty(),
        "no slowlog entries for our tenant: {body}"
    );
    for e in &ours {
        let id = e.get("trace_id").and_then(Json::as_str).expect("trace id");
        assert_eq!(id.len(), 32, "trace id not 32 hex: {id:?}");
        assert!(e.get("dur_ns").and_then(Json::as_num).unwrap_or(-1.0) >= 0.0);
        // Entries traced at Full root at the wire request.
        if e.get("sampled").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                e.get("root").and_then(Json::as_str),
                Some("server.request"),
                "slowlog entry not rooted at the request: {e:?}"
            );
        }
    }
    assert!(
        ours.iter()
            .any(|e| e.get("kind").and_then(Json::as_str) == Some("define-role")),
        "mutation kind missing from slowlog: {body}"
    );

    // The same forensics over the wire as a REPL-style form.
    let r = c.ok("(obs-slowlog 5)");
    assert_eq!(result_type(&r), "description");

    handle.shutdown().expect("clean shutdown");
}

/// `(obs-level)`/`(obs-sample)` over the wire are gated by the operator
/// floors: lowering below the floor is rejected (in and out of
/// sandboxes), raising and querying are allowed.
#[test]
fn obs_switches_are_floor_gated_over_the_wire() {
    let dir = tmpdir("floors");
    let handle = start_with(
        &dir,
        ServerConfig {
            sample_floor: 0.5,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&handle);

    // Default obs floor is counters: off is below it.
    let msg = c.err("(obs-level off)");
    assert!(msg.contains("operator floor"), "unhelpful error: {msg}");
    let msg = c.err("(obs-sample 0.25)");
    assert!(msg.contains("operator floor"), "unhelpful error: {msg}");

    // Raising and querying pass the gate. (Only raises here: the level
    // and rate are process-global, and parallel tests depend on them
    // never dropping.)
    assert_eq!(result_type(&c.ok("(obs-level)")), "description");
    assert_eq!(result_type(&c.ok("(obs-sample)")), "description");
    assert_eq!(result_type(&c.ok("(obs-sample 1.0)")), "description");
    assert_eq!(result_type(&c.ok("(obs-level full)")), "description");

    // The gate also covers sandboxed evaluation — the switches are
    // global, so the sandbox is no escape hatch.
    c.ok("(sandbox begin)");
    let msg = c.err("(obs-level off)");
    assert!(msg.contains("operator floor"), "sandbox bypassed the gate");
    let msg = c.err("(obs-sample 0.1)");
    assert!(msg.contains("operator floor"), "sandbox bypassed the gate");
    c.ok("(sandbox rollback)");

    // Nonsense levels still get the evaluator's own error.
    let msg = c.err("(obs-level loud)");
    assert!(msg.contains("loud"), "unhelpful error: {msg}");

    handle.shutdown().expect("clean shutdown");
}

/// `/metrics` carries per-tenant labeled sections and an OpenMetrics
/// exemplar on the request-latency histogram.
#[test]
fn metrics_carry_tenant_labels_and_exemplars() {
    let dir = tmpdir("labeled");
    let handle = start(&dir);
    let mut c = Client::connect(&handle);
    c.ok("(tenant acme)");
    c.ok("(ping)");

    let (status, body) = http(&handle, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("classic_tenant_requests_total{tenant=\"acme\"}"),
        "per-tenant labeled series missing: {body}"
    );
    // The tenant's own KB series are labeled too.
    assert!(
        body.lines()
            .any(|l| l.contains("{tenant=\"acme\"") || l.contains(",tenant=\"acme\"")),
        "no labeled section for acme"
    );
    assert!(
        body.lines().any(|l| {
            l.starts_with("classic_server_request_ns_bucket") && l.contains(" # {trace_id=\"")
        }),
        "no exemplar on the request histogram: {body}"
    );

    handle.shutdown().expect("clean shutdown");
}

/// The push-gateway flusher delivers the full exposition over HTTP and
/// performs one final flush during graceful shutdown.
#[test]
fn push_gateway_receives_the_exposition() {
    use std::net::TcpListener;

    let gw = TcpListener::bind("127.0.0.1:0").expect("bind gateway");
    let gw_addr = gw.local_addr().expect("gateway addr");
    let gw_thread = std::thread::spawn(move || -> Vec<String> {
        let mut bodies = Vec::new();
        for stream in gw.incoming() {
            let Ok(mut s) = stream else { break };
            let _ = s.set_read_timeout(Some(std::time::Duration::from_secs(2)));
            let mut data = Vec::new();
            let mut tmp = [0u8; 4096];
            loop {
                // A full request has its declared body; a sentinel (no
                // Content-Length) ends at EOF.
                let done = std::str::from_utf8(&data).ok().is_some_and(|t| {
                    t.split_once("\r\n\r\n").is_some_and(|(head, body)| {
                        head.lines()
                            .filter_map(|l| l.split_once(':'))
                            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                            .is_some_and(|n| body.len() >= n)
                    })
                });
                if done {
                    break;
                }
                match s.read(&mut tmp) {
                    Ok(0) => break,
                    Ok(n) => data.extend_from_slice(&tmp[..n]),
                    Err(_) => break,
                }
            }
            let text = String::from_utf8_lossy(&data).into_owned();
            if text.starts_with("STOP") {
                break;
            }
            let _ =
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
            bodies.push(text);
        }
        bodies
    });

    let dir = tmpdir("push");
    let handle = start_with(
        &dir,
        ServerConfig {
            push_gateway: Some(format!("http://{gw_addr}/push/classic")),
            push_interval_secs: 1,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&handle);
    c.ok("(ping)");
    drop(c);
    // shutdown() joins the pusher, which flushes once more on its way
    // out — so by the time this returns, the gateway has seen a POST.
    handle.shutdown().expect("clean shutdown");

    let mut stop = TcpStream::connect(gw_addr).expect("stop gateway");
    stop.write_all(b"STOP").expect("send stop");
    let _ = stop.shutdown(std::net::Shutdown::Write);
    drop(stop);
    let bodies = gw_thread.join().expect("gateway thread");
    assert!(!bodies.is_empty(), "gateway never received a push");
    let push = bodies
        .iter()
        .find(|b| b.contains("classic_server_requests_total"))
        .expect("push carries the exposition");
    assert!(
        push.starts_with("POST /push/classic HTTP/1.1"),
        "push used the wrong route: {}",
        push.lines().next().unwrap_or("")
    );
}

/// Acknowledged writes survive a full server restart: the second
/// process replays the tenant's log and answers the same queries.
#[test]
fn acknowledged_writes_survive_restart() {
    let dir = tmpdir("restart");
    {
        let handle = start(&dir);
        let mut c = Client::connect(&handle);
        c.ok("(tenant durable)");
        c.ok("(define-role child)");
        c.ok("(define-concept PERSON (PRIMITIVE THING person))");
        c.ok("(define-concept PARENT (AND PERSON (AT-LEAST 1 child)))");
        c.ok("(create-ind Mary)");
        c.ok("(assert-ind Mary (AND PERSON (FILLS child Bob)))");
        handle.shutdown().expect("clean shutdown");
    }
    {
        let handle = start(&dir);
        let mut c = Client::connect(&handle);
        c.ok("(tenant durable)");
        // Mary's assertion (and Bob, the auto-created filler) replayed.
        assert_eq!(names_of(&c.ok("(retrieve PERSON)")), ["Mary"]);
        assert_eq!(names_of(&c.ok("(retrieve PARENT)")), ["Mary"]);
        let r = c.ok("(describe Bob)");
        assert_eq!(result_type(&r), "description");
        handle.shutdown().expect("clean shutdown");
    }
}

/// Send raw bytes as one HTTP request and return (status, payload).
/// Unlike [`http`], nothing is added or fixed up — for requests that
/// are deliberately malformed.
fn http_raw(handle: &ServerHandle, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(request).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, payload)
}

/// The line-protocol framer against adversarial input: escaped quotes
/// hiding parens, comments containing parens, and a form dribbled in
/// byte by byte must each produce exactly one reply, on a connection
/// that stays usable afterwards.
#[test]
fn framing_survives_adversarial_strings_and_split_writes() {
    let dir = tmpdir("framing");
    let handle = start(&dir);
    let mut c = Client::connect(&handle);

    // An escaped quote directly before an open paren inside a string:
    // a framer that mishandles the escape sees an unbalanced extra "("
    // and hangs the connection instead of replying.
    let reply = c.send("(create-ind \"a\\\"(\")");
    assert!(
        reply.get("ok").is_some(),
        "no reply to the escaped-quote form"
    );

    // Parens inside comments must not count toward balance.
    let reply = c.send("; distracting ))) ((( comment\n(ping)");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // A form split across many TCP writes arrives intact: each byte is
    // its own segment, and the reply comes only once it balances.
    let form = "(define-concept SPLIT (PRIMITIVE THING split))\n";
    {
        let stream = c.reader.get_mut();
        for b in form.as_bytes() {
            stream.write_all(&[*b]).expect("send byte");
            stream.flush().expect("flush byte");
        }
    }
    let mut line = String::new();
    c.reader.read_line(&mut line).expect("read reply");
    let reply = Json::parse(line.trim_end()).expect("json reply");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "split-write form failed: {line:?}"
    );

    // The session is still healthy after all of the above.
    c.ok("(ping)");
    handle.shutdown().expect("clean shutdown");
}

/// An unterminated string never completes a frame: the client gets no
/// reply (the framer is waiting, not wedged), and the server keeps
/// serving other connections.
#[test]
fn unterminated_string_starves_only_its_own_connection() {
    let dir = tmpdir("unterminated");
    let handle = start(&dir);

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .write_all(b"(create-ind \"never closed\n")
        .expect("send");
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(300)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => panic!("server closed a merely-incomplete connection"),
        Ok(_) => panic!("server replied to an incomplete form"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected read error: {e}"
        ),
    }

    // Other connections are unaffected.
    let mut c = Client::connect(&handle);
    c.ok("(ping)");
    drop(stream);
    handle.shutdown().expect("clean shutdown");
}

/// Hostile frames that can never be served — nesting past the depth cap
/// (which would otherwise stack-overflow the recursive parser and abort
/// the process) — get one error reply, then the connection closes. The
/// server survives to serve the next client.
#[test]
fn hostile_nesting_is_rejected_with_an_error_reply() {
    let dir = tmpdir("nesting");
    let handle = start(&dir);

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(&vec![b'('; 2_000]).expect("send parens");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    let reply = Json::parse(line.trim_end()).expect("json reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        reply
            .get("error")
            .and_then(Json::as_str)
            .expect("error message")
            .contains("nests deeper"),
        "unexpected error: {line:?}"
    );
    // The connection closes after the reply…
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "data after the rejection: {rest:?}");
    // …and the server is still alive.
    let mut c = Client::connect(&handle);
    c.ok("(ping)");
    handle.shutdown().expect("clean shutdown");
}

/// The nesting limit is the *language's*, so it holds where no framer
/// stands in front of the parser: a `POST /eval` body nested thousands
/// deep (24 KB was enough to overflow a worker's stack and abort the
/// whole process, every tenant with it) is answered with an error naming
/// the bound, and the process, the tenant, and the connection pool all
/// keep serving.
#[test]
fn hostile_nesting_over_http_is_an_error_reply_not_an_abort() {
    let dir = tmpdir("nesting-http");
    let handle = start(&dir);
    let (status, _) = http(
        &handle,
        "POST",
        "/eval?tenant=deep",
        "(define-role r) (create-ind I)",
    );
    assert_eq!(status, 200);

    for depth in [4_000usize, 100_000] {
        let body = format!(
            "(assert-ind I {}THING{})",
            "(AND ".repeat(depth),
            ")".repeat(depth)
        );
        let (status, reply) = http(&handle, "POST", "/eval?tenant=deep", &body);
        assert_eq!(status, 400, "depth {depth}: {reply}");
        let reply = Json::parse(reply.trim()).expect("JSON error body");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let msg = reply.get("error").and_then(Json::as_str).expect("message");
        assert!(msg.contains("512-paren limit"), "depth {depth}: {msg}");

        let (status, body) = http(&handle, "GET", "/healthz", "");
        assert_eq!((status, body.as_str()), (200, "ok\n"), "depth {depth}");
        // The refused form left nothing behind, and the tenant answers.
        let (status, body) = http(
            &handle,
            "POST",
            "/eval?tenant=deep",
            "(assert-ind I (AT-LEAST 1 r)) (describe I)",
        );
        assert_eq!(status, 200, "depth {depth}: {body}");
        assert!(!body.contains("\"ok\":false"), "depth {depth}: {body}");
    }
    // Other tenants never noticed.
    let mut c = Client::connect(&handle);
    c.ok("(ping)");
    c.ok("(create-ind Bystander)");
    handle.shutdown().expect("clean shutdown");
}

/// Errors leave the process with names, not arena indices: the ids a
/// `ClassicError` carries are looked up in the symbol table of the KB
/// that raised it — the primary for writes, the snapshot for reads, the
/// clone inside a sandbox — keeping the leading phrases clients match.
#[test]
fn wire_errors_name_things() {
    let dir = tmpdir("named-errors");
    let handle = start(&dir);
    let mut c = Client::connect(&handle);
    c.ok("(define-role wheel)");
    c.ok("(define-concept PERSON (PRIMITIVE THING person))");
    c.ok("(create-ind Rocky)");
    c.ok("(assert-ind Rocky (AT-MOST 1 wheel))");

    // Writes (primary KB).
    assert_eq!(
        c.err("(create-ind Rocky)"),
        "individual Rocky already exists"
    );
    assert_eq!(
        c.err("(assert-ind Rocky (AT-LEAST 3 wheel))"),
        "inconsistent update at individual Rocky: AT-LEAST 3 exceeds AT-MOST 1 on wheel"
    );
    assert_eq!(
        c.err("(define-concept PERSON THING)"),
        "concept PERSON already defined"
    );
    assert_eq!(
        c.err("(assert-ind Rocky SPORTS-CAR)"),
        "undefined concept SPORTS-CAR"
    );
    // Reads (a snapshot, which interned the unknown name on its own).
    assert_eq!(c.err("(retrieve NO-SUCH)"), "undefined concept NO-SUCH");
    assert_eq!(c.err("(retrieve (AT-LEAST 1 axle))"), "undefined role axle");
    // Sandbox (a private clone).
    c.ok("(sandbox begin)");
    c.ok("(create-ind Bullwinkle)");
    assert_eq!(
        c.err("(create-ind Bullwinkle)"),
        "individual Bullwinkle already exists"
    );
    c.ok("(sandbox rollback)");

    // The stateless HTTP front reports the same text.
    let (status, body) = http(&handle, "POST", "/eval", "(create-ind Rocky)");
    assert_eq!(status, 200);
    assert!(
        body.contains("individual Rocky already exists"),
        "http: {body}"
    );
    handle.shutdown().expect("clean shutdown");
}

/// HTTP request-framing limits: a POST with no Content-Length is 411
/// (it cannot be framed, only guessed at), a declared body over the 16
/// MiB cap is 413, and neither kills the server.
#[test]
fn http_length_limits_are_enforced() {
    let dir = tmpdir("http-limits");
    let handle = start(&dir);

    let (status, body) = http_raw(&handle, b"POST /eval HTTP/1.1\r\nHost: test\r\n\r\n(ping)");
    assert_eq!(status, 411, "missing length must be 411, got: {body}");

    let (status, body) = http_raw(
        &handle,
        format!(
            "POST /eval HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            17 << 20
        )
        .as_bytes(),
    );
    assert_eq!(status, 413, "oversized body must be 413, got: {body}");

    // GET without a length is still fine, and the server still serves.
    let (status, _) = http(&handle, "GET", "/healthz", "");
    assert_eq!(status, 200);
    handle.shutdown().expect("clean shutdown");
}

/// Codes of the diagnostics in a lint result, in report order.
fn diag_codes(report: &Json) -> Vec<String> {
    report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("lint report has diagnostics")
        .iter()
        .map(|d| {
            d.get("code")
                .and_then(Json::as_str)
                .expect("diagnostic has a code")
                .to_owned()
        })
        .collect()
}

/// Subject strings ("concept C", "individual x") of a lint result.
fn diag_subjects(report: &Json) -> Vec<String> {
    report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("lint report has diagnostics")
        .iter()
        .map(|d| {
            d.get("subject")
                .and_then(Json::as_str)
                .expect("diagnostic has a subject")
                .to_owned()
        })
        .collect()
}

/// A wire `(bulk-load …)` whose rows extend individuals the tenant has
/// already linted is found by the next `(lint-kb)` like any other write
/// — the refresh compares the primary with the version it last linted,
/// and no write has to report itself — so it does not serve x's stale
/// orphan finding.
#[test]
fn bulk_load_rows_dirty_the_tenant_analysis() {
    let dir = tmpdir("lint-bulk");
    let handle = start(&dir);
    let mut c = Client::connect(&handle);
    c.ok("(define-role r)");
    c.ok("(define-concept PERSON (PRIMITIVE THING person))");
    c.ok("(create-ind x)");
    c.ok("(assert-ind x (AT-LEAST 1 r))");
    let x = "individual x".to_owned();
    let before = c.ok("(lint-kb)");
    assert!(diag_subjects(&before).contains(&x), "{before:?}");
    c.ok("(bulk-load (into PERSON) (roles) (row x))");
    let after = c.ok("(lint-kb)");
    assert!(!diag_subjects(&after).contains(&x), "{after:?}");
    handle.shutdown().expect("clean shutdown");
}

/// The incremental lint surface over the wire: diagnostics stay inside
/// their tenant, `(lint-on-write on)` attaches cone diagnostics to
/// mutation replies, `(lint-kb cone)` reports only the re-linted cone,
/// sandbox lint never leaks into the tenant's analysis state, and
/// `GET /lint` serves the same report over HTTP.
#[test]
fn lint_is_tenant_scoped_incremental_and_served_over_http() {
    let dir = tmpdir("lint");
    let handle = start(&dir);

    // Tenant `noisy` earns an incoherent concept (A001, error) and an
    // orphan individual (A013, info).
    let mut a = Client::connect(&handle);
    a.ok("(tenant noisy)");
    a.ok("(define-role r)");
    a.ok("(define-concept PERSON (PRIMITIVE THING person))");
    a.ok("(define-concept BROKEN (AND (AT-LEAST 2 r) (AT-MOST 1 r)))");
    a.ok("(create-ind x)");
    a.ok("(assert-ind x (AT-LEAST 1 r))");

    let report = a.ok("(lint-kb)");
    assert_eq!(result_type(&report), "lint");
    let codes = diag_codes(&report);
    assert!(
        codes.contains(&"A001".to_owned()),
        "missing A001: {codes:?}"
    );
    assert!(
        codes.contains(&"A013".to_owned()),
        "missing A013: {codes:?}"
    );

    // Tenant `quiet` shares the process but none of the diagnostics.
    let mut b = Client::connect(&handle);
    b.ok("(tenant quiet)");
    b.ok("(define-role r)");
    let clean = b.ok("(lint-kb)");
    assert_eq!(
        diag_codes(&clean),
        Vec::<String>::new(),
        "noisy's diagnostics leaked into quiet"
    );

    // lint-on-write: the mutation reply itself carries the cone
    // diagnostics, and the cone is the write's — x's identical orphan
    // finding is *not* re-derived.
    a.ok("(create-ind y)");
    a.ok("(lint-on-write on)");
    let reply = a.send("(assert-ind y (AT-LEAST 1 r))");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let lint = reply
        .get("lint")
        .expect("lint-on-write mutation reply carries lint");
    assert_eq!(result_type(lint), "lint");
    let codes = diag_codes(lint);
    assert!(
        codes.contains(&"A013".to_owned()),
        "cone misses y: {codes:?}"
    );
    let subjects = diag_subjects(lint);
    assert!(
        subjects.iter().all(|s| s == "individual y"),
        "cone reply should cover only the written individual: {subjects:?}"
    );

    // Switching it off stops the attachment.
    a.ok("(lint-on-write off)");
    let reply = a.send("(create-ind z)");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert!(reply.get("lint").is_none(), "lint attached while off");
    let msg = a.err("(lint-on-write sometimes)");
    assert!(msg.contains("on|off"), "unhelpful error: {msg}");

    // `(lint-kb cone)` reports the dirty cone only: z was just touched,
    // so its orphan finding appears, while the untouched concept-tier
    // A001 does not. The full report still carries everything.
    a.ok("(assert-ind z (AT-LEAST 1 r))");
    let cone = a.ok("(lint-kb cone)");
    assert_eq!(result_type(&cone), "lint");
    let codes = diag_codes(&cone);
    assert!(
        codes.contains(&"A013".to_owned()),
        "cone misses z: {codes:?}"
    );
    assert!(
        !codes.contains(&"A001".to_owned()),
        "cone report re-ran untouched concept checks: {codes:?}"
    );
    let full = a.ok("(lint-kb)");
    assert!(diag_codes(&full).contains(&"A001".to_owned()));

    // Sandbox lint is isolated both ways: a diagnostic introduced in
    // the sandbox shows up in sandbox `(lint-kb)`, and is gone from the
    // tenant after rollback.
    a.ok("(sandbox begin)");
    a.ok("(define-concept ALSOBROKEN (AND (AT-LEAST 3 r) (AT-MOST 2 r)))");
    let inside = a.ok("(lint-kb)");
    assert!(
        diag_subjects(&inside).contains(&"concept ALSOBROKEN".to_owned()),
        "sandbox lint missed its own definition: {inside:?}"
    );
    a.ok("(sandbox rollback)");
    let after = a.ok("(lint-kb)");
    assert!(
        !diag_subjects(&after).contains(&"concept ALSOBROKEN".to_owned()),
        "rolled-back sandbox leaked into tenant lint: {after:?}"
    );

    // The same reports over HTTP, per tenant.
    let (status, body) = http(&handle, "GET", "/lint?tenant=noisy", "");
    assert_eq!(status, 200, "GET /lint failed: {body}");
    let report = Json::parse(body.trim()).expect("lint body is JSON");
    assert_eq!(result_type(&report), "lint");
    assert!(diag_codes(&report).contains(&"A001".to_owned()));

    let (status, body) = http(&handle, "GET", "/lint?tenant=quiet&cone=1", "");
    assert_eq!(status, 200, "GET /lint cone failed: {body}");
    let report = Json::parse(body.trim()).expect("cone lint body is JSON");
    assert_eq!(result_type(&report), "lint");
    assert_eq!(diag_codes(&report), Vec::<String>::new());

    handle.shutdown().expect("clean shutdown");
}

/// `POST /ingest` streams raw CSV through the bulk pipeline: rows land
/// as individuals under an inferred TBox, the reply reports the load,
/// the segment-tier commit survives a restart, and malformed input is
/// a 400 that writes nothing.
#[test]
fn http_ingest_bulk_loads_csv() {
    let dir = tmpdir("ingest");
    {
        let handle = start(&dir);
        let csv = "id,species,legs\nrex,dog,4\ntweety,bird,2\npolly,bird,2\n";
        let (status, body) = http(
            &handle,
            "POST",
            "/ingest?tenant=pets&entity=pet&id=id&infer=1",
            csv,
        );
        assert_eq!(status, 200, "ingest failed: {body}");
        let reply = Json::parse(body.trim()).expect("ingest reply is JSON");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let result = reply.get("result").expect("result");
        assert_eq!(result_type(result), "ingested");
        assert_eq!(result.get("rows").and_then(Json::as_num), Some(3.0));
        assert_eq!(result.get("accepted").and_then(Json::as_num), Some(3.0));
        assert_eq!(result.get("rejected").and_then(Json::as_num), Some(0.0));
        assert!(
            result
                .get("generation")
                .and_then(Json::as_num)
                .unwrap_or(0.0)
                >= 1.0
        );

        // The inferred concept answers queries immediately (the ingest
        // invalidated the snapshot cache).
        let (status, body) = http(&handle, "POST", "/eval?tenant=pets", "(retrieve PET)");
        assert_eq!(status, 200, "{body}");
        let results = Json::parse(body.trim()).expect("eval reply");
        let results = results.as_arr().expect("array");
        assert_eq!(
            names_of(results[0].get("result").unwrap()),
            ["rex", "tweety", "polly"]
        );

        // Ragged input plans to an error before anything is written.
        let (status, body) = http(
            &handle,
            "POST",
            "/ingest?tenant=pets&entity=pet&id=id",
            "id,a\nx,1,2\n",
        );
        assert_eq!(status, 400, "ragged CSV accepted: {body}");
        let err = Json::parse(body.trim()).expect("error reply is JSON");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));

        handle.shutdown().expect("clean shutdown");
    }
    {
        // Segment-tier commit (no log appends) survives a restart.
        let handle = start(&dir);
        let (status, body) = http(&handle, "POST", "/eval?tenant=pets", "(retrieve PET)");
        assert_eq!(status, 200, "{body}");
        let results = Json::parse(body.trim()).expect("eval reply");
        let results = results.as_arr().expect("array");
        assert_eq!(
            names_of(results[0].get("result").unwrap()),
            ["rex", "tweety", "polly"]
        );
        handle.shutdown().expect("clean shutdown");
    }
}
