//! A read borrows: a tenant's snapshot is a bare `Kb` any number of
//! readers share; only a write, a `what-if` trial or a lint meets the
//! primary; and nothing that is refused — or merely asked — leaves a
//! trace the tenant's log would not reproduce.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use classic_lang::{parse_one, Command};
use classic_server::{Json, ServerConfig, ServerHandle, Shared, Snapshot, WireSession};
use classic_store::{same_state, DurableKb};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("classic-read-borrows-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn start(dir: &Path) -> ServerHandle {
    classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.to_path_buf(),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// One form over the line protocol; the reply line, verbatim.
struct Client(BufReader<TcpStream>);

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        Client(BufReader::new(
            TcpStream::connect(handle.local_addr()).expect("connect"),
        ))
    }

    fn send(&mut self, form: &str) -> String {
        let stream = self.0.get_mut();
        stream.write_all(form.as_bytes()).expect("send form");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        self.0.read_line(&mut line).expect("read reply");
        line.trim_end().to_owned()
    }

    fn ok(&mut self, form: &str) {
        let reply = self.send(form);
        assert!(reply.starts_with("{\"ok\":true"), "{form}: {reply}");
    }

    fn err(&mut self, form: &str) -> String {
        let reply = Json::parse(&self.send(form)).expect("a JSON reply");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{form}"
        );
        reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    }
}

const SCHEMA: [&str; 6] = [
    "(define-role eat)",
    "(define-concept PERSON (PRIMITIVE THING person))",
    "(define-concept FOOD (PRIMITIVE THING food))",
    "(define-concept EATER (AND PERSON (AT-LEAST 1 eat)))",
    "(create-ind Rocky)",
    "(assert-ind Rocky (AND PERSON (FILLS eat Pizza-1)))",
];

fn cmd(form: &str) -> Command {
    parse_one(form).expect("parses")
}

/// The tenant's live KB, the server stopped, and the KB its log reopens
/// to.
fn live_and_reopened(
    handle: ServerHandle,
    dir: &Path,
    tenant: &str,
) -> (classic_kb::Kb, DurableKb) {
    let live = handle.shared().tenant(tenant).unwrap();
    let live = live.with_store(|s| s.kb().unwrap().clone()).unwrap();
    handle.shutdown().expect("clean shutdown");
    let reopened = DurableKb::open(dir.join(tenant).join("kb.log"), |_| {}).unwrap();
    (live, reopened)
}

/// ISSUE 15's two cases, over the wire: after the read, and after the
/// refused write, the tenant's primary still takes the definition its
/// log takes — with no restart in between.
#[test]
fn asking_or_being_refused_declares_nothing_on_a_tenant() {
    let dir = tmpdir("wire");
    let handle = start(&dir);
    let mut c = Client::connect(&handle);
    c.ok("(tenant t)");
    SCHEMA.iter().for_each(|form| c.ok(form));

    assert_eq!(
        c.err("(retrieve (PRIMITIVE THING x))"),
        "undefined primitive x"
    );
    assert_eq!(
        c.err("(define-concept Y (AND (PRIMITIVE THING x) NOSUCH))"),
        "undefined concept NOSUCH"
    );
    assert_eq!(
        c.err("(what-if? Rocky (PRIMITIVE THING x))"),
        "undefined primitive x"
    );
    c.ok("(sandbox begin)");
    assert_eq!(
        c.err("(assert-ind Rocky (AND (PRIMITIVE THING x) (AT-MOST 0 eat)))"),
        "inconsistent update at individual Rocky: AT-LEAST 1 exceeds AT-MOST 0 on eat"
    );
    c.ok("(sandbox rollback)");
    c.ok("(define-concept X (PRIMITIVE PERSON x))");
    assert_eq!(
        c.err("(retrieve (PRIMITIVE THING nosuch))"),
        "undefined primitive nosuch"
    );

    let (live, reopened) = live_and_reopened(handle, &dir, "t");
    assert!(same_state(&live, reopened.kb().unwrap()));
    assert!(same_state(reopened.kb().unwrap(), &live));
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_sync<T: Send + Sync>() {}

/// Readers of one version do not wait for each other, or for the writer:
/// every reply a thread gets from an `Arc<Snapshot>` is the reply a lone
/// reader gets from that version.
#[test]
fn readers_of_one_snapshot_run_concurrently_with_a_writer() {
    assert_sync::<Snapshot>();
    let dir = tmpdir("readers");
    let handle = start(&dir);
    let tenant = handle.shared().tenant("r").unwrap();
    for form in SCHEMA {
        tenant.execute(&cmd(form)).unwrap();
    }
    for i in 0..40 {
        tenant.execute(&cmd(&format!("(create-ind P{i})"))).unwrap();
        let told = format!("(assert-ind P{i} (AND PERSON (FILLS eat Pizza-{})))", i % 5);
        tenant.execute(&cmd(&told)).unwrap();
    }
    let reads: Vec<Command> = [
        "(retrieve EATER)",
        "(possible (AND PERSON (AT-MOST 0 eat)))",
        "(retrieve (FILLS eat Pizza-3))",
        "(possible (FILLS eat Never-Seen))",
        "(ask-necessary-set (AND PERSON (ALL eat ?:THING)))",
        "(ask-description (AND EATER (ALL eat ?:FOOD)))",
        "(subsumes? PERSON EATER)",
        "(classify (AND PERSON (AT-LEAST 2 eat)))",
        "(describe P7)",
        "(retrieve (PRIMITIVE THING nosuch))",
        "(retrieve NOSUCH)",
        "(ind-aspect P3 FILLS eat)",
        "(why? P3 EATER)",
    ]
    .map(cmd)
    .into();

    let snapshot = tenant.snapshot().unwrap();
    let expected: Vec<_> = reads.iter().map(|r| snapshot.eval(r)).collect();
    let barrier = Barrier::new(5);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (snapshot, reads, expected, barrier) = (&snapshot, &reads, &expected, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..200 {
                    let ix = (i + t * 3) % reads.len();
                    assert_eq!(snapshot.eval(&reads[ix]), expected[ix], "{:?}", reads[ix]);
                }
            });
        }
        // The writer advances the tenant under the readers' feet.
        barrier.wait();
        for i in 0..50 {
            tenant
                .execute(&cmd(&format!("(create-ind Late{i})")))
                .unwrap();
            let told = format!("(assert-ind Late{i} (AND PERSON (FILLS eat Pizza-3)))");
            tenant.execute(&cmd(&told)).unwrap();
        }
    });
    // The pinned version never moved; the tenant did.
    assert_eq!(snapshot.version, 86);
    assert_eq!(tenant.version(), 186);
    let fresh = tenant.snapshot().unwrap();
    assert_ne!(fresh.eval(&reads[0]), expected[0]);
    drop(tenant);
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cutting a snapshot costs what the write before it dirtied: the
/// snapshot cut after one write is, chunk for chunk, the storage of the
/// one pinned before it — all but the few chunks the write landed in —
/// and the pinned one still reads as it did.
#[test]
fn a_snapshot_shares_all_but_what_one_write_touched_with_the_one_before_it() {
    let dir = tmpdir("sharing");
    let handle = start(&dir);
    let tenant = handle.shared().tenant("s").unwrap();
    for form in SCHEMA {
        tenant.execute(&cmd(form)).unwrap();
    }
    let rows: String = (0..3_000)
        .map(|i| format!(" (row P{i} Pizza-{})", i % 50))
        .collect();
    let load = format!("(bulk-load (into PERSON) (roles eat){rows})");
    tenant.execute(&cmd(&load)).unwrap();

    let pinned = tenant.snapshot().unwrap();
    let eaters = cmd("(retrieve (FILLS eat Pizza-7))");
    let before = pinned.eval(&eaters);
    tenant
        .execute(&cmd("(assert-ind P1500 (FILLS eat Pizza-7 Pizza-New))"))
        .unwrap();
    let fresh = tenant.snapshot().unwrap();
    assert!(!Arc::ptr_eq(&pinned, &fresh));
    assert_ne!(fresh.eval(&eaters), before, "the write is in the new cut");
    assert_eq!(pinned.eval(&eaters), before, "and not in the old one");

    // Counted from the pinned side: chunks the new cut merely added
    // (tables grow) were not copied from anything.
    let sharing = pinned.kb().sharing_with(fresh.kb());
    assert!(sharing.chunks_total > 100, "{sharing:?}");
    let copied = sharing.chunks_total - sharing.chunks_shared;
    assert!(
        (1..=16).contains(&copied),
        "one assert-ind copied {copied} chunks: {sharing:?}"
    );
    drop(tenant);
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `what-if` on a tenant is a write that is always rolled back: it runs
/// on the primary, which it leaves as it found it — unlogged, the version
/// and the cached snapshot untouched — and its verdicts read as ever.
#[test]
fn what_if_on_a_tenant_changes_nothing() {
    let dir = tmpdir("what-if");
    let handle = start(&dir);
    let tenant = handle.shared().tenant("w").unwrap();
    for form in SCHEMA {
        tenant.execute(&cmd(form)).unwrap();
    }
    let log = dir.join("w").join("kb.log");
    let before = tenant.with_store(|s| s.kb().unwrap().clone()).unwrap();
    let (version, cached, logged) = (
        tenant.version(),
        tenant.snapshot().unwrap(),
        std::fs::read(&log).unwrap(),
    );

    let verdict = |form: &str| tenant.execute(&cmd(form)).map(|o| o.render_json());
    assert_eq!(
        verdict("(what-if? Rocky (FILLS eat Pizza-2))").unwrap(),
        "{\"type\":\"description\",\"text\":\"would be ACCEPTED (steps=1 fills=0 corefs=0 \
         rules=0 reclassified=0); nothing was changed\"}"
    );
    assert_eq!(
        verdict("(what-if? Rocky (AT-MOST 0 eat))").unwrap(),
        "{\"type\":\"description\",\"text\":\"would be REJECTED: AT-LEAST 1 exceeds \
         AT-MOST 0 on eat; nothing was changed\"}"
    );
    assert_eq!(
        verdict("(what-if? Nobody PERSON)").unwrap_err().message,
        "unknown individual Nobody"
    );

    let after = tenant.with_store(|s| s.kb().unwrap().clone()).unwrap();
    assert!(same_state(&before, &after) && same_state(&after, &before));
    assert_eq!(
        before.ind_count(),
        after.ind_count(),
        "Pizza-2 was rolled back"
    );
    assert_eq!(tenant.version(), version);
    assert!(Arc::ptr_eq(&cached, &tenant.snapshot().unwrap()));
    assert_eq!(logged, std::fs::read(&log).unwrap());
    drop(tenant);
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

fn form(session: &mut WireSession, text: &str) -> String {
    session.handle_form(text).0
}

/// A request that panics holding the primary costs that tenant one
/// reopen from its log, not a server restart: the next request on the
/// name succeeds and sees every acknowledged write, a session bound to
/// the tenant rebinds, and other tenants never noticed.
#[test]
fn a_poisoned_primary_heals_from_its_log() {
    let dir = tmpdir("poisoned");
    let handle = start(&dir);
    let shared: &Arc<Shared> = handle.shared();
    let mut session = WireSession::new(Arc::clone(shared)).unwrap();
    assert!(form(&mut session, "(tenant hurt)").starts_with("{\"ok\":true"));
    for text in SCHEMA {
        assert!(
            form(&mut session, text).starts_with("{\"ok\":true"),
            "{text}"
        );
    }
    let mut bystander = WireSession::new(Arc::clone(shared)).unwrap();
    form(&mut bystander, "(tenant fine)");
    form(&mut bystander, "(create-ind Witness)");
    let fine = shared.tenant("fine").unwrap();

    let hurt = shared.tenant("hurt").unwrap();
    let panicked = std::thread::scope(|s| s.spawn(|| hurt.with_store(|_| panic!("boom"))).join());
    assert!(panicked.is_err() && hurt.is_poisoned());

    // The bound session, a fresh lookup, and /stats all find the tenant
    // whole; the other tenant is the very same one.
    let rocky = "{\"ok\":true,\"result\":{\"type\":\"individuals\",\"names\":[\"Rocky\"]}}";
    assert_eq!(form(&mut session, "(retrieve EATER)"), rocky);
    assert!(form(&mut session, "(create-ind Bullwinkle)").starts_with("{\"ok\":true"));
    let healed = shared.tenant("hurt").unwrap();
    assert!(!healed.is_poisoned() && !Arc::ptr_eq(&healed, &hurt));
    assert!(Arc::ptr_eq(session.tenant(), &healed));
    let stats = shared.all_stats();
    assert_eq!(
        stats
            .iter()
            .map(|t| (t.name.as_str(), t.individuals))
            .collect::<Vec<_>>(),
        [("default", 0), ("fine", 1), ("hurt", 3)]
    );
    assert!(Arc::ptr_eq(&fine, &shared.tenant("fine").unwrap()));
    assert_eq!(
        form(&mut bystander, "(retrieve THING)"),
        "{\"ok\":true,\"result\":{\"type\":\"individuals\",\"names\":[\"Witness\"]}}"
    );
    drop((session, bystander, hurt, healed, fine));
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
