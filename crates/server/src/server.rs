//! The server proper: listener, worker pool, framing, shared state.
//!
//! Std-only networking: one accept thread hands connections to a fixed
//! pool of worker threads over a channel. Each worker speaks either the
//! line protocol (s-expression forms in, JSON lines out — see
//! [`crate::session`]) or minimal HTTP (see [`crate::http`]), sniffed
//! from the first bytes of the connection.
//!
//! Framing for the line protocol is *paren balance*, not lines: a form
//! may span lines (exactly as in `.classic` script files), several
//! forms may share a line, and `;` comments and `"..."` strings are
//! honored while counting. Each complete form yields exactly one JSON
//! reply line, in order, sent in one write. The framer keeps its scan
//! state across reads, so framing costs time linear in the bytes
//! received.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use classic_core::{ClassicError, Result};
use classic_lang::{MAX_NESTING, TOO_DEEP};
use classic_obs::{
    Counter, ExemplarStore, Histogram, MetricsSnapshot, ObsLevel, Registry, RequestCtx,
};

use crate::http;
use crate::session::{self, Control, WireSession};
use crate::tenant::{Tenant, TenantStats};

/// How long a worker blocks in `read` before re-checking shutdown.
pub(crate) const POLL: Duration = Duration::from_millis(100);

/// Server configuration; `Default` gives a loopback ephemeral port,
/// a `classic-data` directory, and four workers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7587`. Port 0 picks a free one.
    pub addr: String,
    /// Root directory; each tenant stores under `<data_dir>/<name>/`.
    pub data_dir: PathBuf,
    /// Worker threads (= max concurrent connections served).
    pub workers: usize,
    /// Operator floor for `(obs-level …)` over the wire: sessions may
    /// raise the global level above this but never lower it below.
    pub obs_floor: ObsLevel,
    /// Operator floor for `(obs-sample …)` over the wire: sessions may
    /// not set a head-sampling rate below this.
    pub sample_floor: f64,
    /// When set, a background thread POSTs the full `/metrics`
    /// exposition to this URL (`http://host:port[/path]`) every
    /// [`ServerConfig::push_interval_secs`], with one final flush on
    /// graceful shutdown.
    pub push_gateway: Option<String>,
    /// Seconds between push-gateway deliveries (min 1).
    pub push_interval_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("classic-data"),
            workers: 4,
            obs_floor: ObsLevel::Counters,
            sample_floor: 0.0,
            push_gateway: None,
            push_interval_secs: 5,
        }
    }
}

/// Request-level counters and timings, enrolled in the process-global
/// metrics roll-up so `GET /metrics` exposes them alongside every
/// tenant KB's own series.
pub struct ServerMetrics {
    /// The registry the series below live in.
    pub registry: Arc<Registry>,
    /// Connections accepted (both protocols).
    pub connections: Counter,
    /// Line-protocol forms handled.
    pub requests: Counter,
    /// Forms that produced an `ok:false` reply.
    pub errors: Counter,
    /// HTTP requests handled.
    pub http_requests: Counter,
    /// Push-gateway deliveries completed.
    pub pushes: Counter,
    /// Per-form wall time, nanoseconds.
    pub request_ns: Histogram,
    /// Recent trace ids per latency bucket of `request_ns`, rendered as
    /// OpenMetrics exemplars on `/metrics`.
    pub exemplars: ExemplarStore,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        let mk = |r: std::result::Result<Counter, classic_obs::ObsError>| {
            r.expect("server metric names are static and valid")
        };
        ServerMetrics {
            connections: mk(
                registry.counter("classic_server_connections_total", "connections accepted")
            ),
            requests: mk(registry.counter(
                "classic_server_requests_total",
                "line-protocol forms handled",
            )),
            errors: mk(registry.counter(
                "classic_server_errors_total",
                "forms answered with ok:false",
            )),
            http_requests: mk(registry.counter(
                "classic_server_http_requests_total",
                "HTTP requests handled",
            )),
            pushes: mk(registry.counter(
                "classic_server_metric_pushes_total",
                "push-gateway deliveries completed",
            )),
            request_ns: registry
                .histogram("classic_server_request_ns", "per-form wall time (ns)")
                .expect("server metric names are static and valid"),
            exemplars: ExemplarStore::new(),
            registry,
        }
    }
}

/// State shared by every connection: the tenant table and metrics.
pub struct Shared {
    data_dir: PathBuf,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    /// Request-level counters and timings.
    pub metrics: ServerMetrics,
    shutdown: AtomicBool,
    obs_floor: ObsLevel,
    sample_floor: f64,
}

impl Shared {
    pub(crate) fn new(config: &ServerConfig) -> Shared {
        Shared {
            data_dir: config.data_dir.clone(),
            tenants: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            obs_floor: config.obs_floor,
            sample_floor: config.sample_floor,
        }
    }

    /// Run one wire request — a line-protocol form or an HTTP eval body —
    /// under its `server.request` root span, whose trace carries `ctx`
    /// (and so its tenant) into the process-wide flight recorder, and
    /// account for it: the wall time lands in
    /// `classic_server_request_ns` (with the trace id as an exemplar) and
    /// the process slowlog, and a failed request bumps the error counter.
    /// `serve` returns its reply and whether that reply is an error.
    pub(crate) fn request<T>(&self, ctx: RequestCtx, serve: impl FnOnce() -> (T, bool)) -> T {
        let started = Instant::now();
        let guard = classic_obs::request_span("server.request", ctx.clone());
        let (reply, failed) = serve();
        let dur_ns = started.elapsed().as_nanos() as u64;
        let trace = guard.finish();
        self.metrics.request_ns.record(dur_ns);
        if classic_obs::counters_enabled() {
            self.metrics
                .exemplars
                .observe(dur_ns, &ctx.trace_id.to_string());
            classic_obs::global_slowlog().record(ctx, dur_ns, trace);
        }
        if failed {
            self.metrics.errors.bump();
        }
        reply
    }

    /// Look up a tenant, opening (and creating on disk) on first use.
    ///
    /// Poisoning recovery: the table's critical sections only read the
    /// map or insert a fully-constructed `Arc<Tenant>`, so a panic
    /// elsewhere on a thread holding this lock cannot leave the map
    /// itself torn — recovering the guard is sound, and keeps one
    /// crashed request from taking every tenant down with it.
    ///
    /// A *tenant* whose own locks a panicking request poisoned is not
    /// recovered: its KB may be mid-mutation. It is dropped from the table
    /// and reopened from its log, which holds exactly the acknowledged
    /// writes; sessions still holding the old `Arc` rebind on their next
    /// form.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>> {
        validate_tenant_name(name)?;
        let mut map = self
            .tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(t) = map.get(name).filter(|t| !t.is_poisoned()) {
            return Ok(Arc::clone(t));
        }
        let tenant = Arc::new(Tenant::open(name, &self.data_dir.join(name))?);
        map.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Stats for every open tenant, sorted by name.
    pub fn all_stats(&self) -> Vec<TenantStats> {
        let names: Vec<String> = {
            let map = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            map.keys().cloned().collect()
        };
        // Collect outside the table lock: stats() takes each tenant's
        // primary lock and may wait behind a writer.
        let mut stats: Vec<TenantStats> = names
            .iter()
            .filter_map(|name| self.tenant(name).ok()?.stats().ok())
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// True once shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The operator floor wire sessions cannot lower `(obs-level)` below.
    pub fn obs_floor(&self) -> ObsLevel {
        self.obs_floor
    }

    /// The operator floor wire sessions cannot lower `(obs-sample)` below.
    pub fn sample_floor(&self) -> f64 {
        self.sample_floor
    }

    /// Every open tenant, sorted by name (for `/metrics` sections).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let mut out: Vec<Arc<Tenant>> = {
            let map = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            map.values().cloned().collect()
        };
        out.sort_by(|a, b| a.name().cmp(b.name()));
        out
    }

    /// The full `/metrics` exposition: each family once, its
    /// process-global roll-up sample (with OpenMetrics exemplars on the
    /// request-latency histogram) followed by one `tenant="…"`-labeled
    /// sample per open tenant.
    pub fn metrics_exposition(&self) -> String {
        let tenants: Vec<(String, MetricsSnapshot)> = self
            .tenants()
            .iter()
            .map(|t| (t.name().to_owned(), t.registry().snapshot()))
            .collect();
        classic_obs::render_prometheus_by_tenant(
            &classic_obs::snapshot_all(),
            &[(
                "classic_server_request_ns",
                self.metrics.exemplars.snapshot(),
            )],
            &tenants,
        )
    }
}

/// Tenant names become directory names and JSON payloads; keep them
/// boring: `[A-Za-z0-9_-]`, 1–64 chars.
pub(crate) fn validate_tenant_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(ClassicError::Malformed(format!(
            "invalid tenant name {name:?}: want 1-64 chars of [A-Za-z0-9_-]"
        )))
    }
}

/// A running server: join or shut it down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    pusher: Option<JoinHandle<()>>,
    conn_tx: Option<Sender<TcpStream>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (tenant table + metrics), e.g. for tests.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Block until the server shuts down (never, unless another thread
    /// holds a clone of the shared state and requests it). The binary
    /// parks here.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.join_workers();
    }

    /// Graceful shutdown: stop accepting, let workers finish their
    /// current form, then flush every tenant's log.
    pub fn shutdown(mut self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.join_workers();
        let stats = self.shared.all_stats();
        for s in &stats {
            self.shared.tenant(&s.name)?.flush()?;
        }
        Ok(())
    }

    fn join_workers(&mut self) {
        // Closing the channel lets idle workers observe disconnect.
        self.conn_tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The pusher exits after one final flush once it observes the
        // shutdown flag (or never, under plain join()).
        if let Some(h) = self.pusher.take() {
            let _ = h.join();
        }
    }
}

/// Start a server per `config`; returns once the listener is bound.
pub fn start(config: ServerConfig) -> Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr).map_err(|e| ClassicError::Storage {
        path: config.addr.clone(),
        generation: None,
        detail: format!("binding listener: {e}"),
    })?;
    let local_addr = listener.local_addr().map_err(|e| ClassicError::Storage {
        path: config.addr.clone(),
        generation: None,
        detail: format!("resolving bound address: {e}"),
    })?;
    let shared = Arc::new(Shared::new(&config));

    let (conn_tx, conn_rx) = channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let workers = (0..config.workers.max(1))
        .map(|ix| {
            let rx = Arc::clone(&conn_rx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("classic-worker-{ix}"))
                .spawn(move || worker_loop(rx, shared))
                .expect("spawning worker thread")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        let tx = conn_tx.clone();
        std::thread::Builder::new()
            .name("classic-accept".to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutting_down() {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            shared.metrics.connections.bump();
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
            .expect("spawning accept thread")
    };

    let pusher = config.push_gateway.as_ref().map(|url| {
        let url = url.clone();
        let shared = Arc::clone(&shared);
        let interval = Duration::from_secs(config.push_interval_secs.max(1));
        std::thread::Builder::new()
            .name("classic-push".to_owned())
            .spawn(move || crate::push::push_loop(&url, interval, &shared))
            .expect("spawning push thread")
    });

    Ok(ServerHandle {
        local_addr,
        shared,
        accept: Some(accept),
        workers,
        pusher,
        conn_tx: Some(conn_tx),
    })
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, shared: Arc<Shared>) {
    loop {
        let stream = {
            // The queue's critical section is a single `recv_timeout`;
            // a panicking sibling cannot leave the receiver mid-update,
            // so recover the guard rather than cascade worker deaths.
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match guard.recv_timeout(POLL) {
                Ok(s) => s,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if shared.shutting_down() {
                        return;
                    }
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        // Connection errors (peer gone, malformed HTTP) end that
        // connection only; the worker survives for the next one.
        let _ = serve_connection(stream, &shared);
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    // One small reply per form: without NODELAY, Nagle + delayed ACK
    // adds ~40ms to every round trip.
    stream.set_nodelay(true)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];

    // Sniff the protocol from the first bytes.
    let http = loop {
        if let Some(http) = speaks_http(&buf) {
            break http;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(()), // closed before saying anything
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if timed_out(&e) => {
                if shared.shutting_down() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    };
    if http {
        return http::serve_http(stream, buf, shared);
    }

    let mut session = match WireSession::new(Arc::clone(shared)) {
        Ok(s) => s,
        Err(e) => {
            let mut line = session::err(&e.to_string());
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
            return Ok(());
        }
    };
    let mut framer = Framer::new(buf);
    loop {
        // Drain every complete form currently buffered.
        loop {
            let form = match framer.next_form() {
                Ok(Some(form)) => form,
                Ok(None) => break,
                Err(violation) => {
                    // No way to resync the stream past a hostile frame:
                    // answer once and close.
                    shared.metrics.errors.bump();
                    let mut line = session::err(violation);
                    line.push('\n');
                    let _ = stream.write_all(line.as_bytes());
                    return Ok(());
                }
            };
            // Timing, tracing, slowlog, and exemplar recording all live
            // in handle_form, which owns the request context. A frame
            // that is not UTF-8 is refused, not rewritten; it is already
            // drained, so the connection goes on.
            let (mut reply, control) = match String::from_utf8(form) {
                Ok(form) => session.handle_form(&form),
                Err(e) => {
                    shared.metrics.errors.bump();
                    let reply = session::err(&format!("frame is not UTF-8: {}", e.utf8_error()));
                    (reply, Control::Continue)
                }
            };
            // The line goes out in one write: under NODELAY a second
            // write for the newline would be a second segment. The reply
            // was sized with room for it.
            reply.push('\n');
            stream.write_all(reply.as_bytes())?;
            if control == Control::Quit {
                return Ok(());
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(()),
            Ok(n) => framer.extend(&tmp[..n]),
            Err(e) if timed_out(&e) => {
                if shared.shutting_down() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Whether a connection that opened with `buf` speaks HTTP; `None` while
/// `buf` could still grow into `GET ` or `POST `. Decided from exactly as
/// many bytes as it takes, so the answer does not depend on how the
/// client's first write was cut into segments, and a line-protocol client
/// whose first frame is shorter than a method is not kept waiting.
fn speaks_http(buf: &[u8]) -> Option<bool> {
    let methods: [&[u8]; 2] = [b"GET ", b"POST "];
    if methods.iter().any(|m| buf.starts_with(m)) {
        return Some(true);
    }
    let undecided = methods.iter().any(|m| m.starts_with(buf));
    (!undecided).then_some(false)
}

pub(crate) fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Largest single frame (a form, or an unterminated string/comment/
/// whitespace run still waiting for its end) buffered before the
/// connection is rejected, so one client cannot OOM the server by
/// never closing a paren: 16 MiB.
const MAX_FORM_BYTES: usize = 16 << 20;

/// The line protocol's framer: the bytes a connection has sent that no
/// frame has taken yet, and where the scan for the next frame stopped.
/// Each call resumes that scan, so every byte is examined once however
/// the peer's writes were cut into reads, and framing costs time linear
/// in the bytes received.
#[derive(Debug, Default)]
struct Framer {
    /// Received bytes; a frame is drained from the front as it completes.
    buf: Vec<u8>,
    /// How many bytes of `buf` the scan has examined.
    scanned: usize,
    /// Where the frame begins, once the whitespace and comments before it
    /// are skipped: a form at a `(`, a line anywhere else.
    start: Option<usize>,
    /// Parens the form has open.
    depth: usize,
    /// Inside a `"…"` string of the form.
    in_string: bool,
    /// Just past a `\` inside that string.
    escaped: bool,
    /// Inside a `;` comment, within the form or before it.
    in_comment: bool,
    /// Bytes examined since the framer was made: what the linear-framing
    /// gate counts.
    #[cfg(test)]
    examined: usize,
}

impl Framer {
    /// A framer holding the bytes the protocol sniff already read.
    fn new(buf: Vec<u8>) -> Framer {
        Framer {
            buf,
            ..Framer::default()
        }
    }

    /// Bytes just read from the connection.
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete top-level frame, if the bytes hold one; it is
    /// drained from the buffer.
    ///
    /// Skips leading whitespace and `;` comments. A frame is either a
    /// balanced `( ... )` form (strings and comments honored while
    /// counting) or, for anything else at top level, a run up to the next
    /// newline — handed to the parser verbatim so the client gets a real
    /// parse error instead of a hung connection. `Ok(None)` means the frame
    /// is still incomplete. `Err` is a fatal framing violation — nesting
    /// past the language's own limit ([`MAX_NESTING`], docs/PROTOCOL.md
    /// §2.1: the framer only stops buffering a form the reader is certain
    /// to refuse), or [`MAX_FORM_BYTES`] buffered without a complete frame
    /// — after which the connection cannot be resynced and must close.
    fn next_form(&mut self) -> std::result::Result<Option<Vec<u8>>, &'static str> {
        while self.scanned < self.buf.len() {
            let ix = self.scanned;
            let b = self.buf[ix];
            self.scanned += 1;
            #[cfg(test)]
            {
                self.examined += 1;
            }
            let Some(start) = self.start else {
                // Top-level whitespace and comments before the frame.
                if self.in_comment {
                    self.in_comment = b != b'\n';
                } else if b == b';' {
                    self.in_comment = true;
                } else if !matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                    self.start = Some(ix);
                    if b == b'(' {
                        self.open()?;
                    }
                }
                continue;
            };
            if self.buf[start] != b'(' {
                // Not a form; take the line and let the parser complain.
                if b == b'\n' {
                    return Ok(Some(self.take(start, ix)));
                }
            } else if self.in_comment {
                self.in_comment = b != b'\n';
            } else if self.in_string {
                if self.escaped {
                    self.escaped = false;
                } else if b == b'\\' {
                    self.escaped = true;
                } else if b == b'"' {
                    self.in_string = false;
                }
            } else {
                match b {
                    b'"' => self.in_string = true,
                    b';' => self.in_comment = true,
                    b'(' => self.open()?,
                    b')' => {
                        self.depth -= 1;
                        if self.depth == 0 {
                            return Ok(Some(self.take(start, ix + 1)));
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.buf.len() > MAX_FORM_BYTES {
            return Err("frame exceeds the 16 MiB limit without completing a form");
        }
        Ok(None)
    }

    /// One more open paren, refused past the language's nesting limit.
    fn open(&mut self) -> std::result::Result<(), &'static str> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(TOO_DEEP);
        }
        Ok(())
    }

    /// The frame `buf[start..end]`. It is drained from the buffer with
    /// what precedes it and the byte that ended it, and the scan starts
    /// over at the front of what is left.
    fn take(&mut self, start: usize, end: usize) -> Vec<u8> {
        let frame = self.buf[start..end].to_vec();
        self.buf.drain(..self.scanned);
        self.scanned = 0;
        self.start = None;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every frame `bytes` holds, fed to one framer in segments cut at
    /// the ascending offsets `cuts` and drained after each segment the way
    /// `serve_connection` drains it, then the violation that ended the
    /// connection, if one did.
    fn frames(bytes: &[u8], cuts: &[usize]) -> (Vec<String>, Option<&'static str>) {
        let mut framer = Framer::default();
        let mut out = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&bytes.len()]) {
            framer.extend(&bytes[from..to]);
            from = to;
            loop {
                match framer.next_form() {
                    Ok(Some(form)) => out.push(String::from_utf8_lossy(&form).into_owned()),
                    Ok(None) => break,
                    Err(violation) => return (out, Some(violation)),
                }
            }
        }
        (out, None)
    }

    /// The bytes the framer tells apart — parens, quotes, backslashes,
    /// semicolons, line ends — thick among arbitrary ones, and now and
    /// then more opening parens than the language allows.
    fn frame_bytes() -> impl Strategy<Value = Vec<u8>> {
        let token = |t: &'static str| Just(t.as_bytes().to_vec());
        let piece = prop_oneof![
            4 => token("("),
            4 => token(")"),
            2 => token("\""),
            1 => token("\\"),
            1 => token(";"),
            2 => token("\n"),
            1 => token("\r\n"),
            1 => token(" "),
            1 => token("(ping)"),
            1 => token("GET "),
            1 => token("POST "),
            2 => proptest::collection::vec(0u8..=255, 0..6),
            1 => (0usize..2).prop_map(|extra| vec![b'('; MAX_NESTING + extra]),
        ];
        proptest::collection::vec(piece, 0..32).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever a peer sends: no panic, and neither the frames, nor
        /// the violation, nor which protocol the connection is taken to
        /// speak depend on where the bytes were cut into segments — at
        /// any one offset, at every offset (one byte a read, which cuts
        /// inside every `\"`, every `;` comment and every CR LF), or at
        /// any few offsets, one framer carrying its scan across them all.
        #[test]
        fn framing_does_not_depend_on_how_the_bytes_were_cut(
            (bytes, picks) in (frame_bytes(), proptest::collection::vec(0usize..4096, 0..8))
        ) {
            let whole = frames(&bytes, &[]);
            let protocol = speaks_http(&bytes);
            for cut in 0..bytes.len() {
                prop_assert_eq!(&frames(&bytes, &[cut]), &whole, "cut at {}", cut);
                let early = speaks_http(&bytes[..cut]);
                prop_assert!(early.is_none() || early == protocol, "cut at {}", cut);
            }
            let every: Vec<usize> = (1..bytes.len()).collect();
            prop_assert_eq!(&frames(&bytes, &every), &whole, "one byte a read");
            let mut cuts: Vec<usize> = picks.iter().map(|p| p % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            prop_assert_eq!(&frames(&bytes, &cuts), &whole, "cuts at {:?}", cuts);
        }
    }

    /// The three places a scan that resumes could lose its state: inside
    /// a string's `\"`, inside a `;` comment, between a line's CR and LF.
    #[test]
    fn a_frame_cut_inside_an_escape_a_comment_or_a_line_end_is_one_frame() {
        let bytes = b"(describe \"a \\\" ) b\") ; c ( ) \r\n(ping ; )\r\n)\r\nbad line\r\n";
        let want = vec![
            "(describe \"a \\\" ) b\")".to_owned(),
            "(ping ; )\r\n)".to_owned(),
            "bad line\r".to_owned(),
        ];
        assert_eq!(frames(bytes, &[]), (want.clone(), None));
        let at = |needle: &[u8], skip: usize| {
            bytes
                .windows(needle.len())
                .position(|w| w == needle)
                .expect("needle in the bytes")
                + skip
        };
        let escape = at(b"\\\"", 1);
        let comment = at(b"; c", 2);
        let form_comment = at(b"; )", 1);
        let crlf = at(b"\r\n", 1);
        let line = at(b"line\r\n", 5);
        for cuts in [
            vec![escape],
            vec![comment],
            vec![form_comment],
            vec![crlf],
            vec![line],
            vec![escape, comment, crlf, form_comment, line],
        ] {
            assert_eq!(
                frames(bytes, &cuts),
                (want.clone(), None),
                "cuts at {cuts:?}"
            );
        }
    }

    /// CI gate, an exact count rather than a wall time: framing is linear
    /// in the bytes received. A 4 MiB `bulk-load` form arriving in 4 KiB
    /// reads is examined at most once a byte, plus one byte a read.
    #[test]
    fn a_large_form_is_examined_once_however_many_reads_it_takes() {
        use std::fmt::Write as _;
        let mut form = String::from("(bulk-load (into FUNCTION) (roles loc doc)");
        for row in 0.. {
            if form.len() >= 4 << 20 {
                break;
            }
            let _ = write!(form, " (row f-{row} {row} \"a (\\\"{row}\\\" ; b\")");
        }
        form.push(')');
        let mut framer = Framer::default();
        let (mut received, mut reads) = (0, 0);
        let mut framed = Vec::new();
        for segment in form.as_bytes().chunks(4096) {
            framer.extend(segment);
            received += segment.len();
            reads += 1;
            while let Some(frame) = framer.next_form().expect("a well-formed form") {
                framed.push(frame);
            }
            assert!(
                framer.examined <= received + reads,
                "{} bytes examined for {received} received in {reads} reads",
                framer.examined
            );
        }
        assert_eq!(framed, [form.into_bytes()]);
    }

    /// `POST` alone is four bytes of a method that takes five to tell:
    /// the sniff once stopped there and took the request for a form.
    #[test]
    fn the_protocol_is_decided_from_as_many_bytes_as_it_takes() {
        assert_eq!(speaks_http(b""), None);
        assert_eq!(speaks_http(b"POST"), None);
        assert_eq!(speaks_http(b"POST /eval"), Some(true));
        assert_eq!(speaks_http(b"GET /healthz"), Some(true));
        assert_eq!(speaks_http(b"GETS"), Some(false));
        assert_eq!(speaks_http(b"x\n"), Some(false), "shorter than a method");
        assert_eq!(speaks_http(b"(ping)"), Some(false));
    }

    fn forms(input: &str) -> Vec<String> {
        let (forms, violation) = frames(input.as_bytes(), &[]);
        assert_eq!(violation, None, "well-framed input");
        forms
    }

    #[test]
    fn splits_multiple_forms_on_one_line() {
        assert_eq!(forms("(ping) (ping)"), vec!["(ping)", "(ping)"]);
    }

    #[test]
    fn multiline_form_waits_for_balance() {
        assert_eq!(forms("(define-concept A\n"), Vec::<String>::new());
        assert_eq!(
            forms("(define-concept A\n  (and B C))\n"),
            vec!["(define-concept A\n  (and B C))"]
        );
    }

    #[test]
    fn comments_and_strings_do_not_confuse_the_scanner() {
        assert_eq!(
            forms("; header comment\n(ping) ; trailing\n"),
            vec!["(ping)"]
        );
        let with_string = "(describe \"unbalanced ) ( inside\")";
        assert_eq!(forms(with_string), vec![with_string]);
    }

    #[test]
    fn bare_garbage_becomes_a_line_form() {
        assert_eq!(
            forms("garbage here\n(ping)"),
            vec!["garbage here", "(ping)"]
        );
    }

    #[test]
    fn hostile_frames_are_rejected_not_buffered() {
        // Nesting past the language's limit: refused, not buffered.
        let deep = "(".repeat(MAX_NESTING + 1);
        assert!(Framer::new(deep.into_bytes()).next_form().is_err());
        // A frame that outgrows the byte cap without ever completing —
        // here an unterminated string — must be rejected, not buffered.
        let mut huge = b"(describe \"".to_vec();
        huge.resize(MAX_FORM_BYTES + 2, b'a');
        assert!(Framer::new(huge).next_form().is_err());
        // At the cap boundary with a complete form, everything is fine.
        assert_eq!(
            Framer::new(b"(ping)".to_vec()).next_form().expect("framed"),
            Some(b"(ping)".to_vec())
        );
    }

    #[test]
    fn tenant_names_validated() {
        assert!(validate_tenant_name("default").is_ok());
        assert!(validate_tenant_name("t-1_A").is_ok());
        assert!(validate_tenant_name("").is_err());
        assert!(validate_tenant_name("../escape").is_err());
        assert!(validate_tenant_name("a b").is_err());
    }
}
