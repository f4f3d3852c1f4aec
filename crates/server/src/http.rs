//! Minimal HTTP/1.1 for observability and stateless eval.
//!
//! Just enough of the protocol for `curl` and a Prometheus scraper —
//! one request per connection, `Connection: close`, no chunked
//! encoding, no keep-alive:
//!
//! | route                  | payload                                     |
//! |------------------------|---------------------------------------------|
//! | `GET /healthz`         | `ok` once the listener is up                |
//! | `GET /metrics`         | process-wide Prometheus exposition, each    |
//! |                        | family with its per-tenant labeled samples  |
//! | `GET /stats`           | per-tenant JSON (version, generation, size) |
//! | `GET /lint?tenant=T`   | tenant diagnostics (`&cone=1` for the cone) |
//! | `GET /trace?tenant=T`  | retained traces of T's requests as Chrome   |
//! |                        | trace-event JSON (`?id=HEX` for one trace,  |
//! |                        | no params for every retained trace)         |
//! | `GET /slowlog?n=K`     | the K slowest requests with span trees      |
//! | `POST /eval?tenant=T`  | body = s-expr forms; JSON array of results  |
//! | `POST /ingest?tenant=T`| body = raw CSV/JSON rows; bulk-load report  |
//!
//! `POST /eval` participates in request tracing: the whole request runs
//! under one `server.request` root span (kind `http.eval`). A client
//! may supply its own trace id via the `X-Classic-Trace` header —
//! malformed or oversize ids are a 400 with a positioned error, not a
//! silently minted fresh id — and the reply echoes the id in effect in
//! the same header.
//!
//! `POST /eval` is stateless: each request parses and executes its
//! body's forms in order against tenant `T` (default `default`),
//! stopping at the first failure. Session forms (`tenant`, `sandbox`,
//! `ping`, `quit`) belong to the line protocol and are rejected here by
//! the parser like any other unknown form.
//!
//! `POST /ingest` streams record-shaped data through the bulk pipeline
//! (`classic-ingest`): the body is raw CSV or JSON rows, and the query
//! string carries the ingest options — `format=csv|json` (default
//! `csv`), `entity=NAME` (the concept rows load into, default
//! `record`), `id=COL` (column holding each row's individual name),
//! `infer=1` (derive a starter TBox from value shapes first). The load
//! commits through the store's segment tier — one compaction, no
//! per-row log appends — and the reply reports rows, accepted,
//! rejected, individuals created, and the committed generation.
//! Malformed input (ragged rows, duplicate ids) rejects the whole
//! request with 400 before anything is written.

use std::io::{Read, Write};
use std::sync::Arc;

use classic_obs::{json_string, RequestCtx, TraceId};

use crate::server::{validate_tenant_name, Shared};
use crate::session::write_err;
use crate::tenant::TenantStats;

/// Cap on the request head (start line + headers): 1 MiB.
const MAX_REQUEST: usize = 1 << 20;

/// Cap on the declared request body: 16 MiB, answered with 413 beyond.
const MAX_BODY: usize = 16 << 20;

/// Serve one HTTP request whose first bytes are already in `buf`.
pub fn serve_http(
    mut stream: impl Read + Write,
    mut buf: Vec<u8>,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    shared.metrics.http_requests.bump();
    let req = match read_request(&mut stream, &mut buf, shared) {
        Ok(Some(r)) => r,
        Ok(None) => return Ok(()), // peer went away mid-request
        Err((status, msg)) => {
            return respond(
                &mut stream,
                status,
                "text/plain; charset=utf-8",
                &format!("{msg}\n"),
            )
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n"),
        ("GET", "/metrics") => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &shared.metrics_exposition(),
        ),
        ("GET", "/stats") => respond(
            &mut stream,
            200,
            "application/json",
            &stats_json(&shared.all_stats()),
        ),
        ("GET", "/trace") => match trace_dump(&req) {
            Ok(json) => respond(&mut stream, 200, "application/json", &json),
            Err((status, msg)) => {
                respond(&mut stream, status, "application/json", &error_body(&msg))
            }
        },
        ("GET", "/slowlog") => {
            let n = req
                .query_param("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(10);
            respond(
                &mut stream,
                200,
                "application/json",
                &format!("{}\n", classic_obs::global_slowlog().render_json(n)),
            )
        }
        ("GET", "/lint") => {
            let tenant_name = req.query_param("tenant").unwrap_or("default");
            let cone = matches!(req.query_param("cone"), Some("1" | "true"));
            match lint_tenant(shared, tenant_name, cone) {
                Ok(json) => respond(&mut stream, 200, "application/json", &json),
                Err(msg) => respond(&mut stream, 400, "application/json", &error_body(&msg)),
            }
        }
        ("POST", "/eval") => {
            let tenant_name = req.query_param("tenant").unwrap_or("default");
            // Adopt the client's trace id or mint one; a bad header is a
            // positioned 400, never a silently minted id.
            let trace_id = match req.trace.as_deref() {
                Some(raw) => match TraceId::parse(raw) {
                    Ok(t) => t,
                    Err(e) => {
                        return respond(
                            &mut stream,
                            400,
                            "application/json",
                            &error_body(&format!("X-Classic-Trace: {e}")),
                        )
                    }
                },
                None => TraceId::mint(),
            };
            let id_hex = trace_id.to_string();
            let body = match eval_body(shared, tenant_name, &req.body, trace_id) {
                Ok(json) => json,
                Err(msg) => {
                    return respond(&mut stream, 400, "application/json", &error_body(&msg))
                }
            };
            respond_traced(&mut stream, 200, "application/json", &body, Some(&id_hex))
        }
        ("POST", "/ingest") => {
            let tenant_name = req.query_param("tenant").unwrap_or("default");
            match ingest_body(shared, tenant_name, &req) {
                Ok(json) => respond(&mut stream, 200, "application/json", &json),
                Err(msg) => respond(&mut stream, 400, "application/json", &error_body(&msg)),
            }
        }
        ("GET" | "POST", _) => {
            respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n")
        }
        _ => respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        ),
    }
}

#[derive(Debug, PartialEq)]
struct Request {
    method: String,
    path: String,  // path without query string
    query: String, // query string without '?', may be empty
    body: String,
    trace: Option<String>, // X-Classic-Trace header value, if present
}

impl Request {
    fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Read the rest of the request (headers were possibly split across
/// reads). `Ok(None)` = connection closed early; `Err` = malformed or
/// over-limit, as an HTTP `(status, message)` pair.
fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    shared: &Shared,
) -> Result<Option<Request>, (u16, String)> {
    let bad = |msg: &str| (400, msg.to_owned());
    let mut tmp = [0u8; 4096];
    // Bytes already searched for the blank line, and found without one.
    let mut searched: usize = 0;
    let header_end = loop {
        // The blank line that ends first, whichever way it is spelled:
        // the one a reader that saw the bytes arrive one at a time would
        // have stopped at, so the request does not depend on how the
        // peer's writes were cut into segments. Neither spelling lies
        // wholly inside the bytes searched before, so the search resumes
        // three bytes back from where it stopped: the head costs time
        // linear in its length, however many reads it takes.
        let from = searched.saturating_sub(3);
        let crlf = find(&buf[from..], b"\r\n\r\n").map(|ix| from + ix + 4);
        let lf = find(&buf[from..], b"\n\n").map(|ix| from + ix + 2);
        if let Some(end) = crlf.into_iter().chain(lf).min() {
            break end;
        }
        searched = buf.len();
        if buf.len() > MAX_REQUEST {
            return Err((431, "request headers too large".to_owned()));
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if crate::server::timed_out(&e) => {
                if shared.shutting_down() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(bad(&format!("read error: {e}"))),
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let start = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = start.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_owned();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    let mut content_length: Option<usize> = None;
    let mut trace: Option<String> = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(v.trim().parse().map_err(|_| bad("bad content-length"))?);
            } else if k.trim().eq_ignore_ascii_case("x-classic-trace") {
                trace = Some(v.trim().to_owned());
            }
        }
    }
    let content_length = match content_length {
        Some(n) => n,
        // A POST body with no declared length cannot be framed under
        // `Connection: close`-only HTTP; say so instead of hanging
        // until the read times out or misparsing the stream.
        None if method == "POST" => {
            return Err((411, "POST requires a Content-Length header".to_owned()))
        }
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err((
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"),
        ));
    }

    while buf.len() < header_end + content_length {
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if crate::server::timed_out(&e) => {
                if shared.shutting_down() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(bad(&format!("read error: {e}"))),
        }
    }
    // A body is text: bytes that are not UTF-8 are refused, never
    // rewritten into U+FFFD and stored.
    let body = String::from_utf8(buf[header_end..header_end + content_length].to_vec())
        .map_err(|e| bad(&format!("request body is not UTF-8: {e}")))?;
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        trace,
    }))
}

/// Answer `GET /trace`: Chrome trace-event JSON (Perfetto-loadable),
/// from the process-wide flight recorder. `?id=HEX` exports one trace;
/// `?tenant=T` exports the traces of T's wire requests, without opening
/// T (traces rooted outside a request, such as query worker batches,
/// have no tenant and are not among them); no parameters exports every
/// retained trace.
fn trace_dump(req: &Request) -> Result<String, (u16, String)> {
    if let Some(id) = req.query_param("id") {
        let full = TraceId::parse(id)
            .map_err(|e| (400, e.to_string()))?
            .to_string();
        return match classic_obs::find_trace(&full) {
            Some(t) => Ok(classic_obs::render_chrome_trace(&[t])),
            None => Err((404, format!("no retained trace with id {full}"))),
        };
    }
    let mut traces = classic_obs::all_traces();
    if let Some(name) = req.query_param("tenant") {
        validate_tenant_name(name).map_err(|e| (400, e.to_string()))?;
        traces.retain(|t| t.ctx.as_ref().is_some_and(|c| c.tenant == name));
    }
    Ok(classic_obs::render_chrome_trace(&traces))
}

/// Answer `GET /lint`: the tenant's diagnostics from its incremental
/// analysis state (refreshed in O(dirty cone) under the primary lock).
fn lint_tenant(shared: &Arc<Shared>, tenant_name: &str, cone: bool) -> Result<String, String> {
    let tenant = shared.tenant(tenant_name).map_err(|e| e.to_string())?;
    shared.metrics.requests.bump();
    let outcome = tenant
        .execute(&classic_lang::Command::LintKb { cone })
        .map_err(|e| {
            shared.metrics.errors.bump();
            e.to_string()
        })?;
    let mut body = String::new();
    outcome.write_json(&mut body);
    body.push('\n');
    Ok(body)
}

/// Execute the forms in `body` against `tenant_name`, in order,
/// stopping at the first failure (which becomes the final element).
///
/// The whole request is one `server.request` (kind `http.eval`), served
/// and accounted for by [`Shared::request`] — the same pipeline as a
/// line-protocol form, because it is the same function.
fn eval_body(
    shared: &Arc<Shared>,
    tenant_name: &str,
    body: &str,
    trace_id: TraceId,
) -> Result<String, String> {
    let tenant = shared.tenant(tenant_name).map_err(|e| e.to_string())?;
    let commands = classic_lang::parse(body).map_err(|e| e.to_string())?;
    let ctx = RequestCtx {
        trace_id,
        tenant: tenant_name.to_owned(),
        session: classic_obs::next_session_id(),
        kind: "http.eval",
    };
    let body = shared.request(ctx, || {
        let mut body = String::from("[");
        let mut failed = false;
        for (ix, cmd) in commands.iter().enumerate() {
            if ix > 0 {
                body.push(',');
            }
            shared.metrics.requests.bump();
            tenant.count_request();
            if tenant.write_reply(cmd, &mut body) {
                failed = true;
                break;
            }
        }
        body.push_str("]\n");
        (body, failed)
    });
    Ok(body)
}

/// A JSON error body: `{"ok":false,"error":…}` and a newline.
fn error_body(message: &str) -> String {
    let mut body = String::new();
    write_err(&mut body, message);
    body.push('\n');
    body
}

/// Answer `POST /ingest`: plan the bulk load from the raw body, then
/// commit it through the tenant's segment-tier path
/// ([`crate::tenant::Tenant::ingest`]). Planning failures (malformed
/// CSV/JSON, duplicate ids, bad options) surface before any write.
fn ingest_body(shared: &Arc<Shared>, tenant_name: &str, req: &Request) -> Result<String, String> {
    use classic_ingest::{Format, IngestOptions};
    use std::fmt::Write as _;

    let tenant = shared.tenant(tenant_name).map_err(|e| e.to_string())?;
    shared.metrics.requests.bump();
    let fail = |msg: String| {
        shared.metrics.errors.bump();
        msg
    };
    let format = match req.query_param("format") {
        Some(f) => Format::parse(f)
            .ok_or_else(|| fail(format!("unknown format {f:?} (expected csv or json)")))?,
        None => Format::Csv,
    };
    let opts = IngestOptions {
        format,
        entity: req.query_param("entity").unwrap_or("record").to_owned(),
        id_column: req.query_param("id").map(str::to_owned),
        infer: matches!(req.query_param("infer"), Some("1" | "true")),
        source: format!("http://{tenant_name}/ingest"),
    };
    let plan = classic_ingest::plan(req.body.as_bytes(), &opts).map_err(|e| fail(e.to_string()))?;
    let out = tenant.ingest(&plan).map_err(|e| fail(e.to_string()))?;

    let r = &out.report;
    let mut body = format!(
        "{{\"ok\":true,\"result\":{{\"type\":\"ingested\",\"entity\":{},\"rows\":{},\
         \"accepted\":{},\"rejected\":{},\"created\":{},\"ddl_applied\":{},\"generation\":{}",
        json_string(&plan.entity),
        r.rows,
        r.accepted,
        r.rejected,
        r.inds_created,
        out.ddl_applied,
        out.generation,
    );
    body.push_str(",\"rejections\":[");
    for (ix, rej) in r.rejections.iter().enumerate() {
        if ix > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"row\":{},\"name\":{},\"error\":{}}}",
            rej.row,
            json_string(&rej.name),
            json_string(&rej.error)
        );
    }
    body.push_str("]}}\n");
    Ok(body)
}

fn stats_json(stats: &[TenantStats]) -> String {
    let tenants: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"version\":{},\"generation\":{},\"pending_ops\":{},\
                 \"individuals\":{},\"concepts\":{},\"rules\":{}}}",
                json_string(&s.name),
                s.version,
                s.generation,
                s.pending_ops,
                s.individuals,
                s.concepts,
                s.rules
            )
        })
        .collect();
    format!("{{\"tenants\":[{}]}}\n", tenants.join(","))
}

fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_traced(stream, status, content_type, body, None)
}

/// Like [`respond`], echoing the trace id in effect for the request in
/// an `X-Classic-Trace` response header. The head and the body go out in
/// one write: under `TCP_NODELAY` two writes are two segments.
fn respond_traced(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    trace_id: Option<&str>,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let trace_header = match trace_id {
        Some(id) => format!("X-Classic-Trace: {id}\r\n"),
        None => String::new(),
    };
    let mut reply = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         {trace_header}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    reply.push_str(body);
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use proptest::prelude::*;

    /// A peer whose bytes arrive as the given segments, then closes.
    struct Segments<'a>(std::vec::IntoIter<&'a [u8]>);

    impl Read for Segments<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let Some(segment) = self.0.find(|s| !s.is_empty()) else {
                return Ok(0);
            };
            out[..segment.len()].copy_from_slice(segment);
            Ok(segment.len())
        }
    }

    /// What the reader makes of a peer that sends `segments` and closes.
    fn request_from(
        shared: &Shared,
        segments: Vec<&[u8]>,
    ) -> Result<Option<Request>, (u16, String)> {
        read_request(&mut Segments(segments.into_iter()), &mut Vec::new(), shared)
    }

    /// Bytes that look enough like a request to get past the first line:
    /// methods, targets, header names, both line endings, numbers — and
    /// anything at all in between.
    fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
        let token = |t: &'static str| Just(t.as_bytes().to_vec());
        let piece = prop_oneof![
            1 => token("GET "),
            1 => token("POST "),
            1 => token("/eval?tenant=t&x=1 "),
            1 => token("HTTP/1.1"),
            3 => token("\r\n"),
            3 => token("\n"),
            1 => token("\r"),
            1 => token("Content-Length:"),
            1 => token("content-length: "),
            1 => token("X-Classic-Trace: 00ff"),
            1 => token(":"),
            1 => (0usize..40).prop_map(|n| n.to_string().into_bytes()),
            1 => token("99999999999999999999999"),
            1 => token("(ping)"),
            1 => proptest::collection::vec(0u8..=255, 0..6),
        ];
        proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
    }

    /// Found by the property below: the headers end at the first blank
    /// line, not at the first CR LF CR LF wherever it is — here inside
    /// what follows the request.
    #[test]
    fn headers_end_at_the_first_blank_line_of_either_spelling() {
        let shared = Shared::new(&ServerConfig::default());
        let bytes = b"GET /stats HTTP/1.1\n\nContent-Length: x\r\n\r\n";
        let whole = request_from(&shared, vec![bytes])
            .expect("a request")
            .expect("complete");
        assert_eq!(
            (whole.method.as_str(), whole.path.as_str()),
            ("GET", "/stats")
        );
        assert_eq!(
            request_from(&shared, vec![&bytes[..21], &bytes[21..]]),
            Ok(Some(whole))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever a peer sends, the reader neither panics nor reads a
        /// different request (or error, or early close) out of it when
        /// the same bytes arrive in two segments cut at any point.
        #[test]
        fn a_request_does_not_depend_on_how_its_bytes_were_cut(bytes in request_bytes()) {
            let shared = Shared::new(&ServerConfig::default());
            let whole = request_from(&shared, vec![&bytes]);
            for cut in 0..=bytes.len() {
                let (head, tail) = bytes.split_at(cut);
                let cut_in_two = request_from(&shared, vec![head, tail]);
                prop_assert_eq!(&cut_in_two, &whole, "cut at {}", cut);
            }
        }
    }

    /// A peer that sends `request` and closes, and counts the calls its
    /// server makes to `write`.
    struct Counted<'a> {
        request: &'a [u8],
        reply: Vec<u8>,
        writes: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.request.read(out)
        }
    }

    impl Write for Counted<'_> {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.reply.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn an_eval_reply_goes_out_in_one_write() {
        let dir =
            std::env::temp_dir().join(format!("classic-http-one-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = Arc::new(Shared::new(&ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        }));
        let body = "(create-ind Rocky) (retrieve THING)";
        let request = format!(
            "POST /eval?tenant=t HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut peer = Counted {
            request: request.as_bytes(),
            reply: Vec::new(),
            writes: 0,
        };
        serve_http(&mut peer, Vec::new(), &shared).expect("served");
        let reply = String::from_utf8(peer.reply).expect("a UTF-8 reply");
        assert_eq!(peer.writes, 1, "{reply}");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(
            reply.ends_with(concat!(
                "\r\n\r\n",
                r#"[{"ok":true,"result":{"type":"ok"}},"#,
                r#"{"ok":true,"result":{"type":"individuals","names":["Rocky"]}}]"#,
                "\n"
            )),
            "{reply}"
        );
        drop(shared);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_params_parse() {
        let r = Request {
            method: "POST".into(),
            path: "/eval".into(),
            query: "tenant=t1&x=2".into(),
            body: String::new(),
            trace: None,
        };
        assert_eq!(r.query_param("tenant"), Some("t1"));
        assert_eq!(r.query_param("x"), Some("2"));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn stats_render_as_json() {
        let s = TenantStats {
            name: "default".into(),
            version: 3,
            generation: 1,
            pending_ops: 2,
            individuals: 4,
            concepts: 5,
            rules: 0,
        };
        let json = stats_json(&[s]);
        assert!(json.contains("\"name\":\"default\""));
        assert!(json.contains("\"version\":3"));
        assert!(json.starts_with("{\"tenants\":["));
    }
}
