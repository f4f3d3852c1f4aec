//! Background push-gateway export: a std-only thread that POSTs the
//! full `/metrics` exposition (roll-up and per-tenant labeled samples,
//! exemplars) to an HTTP gateway at a fixed interval.
//!
//! Enabled by [`crate::ServerConfig::push_gateway`]; the loop wakes in
//! `POLL`-sized steps so a graceful shutdown is
//! observed within ~100 ms, at which point it performs one final flush
//! and exits — the gateway always receives the server's closing totals.
//!
//! The target URL is `http://host:port[/path]`; with no path the
//! conventional Prometheus push-gateway route `/metrics/job/classic` is
//! used. Delivery is fire-and-forget: a refused connection or non-2xx
//! reply is dropped (and simply not counted in
//! `classic_server_metric_pushes_total`) rather than ever stalling or
//! crashing the serving path.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::server::{Shared, POLL};

/// How long one delivery may spend connecting, writing, or reading.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The push thread body: flush every `interval` until shutdown, then
/// flush once more and exit.
pub(crate) fn push_loop(url: &str, interval: Duration, shared: &Arc<Shared>) {
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval && !shared.shutting_down() {
            std::thread::sleep(POLL);
            waited += POLL;
        }
        let closing = shared.shutting_down();
        if push_once(url, &shared.metrics_exposition()).is_ok() {
            shared.metrics.pushes.bump();
        }
        if closing {
            return;
        }
    }
}

/// POST `body` (a Prometheus text exposition) to `url` once.
///
/// Public so tests and embedders can exercise a delivery without
/// standing up the background thread.
pub fn push_once(url: &str, body: &str) -> std::io::Result<()> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| bad(format!("push gateway URL {url:?} must start with http://")))?;
    let (authority, path) = match rest.find('/') {
        Some(ix) => (&rest[..ix], &rest[ix..]),
        None => (rest, "/metrics/job/classic"),
    };
    let addr = authority
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| bad(format!("push gateway host {authority:?} did not resolve")))?;
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {authority}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    // Drain (and discard) the gateway's reply so it sees a clean close.
    let mut sink = [0u8; 512];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_scheme_is_required() {
        assert!(push_once("localhost:9091", "x 1\n").is_err());
        assert!(push_once("https://localhost:9091", "x 1\n").is_err());
    }
}
