//! # classic-server
//!
//! A multi-tenant network front for the CLASSIC reproduction: one
//! process hosts many independent durable knowledge bases, speaking the
//! surface syntax over TCP — the paper's "single language, multiple
//! roles" design extended to its fourth role (REPL input, script files,
//! the persistence log, and now the wire).
//!
//! The paper frames a CLASSIC DBMS as a shared facility: "the DB is
//! best thought of as a cache for persistent information" kept by a
//! server that many applications consult (§1, §5). This crate is that
//! deployment shape at reproduction scale:
//!
//! - **Tenants** ([`Tenant`]): each a [`classic_store::DurableKb`] in
//!   its own directory — separate log, segments, manifest. Writes go
//!   through the fsynced operation log; nothing a client does can
//!   bypass durability.
//! - **Snapshot-isolated reads** ([`Snapshot`]): queries run against a
//!   cloned KB pinned at one (version, generation) pair, so concurrent
//!   writers and background compaction never move the ground under an
//!   in-flight query.
//! - **Sessions** ([`WireSession`]): per-connection tenant binding and
//!   `what-if` **sandboxes** — a private KB copy whose mutations can be
//!   replayed into the tenant (`(sandbox commit)`) or dropped.
//! - **Observability**: `GET /metrics` serves the process-wide
//!   Prometheus roll-up (every tenant KB's counters plus the server's
//!   own request series); `GET /stats` serves per-tenant JSON.
//!
//! Networking is std-only (`TcpListener` + a fixed worker pool); the
//! crate adds no dependencies beyond the workspace's own layers.
//!
//! ## Wire protocol in one netcat session
//!
//! ```text
//! $ nc localhost 7587
//! (tenant demo)
//! {"ok":true,"result":{"type":"tenant","name":"demo"}}
//! (define-role child)
//! {"ok":true,"result":{"type":"ok"}}
//! (create-ind Mary)
//! {"ok":true,"result":{"type":"ok"}}
//! (sandbox begin)
//! {"ok":true,"result":{"type":"sandbox","state":"active"}}
//! (assert-ind Mary (at-least 3 child))
//! {"ok":true,"result":{"type":"asserted","steps":1,...}}
//! (sandbox rollback)
//! {"ok":true,"result":{"type":"sandbox","state":"rolled-back","discarded":1}}
//! (quit)
//! {"ok":true,"result":{"type":"bye"}}
//! ```
//!
//! The same session, embedded (port `0` picks a free port; the handle
//! resolves it):
//!
//! ```
//! use classic_server::{start, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let dir = std::env::temp_dir().join(format!("classic-doc-lib-{}", std::process::id()));
//! let handle = start(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     data_dir: dir.clone(),
//!     workers: 1,
//!     ..ServerConfig::default()
//! })?;
//!
//! let conn = std::net::TcpStream::connect(handle.local_addr())?;
//! let mut reader = BufReader::new(conn.try_clone()?);
//! let mut line = String::new();
//! (&conn).write_all(b"(ping)\n")?;
//! reader.read_line(&mut line)?;
//! assert_eq!(line.trim(), r#"{"ok":true,"result":{"type":"pong"}}"#);
//!
//! drop((conn, reader));
//! handle.shutdown()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The wire grammar — framing, session forms, every JSON reply shape,
//! and the HTTP endpoints — is specified in `docs/PROTOCOL.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod http;
pub mod push;
pub mod server;
pub mod session;
pub mod tenant;

/// Re-exported JSON value/parser (now lives in `classic-obs` so
/// non-server crates — notably `classic-ingest` — can read JSON too).
pub use classic_obs::{Json, JsonError};
pub use server::{start, ServerConfig, ServerHandle, ServerMetrics, Shared};
pub use session::{Control, WireSession};
pub use tenant::{NamedError, Snapshot, Tenant, TenantStats};
