//! One tenant = one [`DurableKb`] plus a cached read snapshot.
//!
//! The server hosts many independent knowledge bases in one process.
//! Each lives in its own directory under the server data root and is
//! wrapped in a [`Tenant`], which arbitrates two access paths:
//!
//! - **Mutations** drop the cached snapshot, take the primary store
//!   lock, run through [`DurableKb::eval_durable`] (so every write hits
//!   the fsynced operation log), then bump the tenant *version* and
//!   invalidate the cache again. Dropping it first matters: a snapshot
//!   shares every chunk with the primary, the partial last chunk of each
//!   table included, so a write while one is cached copies each chunk it
//!   lands in; with no reader pinning it, the write finds them unshared
//!   and copies nothing.
//! - **Reads** run against an [`Arc<Snapshot>`] — the KB as it stood at
//!   a specific version: a `Kb::clone`, which shares the primary's
//!   storage chunk for chunk and its TBox whole, so cutting one copies a
//!   pointer per chunk and no entry, and dropping one frees only what
//!   writes made while it was pinned copied. A read borrows
//!   ([`classic_lang::eval_read`] takes `&Kb`), so the snapshot holds its
//!   KB bare: any number of readers of one version run at once, and a
//!   reader holds its `Arc` for as long as it likes, so a concurrent
//!   writer (or an ingest's compaction changing the store generation)
//!   never shifts the ground under an in-flight query. That is
//!   snapshot isolation in the only sense a structural KB needs:
//!   each query sees one consistent version, pinned for its duration.
//! - **Trials and lints** — `(what-if …)` and `(lint-kb)` — change
//!   nothing durable but need the primary: a trial asserts and rolls
//!   back, the lint refreshes the analysis state against the primary.
//!   Both run under the store lock, log nothing, bump no version, and
//!   leave the cached snapshot in place — so a trial made while it is
//!   cached copies the chunks it touches, and its rollback writes back
//!   into those copies.
//!
//! A write tells the analysis state nothing. The state keeps the KB
//! version it last refreshed against, and a refresh compares it with the
//! primary to find what changed ([`AnalysisState::refresh`]). So a
//! tenant nobody lints never touches its analysis state, and one linted
//! at least once pins the chunks of the version it was last linted at:
//! a write copies each chunk it lands in that the two still share.
//!
//! # Lock order
//!
//! The one order is `snap` → `primary` → `analysis`: a thread holding
//! one of them acquires only locks to its right. The read path takes
//! `snap` and, when the cache is cold or stale, `primary` under it to
//! cut a new snapshot. The write path holds `snap` only for the moment
//! it takes to empty the cache, before it locks `primary` and again
//! after it has released it. Under `primary`, `(lint-kb)` takes
//! `analysis`, and so does a write with lint-on-write on, after it has
//! applied; a write with lint-on-write off, a trial and an ingest never
//! take it. Since no thread waits on a lock to the left of one it holds,
//! the three cannot deadlock. The state refreshes only under `primary`,
//! so the version it keeps only moves forward.
//!
//! A lock poisoned by a panicking request is not recovered in place:
//! [`Tenant::is_poisoned`] tells the tenant table to drop the tenant and
//! reopen it from its log.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use classic_analyze::AnalysisState;
use classic_core::{ClassicError, Result};
use classic_kb::Kb;
use classic_lang::{Command, LintReport, Outcome};
use classic_obs::{Counter, FlightRecorder, Registry};
use classic_store::DurableKb;

/// A poisoned tenant lock means some earlier evaluation panicked while
/// holding it, so the guarded KB may be mid-mutation. Rather than let
/// every subsequent request kill its worker thread via `expect`, a
/// request that still holds this tenant gets this error — the rest of
/// the process (other tenants, metrics, health checks) keeps serving, and
/// the tenant table replaces the tenant on the next lookup.
fn poisoned(what: &str, tenant: &str) -> ClassicError {
    ClassicError::Storage {
        path: tenant.to_owned(),
        generation: None,
        detail: format!(
            "{what} lock poisoned: a previous request panicked mid-operation; \
             the next request reopens this tenant from its log"
        ),
    }
}

/// A failed request: the engine's error, and its text with every role,
/// concept, individual, primitive and test *named*. A [`ClassicError`]
/// carries arena indices, which mean something only next to the symbol
/// table of the KB that raised it — the primary, or one particular
/// snapshot — so the tenant renders the text while it still holds that
/// KB, and the wire sends `message`, never `error.to_string()`.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedError {
    /// The error as the engine raised it.
    pub error: ClassicError,
    /// `error`, rendered with names ([`ClassicError::display`]).
    pub message: String,
}

impl NamedError {
    fn new(error: ClassicError, kb: &Kb) -> NamedError {
        let message = error.display(&kb.schema().symbols).to_string();
        NamedError { error, message }
    }
}

/// For errors that carry no ids to name (lock poisoning, storage).
impl From<ClassicError> for NamedError {
    fn from(error: ClassicError) -> NamedError {
        let message = error.to_string();
        NamedError { error, message }
    }
}

impl std::fmt::Display for NamedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for NamedError {}

/// Name `error` against the store's KB. A tenant's store is opened
/// eagerly, so the KB is whole; were it not, indices are still the truth.
fn named_in(store: &DurableKb, error: ClassicError) -> NamedError {
    match store.kb() {
        Ok(kb) => NamedError::new(error, kb),
        Err(_) => error.into(),
    }
}

/// An immutable copy of a tenant KB at one version: nothing that holds
/// a snapshot can reach `&mut Kb`, so it needs no lock.
pub struct Snapshot {
    /// Store generation (manifest) the snapshot was cut at.
    pub generation: u64,
    /// Tenant version (monotone per-mutation counter) it reflects.
    pub version: u64,
    kb: Kb,
}

impl Snapshot {
    /// The snapshot's KB.
    pub fn kb(&self) -> &Kb {
        &self.kb
    }

    /// Answer a read against this snapshot.
    pub fn eval(&self, cmd: &Command) -> std::result::Result<Outcome, NamedError> {
        classic_lang::eval_read(&self.kb, cmd).map_err(|e| NamedError::new(e, &self.kb))
    }
}

/// A named durable KB hosted by the server.
///
/// Its three locks are taken in the order the module docs give (`snap`
/// → `primary` → `analysis`); the analysis state is refreshed against
/// the *primary* KB, so only under the store lock, and only by a lint: a
/// write takes the analysis lock only with lint-on-write on.
pub struct Tenant {
    name: String,
    version: AtomicU64,
    primary: Mutex<DurableKb>,
    snap: Mutex<Option<Arc<Snapshot>>>,
    /// Incrementally-maintained analysis over the primary KB: `(lint-kb)`
    /// refreshes it in O(what changed since the last lint), found by
    /// comparing the version it kept with the primary.
    analysis: Mutex<AnalysisState>,
    /// When set, every mutation reply carries the cone diagnostics its
    /// write re-derived (`(lint-on-write on)`).
    lint_on_write: AtomicBool,
    /// The tenant KB's metric registry, cached at open so `/metrics`
    /// can render a tenant-labeled section without the primary lock.
    /// `Kb::clone` shares this `Arc`, so snapshot and sandbox evals
    /// land in the same registry.
    registry: Arc<Registry>,
    /// The tenant KB's flight recorder, cached for the same reason:
    /// request root spans and `GET /trace?tenant=…` both need it
    /// without waiting behind a writer.
    recorder: Arc<FlightRecorder>,
    /// Wire requests routed to this tenant (line protocol and HTTP),
    /// registered in the tenant's own registry so the roll-up sums it
    /// and the labeled section attributes it.
    requests: Counter,
}

/// A point-in-time summary of one tenant, for `/stats`.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name (also its directory stem under the data root).
    pub name: String,
    /// Mutations applied since the server opened the tenant.
    pub version: u64,
    /// Snapshot-store generation (advances on compaction).
    pub generation: u64,
    /// Operations in the log suffix not yet folded into segments.
    pub pending_ops: u64,
    /// Individuals in the KB.
    pub individuals: usize,
    /// Named concepts in the schema.
    pub concepts: usize,
    /// Classification rules (including retracted tombstones).
    pub rules: usize,
}

impl Tenant {
    /// Open (or create) the tenant rooted at `dir`, replaying its log.
    ///
    /// The wire protocol has no way to ship host test functions, so the
    /// tenant registers none; a log that references `(test ...)`
    /// predicates from an embedded-use session will fail to open here,
    /// which is the honest outcome.
    pub fn open(name: &str, dir: &Path) -> Result<Tenant> {
        std::fs::create_dir_all(dir).map_err(|e| ClassicError::Storage {
            path: dir.display().to_string(),
            generation: None,
            detail: format!("creating tenant directory: {e}"),
        })?;
        let store = DurableKb::open(dir.join("kb.log"), |_| {})?;
        let (registry, recorder) = {
            let kb = store.kb()?;
            (Arc::clone(kb.metrics()), Arc::clone(kb.flight_recorder()))
        };
        let requests = registry
            .counter(
                "classic_tenant_requests_total",
                "wire requests routed to this tenant",
            )
            .map_err(|e| ClassicError::Malformed(e.to_string()))?;
        Ok(Tenant {
            name: name.to_owned(),
            version: AtomicU64::new(0),
            primary: Mutex::new(store),
            snap: Mutex::new(None),
            analysis: Mutex::new(AnalysisState::new()),
            lint_on_write: AtomicBool::new(false),
            registry,
            recorder,
            requests,
        })
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current version: the number of successful mutations so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The tenant KB's metric registry (snapshot/sandbox clones share
    /// it); `/metrics` renders its series under a `tenant="…"` label.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tenant KB's flight recorder: every request root span for
    /// this tenant records here, and `GET /trace?tenant=…` reads it.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Count one wire request (line-protocol form or HTTP eval) routed
    /// to this tenant.
    pub fn count_request(&self) {
        self.requests.bump();
    }

    /// Did a request panic while holding one of this tenant's locks? The
    /// guarded state may be mid-mutation, so it is never recovered in
    /// place; the tenant table drops such a tenant and reopens it from
    /// its log, where every acknowledged write is.
    pub fn is_poisoned(&self) -> bool {
        self.primary.is_poisoned() || self.snap.is_poisoned() || self.analysis.is_poisoned()
    }

    fn lock_primary(&self) -> Result<MutexGuard<'_, DurableKb>> {
        self.primary
            .lock()
            .map_err(|_| poisoned("primary store", &self.name))
    }

    fn lock_snap(&self) -> Result<MutexGuard<'_, Option<Arc<Snapshot>>>> {
        self.snap
            .lock()
            .map_err(|_| poisoned("snapshot cache", &self.name))
    }

    fn lock_analysis(&self) -> Result<MutexGuard<'_, AnalysisState>> {
        self.analysis
            .lock()
            .map_err(|_| poisoned("analysis state", &self.name))
    }

    /// Whether mutation replies carry their cone diagnostics.
    pub fn lint_on_write(&self) -> bool {
        self.lint_on_write.load(Ordering::Acquire)
    }

    /// Toggle lint-on-write mode for this tenant.
    pub fn set_lint_on_write(&self, on: bool) {
        self.lint_on_write.store(on, Ordering::Release);
    }

    /// Evaluate one command, routing by [`Command::is_mutation`]:
    /// writes through the durable log, reads against a shared snapshot.
    pub fn execute(&self, cmd: &Command) -> std::result::Result<Outcome, NamedError> {
        self.execute_with_lint(cmd).map(|(outcome, _)| outcome)
    }

    /// [`Self::execute`], additionally returning the cone diagnostics
    /// the write re-derived when lint-on-write is enabled.
    ///
    /// Three kinds of command leave the plain read path, and all run
    /// under the store lock:
    ///
    /// * `(lint-kb [cone])` is a read, but it is answered from the
    ///   tenant's incremental [`AnalysisState`], refreshed against the
    ///   *primary* KB in O(what changed), not O(KB), instead of
    ///   evaluating against a snapshot.
    /// * `(what-if …)` is a write that is always rolled back: it waits
    ///   for the writer like one, and is neither logged nor counted.
    /// * Mutations go through [`DurableKb::eval_durable`]; with
    ///   lint-on-write on they then refresh the analysis state and
    ///   return the cone's diagnostics.
    pub fn execute_with_lint(
        &self,
        cmd: &Command,
    ) -> std::result::Result<(Outcome, Option<LintReport>), NamedError> {
        let mutation = cmd.is_mutation();
        if !mutation && !matches!(cmd, Command::LintKb { .. } | Command::WhatIf(..)) {
            return Ok((self.snapshot()?.eval(cmd)?, None));
        }
        if mutation {
            self.drop_snapshot()?;
        }
        let result = {
            let mut store = self.lock_primary()?;
            if let Command::LintKb { cone } = cmd {
                let mut analysis = self.lock_analysis()?;
                let kb = store.kb()?;
                let refresh = analysis.refresh(kb);
                let report = if *cone {
                    LintReport::from_refresh(&refresh)
                } else {
                    LintReport::from(&analysis.report(kb))
                };
                return Ok((Outcome::Lint(report), None));
            }
            let outcome = store.eval_durable(cmd).map_err(|e| named_in(&store, e))?;
            if !mutation {
                return Ok((outcome, None));
            }
            let lint = if self.lint_on_write() {
                let refresh = self.lock_analysis()?.refresh(store.kb()?);
                Some(LintReport::from_refresh(&refresh))
            } else {
                None
            };
            self.version.fetch_add(1, Ordering::AcqRel);
            (outcome, lint)
        };
        // Invalidate again after releasing the store lock: a reader that
        // cut the old version while the write waited for the primary
        // loses only freshness until the *next* version check, never
        // consistency (the stale snapshot is still one version).
        self.drop_snapshot()?;
        Ok(result)
    }

    /// Empty the snapshot cache, freeing the snapshot outside the lock
    /// if no reader holds it. A writer calls this before it locks the
    /// primary — a snapshot no one pins then shares no chunk the write
    /// lands in — and again after.
    fn drop_snapshot(&self) -> Result<()> {
        let stale = self.lock_snap()?.take();
        drop(stale);
        Ok(())
    }

    /// Bulk-load a prepared ingest plan through the store's segment
    /// tier ([`DurableKb::bulk_load`]): one compaction, no per-row log
    /// appends, manifest rename as the commit point. The compaction runs
    /// on this request's thread, so a publish that fails is this ingest's
    /// error reply. The server compacts a tenant nowhere else.
    ///
    /// Like any write it leaves the analysis state alone: the next
    /// `(lint-kb)` finds what the load changed by comparing versions, as
    /// it does after a single write. The version bumps once per ingest
    /// (it counts mutation *requests*, not rows) and the snapshot cache
    /// is emptied before the primary lock is taken and after it is
    /// released, same as [`Self::execute`].
    pub fn ingest(
        &self,
        plan: &classic_ingest::IngestPlan,
    ) -> std::result::Result<classic_store::BulkLoadReport, NamedError> {
        self.drop_snapshot()?;
        let out = {
            let mut store = self.lock_primary()?;
            let out =
                classic_ingest::run_durable(&mut store, plan).map_err(|e| named_in(&store, e))?;
            self.version.fetch_add(1, Ordering::AcqRel);
            out
        };
        self.drop_snapshot()?;
        Ok(out)
    }

    /// Get the shared snapshot for the current version, cutting a fresh
    /// clone from the primary iff the cache is stale or cold.
    pub fn snapshot(&self) -> Result<Arc<Snapshot>> {
        let version = self.version();
        let mut cache = self.lock_snap()?;
        if let Some(s) = cache.as_ref() {
            if s.version == version {
                return Ok(Arc::clone(s));
            }
        }
        let store = self.lock_primary()?;
        // Re-read under the lock: a mutation may have landed between
        // the version load above and acquiring the primary.
        let version = self.version();
        let snapshot = Arc::new(Snapshot {
            generation: store.generation(),
            version,
            kb: store.kb()?.clone(),
        });
        *cache = Some(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Run `f` with the primary store locked — administrative access
    /// for flush/compaction control and tests.
    pub fn with_store<T>(&self, f: impl FnOnce(&mut DurableKb) -> T) -> Result<T> {
        let mut store = self.lock_primary()?;
        Ok(f(&mut store))
    }

    /// Flush the operation log to disk (used by graceful shutdown).
    pub fn flush(&self) -> Result<()> {
        self.with_store(DurableKb::flush)?
    }

    /// Summarize the tenant for `/stats`.
    pub fn stats(&self) -> Result<TenantStats> {
        let store = self.lock_primary()?;
        let generation = store.generation();
        let pending_ops = store.pending_ops();
        let kb = store.kb()?;
        Ok(TenantStats {
            name: self.name.clone(),
            version: self.version(),
            generation,
            pending_ops,
            individuals: kb.ind_count(),
            concepts: kb.schema().concept_count(),
            rules: kb.rules().len(),
        })
    }
}
