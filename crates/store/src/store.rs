//! Durable storage: a write-ahead operation log plus a segmented
//! snapshot.
//!
//! The paper frames the database as "a cache for persistent information of
//! limited complexity" (§1) and names secondary storage as the major open
//! issue (§5). [`DurableKb`] is the reproduction's answer at scale: every
//! *accepted* mutating operator is appended (and fsynced) to a log file in
//! the surface syntax before the call returns, and compaction folds the
//! log into a **segmented snapshot** — a generation-stamped
//! [manifest](crate::manifest) referencing a schema segment plus
//! fixed-budget [individual segments](crate::segment). Opening a store
//! loads the manifest, streams the live segments, and replays only the
//! log suffix past the manifest generation; [`DurableKb::open_paged`]
//! defers individual segments entirely until something references them,
//! making `open()` cost track the log suffix rather than the database
//! size.
//!
//! Compaction ([`DurableKb::compact`]) runs on the caller's thread in two
//! halves: render the segments in memory and rotate the log, then
//! publish — segment writes, fsyncs, the manifest rename, cleanup. A
//! publish that fails is the error of the call that compacted; the store
//! stays usable and the next compaction folds what the failed one left.
//! The crash-ordering invariants at each rename point are specified in
//! `docs/FORMAT.md` §8 and exercised by [`DurableKb::compact_crashing_at`].
//!
//! Rejected updates are never logged — the log records exactly the
//! accepted history, so replay cannot fail on integrity grounds.

use crate::manifest::{
    fold_log_path, is_segment_file, manifest_path, parse_fold_gen, stem_of, tmp_path, Manifest,
    ManifestEntry,
};
use crate::segment::{
    self, render_ind_segments, render_schema_segment, segment_file_name, storage_err,
    RenderedSegment,
};
use crate::snapshot::replay;
use classic_core::desc::Concept;
use classic_core::error::{ClassicError, Result};
use classic_core::schema::TestArg;
use classic_core::symbol::{ConceptName, RoleId, TestId};
use classic_kb::{AssertReport, BulkReport, IndId, Kb, RetractReport};
use classic_lang::{BulkSpec, Command, Outcome, Touches, Write};
use classic_obs::{Counter, Gauge, Histogram};
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write as _};
use std::path::{Path, PathBuf};

/// Header line carrying the log generation. Written as the first line of
/// every log file; a log whose generation is *older* than the manifest's
/// predates the published segments (its operations are already folded
/// in) and must not be replayed on top of them.
const GEN_PREFIX: &str = ";!gen:";

/// Default number of individuals per segment (overridable with
/// [`DurableKb::set_segment_budget`]).
pub const DEFAULT_SEGMENT_BUDGET: usize = 512;

fn parse_gen(text: &str) -> u64 {
    text.lines()
        .next()
        .and_then(|l| l.strip_prefix(GEN_PREFIX))
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Where compaction's publish pipeline is cut short, for crash-ordering
/// tests and the E12 crash matrix. Each point corresponds to one ordering
/// invariant of `docs/FORMAT.md` §8: replay from the on-disk state left
/// behind at *any* of these points must converge to the no-crash state.
///
/// After [`DurableKb::compact_crashing_at`] returns, the in-memory store
/// is intentionally inconsistent with the disk (exactly as a killed
/// process would be) and must only be dropped; reopen from the path to
/// observe recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die after the log rotation (fold rename + fresh active log), with
    /// no segment published: the manifest still names the old
    /// generation, and both the fold log and the new active log survive.
    AfterLogRotation,
    /// Die after the first fresh segment file is renamed into place but
    /// before the manifest moves: orphan segments exist that no manifest
    /// references.
    AfterFirstSegmentPublish,
    /// Die after every segment is durable but before the manifest
    /// rename — the last instant the old generation is still current.
    BeforeManifestRename,
    /// Die immediately after the manifest rename, before the directory
    /// fsync and any cleanup: the new generation is (probably) current
    /// but stale fold logs and unreferenced segments linger.
    AfterManifestRename,
    /// Die after the manifest is fully durable but before stale logs
    /// and stale segments are deleted.
    BeforeCleanup,
}

impl CrashPoint {
    /// Every crash point, in pipeline order — the E12 crash matrix
    /// iterates this.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::AfterLogRotation,
        CrashPoint::AfterFirstSegmentPublish,
        CrashPoint::BeforeManifestRename,
        CrashPoint::AfterManifestRename,
        CrashPoint::BeforeCleanup,
    ];
}

/// What one compaction did, returned by
/// [`DurableKb::wait_for_compaction`] and kept as
/// [`DurableKb::last_compaction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The generation the compaction published.
    pub generation: u64,
    /// Operations folded out of the log by this compaction.
    pub folded_ops: u64,
    /// Total segments in the new manifest.
    pub segments_total: usize,
    /// Segments whose bytes were actually written this generation.
    pub segments_written: usize,
    /// Segments reused from the previous generation (unchanged body
    /// hash — the append-friendly case).
    pub segments_reused: usize,
    /// Segment-body bytes written (excludes reused segments).
    pub bytes_written: u64,
}

/// What one segment-tier [`DurableKb::bulk_load`] did: the per-row
/// accounting plus the durability facts (how much DDL was applied and
/// which generation the load was published under).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkLoadReport {
    /// Per-row accounting from [`classic_kb::Kb::bulk_assert`].
    pub report: BulkReport,
    /// Schema-preamble commands applied ahead of the rows.
    pub ddl_applied: usize,
    /// The generation whose manifest rename committed this load.
    pub generation: u64,
}

/// One not-yet-hydrated individual segment tracked by a paged open.
struct LazySegment {
    entry: ManifestEntry,
    hydrated: bool,
}

/// A compaction rendered, with the log already rotated: the new
/// generation's segments and manifest, and the files its publication
/// supersedes. Publishing it touches the disk only, never the `Kb`.
struct CompactionPlan {
    segments: Vec<PlannedSegment>,
    manifest: Manifest,
    stale_logs: Vec<PathBuf>,
    stale_segments: Vec<PathBuf>,
    report: CompactionReport,
}

/// Handles into the owning KB's metric registry for the storage-layer
/// series, registered when the store is opened.
struct StoreObs {
    appends: Counter,
    append_bytes: Counter,
    compactions: Counter,
    segments_written: Counter,
    segments_reused: Counter,
    compact_bytes: Counter,
    bulk_rows: Counter,
    generation: Gauge,
    append_ns: Histogram,
    render_ns: Histogram,
    publish_ns: Histogram,
    bulk_load_ns: Histogram,
}

impl StoreObs {
    fn attach(kb: &Kb) -> StoreObs {
        let m = kb.metrics();
        let c = |name: &str, help: &str| m.counter(name, help).expect("store metric registration");
        StoreObs {
            appends: c(
                "classic_store_appends_total",
                "operation-log records appended",
            ),
            append_bytes: c(
                "classic_store_append_bytes_total",
                "bytes appended to the operation log (including newlines)",
            ),
            compactions: c("classic_store_compactions_total", "compactions published"),
            segments_written: c(
                "classic_store_segments_written_total",
                "segment bodies written by compactions",
            ),
            segments_reused: c(
                "classic_store_segments_reused_total",
                "unchanged segment bodies reused by compactions",
            ),
            compact_bytes: c(
                "classic_store_compact_bytes_total",
                "segment-body bytes written by compactions",
            ),
            generation: m
                .gauge(
                    "classic_store_generation",
                    "generation of the last durably published snapshot",
                )
                .expect("store metric registration"),
            append_ns: m
                .duration_histogram(
                    "classic_store_append_ns",
                    "durable log append wall time (ns)",
                )
                .expect("store metric registration"),
            render_ns: m
                .duration_histogram(
                    "classic_store_compact_render_ns",
                    "compaction render + log rotation wall time (ns)",
                )
                .expect("store metric registration"),
            publish_ns: m
                .duration_histogram(
                    "classic_store_compact_publish_ns",
                    "compaction publish pipeline wall time (ns)",
                )
                .expect("store metric registration"),
            bulk_rows: c(
                "classic_store_bulk_rows_total",
                "rows accepted through the store's bulk-load paths",
            ),
            bulk_load_ns: m
                .duration_histogram(
                    "classic_store_bulk_load_ns",
                    "segment-tier bulk_load wall time incl. compaction (ns)",
                )
                .expect("store metric registration"),
        }
    }
}

struct PlannedSegment {
    rendered: RenderedSegment,
    file: String,
    reuse: bool,
}

/// A knowledge base backed by an on-disk operation log and a segmented
/// snapshot store.
///
/// ```
/// use classic_store::DurableKb;
/// # let dir = std::env::temp_dir().join(format!("classic-doc-open-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// # std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("kb.log");
/// let mut store = DurableKb::open(&path, |_| {})?;
/// store.define_role("enrolled-at")?;
/// store.create_ind("Rocky")?;
/// store.compact()?; // fold the log into segments, durably
/// drop(store);
/// let reopened = DurableKb::open(&path, |_| {})?;
/// assert_eq!(reopened.kb()?.ind_count(), 1);
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
pub struct DurableKb {
    kb: Kb,
    log_path: PathBuf,
    dir: PathBuf,
    stem: String,
    log: BufWriter<File>,
    /// Operations appended (or replayed from unfolded logs) since the
    /// last compaction began.
    ops_since_compact: u64,
    /// Generation stamped in the active log's header.
    log_gen: u64,
    /// Generation of the last durably published manifest.
    published_gen: u64,
    /// The manifest the published generation corresponds to, if the
    /// store is in the segmented format.
    manifest: Option<Manifest>,
    /// Individual segments not yet replayed (paged open only; empty
    /// after an eager open or `hydrate_all`).
    pending: Vec<LazySegment>,
    /// A compaction [parked](DurableKb::compact_in_background): rendered
    /// and rotated, not yet published.
    parked: Option<CompactionPlan>,
    segment_budget: usize,
    last_compaction: Option<CompactionReport>,
    obs: StoreObs,
}

impl DurableKb {
    /// Open (or create) a store rooted at `path`, replaying everything
    /// eagerly. `path` is the active log file; the manifest, segments,
    /// and parked fold logs live next to it under the same file stem.
    /// `register_tests` must register every host test function the
    /// logged history references.
    ///
    /// Crash leftovers are swept here: `*.tmp` files from an interrupted
    /// atomic write, segment files no manifest references, and fold logs
    /// already folded into the manifest generation.
    pub fn open(path: impl AsRef<Path>, register_tests: impl FnOnce(&mut Kb)) -> Result<DurableKb> {
        Self::open_impl(path.as_ref(), register_tests, false)
    }

    /// Open a store *paged*: the manifest and schema segment load
    /// eagerly, but individual segments hydrate only when something
    /// references them — the log suffix during open, a later mutating
    /// operator, or an explicit [`hydrate_all`](DurableKb::hydrate_all).
    /// With a short log suffix, open cost tracks the suffix, not the
    /// database size (experiment E12 measures exactly this).
    ///
    /// Until the store is fully hydrated, [`kb`](DurableKb::kb) returns
    /// [`ClassicError::NotHydrated`] rather than expose a partial
    /// database; use [`kb_hydrated`](DurableKb::kb_hydrated) for queries.
    pub fn open_paged(
        path: impl AsRef<Path>,
        register_tests: impl FnOnce(&mut Kb),
    ) -> Result<DurableKb> {
        Self::open_impl(path.as_ref(), register_tests, true)
    }

    fn open_impl(
        path: &Path,
        register_tests: impl FnOnce(&mut Kb),
        paged: bool,
    ) -> Result<DurableKb> {
        let log_path = path.to_path_buf();
        let dir = match log_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let stem = stem_of(&log_path);
        let mut kb = Kb::new();
        register_tests(&mut kb);

        // A crash during any atomic write leaves a `*.tmp` that was never
        // renamed into place; it is dead weight, not state.
        sweep_tmp_files(&dir, &stem);

        let manifest = Manifest::load(&manifest_path(&log_path))?;
        let mut published_gen = 0u64;
        let mut pending: Vec<LazySegment> = Vec::new();
        if let Some(m) = &manifest {
            published_gen = m.generation;
            // Schema first, always eagerly: definitions and the
            // `;!tests:` contract gate everything else.
            if let Some(entry) = m.schema_entry() {
                let seg_path = dir.join(&entry.file);
                let (_, body) = segment::read_verified(&seg_path, entry.hash)?;
                replay(&mut kb, &body).map_err(|e| {
                    storage_err(
                        &seg_path,
                        Some(m.generation),
                        format!("replaying schema: {e}"),
                    )
                })?;
            }
            // Pre-create the full individual roster, in manifest (arena)
            // order, as bare stubs. This keeps the arena layout
            // canonical no matter which order segments hydrate in (a
            // cross-segment FILLS reference would otherwise create its
            // target out of order), and makes duplicate-name checks see
            // parked individuals without touching segment bodies. Stubs
            // are cheap: a symbol interning and an arena push, no told
            // facts, no propagation.
            for entry in m.ind_entries() {
                for name in &entry.names {
                    Write::CreateInd(name).apply(&mut kb).map_err(|e| {
                        storage_err(
                            &manifest_path(&log_path),
                            Some(m.generation),
                            format!("creating roster individual {name}: {e}"),
                        )
                    })?;
                }
            }
            pending = m
                .ind_entries()
                .map(|entry| LazySegment {
                    entry: entry.clone(),
                    hydrated: false,
                })
                .collect();
            // Garbage from a crash after the manifest rename: fold logs
            // already folded in, segments no longer referenced.
            sweep_stale(&dir, &stem, m);
        } else {
            // The monolithic `<stem>.snapshot` of stores written before
            // the segmented format is no longer read. Opening past one
            // would replay the log suffix over an empty KB, so refuse.
            let monolithic = log_path.with_extension("snapshot");
            if monolithic.exists() {
                return Err(storage_err(
                    &monolithic,
                    None,
                    "monolithic snapshot from before the segmented format (PR 4) and no \
                     manifest; this release no longer migrates it — open and compact the \
                     store once with a PR 4–11 build, then reopen",
                ));
            }
        }

        let obs = StoreObs::attach(&kb);
        obs.generation.set(published_gen);
        let mut store = DurableKb {
            kb,
            log_path: log_path.clone(),
            dir,
            stem,
            // Placeholder; replaced below once the logs are settled.
            log: BufWriter::new(tempfile_placeholder(&log_path)?),
            ops_since_compact: 0,
            log_gen: published_gen,
            published_gen,
            manifest,
            pending,
            parked: None,
            segment_budget: DEFAULT_SEGMENT_BUDGET,
            last_compaction: None,
            obs,
        };
        if !paged {
            store.hydrate_all()?;
        }
        store.replay_logs()?;
        store.reopen_active_log()?;
        Ok(store)
    }

    // ---- access -----------------------------------------------------------

    /// The underlying knowledge base (read-only; mutations must go
    /// through the logged operators).
    ///
    /// # Errors
    ///
    /// [`ClassicError::NotHydrated`] on a
    /// [paged](DurableKb::open_paged) store that still has unhydrated
    /// segments — a partial database must never masquerade as the whole
    /// one. The error names the parked arena range; call
    /// [`hydrate_all`](DurableKb::hydrate_all) first or use
    /// [`kb_hydrated`](DurableKb::kb_hydrated).
    pub fn kb(&self) -> Result<&Kb> {
        let parked: Vec<&ManifestEntry> = self
            .pending
            .iter()
            .filter(|s| !s.hydrated)
            .map(|s| &s.entry)
            .collect();
        if parked.is_empty() {
            return Ok(&self.kb);
        }
        Err(ClassicError::NotHydrated {
            lo: parked.iter().map(|e| e.lo).min().unwrap_or(0),
            hi: parked.iter().map(|e| e.hi).max().unwrap_or(0),
            segments: parked.len(),
        })
    }

    /// Hydrate every remaining segment, then return the (now complete)
    /// knowledge base — what a query path holds, queries taking `&Kb`.
    ///
    /// # Errors
    ///
    /// [`ClassicError::Storage`] naming the segment file that could not
    /// be read or replayed. The store stays usable: segments hydrated
    /// before the failure stay hydrated, and the call can be retried.
    pub fn kb_hydrated(&mut self) -> Result<&Kb> {
        self.hydrate_all()?;
        Ok(&self.kb)
    }

    /// Generation of the last durably published snapshot.
    pub fn generation(&self) -> u64 {
        self.published_gen
    }

    /// Individual segments not yet hydrated (0 unless the store was
    /// opened with [`open_paged`](DurableKb::open_paged)).
    pub fn pending_segments(&self) -> usize {
        self.pending.iter().filter(|s| !s.hydrated).count()
    }

    /// Total individual segments in the current manifest.
    pub fn segment_count(&self) -> usize {
        self.pending.len()
    }

    /// Is every segment hydrated (always true for eager opens)?
    pub fn is_fully_hydrated(&self) -> bool {
        self.pending.iter().all(|s| s.hydrated)
    }

    /// The report of the most recent completed compaction, if any
    /// finished during this store's lifetime.
    pub fn last_compaction(&self) -> Option<CompactionReport> {
        self.last_compaction
    }

    /// Operations appended (or replayed from unfolded logs) since the
    /// store was opened or the last compaction began.
    pub fn pending_ops(&self) -> u64 {
        self.ops_since_compact
    }

    /// Set the maximum number of individuals per segment for subsequent
    /// compactions (default [`DEFAULT_SEGMENT_BUDGET`]).
    pub fn set_segment_budget(&mut self, budget: usize) {
        self.segment_budget = budget.max(1);
    }

    // ---- hydration ---------------------------------------------------------

    /// Replay every remaining individual segment (ascending arena
    /// order). A no-op on eager opens.
    pub fn hydrate_all(&mut self) -> Result<()> {
        for ix in 0..self.pending.len() {
            self.hydrate_ix(ix)?;
        }
        Ok(())
    }

    fn hydrate_ix(&mut self, ix: usize) -> Result<()> {
        if self.pending[ix].hydrated {
            return Ok(());
        }
        let entry = self.pending[ix].entry.clone();
        let seg_path = self.dir.join(&entry.file);
        let (header, body) = segment::read_verified(&seg_path, entry.hash)?;
        // Every individual in this range already exists as a roster stub
        // (created at open from the manifest). Identity is by name, so
        // the `create-ind` records are skipped; the told assertions are
        // what hydration replays.
        let replayed = classic_lang::parse(&body).and_then(|commands| {
            for cmd in &commands {
                if !matches!(cmd, Command::CreateInd(name) if self.knows_individual(name)) {
                    classic_lang::eval(&mut self.kb, cmd)?;
                }
            }
            Ok(())
        });
        replayed.map_err(|e| {
            storage_err(
                &seg_path,
                Some(header.generation),
                format!("replaying segment: {e}"),
            )
        })?;
        self.pending[ix].hydrated = true;
        Ok(())
    }

    fn knows_individual(&self, name: &str) -> bool {
        self.kb
            .schema()
            .symbols
            .find_individual(name)
            .is_some_and(|n| self.kb.ind_id(n).is_ok())
    }

    /// Hydrate the segment holding `name`, if it is still parked. A
    /// no-op when the individual's segment is already in (or the name is
    /// nowhere at all — already hydrated, brand-new, or a genuine error
    /// the operation itself reports). The manifest's per-segment rosters
    /// answer the lookup, so the search touches no files and exactly one
    /// segment body replays. Writes do this implicitly; it is public so
    /// read-mostly callers can warm the individuals they are about to
    /// query.
    pub fn hydrate_for(&mut self, name: &str) -> Result<()> {
        let parked = |s: &LazySegment| !s.hydrated && s.entry.names.iter().any(|n| n == name);
        match self.pending.iter().position(parked) {
            Some(ix) => self.hydrate_ix(ix),
            None => Ok(()),
        }
    }

    /// Bring into memory what a write [touches](Write::touches).
    fn hydrate(&mut self, touches: Touches<'_>) -> Result<()> {
        match touches {
            Touches::Nothing => Ok(()),
            Touches::Individual(name) => self.hydrate_for(name),
            Touches::Everything => self.hydrate_all(),
        }
    }

    // ---- log replay --------------------------------------------------------

    /// Replay every unfolded log: parked fold logs (ascending
    /// generation) and then the active log. Logs whose generation is
    /// older than the published snapshot are already folded in and are
    /// skipped (the stale active log is durably reset — PR 2's
    /// double-apply guard).
    fn replay_logs(&mut self) -> Result<()> {
        let mut folds: Vec<(u64, PathBuf)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(gen) = parse_fold_gen(&name, &self.stem) {
                    folds.push((gen, entry.path()));
                }
            }
        }
        folds.sort();
        let mut max_gen = self.published_gen;
        for (name_gen, path) in folds {
            if name_gen < self.published_gen {
                // Swept already unless sweeping raced/failed; skip.
                continue;
            }
            let ops = self.replay_log_file(&path, false)?;
            self.ops_since_compact += ops;
            max_gen = max_gen.max(name_gen);
        }
        if self.log_path.exists() {
            let log_gen = parse_gen(&read_file(&self.log_path)?);
            if log_gen < self.published_gen {
                // The active log predates the published generation.
                // Rotation happens before publication, so the segmented
                // pipeline never leaves this behind; if it is found
                // anyway, every operation in it is already folded in
                // and replaying would double-apply. Reset it durably.
                reset_log(&self.log_path, self.published_gen)?;
                self.log_gen = self.published_gen;
            } else {
                let ops = self.replay_log_file(&self.log_path.clone(), true)?;
                self.ops_since_compact += ops;
                self.log_gen = log_gen.max(max_gen);
            }
        } else {
            // No active log (a crash landed between the fold rename and
            // the fresh log creation). Start one past everything we
            // replayed so fold names can never collide.
            self.log_gen = if max_gen > self.published_gen {
                max_gen + 1
            } else {
                self.published_gen
            };
        }
        Ok(())
    }

    /// Replay one log file line by line, tolerating a torn tail when
    /// `allow_torn` (the active log — the only file a mid-append crash
    /// can tear).
    ///
    /// The log is written one command per line with a flush per append,
    /// so the only corruption a crash can produce is an incomplete final
    /// line: one that lacks its newline, or does not read as a form.
    /// Recovery truncates that tail (after which the log is exactly the
    /// accepted history again). Anything else is reported as an error and
    /// the file left byte for byte alone: a malformed line *followed by*
    /// valid ones is genuine corruption, and a complete record the
    /// knowledge base refuses — a `TEST` nobody registered this time, a
    /// history this build replays differently — was acknowledged when it
    /// was written, so cutting it off would lose a write silently.
    fn replay_log_file(&mut self, path: &Path, allow_torn: bool) -> Result<u64> {
        let raw = read_file(path)?;
        let gen = parse_gen(&raw);
        // Byte offset of the end of the last successfully replayed line.
        let mut good_end = 0usize;
        let mut pending_failure: Option<ClassicError> = None;
        let mut offset = 0usize;
        let mut ops = 0u64;
        for line in raw.split_inclusive('\n') {
            offset += line.len();
            let text = line.trim();
            if text.is_empty() || text.starts_with(';') {
                good_end = offset;
                continue;
            }
            if let Some(e) = pending_failure {
                // A valid-looking line after a failure ⇒ mid-log
                // corruption, not a torn tail.
                return Err(storage_err(
                    path,
                    Some(gen),
                    format!("operation log corrupted mid-file (not just a torn tail): {e}"),
                ));
            }
            match self.apply_log_line(text) {
                Ok(()) => {
                    good_end = offset;
                    ops += 1;
                }
                Err(e) if line.ends_with('\n') && classic_lang::parse(text).is_ok() => {
                    let cause = e.display(&self.kb.schema().symbols);
                    let detail = format!(
                        "the record ending at byte {offset} is complete but was refused \
                         (nothing was truncated): {cause}"
                    );
                    return Err(storage_err(path, Some(gen), detail));
                }
                Err(e) => pending_failure = Some(e),
            }
        }
        if let Some(e) = pending_failure {
            if !allow_torn {
                return Err(storage_err(
                    path,
                    Some(gen),
                    format!("fold log has a broken final record (fold logs are sealed): {e}"),
                ));
            }
            if good_end < raw.len() {
                // Torn tail: truncate the log back to the last good
                // record.
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| storage_err(path, Some(gen), format!("opening: {e}")))?;
                file.set_len(good_end as u64)
                    .map_err(|e| storage_err(path, Some(gen), format!("truncating: {e}")))?;
            }
        }
        Ok(ops)
    }

    /// Apply one log record: resolve it, hydrate what it touches, apply
    /// it.
    fn apply_log_line(&mut self, text: &str) -> Result<()> {
        for cmd in classic_lang::parse(text)? {
            let write = resolve_write(&mut self.kb, &cmd)?;
            self.hydrate(write.touches())?;
            write.apply(&mut self.kb)?;
        }
        Ok(())
    }

    /// (Re)open the active log for appending, creating it (with its
    /// generation header) if missing.
    fn reopen_active_log(&mut self) -> Result<()> {
        let file = if self.log_path.exists() {
            OpenOptions::new()
                .append(true)
                .open(&self.log_path)
                .map_err(|e| storage_err(&self.log_path, Some(self.log_gen), e))?
        } else {
            reset_log(&self.log_path, self.log_gen)?
        };
        self.log = BufWriter::new(file);
        Ok(())
    }

    fn append(&mut self, line: &str) -> Result<()> {
        let _span = classic_obs::span_timed("store.append", &self.obs.append_ns);
        self.obs.appends.bump();
        self.obs.append_bytes.add(line.len() as u64 + 1);
        let io = |e: std::io::Error| storage_err(&self.log_path, Some(self.log_gen), e);
        self.log.write_all(line.as_bytes()).map_err(io)?;
        self.log.write_all(b"\n").map_err(io)?;
        self.log.flush().map_err(io)?;
        // flush() only drains the userspace buffer; the record must reach
        // the device before the call returns, or an accepted update can
        // vanish in a power loss.
        self.log.get_ref().sync_data().map_err(io)?;
        self.ops_since_compact += 1;
        Ok(())
    }

    // ---- logged operators -------------------------------------------------

    /// The one durable write path: hydrate what the write touches, render
    /// its record — which refuses, before anything changes, a write the
    /// reader could not read back — apply it, and only if it was accepted
    /// append the record and fsync.
    fn commit(&mut self, write: Write<'_>) -> Result<Outcome> {
        self.hydrate(write.touches())?;
        self.commit_hydrated(write)
    }

    /// [`Self::commit`] once what the write touches is in memory.
    fn commit_hydrated(&mut self, write: Write<'_>) -> Result<Outcome> {
        let line = write.record(&self.kb)?;
        let outcome = write.apply(&mut self.kb)?;
        let line = match (&outcome, write) {
            // One record for the whole batch, holding only the accepted
            // rows: re-asserting exactly those accepts them all and
            // derives the same fixpoint, and rejected rows, as everywhere
            // in the log, leave no trace.
            (Outcome::BulkLoaded(report), Write::BulkLoad { into, roles, rows }) => {
                self.obs.bulk_rows.add(report.accepted as u64);
                if report.accepted == 0 {
                    None
                } else if report.rejected == 0 {
                    Some(line)
                } else {
                    let accepted = rows.into_iter().zip(&report.row_accepted);
                    let rows = accepted.filter_map(|(row, ok)| ok.then_some(row)).collect();
                    Some(Write::BulkLoad { into, roles, rows }.record(&self.kb)?)
                }
            }
            _ => Some(line),
        };
        if let Some(line) = line {
            self.append(&line)?;
        }
        Ok(outcome)
    }

    /// `define-role`, logged on success.
    pub fn define_role(&mut self, name: &str) -> Result<RoleId> {
        self.commit(Write::DefineRole(name))?;
        Ok(self.kb.schema().symbols.find_role(name).expect("defined"))
    }

    /// `define-attribute`, logged on success.
    pub fn define_attribute(&mut self, name: &str) -> Result<RoleId> {
        self.commit(Write::DefineAttribute(name))?;
        Ok(self.kb.schema().symbols.find_role(name).expect("defined"))
    }

    /// `define-concept`, logged on success.
    pub fn define_concept(&mut self, name: &str, told: Concept) -> Result<ConceptName> {
        self.commit(Write::DefineConcept(name, Cow::Owned(told)))?;
        Ok((self.kb.schema().symbols.find_concept(name)).expect("defined"))
    }

    /// `create-ind`, logged on success. Needs no hydration even on a
    /// paged store: every parked individual exists as a roster stub, so
    /// the duplicate-name check sees it.
    pub fn create_ind(&mut self, name: &str) -> Result<IndId> {
        self.commit(Write::CreateInd(name))?;
        let created = self.kb.schema().symbols.find_individual(name);
        self.kb.ind_id(created.expect("created"))
    }

    /// `assert-ind`, logged only if accepted. On a paged store the
    /// target's segment hydrates first.
    pub fn assert_ind(&mut self, name: &str, desc: &Concept) -> Result<AssertReport> {
        match self.commit(Write::AssertInd(name, Cow::Borrowed(desc)))? {
            Outcome::Asserted(report) => Ok(report),
            other => unreachable!("assert-ind yielded {other:?}"),
        }
    }

    /// `assert-rule`, logged only if accepted. Hydrates everything
    /// first — a rule fires on every current instance of its antecedent.
    pub fn assert_rule(&mut self, antecedent: &str, consequent: Concept) -> Result<usize> {
        match self.commit(Write::AssertRule(antecedent, Cow::Owned(consequent)))? {
            Outcome::RuleAsserted(ix) => Ok(ix),
            other => unreachable!("assert-rule yielded {other:?}"),
        }
    }

    /// `retract-ind`, logged only if accepted. Compaction folds
    /// retractions away — the snapshot records only the surviving told
    /// facts. Hydrates everything first — the re-derived cone can span
    /// any segment.
    pub fn retract_ind(&mut self, name: &str, desc: &Concept) -> Result<RetractReport> {
        self.retraction(Write::RetractInd(name, Cow::Borrowed(desc)))
    }

    /// `retract-rule`, logged only if accepted.
    pub fn retract_rule(
        &mut self,
        antecedent: &str,
        consequent: &Concept,
    ) -> Result<RetractReport> {
        self.retraction(Write::RetractRule(antecedent, Cow::Borrowed(consequent)))
    }

    /// `retract-rule` by rule id (the REPL's `(retract-rule 7)`), logged
    /// on success — as the rule's antecedent and consequent, since ids
    /// do not survive compaction ([`Write::RetractRuleById`]).
    pub fn retract_rule_by_id(&mut self, rule_ix: usize) -> Result<RetractReport> {
        self.retraction(Write::RetractRuleById(rule_ix))
    }

    fn retraction(&mut self, write: Write<'_>) -> Result<RetractReport> {
        match self.commit(write)? {
            Outcome::Retracted(report) => Ok(report),
            other => unreachable!("a retraction yielded {other:?}"),
        }
    }

    /// Register a host test function. Not logged (closures are not
    /// serializable); the schema segment records the required names.
    pub fn register_test<F>(&mut self, name: &str, f: F) -> TestId
    where
        F: Fn(&TestArg<'_>) -> bool + Send + Sync + 'static,
    {
        self.kb.register_test(name, f)
    }

    /// Evaluate a parsed surface command with durability: a command
    /// that [resolves to a write](Command::to_write) is committed —
    /// applied to the KB, then appended and fsynced; a wire
    /// `(bulk-load …)` as **one** record of its accepted rows, a single
    /// fsync for the whole batch — and everything else (a read, or a
    /// `what-if` trial, which leaves nothing to record) evaluates directly
    /// against the hydrated KB. This is the server's single entry point
    /// per request, and no write can reach the KB around the log.
    pub fn eval_durable(&mut self, cmd: &Command) -> Result<Outcome> {
        if !cmd.is_mutation() {
            self.hydrate_all()?;
            return classic_lang::eval(&mut self.kb, cmd);
        }
        // Hydrated before its names are resolved: a segment replays in
        // transactions of its own, and the first would take the mark
        // with which a refused write forgets the names it interned.
        self.hydrate(cmd.touches())?;
        let write = cmd.to_write(self.kb.schema_for_write())?;
        self.commit_hydrated(write.expect("a mutation resolves to a write"))
    }

    // ---- bulk ingest -------------------------------------------------------

    /// The segment-tier bulk path (`classic-ingest`, `POST /ingest`):
    /// apply `ddl` (an inferred or hand-written schema preamble) and the
    /// rows entirely in memory — **no per-op log appends** — then
    /// publish one synchronous compaction. The new generation's manifest
    /// rename is the commit point (`docs/FORMAT.md` §8): a crash at any
    /// earlier instant recovers the pre-ingest state from the old
    /// manifest and parked fold logs, because the ingested operations
    /// were never logged; after the rename, the ingested state *is* the
    /// snapshot. There is no partial-ingest state on disk, ever.
    ///
    /// `ddl` must contain only writes (`define-role`, `define-concept`,
    /// `assert-rule`, …). A failing DDL command, anything in the load
    /// that could not be written to a segment and read back, or a
    /// publish that fails aborts the whole load with the KB and its
    /// pending-operation count as they were before it (the load keeps
    /// the pre-ingest version, a `Kb::clone` that shares its storage,
    /// and restores it on any error). Row-level clashes do
    /// **not** abort: they are per-row rejections in the returned
    /// report, and only accepted rows reach the snapshot.
    pub fn bulk_load(&mut self, ddl: &[Command], spec: &BulkSpec) -> Result<BulkLoadReport> {
        let _span = classic_obs::span_timed("store.bulk_load", &self.obs.bulk_load_ns);
        // A parked compaction publishes before the load applies: the
        // load's own compaction must be the newest generation, and if the
        // parked one cannot publish, the load is refused untouched.
        self.wait_for_compaction()?;
        self.hydrate_all()?;

        // The cut is a pointer copy: while `before` is alive, the load
        // copies only the chunks it writes to.
        let before = self.kb.clone();
        let pending_before = self.ops_since_compact;
        let loaded = self.apply_bulk(ddl, spec);
        if loaded.is_err() {
            self.kb = before;
            self.ops_since_compact = pending_before;
        }
        loaded
    }

    /// Apply `ddl` and `spec` to the KB and publish the result: the body
    /// of [`bulk_load`](DurableKb::bulk_load), which undoes it on an
    /// error.
    fn apply_bulk(&mut self, ddl: &[Command], spec: &BulkSpec) -> Result<BulkLoadReport> {
        let kb = &mut self.kb;
        for cmd in ddl {
            let write = resolve_write(kb, cmd)?;
            write.record(kb)?;
            write.apply(kb)?;
        }
        let rows = spec.to_write(kb.schema_mut())?;
        // Nothing is logged here, but the compaction below writes these
        // names and values into segments: what `record` refuses, it
        // could not write.
        rows.record(kb)?;
        let Outcome::BulkLoaded(report) = rows.apply(kb)? else {
            unreachable!("a bulk-load yields its report");
        };
        // The in-memory state now leads the disk; fold it into segments
        // under a generation bump. This is the only call site where the
        // log does *not* carry the operations being published — the
        // compaction IS the durability.
        self.ops_since_compact += ddl.len() as u64 + report.accepted as u64;
        self.compact()?;
        self.obs.bulk_rows.add(report.accepted as u64);
        Ok(BulkLoadReport {
            report,
            ddl_applied: ddl.len(),
            generation: self.published_gen,
        })
    }

    /// Force any buffered log bytes to the device. The logged operators
    /// already fsync per accepted op, so this is a no-op unless a future
    /// buffering change breaks that invariant; the server calls it on
    /// graceful shutdown to make the guarantee explicit at the boundary.
    pub fn flush(&mut self) -> Result<()> {
        let io = |e: std::io::Error| storage_err(&self.log_path, Some(self.log_gen), e);
        self.log.flush().map_err(io)?;
        self.log.get_ref().sync_data().map_err(io)
    }

    // ---- compaction --------------------------------------------------------

    /// Fold the pending log into fresh segments: render them and rotate
    /// the log, then publish them, both on the calling thread. A
    /// compaction [parked](DurableKb::compact_in_background) earlier
    /// publishes first.
    ///
    /// # Errors
    ///
    /// A publish that fails is this call's error. The store stays usable
    /// and its directory recoverable (`docs/FORMAT.md` §7): the
    /// published generation stays where it was, the fold log still
    /// carries the history, and the next compaction folds it.
    pub fn compact(&mut self) -> Result<()> {
        self.wait_for_compaction()?;
        let plan = self.begin_compaction()?;
        self.publish(plan)?;
        Ok(())
    }

    /// The first half of [`compact`](DurableKb::compact) alone: render
    /// the new segments and rotate the log — the active log is parked as
    /// a *fold log* and a fresh one (next generation) takes its place —
    /// then park the plan unpublished. Returns `false`, doing nothing, if
    /// a plan is already parked. Writes made before
    /// [`wait_for_compaction`](DurableKb::wait_for_compaction) publishes
    /// it append to the fresh log. Nothing runs in the background: a plan
    /// never published leaves the on-disk state of
    /// [`CrashPoint::AfterLogRotation`], which open recovers.
    ///
    /// Kept apart from [`compact`](DurableKb::compact) only because the
    /// benchmark (`benchmark/src/trace.rs`) times the two halves
    /// separately.
    pub fn compact_in_background(&mut self) -> Result<bool> {
        if self.parked.is_some() {
            return Ok(false);
        }
        self.parked = Some(self.begin_compaction()?);
        Ok(true)
    }

    /// The second half of [`compact`](DurableKb::compact): publish the
    /// plan [`compact_in_background`](DurableKb::compact_in_background)
    /// parked, on the calling thread, and return its report; `None` if
    /// none is parked. A publish error is returned here, as from
    /// `compact`. Kept, with its signature, for the benchmark.
    pub fn wait_for_compaction(&mut self) -> Result<Option<CompactionReport>> {
        match self.parked.take() {
            Some(plan) => self.publish(plan).map(Some),
            None => Ok(None),
        }
    }

    /// Publish `plan` and adopt its manifest. On an error the published
    /// generation stays where it was, and the operations the plan would
    /// have folded count as pending again: the next compaction folds
    /// them.
    fn publish(&mut self, plan: CompactionPlan) -> Result<CompactionReport> {
        let report = plan.report;
        if let Err(e) = self.publish_plan(&plan, None) {
            self.ops_since_compact += report.folded_ops;
            return Err(e);
        }
        self.published_gen = report.generation;
        self.manifest = Some(plan.manifest);
        // Everything the manifest references is already in memory
        // (compaction hydrates fully), so no segment is pending.
        self.pending.clear();
        self.last_compaction = Some(report);
        self.obs.compactions.bump();
        self.obs
            .segments_written
            .add(report.segments_written as u64);
        self.obs.segments_reused.add(report.segments_reused as u64);
        self.obs.compact_bytes.add(report.bytes_written);
        self.obs.generation.set(report.generation);
        Ok(report)
    }

    /// Run the compaction pipeline but stop dead at `point`, leaving the
    /// on-disk state a crash at that instant would leave. Test/experiment instrumentation for the crash matrix
    /// (`docs/FORMAT.md` §8): after this returns, drop the store without
    /// further operations and reopen from the path to observe recovery.
    pub fn compact_crashing_at(&mut self, point: CrashPoint) -> Result<()> {
        self.wait_for_compaction()?;
        let plan = self.begin_compaction()?;
        if point == CrashPoint::AfterLogRotation {
            return Ok(());
        }
        self.publish_plan(&plan, Some(point))
    }

    /// Render the new generation and rotate the log: the first half of
    /// compaction.
    fn begin_compaction(&mut self) -> Result<CompactionPlan> {
        let _span = classic_obs::span_timed("store.compact.render", &self.obs.render_ns);
        // Rendering requires the complete database.
        self.hydrate_all()?;
        let next_gen = self.log_gen + 1;

        // Render: one schema segment plus the arena partitioned by the
        // segment budget. Unchanged bodies (same content hash, file
        // already on disk) are reused, not rewritten — that is what
        // makes compaction append-friendly.
        let mut rendered = vec![render_schema_segment(&self.kb)?];
        rendered.extend(render_ind_segments(&self.kb, self.segment_budget)?);
        let mut segments = Vec::with_capacity(rendered.len());
        let mut entries = Vec::with_capacity(rendered.len());
        let mut written = 0usize;
        let mut reused = 0usize;
        let mut bytes_written = 0u64;
        let mut planned_files: Vec<String> = Vec::new();
        for seg in rendered {
            let file = segment_file_name(&self.stem, seg.hash);
            let already_live = self.manifest.as_ref().is_some_and(|m| {
                m.entries
                    .iter()
                    .any(|e| e.hash == seg.hash && e.file == file)
            }) && self.dir.join(&file).exists();
            let duplicate_in_plan = planned_files.contains(&file);
            let reuse = already_live || duplicate_in_plan;
            if reuse {
                reused += 1;
            } else {
                written += 1;
                bytes_written += seg.body.len() as u64;
            }
            planned_files.push(file.clone());
            entries.push(ManifestEntry {
                kind: seg.kind,
                lo: seg.lo,
                hi: seg.hi,
                count: seg.names.len(),
                file: file.clone(),
                hash: seg.hash,
                bytes: seg.body.len() as u64,
                names: seg.names.clone(),
            });
            segments.push(PlannedSegment {
                rendered: seg,
                file,
                reuse,
            });
        }
        let manifest = Manifest {
            generation: next_gen,
            entries,
        };

        // Stale state superseded once the new manifest publishes: every
        // fold log on disk plus the active log we are about to park, and
        // old segments the new manifest no longer references.
        let mut stale_logs: Vec<PathBuf> = Vec::new();
        if let Ok(dir_entries) = std::fs::read_dir(&self.dir) {
            for entry in dir_entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if parse_fold_gen(&name, &self.stem).is_some() {
                    stale_logs.push(entry.path());
                }
            }
        }
        stale_logs.push(fold_log_path(&self.dir, &self.stem, self.log_gen));
        let stale_segments: Vec<PathBuf> = self
            .manifest
            .as_ref()
            .map(|old| {
                old.entries
                    .iter()
                    .filter(|e| !planned_files.contains(&e.file))
                    .map(|e| self.dir.join(&e.file))
                    .collect()
            })
            .unwrap_or_default();

        // Rotate the log: park the active log as a sealed fold log and
        // start the next generation. A crash right after this leaves
        // manifest(old) + fold(old gen) + active(new gen): open replays
        // both logs over the old segments — nothing is lost, nothing is
        // double-applied.
        let io = |path: &Path, e: std::io::Error| storage_err(path, Some(next_gen), e);
        self.log.flush().map_err(|e| io(&self.log_path, e))?;
        self.log
            .get_ref()
            .sync_all()
            .map_err(|e| io(&self.log_path, e))?;
        let fold = fold_log_path(&self.dir, &self.stem, self.log_gen);
        std::fs::rename(&self.log_path, &fold).map_err(|e| io(&self.log_path, e))?;
        let fresh = reset_log(&self.log_path, next_gen)?;
        sync_dir(&self.log_path)?;
        self.log = BufWriter::new(fresh);
        let folded_ops = std::mem::take(&mut self.ops_since_compact);
        self.log_gen = next_gen;

        let report = CompactionReport {
            generation: next_gen,
            folded_ops,
            segments_total: segments.len(),
            segments_written: written,
            segments_reused: reused,
            bytes_written,
        };
        classic_obs::event("segments_written", written as u64);
        classic_obs::event("segments_reused", reused as u64);
        Ok(CompactionPlan {
            segments,
            manifest,
            stale_logs,
            stale_segments,
            report,
        })
    }

    /// The disk half of compaction, stopping at `crash` for the crash
    /// matrix. Ordering is normative — `docs/FORMAT.md` §8:
    ///
    /// 1. every fresh segment: tmp write → fsync → rename;
    /// 2. directory fsync (segments durable before anything references them);
    /// 3. manifest: tmp write → fsync → rename (**the publication point**);
    /// 4. directory fsync (the new generation is now crash-durable);
    /// 5. cleanup: delete stale fold logs and unreferenced segments;
    ///    directory fsync.
    fn publish_plan(&self, plan: &CompactionPlan, crash: Option<CrashPoint>) -> Result<()> {
        debug_assert!(crash != Some(CrashPoint::AfterLogRotation));
        let generation = plan.manifest.generation;
        let manifest_file = manifest_path(&self.log_path);
        // Per-phase child spans time each rename point of the
        // crash-ordering pipeline.
        let _span = classic_obs::span_timed("store.compact.publish", &self.obs.publish_ns);
        {
            let _phase = classic_obs::span("store.publish.segments");
            let mut first_published = false;
            for seg in &plan.segments {
                if seg.reuse || self.dir.join(&seg.file).exists() {
                    continue;
                }
                segment::write_segment(&self.dir, &seg.file, &seg.rendered, generation)?;
                if !first_published {
                    first_published = true;
                    if crash == Some(CrashPoint::AfterFirstSegmentPublish) {
                        return Ok(());
                    }
                }
            }
            // Crash point still honored when every segment was reused.
            if crash == Some(CrashPoint::AfterFirstSegmentPublish) {
                return Ok(());
            }
            sync_dir(&manifest_file)?;
        }
        if crash == Some(CrashPoint::BeforeManifestRename) {
            return Ok(());
        }
        {
            let _phase = classic_obs::span("store.publish.manifest");
            plan.manifest.write_atomic(&manifest_file)?;
            if crash == Some(CrashPoint::AfterManifestRename) {
                return Ok(());
            }
            sync_dir(&manifest_file)?;
        }
        if crash == Some(CrashPoint::BeforeCleanup) {
            return Ok(());
        }
        {
            let _phase = classic_obs::span("store.publish.cleanup");
            for path in plan.stale_logs.iter().chain(&plan.stale_segments) {
                match std::fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(storage_err(path, Some(generation), e)),
                }
            }
            sync_dir(&manifest_file)?;
        }
        Ok(())
    }
}

/// Truncate the log and start it with the given generation header,
/// durably. Returns the open handle positioned for appending.
fn reset_log(log_path: &Path, generation: u64) -> Result<File> {
    let io = |e: std::io::Error| storage_err(log_path, Some(generation), e);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(log_path)
        .map_err(io)?;
    writeln!(file, "{GEN_PREFIX} {generation}").map_err(io)?;
    file.sync_all().map_err(io)?;
    Ok(file)
}

/// Fsync the directory containing `path`, making a completed rename
/// durable. Directory fds cannot be fsynced on all platforms; on
/// non-Unix systems the rename itself is the best available ordering.
fn sync_dir(path: &Path) -> Result<()> {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| storage_err(dir, None, format!("fsyncing directory: {e}")))?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Best-effort sweep of `*.tmp` leftovers from an interrupted atomic
/// write (`<stem>.…​.tmp`). They were never renamed into place, so they
/// are dead weight, not state.
fn sweep_tmp_files(dir: &Path, stem: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&format!("{stem}.")) && name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Best-effort sweep of state superseded by `manifest`: fold logs whose
/// generation the manifest already folds in, and segment files it does
/// not reference.
fn sweep_stale(dir: &Path, stem: &str, manifest: &Manifest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(gen) = parse_fold_gen(&name, stem) {
            if gen < manifest.generation {
                let _ = std::fs::remove_file(entry.path());
            }
        } else if is_segment_file(&name, stem) && !manifest.entries.iter().any(|e| e.file == name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// A throwaway file handle used to build the struct before the real
/// active log is settled (the field is replaced before `open` returns).
fn tempfile_placeholder(log_path: &Path) -> Result<File> {
    // Open the directory's /dev/null equivalent: a write handle to a
    // tmp file we immediately reuse or recreate. Cheapest portable
    // option: create (or truncate) `<log>.tmp` which the tmp sweep of
    // any future open removes if we crash before replacing it.
    let tmp = tmp_path(log_path);
    let f = File::create(&tmp).map_err(|e| storage_err(&tmp, None, e))?;
    let _ = std::fs::remove_file(&tmp);
    Ok(f)
}

/// Resolve `cmd` against `kb`'s schema as the write it must be: a log
/// record, or a bulk load's schema preamble.
fn resolve_write<'c>(kb: &mut Kb, cmd: &'c Command) -> Result<Write<'c>> {
    cmd.to_write(kb.schema_mut())?
        .ok_or_else(|| ClassicError::Malformed(format!("expected a write, got a {}", cmd.kind())))
}

fn read_file(path: &Path) -> Result<String> {
    let mut s = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut s))
        .map_err(|e| storage_err(path, None, e))?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{same_state, snapshot_to_string};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("classic-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populate(store: &mut DurableKb) {
        store.define_role("thing-driven").unwrap();
        store.define_role("enrolled-at").unwrap();
        store
            .define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = store.kb.schema().symbols.find_concept("PERSON").unwrap();
        let enrolled = store.kb.schema().symbols.find_role("enrolled-at").unwrap();
        store
            .define_concept(
                "STUDENT",
                Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]),
            )
            .unwrap();
        store.create_ind("Rocky").unwrap();
        store.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        store
            .assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
            .unwrap();
    }

    /// Add individuals `Ind-{start}..Ind-{start+n}` so the arena spans
    /// several segments at a small budget.
    fn populate_many(store: &mut DurableKb, start: usize, n: usize) {
        let person = store.kb.schema().symbols.find_concept("PERSON").unwrap();
        for i in start..start + n {
            let name = format!("Ind-{i:03}");
            store.create_ind(&name).unwrap();
            store.assert_ind(&name, &Concept::Name(person)).unwrap();
        }
    }

    /// Fold logs left in `dir` by rotations no published manifest folds.
    fn fold_logs(dir: &Path) -> usize {
        let names = std::fs::read_dir(dir).unwrap().flatten();
        let fold = |e: &std::fs::DirEntry| parse_fold_gen(&e.file_name().to_string_lossy(), "kb");
        names.filter(|e| fold(e).is_some()).count()
    }

    /// A publish that fails is the error of the call that publishes, and
    /// of no other: the next write is accepted and logged, the directory
    /// reopens at the old generation with that write, and a later
    /// compaction folds what the failed ones left.
    #[test]
    fn a_failed_publish_is_its_callers_error_and_the_next_write_is_accepted() {
        let dir = tmpdir("failed-publish");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        let old_gen = store.generation();
        populate_many(&mut store, 0, 3);

        // A directory where the manifest's tmp file goes: every segment
        // publishes, the manifest cannot.
        let blocker = tmp_path(&manifest_path(&path));
        std::fs::create_dir(&blocker).unwrap();
        let pending = store.pending_ops();
        assert!(store.compact_in_background().unwrap());
        let err = store.wait_for_compaction().unwrap_err();
        assert!(matches!(err, ClassicError::Storage { .. }), "{err:?}");
        let err = store.compact().unwrap_err();
        assert!(matches!(err, ClassicError::Storage { .. }), "{err:?}");
        assert_eq!(store.generation(), old_gen);
        assert_eq!(store.pending_ops(), pending, "nothing was folded");

        store.create_ind("Late").unwrap();
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("(create-ind Late)"));
        let state = snapshot_to_string(store.kb().unwrap());
        drop(store);

        let mut reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(reopened.generation(), old_gen);
        assert_eq!(snapshot_to_string(reopened.kb().unwrap()), state);
        assert!(fold_logs(&dir) > 0);

        std::fs::remove_dir(&blocker).unwrap();
        reopened.compact().unwrap();
        assert!(reopened.generation() > old_gen);
        assert_eq!(fold_logs(&dir), 0);
        drop(reopened);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(snapshot_to_string(reopened.kb().unwrap()), state);
    }

    /// A bulk load whose publish fails leaves nothing of itself: not in
    /// memory, where its rows would be served until restart and then
    /// lost, and not in the pending-operation count.
    #[test]
    fn a_bulk_load_whose_publish_fails_keeps_none_of_its_rows() {
        let dir = tmpdir("bulk-failed-publish");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let inds = store.kb.ind_count();
        let pending = store.pending_ops();

        let blocker = tmp_path(&manifest_path(&path));
        std::fs::create_dir(&blocker).unwrap();
        let (_, spec) =
            parse_bulk("(bulk-load (into PERSON) (roles enrolled-at) (row p1 _) (row p2 _))");
        let err = store.bulk_load(&[], &spec).unwrap_err();
        assert!(matches!(err, ClassicError::Storage { .. }), "{err:?}");
        assert_eq!(store.kb.ind_count(), inds, "the rows are not in memory");
        assert_eq!(store.pending_ops(), pending);
        store.create_ind("Late").unwrap();

        std::fs::remove_dir(&blocker).unwrap();
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        let kb = reopened.kb().unwrap();
        let has = |name: &str| {
            kb.schema()
                .symbols
                .find_individual(name)
                .is_some_and(|n| kb.ind_id(n).is_ok())
        };
        assert!(has("Rocky") && has("Late"));
        assert!(!has("p1") && !has("p2"));
        assert_eq!(kb.ind_count(), inds + 1);
    }

    #[test]
    fn log_replays_to_same_state() {
        let dir = tmpdir("replay");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);

        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
        // Derived state (recognition) was rebuilt, not just told facts.
        let student = reopened
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_concept("STUDENT")
            .unwrap();
        let rocky = reopened
            .kb()
            .unwrap()
            .ind_id(
                reopened
                    .kb()
                    .unwrap()
                    .schema()
                    .symbols
                    .find_individual("Rocky")
                    .unwrap(),
            )
            .unwrap();
        assert!(reopened
            .kb()
            .unwrap()
            .is_instance_of(rocky, student)
            .unwrap());
    }

    #[test]
    fn rejected_updates_are_not_logged() {
        let dir = tmpdir("reject");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let driven = store.kb.schema().symbols.find_role("thing-driven").unwrap();
        store
            .assert_ind("Rocky", &Concept::AtMost(0, driven))
            .unwrap();
        // Now contradict it — rejected, and must not poison the log.
        let v = classic_core::IndRef::Classic(store.kb.schema_mut().symbols.individual("Volvo-17"));
        assert!(store
            .assert_ind("Rocky", &Concept::Fills(driven, vec![v]))
            .is_err());
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        let rocky = reopened
            .kb()
            .unwrap()
            .ind_id(
                reopened
                    .kb()
                    .unwrap()
                    .schema()
                    .symbols
                    .find_individual("Rocky")
                    .unwrap(),
            )
            .unwrap();
        // Role ids are interning-order dependent; re-resolve by name.
        let driven = reopened
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_role("thing-driven")
            .unwrap();
        assert!(reopened.kb().unwrap().ind(rocky).is_closed(driven));
    }

    #[test]
    fn compact_then_reopen() {
        let dir = tmpdir("compact");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        assert!(store.pending_ops() > 0);
        store.compact().unwrap();
        assert_eq!(store.pending_ops(), 0);
        assert!(
            manifest_path(&path).exists(),
            "compaction publishes a manifest"
        );
        // More ops after compaction land in the fresh log.
        store.create_ind("Bullwinkle").unwrap();
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let rebuilt = crate::snapshot::roundtrip(store.kb().unwrap(), |_| {}).unwrap();
        assert!(same_state(store.kb().unwrap(), &rebuilt));
    }

    #[test]
    fn torn_tail_is_recovered_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        drop(store);
        // Simulate a crash mid-append: an incomplete final record.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        let good_len = raw.len();
        raw.push_str("(assert-ind Rocky (AT-LEA"); // torn write, no newline
        std::fs::write(&path, &raw).unwrap();

        let store = DurableKb::open(&path, |_| {}).unwrap();
        // State is the full accepted history…
        let rocky = store
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_individual("Rocky")
            .unwrap();
        assert!(store.kb().unwrap().ind_id(rocky).is_ok());
        drop(store);
        // …and the log was truncated back to the last good record.
        let recovered = std::fs::read_to_string(&path).unwrap();
        assert_eq!(recovered.len(), good_len);
        // Reopening again is clean.
        DurableKb::open(&path, |_| {}).unwrap();
    }

    /// A complete, newline-terminated, well-formed final record that
    /// replay refuses was acknowledged once: opening is an error that
    /// names the file and the cause, and the log keeps every byte.
    #[test]
    fn a_complete_final_record_the_kb_refuses_is_an_error_and_is_not_truncated() {
        let refused = [
            // Names a TEST this opener does not register.
            ("(define-concept EVEN (TEST even))", "even"),
            // Well-formed, but nothing defines CHECKED.
            ("(assert-ind Rocky CHECKED)", "CHECKED"),
            // Resolves, and the knowledge base rejects it.
            ("(create-ind Rocky)", "Rocky"),
        ];
        for (ix, (record, cause)) in refused.into_iter().enumerate() {
            let dir = tmpdir(&format!("refused-tail-{ix}"));
            let path = dir.join("kb.log");
            let mut store = DurableKb::open(&path, |_| {}).unwrap();
            populate(&mut store);
            drop(store);
            let mut raw = std::fs::read(&path).unwrap();
            raw.extend_from_slice(format!("{record}\n").as_bytes());
            std::fs::write(&path, &raw).unwrap();

            let err = match DurableKb::open(&path, |_| {}) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("{record}: a refused complete record must not open"),
            };
            assert!(
                err.contains("kb.log") && err.contains("generation"),
                "{err}"
            );
            assert!(err.contains("complete but was refused"), "{err}");
            assert!(err.contains(cause), "must name the cause: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), raw, "{record}: log touched");

            // The same record without its newline was never acknowledged:
            // that is a torn tail, truncated and opened as ever.
            raw.pop();
            std::fs::write(&path, &raw).unwrap();
            DurableKb::open(&path, |_| {}).unwrap();
            let recovered = std::fs::read(&path).unwrap();
            assert_eq!(recovered, raw[..raw.len() - record.len()]);
        }
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_silent_repair() {
        let dir = tmpdir("midcorrupt");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.create_ind("Bullwinkle").unwrap();
        drop(store);
        // Corrupt a line in the middle.
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        let mut bad: Vec<String> = lines.iter().map(|s| (*s).to_owned()).collect();
        let mid = bad.len() / 2;
        bad[mid] = "(assert-ind ??? broken".to_owned();
        std::fs::write(&path, bad.join("\n") + "\n").unwrap();

        let err = match DurableKb::open(&path, |_| {}) {
            Err(e) => e,
            Ok(_) => panic!("mid-log corruption must not open cleanly"),
        };
        assert!(err.to_string().contains("corrupted"), "got: {err}");
        // The error names the offending file.
        assert!(err.to_string().contains("kb.log"), "got: {err}");
    }

    #[test]
    fn crash_between_manifest_rename_and_log_truncate_does_not_double_apply() {
        let dir = tmpdir("crashorder");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        // Save the pre-compaction log, compact, then put the old log
        // back: the on-disk state a crash leaves if it lands after the
        // manifest rename but before stale-log cleanup, with the stale
        // log additionally restored to the *active* name.
        let old_log = std::fs::read(&path).unwrap();
        let before = snapshot_to_string(store.kb().unwrap());
        store.compact().unwrap();
        drop(store);
        std::fs::write(&path, &old_log).unwrap();

        // Replaying the stale log on top of the segments would fail
        // (create-ind duplicates) or double-apply; open must detect the
        // generation mismatch and discard it instead.
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
        drop(reopened);
        // The stale log was durably reset, so the next open is clean too.
        let again = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(again.kb().unwrap()));
    }

    #[test]
    fn stale_temp_files_are_removed_on_open() {
        let dir = tmpdir("staletmp");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        // A crash mid-compaction leaves tmp files that were never
        // renamed into place: a partial segment and a partial manifest.
        let seg_tmp = dir.join("kb.seg-00000000deadbeef.classic.tmp");
        let man_tmp = dir.join("kb.manifest.tmp");
        std::fs::write(&seg_tmp, "; partial segment, crashed mid-write").unwrap();
        std::fs::write(&man_tmp, "; partial manifest, crashed mid-write").unwrap();

        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
        assert!(!seg_tmp.exists(), "stale temp segment must be cleaned up");
        assert!(!man_tmp.exists(), "stale temp manifest must be cleaned up");
    }

    #[test]
    fn retractions_are_logged_replayed_and_folded_by_compaction() {
        let dir = tmpdir("retract");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let enrolled = store.kb.schema().symbols.find_role("enrolled-at").unwrap();
        let retracted = Concept::AtLeast(1, enrolled);
        store.retract_ind("Rocky", &retracted).unwrap();
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);

        // The retraction replays from the log…
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
        let student = reopened
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_concept("STUDENT")
            .unwrap();
        let rocky = reopened
            .kb()
            .unwrap()
            .ind_id(
                reopened
                    .kb()
                    .unwrap()
                    .schema()
                    .symbols
                    .find_individual("Rocky")
                    .unwrap(),
            )
            .unwrap();
        assert!(!reopened
            .kb()
            .unwrap()
            .is_instance_of(rocky, student)
            .unwrap());
        drop(reopened);

        // …and compaction folds it away: the segments carry only the
        // surviving told facts, with no retract-ind record.
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.compact().unwrap();
        drop(store);
        let manifest = Manifest::load(&manifest_path(&path)).unwrap().unwrap();
        let mut all_segments = String::new();
        for entry in &manifest.entries {
            all_segments.push_str(&std::fs::read_to_string(dir.join(&entry.file)).unwrap());
        }
        assert!(!all_segments.contains("retract-ind"));
        // The STUDENT definition still mentions the restriction, but the
        // retracted told fact about Rocky is gone.
        assert!(!all_segments.contains("(assert-ind Rocky (AT-LEAST 1 enrolled-at))"));
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn retracted_rules_are_dropped_from_snapshots() {
        let dir = tmpdir("retractrule");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.define_role("eat").unwrap();
        store
            .define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
            .unwrap();
        let junk = store.kb.schema().symbols.find_concept("JUNK-FOOD").unwrap();
        let eat = store.kb.schema().symbols.find_role("eat").unwrap();
        let consequent = Concept::all(eat, Concept::Name(junk));
        store.assert_rule("STUDENT", consequent.clone()).unwrap();
        store.retract_rule("STUDENT", &consequent).unwrap();
        assert_eq!(store.kb().unwrap().active_rules().count(), 0);
        let before = snapshot_to_string(store.kb().unwrap());
        assert!(!before.contains("assert-rule"));
        drop(store);
        // Replay reaches the same state (rule asserted then retracted).
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
        assert_eq!(reopened.kb().unwrap().active_rules().count(), 0);
    }

    #[test]
    fn rules_survive_persistence() {
        let dir = tmpdir("rules");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.define_role("eat").unwrap();
        store
            .define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
            .unwrap();
        let junk = store.kb.schema().symbols.find_concept("JUNK-FOOD").unwrap();
        let eat = store.kb.schema().symbols.find_role("eat").unwrap();
        store
            .assert_rule("STUDENT", Concept::all(eat, Concept::Name(junk)))
            .unwrap();
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(reopened.kb().unwrap().rules().len(), 1);
        // And the rule had fired on Rocky during replay.
        let rocky = reopened
            .kb()
            .unwrap()
            .ind_id(
                reopened
                    .kb()
                    .unwrap()
                    .schema()
                    .symbols
                    .find_individual("Rocky")
                    .unwrap(),
            )
            .unwrap();
        let eat = reopened
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_role("eat")
            .unwrap();
        let junk = reopened
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_concept("JUNK-FOOD")
            .unwrap();
        let junk_nf = reopened.kb().unwrap().schema().concept_nf(junk).unwrap();
        let vr = reopened
            .kb()
            .unwrap()
            .ind(rocky)
            .derived()
            .value_restriction(eat);
        assert!(classic_core::subsumes(junk_nf, &vr));
    }

    // ---- segmented-format behaviors ------------------------------------

    #[test]
    fn compaction_partitions_individuals_across_segments() {
        let dir = tmpdir("segments");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(4);
        populate(&mut store);
        populate_many(&mut store, 0, 10); // 11 individuals total
        store.compact().unwrap();
        let report = store.last_compaction().unwrap();
        assert_eq!(report.segments_total, 1 + 3, "schema + ceil(11/4) segments");
        assert_eq!(report.segments_written, 4);
        drop(store);
        let manifest = Manifest::load(&manifest_path(&path)).unwrap().unwrap();
        assert_eq!(manifest.ind_entries().count(), 3);
        assert!(manifest.schema_entry().is_some());
    }

    #[test]
    fn unchanged_segments_are_reused_across_compactions() {
        let dir = tmpdir("reuse");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(4);
        populate(&mut store);
        populate_many(&mut store, 0, 10);
        store.compact().unwrap();
        // Append-only growth: earlier full segments and the schema are
        // byte-identical next generation, so only the tail is rewritten.
        populate_many(&mut store, 10, 3);
        store.compact().unwrap();
        let report = store.last_compaction().unwrap();
        assert!(
            report.segments_reused >= 3,
            "schema + first two full segments must be reused, got {report:?}"
        );
        assert!(report.segments_written <= 2, "got {report:?}");
        // Reopen agrees with memory.
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn paged_open_defers_segments_and_hydrates_on_demand() {
        let dir = tmpdir("paged");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(4);
        populate(&mut store);
        populate_many(&mut store, 0, 10);
        store.compact().unwrap();
        // A short log suffix touching one individual.
        let person = store.kb.schema().symbols.find_concept("PERSON").unwrap();
        store.assert_ind("Ind-002", &Concept::Name(person)).unwrap();
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);

        let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
        assert_eq!(paged.segment_count(), 3);
        // Replaying the suffix hydrated only Ind-002's segment.
        assert_eq!(paged.pending_segments(), 2);
        assert!(!paged.is_fully_hydrated());
        // A mutation touching a parked individual hydrates its segment.
        let person = paged.kb.schema().symbols.find_concept("PERSON").unwrap();
        paged.assert_ind("Ind-007", &Concept::Name(person)).unwrap();
        assert_eq!(paged.pending_segments(), 1);
        // Full hydration converges to the eager state.
        let full = paged.kb_hydrated().unwrap();
        let mut oracle_store = DurableKb::open(&path, |_| {}).unwrap();
        let person = oracle_store
            .kb
            .schema()
            .symbols
            .find_concept("PERSON")
            .unwrap();
        oracle_store
            .assert_ind("Ind-007", &Concept::Name(person))
            .unwrap();
        assert!(same_state(full, oracle_store.kb().unwrap()));
        let _ = before;
    }

    #[test]
    fn kb_errors_on_partially_hydrated_store() {
        let dir = tmpdir("pagedpanic");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(2);
        populate(&mut store);
        populate_many(&mut store, 0, 6);
        store.compact().unwrap();
        drop(store);
        let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
        let parked = paged.pending_segments();
        assert!(parked > 0, "precondition");
        match paged.kb() {
            Err(ClassicError::NotHydrated { lo, hi, segments }) => {
                assert_eq!(segments, parked);
                assert!(lo < hi, "the parked range {lo}..{hi} must be non-empty");
            }
            other => panic!("expected NotHydrated, got {other:?}"),
        }
        // Hydrating clears the error.
        paged.hydrate_all().unwrap();
        assert!(paged.kb().is_ok());
    }

    #[test]
    fn hydration_failure_is_an_error_and_the_store_stays_usable() {
        let dir = tmpdir("pagedlost");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        store.set_segment_budget(4);
        populate(&mut store);
        populate_many(&mut store, 0, 10);
        store.compact().unwrap();
        drop(store);

        let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
        paged.hydrate_for("Ind-001").unwrap();
        let hydrated_before = paged.segment_count() - paged.pending_segments();
        // Lose a segment that is still parked (Ind-009 lives in the last).
        let victim = paged
            .pending
            .iter()
            .find(|s| !s.hydrated && s.entry.names.iter().any(|n| n == "Ind-009"))
            .map(|s| s.entry.file.clone())
            .expect("Ind-009's segment is parked");
        std::fs::remove_file(dir.join(&victim)).unwrap();

        // The query path reports it as an error: a panic here would
        // unwind under whatever lock the caller holds (a tenant's).
        match paged.kb_hydrated() {
            Err(ClassicError::Storage { path, .. }) => {
                assert!(path.ends_with(&victim), "error names {path}, lost {victim}")
            }
            other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
        }
        assert!(matches!(
            paged.eval_durable(&classic_lang::parse_one("(retrieve PERSON)").unwrap()),
            Err(ClassicError::Storage { .. })
        ));
        // Nothing already hydrated was lost, and individuals whose
        // segments are in keep taking durable writes.
        assert!(paged.segment_count() - paged.pending_segments() >= hydrated_before);
        let person = paged.kb.schema().symbols.find_concept("PERSON").unwrap();
        paged.assert_ind("Ind-001", &Concept::Name(person)).unwrap();
        paged.create_ind("Newcomer").unwrap();
        // Only the lost segment's own individuals are out of reach.
        assert!(paged.assert_ind("Ind-009", &Concept::Name(person)).is_err());
    }

    /// `levels` of `(ALL thing-driven …)` around `THING`.
    fn all_chain(store: &DurableKb, levels: usize) -> Concept {
        let driven = store.kb.schema().symbols.find_role("thing-driven").unwrap();
        (0..levels).fold(Concept::thing(), |inner, _| Concept::all(driven, inner))
    }

    /// A line the store writes must stay a line the parser reads: a
    /// description whose record nests exactly to the reader's bound is
    /// logged and replays; one level more is refused *before* it is
    /// applied — with the reader's own error, and nothing logged —
    /// instead of being accepted now and failing the next open.
    #[test]
    fn descriptions_the_reader_could_not_read_back_are_refused_unlogged() {
        // The kernel recurses over a description's depth too; a roomy
        // stack keeps this test about the log, not about that.
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let dir = tmpdir("nestbound");
                let path = dir.join("kb.log");
                let mut store = DurableKb::open(&path, |_| {}).unwrap();
                populate(&mut store);
                // `(assert-ind Rocky <511 × (ALL …)>)` nests 512 deep.
                let at_bound = all_chain(&store, 511);
                store.assert_ind("Rocky", &at_bound).unwrap();
                let logged = std::fs::read_to_string(&path).unwrap();
                let state = snapshot_to_string(store.kb().unwrap());

                let too_deep = all_chain(&store, 512);
                let refused = [
                    store.assert_ind("Rocky", &too_deep).map(drop),
                    store.retract_ind("Rocky", &too_deep).map(drop),
                    store.define_concept("DEEP", too_deep.clone()).map(drop),
                    store.assert_rule("STUDENT", too_deep.clone()).map(drop),
                    store.retract_rule("STUDENT", &too_deep).map(drop),
                ];
                for r in refused {
                    let msg = r.unwrap_err().to_string();
                    assert!(msg.contains("512-paren limit"), "{msg}");
                }
                // `EXACTLY` renders one level deeper than it is written,
                // so the wire can reach the same edge through the parser.
                let sneaky = format!(
                    "(assert-ind Rocky {}(EXACTLY 1 thing-driven){})",
                    "(ALL thing-driven ".repeat(510),
                    ")".repeat(510)
                );
                let cmd = classic_lang::parse_one(&sneaky).expect("512 deep as written");
                let msg = store.eval_durable(&cmd).unwrap_err().to_string();
                assert!(msg.contains("512-paren limit"), "{msg}");
                let bulk = format!(
                    "(bulk-load (into {}(EXACTLY 1 thing-driven){}) (roles) (row Rocky))",
                    "(ALL thing-driven ".repeat(509),
                    ")".repeat(509)
                );
                let cmd = classic_lang::parse_one(&bulk).expect("512 deep as written");
                let msg = store.eval_durable(&cmd).unwrap_err().to_string();
                assert!(msg.contains("512-paren limit"), "{msg}");

                assert_eq!(logged, std::fs::read_to_string(&path).unwrap());
                assert_eq!(state, snapshot_to_string(store.kb().unwrap()));
                drop(store);
                // The record at the bound replays, from the log and, after
                // a compaction, from a segment.
                let mut reopened = DurableKb::open(&path, |_| {}).unwrap();
                assert_eq!(state, snapshot_to_string(reopened.kb().unwrap()));
                reopened.compact().unwrap();
                drop(reopened);
                let reopened = DurableKb::open(&path, |_| {}).unwrap();
                assert_eq!(state, snapshot_to_string(reopened.kb().unwrap()));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn a_parked_compaction_does_not_block_appends() {
        let dir = tmpdir("bg");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        assert!(store.compact_in_background().unwrap());
        // Appends proceed against the rotated log while the plan is
        // parked.
        store.create_ind("Bullwinkle").unwrap();
        let report = store.wait_for_compaction().unwrap().unwrap();
        assert!(report.generation >= 1);
        assert_eq!(store.generation(), report.generation);
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn panicking_recognizer_rejects_the_write_without_logging_or_poisoning() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Mutex};
        let dir = tmpdir("fragile");
        let path = dir.join("kb.log");
        let armed = Arc::new(AtomicBool::new(false));
        let register = |kb: &mut Kb| {
            let armed = Arc::clone(&armed);
            kb.register_test("fragile", move |_| {
                if armed.load(Ordering::SeqCst) {
                    panic!("fragile recognizer blew up");
                }
                false
            });
        };
        // An embedded tenant: the store behind a mutex.
        let tenant = Mutex::new(DurableKb::open(&path, register).unwrap());
        {
            let mut store = tenant.lock().unwrap();
            populate(&mut store);
            let fragile = store.kb().unwrap().schema().symbols.find_test("fragile");
            let student = store.kb().unwrap().schema().symbols.find_concept("STUDENT");
            store
                .define_concept(
                    "SUSPECT",
                    Concept::and([
                        Concept::Name(student.unwrap()),
                        Concept::Test(fragile.unwrap()),
                    ]),
                )
                .unwrap();
        }
        let before = tenant.lock().unwrap().kb().unwrap().clone();
        let log_before = std::fs::read_to_string(&path).unwrap();
        armed.store(true, Ordering::SeqCst);
        // Rocky is a STUDENT, so any write that re-plans him runs the
        // recognizer.
        let enrolled = before.schema().symbols.find_role("enrolled-at").unwrap();
        let told = Concept::AtLeast(2, enrolled);
        let err = tenant.lock().unwrap().assert_ind("Rocky", &told);
        assert!(
            matches!(err, Err(ClassicError::RecognizerPanicked(_))),
            "{err:?}"
        );
        let store = tenant.lock().expect("the unwind must not reach the lock");
        assert!(same_state(&before, store.kb().unwrap()));
        assert_eq!(log_before, std::fs::read_to_string(&path).unwrap());
        drop(store);
        drop(tenant);
        armed.store(false, Ordering::SeqCst);
        let reopened = DurableKb::open(&path, register).unwrap();
        assert!(same_state(&before, reopened.kb().unwrap()));
    }

    #[test]
    fn monolithic_snapshot_without_manifest_is_refused_not_opened_empty() {
        let dir = tmpdir("monolithic");
        let path = dir.join("kb.log");
        // The pre-segmented layout: `kb.snapshot` holding everything,
        // plus a log suffix. Replaying only the suffix would hand back a
        // database missing all of it.
        let snapshot = dir.join("kb.snapshot");
        std::fs::write(&snapshot, format!("{GEN_PREFIX} 3\n(create-ind Rocky)\n")).unwrap();
        std::fs::write(&path, format!("{GEN_PREFIX} 3\n(create-ind Bullwinkle)\n")).unwrap();
        let err = match DurableKb::open(&path, |_| {}) {
            Err(e) => e,
            Ok(_) => panic!("a monolithic store must not open as if it were empty"),
        };
        assert!(matches!(err, ClassicError::Storage { .. }), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("kb.snapshot"),
            "error must name the file: {msg}"
        );
        assert!(
            msg.contains("PR 4–11"),
            "error must say what migrates it: {msg}"
        );
        // Refusing touched nothing.
        assert!(snapshot.exists());
        assert!(!manifest_path(&path).exists());
    }

    #[test]
    fn crash_after_log_rotation_replays_fold_and_active_logs() {
        let dir = tmpdir("foldreplay");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let before = snapshot_to_string(store.kb().unwrap());
        // Die right after the rotation: the fold log holds the history,
        // the fresh active log is empty, and no new manifest exists.
        store
            .compact_crashing_at(CrashPoint::AfterLogRotation)
            .unwrap();
        drop(store);
        assert!(fold_log_path(&dir, "kb", 0).exists());
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
        // The next compaction folds both logs away for good.
        drop(reopened);
        let mut again = DurableKb::open(&path, |_| {}).unwrap();
        again.compact().unwrap();
        assert!(!fold_log_path(&dir, "kb", 0).exists());
        drop(again);
        let final_open = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(final_open.kb().unwrap()));
    }

    #[test]
    fn storage_errors_name_the_offending_file_and_generation() {
        let dir = tmpdir("errctx");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        drop(store);
        // Truncate one published segment: open must fail naming it.
        let manifest = Manifest::load(&manifest_path(&path)).unwrap().unwrap();
        let victim = manifest.ind_entries().next().unwrap().file.clone();
        let seg_path = dir.join(&victim);
        let text = std::fs::read_to_string(&seg_path).unwrap();
        std::fs::write(&seg_path, &text[..text.len() / 2]).unwrap();
        let err = match DurableKb::open(&path, |_| {}) {
            Err(e) => e,
            Ok(_) => panic!("a truncated segment must not open cleanly"),
        };
        let msg = err.to_string();
        assert!(msg.contains(&victim), "error must name the file: {msg}");
        assert!(
            msg.contains("generation"),
            "error must name the generation: {msg}"
        );
    }

    #[test]
    fn store_metrics_track_appends_and_compactions() {
        let dir = tmpdir("obsstore");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        store.create_ind("Bullwinkle").unwrap();
        let snap = store.kb().unwrap().metrics().snapshot();
        let counter = |name: &str| snap.counters.get(name).map(|(_, v)| *v).unwrap_or(0);
        assert!(counter("classic_store_appends_total") > 0);
        assert!(counter("classic_store_append_bytes_total") > 0);
        assert_eq!(counter("classic_store_compactions_total"), 1);
        assert!(counter("classic_store_segments_written_total") > 0);
        let report = store.last_compaction().unwrap();
        assert_eq!(
            counter("classic_store_compact_bytes_total"),
            report.bytes_written
        );
        assert_eq!(
            snap.gauges.get("classic_store_generation").map(|g| g.1),
            Some(report.generation)
        );
        // The same series appear in both exposition formats.
        let prom = classic_obs::render_prometheus(&snap);
        assert!(prom.contains("classic_store_appends_total"));
        let json = classic_obs::render_json(&snap);
        assert!(json.contains("classic_store_appends_total"));
    }

    /// `(obs-reset)` zeroes what the KB counted, not the levels it
    /// reports: the generation gauge still reads the published
    /// generation.
    #[test]
    fn a_metrics_reset_keeps_the_generation_gauge() {
        let dir = tmpdir("obsreset");
        let mut store = DurableKb::open(dir.join("kb.log"), |_| {}).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        let metrics = store.kb().unwrap().metrics();
        metrics.reset();
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["classic_store_appends_total"].1, 0);
        assert_eq!(snap.gauges["classic_store_generation"].1, 1);
    }

    fn parse_bulk(src: &str) -> (Command, BulkSpec) {
        let cmd = classic_lang::parse(src).unwrap().remove(0);
        let Command::BulkLoad(spec) = &cmd else {
            panic!("expected a bulk-load form, got {cmd:?}");
        };
        let spec = spec.clone();
        (cmd, spec)
    }

    #[test]
    fn bulk_load_logged_appends_one_record_and_replays() {
        let dir = tmpdir("bulk-logged");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        for cmd in classic_lang::parse(
            "(define-role name) (define-role age)
             (define-concept PERSON (PRIMITIVE THING person))",
        )
        .unwrap()
        {
            store.eval_durable(&cmd).unwrap();
        }
        let (cmd, _) = parse_bulk(
            r#"(bulk-load (into PERSON) (roles name age)
                 (row p1 "Ada" 36) (row p2 "Grace" 45) (row p3 'anon _))"#,
        );
        let Outcome::BulkLoaded(report) = store.eval_durable(&cmd).unwrap() else {
            panic!("expected a bulk-loaded outcome");
        };
        assert_eq!((report.rows, report.accepted, report.rejected), (3, 3, 0));
        // The whole batch is one appended record on one line.
        let raw = std::fs::read_to_string(&path).unwrap();
        assert_eq!(raw.matches("(bulk-load").count(), 1, "log: {raw}");
        let record = raw.lines().find(|l| l.contains("bulk-load")).unwrap();
        assert!(record.contains("(row p3 'anon _)"), "record: {record}");
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn bulk_load_logged_drops_rejected_rows_from_the_log() {
        let dir = tmpdir("bulk-reject");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        for cmd in classic_lang::parse(
            "(define-role r)
             (define-concept LONER (AT-MOST 0 r))",
        )
        .unwrap()
        {
            store.eval_durable(&cmd).unwrap();
        }
        // Row a fills the closed-off role and is rejected; row b carries
        // no filler and is accepted.
        let (cmd, _) = parse_bulk("(bulk-load (into LONER) (roles r) (row a V) (row b _))");
        let Outcome::BulkLoaded(report) = store.eval_durable(&cmd).unwrap() else {
            panic!("expected a bulk-loaded outcome");
        };
        assert_eq!((report.accepted, report.rejected), (1, 1));
        assert_eq!(report.row_accepted, vec![false, true]);
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.contains("(row b _)"), "log: {raw}");
        assert!(!raw.contains("(row a"), "log: {raw}");
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        let reopened = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn segment_tier_bulk_load_commits_without_log_appends() {
        let dir = tmpdir("bulk-seg");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        let ddl = classic_lang::parse(
            "(define-role name)
             (define-concept PERSON (PRIMITIVE THING person))",
        )
        .unwrap();
        let (_, spec) =
            parse_bulk(r#"(bulk-load (into PERSON) (roles name) (row p1 "Ada") (row p2 "Grace"))"#);
        let out = store.bulk_load(&ddl, &spec).unwrap();
        assert_eq!(out.report.accepted, 2);
        assert_eq!(out.ddl_applied, 2);
        assert_eq!(out.generation, store.generation());
        // Nothing reached the operation log: the compaction was the
        // durability.
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(
            !raw.contains("bulk-load") && !raw.contains("define-role"),
            "log: {raw}"
        );
        let before = snapshot_to_string(store.kb().unwrap());
        drop(store);
        let mut reopened = DurableKb::open(&path, |_| {}).unwrap();
        reopened.hydrate_all().unwrap();
        assert_eq!(before, snapshot_to_string(reopened.kb().unwrap()));
    }

    #[test]
    fn segment_tier_bulk_load_rejects_bad_ddl_untouched() {
        let dir = tmpdir("bulk-badddl");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let before = snapshot_to_string(&store.kb);
        // `no-such-role` is undefined, so the second DDL command fails
        // to resolve; the first must not stick either.
        let ddl = classic_lang::parse(
            "(define-role name)
             (define-concept BAD (AT-LEAST 1 no-such-role))",
        )
        .unwrap();
        let (_, spec) = parse_bulk(r#"(bulk-load (roles name) (row p1 "Ada"))"#);
        assert!(store.bulk_load(&ddl, &spec).is_err());
        assert_eq!(before, snapshot_to_string(&store.kb));
        assert!(store.kb.schema().symbols.find_role("name").is_none());
        // Read-only queries are also rejected as DDL.
        let query = classic_lang::parse("(retrieve THING)").unwrap();
        assert!(store.bulk_load(&query, &spec).is_err());
    }

    #[test]
    fn segment_tier_crash_before_manifest_rename_recovers_pre_ingest_state() {
        let dir = tmpdir("bulk-crash");
        let path = dir.join("kb.log");
        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        populate(&mut store);
        let pre = snapshot_to_string(&store.kb);
        // Mimic `bulk_load` up to its commit point — apply DDL and rows
        // in memory with no log appends — then crash the publishing
        // compaction just before the manifest rename.
        for cmd in &classic_lang::parse("(define-role name)").unwrap() {
            classic_lang::eval(&mut store.kb, cmd).unwrap();
        }
        let (load, _) = parse_bulk(r#"(bulk-load (roles name) (row p9 "X"))"#);
        let Outcome::BulkLoaded(report) = classic_lang::eval(&mut store.kb, &load).unwrap() else {
            panic!("expected a bulk-loaded outcome");
        };
        assert_eq!(report.accepted, 1);
        store.ops_since_compact += 2;
        store
            .compact_crashing_at(CrashPoint::BeforeManifestRename)
            .unwrap();
        drop(store);
        // The ingested operations were never logged, so recovery is the
        // pre-ingest state exactly.
        let mut reopened = DurableKb::open(&path, |_| {}).unwrap();
        reopened.hydrate_all().unwrap();
        assert_eq!(pre, snapshot_to_string(reopened.kb().unwrap()));
        assert!(reopened
            .kb()
            .unwrap()
            .schema()
            .symbols
            .find_individual("p9")
            .is_none());
    }
}
