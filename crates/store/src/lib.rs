//! # classic-store
//!
//! Persistence for the CLASSIC reproduction: a write-ahead operation log
//! and a **segmented snapshot store** that compaction folds the log into
//! on the caller's thread, both
//! serialized in the CLASSIC surface syntax itself (the paper's "single
//! language, multiple roles" design carried to storage). See
//! [`DurableKb`], [`snapshot`], [`segment`], and [`manifest`]; the
//! normative on-disk format specification lives in `docs/FORMAT.md`.
//!
//! The paper names secondary storage as its major open implementation
//! issue (§5) and frames the DB as "a cache for persistent information"
//! (§1); this crate is the reproduction's answer at laptop scale.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod manifest;
pub mod segment;
pub mod snapshot;
pub mod store;

pub use manifest::{Manifest, ManifestEntry};
pub use segment::SegmentKind;
pub use snapshot::{replay, roundtrip, same_state, snapshot_to_string};
pub use store::{BulkLoadReport, CompactionReport, CrashPoint, DurableKb, DEFAULT_SEGMENT_BUDGET};
