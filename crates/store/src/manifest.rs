//! The manifest: the generation-stamped root of the segmented snapshot.
//!
//! A store directory contains exactly one manifest file. It names the
//! live segments (one schema segment plus zero or more individual
//! segments, partitioned by arena range), carries the compaction
//! generation, and is replaced atomically by tmp-write/fsync/rename —
//! the rename *is* the publication point of a compaction. Everything
//! else in the directory (segment files, parked "fold" logs, temp files)
//! is interpreted relative to the manifest: segments it does not
//! reference are garbage, logs whose generation is older than its are
//! already folded in and must not be replayed.
//!
//! The byte-level layout is normatively specified in `docs/FORMAT.md` §4.

use crate::segment::{storage_err, SegmentKind};
use classic_core::error::Result;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// On-disk format version written to (and accepted from) manifests.
pub const MANIFEST_VERSION: u32 = 1;

const MANIFEST_MAGIC: &str = ";!classic-manifest:";
const END_MARKER: &str = ";!end";

/// One live segment named by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// What the segment holds.
    pub kind: SegmentKind,
    /// First arena index covered (inclusive); 0 for the schema segment.
    pub lo: usize,
    /// One past the last arena index covered; 0 for the schema segment.
    pub hi: usize,
    /// Number of individuals in the segment (0 for the schema segment).
    pub count: usize,
    /// Segment file name, relative to the store directory.
    pub file: String,
    /// FNV-1a 64 hash of the segment body the file must carry.
    pub hash: u64,
    /// Size of the segment body in bytes (diagnostics and sizing only;
    /// the hash is the integrity check).
    pub bytes: u64,
    /// The individual names the segment holds, in arena order (empty for
    /// the schema segment). The concatenated rosters of all `inds`
    /// entries are the database's full individual roster: `open()`
    /// pre-creates them in this order so the arena layout is canonical
    /// regardless of which order segments later hydrate in.
    pub names: Vec<String>,
}

/// A decoded manifest: the set of live segments at one compaction
/// generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The compaction generation this manifest publishes. Strictly
    /// increasing across the life of a store.
    pub generation: u64,
    /// Live segments: at most one [`SegmentKind::Schema`] entry plus the
    /// individual segments in ascending `lo` order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// The schema segment entry, if the manifest has one (an empty
    /// database compacts to a manifest with a schema segment whose body
    /// is empty, so in practice it always does).
    pub fn schema_entry(&self) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.kind == SegmentKind::Schema)
    }

    /// The individual-range entries in ascending arena order.
    pub fn ind_entries(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries.iter().filter(|e| e.kind == SegmentKind::Inds)
    }

    /// Serialize to the on-disk text form (`docs/FORMAT.md` §4).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{MANIFEST_MAGIC} {MANIFEST_VERSION}\n"));
        out.push_str(&format!(";!gen: {}\n", self.generation));
        for e in &self.entries {
            match e.kind {
                SegmentKind::Schema => {
                    out.push_str(&format!("schema {} {:016x} {}\n", e.file, e.hash, e.bytes));
                }
                SegmentKind::Inds => {
                    out.push_str(&format!(
                        "inds {} {} {} {} {:016x} {}",
                        e.lo, e.hi, e.count, e.file, e.hash, e.bytes
                    ));
                    for name in &e.names {
                        out.push(' ');
                        out.push_str(name);
                    }
                    out.push('\n');
                }
            }
        }
        out.push_str(END_MARKER);
        out.push('\n');
        out
    }

    /// Parse the on-disk text form. `path` is used for error reporting
    /// only. Rejects newer-than-supported versions, malformed entries,
    /// and a missing `;!end` terminator (a manifest is published by
    /// atomic rename, so truncation means tampering or a filesystem that
    /// broke the rename contract — never something to repair silently).
    pub fn decode(text: &str, path: &Path) -> Result<Manifest> {
        let mut lines = text.lines();
        let first = lines
            .next()
            .ok_or_else(|| storage_err(path, None, "empty manifest"))?;
        let version: u32 = first
            .strip_prefix(MANIFEST_MAGIC)
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| {
                storage_err(
                    path,
                    None,
                    format!("not a classic manifest (first line {first:?})"),
                )
            })?;
        if version > MANIFEST_VERSION {
            return Err(storage_err(
                path,
                None,
                format!("manifest version {version} is newer than supported {MANIFEST_VERSION}"),
            ));
        }
        let mut generation: Option<u64> = None;
        let mut entries = Vec::new();
        let mut terminated = false;
        for line in lines {
            let line = line.trim_end();
            if line == END_MARKER {
                terminated = true;
                break;
            }
            if let Some(v) = line.strip_prefix(";!gen:") {
                generation = Some(v.trim().parse().map_err(|_| {
                    storage_err(path, None, format!("unparseable generation {:?}", v.trim()))
                })?);
                continue;
            }
            if line.starts_with(";!") || line.is_empty() {
                // Unknown ;!key: headers are ignored for forward
                // compatibility (FORMAT.md §9).
                continue;
            }
            let entry = parse_entry(line)
                .ok_or_else(|| storage_err(path, generation, format!("bad entry {line:?}")))?;
            if entry.kind == SegmentKind::Inds && entry.names.len() != entry.count {
                return Err(storage_err(
                    path,
                    generation,
                    format!(
                        "entry for {} declares {} individuals but lists {} names",
                        entry.file,
                        entry.count,
                        entry.names.len()
                    ),
                ));
            }
            entries.push(entry);
        }
        let generation = generation
            .ok_or_else(|| storage_err(path, None, "manifest is missing its ;!gen: header"))?;
        if !terminated {
            return Err(storage_err(
                path,
                Some(generation),
                "manifest is missing its ;!end terminator (truncated?)",
            ));
        }
        Ok(Manifest {
            generation,
            entries,
        })
    }

    /// Load the manifest at `path`, or `None` if the file does not exist
    /// (a store that has never compacted in the segmented format).
    pub fn load(path: &Path) -> Result<Option<Manifest>> {
        let mut text = String::new();
        match File::open(path) {
            Ok(mut f) => f
                .read_to_string(&mut text)
                .map_err(|e| storage_err(path, None, format!("reading: {e}")))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(storage_err(path, None, format!("opening: {e}"))),
        };
        Ok(Some(Manifest::decode(&text, path)?))
    }

    /// Write the manifest durably under fsync-tmp/rename. The rename is
    /// the atomic publication point; the caller fsyncs the directory
    /// afterwards to make the rename itself durable.
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        let tmp = tmp_path(path);
        (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(self.encode().as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })()
        .map_err(|e| {
            storage_err(
                &tmp,
                Some(self.generation),
                format!("writing manifest: {e}"),
            )
        })
    }
}

fn parse_entry(line: &str) -> Option<ManifestEntry> {
    let mut it = line.split_whitespace();
    match it.next()? {
        "schema" => {
            let file = it.next()?.to_owned();
            let hash = u64::from_str_radix(it.next()?, 16).ok()?;
            let bytes = it.next()?.parse().ok()?;
            Some(ManifestEntry {
                kind: SegmentKind::Schema,
                lo: 0,
                hi: 0,
                count: 0,
                file,
                hash,
                bytes,
                names: Vec::new(),
            })
        }
        "inds" => {
            let lo = it.next()?.parse().ok()?;
            let hi = it.next()?.parse().ok()?;
            let count = it.next()?.parse().ok()?;
            let file = it.next()?.to_owned();
            let hash = u64::from_str_radix(it.next()?, 16).ok()?;
            let bytes = it.next()?.parse().ok()?;
            let names: Vec<String> = it.map(str::to_owned).collect();
            Some(ManifestEntry {
                kind: SegmentKind::Inds,
                lo,
                hi,
                count,
                file,
                hash,
                bytes,
                names,
            })
        }
        _ => None,
    }
}

// ---- store-directory naming ------------------------------------------------

/// The file-name stem a store derives every sibling file name from: the
/// log path's file stem (`kb.log` → `kb`).
pub(crate) fn stem_of(log_path: &Path) -> String {
    log_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "kb".to_owned())
}

/// `<stem>.manifest`, next to the log.
pub(crate) fn manifest_path(log_path: &Path) -> PathBuf {
    log_path.with_file_name(format!("{}.manifest", stem_of(log_path)))
}

/// `<stem>.fold-<gen>.log`: a parked log whose operations are being (or
/// were) folded into the generation-`gen`+1 segments.
pub(crate) fn fold_log_path(dir: &Path, stem: &str, gen: u64) -> PathBuf {
    dir.join(format!("{stem}.fold-{gen}.log"))
}

/// Parse the generation out of a fold-log file name produced by
/// [`fold_log_path`]. Returns `None` for any other file.
pub(crate) fn parse_fold_gen(file_name: &str, stem: &str) -> Option<u64> {
    file_name
        .strip_prefix(stem)?
        .strip_prefix(".fold-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Is `file_name` a segment file of this store (`<stem>.seg-…`)?
pub(crate) fn is_segment_file(file_name: &str, stem: &str) -> bool {
    file_name.strip_prefix(stem).is_some_and(|rest| {
        rest.strip_prefix(".seg-")
            .is_some_and(|r| r.ends_with(".classic"))
    })
}

/// The `.tmp` sibling used for atomic writes of `path`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 9,
            entries: vec![
                ManifestEntry {
                    kind: SegmentKind::Schema,
                    lo: 0,
                    hi: 0,
                    count: 0,
                    file: "kb.seg-00ff.classic".into(),
                    hash: 0xff,
                    bytes: 120,
                    names: Vec::new(),
                },
                ManifestEntry {
                    kind: SegmentKind::Inds,
                    lo: 0,
                    hi: 2,
                    count: 2,
                    file: "kb.seg-abcd.classic".into(),
                    hash: 0xabcd,
                    bytes: 40960,
                    names: vec!["Rocky".into(), "Bullwinkle".into()],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode(), Path::new("kb.manifest")).unwrap();
        assert_eq!(m, decoded);
    }

    #[test]
    fn truncated_manifest_is_rejected_with_path_and_generation() {
        let m = sample();
        let text = m.encode();
        let cut = &text[..text.len() - END_MARKER.len() - 1];
        let err = Manifest::decode(cut, Path::new("/db/kb.manifest"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("/db/kb.manifest"), "{err}");
        assert!(err.contains("generation 9"), "{err}");
        assert!(err.contains(";!end"), "{err}");
    }

    #[test]
    fn newer_version_is_rejected() {
        let text = ";!classic-manifest: 99\n;!gen: 1\n;!end\n";
        let err = Manifest::decode(text, Path::new("kb.manifest"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn unknown_headers_are_ignored_for_forward_compat() {
        let text = ";!classic-manifest: 1\n;!gen: 3\n;!flux-capacitor: on\n;!end\n";
        let m = Manifest::decode(text, Path::new("kb.manifest")).unwrap();
        assert_eq!(m.generation, 3);
        assert!(m.entries.is_empty());
    }

    #[test]
    fn naming_scheme_roundtrips() {
        let log = Path::new("/db/kb.log");
        assert_eq!(stem_of(log), "kb");
        assert_eq!(manifest_path(log), Path::new("/db/kb.manifest"));
        let fold = fold_log_path(Path::new("/db"), "kb", 12);
        assert_eq!(fold, Path::new("/db/kb.fold-12.log"));
        assert_eq!(parse_fold_gen("kb.fold-12.log", "kb"), Some(12));
        assert_eq!(parse_fold_gen("kb.fold-12.log", "other"), None);
        assert_eq!(parse_fold_gen("kb.log", "kb"), None);
        assert!(is_segment_file("kb.seg-0123.classic", "kb"));
        assert!(!is_segment_file("kb.seg-0123.classic.tmp", "kb"));
        assert_eq!(
            tmp_path(Path::new("/db/kb.manifest")),
            Path::new("/db/kb.manifest.tmp")
        );
    }
}
