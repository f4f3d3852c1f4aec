//! Segment files: the unit of the segmented snapshot format.
//!
//! A segment is one file holding a replayable slice of the database —
//! either the whole schema (roles, concept definitions, active rules and
//! the `;!tests:` host-function contract) or a fixed-budget run of
//! individuals partitioned by arena range. Segments are content-addressed:
//! the file name embeds the FNV-1a 64 hash of the body, so an unchanged
//! slice is *reused* across compaction generations instead of rewritten,
//! and a published segment file is immutable by construction.
//!
//! The byte-level layout is normatively specified in `docs/FORMAT.md` §5;
//! this module is the reference implementation. Which segments are live
//! is decided solely by the [manifest](crate::manifest).

use classic_core::error::{ClassicError, Result};
use classic_kb::Kb;
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// On-disk format version written to (and accepted from) segment headers.
pub const SEGMENT_VERSION: u32 = 1;

/// Magic header key opening every segment file.
pub(crate) const SEGMENT_MAGIC: &str = ";!classic-segment:";

/// Marker line separating the segment header from its body.
pub(crate) const BODY_MARKER: &str = ";!body:";

/// What a segment file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Roles, attributes, concept definitions, active rules, and the
    /// required host-test names. Exactly one per manifest; always the
    /// first thing replayed.
    Schema,
    /// A contiguous arena range of individuals: their `create-ind`
    /// identities followed by their told assertions.
    Inds,
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentKind::Schema => write!(f, "schema"),
            SegmentKind::Inds => write!(f, "inds"),
        }
    }
}

impl SegmentKind {
    pub(crate) fn parse(s: &str) -> Option<SegmentKind> {
        match s {
            "schema" => Some(SegmentKind::Schema),
            "inds" => Some(SegmentKind::Inds),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash over a byte string — the content hash of the
/// segmented format (`docs/FORMAT.md` §3: offset basis
/// `0xcbf29ce484222325`, prime `0x100000001b3`).
///
/// ```
/// // The canonical FNV-1a 64 test vectors.
/// assert_eq!(classic_store::segment::fnv1a(b""), 0xcbf29ce484222325);
/// assert_eq!(classic_store::segment::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Build a [`ClassicError::Storage`] naming the offending file and, when
/// known, its compaction generation.
pub(crate) fn storage_err(
    path: &Path,
    generation: Option<u64>,
    detail: impl fmt::Display,
) -> ClassicError {
    ClassicError::Storage {
        path: path.display().to_string(),
        generation,
        detail: detail.to_string(),
    }
}

/// A rendered, not-yet-written segment: the in-memory form the compactor
/// produces before deciding whether the bytes must hit the disk at all
/// (an unchanged body hash means the previous generation's file is
/// reused).
#[derive(Debug, Clone)]
pub(crate) struct RenderedSegment {
    pub kind: SegmentKind,
    /// First arena index covered (inclusive); 0 for schema.
    pub lo: usize,
    /// One past the last arena index covered; 0 for schema.
    pub hi: usize,
    /// Individual names in the range, in arena order (empty for schema).
    pub names: Vec<String>,
    /// The replayable command-script body.
    pub body: String,
    /// FNV-1a 64 of `body`'s bytes.
    pub hash: u64,
}

/// Render the schema segment body for the current state of `kb`.
pub(crate) fn render_schema_segment(kb: &Kb) -> Result<RenderedSegment> {
    let body = crate::snapshot::render_schema_body(kb)?;
    let hash = fnv1a(body.as_bytes());
    Ok(RenderedSegment {
        kind: SegmentKind::Schema,
        lo: 0,
        hi: 0,
        names: Vec::new(),
        body,
        hash,
    })
}

/// Partition the individual arena into segments of at most `budget`
/// individuals each and render them. Per-individual told order is
/// preserved exactly; each segment opens with the `create-ind`
/// identities of its range so hydrating it in isolation is meaningful.
pub(crate) fn render_ind_segments(kb: &Kb, budget: usize) -> Result<Vec<RenderedSegment>> {
    let budget = budget.max(1);
    let ids: Vec<classic_kb::IndId> = kb.ind_ids().collect();
    let mut out = Vec::new();
    for (chunk_ix, chunk) in ids.chunks(budget).enumerate() {
        let lo = chunk_ix * budget;
        let mut body = String::new();
        let mut names = Vec::with_capacity(chunk.len());
        for &id in chunk {
            crate::snapshot::render_ind_create(kb, id, &mut body)?;
            names.push(
                kb.schema()
                    .symbols
                    .individual_name(kb.ind(id).name)
                    .to_owned(),
            );
        }
        for &id in chunk {
            crate::snapshot::render_ind_told(kb, id, &mut body)?;
        }
        let hash = fnv1a(body.as_bytes());
        out.push(RenderedSegment {
            kind: SegmentKind::Inds,
            lo,
            hi: lo + chunk.len(),
            names,
            body,
            hash,
        });
    }
    Ok(out)
}

/// The content-addressed file name for a segment body hash:
/// `<stem>.seg-<hash:016x>.classic`.
pub(crate) fn segment_file_name(stem: &str, hash: u64) -> String {
    format!("{stem}.seg-{hash:016x}.classic")
}

/// Serialize a segment (header + body) to its on-disk byte form.
pub(crate) fn encode(seg: &RenderedSegment, generation: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{SEGMENT_MAGIC} {SEGMENT_VERSION}\n"));
    out.push_str(&format!(";!kind: {}\n", seg.kind));
    out.push_str(&format!(";!gen: {generation}\n"));
    if seg.kind == SegmentKind::Inds {
        out.push_str(&format!(";!range: {} {}\n", seg.lo, seg.hi));
        out.push_str(&format!(";!inds: {}\n", seg.names.join(" ")));
    }
    out.push_str(BODY_MARKER);
    out.push('\n');
    out.push_str(&seg.body);
    out
}

/// Write a segment durably under the fsync-tmp/rename discipline. The
/// caller is responsible for the subsequent directory fsync (one per
/// publish batch, not one per file). Returns the final path.
pub(crate) fn write_segment(
    dir: &Path,
    file_name: &str,
    seg: &RenderedSegment,
    generation: u64,
) -> Result<PathBuf> {
    let final_path = dir.join(file_name);
    let tmp = dir.join(format!("{file_name}.tmp"));
    let bytes = encode(seg, generation);
    (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, &final_path)
    })()
    .map_err(|e| storage_err(&tmp, Some(generation), format!("writing segment: {e}")))?;
    Ok(final_path)
}

/// A parsed segment file header (everything above the `;!body:` marker).
#[derive(Debug, Clone)]
pub(crate) struct SegmentHeader {
    /// Format version (kept for diagnostics; compatibility is enforced
    /// at parse time).
    #[allow(dead_code)]
    pub version: u32,
    pub kind: SegmentKind,
    pub generation: u64,
    pub lo: usize,
    pub hi: usize,
    pub names: Vec<String>,
}

fn parse_header_lines(
    path: &Path,
    mut next_line: impl FnMut() -> std::io::Result<Option<String>>,
) -> Result<SegmentHeader> {
    let bad = |detail: String| storage_err(path, None, detail);
    let first = next_line()
        .map_err(|e| bad(format!("reading segment header: {e}")))?
        .ok_or_else(|| bad("empty segment file".into()))?;
    let version: u32 = first
        .strip_prefix(SEGMENT_MAGIC)
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad(format!("not a classic segment file (first line {first:?})")))?;
    if version > SEGMENT_VERSION {
        return Err(bad(format!(
            "segment format version {version} is newer than supported {SEGMENT_VERSION}"
        )));
    }
    let mut header = SegmentHeader {
        version,
        kind: SegmentKind::Schema,
        generation: 0,
        lo: 0,
        hi: 0,
        names: Vec::new(),
    };
    let mut saw_kind = false;
    loop {
        let line = next_line()
            .map_err(|e| bad(format!("reading segment header: {e}")))?
            .ok_or_else(|| bad("segment header ended without a ;!body: marker".into()))?;
        let line = line.trim_end();
        if line == BODY_MARKER {
            break;
        }
        if let Some(v) = line.strip_prefix(";!kind:") {
            header.kind = SegmentKind::parse(v.trim())
                .ok_or_else(|| bad(format!("unknown segment kind {:?}", v.trim())))?;
            saw_kind = true;
        } else if let Some(v) = line.strip_prefix(";!gen:") {
            header.generation = v
                .trim()
                .parse()
                .map_err(|_| bad(format!("unparseable generation {:?}", v.trim())))?;
        } else if let Some(v) = line.strip_prefix(";!range:") {
            let mut it = v.split_whitespace();
            match (
                it.next().and_then(|s| s.parse().ok()),
                it.next().and_then(|s| s.parse().ok()),
            ) {
                (Some(lo), Some(hi)) => {
                    header.lo = lo;
                    header.hi = hi;
                }
                _ => return Err(bad(format!("unparseable range {:?}", v.trim()))),
            }
        } else if let Some(v) = line.strip_prefix(";!inds:") {
            header.names = v.split_whitespace().map(str::to_owned).collect();
        } else if !line.starts_with(";!") {
            return Err(bad(format!(
                "unexpected non-header line {line:?} before ;!body: marker"
            )));
        }
        // Unknown ;!key: headers are ignored for forward compatibility
        // (FORMAT.md §9).
    }
    if !saw_kind {
        return Err(bad("segment header is missing its ;!kind: field".into()));
    }
    Ok(header)
}

/// Read only the header of a segment file (the body, which dominates
/// the file, is not touched). Production code answers name lookups from
/// the manifest roster instead; this is kept for header round-trip
/// tests.
#[cfg(test)]
pub(crate) fn read_header(path: &Path) -> Result<SegmentHeader> {
    use std::io::{BufRead, BufReader};
    let f = File::open(path).map_err(|e| storage_err(path, None, format!("opening: {e}")))?;
    let mut reader = BufReader::new(f);
    parse_header_lines(path, move || {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        Ok((n > 0).then_some(line))
    })
}

/// Read a whole segment file and verify its body against the hash the
/// manifest promised. Returns `(header, body)`.
pub(crate) fn read_verified(path: &Path, expected_hash: u64) -> Result<(SegmentHeader, String)> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| storage_err(path, None, format!("reading: {e}")))?;
    let mut rest = text.as_str();
    let header = parse_header_lines(path, move || {
        if rest.is_empty() {
            return Ok(None);
        }
        let (line, tail) = match rest.find('\n') {
            Some(ix) => (&rest[..=ix], &rest[ix + 1..]),
            None => (rest, ""),
        };
        rest = tail;
        Ok(Some(line.to_owned()))
    })?;
    let marker = format!("{BODY_MARKER}\n");
    let body_start = text
        .find(&marker)
        .map(|ix| ix + marker.len())
        .ok_or_else(|| {
            storage_err(
                path,
                Some(header.generation),
                "segment has no ;!body: marker",
            )
        })?;
    let body = &text[body_start..];
    let actual = fnv1a(body.as_bytes());
    if actual != expected_hash {
        return Err(storage_err(
            path,
            Some(header.generation),
            format!("segment body hash {actual:016x} does not match manifest {expected_hash:016x}"),
        ));
    }
    Ok((header, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    fn sample_kb() -> Kb {
        let mut kb = Kb::new();
        kb.define_role("r").unwrap();
        kb.define_concept("P", Concept::primitive(Concept::thing(), "p"))
            .unwrap();
        for i in 0..5 {
            kb.create_ind(&format!("x{i}")).unwrap();
        }
        let p = Concept::Name(kb.schema().symbols.find_concept("P").unwrap());
        kb.assert_ind("x2", &p).unwrap();
        kb
    }

    #[test]
    fn ind_segments_partition_the_arena_by_budget() {
        let kb = sample_kb();
        let segs = render_ind_segments(&kb, 2).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].lo, segs[0].hi), (0, 2));
        assert_eq!((segs[2].lo, segs[2].hi), (4, 5));
        assert_eq!(segs[1].names, vec!["x2", "x3"]);
        assert!(segs[1].body.contains("(create-ind x2)"));
        assert!(segs[1].body.contains("(assert-ind x2"));
        assert!(!segs[0].body.contains("x2"));
    }

    #[test]
    fn segment_roundtrips_through_disk_with_hash_verification() {
        let kb = sample_kb();
        let seg = &render_ind_segments(&kb, 3).unwrap()[0];
        let dir = std::env::temp_dir().join(format!("classic-seg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let name = segment_file_name("kb", seg.hash);
        let path = write_segment(&dir, &name, seg, 7).unwrap();

        let header = read_header(&path).unwrap();
        assert_eq!(header.kind, SegmentKind::Inds);
        assert_eq!(header.generation, 7);
        assert_eq!((header.lo, header.hi), (0, 3));
        assert_eq!(header.names, vec!["x0", "x1", "x2"]);

        let (_, body) = read_verified(&path, seg.hash).unwrap();
        assert_eq!(body, seg.body);

        // A wrong hash is rejected with the path and generation named.
        let err = read_verified(&path, seg.hash ^ 1).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("generation 7"), "{err}");
    }

    #[test]
    fn truncated_segment_reports_its_path() {
        let dir = std::env::temp_dir().join(format!("classic-seg-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.seg-dead.classic");
        std::fs::write(&path, ";!classic-segment: 1\n;!kind: inds\n").unwrap();
        let err = read_header(&path).unwrap_err().to_string();
        assert!(err.contains("kb.seg-dead.classic"), "{err}");
        assert!(err.contains(";!body:"), "{err}");
    }
}
