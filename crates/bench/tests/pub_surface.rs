//! `pub`-surface ratchet: the number of `pub` items in `classic-core`,
//! `classic-kb`, `classic-lang`, `classic-analyze`, `classic-store` and
//! `classic-server` may fall, never rise. rustc's `dead_code` lint cannot see
//! a `pub` item, so an item nothing outside its crate calls stays `pub`
//! until someone notices; this test makes adding one a visible decision.
//! When a change removes items, lower the limit below to the new count.
//!
//! An item is a line whose first token is `pub` followed by `fn`,
//! `struct`, `enum`, `mod`, `const`, `trait`, `type` or `static` (so
//! `pub(crate)` items and `pub` fields do not count), in any `.rs` file
//! under the crate's `src/`.

use std::path::{Path, PathBuf};

/// Each crate's `src/` directory, relative to the repository root, with
/// the most `pub` items it may hold. `classic-core` went 173 → 174 for
/// `ChunkedSet::iter_from`, the range scan `classic-kb`'s value postings
/// are read by.
///
/// `classic-core` went 174 → 191 when the normal form's sets became
/// sorted sequences. 15 items are the new types and the methods other
/// crates call on the `pub` fields that hold them: `VecSet` and `VecMap`;
/// `VecSet::{len, is_empty, iter, as_slice, clear, contains, insert,
/// is_subset}` and `VecMap::{is_empty, iter, values, get, insert}`, read
/// by the crates above it and their tests (the methods only
/// `classic-core` calls are `pub(crate)`). 2 are
/// `SymbolTable::{individual_count, forget_individuals}`, with which
/// `classic-kb` forgets the names a refused write interned. `classic-kb`
/// went 79 → 80 for `Kb::schema_for_write`, through which `classic-lang`
/// and `classic-store` resolve a write's names so that they go if it is
/// refused.
///
/// `classic-core` went 191 → 192 for `Taxonomy::walk_down`, the one
/// top-down walk: classification calls it with a subsumption test and
/// `classic-kb`'s recognition with `Kb::known_instance`, where each had
/// its own copy. `classic-kb` went 80 → 79 when `Kb::instances_of_node`
/// was deleted: `instances_of` and `for_each_instance` list a node's
/// instances.
///
/// `classic-core` went 192 → 193 for `Chunked::diff_chunks`, the one walk
/// over two versions' chunk spines; `classic-kb` stayed at 79 because
/// `Kb::changed_since`, which the incremental analyzer reads it through,
/// replaced `Kb::analysis_cone`. `classic-lang` entered at 57 (59 before
/// `eval_monitored` and `eval_monitored_in` were deleted: the analyzer
/// finds what a write changed by itself); `classic-analyze` at 24 (25
/// before `AnalysisState::mark_dirty` went, for the same reason); and
/// `classic-store` at 57 (58 before `DurableKb::set_auto_compact_after`
/// went: nothing outside one unit test turned auto-compaction on).
///
/// `classic-store` went 57 → 56 when `DurableKb::poll_compaction` went:
/// compaction runs on the caller's thread, so there is nothing to poll.
/// `classic-server` entered at 51, unchanged by that deletion
/// (`Tenant::quiesce`, which it also deleted, was `pub(crate)`).
const LIMITS: [(&str, usize); 6] = [
    ("crates/core/src", 193),
    ("crates/kb/src", 79),
    ("crates/lang/src", 57),
    ("crates/analyze/src", 24),
    ("crates/store/src", 56),
    ("crates/server/src", 51),
];

const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "mod", "const", "trait", "type", "static",
];

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <repo>/crates/bench
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the repo root")
        .to_path_buf()
}

/// Is `line` a `pub` item of one of the counted kinds?
fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    KINDS.iter().any(|kind| {
        rest.strip_prefix(kind)
            .is_some_and(|after| !after.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
    })
}

fn count_pub_items(dir: &Path) -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            count += count_pub_items(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file");
            count += text.lines().filter(|l| is_pub_item(l)).count();
        }
    }
    count
}

#[test]
fn pub_items_do_not_grow() {
    let root = repo_root();
    for (dir, limit) in LIMITS {
        let count = count_pub_items(&root.join(dir));
        assert!(
            count <= limit,
            "{dir} has {count} pub items, above the {limit} recorded: make the \
             new ones pub(crate) unless another crate calls them, or raise the \
             limit in this file and say why"
        );
    }
}
