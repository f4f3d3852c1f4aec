//! `pub`-surface ratchet: the number of `pub` items in `classic-core` and
//! `classic-kb` may fall, never rise. rustc's `dead_code` lint cannot see
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
const LIMITS: [(&str, usize); 2] = [("crates/core/src", 174), ("crates/kb/src", 79)];

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
