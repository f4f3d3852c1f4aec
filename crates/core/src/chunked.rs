//! Copy-on-write containers whose versions share structure.
//!
//! A knowledge base is cloned far more often than it is rebuilt: every
//! read snapshot, sandbox, trial and staged bulk load starts from
//! `Kb::clone`. Everything in it that grows with the number of
//! individuals therefore lives in one of the two containers here, both
//! built from `Arc`'d chunks of at most 8 KiB of entries:
//!
//! * [`Chunked<T>`] — a table keyed by a dense index (an arena, or a map
//!   from an interned id);
//! * [`ChunkedSet<T>`] — a sorted set of small `Copy` keys.
//!
//! Cloning either copies a spine of pointers and no sealed entry.
//! Writing to a version whose chunks are shared copies the one chunk
//! written to and leaves every other chunk shared with the versions
//! cloned before; a chunk nobody else holds is written in place, so a
//! table that was never cloned pays a reference-count check per write.
//!
//! Entries sit in their chunk by value, not behind a pointer each: a
//! scan in index order — retrieval testing its candidates, a reply
//! naming its answers — reads memory in order, as it would a `Vec`.
//! That is why the chunk is sized in bytes: what a write copies is
//! bounded whatever the entry, and a chunk of large entries (the
//! individuals, thirty-two to a chunk) is still a few of them side by side.

use std::collections::HashSet;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// What a chunk holds at most, in bytes of entries.
const CHUNK_BYTES: usize = 8192;

/// Entries per chunk of `T`: the largest power of two that fits
/// [`CHUNK_BYTES`], between 4 and 512 — so it divides the store's
/// 512-individual segment, and a segment of the roster is a whole number
/// of chunks of every table.
const fn chunk_len<T>() -> usize {
    let mut len = 512;
    while len > 4 && len * std::mem::size_of::<T>() > CHUNK_BYTES {
        len /= 2;
    }
    len
}

/// A growable table keyed by a dense index; see the module docs.
///
/// Full chunks are sealed behind `Arc`s; the last, partial one is owned
/// outright, so appending costs what `Vec::push` does and a clone copies
/// less than a chunk of entries besides the spine.
#[derive(Debug, Clone)]
pub struct Chunked<T> {
    sealed: Vec<Arc<[T]>>,
    tail: Vec<T>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> Chunked<T> {
    const CHUNK: usize = chunk_len::<T>();

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sealed.len() * Self::CHUNK + self.tail.len()
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The entry at `ix`, if the table reaches that far.
    pub fn get(&self, ix: usize) -> Option<&T> {
        match self.sealed.get(ix / Self::CHUNK) {
            Some(chunk) => Some(&chunk[ix % Self::CHUNK]),
            None => self.tail.get(ix - self.sealed.len() * Self::CHUNK),
        }
    }

    /// Every entry, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.sealed
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(&self.tail)
    }

    /// How many of this table's sealed chunks `other` holds too (the
    /// same allocation at the same place), and how many there are.
    #[doc(hidden)]
    pub fn sharing_with(&self, other: &Chunked<T>) -> (usize, usize) {
        let pairs = self.sealed.iter().zip(&other.sealed);
        let shared = pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        (shared, self.sealed.len())
    }
}

impl<T: Clone> Chunked<T> {
    /// Append an entry.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == Self::CHUNK {
            self.sealed.push(self.tail.drain(..).collect());
        }
    }

    /// Remove and return the last entry.
    pub fn pop(&mut self) -> Option<T> {
        if self.tail.is_empty() {
            let chunk = self.sealed.pop()?;
            self.tail.extend(chunk.iter().cloned());
        }
        self.tail.pop()
    }

    /// Drop every entry from index `len` on.
    pub fn truncate(&mut self, len: usize) {
        while self.len() > len {
            self.pop();
        }
    }

    /// The entry at `ix` for writing, the table first grown with default
    /// entries until it reaches that far.
    pub fn slot(&mut self, ix: usize) -> &mut T
    where
        T: Default,
    {
        while self.len() <= ix {
            self.push(T::default());
        }
        &mut self[ix]
    }
}

impl<T> Index<usize> for Chunked<T> {
    type Output = T;

    fn index(&self, ix: usize) -> &T {
        self.get(ix).expect("index within the chunked table")
    }
}

impl<T: Clone> IndexMut<usize> for Chunked<T> {
    /// The write side of copy-on-write: a chunk another version shares is
    /// copied first.
    fn index_mut(&mut self, ix: usize) -> &mut T {
        let sealed = self.sealed.len() * Self::CHUNK;
        if ix < sealed {
            &mut Arc::make_mut(&mut self.sealed[ix / Self::CHUNK])[ix % Self::CHUNK]
        } else {
            &mut self.tail[ix - sealed]
        }
    }
}

/// A sorted set of small keys held as `Arc`'d sorted runs of at most a
/// chunk of keys; see the module docs. Runs are never empty.
#[derive(Debug, Clone)]
pub struct ChunkedSet<T> {
    runs: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for ChunkedSet<T> {
    fn default() -> Self {
        ChunkedSet {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy + Ord> ChunkedSet<T> {
    const CHUNK: usize = chunk_len::<T>();

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every key, ascending (or descending, from the back).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = T> + '_ {
        self.runs.iter().flat_map(|run| run.iter().copied())
    }

    /// Every key not below `from`, ascending: a range scan starts here and
    /// stops where it likes, in a binary search and the keys it reads.
    pub fn iter_from(&self, from: T) -> impl Iterator<Item = T> + '_ {
        let (first, rest): (&[T], _) = match &self.runs[self.run_of(from)..] {
            [first, rest @ ..] => (&first[first.partition_point(|&k| k < from)..], rest),
            [] => (&[], &[]),
        };
        let rest = rest.iter().flat_map(|run| run.iter().copied());
        first.iter().copied().chain(rest)
    }

    /// The run that holds `key` if any does: the first whose last key is
    /// not below it.
    fn run_of(&self, key: T) -> usize {
        self.runs
            .partition_point(|run| run.last().is_some_and(|&last| last < key))
    }

    /// Is `key` in the set?
    pub fn contains(&self, key: &T) -> bool {
        self.runs
            .get(self.run_of(*key))
            .is_some_and(|run| run.binary_search(key).is_ok())
    }

    /// Add `key`; `false` if it was there already (nothing is copied).
    pub fn insert(&mut self, key: T) -> bool {
        let at = self.run_of(key);
        let Some(run) = self.runs.get_mut(at) else {
            // Above every key held — where a new individual's id lands.
            // Extend the last run or start one, so appending leaves runs
            // full rather than split in half.
            match self.runs.last_mut() {
                Some(last) if last.len() < Self::CHUNK => Arc::make_mut(last).push(key),
                _ => self.runs.push(Arc::new(vec![key])),
            }
            self.len += 1;
            return true;
        };
        let Err(pos) = run.binary_search(&key) else {
            return false;
        };
        let run = Arc::make_mut(run);
        run.insert(pos, key);
        if run.len() > Self::CHUNK {
            let upper = run.split_off(run.len() / 2);
            self.runs.insert(at + 1, Arc::new(upper));
        }
        self.len += 1;
        true
    }

    /// Remove `key`; `false` if it was not there (nothing is copied).
    pub fn remove(&mut self, key: &T) -> bool {
        let at = self.run_of(*key);
        let Some(Ok(pos)) = self.runs.get(at).map(|run| run.binary_search(key)) else {
            return false;
        };
        if self.runs[at].len() == 1 {
            self.runs.remove(at);
        } else {
            Arc::make_mut(&mut self.runs[at]).remove(pos);
        }
        self.len -= 1;
        true
    }

    /// How many of this set's runs `other` holds too (the same
    /// allocation, wherever it sits), and how many there are.
    #[doc(hidden)]
    pub fn sharing_with(&self, other: &ChunkedSet<T>) -> (usize, usize) {
        let theirs: HashSet<*const Vec<T>> = other.runs.iter().map(Arc::as_ptr).collect();
        let shared = self
            .runs
            .iter()
            .filter(|run| theirs.contains(&Arc::as_ptr(run)))
            .count();
        (shared, self.runs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Entries per chunk of the tables tested here.
    const CHUNK: usize = chunk_len::<usize>();

    #[test]
    fn a_chunk_is_a_page_of_entries_and_divides_a_segment() {
        assert_eq!(chunk_len::<u32>(), 512);
        assert_eq!(chunk_len::<usize>(), 512);
        assert_eq!(chunk_len::<[u8; 24]>(), 256);
        assert_eq!(chunk_len::<[u8; 320]>(), 16);
        assert_eq!(chunk_len::<[u8; 4096]>(), 4);
    }

    #[test]
    fn a_table_reads_back_what_was_written_across_chunk_boundaries() {
        let mut table: Chunked<usize> = Chunked::default();
        assert!(table.is_empty() && table.get(0).is_none());
        for i in 0..3 * CHUNK + 5 {
            table.push(i);
        }
        assert_eq!(table.len(), 3 * CHUNK + 5);
        assert!(table.iter().copied().eq(0..3 * CHUNK + 5));
        table[CHUNK] = 7;
        table[3 * CHUNK + 1] = 9;
        assert_eq!((table[CHUNK], table[3 * CHUNK + 1]), (7, 9));
        // Popping reopens a sealed chunk; pushing seals it again.
        table.truncate(2 * CHUNK);
        assert_eq!(table.pop(), Some(2 * CHUNK - 1));
        table.push(1);
        table.push(2);
        assert_eq!(table.len(), 2 * CHUNK + 1);
        assert_eq!((table[2 * CHUNK - 1], table[2 * CHUNK]), (1, 2));
        *table.slot(4 * CHUNK) = 3;
        assert_eq!(table.len(), 4 * CHUNK + 1);
        assert_eq!((table[4 * CHUNK - 1], table[4 * CHUNK]), (0, 3));
    }

    #[test]
    fn a_write_after_a_clone_copies_one_chunk_and_the_clone_never_moves() {
        let mut table: Chunked<usize> = Chunked::default();
        for i in 0..10 * CHUNK {
            table.push(i);
        }
        let pinned = table.clone();
        assert_eq!(table.sharing_with(&pinned), (10, 10));
        table[5 * CHUNK + 3] = 0;
        table[5 * CHUNK + 4] = 0;
        table.push(0);
        assert_eq!(table.sharing_with(&pinned), (9, 10));
        assert!(pinned.iter().copied().eq(0..10 * CHUNK));
        // Dropping the other holder makes the write in-place again.
        drop(pinned);
        let before = Arc::as_ptr(&table.sealed[2]);
        table[2 * CHUNK] = 0;
        assert_eq!(Arc::as_ptr(&table.sealed[2]), before);
    }

    #[test]
    fn a_set_agrees_with_a_btree_set_whatever_the_order() {
        // A fixed pseudo-random walk: inserts and removals in no order,
        // dense enough to split runs and to empty them.
        let mut set: ChunkedSet<u32> = ChunkedSet::default();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut x = 12345u32;
        for step in 0..60_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let key = (x >> 16) % 5_000;
            if step % 3 == 2 {
                assert_eq!(set.remove(&key), model.remove(&key));
            } else {
                assert_eq!(set.insert(key), model.insert(key));
            }
            assert_eq!(set.len(), model.len());
        }
        assert!(set.iter().eq(model.iter().copied()));
        for key in 0..5_001 {
            assert_eq!(set.contains(&key), model.contains(&key));
            let from = set.iter_from(key).take(3);
            assert!(from.eq(model.range(key..).take(3).copied()));
        }
        assert!(set.iter_from(0).eq(model.iter().copied()));
        assert!(set.iter_from(2_500).eq(model.range(2_500..).copied()));
        assert!(set.runs.len() > 6, "the walk split runs");
        assert!(set.runs.iter().all(|r| !r.is_empty() && r.len() <= CHUNK));
        for key in model {
            assert!(set.remove(&key));
        }
        assert!(set.is_empty() && set.runs.is_empty());
    }

    #[test]
    fn a_set_written_after_a_clone_copies_one_run() {
        let mut set: ChunkedSet<u32> = ChunkedSet::default();
        for i in 0..10 * CHUNK as u32 {
            set.insert(2 * i);
        }
        // Ascending inserts leave every run full.
        assert_eq!(set.runs.len(), 10);
        let pinned = set.clone();
        assert!(!set.insert(8) && !set.remove(&9));
        assert_eq!(set.sharing_with(&pinned), (10, 10));
        assert!(set.remove(&8) && set.insert(20 * CHUNK as u32));
        assert_eq!(set.sharing_with(&pinned), (9, 11));
        // A split moves half a run and copies nothing else.
        assert!(set.insert(6 * CHUNK as u32 + 1));
        assert_eq!(set.sharing_with(&pinned), (8, 12));
        assert!(pinned.iter().eq((0..10 * CHUNK as u32).map(|i| 2 * i)));
    }
}
