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
//! Cloning either copies a spine of pointers and no entry: the last,
//! partial chunk is shared like every full one. Writing to a version
//! whose chunks are shared — appending included — copies the one chunk
//! written to and leaves every other chunk shared with the versions
//! cloned before; a chunk nobody else holds is written in place, so a
//! table that was never cloned, or whose clones are gone, pays a
//! reference-count check per write.
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
/// Every chunk, the last and partial one too, sits behind an `Arc` and
/// holds at least one entry; all but the last are full. A clone copies
/// the spine of pointers and no entry; appending writes the last chunk
/// in place unless another version shares it.
#[derive(Debug, Clone)]
pub struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T> Chunked<T> {
    const CHUNK: usize = chunk_len::<T>();

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * Self::CHUNK + last.len())
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The entry at `ix`, if the table reaches that far.
    pub fn get(&self, ix: usize) -> Option<&T> {
        self.chunks.get(ix / Self::CHUNK)?.get(ix % Self::CHUNK)
    }

    /// Every entry, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// How many of this table's chunks `other` holds too (the same
    /// allocation at the same place), and how many there are.
    #[doc(hidden)]
    pub fn sharing_with(&self, other: &Chunked<T>) -> (usize, usize) {
        let pairs = self.chunks.iter().zip(&other.chunks);
        let shared = pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        (shared, self.chunks.len())
    }

    /// Walk the chunks this table does not share with `old`, a version
    /// it was cloned from or to: at each place where the two spines hold
    /// different allocations, or only one holds a chunk, `f` gets the
    /// index of the place's first entry and the entries each version
    /// holds there (empty where it holds none). Returns how many places
    /// differ.
    ///
    /// While `old` is alive a write to a chunk it shares copies the chunk
    /// first, so the places skipped hold the same entries in both.
    pub fn diff_chunks(&self, old: &Chunked<T>, mut f: impl FnMut(usize, &[T], &[T])) -> usize {
        let places = self.chunks.len().max(old.chunks.len());
        let mut differ = 0;
        for at in 0..places {
            let (mine, theirs) = (self.chunks.get(at), old.chunks.get(at));
            if let (Some(a), Some(b)) = (mine, theirs) {
                if Arc::ptr_eq(a, b) {
                    continue;
                }
            }
            differ += 1;
            let mine = mine.map_or(&[][..], |c| c.as_slice());
            f(at * Self::CHUNK, mine, theirs.map_or(&[], |c| c.as_slice()));
        }
        differ
    }
}

impl<T: Clone> Chunked<T> {
    /// Append an entry.
    pub fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < Self::CHUNK => Arc::make_mut(last).push(value),
            _ => self.chunks.push(Arc::new(vec![value])),
        }
    }

    /// Remove and return the last entry.
    pub fn pop(&mut self) -> Option<T> {
        let value = Arc::make_mut(self.chunks.last_mut()?).pop();
        self.chunks.pop_if(|last| last.is_empty());
        value
    }

    /// Drop every entry from index `len` on. A shared last chunk is
    /// replaced by a copy of the entries kept, never of the ones dropped.
    pub fn truncate(&mut self, len: usize) {
        self.chunks.truncate(len.div_ceil(Self::CHUNK));
        let kept = self.chunks.len().saturating_sub(1) * Self::CHUNK;
        let Some(last) = self.chunks.last_mut() else {
            return;
        };
        let keep = len - kept;
        if keep < last.len() {
            match Arc::get_mut(last) {
                Some(chunk) => chunk.truncate(keep),
                None => *last = Arc::new(last[..keep].to_vec()),
            }
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
        &mut Arc::make_mut(&mut self.chunks[ix / Self::CHUNK])[ix % Self::CHUNK]
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
        // Popping goes on into the full chunk below; pushing fills it
        // again and starts the next.
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
        // Counted from the writer's side: the chunk the push started is
        // its own.
        assert_eq!(table.sharing_with(&pinned), (9, 11));
        assert!(pinned.iter().copied().eq(0..10 * CHUNK));
        // Dropping the other holder makes the write in-place again.
        drop(pinned);
        let before = Arc::as_ptr(&table.chunks[2]);
        table[2 * CHUNK] = 0;
        assert_eq!(Arc::as_ptr(&table.chunks[2]), before);
    }

    #[test]
    fn a_diff_visits_the_chunks_written_since_the_clone_and_only_those() {
        let mut table: Chunked<usize> = Chunked::default();
        for i in 0..4 * CHUNK {
            table.push(i);
        }
        let old = table.clone();
        // The places visited, as (first index, entries here, entries
        // there), and how many the walk said differ.
        let diff = |new: &Chunked<usize>, old: &Chunked<usize>| {
            let mut seen = Vec::new();
            let differ = new.diff_chunks(old, |at, mine, theirs| {
                seen.push((at, mine.len(), theirs.len()));
            });
            assert_eq!(differ, seen.len());
            seen
        };
        assert_eq!(diff(&table, &old), []);
        table[CHUNK + 1] = 0;
        table.push(0);
        assert_eq!(
            diff(&table, &old),
            [(CHUNK, CHUNK, CHUNK), (4 * CHUNK, 1, 0)]
        );
        // Seen from the other side, a chunk only the newer version holds
        // has no entries in the older one.
        assert_eq!(
            diff(&old, &table),
            [(CHUNK, CHUNK, CHUNK), (4 * CHUNK, 0, 1)]
        );
    }

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// An entry that counts, per thread, how often it is cloned.
    #[derive(Debug, PartialEq)]
    struct Counted(usize);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|n| n.set(n.get() + 1));
            Counted(self.0)
        }
    }

    /// Entries per chunk of a table of [`Counted`].
    const COUNTED: usize = chunk_len::<Counted>();

    fn counted(len: usize) -> Chunked<Counted> {
        let mut table = Chunked::default();
        (0..len).for_each(|i| table.push(Counted(i)));
        table
    }

    /// Clones of entries made since the last call, on this thread.
    fn clones() -> usize {
        CLONES.with(|n| n.replace(0))
    }

    #[test]
    fn a_clone_copies_no_entry_not_even_of_a_partial_chunk() {
        let table = counted(3 * COUNTED + 5);
        clones();
        let pinned = table.clone();
        assert_eq!(clones(), 0);
        assert_eq!(table.sharing_with(&pinned), (4, 4));
        // The first append after the cut copies the shared partial chunk
        // once; the next ones write that copy in place.
        let mut table = table;
        table.push(Counted(0));
        assert_eq!(clones(), 5);
        table.push(Counted(0));
        assert_eq!((clones(), table.sharing_with(&pinned)), (0, (3, 4)));
    }

    #[test]
    fn popping_through_a_shared_chunk_leaves_the_clone_whole() {
        // The rollback of a refused `create-ind` while a snapshot is
        // pinned: the arena pops what the write appended.
        let mut table = counted(2 * COUNTED + 5);
        let pinned = table.clone();
        assert_eq!(table.pop(), Some(Counted(2 * COUNTED + 4)));
        table.truncate(2 * COUNTED + 2);
        assert_eq!(table.len(), 2 * COUNTED + 2);
        assert!(table.iter().map(|c| c.0).eq(0..2 * COUNTED + 2));
        // Into the full chunk below, which the clone shares too: only the
        // entries kept are copied.
        table.truncate(COUNTED + 3);
        clones();
        table.truncate(COUNTED + 1);
        assert_eq!(clones(), 0, "the copy was made by the truncate before");
        let mut shared = counted(2 * COUNTED);
        let _pin = shared.clone();
        clones();
        shared.truncate(COUNTED + 2);
        assert_eq!(clones(), 2);
        assert!(shared.iter().map(|c| c.0).eq(0..COUNTED + 2));
        assert!(table.iter().map(|c| c.0).eq(0..COUNTED + 1));
        assert_eq!(pinned.len(), 2 * COUNTED + 5);
        assert!(pinned.iter().map(|c| c.0).eq(0..2 * COUNTED + 5));
    }

    #[test]
    fn popping_into_an_unshared_full_chunk_moves_its_entries() {
        let mut table = counted(2 * COUNTED + 1);
        clones();
        assert_eq!(table.pop(), Some(Counted(2 * COUNTED)));
        assert_eq!(table.pop(), Some(Counted(2 * COUNTED - 1)));
        table.truncate(COUNTED - 1);
        table.push(Counted(7));
        assert_eq!(clones(), 0);
        assert!(table.iter().map(|c| c.0).eq((0..COUNTED - 1).chain([7])));
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
