//! Sorted, deduplicated sequence sets and maps.
//!
//! A normal form is "a few sets of atoms compared by inclusion": a
//! concept's primitives and tests, an enumeration's members, a role's
//! known fillers, the restrictions keyed by role. Such sets hold a handful
//! of elements each, and an individual carries several of them, so the
//! B-tree node a `BTreeSet` allocates for even one element (a leaf of
//! eleven slots) is most of what an individual costs. A sorted sequence
//! holds the same set exactly. It is stored as a boxed slice, a `Vec`
//! without its capacity word: exactly as many slots as elements, since a
//! set is read far more often than it grows.
//!
//! Iteration is in ascending key order, as with the B-tree collections, so
//! `Eq`, `Ord` and `Hash` agree with set equality and every rendering that
//! walks a set is unchanged. `Hash` and `Debug` write what `BTreeSet` and
//! `BTreeMap` write. A single [`VecSet::insert`] shifts the tail, O(k) in
//! a k-element set; bulk builds go through [`FromIterator`] and [`Extend`],
//! which sort and deduplicate once, O(k log k).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// Run `f` on the elements as a `Vec`, then store them back exactly
/// sized (`into_boxed_slice` reallocates only if `f` left spare slots).
fn edit<T, R>(slot: &mut Box<[T]>, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    let mut v = std::mem::take(slot).into_vec();
    let r = f(&mut v);
    *slot = v.into_boxed_slice();
    r
}

/// Insert `x` at `at`, growing by exactly one slot.
fn insert_at<T>(slot: &mut Box<[T]>, at: usize, x: T) {
    edit(slot, |v| {
        v.reserve_exact(1);
        v.insert(at, x);
    });
}

/// A set kept as a sorted, deduplicated sequence.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct VecSet<T>(Box<[T]>);

impl<T> Default for VecSet<T> {
    fn default() -> Self {
        VecSet(Box::default())
    }
}

impl<T> VecSet<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Has the set no elements?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The elements, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.0 = Box::default();
    }
}

impl<T: Ord> VecSet<T> {
    /// Is `x` an element?
    pub fn contains(&self, x: &T) -> bool {
        self.0.binary_search(x).is_ok()
    }

    /// Add `x`; false if it was already present (the set is unchanged).
    pub fn insert(&mut self, x: T) -> bool {
        match self.0.binary_search(&x) {
            Ok(_) => false,
            Err(at) => {
                insert_at(&mut self.0, at, x);
                true
            }
        }
    }

    /// Keep only the elements `keep` accepts.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        edit(&mut self.0, |v| v.retain(keep));
    }

    /// Is every element of `self` in `other`? One merge walk, O(|self| +
    /// |other|).
    pub fn is_subset(&self, other: &VecSet<T>) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut theirs = other.0.iter();
        'mine: for x in self.0.iter() {
            for y in theirs.by_ref() {
                match y.cmp(x) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'mine,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Keep only the elements also in `other` (set intersection), by one
    /// merge walk.
    pub(crate) fn intersect_with(&mut self, other: &VecSet<T>) {
        let mut theirs = other.0.iter().peekable();
        self.retain(|x| {
            while theirs.next_if(|y| *y < x).is_some() {}
            theirs.peek().is_some_and(|y| *y == x)
        });
    }
}

impl<T: Ord + Clone> VecSet<T> {
    /// Add every element of `other` (set union), by one merge.
    pub(crate) fn union_with(&mut self, other: &VecSet<T>) {
        if other.is_subset(self) {
            return;
        }
        let mine = std::mem::take(&mut self.0).into_vec();
        let mut out = Vec::with_capacity(mine.len() + other.len());
        let mut theirs = other.0.iter().peekable();
        for x in mine {
            while let Some(y) = theirs.next_if(|y| **y < x) {
                out.push(y.clone());
            }
            theirs.next_if(|y| **y == x);
            out.push(x);
        }
        out.extend(theirs.cloned());
        self.0 = out.into_boxed_slice();
    }
}

impl<T: Ord> FromIterator<T> for VecSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = VecSet::default();
        set.extend(iter);
        set
    }
}

impl<T: Ord> Extend<T> for VecSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        edit(&mut self.0, |v| {
            let before = v.len();
            v.extend(iter);
            if v.len() > before {
                // Stable: of two equal elements the one already present
                // comes first and is the one kept, as `BTreeSet::extend`
                // keeps it.
                v.sort();
                v.dedup();
            }
        });
    }
}

impl<'a, T> IntoIterator for &'a VecSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Hashes as `BTreeSet` does: the length, then each element in order.
impl<T: Hash> Hash for VecSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for x in self.0.iter() {
            x.hash(state);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for VecSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

/// A map kept as a sequence of entries sorted by key, one entry per key.
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V>(Box<[(K, V)]>);

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap(Box::default())
    }
}

/// Borrowed `(key, value)` view of an entry, the item `BTreeMap` yields.
type EntryRef<'a, K, V> = fn(&'a (K, V)) -> (&'a K, &'a V);

impl<K, V> VecMap<K, V> {
    /// Has the map no entries?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entries, ascending by key.
    pub fn iter(&self) -> std::iter::Map<std::slice::Iter<'_, (K, V)>, EntryRef<'_, K, V>> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// The keys, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.0.iter().map(|(k, _)| k)
    }

    /// The values, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.0.iter().map(|(_, v)| v)
    }

    /// The values, mutably, in key order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.0.iter_mut().map(|(_, v)| v)
    }

    /// Remove every entry.
    pub(crate) fn clear(&mut self) {
        self.0 = Box::default();
    }

    /// Keep only the entries `keep` accepts; it may edit the values.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        edit(&mut self.0, |v| v.retain_mut(|(k, v)| keep(k, v)));
    }
}

impl<K: Ord, V> VecMap<K, V> {
    fn find(&self, k: &K) -> Result<usize, usize> {
        self.0.binary_search_by(|(key, _)| key.cmp(k))
    }

    /// The value at `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|at| &self.0[at].1)
    }

    /// The value at `k`, mutably.
    pub(crate) fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|at| &mut self.0[at].1)
    }

    /// Set the value at `k`, returning the one it replaces.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, v)),
            Err(at) => {
                insert_at(&mut self.0, at, (k, v));
                None
            }
        }
    }

    /// The value at `k`, inserting `V::default()` first if there is none
    /// (`BTreeMap`'s `entry(k).or_default()`).
    pub(crate) fn entry_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        let at = match self.find(&k) {
            Ok(at) => at,
            Err(at) => {
                insert_at(&mut self.0, at, (k, V::default()));
                at
            }
        };
        &mut self.0[at].1
    }
}

impl<K: Ord, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    /// The value at `k`; panics if there is none, as `BTreeMap` does.
    fn index(&self, k: &K) -> &V {
        self.get(k).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = VecMap::default();
        map.extend(iter);
        map
    }
}

impl<K: Ord, V> Extend<(K, V)> for VecMap<K, V> {
    /// As `BTreeMap::extend`: a repeated key keeps its first key and its
    /// last value.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        edit(&mut self.0, |v| {
            let before = v.len();
            v.extend(iter);
            if v.len() > before {
                v.sort_by(|a, b| a.0.cmp(&b.0));
                // `later` is dropped; the earlier entry takes its value.
                v.dedup_by(|later, earlier| {
                    let same = later.0 == earlier.0;
                    if same {
                        std::mem::swap(&mut later.1, &mut earlier.1);
                    }
                    same
                });
            }
        });
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, EntryRef<'a, K, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Hashes as `BTreeMap` does: the length, then each `(key, value)` in
/// key order.
impl<K: Hash, V: Hash> Hash for VecMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for (k, v) in self.0.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
#[path = "vec_set_tests.rs"]
mod tests;
