//! `VecSet` and `VecMap` against `BTreeSet` and `BTreeMap`: random
//! operation sequences must agree element for element, and equal
//! contents must compare, order and hash alike whatever order built them.

use super::*;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};

/// Small values, so sequences repeat elements and keys often.
fn values() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..24, 0..12)
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// One set operation, with its operand.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(u32),
    Remove(u32),
    RetainBelow(u32),
    Union(Vec<u32>),
    Intersect(Vec<u32>),
    Extend(Vec<u32>),
    Clear,
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        4 => (0u32..24).prop_map(SetOp::Insert),
        2 => (0u32..24).prop_map(SetOp::Remove),
        1 => (0u32..24).prop_map(SetOp::RetainBelow),
        2 => values().prop_map(SetOp::Union),
        2 => values().prop_map(SetOp::Intersect),
        2 => values().prop_map(SetOp::Extend),
        1 => Just(SetOp::Clear),
    ]
}

/// One map operation, with its operands.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u32, u32),
    Remove(u32),
    AddToEntry(u32, u32),
    EditValues(u32),
    RetainEvenValues,
    Extend(Vec<(u32, u32)>),
    Clear,
}

fn entries() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..16, 0u32..100), 0..10)
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        4 => (0u32..16, 0u32..100).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => (0u32..16).prop_map(MapOp::Remove),
        2 => (0u32..16, 0u32..100).prop_map(|(k, v)| MapOp::AddToEntry(k, v)),
        1 => (0u32..16).prop_map(MapOp::EditValues),
        1 => Just(MapOp::RetainEvenValues),
        2 => entries().prop_map(MapOp::Extend),
        1 => Just(MapOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn set_operations_agree_with_btreeset(
        start in values(),
        ops in proptest::collection::vec(set_op(), 0..24),
        probe in values(),
    ) {
        let mut mine: VecSet<u32> = start.iter().copied().collect();
        let mut model: BTreeSet<u32> = start.iter().copied().collect();
        for op in ops {
            match op {
                SetOp::Insert(x) => prop_assert_eq!(mine.insert(x), model.insert(x)),
                SetOp::Remove(x) => {
                    // Nothing outside the tests removes one element, so
                    // the type has no `remove`: `retain` is the way.
                    mine.retain(|&y| y != x);
                    model.remove(&x);
                }
                SetOp::RetainBelow(x) => {
                    mine.retain(|&y| y < x);
                    model.retain(|&y| y < x);
                }
                SetOp::Union(other) => {
                    mine.union_with(&other.iter().copied().collect());
                    model.extend(other);
                }
                SetOp::Intersect(other) => {
                    mine.intersect_with(&other.iter().copied().collect());
                    let other: BTreeSet<u32> = other.into_iter().collect();
                    model = model.intersection(&other).copied().collect();
                }
                SetOp::Extend(other) => {
                    mine.extend(other.iter().copied());
                    model.extend(other);
                }
                SetOp::Clear => {
                    mine.clear();
                    model.clear();
                }
            }
            prop_assert!(mine.iter().eq(model.iter()));
            prop_assert_eq!(mine.len(), model.len());
            prop_assert_eq!(mine.is_empty(), model.is_empty());
        }
        for x in 0..24 {
            prop_assert_eq!(mine.contains(&x), model.contains(&x));
        }
        let probe_set: VecSet<u32> = probe.iter().copied().collect();
        let probe_model: BTreeSet<u32> = probe.into_iter().collect();
        prop_assert_eq!(mine.is_subset(&probe_set), model.is_subset(&probe_model));
        prop_assert_eq!(probe_set.is_subset(&mine), probe_model.is_subset(&model));
        prop_assert_eq!(mine.cmp(&probe_set), model.cmp(&probe_model));
        prop_assert_eq!(hash_of(&mine), hash_of(&model));
        prop_assert_eq!(format!("{mine:?}"), format!("{model:?}"));
    }

    #[test]
    fn equal_sets_are_equal_however_built(elements in values(), rotate in 0usize..12) {
        let forward: VecSet<u32> = elements.iter().copied().collect();
        let mut reordered = elements.clone();
        reordered.reverse();
        let by = rotate.min(reordered.len());
        reordered.rotate_left(by);
        let mut built = VecSet::default();
        for &x in &reordered {
            built.insert(x);
        }
        let extended = {
            let mut s = VecSet::default();
            s.extend(reordered.iter().copied());
            s
        };
        for other in [&built, &extended] {
            prop_assert!(forward == *other);
            prop_assert_eq!(forward.cmp(other), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(&forward), hash_of(other));
        }
    }

    #[test]
    fn map_operations_agree_with_btreemap(
        start in entries(),
        ops in proptest::collection::vec(map_op(), 0..24),
    ) {
        let mut mine: VecMap<u32, u32> = start.iter().copied().collect();
        let mut model: BTreeMap<u32, u32> = start.into_iter().collect();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => prop_assert_eq!(mine.insert(k, v), model.insert(k, v)),
                MapOp::Remove(k) => {
                    mine.retain(|&j, _| j != k);
                    model.remove(&k);
                }
                MapOp::AddToEntry(k, v) => {
                    *mine.entry_or_default(k) += v;
                    *model.entry(k).or_default() += v;
                }
                MapOp::EditValues(k) => {
                    if let (Some(a), Some(b)) = (mine.get_mut(&k), model.get_mut(&k)) {
                        *a += 1;
                        *b += 1;
                    }
                    mine.values_mut().for_each(|v| *v %= 97);
                    model.values_mut().for_each(|v| *v %= 97);
                }
                MapOp::RetainEvenValues => {
                    mine.retain(|_, v| {
                        *v += 2;
                        *v % 2 == 0
                    });
                    model.retain(|_, v| {
                        *v += 2;
                        *v % 2 == 0
                    });
                }
                MapOp::Extend(more) => {
                    mine.extend(more.iter().copied());
                    model.extend(more);
                }
                MapOp::Clear => {
                    mine.clear();
                    model.clear();
                }
            }
            prop_assert!(mine.iter().eq(model.iter()));
            prop_assert!(mine.keys().eq(model.keys()));
            prop_assert!(mine.values().eq(model.values()));
            prop_assert_eq!(mine.is_empty(), model.is_empty());
        }
        for k in 0..16 {
            prop_assert_eq!(mine.get(&k), model.get(&k));
        }
        prop_assert_eq!(hash_of(&mine), hash_of(&model));
        prop_assert_eq!(format!("{mine:?}"), format!("{model:?}"));
    }

    #[test]
    fn equal_maps_are_equal_however_built(pairs in entries(), rotate in 0usize..10) {
        // Distinct keys, so every order holds the same entries.
        let distinct: BTreeMap<u32, u32> = pairs.into_iter().collect();
        let forward: VecMap<u32, u32> = distinct.iter().map(|(&k, &v)| (k, v)).collect();
        let mut reordered: Vec<(u32, u32)> = distinct.into_iter().rev().collect();
        let by = rotate.min(reordered.len());
        reordered.rotate_left(by);
        let mut built = VecMap::default();
        for &(k, v) in &reordered {
            built.insert(k, v);
        }
        let collected: VecMap<u32, u32> = reordered.into_iter().collect();
        for other in [&built, &collected] {
            prop_assert!(forward == *other);
            prop_assert_eq!(hash_of(&forward), hash_of(other));
        }
    }
}

#[test]
fn set_builds_sorted_and_deduplicated() {
    let s: VecSet<u32> = [5, 1, 5, 3, 1].into_iter().collect();
    assert_eq!(s.as_slice(), &[1, 3, 5]);
}

#[test]
fn map_keeps_first_key_and_last_value() {
    let m: VecMap<u32, char> = [(2, 'a'), (1, 'b'), (2, 'c')].into_iter().collect();
    assert_eq!(m.get(&2), Some(&'c'));
    assert_eq!(m[&1], 'b');
}
