//! Interning layer for all names used by the CLASSIC engine.
//!
//! CLASSIC descriptions reference four kinds of names: role names, concept
//! names, individual names, and the atomic indices that identify primitive
//! concepts ("`car` here is just an atomic index", paper §2.1.1). All of
//! them are interned into dense `u32` ids so that descriptions, normal
//! forms and the knowledge base can cross-reference each other without
//! owning (or reference-counting) strings. The ids are newtypes so that a
//! `RoleId` can never be confused with a `ConceptName`.

use crate::chunked::Chunked;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Raw index, usable as a dense array key.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Rebuild an id from a raw index (e.g. when deserializing).
            /// The caller is responsible for the index being valid for the
            /// `SymbolTable` it will be used with.
            #[inline]
            pub fn from_index(ix: usize) -> Self {
                $name(ix as u32)
            }
        }
    };
}

define_id! {
    /// An interned role (binary relationship) name, e.g. `thing-driven`.
    RoleId
}
define_id! {
    /// An interned named-concept identifier, e.g. `RICH-KID`.
    ///
    /// This names an entry in the schema; it is distinct from the taxonomy
    /// node the concept classifies into.
    ConceptName
}
define_id! {
    /// An interned CLASSIC individual name, e.g. `Rocky`.
    IndName
}
define_id! {
    /// The identity of a primitive concept atom.
    ///
    /// "Primitive concepts with the same parent but with different indices
    /// are distinct" (§2.1.1): the atom is keyed by its index symbol (and,
    /// for disjoint primitives, its grouping).
    PrimId
}
define_id! {
    /// The identity of a `TEST` concept's registered host-language function.
    TestId
}

impl fmt::Display for RoleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "role#{}", self.0)
    }
}

/// One namespace of interned strings.
///
/// Both sides are [`Chunked`] tables, so a clone shares every name with
/// the table it was cloned from and interning one more copies the chunks
/// it lands in: the individual namespace grows with the database, and a
/// snapshot of the database must not copy it.
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    names: Chunked<Arc<str>>,
    /// Name → id, open-addressed with linear probing: a power-of-two
    /// table, at most half full, holding `id + 1` (0 = free). Only the
    /// newest names are ever forgotten ([`Interner::truncate`]), newest
    /// first, and a key placed last lies on no other key's probe path —
    /// so forgetting clears one slot and needs no tombstone.
    slots: Chunked<u32>,
    hasher: RandomState,
}

impl Interner {
    /// Where `name` is, or the free slot it would take. The table must
    /// not be empty.
    fn probe(&self, name: &str) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[at].checked_sub(1) {
                None => return (at, None),
                Some(id) if &*self.names[id as usize] == name => return (at, Some(id)),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if 2 * (self.names.len() + 1) > self.slots.len() {
            self.grow();
        }
        let (at, found) = self.probe(name);
        if let Some(id) = found {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.into());
        self.slots[at] = id + 1;
        id
    }

    /// Double the slot table and place every id again, oldest first (the
    /// order [`Interner::truncate`] relies on).
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(64);
        self.slots = Chunked::default();
        *self.slots.slot(size - 1) = 0;
        for id in 0..self.names.len() as u32 {
            let (at, _) = self.probe(&self.names[id as usize]);
            self.slots[at] = id + 1;
        }
    }

    fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name).1
    }

    fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// [`resolve`](Interner::resolve) for an id that may come from another
    /// table: `None` rather than a panic when it is out of range.
    pub(crate) fn lookup(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|name| &**name)
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0u32..).zip(self.names.iter().map(|name| &**name))
    }

    /// Forget every name interned after the first `len`, returning them.
    pub(crate) fn truncate(&mut self, len: usize) -> Vec<String> {
        let mut forgotten = Vec::new();
        while self.names.len() > len {
            let (at, _) = self.probe(&self.names[self.names.len() - 1]);
            self.slots[at] = 0;
            let name = self.names.pop().expect("longer than len");
            forgotten.push(String::from(&*name));
        }
        forgotten.reverse();
        forgotten
    }
}

/// The symbol table holding every interned name, one namespace per id kind.
///
/// Role, concept, and individual names live in separate namespaces, mirroring
/// the paper's orthographic convention (§2.1.1 footnote 1): `CONCEPTS` in
/// upper case, `roles` in lower case, `Individuals` in mixed case — the same
/// spelling may denote a role and a concept without collision.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    pub(crate) roles: Interner,
    pub(crate) concepts: Interner,
    pub(crate) individuals: Interner,
    pub(crate) prims: Interner,
    pub(crate) tests: Interner,
}

impl SymbolTable {
    /// An empty symbol table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Intern a role name.
    pub fn role(&mut self, name: &str) -> RoleId {
        RoleId(self.roles.intern(name))
    }

    /// Intern a concept name.
    pub fn concept(&mut self, name: &str) -> ConceptName {
        ConceptName(self.concepts.intern(name))
    }

    /// Intern an individual name.
    pub fn individual(&mut self, name: &str) -> IndName {
        IndName(self.individuals.intern(name))
    }

    /// Intern a primitive-atom key.
    pub(crate) fn prim(&mut self, key: &str) -> PrimId {
        PrimId(self.prims.intern(key))
    }

    /// Intern a test-function name.
    pub(crate) fn test(&mut self, name: &str) -> TestId {
        TestId(self.tests.intern(name))
    }

    /// Look up a role without interning it.
    pub fn find_role(&self, name: &str) -> Option<RoleId> {
        self.roles.get(name).map(RoleId)
    }

    /// Look up a concept name without interning it.
    pub fn find_concept(&self, name: &str) -> Option<ConceptName> {
        self.concepts.get(name).map(ConceptName)
    }

    /// Look up an individual name without interning it.
    pub fn find_individual(&self, name: &str) -> Option<IndName> {
        self.individuals.get(name).map(IndName)
    }

    /// Look up a primitive-atom key without interning it.
    pub(crate) fn find_prim(&self, key: &str) -> Option<PrimId> {
        self.prims.get(key).map(PrimId)
    }

    /// Look up a test name without interning it.
    pub fn find_test(&self, name: &str) -> Option<TestId> {
        self.tests.get(name).map(TestId)
    }

    /// The role name for `id`.
    pub fn role_name(&self, id: RoleId) -> &str {
        self.roles.resolve(id.0)
    }

    /// The concept name for `id`.
    pub fn concept_name(&self, id: ConceptName) -> &str {
        self.concepts.resolve(id.0)
    }

    /// The individual name for `id`.
    pub fn individual_name(&self, id: IndName) -> &str {
        self.individuals.resolve(id.0)
    }

    /// The primitive-atom key for `id`.
    pub(crate) fn prim_key(&self, id: PrimId) -> &str {
        self.prims.resolve(id.0)
    }

    /// The test-function name for `id`.
    pub fn test_name(&self, id: TestId) -> &str {
        self.tests.resolve(id.0)
    }

    /// How many chunks of the five namespaces `other` shares (same
    /// allocation), and how many there are: the probe behind
    /// `Kb::sharing_with`.
    pub(crate) fn sharing_with(&self, other: &SymbolTable) -> (usize, usize) {
        let pairs = [
            (&self.roles, &other.roles),
            (&self.concepts, &other.concepts),
            (&self.individuals, &other.individuals),
            (&self.prims, &other.prims),
            (&self.tests, &other.tests),
        ];
        let parts = pairs.into_iter().flat_map(|(mine, theirs)| {
            [
                mine.names.sharing_with(&theirs.names),
                mine.slots.sharing_with(&theirs.slots),
            ]
        });
        parts.fold((0, 0), |(s, t), (shared, total)| (s + shared, t + total))
    }

    /// Number of interned role names.
    pub fn role_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of interned concept names.
    pub fn concept_count(&self) -> usize {
        self.concepts.len()
    }

    /// Iterate over all interned concept names.
    pub fn concepts(&self) -> impl Iterator<Item = (ConceptName, &str)> {
        self.concepts.iter().map(|(i, n)| (ConceptName(i), n))
    }

    /// Iterate over all interned role names.
    pub fn roles(&self) -> impl Iterator<Item = (RoleId, &str)> {
        self.roles.iter().map(|(i, n)| (RoleId(i), n))
    }

    /// Iterate over all interned individual names.
    pub fn individuals(&self) -> impl Iterator<Item = (IndName, &str)> {
        self.individuals.iter().map(|(i, n)| (IndName(i), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.role("thing-driven");
        let b = t.role("thing-driven");
        assert_eq!(a, b);
        assert_eq!(t.role_name(a), "thing-driven");
    }

    #[test]
    fn namespaces_are_separate() {
        let mut t = SymbolTable::new();
        let r = t.role("crime");
        let c = t.concept("crime");
        // Same spelling, distinct namespaces: both get index 0 but the
        // newtypes keep them apart and lookups stay independent.
        assert_eq!(r.index(), 0);
        assert_eq!(c.index(), 0);
        assert_eq!(t.find_role("crime"), Some(r));
        assert_eq!(t.find_concept("crime"), Some(c));
        assert_eq!(t.find_individual("crime"), None);
    }

    #[test]
    fn find_does_not_intern() {
        let t = SymbolTable::new();
        assert_eq!(t.find_role("nope"), None);
        assert_eq!(t.role_count(), 0);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut t = SymbolTable::new();
        let a = t.concept("A");
        let b = t.concept("B");
        let c = t.concept("C");
        assert!(a < b && b < c);
        assert_eq!(c.index(), 2);
        let names: Vec<_> = t.concepts().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn a_cloned_table_shares_names_and_neither_side_sees_the_other_grow() {
        let mut t = SymbolTable::new();
        let name = |i: usize| format!("ind-{i}");
        for i in 0..1_000 {
            assert_eq!(t.individual(&name(i)).index(), i);
        }
        let pinned = t.clone();
        let (shared, total) = t.sharing_with(&pinned);
        assert!(total >= 5 && shared == total, "{shared}/{total}");
        // Growth on one side (through two doublings of the slot table)
        // is invisible on the other; ids stay dense on both.
        for i in 1_000..5_000 {
            assert_eq!(t.individual(&name(i)).index(), i);
        }
        assert_eq!(pinned.find_individual(&name(1_000)), None);
        assert_eq!(pinned.individuals().count(), 1_000);
        for i in (0..5_000).step_by(7) {
            assert_eq!(t.find_individual(&name(i)).map(IndName::index), Some(i));
            assert_eq!(t.individual_name(IndName::from_index(i)), name(i));
        }
        // Forgetting the newest names frees exactly them.
        assert_eq!(
            t.individuals.truncate(4_998),
            vec![name(4_998), name(4_999)]
        );
        assert_eq!(t.find_individual(&name(4_999)), None);
        assert_eq!(
            t.find_individual(&name(4_997)).map(IndName::index),
            Some(4_997)
        );
        assert_eq!(t.individual(&name(4_999)).index(), 4_998);
    }

    #[test]
    fn from_index_round_trips() {
        let mut t = SymbolTable::new();
        let a = t.individual("Rocky");
        assert_eq!(IndName::from_index(a.index()), a);
    }
}
