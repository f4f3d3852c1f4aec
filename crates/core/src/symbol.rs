//! Interning layer for all names used by the CLASSIC engine.
//!
//! CLASSIC descriptions reference four kinds of names: role names, concept
//! names, individual names, and the atomic indices that identify primitive
//! concepts ("`car` here is just an atomic index", paper §2.1.1). All of
//! them are interned into dense `u32` ids so that descriptions, normal
//! forms and the knowledge base can cross-reference each other without
//! owning (or reference-counting) strings. The ids are newtypes so that a
//! `RoleId` can never be confused with a `ConceptName`.

use std::collections::HashMap;
use std::fmt;

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
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// [`resolve`](Interner::resolve) for an id that may come from another
    /// table: `None` rather than a panic when it is out of range.
    pub(crate) fn lookup(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    /// Forget every name interned after the first `len`, returning them.
    pub(crate) fn truncate(&mut self, len: usize) -> Vec<String> {
        let forgotten = self.names.split_off(len.min(self.names.len()));
        for name in &forgotten {
            self.by_name.remove(name);
        }
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
    pub fn new() -> Self {
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
    pub fn test(&mut self, name: &str) -> TestId {
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
    pub fn prim_key(&self, id: PrimId) -> &str {
        self.prims.resolve(id.0)
    }

    /// The test-function name for `id`.
    pub fn test_name(&self, id: TestId) -> &str {
        self.tests.resolve(id.0)
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
        self.concepts
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (ConceptName(i as u32), n.as_str()))
    }

    /// Iterate over all interned role names.
    pub fn roles(&self) -> impl Iterator<Item = (RoleId, &str)> {
        self.roles
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (RoleId(i as u32), n.as_str()))
    }

    /// Iterate over all interned individual names.
    pub fn individuals(&self) -> impl Iterator<Item = (IndName, &str)> {
        self.individuals
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (IndName(i as u32), n.as_str()))
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
    fn from_index_round_trips() {
        let mut t = SymbolTable::new();
        let a = t.individual("Rocky");
        assert_eq!(IndName::from_index(a.index()), a);
    }
}
