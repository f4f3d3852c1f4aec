//! The schema: named concepts, roles, primitive registrations, and tests.
//!
//! "In a CLASSIC database, schema definition consists of giving names to
//! various concepts, roles and individuals that appear of interest to all
//! users, thus establishing a shorthand vocabulary" (paper §3.1). Unlike
//! traditional DBMSs, schema definition "can be interleaved with updates
//! and queries, so that we can define a new concept any time it seems
//! useful"; the schema is accessed uniformly with the data (the
//! `concept-aspect` introspection operators live in [`crate::aspect`]).

use crate::desc::Concept;
use crate::error::{ClassicError, Result};
use crate::host::HostValue;
use crate::normal::{normalize, NormalForm};
use crate::symbol::{ConceptName, PrimId, RoleId, SymbolTable, TestId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Declaration attached to a role name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleDecl {
    /// Attributes are single-valued roles (implicit `AT-MOST 1`); only
    /// attributes may appear in `SAME-AS` chains (§5).
    pub attribute: bool,
}

/// What a test function is applied to during recognition.
///
/// `TEST` concepts carry "an associated unary function in the host
/// implementation language … which must return a boolean value" (§2.1.4).
/// Our host language is Rust; the function sees either a host value or a
/// CLASSIC individual's derived description.
pub enum TestArg<'a> {
    /// A host individual (number, string, symbol).
    Host(&'a HostValue),
    /// A CLASSIC individual: its name (if any) and derived normal form.
    Ind(Option<&'a str>, &'a NormalForm),
}

/// A registered test function. `Arc`, not `Box`: schemas are cloneable
/// (server read snapshots clone whole KBs) and closures cannot be, so
/// clones share the registered functions.
pub(crate) type TestFn = Arc<dyn Fn(&TestArg<'_>) -> bool + Send + Sync>;

/// A stored named-concept definition.
#[derive(Clone)]
pub(crate) struct ConceptDef {
    /// The definition as written (`concept-aspect` reads facets off this
    /// via its normal form; the told form is kept for display/persistence).
    pub told: Concept,
    /// The unfolded, normalized meaning.
    pub nf: NormalForm,
}

/// How many primitive atoms and disjoint groupings a schema had declared
/// at one moment: what [`Schema::declare`] returns and
/// [`Schema::undeclare`] truncates back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimMark {
    prims: usize,
    groups: usize,
}

#[derive(Clone)]
struct PrimInfo {
    /// Disjointness grouping, if declared via `DISJOINT-PRIMITIVE`.
    group: Option<u32>,
    /// The parent normal form recorded at declaration; a later mention
    /// under a different parent is an error (definitions do not change
    /// meaning over time, §2.2).
    parent: NormalForm,
    /// The named concept that introduced this primitive, once known —
    /// used to render normal forms back into concise concepts.
    introduced_by: Option<ConceptName>,
}

/// The CLASSIC schema: symbol table, role declarations, named concepts,
/// primitive atoms and their disjoint groupings, and the test registry.
///
/// Everything but the symbol table sits behind one `Arc` that only DDL —
/// and the first telling of a new primitive atom — writes, so a clone
/// (a KB snapshot) copies a pointer and shares the definitions until the
/// schema changes. The symbol table grows with every `create-ind` and is
/// chunked instead.
#[derive(Clone)]
pub struct Schema {
    /// The interned names of every role, concept, individual and test.
    pub symbols: SymbolTable,
    defs: Arc<Definitions>,
}

/// What a [`Schema`] shares between its clones.
#[derive(Clone, Default)]
struct Definitions {
    roles: Vec<Option<RoleDecl>>,
    concepts: HashMap<ConceptName, ConceptDef>,
    /// Insertion order of definitions (stable iteration for the taxonomy
    /// and persistence).
    concept_order: Vec<ConceptName>,
    prims: Vec<PrimInfo>,
    groups: HashMap<String, u32>,
    tests: Vec<TestFn>,
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("roles", &self.defs.roles.len())
            .field("concepts", &self.defs.concepts.len())
            .field("prims", &self.defs.prims.len())
            .field("tests", &self.defs.tests.len())
            .finish()
    }
}

impl Default for Schema {
    fn default() -> Self {
        Self::new()
    }
}

impl Schema {
    /// An empty schema (no roles, concepts, or tests).
    pub fn new() -> Self {
        Schema {
            symbols: SymbolTable::new(),
            defs: Arc::default(),
        }
    }

    /// The definitions for writing: copied first if a clone shares them.
    fn defs_mut(&mut self) -> &mut Definitions {
        Arc::make_mut(&mut self.defs)
    }

    /// How many of this schema's symbol-table chunks `other` holds too,
    /// and whether it holds the definitions, each as `(shared, total)`:
    /// the probe behind `Kb::sharing_with`.
    #[doc(hidden)]
    pub fn sharing_with(&self, other: &Schema) -> [(usize, usize); 2] {
        let defs = usize::from(Arc::ptr_eq(&self.defs, &other.defs));
        [self.symbols.sharing_with(&other.symbols), (defs, 1)]
    }

    // ---- roles ---------------------------------------------------------

    /// `define-role[name]`: make the DB aware of a role identifier so that
    /// later typos are detectable (§3.1 footnote 3). Idempotent.
    pub fn define_role(&mut self, name: &str) -> Result<RoleId> {
        self.define_role_inner(name, false)
    }

    /// Declare a single-valued role (attribute), required for `SAME-AS`.
    pub fn define_attribute(&mut self, name: &str) -> Result<RoleId> {
        self.define_role_inner(name, true)
    }

    fn define_role_inner(&mut self, name: &str, attribute: bool) -> Result<RoleId> {
        let id = self.symbols.role(name);
        match self.role_decl(id) {
            None => {
                let roles = &mut self.defs_mut().roles;
                if id.index() >= roles.len() {
                    roles.resize(id.index() + 1, None);
                }
                roles[id.index()] = Some(RoleDecl { attribute });
                Ok(id)
            }
            Some(decl) if decl.attribute == attribute => Ok(id),
            Some(_) => Err(ClassicError::Malformed(format!(
                "role {name:?} redeclared with a different kind \
                 (attribute vs multi-valued)"
            ))),
        }
    }

    /// Is `role` declared (via `define-role`/`define-attribute`)? A name
    /// merely interned by a parser is not a declaration — `define-role`
    /// exists precisely so typos are detectable (§3.1 footnote 3).
    pub(crate) fn check_role(&self, role: RoleId) -> Result<()> {
        match self.defs.roles.get(role.index()) {
            Some(Some(_)) => Ok(()),
            _ => Err(ClassicError::UndefinedRole(role)),
        }
    }

    /// Is `role` declared single-valued (`define-attribute`)?
    pub(crate) fn is_attribute(&self, role: RoleId) -> bool {
        matches!(
            self.defs.roles.get(role.index()),
            Some(Some(RoleDecl { attribute: true }))
        )
    }

    /// The declaration for `role`, if declared.
    pub fn role_decl(&self, role: RoleId) -> Option<RoleDecl> {
        self.defs.roles.get(role.index()).copied().flatten()
    }

    /// Any declared role (used to synthesize a ⊥ expression).
    pub(crate) fn any_role(&self) -> Option<RoleId> {
        self.defs
            .roles
            .iter()
            .position(Option::is_some)
            .map(RoleId::from_index)
    }

    // ---- named concepts -------------------------------------------------

    /// `define-concept[name, expr]`: declare the definition's primitive
    /// atoms, normalize and store. References to undefined names are
    /// errors, and a reference to the name *being defined* is a positioned
    /// [`ClassicError::RecursiveDefinition`] — together with rejected
    /// redefinition this keeps the stored schema cycle-free, so stored
    /// normal forms are always fully unfolded. A refused definition
    /// declares nothing.
    pub fn define_concept(&mut self, name: &str, told: Concept) -> Result<ConceptName> {
        let id = self.symbols.concept(name);
        if self.defs.concepts.contains_key(&id) {
            return Err(ClassicError::ConceptRedefined(id));
        }
        let mark = self.declare(&told);
        let nf = match normalize(&told, self) {
            Ok(nf) => nf,
            Err(e) => {
                self.undeclare(mark);
                // The name is not bound until the definition is accepted,
                // so one that mentions it meets it undefined: a recursive
                // definition, forbidden (§2.2).
                return Err(match e {
                    ClassicError::UndefinedConcept(n) if n == id => {
                        ClassicError::RecursiveDefinition(format!(
                            "concept {name} refers to itself in its own definition"
                        ))
                    }
                    e => e,
                });
            }
        };
        // Remember which primitives this definition introduced, so normal
        // forms can be rendered back using the name.
        let defs = self.defs_mut();
        if let Concept::Primitive { .. } | Concept::DisjointPrimitive { .. } = &told {
            for &p in &nf.prims {
                let info = &mut defs.prims[p.index()];
                if info.introduced_by.is_none() {
                    info.introduced_by = Some(id);
                }
            }
        }
        defs.concepts.insert(id, ConceptDef { told, nf });
        defs.concept_order.push(id);
        Ok(id)
    }

    /// The inverse of the most recent [`Schema::define_concept`], which
    /// bound `name`: the definition is forgotten and the primitives it
    /// introduced are nameless again. Like [`Schema::undeclare`] (which
    /// takes back the atoms it declared), sound only while nothing stored
    /// mentions the name — on the path that refuses the definition.
    pub fn undefine_concept(&mut self, name: ConceptName) {
        if !self.is_defined(name) {
            return;
        }
        let defs = self.defs_mut();
        defs.concepts.remove(&name);
        defs.concept_order.pop();
        for info in &mut defs.prims {
            info.introduced_by.take_if(|by| *by == name);
        }
    }

    /// Has `name` been `define-concept`ed?
    pub fn is_defined(&self, name: ConceptName) -> bool {
        self.defs.concepts.contains_key(&name)
    }

    /// The normalized meaning of a defined concept.
    pub fn concept_nf(&self, name: ConceptName) -> Result<&NormalForm> {
        self.defs
            .concepts
            .get(&name)
            .map(|d| &d.nf)
            .ok_or(ClassicError::UndefinedConcept(name))
    }

    /// The definition exactly as written (`told` information).
    pub fn concept_told(&self, name: ConceptName) -> Result<&Concept> {
        self.defs
            .concepts
            .get(&name)
            .map(|d| &d.told)
            .ok_or(ClassicError::UndefinedConcept(name))
    }

    /// Defined concepts in definition order.
    pub fn defined_concepts(&self) -> impl Iterator<Item = ConceptName> + '_ {
        self.defs.concept_order.iter().copied()
    }

    /// Number of defined concepts.
    pub fn concept_count(&self) -> usize {
        self.defs.concept_order.len()
    }

    // ---- primitives -----------------------------------------------------

    /// Declare the `PRIMITIVE`/`DISJOINT-PRIMITIVE` atoms of a description
    /// the schema is being *told* — a definition, an assertion, a rule's
    /// consequent. Normalization only looks atoms up; this is the one step
    /// that introduces them. An atom the schema already knows, or whose
    /// parent does not normalize, is left alone: normalizing `told` next
    /// reports that, in its own order. The mark undoes the declaration
    /// ([`Schema::undeclare`]) should the telling be refused.
    pub fn declare(&mut self, told: &Concept) -> PrimMark {
        let mark = PrimMark {
            prims: self.defs.prims.len(),
            groups: self.defs.groups.len(),
        };
        self.declare_atoms(told);
        mark
    }

    fn declare_atoms(&mut self, c: &Concept) {
        let (parent, grouping, index) = match c {
            Concept::And(parts) => return parts.iter().for_each(|p| self.declare_atoms(p)),
            Concept::All(_, inner) => return self.declare_atoms(inner),
            Concept::Primitive { parent, index } => (parent, None, index),
            Concept::DisjointPrimitive {
                parent,
                grouping,
                index,
            } => (parent, Some(grouping.as_str()), index),
            _ => return,
        };
        self.declare_atoms(parent);
        let key = prim_key(grouping, index);
        if self.symbols.find_prim(&key).is_some() {
            return;
        }
        let Ok(parent) = normalize(parent, self) else {
            return;
        };
        self.symbols.prim(&key);
        let defs = self.defs_mut();
        let group = grouping.map(|g| {
            let next = defs.groups.len() as u32;
            *defs.groups.entry(g.to_owned()).or_insert(next)
        });
        defs.prims.push(PrimInfo {
            group,
            parent,
            introduced_by: None,
        });
    }

    /// Forget every primitive atom and grouping declared since `mark` was
    /// taken, returning the atoms' keys in declaration order. Sound only
    /// while nothing stored mentions them — that is, on the path that
    /// refuses the telling they were declared for.
    pub fn undeclare(&mut self, mark: PrimMark) -> Vec<String> {
        if (self.defs.prims.len(), self.defs.groups.len()) != (mark.prims, mark.groups) {
            let defs = self.defs_mut();
            defs.prims.truncate(mark.prims);
            defs.groups.retain(|_, g| (*g as usize) < mark.groups);
        }
        self.symbols.prims.truncate(mark.prims)
    }

    /// The declared atom `(PRIMITIVE parent index)` — or its
    /// `DISJOINT-PRIMITIVE` form — names. Normalization calls this; an
    /// index nothing has declared is an error that names it, and so is a
    /// declared one mentioned under another parent or grouping.
    pub(crate) fn find_prim(
        &self,
        index: &str,
        grouping: Option<&str>,
        parent: &NormalForm,
    ) -> Result<PrimId> {
        let key = prim_key(grouping, index);
        let Some(id) = self.symbols.find_prim(&key) else {
            return Err(ClassicError::UndefinedName {
                kind: "primitive",
                name: key.into_owned(),
            });
        };
        let info = &self.defs.prims[id.index()];
        let same_group = match grouping {
            None => info.group.is_none(),
            Some(g) => info.group.is_some() && info.group == self.defs.groups.get(g).copied(),
        };
        if same_group && info.parent == *parent {
            Ok(id)
        } else {
            Err(ClassicError::PrimitiveReparented(id))
        }
    }

    /// Are two primitive atoms declared mutually exclusive?
    /// (Same disjoint grouping, different indices — §3.4.)
    pub(crate) fn prims_disjoint(&self, a: PrimId, b: PrimId) -> bool {
        if a == b {
            return false;
        }
        match (
            self.defs.prims.get(a.index()).and_then(|i| i.group),
            self.defs.prims.get(b.index()).and_then(|i| i.group),
        ) {
            (Some(ga), Some(gb)) => ga == gb,
            _ => false,
        }
    }

    /// A concise concept expression denoting just this primitive atom:
    /// the introducing name when known, else the raw `PRIMITIVE` form.
    pub fn prim_concept(&self, p: PrimId) -> Concept {
        match self.defs.prims.get(p.index()).and_then(|i| i.introduced_by) {
            Some(name) => Concept::Name(name),
            None => {
                let key = self.symbols.prim_key(p).to_owned();
                match key.split_once('/') {
                    Some((g, ix)) => Concept::disjoint_primitive(Concept::thing(), g, ix),
                    None => Concept::primitive(Concept::thing(), &key),
                }
            }
        }
    }

    // ---- tests ----------------------------------------------------------

    /// Register a host-language test function under a name (§2.1.4).
    /// Re-registering a name replaces its function (the identity — and
    /// hence all reasoning — is the name, not the closure).
    pub fn register_test<F>(&mut self, name: &str, f: F) -> TestId
    where
        F: Fn(&TestArg<'_>) -> bool + Send + Sync + 'static,
    {
        let id = self.symbols.test(name);
        let tests = &mut self.defs_mut().tests;
        if id.index() == tests.len() {
            tests.push(Arc::new(f));
        } else {
            tests[id.index()] = Arc::new(f);
        }
        id
    }

    /// Is `t` a registered test function?
    pub fn check_test(&self, t: TestId) -> Result<()> {
        if t.index() < self.defs.tests.len() {
            Ok(())
        } else {
            Err(ClassicError::UndefinedTest(t))
        }
    }

    /// Run a registered test. Tests are pure black boxes; the engine only
    /// interprets the boolean.
    pub fn run_test(&self, t: TestId, arg: &TestArg<'_>) -> Result<bool> {
        self.defs
            .tests
            .get(t.index())
            .map(|f| f(arg))
            .ok_or(ClassicError::UndefinedTest(t))
    }
}

/// Disjoint prims are namespaced by their grouping so `male` in the
/// `gender` grouping can coexist with a plain `male` primitive.
fn prim_key<'a>(grouping: Option<&str>, index: &'a str) -> Cow<'a, str> {
    match grouping {
        Some(g) => Cow::Owned(format!("{g}/{index}")),
        None => Cow::Borrowed(index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::Concept;

    #[test]
    fn roles_define_and_check() {
        let mut s = Schema::new();
        let r = s.define_role("thing-driven").unwrap();
        assert!(s.check_role(r).is_ok());
        assert!(!s.is_attribute(r));
        let a = s.define_attribute("domicile").unwrap();
        assert!(s.is_attribute(a));
        // Idempotent redefinition is fine; kind change is not.
        assert_eq!(s.define_role("thing-driven").unwrap(), r);
        assert!(s.define_attribute("thing-driven").is_err());
        // Undeclared role id fails the check.
        assert!(s.check_role(crate::symbol::RoleId::from_index(99)).is_err());
    }

    #[test]
    fn concept_definition_and_redefinition() {
        let mut s = Schema::new();
        let c = s
            .define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        assert!(s.is_defined(c));
        assert!(s.concept_nf(c).is_ok());
        assert!(matches!(
            s.define_concept("CAR", Concept::thing()),
            Err(ClassicError::ConceptRedefined(_))
        ));
    }

    #[test]
    fn undefined_concept_reference_fails() {
        let mut s = Schema::new();
        let ghost = s.symbols.concept("GHOST");
        let res = s.define_concept("USES-GHOST", Concept::Name(ghost));
        assert!(matches!(res, Err(ClassicError::UndefinedConcept(_))));
    }

    #[test]
    fn disjoint_groupings() {
        let mut s = Schema::new();
        s.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = s.symbols.find_concept("PERSON").unwrap();
        let male = s
            .define_concept(
                "MALE",
                Concept::disjoint_primitive(Concept::Name(person), "gender", "male"),
            )
            .unwrap();
        let female = s
            .define_concept(
                "FEMALE",
                Concept::disjoint_primitive(Concept::Name(person), "gender", "female"),
            )
            .unwrap();
        let m = s.concept_nf(male).unwrap().clone();
        let fe = s.concept_nf(female).unwrap().clone();
        let mp: Vec<_> = m
            .prims
            .iter()
            .filter(|p| !fe.prims.contains(p))
            .copied()
            .collect();
        let fp: Vec<_> = fe
            .prims
            .iter()
            .filter(|p| !m.prims.contains(p))
            .copied()
            .collect();
        assert_eq!(mp.len(), 1);
        assert_eq!(fp.len(), 1);
        assert!(s.prims_disjoint(mp[0], fp[0]));
        assert!(!s.prims_disjoint(mp[0], mp[0]));
    }

    #[test]
    fn plain_primitives_are_not_disjoint() {
        let mut s = Schema::new();
        s.define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        s.define_concept("BOAT", Concept::primitive(Concept::thing(), "boat"))
            .unwrap();
        let car = s.symbols.find_concept("CAR").unwrap();
        let boat = s.symbols.find_concept("BOAT").unwrap();
        let a = *s.concept_nf(car).unwrap().prims.iter().next().unwrap();
        let b = *s.concept_nf(boat).unwrap().prims.iter().next().unwrap();
        assert!(!s.prims_disjoint(a, b));
    }

    #[test]
    fn test_registry_runs() {
        let mut s = Schema::new();
        let even = s.register_test("even", |arg| match arg {
            TestArg::Host(HostValue::Int(i)) => i % 2 == 0,
            _ => false,
        });
        assert!(s
            .run_test(even, &TestArg::Host(&HostValue::Int(4)))
            .unwrap());
        assert!(!s
            .run_test(even, &TestArg::Host(&HostValue::Int(3)))
            .unwrap());
        assert!(s.check_test(even).is_ok());
        assert!(s.check_test(crate::symbol::TestId::from_index(7)).is_err());
    }

    #[test]
    fn prim_concept_uses_introducing_name() {
        let mut s = Schema::new();
        let car = s
            .define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        let nf = s.concept_nf(car).unwrap().clone();
        let p = *nf.prims.iter().next().unwrap();
        assert_eq!(s.prim_concept(p), Concept::Name(car));
    }

    #[test]
    fn undefine_concept_is_the_inverse_of_define_concept() {
        let mut s = Schema::new();
        let thing = Concept::thing;
        // The atom is older than the definition that names it.
        let mark = s.declare(&Concept::primitive(thing(), "p"));
        let c = s
            .define_concept("C", Concept::primitive(thing(), "p"))
            .unwrap();
        let p = PrimId::from_index(0);
        assert_eq!(s.prim_concept(p), Concept::Name(c));
        s.undefine_concept(c);
        assert!(!s.is_defined(c) && s.concept_count() == 0);
        assert_eq!(s.defined_concepts().count(), 0);
        assert_eq!(s.prim_concept(p), Concept::primitive(thing(), "p"));
        // Forgotten entirely, the name and the atom are free again.
        assert_eq!(s.undeclare(mark), ["p"]);
        s.define_concept("D", thing()).unwrap();
        let d = Concept::Name(s.symbols.concept("D"));
        s.define_concept("C", Concept::primitive(d, "p")).unwrap();
        assert_eq!(s.concept_count(), 2);
    }
}
