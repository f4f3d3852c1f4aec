//! Structural normal forms and the normalization engine.
//!
//! "All concepts in the schema are reduced to a normal form, and then are
//! compared to each other to establish the subsumption hierarchy" (paper
//! §5). A [`NormalForm`] is the canonical structural representation of a
//! concept: named concepts unfolded, conjunctions merged, and the
//! interactions between constructors propagated — exactly the machinery
//! that makes the paper's §2.2 equivalences hold:
//!
//! * `(AND (ALL r CAR) (ALL r EXPENSIVE-THING))`
//!   ≡ `(ALL r (AND CAR EXPENSIVE-THING))` — value restrictions on the same
//!   role conjoin;
//! * `(ALL r (AND (ONE-OF a b c) (ONE-OF b c d)))`
//!   ≡ `(AND (ALL r (ONE-OF b c)) (AT-MOST 2 r))` — enumerations intersect
//!   and bound the role's cardinality.
//!
//! Contradictory conjunctions normalize to an explicit bottom (⊥) carrying
//! the first [`Clash`] detected, which is how integrity checking (§3.4)
//! reports *why* an update was rejected.

use crate::desc::{Concept, IndRef, Path};
use crate::error::{Clash, ClassicError, Result};
use crate::host::Layer;
use crate::same_as::SameAs;
use crate::schema::Schema;
use crate::symbol::{PrimId, RoleId, SymbolTable, TestId};
use crate::vec_set::{VecMap, VecSet};
use std::fmt;

/// Canonical description of everything a concept says about one role.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RoleRestriction {
    /// Conjoined `ALL` value restriction, normalized. `None` ≡ `THING`.
    pub all: Option<Box<NormalForm>>,
    /// Effective lower bound: `max(asserted AT-LEASTs, |fillers|)`.
    pub at_least: u32,
    /// Effective upper bound, `None` = unbounded. Already tightened by
    /// `ONE-OF` value restrictions and closure.
    pub at_most: Option<u32>,
    /// Known fillers from `FILLS` (unique-name assumption: distinct names
    /// denote distinct individuals, so `|fillers|` is a hard lower bound).
    pub fillers: VecSet<IndRef>,
    /// Whether the role is closed: no fillers beyond `fillers` exist.
    /// Canonical invariant: `closed ⇔ at_most == Some(fillers.len())`
    /// (the paper's §3.3 deduction — an `AT-MOST` reached by known fillers
    /// closes the role — applied in both directions).
    pub closed: bool,
}

impl RoleRestriction {
    /// A restriction that says nothing (≡ no restriction at all).
    pub(crate) fn is_trivial(&self) -> bool {
        self.all.is_none()
            && self.at_least == 0
            && self.at_most.is_none()
            && self.fillers.is_empty()
            && !self.closed
    }

    /// Effective minimum number of fillers.
    pub fn min_count(&self) -> u32 {
        self.at_least.max(self.fillers.len() as u32)
    }

    /// Effective maximum number of fillers (`u32::MAX` = unbounded).
    pub fn max_count(&self) -> u32 {
        self.at_most.unwrap_or(u32::MAX)
    }
}

/// The normal form of a CLASSIC concept.
///
/// Two coherent normal forms compare equal iff normalization identified
/// their concepts; all incoherent forms compare equal (every ⊥ denotes the
/// empty set). Full semantic equivalence testing should use mutual
/// subsumption ([`crate::subsume::equivalent`]); structural equality is a
/// sound (and for the constructs exercised by the paper, complete)
/// fast path.
#[derive(Debug, Clone, Default)]
pub struct NormalForm {
    /// `Some(clash)` marks ⊥; the clash records why (for error reporting).
    clash: Option<Clash>,
    /// Built-in layer (THING / CLASSIC-THING / HOST-THING / host class).
    pub layer: Layer,
    /// Primitive atoms this concept is committed to (necessary conditions
    /// with unspecified differentia).
    pub prims: VecSet<PrimId>,
    /// `TEST` atoms — procedural black boxes, identity-only (§2.1.4).
    pub tests: VecSet<TestId>,
    /// Enumerated extent, if any (`ONE-OF`); intersected under `AND`.
    pub one_of: Option<VecSet<IndRef>>,
    /// Per-role restrictions; roles with trivial restrictions are absent.
    pub roles: VecMap<RoleId, RoleRestriction>,
    /// Co-reference constraints over attribute chains (`SAME-AS`).
    pub same_as: SameAs,
}

impl PartialEq for NormalForm {
    fn eq(&self, other: &Self) -> bool {
        if self.is_incoherent() || other.is_incoherent() {
            return self.is_incoherent() && other.is_incoherent();
        }
        self.layer == other.layer
            && self.prims == other.prims
            && self.tests == other.tests
            && self.one_of == other.one_of
            && self.roles == other.roles
            && self.same_as == other.same_as
    }
}

impl Eq for NormalForm {}

/// Hashing mirrors the manual [`PartialEq`]: every ⊥ hashes to the same
/// marker (the clash payload is diagnostic, not semantic), and coherent
/// forms hash their canonical structure, so equal forms can key one
/// hash-map entry.
impl std::hash::Hash for NormalForm {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        if self.is_incoherent() {
            state.write_u8(0);
            return;
        }
        state.write_u8(1);
        self.layer.hash(state);
        self.prims.hash(state);
        self.tests.hash(state);
        self.one_of.hash(state);
        self.roles.hash(state);
        self.same_as.hash(state);
    }
}

impl NormalForm {
    /// The normal form of `THING` (says nothing).
    pub fn top() -> NormalForm {
        NormalForm::default()
    }

    /// The empty concept, with the clash that produced it.
    pub fn bottom(clash: Clash) -> NormalForm {
        NormalForm {
            clash: Some(clash),
            ..NormalForm::default()
        }
    }

    /// Is this the empty concept (⊥)?
    pub fn is_incoherent(&self) -> bool {
        self.clash.is_some()
    }

    /// Why this form is ⊥, if it is.
    pub fn clash(&self) -> Option<&Clash> {
        self.clash.as_ref()
    }

    /// Does this form say anything at all beyond `THING`?
    pub fn is_top(&self) -> bool {
        !self.is_incoherent()
            && self.layer == Layer::Thing
            && self.prims.is_empty()
            && self.tests.is_empty()
            && self.one_of.is_none()
            && self.roles.is_empty()
            && self.same_as.is_empty()
    }

    /// Structural size (used by experiment E1's |C| metric).
    pub fn size(&self) -> usize {
        let mut n = 1 + self.prims.len() + self.tests.len();
        if let Some(s) = &self.one_of {
            n += s.len();
        }
        for rr in self.roles.values() {
            n += 1 + rr.fillers.len();
            if let Some(all) = &rr.all {
                n += all.size();
            }
        }
        n += self.same_as.size();
        n
    }

    /// The restriction recorded for `role`, or a trivial one.
    pub fn role(&self, role: RoleId) -> RoleRestriction {
        self.roles.get(&role).cloned().unwrap_or_default()
    }

    /// The value restriction on `role` (`THING` if none).
    pub fn value_restriction(&self, role: RoleId) -> NormalForm {
        self.roles
            .get(&role)
            .and_then(|rr| rr.all.as_deref().cloned())
            .unwrap_or_else(NormalForm::top)
    }

    /// Navigate a chain of roles through value restrictions.
    /// Returns `None` if some step has no `ALL` restriction recorded.
    pub fn at_path(&self, path: &[RoleId]) -> Option<&NormalForm> {
        let mut cur = self;
        for r in path {
            cur = cur.roles.get(r)?.all.as_deref()?;
        }
        Some(cur)
    }

    /// Mark this form as ⊥ with `clash` (first clash wins) and drop the
    /// now-meaningless structure so every ⊥ is canonical.
    pub(crate) fn make_incoherent(&mut self, clash: Clash) {
        if self.clash.is_none() {
            self.clash = Some(clash);
        }
        self.layer = Layer::Thing;
        self.prims.clear();
        self.tests.clear();
        self.one_of = None;
        self.roles.clear();
        self.same_as = SameAs::default();
    }

    /// Conjoin `other` into `self` (the meaning of `AND`), restoring all
    /// canonical invariants. `schema` supplies disjoint-primitive groupings
    /// and attribute declarations.
    ///
    /// Both inputs are taken as *canonical*: a bare `(CLOSE r)` that was
    /// normalized on its own already denotes "r has no fillers", so
    /// conjoining it with `(FILLS r V)` is a genuine contradiction. To
    /// combine fragments whose meaning is contextual (`CLOSE` next to its
    /// sibling `FILLS` in one expression), build the expression as a single
    /// `AND` and normalize it once — [`normalize`] merges raw structure
    /// first and derives invariants at the end.
    pub fn conjoin(&mut self, other: &NormalForm, schema: &Schema) {
        self.merge_raw(other);
        self.renormalize(schema);
    }

    /// Structurally merge `other` into `self` without deriving any
    /// invariants (beyond layer compatibility). Callers must
    /// [`NormalForm::renormalize`] before the result is used as canonical.
    pub(crate) fn merge_raw(&mut self, other: &NormalForm) {
        if self.is_incoherent() {
            return;
        }
        if other.is_incoherent() {
            self.make_incoherent(other.clash.clone().unwrap_or(Clash::Incoherent));
            return;
        }
        // Layer meet.
        match self.layer.meet(other.layer) {
            Some(l) => self.layer = l,
            None => {
                self.make_incoherent(Clash::LayerClash);
                return;
            }
        }
        self.prims.union_with(&other.prims);
        self.tests.union_with(&other.tests);
        // Enumerations intersect.
        self.one_of = match (self.one_of.take(), &other.one_of) {
            (None, None) => None,
            (Some(s), None) => Some(s),
            (None, Some(s)) => Some(s.clone()),
            (Some(mut a), Some(b)) => {
                a.intersect_with(b);
                Some(a)
            }
        };
        // Role restrictions merge pointwise.
        for (&r, rr) in &other.roles {
            let mine = self.roles.entry_or_default(r);
            mine.at_least = mine.at_least.max(rr.at_least);
            mine.at_most = match (mine.at_most, rr.at_most) {
                (None, m) => m,
                (m, None) => m,
                (Some(a), Some(b)) => Some(a.min(b)),
            };
            mine.fillers.union_with(&rr.fillers);
            mine.closed |= rr.closed;
            match (&mut mine.all, &rr.all) {
                (_, None) => {}
                (slot @ None, Some(b)) => *slot = Some(b.clone()),
                (Some(a), Some(b)) => a.merge_raw(b),
            }
        }
        self.same_as.merge(&other.same_as);
    }

    /// Re-establish every canonical invariant after structural changes.
    ///
    /// This is the workhorse behind the §2.2 equivalences and the §3.3/§3.4
    /// deductions; it iterates to a fixed point (bounded — each pass only
    /// tightens bounds, closes roles, or detects ⊥, all monotone). Public
    /// so callers constructing normal forms field-by-field (e.g. the KB
    /// deriving a `FILLS` from a co-reference) can canonicalize them.
    pub fn renormalize(&mut self, schema: &Schema) {
        if self.is_incoherent() {
            return;
        }
        // A recursive co-reference (a chain equated with an extension of
        // itself) would regress the SAME-AS propagation below forever —
        // the paper forbids recursive definitions, so it is rejected up
        // front as a clash. Checked here rather than only at the language
        // boundary because two individually acyclic descriptions can
        // *combine* into a cycle under conjunction.
        if !self.same_as.is_empty() {
            if let Some((p, _)) = self.same_as.find_cycle() {
                self.make_incoherent(Clash::RecursiveCoreference { path: p });
                return;
            }
        }
        // Canonicalize value restrictions depth-first, so this level's
        // derivations see canonical children.
        for rr in self.roles.values_mut() {
            if let Some(all) = &mut rr.all {
                all.renormalize(schema);
            }
        }
        // Disjoint primitive groupings (§3.4).
        let prims: Vec<PrimId> = self.prims.iter().copied().collect();
        for (i, &a) in prims.iter().enumerate() {
            for &b in &prims[i + 1..] {
                if schema.prims_disjoint(a, b) {
                    self.make_incoherent(Clash::DisjointPrimitives(a, b));
                    return;
                }
            }
        }
        // SAME-AS paths demand attribute chains: at_least 1 along every
        // prefix, at_most 1 by the attribute declaration. (Idempotent, and
        // the pair set never grows during renormalization, so once
        // suffices.)
        let sa_paths: Vec<Path> = self.same_as.all_paths();
        for p in &sa_paths {
            self.require_chain(p);
        }
        // All remaining invariants interact (a role demand can tighten the
        // layer, which re-filters an enumeration, which bounds a role…),
        // so they run together to a fixed point.
        let mut changed = true;
        let mut guard = 0usize;
        while changed {
            changed = false;
            guard += 1;
            if guard >= 1_000 {
                // Convergence guard. The cycle pre-check above witnesses
                // every recursive co-reference its bounded saturation can
                // reach; a form that still refuses to converge is treated
                // the same way instead of looping (previously this was a
                // debug_assert, which let release builds hang).
                self.make_incoherent(Clash::RecursiveCoreference { path: Path::new() });
                return;
            }
            // ONE-OF: filter members incompatible with the (possibly just
            // tightened) layer, then tighten the layer to the join of the
            // survivors.
            if let Some(s) = &mut self.one_of {
                let layer = self.layer;
                let before = s.len();
                s.retain(|i| layer.meet(i.layer()).is_some());
                if s.is_empty() {
                    self.make_incoherent(Clash::EmptyEnumeration);
                    return;
                }
                changed |= s.len() != before;
                let join = s
                    .iter()
                    .map(IndRef::layer)
                    .reduce(|a, b| a.join(b))
                    .expect("non-empty");
                if self.layer != join {
                    self.layer = join;
                    changed = true;
                }
            }
            let roles: Vec<RoleId> = self.roles.keys().copied().collect();
            for r in roles {
                let attr = schema.is_attribute(r);
                let rr = self.roles.get_mut(&r).expect("present");
                if attr {
                    let prev = rr.at_most;
                    rr.at_most = Some(rr.at_most.unwrap_or(1).min(1));
                    changed |= prev != rr.at_most;
                }
                // Fillers raise AT-LEAST (UNA).
                if (rr.fillers.len() as u32) > rr.at_least {
                    rr.at_least = rr.fillers.len() as u32;
                    changed = true;
                }
                // A ⊥ value restriction forbids any filler.
                if rr.all.as_deref().is_some_and(NormalForm::is_incoherent) {
                    rr.all = None;
                    rr.at_most = Some(0);
                    changed = true;
                }
                // Enumerated value restriction bounds cardinality (§2.2).
                if let Some(all) = &rr.all {
                    if let Some(s) = &all.one_of {
                        let bound = s.len() as u32;
                        if rr.at_most.is_none_or(|m| m > bound) {
                            rr.at_most = Some(bound);
                            changed = true;
                        }
                    }
                }
                // Closure tightens AT-MOST to the known fillers (§3.2), and
                // an AT-MOST met by known fillers closes the role (§3.3).
                if rr.closed {
                    let n = rr.fillers.len() as u32;
                    if rr.at_most.is_none_or(|m| m > n) {
                        rr.at_most = Some(n);
                        changed = true;
                    }
                }
                if rr.at_most == Some(rr.fillers.len() as u32) && !rr.closed {
                    rr.closed = true;
                    changed = true;
                }
                // Cardinality clash?
                let (min, max) = (rr.min_count(), rr.max_count());
                if min > max {
                    let clash = if rr.closed {
                        Clash::ClosedRoleCardinality { role: r }
                    } else {
                        Clash::Cardinality {
                            role: r,
                            at_least: min,
                            at_most: max,
                        }
                    };
                    self.make_incoherent(clash);
                    return;
                }
                // An impossible role (max 0) makes its ALL vacuous.
                if max == 0 && rr.all.is_some() {
                    rr.all = None;
                    changed = true;
                }
                // A trivial ALL (THING) is no restriction.
                if rr.all.as_deref().is_some_and(NormalForm::is_top) {
                    rr.all = None;
                    changed = true;
                }
                // Any required filler forces the CLASSIC layer (§3.2: host
                // individuals cannot have roles).
                if rr.min_count() > 0 {
                    match self.layer.meet(Layer::Classic) {
                        Some(l) => {
                            if self.layer != l {
                                self.layer = l;
                                changed = true;
                            }
                        }
                        None => {
                            self.make_incoherent(Clash::LayerClash);
                            return;
                        }
                    }
                }
            }
            // SAME-AS congruence: equated paths share one object, so their
            // value restrictions conjoin (bounded propagation; see
            // DESIGN.md §4.4).
            if !self.same_as.is_empty() && self.propagate_same_as(schema) {
                changed = true;
            }
            if self.is_incoherent() {
                return;
            }
        }
        // Host layers cannot carry role restrictions with content; a
        // host-layer ONE-OF re-derivation may have demoted the layer after
        // roles were recorded.
        if matches!(self.layer, Layer::Host(_)) {
            let any_required = self.roles.values().any(|rr| rr.min_count() > 0);
            if any_required {
                self.make_incoherent(Clash::LayerClash);
                return;
            }
            self.roles.clear();
            if !self.same_as.is_empty() {
                self.make_incoherent(Clash::LayerClash);
                return;
            }
        }
        // Drop trivial role entries for canonicality.
        self.roles.retain(|_, rr| !rr.is_trivial());
    }

    /// Demand that the attribute chain `path` is realizable: each step is
    /// filled (at_least 1) and single-valued (at_most 1, by declaration).
    fn require_chain(&mut self, path: &[RoleId]) {
        let Some((&first, rest)) = path.split_first() else {
            return;
        };
        let rr = self.roles.entry_or_default(first);
        rr.at_least = rr.at_least.max(1);
        // Single-valuedness along the chain (§5's restriction, enforced as
        // a derived constraint rather than a declaration requirement).
        rr.at_most = Some(rr.at_most.unwrap_or(1).min(1));
        if !rest.is_empty() {
            let all = rr.all.get_or_insert_with(|| Box::new(NormalForm::top()));
            all.require_chain(rest);
        }
    }

    /// Conjoin the value restrictions reachable at equated paths.
    /// Returns true if anything changed. One round; `renormalize`'s outer
    /// fixpoint loop repeats it until stable.
    fn propagate_same_as(&mut self, schema: &Schema) -> bool {
        let classes = self.same_as.classes();
        let mut changed = false;
        for class in &classes {
            if class.len() < 2 {
                continue;
            }
            // Meet of the NFs at every path in the class.
            let mut meet = NormalForm::top();
            for path in class {
                if let Some(nf) = self.at_path(path) {
                    let nf = nf.clone();
                    meet.conjoin(&nf, schema);
                }
            }
            if meet.is_top() {
                continue;
            }
            for path in class {
                let target = self.ensure_path(path);
                let before = target.clone();
                target.conjoin(&meet, schema);
                if *target != before {
                    changed = true;
                }
                if target.is_incoherent() {
                    // An equated object that cannot exist, while the chain
                    // demands it does: the whole concept is incoherent.
                    let role = *path.last().expect("non-empty path");
                    self.make_incoherent(Clash::CoreferenceClash { role });
                    return true;
                }
            }
        }
        changed
    }

    /// Get (creating as needed) the normal form at the end of `path`.
    fn ensure_path(&mut self, path: &[RoleId]) -> &mut NormalForm {
        let mut cur = self;
        for r in path {
            let rr = cur.roles.entry_or_default(*r);
            cur = rr.all.get_or_insert_with(|| Box::new(NormalForm::top()));
        }
        cur
    }

    /// Reconstruct a concept expression denoting this normal form.
    ///
    /// Used to render intensional answers (`ask-description`, §3.5.3) and
    /// for persistence. Primitive atoms are rendered via the schema's
    /// record of the concept that introduced them.
    pub fn to_concept(&self, schema: &Schema) -> Concept {
        if self.is_incoherent() {
            // ⊥ has no constructor in the language; the canonical empty
            // concept is an empty enumeration's complement — we use a
            // contradictory cardinality, which normalizes back to ⊥.
            let r = schema.any_role();
            return match r {
                Some(r) => Concept::And(vec![Concept::AtLeast(1, r), Concept::AtMost(0, r)]),
                None => Concept::OneOf(vec![]),
            };
        }
        let mut parts = Vec::new();
        if self.layer != Layer::Thing {
            parts.push(Concept::Builtin(self.layer));
        }
        for &p in &self.prims {
            parts.push(schema.prim_concept(p));
        }
        for &t in &self.tests {
            parts.push(Concept::Test(t));
        }
        // Individual lists are rendered in *name* order so the output is
        // canonical across symbol tables (interned ids are not stable
        // under snapshot/replay).
        let by_name = |inds: &VecSet<IndRef>| -> Vec<IndRef> {
            let mut v: Vec<IndRef> = inds.iter().cloned().collect();
            v.sort_by_key(|i| match i {
                IndRef::Classic(n) => (0u8, schema.symbols.individual_name(*n).to_owned()),
                IndRef::Host(h) => (1u8, h.to_string()),
            });
            v
        };
        if let Some(s) = &self.one_of {
            parts.push(Concept::OneOf(by_name(s)));
        }
        for (&r, rr) in &self.roles {
            if rr.at_least > rr.fillers.len() as u32 {
                parts.push(Concept::AtLeast(rr.at_least, r));
            }
            if !rr.fillers.is_empty() {
                parts.push(Concept::Fills(r, by_name(&rr.fillers)));
            }
            if rr.closed {
                parts.push(Concept::Close(r));
            } else if let Some(m) = rr.at_most {
                parts.push(Concept::AtMost(m, r));
            }
            if let Some(all) = &rr.all {
                parts.push(Concept::All(r, Box::new(all.to_concept(schema))));
            }
        }
        for (p, q) in self.same_as.pairs() {
            parts.push(Concept::SameAs(p.clone(), q.clone()));
        }
        match parts.len() {
            0 => Concept::thing(),
            1 => parts.pop().expect("one part"),
            _ => Concept::And(parts),
        }
    }

    /// Render against a symbol table (via [`NormalForm::to_concept`]'s
    /// structure but without needing a schema — bare ids for prims).
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> DisplayNf<'a> {
        DisplayNf { nf: self, symbols }
    }
}

/// Debug-oriented printer for normal forms.
pub struct DisplayNf<'a> {
    nf: &'a NormalForm,
    symbols: &'a SymbolTable,
}

impl fmt::Display for DisplayNf<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nf = self.nf;
        if nf.is_incoherent() {
            return write!(f, "⊥");
        }
        write!(f, "[{}", nf.layer)?;
        for &p in &nf.prims {
            write!(f, " prim:{}", self.symbols.prim_key(p))?;
        }
        for &t in &nf.tests {
            write!(f, " test:{}", self.symbols.test_name(t))?;
        }
        if let Some(s) = &nf.one_of {
            write!(f, " one-of:{{")?;
            for (i, ind) in s.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                ind.write(self.symbols, &mut crate::lexical::Writer::new(&mut *f))?;
            }
            write!(f, "}}")?;
        }
        for (&r, rr) in &nf.roles {
            write!(f, " {}:", self.symbols.role_name(r))?;
            write!(f, "[{}..", rr.at_least)?;
            match rr.at_most {
                Some(m) => write!(f, "{m}]")?,
                None => write!(f, "*]")?,
            }
            if rr.closed {
                write!(f, "closed")?;
            }
            if !rr.fillers.is_empty() {
                write!(f, " fills:{{")?;
                for (i, ind) in rr.fillers.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    ind.write(self.symbols, &mut crate::lexical::Writer::new(&mut *f))?;
                }
                write!(f, "}}")?;
            }
            if let Some(all) = &rr.all {
                write!(
                    f,
                    " all:{}",
                    DisplayNf {
                        nf: all,
                        symbols: self.symbols
                    }
                )?;
            }
        }
        if !nf.same_as.is_empty() {
            write!(f, " same-as:{}", nf.same_as.display(self.symbols))?;
        }
        write!(f, "]")
    }
}

/// Normalize a concept expression against the schema: a pure function of
/// the two. `PRIMITIVE` atoms are looked up, never introduced — telling
/// the schema a description ([`Schema::declare`]) is what declares them.
///
/// Structural problems (undefined roles/concepts/primitives, cyclic
/// definitions) are errors; *semantic* contradictions produce a coherent
/// `Ok(⊥)` normal form carrying the clash, which the KB layer converts to
/// a rejected update (§3.4).
///
/// The paper's §2.2 equivalences fall out as structural equality:
///
/// ```
/// use classic_core::{normalize, Concept, Schema};
///
/// let mut schema = Schema::new();
/// let r = schema.define_role("thing-driven")?;
/// schema.define_concept("CAR", Concept::primitive(Concept::thing(), "car"))?;
/// schema.define_concept("EXPENSIVE", Concept::primitive(Concept::thing(), "exp"))?;
/// let car = Concept::Name(schema.symbols.find_concept("CAR").unwrap());
/// let exp = Concept::Name(schema.symbols.find_concept("EXPENSIVE").unwrap());
///
/// // (AND (ALL r CAR) (ALL r EXPENSIVE)) ≡ (ALL r (AND CAR EXPENSIVE))
/// let split = Concept::and([
///     Concept::all(r, car.clone()),
///     Concept::all(r, exp.clone()),
/// ]);
/// let joined = Concept::all(r, Concept::and([car, exp]));
/// assert_eq!(normalize(&split, &schema)?, normalize(&joined, &schema)?);
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
pub fn normalize(c: &Concept, schema: &Schema) -> Result<NormalForm> {
    let mut nf = NormalForm::top();
    build(c, schema, &mut nf)?;
    check_recursion(&nf, &schema.symbols)?;
    nf.renormalize(schema);
    if let Some(Clash::RecursiveCoreference { path }) = nf.clash() {
        return Err(recursion_error(path, &schema.symbols));
    }
    Ok(nf)
}

/// Scan a freshly built (pre-renormalization) form for recursive
/// co-reference at any nesting depth. Run before [`NormalForm::renormalize`]
/// so a nested cycle is reported as a positioned error instead of being
/// folded away as an `AT-MOST 0` on the enclosing role.
fn check_recursion(nf: &NormalForm, symbols: &SymbolTable) -> Result<()> {
    if let Some((p, _)) = nf.same_as.find_cycle() {
        return Err(recursion_error(&p, symbols));
    }
    for rr in nf.roles.values() {
        if let Some(all) = &rr.all {
            check_recursion(all, symbols)?;
        }
    }
    Ok(())
}

/// Render a positioned [`ClassicError::RecursiveDefinition`] for a
/// recursive co-reference chain (empty path = caught by the convergence
/// guard, with no specific witness).
fn recursion_error(path: &Path, symbols: &SymbolTable) -> ClassicError {
    if path.is_empty() {
        return ClassicError::RecursiveDefinition(
            "SAME-AS constraints force a non-terminating normal form".to_owned(),
        );
    }
    let mut chain = String::from("(");
    for (i, r) in path.iter().enumerate() {
        if i > 0 {
            chain.push(' ');
        }
        chain.push_str(symbols.role_name(*r));
    }
    chain.push(')');
    ClassicError::RecursiveDefinition(format!(
        "SAME-AS equates attribute chain {chain} with an extension of itself"
    ))
}

/// Conjoin an *expression* into an existing normal form contextually.
///
/// Unlike normalizing `c` on its own and then [`NormalForm::conjoin`]ing,
/// this merges the expression's raw structure into `target` before deriving
/// invariants, so context-sensitive descriptors combine with what `target`
/// already knows. The paper's central example (§3.2): asserting `(CLOSE
/// thing-driven)` on Rocky closes the role over Rocky's *currently known*
/// fillers — it does not assert that the role is empty.
pub fn conjoin_expression(c: &Concept, schema: &Schema, target: &mut NormalForm) -> Result<()> {
    build(c, schema, target)?;
    check_recursion(target, &schema.symbols)?;
    target.renormalize(schema);
    if let Some(Clash::RecursiveCoreference { path }) = target.clash() {
        let err = recursion_error(path, &schema.symbols);
        return Err(err);
    }
    Ok(())
}

fn build(c: &Concept, schema: &Schema, nf: &mut NormalForm) -> Result<()> {
    if nf.is_incoherent() {
        return Ok(());
    }
    match c {
        Concept::Builtin(l) => match nf.layer.meet(*l) {
            Some(m) => nf.layer = m,
            None => nf.make_incoherent(Clash::LayerClash),
        },
        Concept::Name(n) => {
            let def = schema.concept_nf(*n)?.clone();
            nf.merge_raw(&def);
        }
        Concept::Primitive { parent, index } => {
            let mut parent_nf = normalize(parent, schema)?;
            let prim = schema.find_prim(index, None, &parent_nf)?;
            if parent_nf
                .prims
                .iter()
                .any(|&q| schema.prims_disjoint(prim, q))
            {
                nf.make_incoherent(Clash::DisjointPrimitives(prim, prim));
                return Ok(());
            }
            parent_nf.prims.insert(prim);
            nf.merge_raw(&parent_nf);
        }
        Concept::DisjointPrimitive {
            parent,
            grouping,
            index,
        } => {
            let mut parent_nf = normalize(parent, schema)?;
            let prim = schema.find_prim(index, Some(grouping), &parent_nf)?;
            if let Some(&q) = parent_nf
                .prims
                .iter()
                .find(|&&q| schema.prims_disjoint(prim, q))
            {
                nf.make_incoherent(Clash::DisjointPrimitives(prim, q));
                return Ok(());
            }
            parent_nf.prims.insert(prim);
            nf.merge_raw(&parent_nf);
        }
        Concept::OneOf(inds) => {
            let set: VecSet<IndRef> = inds.iter().cloned().collect();
            let mut other = NormalForm::top();
            other.one_of = Some(set);
            nf.merge_raw(&other);
        }
        Concept::All(r, inner) => {
            schema.check_role(*r)?;
            let mut inner_nf = NormalForm::top();
            build(inner, schema, &mut inner_nf)?;
            let mut other = NormalForm::top();
            other.roles.insert(
                *r,
                RoleRestriction {
                    all: Some(Box::new(inner_nf)),
                    ..RoleRestriction::default()
                },
            );
            nf.merge_raw(&other);
        }
        Concept::AtLeast(n, r) => {
            schema.check_role(*r)?;
            let mut other = NormalForm::top();
            other.roles.insert(
                *r,
                RoleRestriction {
                    at_least: *n,
                    ..RoleRestriction::default()
                },
            );
            nf.merge_raw(&other);
        }
        Concept::AtMost(n, r) => {
            schema.check_role(*r)?;
            let mut other = NormalForm::top();
            other.roles.insert(
                *r,
                RoleRestriction {
                    at_most: Some(*n),
                    ..RoleRestriction::default()
                },
            );
            nf.merge_raw(&other);
        }
        Concept::SameAs(p, q) => {
            // Co-reference is restricted to chains of single-valued roles
            // (paper §5). A role qualifies either by declaration
            // (`define-attribute`) or by the constraint the SAME-AS itself
            // imposes: `require_chain` pins every step to AT-MOST 1, the
            // way the paper's DOMESTIC-CRIME pairs its SAME-AS with an
            // explicit (AT-MOST 1 perpetrator).
            for path in [p, q] {
                if path.is_empty() {
                    return Err(ClassicError::EmptySameAsPath);
                }
                for &r in path {
                    schema.check_role(r)?;
                }
            }
            let mut other = NormalForm::top();
            other.same_as.add_pair(p.clone(), q.clone());
            nf.merge_raw(&other);
        }
        Concept::Fills(r, inds) => {
            schema.check_role(*r)?;
            let mut other = NormalForm::top();
            other.roles.insert(
                *r,
                RoleRestriction {
                    fillers: inds.iter().cloned().collect(),
                    ..RoleRestriction::default()
                },
            );
            nf.merge_raw(&other);
        }
        Concept::Close(r) => {
            schema.check_role(*r)?;
            let mut other = NormalForm::top();
            other.roles.insert(
                *r,
                RoleRestriction {
                    closed: true,
                    ..RoleRestriction::default()
                },
            );
            nf.merge_raw(&other);
        }
        Concept::Test(t) => {
            schema.check_test(*t)?;
            nf.tests.insert(*t);
        }
        Concept::And(parts) => {
            for part in parts {
                build(part, schema, nf)?;
                if nf.is_incoherent() {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[path = "normal_tests.rs"]
mod tests;
