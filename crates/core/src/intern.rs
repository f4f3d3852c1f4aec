//! Hash-consed normal forms and the memoized subsumption kernel.
//!
//! Classification and query answering call [`crate::subsume::subsumes`] on
//! the same pairs of normal forms over and over: every taxonomy insert
//! re-tests the query against a frontier of node forms, and every retrieve
//! re-classifies a query that was often seen before. Both costs collapse
//! once normal forms are *interned*:
//!
//! * an [`Interner`] hash-conses each distinct [`NormalForm`] to a small
//!   dense [`NfId`], so structural equality becomes id equality (`O(1)`
//!   instead of a deep walk), and
//! * a [`Kernel`] memoizes `subsumes(big, small)` on the id pair. Because
//!   `subsumes` is a pure function of the two forms (it never consults the
//!   schema) and interned forms are immutable, a memo entry can never go
//!   stale — schema growth adds *new* ids but never invalidates old ones.
//!
//! The kernel's counters are [`classic_obs`] registry series
//! ([`KernelObs`]); [`KernelStats`] is a point-in-time *view* over them,
//! so the bench harness (experiment E9), `Kb` callers, and the metrics
//! exposition all read the same atomics.

use crate::normal::NormalForm;
use crate::subsume::subsumes;
use classic_obs::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of an interned normal form. Two [`NfId`]s are equal iff the
/// forms they denote are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NfId(u32);

impl NfId {
    /// Raw index into the interner's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hash-consing table: each distinct normal form is stored once and named
/// by a dense [`NfId`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    by_form: HashMap<Arc<NormalForm>, NfId>,
    forms: Vec<Arc<NormalForm>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// The id for `nf`, interning a copy if this form is new.
    pub fn intern(&mut self, nf: &NormalForm) -> NfId {
        if let Some(&id) = self.by_form.get(nf) {
            return id;
        }
        let id = NfId(self.forms.len() as u32);
        let arc = Arc::new(nf.clone());
        self.forms.push(Arc::clone(&arc));
        self.by_form.insert(arc, id);
        id
    }

    /// The form an id denotes.
    pub fn resolve(&self, id: NfId) -> &NormalForm {
        &self.forms[id.index()]
    }

    /// Number of distinct forms interned.
    pub fn len(&self) -> usize {
        self.forms.len()
    }

    /// Whether no form has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.forms.is_empty()
    }
}

/// Counter snapshot for the kernel (experiment E9's instrumentation).
/// Since the observability migration this is a *view*: every field except
/// `interned` (a structural fact of the interner) reads a
/// [`classic_obs`] registry series via [`KernelObs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Distinct normal forms interned.
    pub interned: u64,
    /// Intern calls answered by an existing id.
    pub intern_hits: u64,
    /// Subsumption queries answered from the memo (or by id equality).
    pub memo_hits: u64,
    /// Subsumption queries that ran the structural comparison.
    pub memo_misses: u64,
    /// Times the taxonomy's closure bitsets were re-laid-out for capacity.
    pub closure_rebuilds: u64,
}

/// The kernel's metric handles: `classic-obs` counters shared with the
/// owning registry (or detached stand-ins when the kernel was built
/// without one). Cloning shares the underlying atomics.
#[derive(Debug, Clone)]
pub struct KernelObs {
    /// Every memoized subsumption query (hit or miss).
    pub subsume_tests: Counter,
    /// Queries answered by id equality or the memo.
    pub memo_hits: Counter,
    /// Queries that ran the structural comparison.
    pub memo_misses: Counter,
    /// Intern calls answered by an existing id.
    pub intern_hits: Counter,
    /// Distinct normal forms currently interned.
    pub interned: Gauge,
    /// Closure bitset re-layouts (bumped by the taxonomy).
    pub closure_rebuilds: Counter,
}

impl KernelObs {
    /// Handles not attached to any registry (standalone kernels, tests).
    pub fn detached() -> KernelObs {
        KernelObs {
            subsume_tests: Counter::detached("classic_subsume_tests_total"),
            memo_hits: Counter::detached("classic_subsume_memo_hits_total"),
            memo_misses: Counter::detached("classic_subsume_memo_misses_total"),
            intern_hits: Counter::detached("classic_intern_hits_total"),
            interned: Gauge::detached("classic_nf_interned"),
            closure_rebuilds: Counter::detached("classic_closure_rebuilds_total"),
        }
    }

    /// Register the kernel series in `registry`. Panics on a name
    /// collision — the kernel is registered once per registry, by its
    /// owning taxonomy.
    pub fn register(registry: &Registry) -> KernelObs {
        let c = |name: &str, help: &str| {
            registry
                .counter(name, help)
                .expect("kernel metric registration")
        };
        KernelObs {
            subsume_tests: c(
                "classic_subsume_tests_total",
                "memoized subsumption queries (hits + misses)",
            ),
            memo_hits: c(
                "classic_subsume_memo_hits_total",
                "subsumption queries answered by id equality or the memo",
            ),
            memo_misses: c(
                "classic_subsume_memo_misses_total",
                "subsumption queries that ran the structural comparison",
            ),
            intern_hits: c(
                "classic_intern_hits_total",
                "normal-form intern calls answered by an existing id",
            ),
            interned: registry
                .gauge("classic_nf_interned", "distinct normal forms interned")
                .expect("kernel metric registration"),
            closure_rebuilds: c(
                "classic_closure_rebuilds_total",
                "taxonomy closure bitset re-layouts",
            ),
        }
    }
}

/// The memoized subsumption kernel: an interner plus a `(big, small) →
/// bool` cache over id pairs.
#[derive(Debug, Clone)]
pub struct Kernel {
    interner: Interner,
    memo: HashMap<(NfId, NfId), bool>,
    obs: KernelObs,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// An empty kernel with detached (registry-less) counters.
    pub fn new() -> Self {
        Kernel::with_obs(KernelObs::detached())
    }

    /// An empty kernel whose counters are the given obs handles.
    pub fn with_obs(obs: KernelObs) -> Self {
        Kernel {
            interner: Interner::new(),
            memo: HashMap::new(),
            obs,
        }
    }

    /// The kernel's metric handles (the taxonomy bumps
    /// `closure_rebuilds` through this).
    pub fn obs(&self) -> &KernelObs {
        &self.obs
    }

    /// Intern `nf`, returning its id.
    pub fn intern(&mut self, nf: &NormalForm) -> NfId {
        let before = self.interner.len();
        let id = self.interner.intern(nf);
        if self.interner.len() == before {
            self.obs.intern_hits.bump();
        } else {
            self.obs.interned.set(self.interner.len() as u64);
        }
        id
    }

    /// The form behind an id.
    pub fn nf(&self, id: NfId) -> &NormalForm {
        self.interner.resolve(id)
    }

    /// Memoized `subsumes(big, small)` over interned ids.
    ///
    /// Identical ids answer immediately (subsumption is reflexive); other
    /// pairs consult the memo and fall back to the structural test.
    pub fn subsumes_ids(&mut self, big: NfId, small: NfId) -> bool {
        self.obs.subsume_tests.bump();
        if big == small {
            self.obs.memo_hits.bump();
            return true;
        }
        if let Some(&v) = self.memo.get(&(big, small)) {
            self.obs.memo_hits.bump();
            return v;
        }
        self.obs.memo_misses.bump();
        let v = subsumes(self.interner.resolve(big), self.interner.resolve(small));
        self.memo.insert((big, small), v);
        v
    }

    /// Intern both forms and answer `subsumes(big, small)` memoized.
    pub fn subsumes_nf(&mut self, big: &NormalForm, small: &NormalForm) -> bool {
        let b = self.intern(big);
        let s = self.intern(small);
        self.subsumes_ids(b, s)
    }

    /// Snapshot of every counter — a view over the obs registry series
    /// (plus the interner's structural size).
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            interned: self.interner.len() as u64,
            intern_hits: self.obs.intern_hits.get(),
            memo_hits: self.obs.memo_hits.get(),
            memo_misses: self.obs.memo_misses.get(),
            closure_rebuilds: self.obs.closure_rebuilds.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::Concept;
    use crate::normal::normalize;
    use crate::schema::Schema;

    #[test]
    fn interning_is_hash_consing() {
        let mut schema = Schema::new();
        let r = schema.define_role("r").unwrap();
        let mut interner = Interner::new();
        let a = normalize(&Concept::AtLeast(2, r), &schema).unwrap();
        let b = normalize(
            &Concept::and([Concept::AtLeast(2, r), Concept::AtLeast(1, r)]),
            &schema,
        )
        .unwrap();
        let c = normalize(&Concept::AtLeast(3, r), &schema).unwrap();
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        let ic = interner.intern(&c);
        assert_eq!(ia, ib, "structurally equal forms share an id");
        assert_ne!(ia, ic);
        assert_eq!(interner.len(), 2, "the duplicate did not grow the arena");
        assert_eq!(interner.resolve(ia), &a);
    }

    #[test]
    fn all_bottoms_share_one_id() {
        let mut schema = Schema::new();
        let r = schema.define_role("r").unwrap();
        let s = schema.define_role("s").unwrap();
        let mut interner = Interner::new();
        let b1 = normalize(
            &Concept::and([Concept::AtLeast(2, r), Concept::AtMost(1, r)]),
            &schema,
        )
        .unwrap();
        let b2 = normalize(
            &Concept::and([Concept::AtLeast(5, s), Concept::AtMost(0, s)]),
            &schema,
        )
        .unwrap();
        assert!(b1.is_incoherent() && b2.is_incoherent());
        assert_eq!(interner.intern(&b1), interner.intern(&b2));
    }

    #[test]
    fn kernel_memoizes_and_agrees_with_subsumes() {
        let mut schema = Schema::new();
        let r = schema.define_role("r").unwrap();
        let big = normalize(&Concept::AtLeast(1, r), &schema).unwrap();
        let small = normalize(&Concept::AtLeast(3, r), &schema).unwrap();
        let mut kernel = Kernel::new();
        assert_eq!(kernel.subsumes_nf(&big, &small), subsumes(&big, &small));
        assert_eq!(kernel.subsumes_nf(&small, &big), subsumes(&small, &big));
        let before = kernel.stats();
        assert_eq!(before.memo_misses, 2);
        // Repeat: all hits, no new misses.
        assert!(kernel.subsumes_nf(&big, &small));
        assert!(!kernel.subsumes_nf(&small, &big));
        let after = kernel.stats();
        assert_eq!(after.memo_misses, before.memo_misses);
        assert_eq!(after.memo_hits, before.memo_hits + 2);
    }

    #[test]
    fn reflexive_pairs_never_miss() {
        let mut schema = Schema::new();
        let r = schema.define_role("r").unwrap();
        let nf = normalize(&Concept::AtLeast(1, r), &schema).unwrap();
        let mut kernel = Kernel::new();
        let id = kernel.intern(&nf);
        assert!(kernel.subsumes_ids(id, id));
        assert_eq!(kernel.stats().memo_misses, 0);
    }
}
