//! Classification: maintaining the induced IS-A hierarchy.
//!
//! "The subsumption relationship induces an acyclic directed graph over the
//! space of named concepts — the (in)famous IS-A hierarchy" (paper §3.5.1,
//! including its footnote: for non-primitive concepts the hierarchy "is
//! induced by the definitions, and is not an independent structure under
//! control of the user"). The [`Taxonomy`] maintains the Hasse diagram of
//! that order: each node's `parents`/`children` are its *immediate*
//! subsumers/subsumees.
//!
//! "Classification is the operation by which all known subsuming and
//! subsumed concepts are found" (§5 footnote 6). Insertion uses the
//! classical two-phase traversal: a top-down search for the most specific
//! subsumers (pruned — a node's children are only examined if the node
//! itself subsumes the candidate), then a bottom-up search for the most
//! general subsumees among the common descendants. The same traversal
//! classifies *query* concepts without inserting them, which is what makes
//! query answering cheap (§5; experiments E2/E3), and its top-down half,
//! [`Taxonomy::walk_down`], realizes individuals too, given a different
//! node test.
//!
//! A transitive-closure bitset index accelerates the traversal beyond the
//! seed algorithm: each node keeps its full ancestor and descendant sets
//! as bit rows, making reachability `O(words)` instead of a DAG walk. The
//! index is maintained incrementally on insert (Hasse-edge rewiring never
//! changes reachability, so updates are add-only) and re-laid-out only
//! when capacity grows, which [`KernelStats::closure_rebuilds`] counts.
//!
//! Every subsumption test is a plain [`subsumes`] call against the form
//! the node already stores: a test is a function of two descriptions, so
//! classifying a query writes nothing. [`Taxonomy::classify_brute`] stays
//! a pure edge-walking oracle for the property tests.

use crate::normal::NormalForm;
use crate::subsume::subsumes;
use crate::symbol::ConceptName;
use classic_obs::{Counter, Histogram, Registry};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Index of a node in the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The node for `THING` (top of the hierarchy).
    pub const TOP: NodeId = NodeId(0);
    /// The node for the empty concept (bottom).
    pub const BOTTOM: NodeId = NodeId(1);

    /// Raw index into the taxonomy's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the IS-A DAG: a concept meaning plus every name bound to it.
#[derive(Debug, Clone)]
pub struct Node {
    /// The normal form this node stands for.
    pub nf: NormalForm,
    /// All schema names classified as equivalent to this meaning.
    /// ("Two concepts are equivalent if and only if they subsume each
    /// other", §3.5.1 — equivalent definitions share a node.)
    pub names: Vec<ConceptName>,
    /// Immediate subsumers.
    pub parents: BTreeSet<NodeId>,
    /// Immediate subsumees.
    pub children: BTreeSet<NodeId>,
}

/// Result of classifying a concept against the taxonomy.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Most specific subsumers ("immediate parents").
    pub parents: Vec<NodeId>,
    /// Most general subsumees ("immediate children").
    pub children: Vec<NodeId>,
    /// A node with the same meaning, if one exists.
    pub equivalent: Option<NodeId>,
    /// Number of subsumption tests performed (experiment E2's cost metric).
    pub tests: usize,
}

/// Counter snapshot for classification, read by [`Taxonomy::kernel_stats`].
///
/// Classification memoizes nothing: `intern_hits` and `memo_hits` read 0
/// and `memo_misses` equals `subsume_tests`, so a caller that counts
/// tests as hits + misses reads the same total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Subsumption tests made by classification
    /// (`classic_subsume_tests_total`).
    pub subsume_tests: u64,
    /// The taxonomy's node count, `TOP` and `BOTTOM` included: the
    /// distinct normal forms it holds.
    pub interned: u64,
    /// Always 0: no form is interned.
    pub intern_hits: u64,
    /// Always 0: no test is memoized.
    pub memo_hits: u64,
    /// Equal to `subsume_tests`: every test ran the structural comparison.
    pub memo_misses: u64,
    /// Times the taxonomy's closure bitsets were re-laid-out for capacity.
    pub closure_rebuilds: u64,
}

/// Flattened ancestor/descendant bitsets, one row of `words` u64s per node.
///
/// Rows store *strict* reachability (a node is never in its own row).
/// Updates are add-only: inserting a node unions its parents' ancestor
/// rows (plus the parent bits) and its children's descendant rows (plus
/// the child bits), then ORs its own bit into every ancestor's descendant
/// row and every descendant's ancestor row. Removing the Hasse edges the
/// new node mediates does not change reachability, so nothing is cleared.
#[derive(Debug, Clone)]
struct Closure {
    /// u64 words per row.
    words: usize,
    /// Number of rows (== taxonomy nodes).
    len: usize,
    /// Strict-ancestor rows, row-major `[len][words]`.
    anc: Vec<u64>,
    /// Strict-descendant rows, row-major `[len][words]`.
    desc: Vec<u64>,
}

/// Iterate the set bit positions of a row.
fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let base = w * 64;
        std::iter::successors(if word == 0 { None } else { Some(word) }, |&rest| {
            let rest = rest & (rest - 1);
            if rest == 0 {
                None
            } else {
                Some(rest)
            }
        })
        .map(move |bits| base + bits.trailing_zeros() as usize)
    })
}

impl Closure {
    fn new() -> Closure {
        Closure {
            words: 1,
            len: 0,
            anc: Vec::new(),
            desc: Vec::new(),
        }
    }

    fn bit(id: usize) -> (usize, u64) {
        (id / 64, 1u64 << (id % 64))
    }

    fn anc_row(&self, id: usize) -> &[u64] {
        &self.anc[id * self.words..(id + 1) * self.words]
    }

    fn desc_row(&self, id: usize) -> &[u64] {
        &self.desc[id * self.words..(id + 1) * self.words]
    }

    /// Is `anc` a strict ancestor of `id`?
    fn has_ancestor(&self, id: usize, anc: usize) -> bool {
        let (w, b) = Self::bit(anc);
        self.anc_row(id)[w] & b != 0
    }

    /// Append a row for node `self.len` with the given immediate
    /// neighbors, updating every affected row. Returns `true` if the
    /// index was re-laid-out to grow capacity (a "closure rebuild").
    fn push(&mut self, parents: &BTreeSet<NodeId>, children: &BTreeSet<NodeId>) -> bool {
        let id = self.len;
        let rebuilt = id >= self.words * 64;
        if rebuilt {
            self.grow();
        }
        self.len += 1;
        self.anc.resize(self.len * self.words, 0);
        self.desc.resize(self.len * self.words, 0);
        for &p in parents {
            let pi = p.index();
            for w in 0..self.words {
                let v = self.anc[pi * self.words + w];
                self.anc[id * self.words + w] |= v;
            }
            let (w, b) = Self::bit(pi);
            self.anc[id * self.words + w] |= b;
        }
        for &c in children {
            let ci = c.index();
            for w in 0..self.words {
                let v = self.desc[ci * self.words + w];
                self.desc[id * self.words + w] |= v;
            }
            let (w, b) = Self::bit(ci);
            self.desc[id * self.words + w] |= b;
        }
        let (nw, nb) = Self::bit(id);
        let anc_row = self.anc_row(id).to_vec();
        for a in iter_bits(&anc_row) {
            self.desc[a * self.words + nw] |= nb;
        }
        let desc_row = self.desc_row(id).to_vec();
        for d in iter_bits(&desc_row) {
            self.anc[d * self.words + nw] |= nb;
        }
        rebuilt
    }

    /// The inverse of the most recent [`Closure::push`]: drop the last
    /// row and its bit from every other row (the stride stays grown).
    fn pop(&mut self) {
        self.len -= 1;
        let (w, b) = Self::bit(self.len);
        for rows in [&mut self.anc, &mut self.desc] {
            rows.truncate(self.len * self.words);
            for row in rows.chunks_exact_mut(self.words) {
                row[w] &= !b;
            }
        }
    }

    /// Is some node strictly below `above` and strictly above `below`?
    fn mediated(&self, above: usize, below: usize) -> bool {
        let (desc, anc) = (self.desc_row(above), self.anc_row(below));
        desc.iter().zip(anc).any(|(d, a)| d & a != 0)
    }

    /// Double the row stride, copying existing rows into the new layout.
    /// Reachability content is unchanged — only the memory layout moves.
    fn grow(&mut self) {
        let new_words = self.words * 2;
        let relayout = |old: &[u64], words: usize, len: usize| {
            let mut out = vec![0u64; len * new_words];
            for i in 0..len {
                out[i * new_words..i * new_words + words]
                    .copy_from_slice(&old[i * words..(i + 1) * words]);
            }
            out
        };
        self.anc = relayout(&self.anc, self.words, self.len);
        self.desc = relayout(&self.desc, self.words, self.len);
        self.words = new_words;
    }
}

/// The IS-A hierarchy over named (and transiently, query) concepts.
///
/// The diagram and its closure sit behind one `Arc`: only DDL —
/// [`Taxonomy::insert`] and its inverse — writes them, so every clone
/// (a KB snapshot) shares them until the schema changes.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    graph: Arc<Graph>,
    /// Classifications performed (registry counter).
    classify_total: Counter,
    /// Classification latency, nanoseconds (fills at `ObsLevel::Full`).
    classify_ns: Histogram,
    /// Subsumption tests made by classification (registry counter).
    subsume_tests: Counter,
    /// Closure bitset re-layouts (registry counter).
    closure_rebuilds: Counter,
}

/// The part of a [`Taxonomy`] that grows with the schema.
#[derive(Debug, Clone)]
struct Graph {
    nodes: Vec<Node>,
    by_name: HashMap<ConceptName, NodeId>,
    /// Transitive-closure reachability index, parallel to `nodes`.
    closure: Closure,
}

impl Default for Taxonomy {
    fn default() -> Self {
        Self::new()
    }
}

impl Taxonomy {
    /// A taxonomy containing only `THING` and the empty concept, its
    /// classification metrics registered in a registry of its own.
    pub fn new() -> Self {
        Self::with_obs(&Registry::new())
    }

    /// A taxonomy whose classification metrics are registered in
    /// `registry`. The owning `Kb` calls this so `KernelStats` and the
    /// metrics exposition read the same atomics.
    pub fn with_obs(registry: &Registry) -> Self {
        let counter = |name: &str, help: &str| {
            registry
                .counter(name, help)
                .expect("taxonomy metric registration")
        };
        let classify_total = counter(
            "classic_classify_total",
            "taxonomy classifications performed",
        );
        let classify_ns = registry
            .duration_histogram("classic_classify_ns", "classification latency, nanoseconds")
            .expect("taxonomy metric registration");
        let subsume_tests = counter(
            "classic_subsume_tests_total",
            "subsumption tests made by classification",
        );
        let closure_rebuilds = counter(
            "classic_closure_rebuilds_total",
            "taxonomy closure bitset re-layouts",
        );
        let top = Node {
            nf: NormalForm::top(),
            names: Vec::new(),
            parents: BTreeSet::new(),
            children: BTreeSet::from([NodeId::BOTTOM]),
        };
        let bottom = Node {
            nf: NormalForm::bottom(crate::error::Clash::Incoherent),
            names: Vec::new(),
            parents: BTreeSet::from([NodeId::TOP]),
            children: BTreeSet::new(),
        };
        let mut closure = Closure::new();
        closure.push(&BTreeSet::new(), &BTreeSet::new());
        closure.push(&BTreeSet::from([NodeId::TOP]), &BTreeSet::new());
        Taxonomy {
            graph: Arc::new(Graph {
                nodes: vec![top, bottom],
                by_name: HashMap::new(),
                closure,
            }),
            classify_total,
            classify_ns,
            subsume_tests,
            closure_rebuilds,
        }
    }

    /// The node stored at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.graph.nodes[id.index()]
    }

    /// Total nodes, including `TOP` and `BOTTOM`.
    pub fn len(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Never empty: `TOP` and `BOTTOM` are always present.
    pub fn is_empty(&self) -> bool {
        false // TOP and BOTTOM are always present
    }

    /// The node a schema name was classified into, if any.
    pub fn node_of(&self, name: ConceptName) -> Option<NodeId> {
        self.graph.by_name.get(&name).copied()
    }

    /// Snapshot of the classification counters: subsumption tests and
    /// closure rebuilds (see [`KernelStats`] for the fields that read 0).
    pub fn kernel_stats(&self) -> KernelStats {
        let tests = self.subsume_tests.get();
        KernelStats {
            subsume_tests: tests,
            interned: self.graph.nodes.len() as u64,
            intern_hits: 0,
            memo_hits: 0,
            memo_misses: tests,
            closure_rebuilds: self.closure_rebuilds.get(),
        }
    }

    /// Whether `other` holds this taxonomy's diagram and closure too (the
    /// same allocation), as `(shared, 1)`: the probe behind
    /// `Kb::sharing_with`.
    #[doc(hidden)]
    pub fn sharing_with(&self, other: &Taxonomy) -> (usize, usize) {
        (usize::from(Arc::ptr_eq(&self.graph, &other.graph)), 1)
    }

    /// All node ids except TOP/BOTTOM, in insertion order.
    pub fn interior_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (2..self.graph.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Classify `nf` against the current taxonomy without inserting it.
    ///
    /// Each subsumption test compares `nf` with a node's stored form;
    /// frontier minimality and subsumee candidate generation use the
    /// closure bitsets. Takes no lock and writes nothing but its counters
    /// and span.
    pub fn classify(&self, nf: &NormalForm) -> Classification {
        let _span = classic_obs::span_timed("taxonomy.classify", &self.classify_ns);
        self.classify_total.bump();
        let mut tests = 0usize;
        if nf.is_incoherent() {
            return Classification {
                parents: self.node(NodeId::BOTTOM).parents.iter().copied().collect(),
                children: Vec::new(),
                equivalent: Some(NodeId::BOTTOM),
                tests,
            };
        }
        let (_, parents) = self.walk_down(|node| self.test(node, nf, &mut tests));
        // Equivalence: a parent that is also subsumed by nf.
        let mut equivalent = None;
        for &p in &parents {
            if self.test(nf, &self.node(p).nf, &mut tests) {
                equivalent = Some(p);
                break;
            }
        }
        let children = if equivalent.is_some() {
            Vec::new()
        } else {
            self.most_general_subsumees(nf, &parents, &mut tests)
        };
        classic_obs::event("subsume_tests", tests as u64);
        Classification {
            parents,
            children,
            equivalent,
            tests,
        }
    }

    /// Insert a named concept, wiring it into the Hasse diagram.
    /// Returns the node it lives at (an existing node if the meaning is
    /// already present) plus the classification report.
    pub fn insert(&mut self, name: ConceptName, nf: NormalForm) -> (NodeId, Classification) {
        let report = self.classify(&nf);
        let graph = Arc::make_mut(&mut self.graph);
        if let Some(eq) = report.equivalent {
            graph.nodes[eq.index()].names.push(name);
            graph.by_name.insert(name, eq);
            return (eq, report);
        }
        let id = NodeId(graph.nodes.len() as u32);
        let parents: BTreeSet<NodeId> = report.parents.iter().copied().collect();
        let children: BTreeSet<NodeId> = if report.children.is_empty() {
            BTreeSet::from([NodeId::BOTTOM])
        } else {
            report.children.iter().copied().collect()
        };
        // Remove direct parent→child edges now mediated by the new node.
        // (Reachability is unchanged, so the closure index needs no
        // clearing — only the new node's add-only update below.)
        for &p in &parents {
            for &c in &children {
                graph.nodes[p.index()].children.remove(&c);
                graph.nodes[c.index()].parents.remove(&p);
            }
        }
        for &p in &parents {
            graph.nodes[p.index()].children.insert(id);
        }
        for &c in &children {
            graph.nodes[c.index()].parents.insert(id);
        }
        if graph.closure.push(&parents, &children) {
            self.closure_rebuilds.bump();
        }
        graph.nodes.push(Node {
            nf,
            names: vec![name],
            parents,
            children,
        });
        graph.by_name.insert(name, id);
        (id, report)
    }

    /// The inverse of the most recent [`Taxonomy::insert`], which bound
    /// `name` (a refused `define-concept`; a name the taxonomy does not
    /// hold is left alone). A node the insert created is unwired: each
    /// parent→child edge it mediated comes back unless another node
    /// still mediates it — exactly the edges a Hasse diagram of what
    /// remains has.
    pub fn uninsert(&mut self, name: ConceptName) {
        let Some(&id) = self.graph.by_name.get(&name) else {
            return;
        };
        let graph = Arc::make_mut(&mut self.graph);
        graph.by_name.remove(&name);
        let names = &mut graph.nodes[id.index()].names;
        names.pop();
        if !names.is_empty() || id == NodeId::TOP || id == NodeId::BOTTOM {
            return; // a further name for a node that was already there
        }
        let node = graph.nodes.pop().expect("the inserted node is the last");
        graph.closure.pop();
        for &p in &node.parents {
            graph.nodes[p.index()].children.remove(&id);
        }
        for &c in &node.children {
            graph.nodes[c.index()].parents.remove(&id);
        }
        for &p in &node.parents {
            for &c in &node.children {
                if !graph.closure.mediated(p.index(), c.index()) {
                    graph.nodes[p.index()].children.insert(c);
                    graph.nodes[c.index()].parents.insert(p);
                }
            }
        }
    }

    /// One subsumption test of a classification, counted in `tests` and
    /// in `classic_subsume_tests_total`.
    fn test(&self, big: &NormalForm, small: &NormalForm, tests: &mut usize) -> bool {
        *tests += 1;
        self.subsume_tests.bump();
        subsumes(big, small)
    }

    /// The pruned top-down walk that places a description under its
    /// most specific subsumers (§5): classification and recognition both
    /// make it, each with its own node test. `holds` is asked of a node's
    /// form at most once, and only after one of the node's parents held
    /// (`THING` holds unasked); nothing below a node that fails is asked,
    /// which is sound when `holds` is monotone down the hierarchy.
    ///
    /// Returns the nodes that held, `THING` included, and the minimal
    /// ones among them — those with no other holding node below — both
    /// ascending. Minimality is one closure-row probe per holding node;
    /// the walk allocates two bit rows and its queue, nothing per visited
    /// node.
    pub fn walk_down(
        &self,
        mut holds: impl FnMut(&NormalForm) -> bool,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let closure = &self.graph.closure;
        let (mut asked, mut held) = (vec![0u64; closure.words], vec![0u64; closure.words]);
        let (w, b) = Closure::bit(NodeId::TOP.index());
        (asked[w], held[w]) = (b, b);
        let mut queue = VecDeque::from([NodeId::TOP]);
        while let Some(n) = queue.pop_front() {
            for &c in &self.node(n).children {
                let (w, b) = Closure::bit(c.index());
                if c == NodeId::BOTTOM || asked[w] & b != 0 {
                    continue;
                }
                asked[w] |= b;
                if holds(&self.node(c).nf) {
                    held[w] |= b;
                    queue.push_back(c);
                }
            }
        }
        let held_nodes: Vec<NodeId> = iter_bits(&held).map(|n| NodeId(n as u32)).collect();
        let below = |n: &NodeId| {
            let row = closure.desc_row(n.index());
            row.iter().zip(&held).any(|(d, h)| d & h != 0)
        };
        let minimal = held_nodes.iter().copied().filter(|n| !below(n)).collect();
        (held_nodes, minimal)
    }

    /// Bottom-up search for the most general subsumees: candidates come
    /// from intersecting the parents' descendant bit rows instead of
    /// walking the DAG.
    fn most_general_subsumees(
        &self,
        nf: &NormalForm,
        parents: &[NodeId],
        tests: &mut usize,
    ) -> Vec<NodeId> {
        let words = self.graph.closure.words;
        let mut common = vec![u64::MAX; words];
        for &p in parents {
            for (w, slot) in common.iter_mut().enumerate() {
                *slot &= self.graph.closure.desc_row(p.index())[w];
            }
        }
        if parents.is_empty() {
            common.fill(0);
        }
        let mut selected: BTreeSet<NodeId> = BTreeSet::new();
        for m in iter_bits(&common) {
            if m == NodeId::BOTTOM.index() {
                continue;
            }
            if self.test(nf, &self.graph.nodes[m].nf, tests) {
                selected.insert(NodeId(m as u32));
            }
        }
        // Keep maximal elements only.
        selected
            .iter()
            .copied()
            .filter(|&m| {
                !selected
                    .iter()
                    .any(|&a| a != m && self.graph.closure.has_ancestor(m.index(), a.index()))
            })
            .collect()
    }

    /// All nodes strictly below `id` (descendants, excluding `id`),
    /// ascending: the bits of its closure row, read in place in
    /// `O(words + |result|)`.
    pub fn strict_descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        iter_bits(self.graph.closure.desc_row(id.index())).map(|i| NodeId(i as u32))
    }

    /// All nodes strictly above `id` (ancestors, excluding `id`),
    /// ascending, read in place like [`Self::strict_descendants`].
    pub fn strict_ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        iter_bits(self.graph.closure.anc_row(id.index())).map(|i| NodeId(i as u32))
    }

    /// Is `anc` strictly above `id`? `O(1)` closure probe.
    pub fn is_strict_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        self.graph.closure.has_ancestor(id.index(), anc.index())
    }

    /// Edge-walking reachability, independent of the closure index. Used
    /// by [`Taxonomy::classify_brute`] so the oracle cannot share a bug
    /// with the bitsets it checks.
    fn reachable_walk(&self, id: NodeId, up: bool) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::from([id]);
        while let Some(n) = queue.pop_front() {
            let next = if up {
                &self.node(n).parents
            } else {
                &self.node(n).children
            };
            for &m in next {
                if out.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        out.remove(&id);
        out
    }

    /// Brute-force classification: compare against every node in both
    /// directions, using only plain subsumption and edge walks. The naive
    /// baseline for experiment E2's ablation and the oracle for the
    /// classification property tests.
    pub fn classify_brute(&self, nf: &NormalForm) -> Classification {
        let mut tests = 0usize;
        if nf.is_incoherent() {
            return Classification {
                parents: self.node(NodeId::BOTTOM).parents.iter().copied().collect(),
                children: Vec::new(),
                equivalent: Some(NodeId::BOTTOM),
                tests,
            };
        }
        let mut above = Vec::new();
        let mut below = Vec::new();
        let mut equivalent = None;
        for i in 0..self.graph.nodes.len() {
            let id = NodeId(i as u32);
            if id == NodeId::BOTTOM {
                continue;
            }
            tests += 2;
            let up = subsumes(&self.node(id).nf, nf);
            let down = subsumes(nf, &self.node(id).nf);
            if up && down {
                equivalent = Some(id);
            } else if up {
                above.push(id);
            } else if down {
                below.push(id);
            }
        }
        if let Some(eq) = equivalent {
            // Match `classify`'s representation: an equivalent node stands
            // in for the parent frontier.
            return Classification {
                parents: vec![eq],
                children: Vec::new(),
                equivalent,
                tests,
            };
        }
        let above_set: BTreeSet<NodeId> = above.iter().copied().collect();
        let below_set: BTreeSet<NodeId> = below.iter().copied().collect();
        let parents = above
            .iter()
            .copied()
            .filter(|&a| {
                !self
                    .reachable_walk(a, false)
                    .iter()
                    .any(|d| above_set.contains(d))
            })
            .collect();
        let children = below
            .iter()
            .copied()
            .filter(|&b| {
                !self
                    .reachable_walk(b, true)
                    .iter()
                    .any(|a| below_set.contains(a))
            })
            .collect();
        Classification {
            parents,
            children,
            equivalent,
            tests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::Concept;
    use crate::normal::normalize;
    use crate::schema::Schema;

    struct Fix {
        schema: Schema,
        taxo: Taxonomy,
    }

    fn fix() -> Fix {
        Fix {
            schema: Schema::new(),
            taxo: Taxonomy::new(),
        }
    }

    fn define(f: &mut Fix, name: &str, c: Concept) -> NodeId {
        let id = f.schema.define_concept(name, c).unwrap();
        let nf = f.schema.concept_nf(id).unwrap().clone();
        f.taxo.insert(id, nf).0
    }

    fn named(f: &mut Fix, n: &str) -> Concept {
        Concept::Name(f.schema.symbols.concept(n))
    }

    #[test]
    fn fresh_taxonomy_has_top_and_bottom() {
        let f = fix();
        assert_eq!(f.taxo.len(), 2);
        assert!(f.taxo.node(NodeId::TOP).children.contains(&NodeId::BOTTOM));
        assert!(f.taxo.node(NodeId::BOTTOM).parents.contains(&NodeId::TOP));
        assert!(f.taxo.is_strict_ancestor(NodeId::TOP, NodeId::BOTTOM));
    }

    #[test]
    fn primitive_chain_classifies_linearly() {
        let mut f = fix();
        let car = define(&mut f, "CAR", Concept::primitive(Concept::thing(), "car"));
        let sports_parent = named(&mut f, "CAR");
        let sports = define(
            &mut f,
            "SPORTS-CAR",
            Concept::primitive(sports_parent, "sports-car"),
        );
        assert!(f.taxo.node(sports).parents.contains(&car));
        assert!(f.taxo.node(car).children.contains(&sports));
        // CAR's direct link to BOTTOM is rerouted through SPORTS-CAR.
        assert!(!f.taxo.node(car).children.contains(&NodeId::BOTTOM));
        assert!(f.taxo.node(sports).children.contains(&NodeId::BOTTOM));
    }

    #[test]
    fn defined_concept_slots_between_parent_and_child() {
        let mut f = fix();
        let r = f.schema.define_role("thing-driven").unwrap();
        let person = define(
            &mut f,
            "PERSON",
            Concept::primitive(Concept::thing(), "person"),
        );
        let p = named(&mut f, "PERSON");
        let driver3 = define(
            &mut f,
            "TRIPLE-DRIVER",
            Concept::and([p.clone(), Concept::AtLeast(3, r)]),
        );
        // Now insert PERSON-with-at-least-2, which belongs between.
        let driver2 = define(
            &mut f,
            "DOUBLE-DRIVER",
            Concept::and([p, Concept::AtLeast(2, r)]),
        );
        assert!(f.taxo.node(driver2).parents.contains(&person));
        assert!(f.taxo.node(driver2).children.contains(&driver3));
        assert!(!f.taxo.node(person).children.contains(&driver3));
        assert!(f.taxo.node(driver3).parents.contains(&driver2));
    }

    #[test]
    fn equivalent_definitions_share_a_node() {
        let mut f = fix();
        let r = f.schema.define_role("r").unwrap();
        let a = define(
            &mut f,
            "A",
            Concept::and([Concept::AtLeast(1, r), Concept::AtMost(1, r)]),
        );
        let b = define(&mut f, "B", Concept::exactly(1, r));
        assert_eq!(a, b);
        assert_eq!(f.taxo.node(a).names.len(), 2);
        let a_name = f.schema.symbols.find_concept("A").unwrap();
        let b_name = f.schema.symbols.find_concept("B").unwrap();
        assert_eq!(f.taxo.node_of(a_name), f.taxo.node_of(b_name));
    }

    #[test]
    fn incoherent_definition_goes_to_bottom() {
        let mut f = fix();
        let r = f.schema.define_role("r").unwrap();
        let bot = define(
            &mut f,
            "IMPOSSIBLE",
            Concept::and([Concept::AtLeast(2, r), Concept::AtMost(1, r)]),
        );
        assert_eq!(bot, NodeId::BOTTOM);
    }

    #[test]
    fn multiple_parents() {
        let mut f = fix();
        define(&mut f, "CAR", Concept::primitive(Concept::thing(), "car"));
        define(
            &mut f,
            "EXPENSIVE-THING",
            Concept::primitive(Concept::thing(), "expensive"),
        );
        let car = named(&mut f, "CAR");
        let exp = named(&mut f, "EXPENSIVE-THING");
        // §2.1.1: SPORTS-CAR as a primitive below (AND CAR EXPENSIVE-THING).
        let sports = define(
            &mut f,
            "SPORTS-CAR",
            Concept::primitive(Concept::and([car, exp]), "sports-car"),
        );
        let parents = &f.taxo.node(sports).parents;
        assert_eq!(parents.len(), 2);
    }

    #[test]
    fn classify_transient_matches_insert() {
        let mut f = fix();
        let r = f.schema.define_role("r").unwrap();
        define(&mut f, "CAR", Concept::primitive(Concept::thing(), "car"));
        let car = named(&mut f, "CAR");
        let q = Concept::and([car, Concept::AtLeast(1, r)]);
        let nf = normalize(&q, &f.schema).unwrap();
        let c1 = f.taxo.classify(&nf);
        let c2 = f.taxo.classify_brute(&nf);
        assert_eq!(c1.parents, c2.parents);
        assert_eq!(c1.children, c2.children);
        assert_eq!(c1.equivalent, c2.equivalent);
    }

    #[test]
    fn brute_and_pruned_agree_on_a_small_random_schema() {
        let mut f = fix();
        let roles: Vec<_> = (0..4)
            .map(|i| f.schema.define_role(&format!("r{i}")).unwrap())
            .collect();
        // A small diamond-ish schema.
        define(&mut f, "P0", Concept::primitive(Concept::thing(), "p0"));
        let p0 = named(&mut f, "P0");
        for i in 0..8u32 {
            let c = Concept::and([
                p0.clone(),
                Concept::AtLeast(i % 3, roles[(i % 4) as usize]),
                Concept::AtMost(3 + (i % 2), roles[((i + 1) % 4) as usize]),
            ]);
            define(&mut f, &format!("C{i}"), c);
        }
        for i in 0..8u32 {
            let q = Concept::and([p0.clone(), Concept::AtLeast(i % 4, roles[(i % 4) as usize])]);
            let nf = normalize(&q, &f.schema).unwrap();
            let a = f.taxo.classify(&nf);
            let b = f.taxo.classify_brute(&nf);
            assert_eq!(a.parents, b.parents, "parents differ for i={i}");
            assert_eq!(a.children, b.children, "children differ for i={i}");
            assert_eq!(a.equivalent, b.equivalent, "equiv differs for i={i}");
            assert!(a.tests <= b.tests, "pruned search did more tests");
        }
    }

    #[test]
    fn ancestors_and_descendants() {
        let mut f = fix();
        let car = define(&mut f, "CAR", Concept::primitive(Concept::thing(), "car"));
        let c = named(&mut f, "CAR");
        let sports = define(&mut f, "SPORTS-CAR", Concept::primitive(c, "sc"));
        let anc: BTreeSet<_> = f.taxo.strict_ancestors(sports).collect();
        assert!(anc.contains(&car));
        assert!(anc.contains(&NodeId::TOP));
        assert!(!anc.contains(&sports));
        let desc: BTreeSet<_> = f.taxo.strict_descendants(car).collect();
        assert!(desc.contains(&sports));
        assert!(desc.contains(&NodeId::BOTTOM));
        assert!(f.taxo.is_strict_ancestor(car, sports));
        assert!(!f.taxo.is_strict_ancestor(sports, car));
    }

    #[test]
    fn closure_matches_edge_walks_after_many_inserts() {
        // Cross the 64-node word boundary so `grow()` is exercised, then
        // check every node's bitset rows against a fresh edge walk.
        let mut f = fix();
        let roles: Vec<_> = (0..3)
            .map(|i| f.schema.define_role(&format!("r{i}")).unwrap())
            .collect();
        define(&mut f, "P0", Concept::primitive(Concept::thing(), "p0"));
        let p0 = named(&mut f, "P0");
        for i in 0..80u32 {
            let c = Concept::and([
                p0.clone(),
                Concept::AtLeast(i % 7, roles[(i % 3) as usize]),
                Concept::AtMost(7 + (i % 5), roles[((i + 1) % 3) as usize]),
            ]);
            define(&mut f, &format!("C{i}"), c);
        }
        assert!(f.taxo.len() > 64, "must cross the word boundary");
        assert!(
            f.taxo.kernel_stats().closure_rebuilds >= 1,
            "growth should have been counted"
        );
        for i in 0..f.taxo.len() {
            let id = NodeId(i as u32);
            assert_eq!(
                f.taxo.strict_descendants(id).collect::<BTreeSet<_>>(),
                f.taxo.reachable_walk(id, false),
                "desc rows diverge at node {i}"
            );
            assert_eq!(
                f.taxo.strict_ancestors(id).collect::<BTreeSet<_>>(),
                f.taxo.reachable_walk(id, true),
                "anc rows diverge at node {i}"
            );
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut f = fix();
        define(&mut f, "CAR", Concept::primitive(Concept::thing(), "car"));
        let snapshot = f.taxo.clone();
        let before = snapshot.len();
        let c = named(&mut f, "CAR");
        define(&mut f, "SPORTS-CAR", Concept::primitive(c, "sc"));
        assert_eq!(snapshot.len(), before);
        assert_eq!(f.taxo.len(), before + 1);
        // The clone still answers classifications.
        let nf = f
            .schema
            .concept_nf(f.schema.symbols.find_concept("CAR").unwrap());
        let nf = nf.unwrap().clone();
        let cls = snapshot.classify(&nf);
        assert!(cls.equivalent.is_some());
    }

    /// The shape of a taxonomy: every node's names and Hasse edges, and
    /// the closure index's view of who is above and below it.
    fn shape(t: &Taxonomy) -> Vec<String> {
        (0..t.len())
            .map(|i| {
                let id = NodeId(i as u32);
                let n = t.node(id);
                let up: Vec<_> = t.strict_ancestors(id).collect();
                let down: Vec<_> = t.strict_descendants(id).collect();
                format!(
                    "{:?} {:?} {:?} {up:?} {down:?}",
                    n.names, n.parents, n.children
                )
            })
            .collect()
    }

    #[test]
    fn uninsert_is_the_inverse_of_insert() {
        let mut f = fix();
        let r = f.schema.define_role("r").unwrap();
        let s = f.schema.define_role("s").unwrap();
        define(&mut f, "P", Concept::primitive(Concept::thing(), "p"));
        let p = named(&mut f, "P");
        // Specific before general, so later nodes splice in between
        // earlier ones; a second name for a node, for THING and for the
        // empty concept; enough nodes (> 64) to grow the closure's stride.
        let mut defs: Vec<Concept> = Vec::new();
        for n in (1..=4).rev() {
            defs.push(Concept::and([p.clone(), Concept::AtLeast(n, r)]));
            defs.push(Concept::and([
                Concept::AtLeast(n, r),
                Concept::AtMost(9 - n, s),
            ]));
            defs.push(Concept::AtLeast(n, r));
        }
        defs.push(Concept::and([Concept::AtLeast(2, r), p.clone()]));
        defs.push(Concept::thing());
        defs.push(Concept::and([
            Concept::AtLeast(2, r),
            Concept::AtMost(1, r),
        ]));
        defs.extend((0..60).map(|i| Concept::and([p.clone(), Concept::AtMost(100 + i, s)])));
        for (i, def) in defs.into_iter().enumerate() {
            let pinned = f.taxo.clone();
            let name = f.schema.define_concept(&format!("C{i}"), def).unwrap();
            let nf = f.schema.concept_nf(name).unwrap().clone();
            f.taxo.insert(name, nf.clone());
            f.taxo.uninsert(name);
            assert_eq!(shape(&f.taxo), shape(&pinned), "after C{i}");
            assert_eq!(f.taxo.node_of(name), None);
            f.taxo.uninsert(name); // a name it does not hold: left alone
            assert_eq!(shape(&f.taxo), shape(&pinned), "after C{i}, twice");
            f.taxo.insert(name, nf);
        }
        assert!(f.taxo.len() > 66);
    }
}
