//! Random concept-expression workloads (experiments E1 and E5).
//!
//! E1 measures the paper's §5 claim that subsumption runs "in time
//! proportional to the sizes of the two concepts", so the generator
//! produces *coherent* concepts of a controllable structural size over a
//! fixed vocabulary of roles and primitives. E5 measures normalization
//! and needs pairs of syntactically different but provably equivalent
//! expressions, produced by applying the §2.2 equivalences as rewrite
//! rules (AND reordering/flattening, ALL-over-AND splitting, ONE-OF
//! duplication into intersecting enumerations).

use classic_core::desc::{Concept, IndRef};
use classic_core::schema::Schema;
use classic_core::symbol::RoleId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the random concept generator.
#[derive(Debug, Clone)]
pub struct ConceptGenConfig {
    /// Number of roles in the vocabulary.
    pub roles: usize,
    /// Number of primitive concepts in the vocabulary.
    pub prims: usize,
    /// Pool of individual names usable in `ONE-OF`.
    pub individuals: usize,
    /// Maximum `ALL` nesting depth.
    pub max_depth: usize,
    /// RNG seed (all workloads are deterministic).
    pub seed: u64,
}

impl Default for ConceptGenConfig {
    fn default() -> Self {
        ConceptGenConfig {
            roles: 8,
            prims: 8,
            individuals: 16,
            max_depth: 3,
            seed: 0xC1A5_51C0,
        }
    }
}

/// Deterministic generator of coherent concept expressions.
pub struct ConceptGen {
    pub schema: Schema,
    roles: Vec<RoleId>,
    prims: Vec<Concept>,
    individuals: Vec<IndRef>,
    max_depth: usize,
    rng: StdRng,
}

impl ConceptGen {
    pub fn new(cfg: &ConceptGenConfig) -> ConceptGen {
        let mut schema = Schema::new();
        let roles: Vec<RoleId> = (0..cfg.roles)
            .map(|i| schema.define_role(&format!("r{i}")).expect("fresh role"))
            .collect();
        let prims: Vec<Concept> = (0..cfg.prims)
            .map(|i| {
                let name = format!("P{i}");
                schema
                    .define_concept(
                        &name,
                        Concept::primitive(Concept::thing(), &format!("p{i}")),
                    )
                    .expect("fresh prim");
                Concept::Name(schema.symbols.find_concept(&name).expect("just defined"))
            })
            .collect();
        let individuals: Vec<IndRef> = (0..cfg.individuals)
            .map(|i| IndRef::Classic(schema.symbols.individual(&format!("I{i}"))))
            .collect();
        ConceptGen {
            schema,
            roles,
            prims,
            individuals,
            max_depth: cfg.max_depth,
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    /// Generate a coherent concept with structural size ≈ `target_size`.
    ///
    /// Coherence by construction: per conjunction each role gets at most
    /// one `AT-LEAST` (≤ 3) and one `AT-MOST` (≥ 4), so bounds never
    /// cross; `ONE-OF` sets are non-empty; primitives have no disjoint
    /// groupings.
    pub fn concept(&mut self, target_size: usize) -> Concept {
        self.gen_conj(target_size, self.max_depth)
    }

    fn gen_conj(&mut self, budget: usize, depth: usize) -> Concept {
        let mut parts = Vec::new();
        let mut spent = 1usize; // the AND node
        let mut used_at_least = vec![false; self.roles.len()];
        let mut used_at_most = vec![false; self.roles.len()];
        // One ALL and one AT-LEAST per role per conjunction, and one
        // ONE-OF of size ≥ 3 (= the AT-LEAST ceiling) per conjunction:
        // together these keep every generated expression coherent — an
        // ALL's enumerated range can never undercut a sibling AT-LEAST,
        // and enumerations are never intersected at one level.
        let mut used_all = vec![false; self.roles.len()];
        let mut used_one_of = false;
        while spent < budget {
            let remaining = budget - spent;
            let choice = self.rng.gen_range(0..5u8);
            let part = match choice {
                0 => {
                    let p = self.prims[self.rng.gen_range(0..self.prims.len())].clone();
                    spent += 1;
                    p
                }
                1 => {
                    let r = self.rng.gen_range(0..self.roles.len());
                    if used_at_least[r] {
                        continue;
                    }
                    used_at_least[r] = true;
                    spent += 1;
                    Concept::AtLeast(self.rng.gen_range(0..=3), self.roles[r])
                }
                2 => {
                    let r = self.rng.gen_range(0..self.roles.len());
                    if used_at_most[r] {
                        continue;
                    }
                    used_at_most[r] = true;
                    spent += 1;
                    Concept::AtMost(self.rng.gen_range(4..=8), self.roles[r])
                }
                3 if depth > 0 && remaining >= 3 => {
                    let r = self.rng.gen_range(0..self.roles.len());
                    if used_all[r] {
                        continue;
                    }
                    used_all[r] = true;
                    let inner_budget = self.rng.gen_range(2..=remaining.min(budget / 2 + 2));
                    let inner = self.gen_conj(inner_budget, depth - 1);
                    spent += 1 + inner.size();
                    Concept::all(self.roles[r], inner)
                }
                _ => {
                    if used_one_of || remaining < 4 {
                        continue;
                    }
                    used_one_of = true;
                    let k = self.rng.gen_range(3..=4.min(self.individuals.len()));
                    let start = self.rng.gen_range(0..self.individuals.len() - k + 1);
                    spent += 1 + k;
                    Concept::OneOf(self.individuals[start..start + k].to_vec())
                }
            };
            parts.push(part);
        }
        match parts.len() {
            0 => Concept::thing(),
            1 => parts.pop().expect("one"),
            _ => Concept::And(parts),
        }
    }

    /// Produce `(c, c')` where `c'` is a semantics-preserving rewrite of
    /// `c` (the §2.2 equivalences run backwards): equivalent but
    /// syntactically different.
    pub fn equivalent_pair(&mut self, target_size: usize) -> (Concept, Concept) {
        let c = self.concept(target_size);
        let rewritten = self.rewrite(&c);
        (c, rewritten)
    }

    fn rewrite(&mut self, c: &Concept) -> Concept {
        match c {
            Concept::And(parts) => {
                // Flatten nested ANDs, rewrite parts, then rotate.
                let mut out: Vec<Concept> = Vec::new();
                for p in parts {
                    match self.rewrite(p) {
                        Concept::And(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() > 1 {
                    let k = self.rng.gen_range(0..out.len());
                    out.rotate_left(k);
                    // Duplicate one conjunct — idempotence of AND.
                    let dup = out[self.rng.gen_range(0..out.len())].clone();
                    out.push(dup);
                }
                Concept::And(out)
            }
            Concept::All(r, inner) => {
                let inner = self.rewrite(inner);
                // (ALL r (AND a b)) ⇝ (AND (ALL r a) (ALL r b))
                if let Concept::And(parts) = inner {
                    if parts.len() > 1 && self.rng.gen_bool(0.5) {
                        return Concept::And(
                            parts.into_iter().map(|p| Concept::all(*r, p)).collect(),
                        );
                    }
                    Concept::all(*r, Concept::And(parts))
                } else {
                    Concept::all(*r, inner)
                }
            }
            Concept::OneOf(inds) if inds.len() > 1 => {
                // (ONE-OF S) ⇝ (AND (ONE-OF S ∪ X) (ONE-OF S ∪ Y)) with
                // X ∩ Y disjoint from each other, so the intersection is S.
                let extra_a = self.fresh_extra(inds);
                let extra_b = self.fresh_extra(inds);
                if extra_a != extra_b {
                    let mut a = inds.clone();
                    a.push(extra_a);
                    let mut b = inds.clone();
                    b.push(extra_b);
                    Concept::And(vec![Concept::OneOf(a), Concept::OneOf(b)])
                } else {
                    Concept::OneOf(inds.clone())
                }
            }
            other => other.clone(),
        }
    }

    fn fresh_extra(&mut self, exclude: &[IndRef]) -> IndRef {
        loop {
            let cand = self.individuals[self.rng.gen_range(0..self.individuals.len())].clone();
            if !exclude.contains(&cand) {
                return cand;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::normal::normalize;
    use classic_core::subsume::{equivalent, subsumes};

    #[test]
    fn generated_concepts_are_coherent_and_sized() {
        let mut g = ConceptGen::new(&ConceptGenConfig::default());
        for size in [4, 16, 64, 256] {
            let c = g.concept(size);
            assert!(c.size() >= size / 2, "size {} << target {size}", c.size());
            let nf = normalize(&c, &g.schema).unwrap();
            assert!(!nf.is_incoherent(), "generator produced ⊥ at size {size}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = ConceptGen::new(&ConceptGenConfig::default());
        let mut b = ConceptGen::new(&ConceptGenConfig::default());
        for _ in 0..10 {
            assert_eq!(a.concept(32), b.concept(32));
        }
    }

    #[test]
    fn equivalent_pairs_are_equivalent() {
        let mut g = ConceptGen::new(&ConceptGenConfig::default());
        for _ in 0..50 {
            let (c, c2) = g.equivalent_pair(24);
            let n1 = normalize(&c, &g.schema).unwrap();
            let n2 = normalize(&c2, &g.schema).unwrap();
            assert!(equivalent(&n1, &n2), "rewrite broke equivalence");
            // And the normal forms are structurally identical (the §2.2
            // canonicalization property).
            assert_eq!(n1, n2);
        }
    }

    #[test]
    fn generated_pairs_exercise_subsumption_both_ways() {
        // Sanity: among random pairs, subsumption holds sometimes and
        // fails sometimes (the benchmark isn't measuring a constant path).
        let mut g = ConceptGen::new(&ConceptGenConfig::default());
        let mut holds = 0;
        let mut fails = 0;
        for _ in 0..40 {
            let a = g.concept(12);
            let b = g.concept(12);
            let b_and_a = Concept::And(vec![b.clone(), a.clone()]);
            let na = normalize(&a, &g.schema).unwrap();
            let nboth = normalize(&b_and_a, &g.schema).unwrap();
            if subsumes(&na, &nboth) {
                holds += 1; // must always hold (conjunction is below conjunct)
            }
            let nb = normalize(&b, &g.schema).unwrap();
            if !subsumes(&na, &nb) {
                fails += 1;
            }
        }
        assert_eq!(holds, 40);
        assert!(fails > 0);
    }
}
