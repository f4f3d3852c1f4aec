//! Explanation: *why* an individual is (or is not) recognized under a
//! concept.
//!
//! The 1989 paper presents recognition as a black box; the deployed
//! CLASSIC family famously grew an explanation facility because users of
//! the configurator applications demanded to know why the system drew (or
//! refused) a conclusion. This module is that extension for the
//! reproduction: [`Kb::explain_instance`] decomposes a concept's normal
//! form into individual requirements and reports, for each, whether the
//! individual's derived description provably satisfies it — the same
//! checks `known_instance` performs, kept rather than short-circuited.

use crate::individual::IndId;
use crate::kb::Kb;
use classic_core::desc::IndRef;
use classic_core::error::Result;
use classic_core::normal::NormalForm;
use classic_core::schema::TestArg;
use classic_core::subsume::subsumes;
use classic_core::symbol::ConceptName;

/// One atomic requirement of a concept, with its status for an individual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requirement {
    /// Human-readable requirement, e.g. `"at least 2 fillers for
    /// thing-driven (has 1)"`.
    pub description: String,
    /// Provably satisfied given current knowledge? Under the open world a
    /// `false` means *not provable*, not *provably false*.
    pub satisfied: bool,
}

/// The decomposed verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// Conjunction of all requirement statuses (= `known_instance`).
    pub satisfied: bool,
    /// Every requirement the concept imposes, each with its status.
    pub requirements: Vec<Requirement>,
}

impl Explanation {
    /// The requirements that block recognition.
    pub fn missing(&self) -> Vec<&Requirement> {
        self.requirements.iter().filter(|r| !r.satisfied).collect()
    }

    /// Render as one line per requirement, ✓/✗-prefixed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.requirements {
            out.push_str(if r.satisfied { "  ✓ " } else { "  ✗ " });
            out.push_str(&r.description);
            out.push('\n');
        }
        if self.requirements.is_empty() {
            out.push_str("  (no requirements — THING)\n");
        }
        out
    }
}

impl Kb {
    /// Explain membership of `id` in the named concept.
    pub fn explain_membership(&self, id: IndId, concept: ConceptName) -> Result<Explanation> {
        let nf = self.schema().concept_nf(concept)?.clone();
        Ok(self.explain_instance(id, &nf))
    }

    /// Decompose `nf` into requirements and evaluate each against the
    /// individual's derived description. The conjunction of the statuses
    /// equals [`Kb::known_instance`].
    pub(crate) fn explain_instance(&self, id: IndId, nf: &NormalForm) -> Explanation {
        let mut reqs: Vec<Requirement> = Vec::new();
        let symbols = &self.schema().symbols;
        let ind = self.ind(id);
        let d = &ind.derived;

        if nf.is_incoherent() {
            return Explanation {
                satisfied: false,
                requirements: vec![Requirement {
                    description: "the concept is incoherent (⊥) — nothing can satisfy it".into(),
                    satisfied: false,
                }],
            };
        }
        if nf.layer != classic_core::Layer::Thing {
            reqs.push(Requirement {
                description: format!("must be a {}", nf.layer),
                satisfied: nf.layer.subsumes(d.layer),
            });
        }
        for &p in &nf.prims {
            let pc = self.schema().prim_concept(p);
            reqs.push(Requirement {
                description: format!("must be asserted under primitive {}", pc.display(symbols)),
                satisfied: d.prims.contains(&p),
            });
        }
        for &t in &nf.tests {
            let passed = d.tests.contains(&t) || {
                let name = symbols.individual_name(ind.name);
                self.schema()
                    .run_test(t, &TestArg::Ind(Some(name), d))
                    .unwrap_or(false)
            };
            reqs.push(Requirement {
                description: format!("TEST {} must accept it", symbols.test_name(t)),
                satisfied: passed,
            });
        }
        if let Some(s) = &nf.one_of {
            reqs.push(Requirement {
                description: format!("must be one of the {} enumerated individuals", s.len()),
                satisfied: s.contains(&IndRef::Classic(ind.name)),
            });
        }
        for (&r, rr1) in &nf.roles {
            let rname = symbols.role_name(r);
            let rr2 = d.roles.get(&r);
            let (min2, max2, closed2) = match rr2 {
                Some(rr2) => (rr2.min_count(), rr2.max_count(), rr2.closed),
                None => (0, u32::MAX, false),
            };
            if rr1.at_least > 0 {
                reqs.push(Requirement {
                    description: format!(
                        "at least {} filler(s) for {rname} (has {min2} known/required)",
                        rr1.at_least
                    ),
                    satisfied: min2 >= rr1.at_least,
                });
            }
            if let Some(m1) = rr1.at_most {
                let have = if max2 == u32::MAX {
                    "unbounded".to_owned()
                } else {
                    max2.to_string()
                };
                reqs.push(Requirement {
                    description: format!(
                        "at most {m1} filler(s) for {rname} (provable bound: {have})"
                    ),
                    satisfied: max2 <= m1,
                });
            }
            if rr1.closed {
                reqs.push(Requirement {
                    description: format!("{rname} must be closed"),
                    satisfied: closed2,
                });
            }
            for f in &rr1.fillers {
                let fname = match f {
                    IndRef::Classic(n) => symbols.individual_name(*n).to_owned(),
                    IndRef::Host(v) => v.to_string(),
                };
                let has = rr2.is_some_and(|rr2| rr2.fillers.contains(f));
                reqs.push(Requirement {
                    description: format!("{rname} must be filled by {fname}"),
                    satisfied: has,
                });
            }
            if let Some(all1) = &rr1.all {
                let target = all1.to_concept(self.schema());
                let entailed = rr2
                    .and_then(|rr2| rr2.all.as_deref())
                    .is_some_and(|all2| subsumes(all1, all2));
                let ok = if max2 == 0 || entailed {
                    true
                } else if closed2 {
                    rr2.map(|rr2| {
                        rr2.fillers.iter().all(|f| match f {
                            IndRef::Classic(n) => self
                                .ind_id(*n)
                                .map(|fid| self.known_instance(fid, all1))
                                .unwrap_or(false),
                            IndRef::Host(v) => self.host_satisfies(v, all1),
                        })
                    })
                    .unwrap_or(true)
                } else {
                    false
                };
                reqs.push(Requirement {
                    description: format!(
                        "every filler of {rname} must be {}",
                        target.display(symbols)
                    ),
                    satisfied: ok,
                });
            }
        }
        for (p, q) in nf.same_as.pairs() {
            let render_path = |path: &[classic_core::RoleId]| {
                path.iter()
                    .map(|&r| symbols.role_name(r))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            // Witnessed structurally or by actual fillers — reuse the
            // membership checker on a minimal NF carrying just this pair.
            let mut single = NormalForm::top();
            single.same_as.add_pair(p.clone(), q.clone());
            let witnessed = self.known_instance(id, &single);
            reqs.push(Requirement {
                description: format!(
                    "({}) must co-refer with ({})",
                    render_path(p),
                    render_path(q)
                ),
                satisfied: witnessed,
            });
        }
        Explanation {
            satisfied: reqs.iter().all(|r| r.satisfied),
            requirements: reqs,
        }
    }

    /// Explain *where an individual's derived information came from*: one
    /// line per committed dependency record, rendered from the same
    /// journal that drives retraction. Complements [`Kb::explain_membership`]
    /// (which explains what a concept demands): provenance explains what
    /// retracting a told fact would take with it.
    pub fn explain_provenance(&self, id: IndId) -> Vec<String> {
        let symbols = &self.schema().symbols;
        let ind_name = |i: IndId| symbols.individual_name(self.ind(i).name).to_owned();
        let mut lines: Vec<String> = Vec::new();
        for s in self.deps().supports_of(id) {
            let line = match s.kind {
                crate::deps::SupportKind::Told { index } => {
                    match self.ind(id).told.get(index) {
                        Some(c) => format!("told: {}", c.display(symbols)),
                        // Indices shift when earlier told facts are
                        // retracted; the record remains as evidence that
                        // *some* told fact contributed.
                        None => "told: (a since-retracted assertion)".to_owned(),
                    }
                }
                crate::deps::SupportKind::All { role } => format!(
                    "propagated from {} via (ALL {} …)",
                    ind_name(s.source),
                    symbols.role_name(role)
                ),
                crate::deps::SupportKind::Coref { role } => format!(
                    "derived filler for {} via SAME-AS on {}",
                    symbols.role_name(role),
                    ind_name(s.source)
                ),
                crate::deps::SupportKind::Rule { index } => {
                    let rule = &self.rules()[index];
                    format!(
                        "rule on {} fired: {}",
                        symbols.concept_name(rule.antecedent),
                        rule.consequent.display(symbols)
                    )
                }
            };
            lines.push(line);
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;

    fn kb() -> Kb {
        let mut kb = Kb::new();
        kb.define_role("thing-driven").unwrap();
        kb.define_role("enrolled-at").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        kb.define_concept(
            "STUDENT",
            Concept::and([person, Concept::AtLeast(1, enrolled)]),
        )
        .unwrap();
        kb
    }

    #[test]
    fn explanation_matches_known_instance() {
        let mut kb = kb();
        let id = kb.create_ind("Rocky").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        let e = kb.explain_membership(id, student).unwrap();
        assert!(!e.satisfied);
        assert_eq!(
            e.satisfied,
            kb.known_instance(id, kb.schema().concept_nf(student).unwrap())
        );
        // Exactly one requirement is missing: the enrollment.
        let missing = e.missing();
        assert_eq!(missing.len(), 1);
        assert!(missing[0].description.contains("enrolled-at"));
        // Satisfy it; explanation flips.
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
            .unwrap();
        let e = kb.explain_membership(id, student).unwrap();
        assert!(e.satisfied);
        assert!(e.missing().is_empty());
    }

    #[test]
    fn explanation_of_value_restrictions() {
        let mut kb = kb();
        let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        kb.define_concept("PEOPLE-MOVER", Concept::all(driven, Concept::Name(person)))
            .unwrap();
        let mover = kb.schema().symbols.find_concept("PEOPLE-MOVER").unwrap();
        let id = kb.create_ind("Bus").unwrap();
        let p = classic_core::IndRef::Classic(kb.schema_mut().symbols.individual("Pat"));
        kb.assert_ind("Bus", &Concept::Fills(driven, vec![p]))
            .unwrap();
        // Open role: the ALL is not provable.
        let e = kb.explain_membership(id, mover).unwrap();
        assert!(!e.satisfied);
        assert!(e.missing()[0].description.contains("every filler"));
        // Close the role and make Pat a PERSON: provable via enumeration.
        kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
        kb.assert_ind("Bus", &Concept::Close(driven)).unwrap();
        let e = kb.explain_membership(id, mover).unwrap();
        assert!(e.satisfied, "{}", e.render());
    }

    #[test]
    fn render_marks_each_requirement() {
        let mut kb = kb();
        let id = kb.create_ind("X").unwrap();
        let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
        let e = kb.explain_membership(id, student).unwrap();
        let text = e.render();
        assert!(text.contains('✗'));
        assert!(text.lines().count() >= 2, "person + enrollment lines");
    }

    #[test]
    fn incoherent_concept_explains_itself() {
        let mut kb = kb();
        let id = kb.create_ind("X").unwrap();
        let r = kb.schema().symbols.find_role("thing-driven").unwrap();
        let bot = kb
            .normalize(&Concept::and([
                Concept::AtLeast(2, r),
                Concept::AtMost(1, r),
            ]))
            .unwrap();
        let e = kb.explain_instance(id, &bot);
        assert!(!e.satisfied);
        assert!(e.requirements[0].description.contains("incoherent"));
    }
}
