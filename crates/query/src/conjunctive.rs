//! Conjunctive queries over the knowledge base — open world.
//!
//! The paper stops short of a join language ("We have not spent much
//! effort in devising an elaborate query language for this space of
//! facts… We plan to develop a more powerful and integrated query
//! language", §3.5.2) but points at exactly this shape: variables over
//! individuals, membership atoms phrased as *concepts* (keeping the
//! single-language design), and role atoms over fillers.
//!
//! Semantics is **certain answers**: an answer tuple is returned iff every
//! atom is *provably* satisfied — membership through the full recognition
//! machinery (`known_instance`, so defined concepts, closures and rules
//! all participate), role atoms through known fillers. Unlike the
//! closed-world evaluator in `classic-rel`, what is merely unrecorded
//! never silently satisfies or falsifies an atom; it just isn't provable.

use classic_core::desc::{Concept, IndRef};
use classic_core::error::{ClassicError, Result};
use classic_core::normal::NormalForm;
use classic_core::symbol::RoleId;
use classic_kb::{IndId, Kb};
use std::collections::BTreeMap;

/// A term: a variable or a fixed individual (CLASSIC or host).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbTerm {
    /// A variable, bound during evaluation.
    Var(String),
    /// A constant individual.
    Ind(IndRef),
}

impl KbTerm {
    /// A variable term.
    pub fn var(name: &str) -> KbTerm {
        KbTerm::Var(name.to_owned())
    }
}

/// One atom of the query body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbAtom {
    /// `C(t)`: the term is a (provable) instance of the concept. The
    /// concept is an arbitrary CLASSIC expression — the single-language
    /// principle extends to join queries.
    IsA(KbTerm, Concept),
    /// `r(s, o)`: `o` is a known filler of `s`'s role `r`.
    Role(RoleId, KbTerm, KbTerm),
}

/// A conjunctive query with certain-answer semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KbQuery {
    /// Answer variables, in output order.
    pub head: Vec<String>,
    /// The conjunctive body.
    pub body: Vec<KbAtom>,
}

impl KbQuery {
    /// `head(vars…) :- body`.
    pub fn new(head: &[&str], body: Vec<KbAtom>) -> KbQuery {
        KbQuery {
            head: head.iter().map(|s| (*s).to_owned()).collect(),
            body,
        }
    }
}

type Binding = BTreeMap<String, IndRef>;

/// Evaluate a conjunctive query, returning the distinct head tuples.
pub fn answer(kb: &Kb, q: &KbQuery) -> Result<Vec<Vec<IndRef>>> {
    // Pre-normalize every membership concept once.
    let mut atom_nfs: Vec<Option<NormalForm>> = Vec::with_capacity(q.body.len());
    for atom in &q.body {
        atom_nfs.push(match atom {
            KbAtom::IsA(_, c) => Some(kb.normalize(c)?),
            KbAtom::Role(..) => None,
        });
    }
    let mut bindings: Vec<Binding> = vec![Binding::new()];
    for (atom, nf) in q.body.iter().zip(&atom_nfs) {
        let mut next: Vec<Binding> = Vec::new();
        for b in &bindings {
            extend(kb, atom, nf.as_ref(), b, &mut next)?;
        }
        bindings = next;
        if bindings.is_empty() {
            break;
        }
    }
    let mut out: Vec<Vec<IndRef>> = Vec::new();
    for b in bindings {
        let tuple: Option<Vec<IndRef>> = q.head.iter().map(|v| b.get(v).cloned()).collect();
        match tuple {
            Some(t) => out.push(t),
            None => {
                return Err(ClassicError::Malformed(
                    "unbound head variable in conjunctive query".into(),
                ))
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn extend(
    kb: &Kb,
    atom: &KbAtom,
    nf: Option<&NormalForm>,
    b: &Binding,
    out: &mut Vec<Binding>,
) -> Result<()> {
    match atom {
        KbAtom::IsA(term, _) => {
            let nf = nf.expect("pre-normalized");
            match resolve(term, b) {
                Some(i) => {
                    if classic_kb::guard_recognizers(|| satisfies(kb, &i, nf))? {
                        out.push(b.clone());
                    }
                }
                None => {
                    // Enumerate provable instances (CLASSIC individuals;
                    // host values are not enumerable, matching the paper's
                    // treatment of host individuals as non-extensional).
                    let ans = crate::retrieve_nf(kb, nf)?;
                    let KbTerm::Var(v) = term else { unreachable!() };
                    for id in ans.known {
                        let mut nb = b.clone();
                        nb.insert(v.clone(), IndRef::Classic(kb.ind(id).name));
                        out.push(nb);
                    }
                }
            }
        }
        KbAtom::Role(r, s, o) => {
            let subjects: Vec<IndId> = match resolve(s, b) {
                Some(IndRef::Classic(n)) => match kb.ind_id(n) {
                    Ok(id) => vec![id],
                    Err(_) => vec![],
                },
                Some(IndRef::Host(_)) => vec![], // host individuals have no roles
                None => kb.ind_ids().collect(),
            };
            for sid in subjects {
                let sref = IndRef::Classic(kb.ind(sid).name);
                for filler in kb.ind(sid).fillers(*r) {
                    let mut nb = b.clone();
                    if !bind(s, &sref, &mut nb) {
                        continue;
                    }
                    if !bind(o, &filler, &mut nb) {
                        continue;
                    }
                    out.push(nb);
                }
            }
        }
    }
    Ok(())
}

fn resolve(term: &KbTerm, b: &Binding) -> Option<IndRef> {
    match term {
        KbTerm::Ind(i) => Some(i.clone()),
        KbTerm::Var(v) => b.get(v).cloned(),
    }
}

/// Bind (or check) a term against a value.
fn bind(term: &KbTerm, value: &IndRef, b: &mut Binding) -> bool {
    match term {
        KbTerm::Ind(i) => i == value,
        KbTerm::Var(v) => match b.get(v) {
            Some(bound) => bound == value,
            None => {
                b.insert(v.clone(), value.clone());
                true
            }
        },
    }
}

fn satisfies(kb: &Kb, i: &IndRef, nf: &NormalForm) -> bool {
    match i {
        IndRef::Classic(n) => match kb.ind_id(*n) {
            Ok(id) => kb.known_instance(id, nf),
            Err(_) => false,
        },
        IndRef::Host(v) => kb.host_satisfies(v, nf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::HostValue;

    /// The paper's §3.5.3 scenario: students, cars, makers.
    fn kb() -> (Kb, RoleId, RoleId) {
        let mut kb = Kb::new();
        kb.define_role("thing-driven").unwrap();
        kb.define_role("maker").unwrap();
        kb.define_role("enrolled-at").unwrap();
        kb.define_role("loc").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        kb.define_concept("COMPANY", Concept::primitive(Concept::thing(), "company"))
            .unwrap();
        let company = Concept::Name(kb.schema().symbols.find_concept("COMPANY").unwrap());
        kb.define_concept("ITALIAN-COMPANY", Concept::primitive(company, "italian"))
            .unwrap();
        let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
        let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
        kb.define_concept(
            "STUDENT",
            Concept::and([person, Concept::AtLeast(1, enrolled)]),
        )
        .unwrap();
        let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
        let maker = kb.schema().symbols.find_role("maker").unwrap();

        let italian = kb.schema().symbols.find_concept("ITALIAN-COMPANY").unwrap();
        let personc = kb.schema().symbols.find_concept("PERSON").unwrap();
        // Rocky: a student driving a Ferrari (Italian) …
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(personc)).unwrap();
        kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
            .unwrap();
        let f512 = IndRef::Classic(kb.schema_mut().symbols.individual("Ferrari-512"));
        kb.assert_ind("Rocky", &Concept::Fills(driven, vec![f512]))
            .unwrap();
        let ferrari = IndRef::Classic(kb.schema_mut().symbols.individual("Ferrari"));
        kb.assert_ind("Ferrari-512", &Concept::Fills(maker, vec![ferrari]))
            .unwrap();
        kb.assert_ind("Ferrari", &Concept::Name(italian)).unwrap();
        // … Pat: a mere person driving a Volvo (maker unknown).
        kb.create_ind("Pat").unwrap();
        kb.assert_ind("Pat", &Concept::Name(personc)).unwrap();
        let volvo = IndRef::Classic(kb.schema_mut().symbols.individual("Volvo-1"));
        kb.assert_ind("Pat", &Concept::Fills(driven, vec![volvo]))
            .unwrap();
        (kb, driven, maker)
    }

    #[test]
    fn join_across_membership_and_roles() {
        // q(s, m) :- STUDENT(s), thing-driven(s, c), maker(c, m),
        //            ITALIAN-COMPANY(m).
        let (kb, driven, maker) = kb();
        let student = Concept::Name(kb.schema().symbols.find_concept("STUDENT").unwrap());
        let italian = Concept::Name(kb.schema().symbols.find_concept("ITALIAN-COMPANY").unwrap());
        let q = KbQuery::new(
            &["s", "m"],
            vec![
                KbAtom::IsA(KbTerm::var("s"), student),
                KbAtom::Role(driven, KbTerm::var("s"), KbTerm::var("c")),
                KbAtom::Role(maker, KbTerm::var("c"), KbTerm::var("m")),
                KbAtom::IsA(KbTerm::var("m"), italian),
            ],
        );
        let ans = answer(&kb, &q).unwrap();
        assert_eq!(ans.len(), 1);
        let rocky = kb.schema().symbols.find_individual("Rocky").unwrap();
        let ferrari = kb.schema().symbols.find_individual("Ferrari").unwrap();
        assert_eq!(
            ans[0],
            vec![IndRef::Classic(rocky), IndRef::Classic(ferrari)]
        );
    }

    #[test]
    fn membership_atoms_use_recognition_not_told_facts() {
        // Rocky was never asserted a STUDENT — recognition supplies it.
        let (kb, _, _) = kb();
        let student = Concept::Name(kb.schema().symbols.find_concept("STUDENT").unwrap());
        let q = KbQuery::new(&["s"], vec![KbAtom::IsA(KbTerm::var("s"), student)]);
        let ans = answer(&kb, &q).unwrap();
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn ad_hoc_concepts_in_atoms() {
        // Membership atoms take arbitrary expressions, not just names.
        let (kb, driven, _) = kb();
        let q = KbQuery::new(
            &["p"],
            vec![KbAtom::IsA(KbTerm::var("p"), Concept::AtLeast(1, driven))],
        );
        let ans = answer(&kb, &q).unwrap();
        assert_eq!(ans.len(), 2, "Rocky and Pat both drive something");
    }

    #[test]
    fn constants_and_repeated_variables() {
        let (kb, driven, _) = kb();
        let rocky = IndRef::Classic(kb.schema().symbols.find_individual("Rocky").unwrap());
        // What does Rocky drive?
        let q = KbQuery::new(
            &["c"],
            vec![KbAtom::Role(driven, KbTerm::Ind(rocky), KbTerm::var("c"))],
        );
        let ans = answer(&kb, &q).unwrap();
        assert_eq!(ans.len(), 1);
        // Self-loop: drives(x, x) — nobody.
        let q = KbQuery::new(
            &["x"],
            vec![KbAtom::Role(driven, KbTerm::var("x"), KbTerm::var("x"))],
        );
        assert!(answer(&kb, &q).unwrap().is_empty());
    }

    #[test]
    fn host_values_flow_through_role_atoms() {
        let (mut kb, _, _) = kb();
        let loc = kb.schema().symbols.find_role("loc").unwrap();
        kb.assert_ind(
            "Rocky",
            &Concept::Fills(loc, vec![IndRef::Host(HostValue::Int(7))]),
        )
        .unwrap();
        let q = KbQuery::new(
            &["v"],
            vec![KbAtom::Role(loc, KbTerm::var("x"), KbTerm::var("v"))],
        );
        let ans = answer(&kb, &q).unwrap();
        assert_eq!(ans, vec![vec![IndRef::Host(HostValue::Int(7))]]);
        // And a host constant can be checked against a host concept atom.
        let q = KbQuery::new(
            &["v"],
            vec![
                KbAtom::Role(loc, KbTerm::var("x"), KbTerm::var("v")),
                KbAtom::IsA(
                    KbTerm::var("v"),
                    Concept::Builtin(classic_core::Layer::Host(Some(
                        classic_core::HostClass::Integer,
                    ))),
                ),
            ],
        );
        assert_eq!(answer(&kb, &q).unwrap().len(), 1);
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        let (kb, driven, _) = kb();
        let q = KbQuery::new(
            &["ghost"],
            vec![KbAtom::Role(driven, KbTerm::var("x"), KbTerm::var("y"))],
        );
        assert!(answer(&kb, &q).is_err());
    }

    #[test]
    fn certain_answer_semantics_vs_closed_world() {
        // Pat drives Volvo-1 whose maker is unknown: no certain answer to
        // "who drives something Italian-made" for Pat (and no fabricated
        // negative either — the atom is simply not provable).
        let (kb, driven, maker) = kb();
        let italian = Concept::Name(kb.schema().symbols.find_concept("ITALIAN-COMPANY").unwrap());
        let q = KbQuery::new(
            &["p"],
            vec![
                KbAtom::Role(driven, KbTerm::var("p"), KbTerm::var("c")),
                KbAtom::Role(maker, KbTerm::var("c"), KbTerm::var("m")),
                KbAtom::IsA(KbTerm::var("m"), italian),
            ],
        );
        let ans = answer(&kb, &q).unwrap();
        assert_eq!(ans.len(), 1, "only Rocky's chain is provable");
    }
}
