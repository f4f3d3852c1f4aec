//! The relational view of a CLASSIC ABox, and the closed-world export.
//!
//! "The facts asserted about an individual's relationship to other
//! individuals through roles constitute what would be an ordinary
//! database" (paper §3.5.2). [`export_kb`] materializes exactly that
//! database: one unary relation per named schema concept holding its
//! *known* instances, and one binary relation per role holding the
//! *known* fillers. Everything the open world leaves unsaid is — by
//! construction — absent, which is what makes this the closed-world
//! baseline of experiment E7.

use crate::relation::{Relation, Tuple, Value};
use classic_core::desc::IndRef;
use classic_kb::Kb;
use std::collections::BTreeMap;

/// A named collection of relations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Insert (or replace) a relation, keyed by its name.
    pub fn insert_relation(&mut self, r: Relation) {
        self.relations.insert(r.name.clone(), r);
    }

    /// The relation named `name`, if present.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The relation for `name`, or an empty one of the given arity.
    pub fn relation_or_empty(&self, name: &str, arity: usize) -> Relation {
        self.relations
            .get(name)
            .cloned()
            .unwrap_or_else(|| Relation::new(name, arity))
    }

    /// Every stored relation name, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Insert one tuple, creating the relation if needed.
    pub fn insert_tuple(&mut self, relation: &str, arity: usize, t: Tuple) {
        self.relations
            .entry(relation.to_owned())
            .or_insert_with(|| Relation::new(relation, arity))
            .insert(t);
    }

    /// Total tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

fn ind_ref_value(kb: &Kb, i: &IndRef) -> Value {
    match i {
        IndRef::Classic(n) => Value::Sym(kb.schema().symbols.individual_name(*n).to_owned()),
        IndRef::Host(v) => match v {
            classic_core::HostValue::Int(i) => Value::Int(*i),
            classic_core::HostValue::Float(x) => Value::Float(*x),
            classic_core::HostValue::Str(s) => Value::Str(s.clone()),
            classic_core::HostValue::Sym(s) => Value::Sym(format!("'{s}")),
        },
    }
}

/// Export a knowledge base to its relational (closed-world) view:
///
/// * `concept:<NAME>` — unary, the known instances of each named concept;
/// * `role:<name>` — binary, the known (subject, filler) pairs;
/// * `ind` — unary, every individual.
pub fn export_kb(kb: &Kb) -> Database {
    let mut db = Database::new();
    let symbols = &kb.schema().symbols;
    // Individuals.
    let mut inds = Relation::new("ind", 1);
    for id in kb.ind_ids() {
        inds.insert(vec![Value::Sym(
            symbols.individual_name(kb.ind(id).name).to_owned(),
        )]);
    }
    db.insert_relation(inds);
    // Concept extensions (known instances — recognition included, so the
    // relational view benefits from CLASSIC's deductions up to the moment
    // of export; it is the *future* and the *unknown* it forecloses).
    for cname in kb.schema().defined_concepts() {
        let rel_name = format!("concept:{}", symbols.concept_name(cname));
        let mut r = Relation::new(&rel_name, 1);
        if let Ok(instances) = kb.instances_of(cname) {
            for id in instances {
                r.insert(vec![Value::Sym(
                    symbols.individual_name(kb.ind(id).name).to_owned(),
                )]);
            }
        }
        db.insert_relation(r);
    }
    // Role fillers.
    let mut role_rels: BTreeMap<String, Relation> = BTreeMap::new();
    for id in kb.ind_ids() {
        let subject = Value::Sym(symbols.individual_name(kb.ind(id).name).to_owned());
        for (&role, rr) in &kb.ind(id).derived().roles {
            if rr.fillers.is_empty() {
                continue;
            }
            let rel_name = format!("role:{}", symbols.role_name(role));
            let rel = role_rels
                .entry(rel_name.clone())
                .or_insert_with(|| Relation::new(&rel_name, 2));
            for f in &rr.fillers {
                rel.insert(vec![subject.clone(), ind_ref_value(kb, f)]);
            }
        }
    }
    for (_, r) in role_rels {
        db.insert_relation(r);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;

    #[test]
    fn export_materializes_known_facts() {
        let mut kb = Kb::new();
        kb.define_role("drives").unwrap();
        let drives = kb.schema_mut().symbols.find_role("drives").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = kb.schema_mut().symbols.concept("PERSON");
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        let volvo = IndRef::Classic(kb.schema_mut().symbols.individual("Volvo-17"));
        kb.assert_ind("Rocky", &Concept::Fills(drives, vec![volvo]))
            .unwrap();

        let db = export_kb(&kb);
        let people = db.relation("concept:PERSON").unwrap();
        assert!(people.contains(&[Value::Sym("Rocky".into())]));
        assert_eq!(people.len(), 1);
        let drives_rel = db.relation("role:drives").unwrap();
        assert!(drives_rel.contains(&[Value::Sym("Rocky".into()), Value::Sym("Volvo-17".into())]));
        // Volvo-17 exists as an individual (implicitly created).
        assert_eq!(db.relation("ind").unwrap().len(), 2);
    }

    #[test]
    fn export_includes_recognized_memberships() {
        // Recognition-derived memberships are visible relationally.
        let mut kb = Kb::new();
        kb.define_role("enrolled-at").unwrap();
        let enrolled = kb.schema_mut().symbols.find_role("enrolled-at").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = kb.schema_mut().symbols.concept("PERSON");
        kb.define_concept(
            "STUDENT",
            Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]),
        )
        .unwrap();
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
        kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
            .unwrap();
        let db = export_kb(&kb);
        assert!(db
            .relation("concept:STUDENT")
            .unwrap()
            .contains(&[Value::Sym("Rocky".into())]));
    }

    #[test]
    fn host_fillers_export_with_native_types() {
        let mut kb = Kb::new();
        kb.define_role("age").unwrap();
        let age = kb.schema_mut().symbols.find_role("age").unwrap();
        kb.create_ind("Rocky").unwrap();
        kb.assert_ind(
            "Rocky",
            &Concept::Fills(age, vec![IndRef::Host(classic_core::HostValue::Int(41))]),
        )
        .unwrap();
        let db = export_kb(&kb);
        assert!(db
            .relation("role:age")
            .unwrap()
            .contains(&[Value::Sym("Rocky".into()), Value::Int(41)]));
    }
}
