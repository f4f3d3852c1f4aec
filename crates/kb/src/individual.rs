//! Individuals: the objects a CLASSIC database is "mostly a repository of
//! information about" (paper §2).
//!
//! A CLASSIC individual has "an intrinsic identity, … independent of its
//! properties" (§3.2, `create-ind`). Everything else about it accumulates
//! incrementally through `assert-ind` under the open-world assumption; the
//! accumulated, completed knowledge is its *derived* normal form, and its
//! position in the schema is the set of most-specific named concepts it is
//! recognized under (its realization).

use classic_core::normal::NormalForm;
use classic_core::symbol::IndName;
use classic_core::taxonomy::NodeId;
use classic_core::Concept;
use std::collections::BTreeSet;

/// Dense handle for an individual stored in the knowledge base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndId(pub(crate) u32);

impl IndId {
    /// Raw index into the knowledge base's individual arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a handle from a raw index (must be valid for the KB).
    pub fn from_index(ix: usize) -> IndId {
        IndId(ix as u32)
    }
}

/// Everything the database knows about one CLASSIC individual.
///
/// Only the name is a field; the rest is read through borrowed views, so
/// the representation can change without touching callers.
#[derive(Debug, Clone)]
pub struct Individual {
    /// The individual's name. (The paper notes naming might be optional in
    /// a large database — §3.2 footnote 4; we require names, which is what
    /// its own examples do.)
    pub name: IndName,
    /// The completed description: told information plus every propagated
    /// consequence (ALL-propagation, closure, co-reference, rule
    /// consequents). Monotonically grows; never retracted (§3.2).
    pub(crate) derived: NormalForm,
    /// The assertions exactly as told, for `ind-aspect`-style auditing and
    /// persistence.
    pub(crate) told: Vec<Concept>,
    /// Most-specific named concepts this individual is recognized under —
    /// "each individual is associated with the lowest concept(s) in the
    /// schema whose description(s) it satisfies" (§5). Membership in every
    /// ancestor follows from the taxonomy (see [`Kb::is_instance_of`]).
    ///
    /// [`Kb::is_instance_of`]: crate::Kb::is_instance_of
    pub(crate) msc: BTreeSet<NodeId>,
    /// Rules already fired on this individual (each rule fires at most
    /// once per individual, giving the §5 fixpoint bound).
    pub(crate) fired_rules: BTreeSet<usize>,
}

impl Individual {
    pub(crate) fn new(name: IndName) -> Individual {
        let mut derived = NormalForm::top();
        derived.layer = classic_core::Layer::Classic;
        Individual {
            name,
            derived,
            told: Vec::new(),
            msc: BTreeSet::new(),
            fired_rules: BTreeSet::new(),
        }
    }

    /// The completed description: told information plus every propagated
    /// consequence.
    pub fn derived(&self) -> &NormalForm {
        &self.derived
    }

    /// The assertions exactly as told, oldest first.
    pub fn told(&self) -> &[Concept] {
        &self.told
    }

    /// The most-specific taxonomy nodes this individual is recognized
    /// under, ascending.
    pub fn msc(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.msc.iter().copied()
    }

    /// The rules already fired on this individual, ascending.
    pub fn fired_rules(&self) -> impl Iterator<Item = usize> + '_ {
        self.fired_rules.iter().copied()
    }

    /// Has rule `rule` fired on this individual?
    pub fn has_fired(&self, rule: usize) -> bool {
        self.fired_rules.contains(&rule)
    }

    /// The known fillers of `role`, if any are recorded.
    pub fn fillers(&self, role: classic_core::RoleId) -> Vec<classic_core::IndRef> {
        self.derived
            .roles
            .get(&role)
            .map(|rr| rr.fillers.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Is `role` closed for this individual?
    pub fn is_closed(&self, role: classic_core::RoleId) -> bool {
        self.derived.roles.get(&role).is_some_and(|rr| rr.closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_individual_is_a_bare_classic_thing() {
        let ind = Individual::new(IndName::from_index(0));
        assert_eq!(ind.derived.layer, classic_core::Layer::Classic);
        assert!(ind.derived.roles.is_empty());
        assert!(ind.told.is_empty());
        assert!(ind.msc.is_empty());
    }

    #[test]
    fn ind_id_round_trips() {
        assert_eq!(IndId::from_index(7).index(), 7);
    }
}
