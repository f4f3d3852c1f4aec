//! Individual introspection: the paper's `ind-aspect` operator.
//!
//! "At the moment it is possible to ask for all the fillers or
//! restrictions of a role for an individual, and whether it is closed or
//! not, by using the `ind-aspect` operator, which behaves similarly to
//! `concept-aspect` but in addition recognizes the invocations
//! `ind-aspect[i, FILLS, r]` and `ind-aspect[i, CLOSE, r]`" (paper §3.5.2).

use crate::individual::IndId;
use crate::kb::Kb;
use classic_core::aspect::{concept_aspect, Aspect, AspectKind};
use classic_core::desc::Concept;
use classic_core::error::Result;
use classic_core::symbol::{ConceptName, RoleId};
use classic_core::taxonomy::NodeId;

/// Where an arbitrary concept expression sits in the IS-A hierarchy:
/// the paper's "most specific subsumers or subsumees of some concept —
/// the 'immediate parents' or 'immediate children'" (§3.5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptPlacement {
    /// Named concepts immediately above the expression.
    pub parents: Vec<ConceptName>,
    /// Named concepts immediately below it.
    pub children: Vec<ConceptName>,
    /// Named concepts with exactly this meaning, if any.
    pub equivalent: Vec<ConceptName>,
}

impl Kb {
    /// `ind-aspect[ind, kind, role]`: inspect one facet of an individual's
    /// *derived* description (told facts plus every propagated
    /// consequence).
    pub fn ind_aspect(&self, id: IndId, kind: AspectKind, role: Option<RoleId>) -> Aspect {
        concept_aspect(&self.ind(id).derived, kind, role)
    }

    /// The named concepts this individual is most specifically recognized
    /// under (its realization — "the lowest concept(s) in the schema whose
    /// description(s) it satisfies", §5).
    pub fn most_specific_concepts(&self, id: IndId) -> Vec<ConceptName> {
        let mut out = Vec::new();
        for node in self.ind(id).msc() {
            out.extend(self.taxonomy().node(node).names.iter().copied());
        }
        out.sort();
        out.dedup();
        out
    }

    /// Classify an arbitrary concept expression against the schema and
    /// report its immediate named neighbors (§3.5.1). The expression is
    /// not added to the schema.
    pub fn classify_concept(&self, c: &Concept) -> Result<ConceptPlacement> {
        let nf = self.normalize(c)?;
        let cls = self.taxonomy().classify(&nf);
        let names_of = |kb: &Kb, nodes: &[NodeId]| -> Vec<ConceptName> {
            let mut out = Vec::new();
            for &n in nodes {
                out.extend(kb.taxonomy().node(n).names.iter().copied());
            }
            out.sort();
            out.dedup();
            out
        };
        Ok(ConceptPlacement {
            parents: names_of(self, &cls.parents),
            children: names_of(self, &cls.children),
            equivalent: cls
                .equivalent
                .map(|n| names_of(self, &[n]))
                .unwrap_or_default(),
        })
    }

    /// Is the individual recognized as an instance of a named concept?
    /// (The membership query of §3.5.3, by name.) It is where it sits:
    /// an instance of `THING`, of its most specific concepts, and of
    /// everything above them in the taxonomy.
    pub fn is_instance_of(&self, id: IndId, concept: ConceptName) -> Result<bool> {
        let node = self
            .taxonomy()
            .node_of(concept)
            .ok_or(classic_core::ClassicError::UndefinedConcept(concept))?;
        Ok(node == NodeId::TOP
            || (self.ind(id).msc())
                .any(|m| m == node || self.taxonomy().is_strict_ancestor(node, m)))
    }
}
