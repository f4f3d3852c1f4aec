//! Schema introspection: the paper's `concept-aspect` operator.
//!
//! "In lieu of a data dictionary, CLASSIC offers operators that allow
//! concepts to be inspected" (paper §3.1). `concept-aspect` "allows one to
//! look at these facets, by taking as arguments a concept, a constructor,
//! and possibly a role name" (§3.5.1):
//!
//! * `concept-aspect[c, ONE-OF]` — any enumeration in `c`'s definition;
//! * `concept-aspect[c, ALL, thing-driven]` — the type constraint on that
//!   role's fillers;
//! * `concept-aspect[c, AT-LEAST, thing-driven]` — the lower bound;
//! * dropping the role argument lists the roles restricted by that
//!   constructor.
//!
//! Aspects are read off the *normal form*, so they reflect everything the
//! definition entails, not just what was literally written (e.g. the
//! `AT-MOST 2` derived from an enumerated value restriction in §2.2).

use crate::desc::IndRef;
use crate::normal::NormalForm;
use crate::symbol::RoleId;

/// The constructor facet being inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AspectKind {
    /// The enumeration facet (`ONE-OF`).
    OneOf,
    /// The value restriction on a role (`ALL`).
    All,
    /// The lower cardinality bound on a role (`AT-LEAST`).
    AtLeast,
    /// The upper cardinality bound on a role (`AT-MOST`).
    AtMost,
    /// The known fillers of a role (`FILLS`).
    Fills,
    /// Whether a role is closed (`CLOSE`).
    Close,
}

/// The value of one facet of a concept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aspect {
    /// No restriction recorded for this facet.
    None,
    /// An enumeration (`ONE-OF`).
    Enumeration(Vec<IndRef>),
    /// A value restriction (`ALL`).
    ValueRestriction(NormalForm),
    /// A cardinality bound (`AT-LEAST`/`AT-MOST`).
    Bound(u32),
    /// Known fillers (`FILLS`).
    Fillers(Vec<IndRef>),
    /// Whether the role is closed (`CLOSE`).
    Closed(bool),
}

/// `concept-aspect[c, kind, role]` — inspect one facet of a concept.
///
/// `role` is required for the role-specific constructors and ignored for
/// `ONE-OF`.
pub fn concept_aspect(nf: &NormalForm, kind: AspectKind, role: Option<RoleId>) -> Aspect {
    match kind {
        AspectKind::OneOf => match &nf.one_of {
            Some(s) => Aspect::Enumeration(s.iter().cloned().collect()),
            None => Aspect::None,
        },
        _ => {
            let Some(role) = role else {
                return Aspect::None;
            };
            let Some(rr) = nf.roles.get(&role) else {
                return match kind {
                    AspectKind::AtLeast => Aspect::Bound(0),
                    AspectKind::Close => Aspect::Closed(false),
                    _ => Aspect::None,
                };
            };
            match kind {
                AspectKind::OneOf => unreachable!("handled above"),
                AspectKind::All => match &rr.all {
                    Some(all) => Aspect::ValueRestriction((**all).clone()),
                    None => Aspect::None,
                },
                AspectKind::AtLeast => Aspect::Bound(rr.at_least),
                AspectKind::AtMost => match rr.at_most {
                    Some(m) => Aspect::Bound(m),
                    None => Aspect::None,
                },
                AspectKind::Fills => {
                    if rr.fillers.is_empty() {
                        Aspect::None
                    } else {
                        Aspect::Fillers(rr.fillers.iter().cloned().collect())
                    }
                }
                AspectKind::Close => Aspect::Closed(rr.closed),
            }
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
    fn aspects_read_off_the_definition() {
        let mut s = Schema::new();
        let r = s.define_role("thing-driven").unwrap();
        s.define_concept("SPORTS-CAR", Concept::primitive(Concept::thing(), "sc"))
            .unwrap();
        let sc = Concept::Name(s.symbols.find_concept("SPORTS-CAR").unwrap());
        let rich_kid = Concept::and([Concept::all(r, sc), Concept::AtLeast(2, r)]);
        let nf = normalize(&rich_kid, &s).unwrap();
        assert_eq!(
            concept_aspect(&nf, AspectKind::AtLeast, Some(r)),
            Aspect::Bound(2)
        );
        assert!(matches!(
            concept_aspect(&nf, AspectKind::All, Some(r)),
            Aspect::ValueRestriction(_)
        ));
        assert_eq!(
            concept_aspect(&nf, AspectKind::AtMost, Some(r)),
            Aspect::None
        );
    }

    #[test]
    fn derived_aspects_are_visible() {
        // §2.2: an enumerated value restriction derives AT-MOST.
        let mut s = Schema::new();
        let r = s.define_role("r").unwrap();
        let a = IndRef::Classic(s.symbols.individual("A"));
        let b = IndRef::Classic(s.symbols.individual("B"));
        let c = Concept::all(r, Concept::one_of([a, b]));
        let nf = normalize(&c, &s).unwrap();
        assert_eq!(
            concept_aspect(&nf, AspectKind::AtMost, Some(r)),
            Aspect::Bound(2)
        );
    }

    #[test]
    fn one_of_aspect() {
        let mut s = Schema::new();
        let gm = IndRef::Classic(s.symbols.individual("GM"));
        let ford = IndRef::Classic(s.symbols.individual("Ford"));
        let c = Concept::one_of([gm.clone(), ford.clone()]);
        let nf = normalize(&c, &s).unwrap();
        match concept_aspect(&nf, AspectKind::OneOf, None) {
            Aspect::Enumeration(v) => {
                assert_eq!(v.len(), 2);
                assert!(v.contains(&gm) && v.contains(&ford));
            }
            other => panic!("expected enumeration, got {other:?}"),
        }
    }

    #[test]
    fn unrestricted_role_defaults() {
        let mut s = Schema::new();
        let r = s.define_role("r").unwrap();
        let nf = normalize(&Concept::thing(), &s).unwrap();
        assert_eq!(
            concept_aspect(&nf, AspectKind::AtLeast, Some(r)),
            Aspect::Bound(0)
        );
        assert_eq!(
            concept_aspect(&nf, AspectKind::Close, Some(r)),
            Aspect::Closed(false)
        );
        assert_eq!(concept_aspect(&nf, AspectKind::All, Some(r)), Aspect::None);
    }
}
