//! The CLASSIC language of structured descriptions (surface AST).
//!
//! This is the compositional expression language of Appendix A, used in all
//! four roles the paper assigns it: defining the schema, asserting
//! (possibly incomplete) facts about individuals, posing queries, and
//! describing answers. A [`Concept`] is a plain owned tree; meaning is
//! given by normalization ([`crate::normal`]) against a
//! [`crate::schema::Schema`].
//!
//! Concept-forming constructors (paper §2.1):
//! - extensional: `PRIMITIVE`, `DISJOINT-PRIMITIVE`, `ONE-OF`
//! - restriction-based: `ALL`, `AT-LEAST`, `AT-MOST`, `SAME-AS`
//! - composition: `AND`
//! - escape hatch: `TEST`
//! - individual-only constructors (§3.2): `FILLS`, `CLOSE`

use crate::host::{HostValue, Layer};
use crate::lexical::Writer;
use crate::symbol::{ConceptName, IndName, RoleId, SymbolTable, TestId};
use std::fmt;

/// A reference to an individual appearing inside a description
/// (`ONE-OF`, `FILLS`): either a named CLASSIC individual or a host value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndRef {
    /// A named CLASSIC individual, e.g. `Rocky`.
    Classic(IndName),
    /// A host value, e.g. `4` or `"red"`.
    Host(HostValue),
}

impl IndRef {
    /// The layer this individual necessarily belongs to.
    pub(crate) fn layer(&self) -> Layer {
        match self {
            IndRef::Classic(_) => Layer::Classic,
            IndRef::Host(v) => Layer::Host(Some(v.class())),
        }
    }
}

/// A chain of roles used by `SAME-AS`, e.g. `(perpetrator domicile)`.
///
/// Every role in a path must be an *attribute* (single-valued role); this
/// is checked during normalization, mirroring the paper's restriction that
/// "co-reference constraints be used only with roles that are
/// single-valued" (§5).
pub type Path = Vec<RoleId>;

/// A CLASSIC concept expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Concept {
    /// One of the built-in primitives `THING`, `CLASSIC-THING`,
    /// `HOST-THING`, `INTEGER`, `STRING`, `SYMBOL`.
    Builtin(Layer),
    /// A reference to a named concept from the schema, e.g. `RICH-KID`.
    Name(ConceptName),
    /// `(PRIMITIVE parent index)`: a subconcept of `parent` with an
    /// unspecified differentia identified by `index` (§2.1.1).
    ///
    /// The index is interned lazily: it is carried here as a string and
    /// resolved to a [`crate::symbol::PrimId`] when the expression is
    /// normalized against a schema, which also registers the parent.
    Primitive {
        /// The parent (necessary-condition) concept.
        parent: Box<Concept>,
        /// The atomic index identifying the primitive.
        index: String,
    },
    /// `(DISJOINT-PRIMITIVE parent grouping index)`: like `PRIMITIVE`, but
    /// atoms with the same grouping and distinct indices are mutually
    /// exclusive (§3.4, MALE/FEMALE example).
    DisjointPrimitive {
        /// The parent (necessary-condition) concept.
        parent: Box<Concept>,
        /// The disjointness grouping (e.g. `gender`).
        grouping: String,
        /// The atomic index within the grouping (e.g. `male`).
        index: String,
    },
    /// `(ONE-OF i1 … ik)`: a time-invariant enumerated set (§2.1.1).
    OneOf(Vec<IndRef>),
    /// `(ALL r C)`: everything related by `r` only to instances of `C`.
    All(RoleId, Box<Concept>),
    /// `(AT-LEAST n r)`: related to at least `n` distinct individuals by `r`.
    AtLeast(u32, RoleId),
    /// `(AT-MOST n r)`: related to at most `n` distinct individuals by `r`.
    AtMost(u32, RoleId),
    /// `(SAME-AS (p…) (q…))`: the two attribute chains reach the same
    /// individual (§2.1.2). "This constraint is part of the meaning of any
    /// concept in which it appears, and is not just an integrity
    /// constraint."
    SameAs(Path, Path),
    /// `(FILLS r i1 … ik)`: the role `r` is filled by these individuals
    /// (§3.2). Usable in descriptions of individuals and in queries.
    Fills(RoleId, Vec<IndRef>),
    /// `(CLOSE r)`: no fillers beyond those already known (§3.2). The
    /// paper's epistemic closure operator, reified as a descriptor.
    Close(RoleId),
    /// `(TEST f)`: the set of objects for which the registered host
    /// function returns true (§2.1.4). A "primitive sufficiency condition";
    /// opaque to subsumption, like a primitive.
    Test(TestId),
    /// `(AND C1 … Ck)`: conjunction, the compositional glue (§2.1.3).
    And(Vec<Concept>),
}

impl Concept {
    /// `THING`, the topmost concept.
    pub fn thing() -> Concept {
        Concept::Builtin(Layer::Thing)
    }

    /// `(AND …)` from any iterator of conjuncts.
    pub fn and(parts: impl IntoIterator<Item = Concept>) -> Concept {
        Concept::And(parts.into_iter().collect())
    }

    /// `(ALL role c)`.
    pub fn all(role: RoleId, c: Concept) -> Concept {
        Concept::All(role, Box::new(c))
    }

    /// `(ONE-OF …)` from any iterator of individuals.
    pub fn one_of(inds: impl IntoIterator<Item = IndRef>) -> Concept {
        Concept::OneOf(inds.into_iter().collect())
    }

    /// `EXACTLY-ONE` as the paper derives it: `AND(AT-LEAST 1, AT-MOST 1)`
    /// (§2.1.4 discusses exactly this macro).
    pub fn exactly(n: u32, role: RoleId) -> Concept {
        Concept::And(vec![Concept::AtLeast(n, role), Concept::AtMost(n, role)])
    }

    /// `(PRIMITIVE parent index)`.
    pub fn primitive(parent: Concept, index: &str) -> Concept {
        Concept::Primitive {
            parent: Box::new(parent),
            index: index.to_owned(),
        }
    }

    /// `(DISJOINT-PRIMITIVE parent grouping index)`.
    pub fn disjoint_primitive(parent: Concept, grouping: &str, index: &str) -> Concept {
        Concept::DisjointPrimitive {
            parent: Box::new(parent),
            grouping: grouping.to_owned(),
            index: index.to_owned(),
        }
    }

    /// The structural size of the expression: number of constructor
    /// occurrences plus leaf references. This is the |C| in the paper's
    /// claim that subsumption runs "in time proportional to the sizes of
    /// the two concepts" (§5); experiment E1 sweeps it.
    pub fn size(&self) -> usize {
        match self {
            Concept::Builtin(_) | Concept::Name(_) | Concept::Test(_) | Concept::Close(_) => 1,
            Concept::Primitive { parent, .. } => 1 + parent.size(),
            Concept::DisjointPrimitive { parent, .. } => 1 + parent.size(),
            Concept::OneOf(inds) => 1 + inds.len(),
            Concept::All(_, c) => 1 + c.size(),
            Concept::AtLeast(..) | Concept::AtMost(..) => 1,
            Concept::SameAs(p, q) => 1 + p.len() + q.len(),
            Concept::Fills(_, inds) => 1 + inds.len(),
            Concept::And(parts) => 1 + parts.iter().map(Concept::size).sum::<usize>(),
        }
    }

    /// All named concepts referenced (transitively through this expression
    /// only; schema unfolding is normalization's job).
    pub fn referenced_names(&self, out: &mut Vec<ConceptName>) {
        match self {
            Concept::Name(n) => out.push(*n),
            Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
                parent.referenced_names(out)
            }
            Concept::All(_, c) => c.referenced_names(out),
            Concept::And(parts) => {
                for p in parts {
                    p.referenced_names(out);
                }
            }
            _ => {}
        }
    }

    /// Render against a symbol table in the paper's prefix notation.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> DisplayConcept<'a> {
        DisplayConcept { c: self, symbols }
    }
}

/// Pretty-printer for [`Concept`], in the paper's parenthesized prefix
/// syntax, e.g. `(AND STUDENT (AT-LEAST 2 thing-driven))`.
pub struct DisplayConcept<'a> {
    c: &'a Concept,
    symbols: &'a SymbolTable,
}

impl fmt::Display for DisplayConcept<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.c.write(self.symbols, &mut Writer::new(f))
    }
}

impl IndRef {
    /// Write this individual as a `ONE-OF`/`FILLS` operand.
    pub fn write<W: fmt::Write>(&self, s: &SymbolTable, w: &mut Writer<W>) -> fmt::Result {
        match self {
            IndRef::Classic(n) => w.symbol(s.individual_name(*n)),
            IndRef::Host(v) => v.write(w),
        }
    }
}

fn write_path<W: fmt::Write>(p: &[RoleId], s: &SymbolTable, w: &mut Writer<W>) -> fmt::Result {
    w.open("")?;
    for r in p {
        w.symbol(s.role_name(*r))?;
    }
    w.close()
}

impl Concept {
    /// Write this expression in the surface syntax — the one spelling
    /// `Display`, the operation log and the segment files share.
    pub fn write<W: fmt::Write>(&self, s: &SymbolTable, w: &mut Writer<W>) -> fmt::Result {
        match self {
            Concept::Builtin(l) => return w.symbol(l.name()),
            Concept::Name(n) => {
                let name = s.concept_name(*n);
                if Layer::from_name(name).is_some() {
                    w.refuse(|| format!("a concept named {name} reads back as the built-in"));
                }
                return w.symbol(name);
            }
            Concept::Primitive { parent, index } => {
                w.open("PRIMITIVE")?;
                parent.write(s, w)?;
                w.symbol(index)?;
            }
            Concept::DisjointPrimitive {
                parent,
                grouping,
                index,
            } => {
                w.open("DISJOINT-PRIMITIVE")?;
                parent.write(s, w)?;
                w.symbol(grouping)?;
                w.symbol(index)?;
            }
            Concept::OneOf(inds) => {
                w.open("ONE-OF")?;
                for i in inds {
                    i.write(s, w)?;
                }
            }
            Concept::All(r, c) => {
                w.open("ALL")?;
                w.symbol(s.role_name(*r))?;
                c.write(s, w)?;
            }
            Concept::AtLeast(n, r) => {
                w.open("AT-LEAST")?;
                w.int(i64::from(*n))?;
                w.symbol(s.role_name(*r))?;
            }
            Concept::AtMost(n, r) => {
                w.open("AT-MOST")?;
                w.int(i64::from(*n))?;
                w.symbol(s.role_name(*r))?;
            }
            Concept::SameAs(p, q) => {
                w.open("SAME-AS")?;
                write_path(p, s, w)?;
                write_path(q, s, w)?;
            }
            Concept::Fills(r, inds) => {
                w.open("FILLS")?;
                w.symbol(s.role_name(*r))?;
                for i in inds {
                    i.write(s, w)?;
                }
            }
            Concept::Close(r) => {
                w.open("CLOSE")?;
                w.symbol(s.role_name(*r))?;
            }
            Concept::Test(t) => {
                w.open("TEST")?;
                w.symbol(s.test_name(*t))?;
            }
            Concept::And(parts) => {
                w.open("AND")?;
                for p in parts {
                    p.write(s, w)?;
                }
            }
        }
        w.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SymbolTable, RoleId, ConceptName, IndName) {
        let mut s = SymbolTable::new();
        let r = s.role("thing-driven");
        let c = s.concept("STUDENT");
        let i = s.individual("Rocky");
        (s, r, c, i)
    }

    #[test]
    fn display_matches_paper_notation() {
        let (s, r, c, i) = setup();
        let e = Concept::and([
            Concept::Name(c),
            Concept::all(r, Concept::one_of([IndRef::Classic(i)])),
            Concept::AtLeast(2, r),
        ]);
        assert_eq!(
            e.display(&s).to_string(),
            "(AND STUDENT (ALL thing-driven (ONE-OF Rocky)) (AT-LEAST 2 thing-driven))"
        );
    }

    #[test]
    fn display_same_as_and_fills() {
        let mut s = SymbolTable::new();
        let site = s.role("site");
        let perp = s.role("perpetrator");
        let dom = s.role("domicile");
        let e = Concept::SameAs(vec![site], vec![perp, dom]);
        assert_eq!(
            e.display(&s).to_string(),
            "(SAME-AS (site) (perpetrator domicile))"
        );
        let v = s.individual("Volvo-17");
        let fills = Concept::Fills(site, vec![IndRef::Classic(v)]);
        assert_eq!(fills.display(&s).to_string(), "(FILLS site Volvo-17)");
    }

    #[test]
    fn size_counts_structure() {
        let (_, r, c, i) = setup();
        assert_eq!(Concept::Name(c).size(), 1);
        assert_eq!(Concept::AtLeast(2, r).size(), 1);
        assert_eq!(Concept::one_of([IndRef::Classic(i)]).size(), 2);
        let e = Concept::and([
            Concept::Name(c),
            Concept::all(r, Concept::one_of([IndRef::Classic(i)])),
        ]);
        // AND(1) + Name(1) + ALL(1) + OneOf(1+1)
        assert_eq!(e.size(), 5);
    }

    #[test]
    fn exactly_macro_expands() {
        let (_, r, _, _) = setup();
        match Concept::exactly(1, r) {
            Concept::And(v) => {
                assert_eq!(v.len(), 2);
                assert!(matches!(v[0], Concept::AtLeast(1, _)));
                assert!(matches!(v[1], Concept::AtMost(1, _)));
            }
            _ => panic!("exactly should expand to AND"),
        }
    }

    #[test]
    fn referenced_names() {
        let (mut s, r, c, _) = setup();
        let r2 = s.role("maker");
        let e = Concept::and([
            Concept::Name(c),
            Concept::all(r, Concept::all(r2, Concept::thing())),
            Concept::Close(r2),
        ]);
        let mut names = vec![];
        e.referenced_names(&mut names);
        assert_eq!(names, vec![c]);
    }

    #[test]
    fn ind_ref_layers() {
        let (_, _, _, i) = setup();
        assert_eq!(IndRef::Classic(i).layer(), Layer::Classic);
        let host = IndRef::Host(HostValue::Int(1));
        assert_eq!(host.layer(), Layer::Host(Some(HostValue::Int(1).class())));
    }
}
