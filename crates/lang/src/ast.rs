//! The unresolved surface AST: what the reader ([`crate::parse`] and its
//! siblings) produces *before* any knowledge base is in scope.
//!
//! Parsing used to intern names directly into a `Schema`'s symbol tables,
//! which made `parse_command` take `&mut Kb` — so parsing could not run
//! concurrently, nor server-side before tenant dispatch. The PR-6 split
//! puts a pure AST in between:
//!
//! * **parse** (`&str → Expr`/`Command`) is a pure function of the input
//!   text — names stay [`String`] symbols, no KB or schema required;
//! * **resolve** ([`Expr::resolve`], [`QueryExpr::resolve`]) turns the
//!   names into ids at evaluation time, yielding the
//!   [`Concept`]/[`MarkedQuery`] values the engine works with. Where a
//!   never-seen name goes is the caller's to say: a write or trial
//!   interns it into the KB's own [`Schema`]; a read, which may introduce
//!   no names, into a copy of the symbol table made at that first miss.
//!
//! Resolution never *declares* anything (same contract as the old parser):
//! undeclared roles and undefined concepts are still rejected by
//! normalization, keeping the paper's "detect errors such as typos"
//! promise. The one check that moved from parse time to resolve time is
//! `TEST` lookup, since registered test functions live on the schema.

use classic_core::desc::{Concept, IndRef, Path};
use classic_core::error::{ClassicError, Result};
use classic_core::host::{HostValue, Layer, F64};
use classic_core::schema::Schema;
use classic_core::symbol::{ConceptName, IndName, RoleId, SymbolTable};
use classic_query::MarkedQuery;
use std::borrow::Cow;

use names::Names;

/// Unnameable outside the crate: a resolve takes a `&mut Schema` or a
/// `&mut Cow<SymbolTable>`, and nothing else.
mod names {
    use super::{Cow, Schema, SymbolTable};

    /// Where a resolve looks names up, and where one no table has seen
    /// goes.
    pub trait Names {
        /// The table names are looked up in.
        fn symbols(&self) -> &SymbolTable;
        /// The table a never-seen name is interned into.
        fn symbols_mut(&mut self) -> &mut SymbolTable;
    }

    /// A write or a trial: names go into the KB's own table.
    impl Names for Schema {
        fn symbols(&self) -> &SymbolTable {
            &self.symbols
        }
        fn symbols_mut(&mut self) -> &mut SymbolTable {
            &mut self.symbols
        }
    }

    /// A read: the KB's table stays borrowed until a name misses, and
    /// the miss goes into a copy.
    impl Names for Cow<'_, SymbolTable> {
        fn symbols(&self) -> &SymbolTable {
            self
        }
        fn symbols_mut(&mut self) -> &mut SymbolTable {
            self.to_mut()
        }
    }
}

fn role(names: &mut impl Names, name: &str) -> RoleId {
    match names.symbols().find_role(name) {
        Some(id) => id,
        None => names.symbols_mut().role(name),
    }
}

fn concept(names: &mut impl Names, name: &str) -> ConceptName {
    match names.symbols().find_concept(name) {
        Some(id) => id,
        None => names.symbols_mut().concept(name),
    }
}

fn individual(names: &mut impl Names, name: &str) -> IndName {
    match names.symbols().find_individual(name) {
        Some(id) => id,
        None => names.symbols_mut().individual(name),
    }
}

/// An individual operand before resolution: a CLASSIC name or a host
/// literal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndLit {
    /// A named CLASSIC individual (`Rocky`).
    Name(String),
    /// A host integer (`42`).
    Int(i64),
    /// A host float (`1.5`).
    Float(F64),
    /// A host string (`"label"`).
    Str(String),
    /// A host symbol (`'red`).
    Sym(String),
}

impl IndLit {
    /// Resolve this operand against `names`.
    pub fn resolve(&self, names: &mut impl Names) -> IndRef {
        match self {
            IndLit::Name(n) => IndRef::Classic(individual(names, n)),
            IndLit::Int(i) => IndRef::Host(HostValue::Int(*i)),
            IndLit::Float(v) => IndRef::Host(HostValue::Float(*v)),
            IndLit::Str(s) => IndRef::Host(HostValue::Str(s.clone())),
            IndLit::Sym(s) => IndRef::Host(HostValue::Sym(s.clone())),
        }
    }
}

/// An unresolved concept expression: the paper's description grammar with
/// every name still a symbol. Produced by the pure parser; resolved
/// against a schema by [`Expr::resolve`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Expr {
    /// A concept name or builtin layer (`THING`, `INTEGER`, `PERSON`).
    Name(String),
    /// `(AND e…)`.
    And(Vec<Expr>),
    /// `(ALL role e)`.
    All(String, Box<Expr>),
    /// `(AT-LEAST n role)`.
    AtLeast(u32, String),
    /// `(AT-MOST n role)`.
    AtMost(u32, String),
    /// `(ONE-OF i…)`.
    OneOf(Vec<IndLit>),
    /// `(FILLS role i…)`.
    Fills(String, Vec<IndLit>),
    /// `(CLOSE role)`.
    Close(String),
    /// `(SAME-AS (p…) (q…))`.
    SameAs(Vec<String>, Vec<String>),
    /// `(PRIMITIVE parent index)`.
    Primitive {
        /// The told superconcept.
        parent: Box<Expr>,
        /// The primitive's identity index.
        index: String,
    },
    /// `(DISJOINT-PRIMITIVE parent grouping index)`.
    DisjointPrimitive {
        /// The told superconcept.
        parent: Box<Expr>,
        /// The disjointness grouping.
        grouping: String,
        /// The primitive's identity index.
        index: String,
    },
    /// `(TEST name)` — the name is looked up at resolve time.
    Test(String),
}

impl Expr {
    /// Resolve every name against `names`, yielding an interned
    /// [`Concept`]. Unknown `TEST` functions are rejected here; all other
    /// names resolve freely (normalization rejects undeclared roles and
    /// undefined concepts later, with position-free but precise errors).
    pub fn resolve(&self, names: &mut impl Names) -> Result<Concept> {
        Ok(match self {
            Expr::Name(s) => {
                if let Some(layer) = Layer::from_name(s) {
                    Concept::Builtin(layer)
                } else {
                    Concept::Name(concept(names, s))
                }
            }
            Expr::And(parts) => Concept::And(
                parts
                    .iter()
                    .map(|p| p.resolve(names))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Expr::All(r, inner) => {
                let r = role(names, r);
                Concept::all(r, inner.resolve(names)?)
            }
            Expr::AtLeast(n, r) => Concept::AtLeast(*n, role(names, r)),
            Expr::AtMost(n, r) => Concept::AtMost(*n, role(names, r)),
            Expr::OneOf(lits) => Concept::OneOf(lits.iter().map(|l| l.resolve(names)).collect()),
            Expr::Fills(r, lits) => {
                let r = role(names, r);
                Concept::Fills(r, lits.iter().map(|l| l.resolve(names)).collect())
            }
            Expr::Close(r) => Concept::Close(role(names, r)),
            Expr::SameAs(p, q) => {
                let rp: Path = p.iter().map(|r| role(names, r)).collect();
                let rq: Path = q.iter().map(|r| role(names, r)).collect();
                Concept::SameAs(rp, rq)
            }
            Expr::Primitive { parent, index } => {
                let p = parent.resolve(names)?;
                Concept::primitive(p, index)
            }
            Expr::DisjointPrimitive {
                parent,
                grouping,
                index,
            } => {
                let p = parent.resolve(names)?;
                Concept::disjoint_primitive(p, grouping, index)
            }
            Expr::Test(name) => {
                let id = names.symbols().find_test(name).ok_or_else(|| {
                    ClassicError::Malformed(format!("unknown TEST function {name:?}"))
                })?;
                Concept::Test(id)
            }
        })
    }
}

/// An unresolved query: a concept expression plus the `?:` marker's role
/// chain (by name). Absent marker means the subject marker (`?:C` ≡ `C`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExpr {
    /// The full query expression (marker removed).
    pub expr: Expr,
    /// Role-name chain from the query subject to the marked
    /// subexpression; empty for a subject marker.
    pub marker: Vec<String>,
}

impl QueryExpr {
    /// A marker on the query subject itself.
    pub fn subject(expr: Expr) -> QueryExpr {
        QueryExpr {
            expr,
            marker: Vec::new(),
        }
    }

    /// Resolve the expression and marker path against `names`.
    pub fn resolve(&self, names: &mut impl Names) -> Result<MarkedQuery> {
        let concept = self.expr.resolve(names)?;
        let marker = self.marker.iter().map(|r| role(names, r)).collect();
        Ok(MarkedQuery { concept, marker })
    }
}
