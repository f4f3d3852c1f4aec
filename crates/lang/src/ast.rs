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
//! * **resolve** ([`Expr::resolve`], [`QueryExpr::resolve`]) interns the
//!   names against one concrete [`Schema`] at evaluation time, yielding
//!   the [`Concept`]/[`MarkedQuery`] values the engine works with.
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
use classic_query::MarkedQuery;

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
    /// Intern this operand against `schema`.
    pub fn resolve(&self, schema: &mut Schema) -> IndRef {
        match self {
            IndLit::Name(n) => IndRef::Classic(schema.symbols.individual(n)),
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
    /// Resolve every name against `schema`, yielding an interned
    /// [`Concept`]. Unknown `TEST` functions are rejected here; all other
    /// names intern freely (normalization rejects undeclared roles and
    /// undefined concepts later, with position-free but precise errors).
    pub fn resolve(&self, schema: &mut Schema) -> Result<Concept> {
        Ok(match self {
            Expr::Name(s) => {
                if let Some(layer) = Layer::from_name(s) {
                    Concept::Builtin(layer)
                } else {
                    Concept::Name(schema.symbols.concept(s))
                }
            }
            Expr::And(parts) => Concept::And(
                parts
                    .iter()
                    .map(|p| p.resolve(schema))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Expr::All(role, inner) => {
                let r = schema.symbols.role(role);
                Concept::all(r, inner.resolve(schema)?)
            }
            Expr::AtLeast(n, role) => Concept::AtLeast(*n, schema.symbols.role(role)),
            Expr::AtMost(n, role) => Concept::AtMost(*n, schema.symbols.role(role)),
            Expr::OneOf(lits) => Concept::OneOf(lits.iter().map(|l| l.resolve(schema)).collect()),
            Expr::Fills(role, lits) => {
                let r = schema.symbols.role(role);
                Concept::Fills(r, lits.iter().map(|l| l.resolve(schema)).collect())
            }
            Expr::Close(role) => Concept::Close(schema.symbols.role(role)),
            Expr::SameAs(p, q) => {
                let rp: Path = p.iter().map(|r| schema.symbols.role(r)).collect();
                let rq: Path = q.iter().map(|r| schema.symbols.role(r)).collect();
                Concept::SameAs(rp, rq)
            }
            Expr::Primitive { parent, index } => {
                let p = parent.resolve(schema)?;
                Concept::primitive(p, index)
            }
            Expr::DisjointPrimitive {
                parent,
                grouping,
                index,
            } => {
                let p = parent.resolve(schema)?;
                Concept::disjoint_primitive(p, grouping, index)
            }
            Expr::Test(name) => {
                let id = schema.symbols.find_test(name).ok_or_else(|| {
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

    /// Resolve the expression and marker path against `schema`.
    pub fn resolve(&self, schema: &mut Schema) -> Result<MarkedQuery> {
        let concept = self.expr.resolve(schema)?;
        let marker = self.marker.iter().map(|r| schema.symbols.role(r)).collect();
        Ok(MarkedQuery { concept, marker })
    }
}
