//! # classic-core
//!
//! The description language and terminological (schema-level) reasoning of
//! the CLASSIC structural data model, after:
//!
//! > A. Borgida, R. J. Brachman, D. L. McGuinness, L. A. Resnick.
//! > *CLASSIC: A Structural Data Model for Objects.* SIGMOD 1989.
//!
//! This crate provides:
//!
//! * the compositional language of structured descriptions
//!   ([`desc::Concept`], Appendix A of the paper);
//! * interning and symbol management ([`symbol::SymbolTable`]);
//! * the schema of named concepts, roles/attributes, primitive atoms with
//!   disjoint groupings, and registered `TEST` functions
//!   ([`schema::Schema`]);
//! * normalization to canonical structural normal forms
//!   ([`normal::normalize`], §2.2/§5);
//! * structural subsumption and equivalence ([`subsume`], §3.5.1);
//! * classification into the induced IS-A taxonomy ([`taxonomy`], §5);
//! * schema introspection, the paper's `concept-aspect` operator
//!   ([`aspect`], §3.5.1).
//!
//! Individuals, assertions and rules (the ABox) live in the companion
//! `classic-kb` crate; query processing in `classic-query`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aspect;
pub mod chunked;
pub mod desc;
pub mod error;
pub mod host;
pub mod lexical;
pub mod normal;
pub mod same_as;
pub mod schema;
pub mod subsume;
pub mod symbol;
pub mod taxonomy;

pub use desc::{Concept, IndRef, Path};
pub use error::{Clash, ClassicError, Result};
pub use host::{HostClass, HostValue, Layer, F64};
pub use normal::{conjoin_expression, normalize, NormalForm, RoleRestriction};
pub use schema::{PrimMark, Schema, TestArg};
pub use subsume::{disjoint, equivalent, subsumes};
pub use symbol::{ConceptName, IndName, PrimId, RoleId, SymbolTable, TestId};
pub use taxonomy::{KernelStats, NodeId, Taxonomy};
