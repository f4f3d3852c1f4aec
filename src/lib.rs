//! # classic
//!
//! A from-scratch Rust reproduction of the CLASSIC structural data model:
//!
//! > A. Borgida, R. J. Brachman, D. L. McGuinness, L. A. Resnick.
//! > *CLASSIC: A Structural Data Model for Objects.* SIGMOD 1989.
//!
//! CLASSIC is an object data model built on a single compositional
//! language of *structured descriptions* that serves as schema definition
//! language, update language, query language, and answer language at
//! once. It maintains a potentially *incomplete* model of the world (open
//! world, no closed-world assumption), actively derives new facts
//! (recognition, propagation, forward-chaining rules), and keeps every
//! inference tractable by deliberately limiting the description language
//! (no `OR`, no `NOT`, identity-only enumerations and tests).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | description language, normalization, subsumption, taxonomy |
//! | [`kb`] | individuals, assertions, propagation, rules, integrity |
//! | [`query`] | retrieval, open-world answer modes, intensional answers |
//! | [`lang`] | surface syntax: lexer, parser, command evaluator |
//! | [`rel`] | relational view + closed-world baseline (paper §3.5.2) |
//! | [`store`] | operation-log persistence in the surface syntax |
//! | [`ingest`] | streaming CSV/JSON bulk load + starter-TBox inference |
//! | [`server`] | multi-tenant TCP/HTTP front: surface syntax as wire protocol |
//! | [`analyze`] | static schema/KB lint: incoherence, cycles, rule analysis |
//! | [`obs`] | tracing spans, metrics registry, flight recorder, exposition |
//!
//! ## Quickstart
//!
//! ```
//! use classic::kb::Kb;
//! use classic::lang::{run_script, Outcome};
//!
//! let mut kb = Kb::new();
//! let out = run_script(&mut kb, r#"
//!     (define-role enrolled-at)
//!     (define-concept PERSON (PRIMITIVE THING person))
//!     (define-concept STUDENT (AND PERSON (AT-LEAST 1 enrolled-at)))
//!     (create-ind Rocky)
//!     (assert-ind Rocky PERSON)
//!     (assert-ind Rocky (AT-LEAST 1 enrolled-at))
//!     (retrieve STUDENT)
//! "#).unwrap();
//! // Rocky was *recognized* as a STUDENT — nothing ever asserted it.
//! assert_eq!(out.last().unwrap(), &Outcome::Individuals(vec!["Rocky".into()]));
//! ```
//!
//! See `examples/` for the paper's full scenarios and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use classic_analyze as analyze;
pub use classic_core as core;
pub use classic_ingest as ingest;
pub use classic_kb as kb;
pub use classic_lang as lang;
pub use classic_obs as obs;
pub use classic_query as query;
pub use classic_rel as rel;
pub use classic_server as server;
pub use classic_store as store;

// Flat re-exports of the types almost every user touches.
pub use classic_core::{
    Clash, ClassicError, Concept, HostValue, IndRef, Layer, NormalForm, Result,
};
pub use classic_kb::{AssertReport, IndId, Kb};
pub use classic_query::{Answer, MarkedQuery, Query};
