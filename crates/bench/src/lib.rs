//! # classic-bench
//!
//! Workload generators and the experiment harness for the CLASSIC
//! reproduction. The paper (SIGMOD 1989) contains no numbered tables or
//! figures; the experiments here regenerate its quantitative claims —
//! see DESIGN.md §5 for the experiment index (E1…E18) and EXPERIMENTS.md
//! for paper-vs-measured results.
//!
//! `cargo run -p classic-bench --release --bin experiments` prints every
//! experiment table (each experiment times its own code paths; there is
//! no second, Criterion-shaped copy of E1–E7 to keep in step).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod workload;
