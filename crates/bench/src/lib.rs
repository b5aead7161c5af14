//! # toppriv-bench
//!
//! The reproduction harness. It does two things and measures nothing:
//!
//! - it **tabulates**: every table and figure of the paper's evaluation,
//!   plus the extensions, as CSV ([`experiments::ALL`] is the index);
//! - it **asserts**: the `audit` and `planner` experiments and the six
//!   fleet [`scenarios`] check named invariants ([`verdict`]), and the
//!   `reproduce` binary's exit status is their verdict.
//!
//! ```text
//! cargo run --release --bin reproduce -- --scale standard
//! cargo run --release --bin reproduce -- audit planner scenarios --scale quick
//! ```
//!
//! Throughput and latency are read by `benchmark/` (socket to socket,
//! oracle-checked) and, per hot path, by the criterion microbenchmarks
//! under `benches/` (ghost generation, LDA training/inference, search,
//! postings codec, baselines, service).

pub mod context;
pub mod experiments;
pub mod scale;
pub mod scenarios;
pub mod table;
pub mod verdict;

pub use context::ExperimentContext;
pub use scale::Scale;
pub use table::ResultTable;
