//! # toppriv-bench
//!
//! The reproduction harness. It does two things and measures nothing:
//!
//! - it **tabulates**: every table and figure of the paper's evaluation,
//!   plus the extensions, as CSV ([`experiments::ALL`] is the index);
//! - it **asserts**: every experiment checks the claims its data support
//!   — the paper's shapes, the extensions' findings, and the fleet
//!   invariants of `audit` and `planner` — as named checks ([`verdict`]),
//!   and the `reproduce` binary's exit status is their verdict. The
//!   fleet's step-by-step guarantees are checked by the seeded simulation
//!   in `tests/fleet_sim.rs`.
//!
//! ```text
//! cargo run --release --bin reproduce -- --scale standard
//! cargo run --release --bin reproduce -- --scale quick --quiet
//! ```
//!
//! Throughput and latency are read by `benchmark/` (socket to socket,
//! oracle-checked) and, per hot path, by the criterion microbenchmarks
//! under `benches/` (ghost generation, LDA training/inference, search,
//! postings codec, baselines, service).

pub mod context;
pub mod experiments;
pub mod scale;
pub mod table;
pub mod verdict;

pub use context::ExperimentContext;
pub use scale::Scale;
pub use table::ResultTable;
