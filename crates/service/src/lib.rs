//! # toppriv-service
//!
//! The multi-tenant private-search service layer: runs many TopPriv
//! client sessions concurrently against **one** shared `LdaModel` and
//! `SearchEngine`.
//!
//! The paper's TopPriv (Figure 1) is a single-user client module; the
//! production question it leaves open is the server-side cost of decoy
//! traffic at fleet scale — each protected query multiplies engine load
//! by the cycle length υ (~7× at the paper's defaults;
//! `engine_evals_per_genuine` in `benchmark/` reads it). This crate
//! amortizes that cost three ways:
//!
//! - **shared models** ([`SessionManager`]): the ~140 MB LDA model and
//!   the search tier exist once, behind `Arc`s; per-tenant state is just
//!   a `GhostGenerator`, a `SessionTracker`, and a `PacingScheduler`;
//! - **a term-sharded search tier** ([`SearchTier`]): the same service
//!   stack runs over one `SearchEngine` or a `ShardedEngine` whose
//!   postings are split across N term-hash shards, each with its own
//!   bounded query log — no engine-wide mutex on the submission path;
//! - **a global cycle scheduler** ([`CycleScheduler`]): per-session
//!   pacing schedules are merged into one time-ordered queue that a
//!   `std::thread` worker pool drains from one shared cursor; every
//!   drain settles the cycles it delivers, sealing them against
//!   rollback;
//! - **a sharded LRU result cache** ([`ResultCache`]): ghost generation
//!   is deterministic per query content (under the fleet's secret seed),
//!   so duplicate decoys across tenants are served from cache instead of
//!   the engine — and, beside it, a bounded memo of whole cycles, so a
//!   query the fleet has protected before is not formulated again either
//!   (see the [`cache`] module).
//!
//! [`ServiceMetrics`] tracks cache hit rate, queue depth, p50/p99
//! submit latency, and per-session privacy metrics
//! (exposure, mask level, satisfied rate, trace exposure). Since PR 6
//! all of it lives in a `toppriv_obs::MetricsRegistry` — lock-free
//! counters/gauges plus log-linear HDR histograms — and the request
//! lifecycle is traced (`plan_cycle`/`search` spans, scheduler `drain`
//! with per-worker children). The `toppriv-serve` binary exposes
//! everything over newline-delimited JSON (stdin or TCP; `MetricsNdjson`
//! and `MetricsProm` dump the registry) and ships a synthetic
//! multi-tenant demo (`--demo`, sharded with `--shards N`).
//!
//! ## Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use toppriv_service::SessionManager;
//! # let engine: Arc<tsearch_search::SearchEngine> = unimplemented!();
//! # let model: Arc<tsearch_lda::LdaModel> = unimplemented!();
//!
//! let manager = SessionManager::new(engine, model).with_cache(4096);
//! manager.open_session("alice").unwrap();
//! let outcome = manager.search("alice", "apache helicopter", 10).unwrap();
//! assert!(outcome.report.metrics.exposure <= outcome.report.metrics.mask_level);
//! ```

#![warn(missing_docs)]

pub mod auditor;
pub mod cache;
pub mod fault;
pub mod metrics;
pub mod persist;
pub mod planner;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod tier;

pub use auditor::{AuditConfig, PrivacyAuditor};
pub use cache::{CacheKey, ResultCache};
pub use fault::{FaultKind, FaultPlane, FaultSpec, SubmissionPredicate, ALL_FAULT_KINDS};
pub use metrics::{GlobalMetrics, MetricsSnapshot, ServiceMetrics, SessionMetrics};
pub use persist::{
    seal_audit_journal, seal_session_state, unseal_audit_journal, unseal_session_state,
    PersistError, SessionState,
};
pub use planner::GhostPlanner;
pub use protocol::{Op, Request, Response};
pub use scheduler::{
    CycleScheduler, DrainError, PlannedQuery, ResilientReport, SubmissionFailure, SubmissionTag,
    SubmitOutcome,
};
pub use server::{handle, serve_lines, serve_listener, serve_tcp};
pub use session::{
    FormulatedCycle, RolledBackCycle, SearchOutcome, ServiceError, SessionConfig, SessionManager,
};
pub use tier::SearchTier;

// Re-export the observability substrate so service consumers can reach
// the registry/exposition types without a separate dependency.
pub use toppriv_obs as obs;
