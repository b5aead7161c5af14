//! # toppriv-core
//!
//! The paper's primary contribution: the `(ε1, ε2)`-privacy model for
//! topical intention in text search, and the TopPriv algorithm that
//! enforces it by injecting semantically coherent ghost queries — all
//! purely client-side, with no changes to the search engine.
//!
//! ## Components
//!
//! - [`BeliefEngine`]: prior `Pr(t)`, posterior `Pr(t|q)`, and boost
//!   `B(t|q) = Pr(t|q) − Pr(t)` computations (Section IV-A/B).
//! - [`PrivacyRequirement`]: the `(ε1, ε2)` model (Definitions 1–4).
//! - [`GhostGenerator`]: topic-cognizant ghost query generation
//!   (Section IV-C).
//! - [`TrustedClient`]: the client module of Figure 1 — mixes the cycle,
//!   submits it, filters ghost results.
//! - [`metrics`]: exposure / mask-level / rank metrics of Section V-A.
//!
//! ## Example
//!
//! ```no_run
//! use toppriv_core::{BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement};
//! # let model: std::sync::Arc<tsearch_lda::LdaModel> = unimplemented!();
//!
//! let generator = GhostGenerator::new(
//!     BeliefEngine::new(model.clone()),
//!     PrivacyRequirement::paper_default(), // ε1 = 5%, ε2 = 1%
//!     GhostConfig::default(),
//! );
//! let result = generator.generate(&[17, 42, 256]);
//! assert!(result.metrics.exposure <= result.metrics.mask_level);
//! ```

pub mod belief;
pub mod client;
pub mod ghost;
pub mod history;
pub mod metrics;
pub mod pacing;
pub mod privacy;

pub use belief::BeliefEngine;
pub use client::{PrivateSearchResult, TrustedClient};
pub use ghost::{CycleQuery, CycleResult, GhostConfig, GhostGenerator, TermSelection};
pub use history::{SessionTracker, TraceReport};
pub use metrics::{
    exposure, intention_ranks, mask_level, max_rank_of_intention, semantic_coherence,
    substitute_in_cycle_boosts, PrivacyMetrics,
};
pub use pacing::{
    merge_schedules, PacingConfig, PacingScheduler, PacingStrategy, ScheduledQuery,
    M_PACING_GAP_US, M_PACING_GENUINE_DELAY_US,
};
pub use privacy::{PrivacyCertificate, PrivacyModelError, PrivacyRequirement};
