//! `toppriv-scenarios`: named end-to-end fleet scenarios.
//!
//! The experiments under [`crate::experiments`] exercise one mechanism
//! each; a scenario drives the **whole fleet** — a live
//! [`SessionManager`] / [`toppriv_service::CycleScheduler`] / sharded
//! search tier — through an operational event and asserts the privacy
//! and correctness invariants that must hold *across* it (exposure ≤
//! mask level through a churn storm, accounting continuity through a
//! model hot-swap, bit-identical restored accounting after a crash).
//! Each hands back a [`ScenarioReport`]: its named checks, pass or
//! fail. A scenario measures nothing — throughput and stage latencies
//! are `benchmark/`'s to read.
//!
//! The matrix ([`SCENARIOS`]): `churn`, `hotswap`, `evolution`,
//! `flashcrowd`, `recovery`, `chaos`. `cargo run --bin reproduce --
//! scenarios` runs all six and exits non-zero if any invariant fails,
//! which is what CI's `invariants` job gates on.

pub mod chaos;
pub mod churn;
pub mod evolution;
pub mod flashcrowd;
pub mod hotswap;
pub mod recovery;

use crate::context::ExperimentContext;
use crate::verdict::{InvariantBlock, ScenarioReport};
use std::sync::Arc;
use toppriv_service::{SearchTier, SessionManager};
use tsearch_search::ShardedEngine;
use tsearch_text::Analyzer;

/// The scenario matrix, in run order.
pub const SCENARIOS: [&str; 6] = [
    "churn",
    "hotswap",
    "evolution",
    "flashcrowd",
    "recovery",
    "chaos",
];

/// Fixed fleet secret: every scenario plans the identical ghost
/// workload run to run.
pub const FLEET_SEED: u64 = 0x5CE7A210;

/// Shards the scenario tiers run on.
pub const SHARDS: usize = 4;

/// Total scheduler workers per drain.
pub const WORKERS: usize = 4;

/// Results fetched per query.
pub const TOP_K: usize = 10;

/// Builds a term-sharded engine over the context's corpus (the
/// context's own engine stays untouched — its query log belongs to
/// other experiments).
pub(crate) fn sharded_tier(ctx: &ExperimentContext, shards: usize) -> SearchTier {
    let docs = ctx.corpus.token_docs();
    let texts: Vec<String> = ctx.corpus.docs.iter().map(|d| d.text.clone()).collect();
    SearchTier::Sharded(Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        ctx.corpus.vocab.clone(),
        ctx.engine.model(),
        shards,
    )))
}

/// A fresh fleet manager on `tier` with the scenario fleet seed, a
/// result cache (decoys are content-deterministic, so cross-tenant
/// cache identity is part of what scenarios exercise), and the privacy
/// audit plane attached — every scenario run is continuously audited,
/// and [`finish`] folds the auditor's verdict into the scenario's
/// invariant block.
pub(crate) fn fleet_manager(ctx: &ExperimentContext, tier: SearchTier) -> Arc<SessionManager> {
    Arc::new(
        SessionManager::with_tier(tier, ctx.default_model().clone())
            .with_cache(4096)
            .with_fleet_seed(FLEET_SEED)
            .with_auditor(toppriv_service::AuditConfig::default()),
    )
}

/// Per-cycle masking violation: how far the intention's boost sticks
/// out above **both** the decoy topics and the ε2 negligibility
/// threshold, `min(exposure − mask_level, exposure − ε2)`. The fleet
/// invariant is `violation ≤ 0` (within float tolerance) for every
/// cycle: the intention is either out-boosted by a decoy topic or
/// negligibly boosted — it never stands out. Strict
/// `exposure ≤ mask_level` alone is *not* guaranteed: a satisfied
/// cycle can have every topic's boost below ε2, with the intention's
/// tiny boost above the decoys'.
pub(crate) fn masking_violation(metrics: &toppriv_core::PrivacyMetrics, eps2: f64) -> f64 {
    (metrics.exposure - metrics.mask_level).min(metrics.exposure - eps2)
}

/// Opens `n` tenants named `tenant-0..n` on the manager.
pub(crate) fn open_tenants(manager: &SessionManager, n: usize) {
    for s in 0..n {
        manager
            .open_session(&format!("tenant-{s}"))
            .expect("tenant id is fresh");
    }
}

/// Closes one scenario: appends the audit plane's own verdict to the
/// scenario's checks and prints the PASS/FAIL line.
pub(crate) fn finish(
    name: &str,
    manager: &SessionManager,
    mut invariants: InvariantBlock,
) -> ScenarioReport {
    if let Some(auditor) = manager.auditor() {
        let health = auditor.health();
        invariants.check(
            "audit_plane_healthy",
            format!(
                "auditor saw {} cycle(s), {} breach(es), verdict {}",
                health.cycles_audited,
                health.breaches,
                health.verdict()
            ),
            health.healthy,
        );
    }
    ScenarioReport::close(name, invariants)
}

/// Runs the full scenario matrix in [`SCENARIOS`] order.
pub fn run_all(ctx: &ExperimentContext) -> Vec<ScenarioReport> {
    SCENARIOS
        .iter()
        .map(|&name| run_one(ctx, name).expect("matrix names are exhaustive"))
        .collect()
}

/// Runs one scenario by name (`None` for an unknown name).
pub fn run_one(ctx: &ExperimentContext, name: &str) -> Option<ScenarioReport> {
    match name {
        "churn" => Some(churn::run(ctx)),
        "hotswap" => Some(hotswap::run(ctx)),
        "evolution" => Some(evolution::run(ctx)),
        "flashcrowd" => Some(flashcrowd::run(ctx)),
        "recovery" => Some(recovery::run(ctx)),
        "chaos" => Some(chaos::run(ctx)),
        _ => None,
    }
}
