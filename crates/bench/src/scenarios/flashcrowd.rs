//! Scenario `flashcrowd`: a hot-topic query storm with Zipf-like skew.
//!
//! A breaking topic sends most of the fleet to the same handful of
//! queries at once. A cycle's members are a genuine query and ghosts
//! drawn from other topics, and nearly every one of them touches every
//! term-hash shard, so the crowd does not concentrate on a few shards.
//! The scenario watches three things:
//!
//! - the engine's own per-shard work is *visible*: every shard's
//!   `engine_shard_eval_us` histogram counts evaluations during the
//!   crowd;
//! - the shared result cache absorbs the crowd: identical hot cycles
//!   across tenants are cache-served instead of re-resolved;
//! - the privacy invariant survives the stampede: every cycle
//!   formulated during the crowd leaves the intention out-boosted by a
//!   decoy topic or negligibly boosted (≤ ε2), satisfied cycles keep
//!   occurring, and no submission is lost on the loaded shards.

use super::{finish, fleet_manager, sharded_tier, ScenarioReport, SHARDS, TOP_K, WORKERS};
use crate::context::ExperimentContext;
use crate::verdict::InvariantBlock;
use toppriv_service::{CycleScheduler, PlannedQuery};
use tsearch_search::M_SHARD_EVAL_US;

/// Sessions in the crowd.
const SESSIONS: usize = 16;

/// Hot queries the crowd converges on.
const HOT_QUERIES: usize = 2;

/// Fraction of the crowd chasing the hot queries (the rest stay on
/// their uniform background mix).
const HOT_SHARE_PCT: usize = 80;

/// Drain rounds; each open session plans this many cycles per round.
const ROUNDS: usize = 3;
const CYCLES_PER_ROUND: usize = 2;

/// Runs the flash-crowd scenario.
pub fn run(ctx: &ExperimentContext) -> ScenarioReport {
    let manager = fleet_manager(ctx, sharded_tier(ctx, SHARDS));
    super::open_tenants(&manager, SESSIONS);
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let queries = ctx.sweep_queries();
    let mut inv = InvariantBlock::default();
    let mut drained = 0usize;
    let mut lost = 0usize;
    let mut worst_violation = f64::NEG_INFINITY;
    let mut cycles = 0usize;
    let mut satisfied = 0usize;
    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    // Evaluations per shard so far, from the engine's histograms in the
    // process-global registry (which other fleets share: hence deltas).
    let shard_evals = || -> Vec<u64> {
        (0..SHARDS)
            .map(|s| {
                toppriv_obs::global()
                    .histogram(M_SHARD_EVAL_US, &[("shard", &s.to_string())])
                    .count()
            })
            .collect()
    };
    let evals_before = shard_evals();

    for round in 0..ROUNDS {
        let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
        for (s, id) in manager.session_ids().iter().enumerate() {
            for c in 0..CYCLES_PER_ROUND {
                // The hot share hammers the same HOT_QUERIES; the rest
                // walk the background workload uniformly.
                let q = if s * 100 / SESSIONS < HOT_SHARE_PCT {
                    &queries[(s + c) % HOT_QUERIES]
                } else {
                    &queries[(round * 11 + s * 3 + c) % queries.len()]
                };
                let (report, plan) = manager
                    .formulate_cycle(id, &q.tokens, TOP_K)
                    .and_then(|fc| manager.commit_cycle(fc))
                    .expect("session is open");
                worst_violation =
                    worst_violation.max(super::masking_violation(&report.metrics, eps2));
                if report.satisfied && !report.intention.is_empty() {
                    satisfied += 1;
                }
                cycles += 1;
                plans.push(plan);
            }
        }
        let queue = CycleScheduler::merge(plans);
        let expected = queue.len();
        match scheduler.try_drain(queue) {
            Ok(outcomes) => drained += outcomes.len(),
            Err(e) => {
                drained += e.completed.len();
                lost += expected - e.completed.len();
            }
        }
    }

    let evals: Vec<u64> = shard_evals()
        .iter()
        .zip(&evals_before)
        .map(|(after, before)| after - before)
        .collect();
    inv.check(
        "every_shard_evaluates",
        format!("per-shard engine evaluations during the crowd {evals:?}"),
        evals.iter().all(|&n| n > 0),
    );
    let registry = manager.metrics_registry().registry();
    let hits = registry.counter_total(toppriv_service::metrics::M_CACHE_HITS);
    inv.check(
        "cache_absorbs_crowd",
        format!("{hits} cache hits across {drained} submissions"),
        hits > 0,
    );
    inv.check(
        "intention_masked_or_negligible",
        format!(
            "{cycles} cycles under the crowd ({satisfied} satisfied); worst \
             min(exposure − mask_level, exposure − ε2) = {worst_violation:.3e}"
        ),
        satisfied > 0 && worst_violation <= 1e-9,
    );
    inv.check(
        "all_submissions_drained",
        format!("{drained} drained over {ROUNDS} rounds, {lost} lost"),
        lost == 0,
    );

    let report = finish("flashcrowd", &manager, inv);
    manager.tier().clear_query_logs();
    report
}
