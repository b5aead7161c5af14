//! Scenario `hotswap`: epoch-style `Arc<LdaModel>` swap under load.
//!
//! A fleet that never restarts must deploy a retrained model while
//! tenants keep searching. The scenario exercises the manager's
//! epoch-swap machinery three ways:
//!
//! 1. **Determinism across an identical reload** — the model is
//!    serialized and decoded (a real "reload from disk") and swapped
//!    in; the same query from the same fleet must formulate an
//!    identical cycle and rank identically, proving the swap machinery
//!    itself adds no nondeterminism and cross-tenant cache identity is
//!    preserved.
//! 2. **Swap concurrent with a drain** — a worker pool drains a merged
//!    queue while the swap happens mid-flight; every submission must
//!    still resolve (in-flight generators pin the old model via its
//!    `Arc`).
//! 3. **Staleness delta** — the corpus evolves, a fresh model (same K)
//!    is trained on it, and the swap must buy the protection the
//!    `staleness` experiment quantifies: new-topic queries that the
//!    stale model left naked (empty intention, no ghosts) get cycles
//!    again under the fresh model. Session accounting stays continuous
//!    across the swap (same K → no reset).

use super::{finish, fleet_manager, sharded_tier, ScenarioReport, SHARDS, TOP_K, WORKERS};
use crate::context::ExperimentContext;
use crate::verdict::InvariantBlock;
use std::sync::Arc;
use toppriv_service::{CycleScheduler, PlannedQuery};
use tsearch_corpus::{generate_workload, EvolutionConfig, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};

/// Sessions the scenario runs.
const SESSIONS: usize = 8;

/// Runs the hot-swap scenario.
pub fn run(ctx: &ExperimentContext) -> ScenarioReport {
    let tier = sharded_tier(ctx, SHARDS);
    let manager = fleet_manager(ctx, tier.clone());
    super::open_tenants(&manager, SESSIONS);
    let mut inv = InvariantBlock::default();
    let queries = ctx.sweep_queries();
    let probe = &queries[0];

    // --- 1. Identical reload: serialize → decode → swap. -------------
    let before = manager
        .search_tokens("tenant-0", &probe.tokens, TOP_K)
        .expect("probe search");
    let reloaded = Arc::new(
        tsearch_lda::decode(&tsearch_lda::encode(ctx.default_model()))
            .expect("model codec round-trip"),
    );
    let epoch = manager.swap_model(reloaded);
    let after = manager
        .search_tokens("tenant-1", &probe.tokens, TOP_K)
        .expect("probe search after swap");
    let same_cycle = before.report.cycle.len() == after.report.cycle.len()
        && before
            .report
            .cycle
            .iter()
            .zip(&after.report.cycle)
            .all(|(a, b)| a.tokens == b.tokens && a.is_genuine == b.is_genuine);
    inv.check(
        "decoys_deterministic_across_reload",
        format!(
            "identical-model swap (epoch {epoch}): cycle of {} queries {} the pre-swap cycle",
            after.report.cycle.len(),
            if same_cycle {
                "matches"
            } else {
                "differs from"
            }
        ),
        same_cycle,
    );
    let same_ranking = before.hits.len() == after.hits.len()
        && before
            .hits
            .iter()
            .zip(&after.hits)
            .all(|(a, b)| a.doc_id == b.doc_id && (a.score - b.score).abs() <= 1e-9);
    inv.check(
        "rankings_continuous_across_swap",
        format!(
            "probe query top-{} identical before/after swap: {same_ranking}",
            before.hits.len()
        ),
        same_ranking,
    );
    // Cache identity: the post-swap cycle re-derived the same decoys,
    // so every member should have been served from the shared cache.
    inv.check(
        "cache_identity_preserved",
        format!(
            "post-swap cycle: {}/{} members cache-served",
            after.cache_hits,
            after.report.cycle.len()
        ),
        after.cache_hits == after.report.cycle.len(),
    );

    // --- 2. Swap concurrent with an active drain. ---------------------
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        for c in 0..2 {
            let q = &queries[(s * 3 + c) % queries.len()];
            plans.push(manager.plan_cycle(id, &q.tokens, TOP_K).expect("open"));
        }
    }
    let queue = CycleScheduler::merge(plans);
    let expected = queue.len();
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let (drain_result, mid_epoch) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| scheduler.try_drain(queue));
        // Swap while the pool is (very likely) mid-drain; correctness
        // does not depend on the overlap, only the stress does.
        let reloaded = Arc::new(
            tsearch_lda::decode(&tsearch_lda::encode(ctx.default_model()))
                .expect("model codec round-trip"),
        );
        let mid_epoch = manager.swap_model(reloaded);
        (handle.join().expect("drain thread"), mid_epoch)
    });
    let (ok, got) = match &drain_result {
        Ok(outcomes) => (outcomes.len() == expected, outcomes.len()),
        Err(e) => (false, e.completed.len()),
    };
    inv.check(
        "no_submissions_lost_to_swap",
        format!("{got}/{expected} submissions drained while swapping to epoch {mid_epoch}"),
        ok,
    );

    // --- 3. Staleness delta: retrain on the evolved corpus (same K). ---
    let base_topics = ctx.corpus.num_topics();
    let evolved = ctx.corpus.evolve(EvolutionConfig {
        new_topics: (base_topics / 5).max(2),
        new_docs: (ctx.corpus.num_docs() / 5).max(50),
        new_topic_share: 0.8,
        ..Default::default()
    });
    let pool = generate_workload(
        &evolved,
        &WorkloadConfig {
            num_queries: ctx.scale.queries_per_setting * 8,
            ..ctx.scale.workload.clone()
        },
    );
    let new_topic_queries: Vec<_> = pool
        .iter()
        .filter(|q| q.target_topics.iter().all(|&t| t >= base_topics))
        .take(ctx.scale.queries_per_setting.max(8))
        .collect();
    // Stale view: the current (pre-retrain) model drops OOV terms and
    // sees nothing to protect.
    let old_vocab = ctx.corpus.vocab.len() as u32;
    let mut stale_naked = 0usize;
    let mut stale_total = 0usize;
    for q in &new_topic_queries {
        let projected: Vec<u32> = q
            .tokens
            .iter()
            .copied()
            .filter(|&w| w < old_vocab)
            .collect();
        if projected.is_empty() {
            stale_naked += 1;
            stale_total += 1;
            continue;
        }
        let out = manager
            .search_tokens("tenant-2", &projected, TOP_K)
            .expect("stale search");
        if out.report.intention.is_empty() {
            stale_naked += 1;
        }
        stale_total += 1;
    }
    let pre_swap = manager
        .session_metrics("tenant-2")
        .expect("open session")
        .cycles;
    let fresh = Arc::new(LdaTrainer::train(
        &evolved.token_docs(),
        evolved.vocab.len(),
        LdaConfig {
            iterations: ctx.scale.lda_iterations,
            ..LdaConfig::with_topics(ctx.scale.default_k)
        },
    ));
    let fresh_epoch = manager.swap_model(fresh);
    // The fresh model speaks the evolved vocabulary, which this tier's
    // index does not hold yet — so the fresh view is assessed at the
    // formulation layer (plan, no resolution); swapping the index too
    // is the `evolution` scenario's job.
    let mut fresh_protected = 0usize;
    for q in &new_topic_queries {
        let (report, _plan) = manager
            .formulate_cycle("tenant-2", &q.tokens, TOP_K)
            .and_then(|fc| manager.commit_cycle(fc))
            .expect("fresh plan");
        if !report.intention.is_empty() && report.cycle.len() > 1 {
            fresh_protected += 1;
        }
    }
    inv.check(
        "staleness_delta_recovered",
        format!(
            "{stale_naked}/{stale_total} new-topic queries naked under the stale model; \
             {fresh_protected}/{} protected after the epoch-{fresh_epoch} retrain swap",
            new_topic_queries.len()
        ),
        stale_naked > 0 && fresh_protected > 0,
    );
    // Same K → the session's accounting must carry across the swap.
    let post_swap = manager
        .session_metrics("tenant-2")
        .expect("open session")
        .cycles;
    inv.check(
        "accounting_continuous_across_swap",
        format!(
            "tenant-2 cycles {pre_swap} before swap, {post_swap} after \
             (+{} new-topic searches, same K = {})",
            new_topic_queries.len(),
            ctx.scale.default_k
        ),
        post_swap == pre_swap + new_topic_queries.len() as u64,
    );
    inv.check(
        "epoch_monotone",
        format!("3 swaps performed, final epoch {}", manager.model_epoch()),
        manager.model_epoch() == 3 && fresh_epoch == 3,
    );

    let report = finish("hotswap", &manager, inv);
    manager.tier().clear_query_logs();
    report
}
