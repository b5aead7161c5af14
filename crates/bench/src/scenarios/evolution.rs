//! Scenario `evolution`: corpus growth → live reindex + retrain swap.
//!
//! The `hotswap` scenario swaps the model alone; this one completes the
//! zero-downtime story by also swapping the **search tier**: the corpus
//! evolves (new topics, new documents, larger vocabulary), a term-sharded
//! index is rebuilt over the evolved corpus, a fresh model (same K) is
//! trained on it, and both are swapped into the live manager while the
//! sessions stay open. Afterwards the fleet serves the *evolved*
//! workload — queries whose terms do not exist in the old vocabulary —
//! end to end: formulation, ghost generation, sharded resolution.
//!
//! Invariants:
//! - sessions survive the reindex (same population, accounting carries);
//! - the swapped sharded tier ranks the evolved workload identically to
//!   a single-engine build over the same corpus (reindex correctness);
//! - new-topic queries are actually protected after the swap (non-empty
//!   intention, cycle length > 1);
//! - every post-swap cycle leaves the intention out-boosted by a decoy
//!   topic or negligibly boosted (≤ ε2), and satisfied cycles do occur
//!   on the evolved workload;
//! - every post-swap submission drains on the rebuilt scheduler.

use super::{finish, fleet_manager, sharded_tier, ScenarioReport, SHARDS, TOP_K, WORKERS};
use crate::context::ExperimentContext;
use crate::verdict::InvariantBlock;
use std::sync::Arc;
use toppriv_service::{CycleScheduler, PlannedQuery, SearchTier, SessionManager};
use tsearch_corpus::{generate_workload, EvolutionConfig, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_search::{SearchEngine, ShardedEngine};
use tsearch_text::Analyzer;

/// Sessions the scenario keeps open across the reindex.
const SESSIONS: usize = 6;

/// Plans one cycle per open session over `queries` and drains the
/// merged queue, returning (reports, drained, expected, drain seconds).
fn serve_round(
    manager: &Arc<SessionManager>,
    scheduler: &CycleScheduler,
    queries: &[&tsearch_corpus::BenchmarkQuery],
    rounds: usize,
) -> (Vec<toppriv_core::CycleResult>, usize, usize) {
    let mut reports = Vec::new();
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for r in 0..rounds {
        for (s, id) in manager.session_ids().iter().enumerate() {
            let q = queries[(r * 5 + s) % queries.len()];
            let (report, plan) = manager
                .formulate_cycle(id, &q.tokens, TOP_K)
                .and_then(|fc| manager.commit_cycle(fc))
                .expect("session is open");
            reports.push(report);
            plans.push(plan);
        }
    }
    let queue = CycleScheduler::merge(plans);
    let expected = queue.len();
    let drained = match scheduler.try_drain(queue) {
        Ok(outcomes) => outcomes.len(),
        Err(e) => e.completed.len(),
    };
    (reports, drained, expected)
}

/// Runs the corpus-evolution scenario.
pub fn run(ctx: &ExperimentContext) -> ScenarioReport {
    let manager = fleet_manager(ctx, sharded_tier(ctx, SHARDS));
    super::open_tenants(&manager, SESSIONS);
    let mut inv = InvariantBlock::default();
    let mut drained = 0usize;

    // --- Round 1: steady state on the base corpus. ---------------------
    let base_queries: Vec<_> = ctx.sweep_queries().iter().collect();
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let (_, got, expected) = serve_round(&manager, &scheduler, &base_queries, 2);
    drained += got;
    let mut lost = expected - got;
    let pre_cycles: Vec<u64> = manager
        .session_ids()
        .iter()
        .map(|id| manager.session_metrics(id).expect("open").cycles)
        .collect();

    // --- Evolve the corpus, rebuild the index, retrain the model. ------
    let base_topics = ctx.corpus.num_topics();
    let evolved = ctx.corpus.evolve(EvolutionConfig {
        new_topics: (base_topics / 5).max(2),
        new_docs: (ctx.corpus.num_docs() / 5).max(50),
        new_topic_share: 0.8,
        ..Default::default()
    });
    let docs = evolved.token_docs();
    let texts: Vec<String> = evolved.docs.iter().map(|d| d.text.clone()).collect();
    let scoring = ctx.engine.model();
    let evolved_sharded = Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        evolved.vocab.clone(),
        scoring,
        SHARDS,
    ));
    // Reference build: one unsharded engine over the identical corpus,
    // for the reindex-correctness parity check.
    let reference = SearchEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        evolved.vocab.clone(),
        scoring,
    );
    let fresh = Arc::new(LdaTrainer::train(
        &docs,
        evolved.vocab.len(),
        LdaConfig {
            iterations: ctx.scale.lda_iterations,
            ..LdaConfig::with_topics(ctx.scale.default_k)
        },
    ));
    manager.swap_tier(SearchTier::Sharded(evolved_sharded));
    manager.swap_model(fresh);
    // The old scheduler captured the old tier's shard queues; a tier
    // swap means rebuilding it (documented on `swap_tier`).
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);

    // --- Round 2: the evolved workload, heavy on new-topic queries. ----
    let pool = generate_workload(
        &evolved,
        &WorkloadConfig {
            num_queries: ctx.scale.queries_per_setting * 8,
            ..ctx.scale.workload.clone()
        },
    );
    let new_topic: Vec<_> = pool
        .iter()
        .filter(|q| q.target_topics.iter().all(|&t| t >= base_topics))
        .take(ctx.scale.queries_per_setting.max(8))
        .collect();
    assert!(
        !new_topic.is_empty(),
        "evolved workload has new-topic queries"
    );
    let (reports, got, expected) = serve_round(&manager, &scheduler, &new_topic, 2);
    drained += got;
    lost += expected - got;

    // Sessions survive the reindex with accounting intact.
    let ids = manager.session_ids();
    let carried = ids.len() == SESSIONS
        && ids
            .iter()
            .zip(&pre_cycles)
            .all(|(id, &pre)| manager.session_metrics(id).expect("open").cycles > pre);
    inv.check(
        "sessions_survive_reindex",
        format!(
            "{}/{SESSIONS} sessions open after tier+model swap, all with accounting advanced",
            ids.len()
        ),
        carried,
    );

    // Reindex correctness: the live (swapped) sharded tier must rank the
    // evolved workload exactly like the reference single engine.
    let mut parity_checked = 0usize;
    let mut parity_bad = 0usize;
    for q in new_topic.iter().take(16) {
        let sharded_hits = manager.tier().search_tokens(&q.tokens, TOP_K);
        let single_hits = reference.search_tokens(&q.tokens, TOP_K);
        parity_checked += 1;
        let same = sharded_hits.len() == single_hits.len()
            && sharded_hits
                .iter()
                .zip(&single_hits)
                .all(|(a, b)| a.doc_id == b.doc_id && (a.score - b.score).abs() <= 1e-9);
        if !same {
            parity_bad += 1;
        }
    }
    inv.check(
        "sharded_matches_single_after_reindex",
        format!("{parity_checked} evolved queries compared, {parity_bad} ranking mismatches"),
        parity_bad == 0 && parity_checked > 0,
    );

    // Post-swap privacy: new-topic queries protected, exposure bounded.
    let protected = reports
        .iter()
        .filter(|r| !r.intention.is_empty() && r.cycle.len() > 1)
        .count();
    inv.check(
        "new_topics_protected_after_swap",
        format!(
            "{protected}/{} post-swap cycles carry intention and decoys",
            reports.len()
        ),
        protected > 0,
    );
    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    let satisfied = reports
        .iter()
        .filter(|r| r.satisfied && !r.intention.is_empty())
        .count();
    let worst_violation = reports
        .iter()
        .map(|r| super::masking_violation(&r.metrics, eps2))
        .fold(f64::NEG_INFINITY, f64::max);
    inv.check(
        "intention_masked_or_negligible_after_swap",
        format!(
            "{} post-swap cycles ({satisfied} satisfied); worst \
             min(exposure − mask_level, exposure − ε2) = {worst_violation:.3e}",
            reports.len()
        ),
        satisfied > 0 && worst_violation <= 1e-9,
    );
    inv.check(
        "all_submissions_drained",
        format!("{drained} drained across both rounds, {lost} lost"),
        lost == 0,
    );

    let report = finish("evolution", &manager, inv);
    manager.tier().clear_query_logs();
    report
}
