//! Experiment `sharding` (extension beyond the paper): scaling the
//! search tier by term-sharding the inverted index.
//!
//! Two tables:
//!
//! - `ext6_shard_equivalence` — for shard counts 1/2/4/8, every sweep
//!   query is evaluated on the single engine and on a `ShardedEngine`
//!   over the same corpus; the table records whether every ranked list
//!   was identical (doc ids equal, scores within 1e-9) plus the worst
//!   score deviation. Sharding must be invisible in the results.
//! - `ext6_shard_scaling` — server-side drain throughput and p99 submit
//!   latency at 1/2/4/8 shards × 1/8/64 sessions, cache off so every
//!   submission reaches the engine (the cache would otherwise absorb the
//!   cross-tenant duplicates that sharding is meant to spread). Each
//!   cell plans paced cycles through a fresh `SessionManager`, merges
//!   them, and drains the merged queue on the scheduler's worker
//!   pool. qps is submissions per wall-clock second.

use crate::context::ExperimentContext;
use crate::obsbench;
use crate::table::{f3, ResultTable};
use std::sync::Arc;
use std::time::Instant;
use toppriv_service::{CycleScheduler, PlannedQuery, SearchTier, SessionManager};
use tsearch_search::{Query, ShardedEngine};
use tsearch_text::Analyzer;

/// Shard counts swept (1 = the unsharded baseline).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Session counts swept.
pub const SESSION_COUNTS: [usize; 3] = [1, 8, 64];
/// Total scheduler workers (spread across shards at drain time).
pub const WORKERS: usize = 8;
/// Results per query.
pub const TOP_K: usize = 10;
/// Minimum drained submissions per throughput cell (queue replayed in
/// rounds until reached).
pub const MIN_SUBMISSIONS: usize = 1500;
/// Fixed fleet secret so every cell plans the identical ghost workload.
const FLEET_SEED: u64 = 0x5EED;

/// Cores available to the worker pool (1 means qps cannot scale with
/// shards on this host, only contention can drop).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builds a sharded engine over the context's corpus (the context's own
/// engine stays untouched — its query log belongs to other experiments).
fn sharded_engine(ctx: &ExperimentContext, shards: usize) -> Arc<ShardedEngine> {
    let docs = ctx.corpus.token_docs();
    let texts: Vec<String> = ctx.corpus.docs.iter().map(|d| d.text.clone()).collect();
    Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        ctx.corpus.vocab.clone(),
        ctx.engine.model(),
        shards,
    ))
}

fn equivalence_table(ctx: &ExperimentContext) -> ResultTable {
    let mut table = ResultTable::new(
        "ext6_shard_equivalence",
        "Result equivalence of the term-sharded engine vs the single \
         engine over the benchmark workload (every query, top-10)",
        vec![
            "shards".into(),
            "queries".into(),
            "identical_rankings".into(),
            "max_score_diff".into(),
            "mean_shards_touched".into(),
        ],
    );
    for &shards in &SHARD_COUNTS {
        let engine = sharded_engine(ctx, shards);
        let mut identical = true;
        let mut max_diff = 0.0f64;
        let mut touched = 0usize;
        let queries = ctx.sweep_queries();
        for q in queries {
            let query = Query::from_tokens(&q.tokens);
            let expected = ctx.engine.evaluate(&query, TOP_K);
            let actual = engine.evaluate(&query, TOP_K);
            touched += engine.shard_set(&q.tokens).len();
            if expected.len() != actual.len()
                || expected
                    .iter()
                    .zip(&actual)
                    .any(|(e, a)| e.doc_id != a.doc_id)
            {
                identical = false;
                continue;
            }
            for (e, a) in expected.iter().zip(&actual) {
                let diff = (e.score - a.score).abs();
                max_diff = max_diff.max(diff);
                if diff > 1e-9 {
                    identical = false;
                }
            }
        }
        table.push_row(vec![
            shards.to_string(),
            queries.len().to_string(),
            identical.to_string(),
            format!("{max_diff:.2e}"),
            f3(touched as f64 / queries.len().max(1) as f64),
        ]);
    }
    table
}

/// One throughput cell: plan every session's paced cycles over the
/// shared workload, merge, then drain the queue repeatedly until at
/// least [`MIN_SUBMISSIONS`] submissions have been measured.
fn run_cell(
    ctx: &ExperimentContext,
    tier: SearchTier,
    shards: usize,
    sessions: usize,
) -> (f64, u64, f64, toppriv_obs::BenchSnapshot) {
    let manager = Arc::new(
        SessionManager::with_tier(tier.clone(), ctx.default_model().clone())
            .with_fleet_seed(FLEET_SEED),
    );
    let queries = ctx.sweep_queries();
    for s in 0..sessions {
        manager.open_session(&format!("tenant-{s}")).expect("fresh");
    }
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        for q in 0..2 {
            let query = &queries[(s + q) % queries.len()];
            plans.push(manager.plan_cycle(id, &query.tokens, TOP_K).expect("open"));
        }
    }
    let queue = CycleScheduler::merge(plans);
    let rounds = MIN_SUBMISSIONS.div_ceil(queue.len().max(1)).max(1);
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    // Warm-up round (thread spawn, allocator) through a throwaway
    // metrics registry so its cold-start latencies cannot contaminate
    // the measured p99.
    let warmup = CycleScheduler::new(
        tier.clone(),
        None,
        Arc::new(toppriv_service::ServiceMetrics::new()),
        WORKERS,
    );
    std::hint::black_box(warmup.drain(queue.clone()));
    obsbench::reset_engine_stages();
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(scheduler.drain(queue.clone()));
    }
    let secs = t0.elapsed().as_secs_f64();
    tier.clear_query_logs();
    let snapshot = manager.metrics_registry().snapshot();
    let qps = (queue.len() * rounds) as f64 / secs.max(1e-9);
    let bench = obsbench::service_bench_snapshot(
        "sharding",
        manager.metrics_registry().registry(),
        qps,
        format!("{shards} shard(s), {sessions} session(s), {WORKERS} workers, cache off, {rounds} round(s)"),
    );
    (qps, snapshot.p99_submit_us, queue.len() as f64, bench)
}

fn scaling_table(ctx: &ExperimentContext) -> ResultTable {
    let mut table = ResultTable::new(
        "ext6_shard_scaling",
        format!(
            "Drain throughput (submissions/s) and p99 submit latency of \
             the shared scheduler queue at 1/2/4/8 shards x 1/8/64 \
             sessions (8 workers over {} core(s), cache off, uncached \
             engine evaluations). Sharding removes the engine-wide log \
             mutex from the hot path; the parallel qps \
             speedup it unlocks is bounded by the host's core count.",
            available_cores()
        ),
        vec![
            "shards".into(),
            "sessions".into(),
            "queue_len".into(),
            "qps".into(),
            "p99_submit_us".into(),
        ],
    );
    let mut last_bench: Option<toppriv_obs::BenchSnapshot> = None;
    for &shards in &SHARD_COUNTS {
        let tier: SearchTier = if shards == 1 {
            SearchTier::Single(ctx.engine.clone())
        } else {
            SearchTier::Sharded(sharded_engine(ctx, shards))
        };
        for &sessions in &SESSION_COUNTS {
            let (qps, p99, queue_len, bench) = run_cell(ctx, tier.clone(), shards, sessions);
            table.push_row(vec![
                shards.to_string(),
                sessions.to_string(),
                format!("{queue_len:.0}"),
                f3(qps),
                p99.to_string(),
            ]);
            last_bench = Some(bench);
        }
        tier.clear_query_logs();
    }
    // The bench trail keeps the most heavily sharded, most contended
    // cell — the configuration the per-shard breakdown exists for.
    if let Some(bench) = last_bench {
        obsbench::emit_bench(&bench);
    }
    table
}

/// Runs the sharding experiment on the default model.
pub fn run(ctx: &ExperimentContext) -> Vec<ResultTable> {
    vec![equivalence_table(ctx), scaling_table(ctx)]
}
