//! `fleet_drain`: the paced path in-process — plan every tenant's cycles,
//! merge, drain on the scheduler's workers. No sockets: the wire's `Search`
//! resolves inline and never reaches scheduler or planner.
//!
//! Rounds come in pairs over the same queries and separate managers: a plain
//! round (`plan_cycle → merge → drain`, cache off, so the engine is the only
//! cost and worker parallelism the only lever) and a planner round
//! (`GhostPlanner::plan_cycle → take_queue → drain`, cache on), which prices
//! the planner's cost curve.

use crate::server;
use crate::stack::{self, Oracle, PoolQuery, TOP_K};
use crate::stats::Samples;
use crate::trace::{server_like_manager, SpanLog};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use toppriv::service::scheduler::{M_QUEUE_WAIT_US, M_SERVICE_US, M_SHARD_SUBMITS};
use toppriv::service::{CycleScheduler, GhostPlanner, PlannedQuery, SubmitOutcome};
use toppriv::text::TermId;
use toppriv::{LdaModel, SearchTier, SessionManager, SyntheticCorpus};

pub const SESSIONS: usize = 64;
/// Queries each session plans per round.
pub const QUERIES_PER_ROUND: usize = 2;
pub const SHARDS: usize = 4;
/// `planner_cost_ratio` is taken over the first this-many planner rounds, so
/// that it is a function of the seed alone and repeats exactly; how many
/// rounds fit the window depends on the machine. (A window shorter than that
/// uses what it has.)
pub const COST_RATIO_ROUNDS: u64 = 16;

pub struct FleetConfig {
    pub seed: u64,
    pub seconds: f64,
    /// Stack builds timed for `setup_s`; the last one is used.
    pub setups: usize,
    pub workers: usize,
}

/// The two managers and everything they share.
pub struct Fleet {
    pub corpus: SyntheticCorpus,
    pub tier: SearchTier,
    pub model: Arc<LdaModel>,
    pub plain: Arc<SessionManager>,
    pub planned: Arc<SessionManager>,
    planner: GhostPlanner,
    plain_scheduler: CycleScheduler,
    planned_scheduler: CycleScheduler,
}

fn session_id(s: usize) -> String {
    format!("tenant-{s:03}")
}

impl Fleet {
    /// Builds the stack as `toppriv-serve --shards 4` would, plus the two
    /// managers with their sessions open.
    pub fn build(seed: u64, workers: usize) -> Fleet {
        let (corpus, tier, model) = toppriv::build_demo_stack_sharded(
            stack::corpus_config(),
            stack::TOPICS,
            stack::LDA_ITERATIONS,
            SHARDS,
        );
        let fleet_seed = seed ^ 0xF1EE_75EE_D000_0002;
        let plain = Arc::new(server_like_manager(
            tier.clone(),
            model.clone(),
            fleet_seed,
            false,
        ));
        let planned = Arc::new(server_like_manager(
            tier.clone(),
            model.clone(),
            fleet_seed,
            true,
        ));
        for s in 0..SESSIONS {
            plain.open_session(&session_id(s)).expect("fresh session");
            planned.open_session(&session_id(s)).expect("fresh session");
        }
        Fleet {
            planner: GhostPlanner::new(planned.clone()),
            plain_scheduler: CycleScheduler::for_manager(&plain, workers),
            planned_scheduler: CycleScheduler::for_manager(&planned, workers),
            corpus,
            tier,
            model,
            plain,
            planned,
        }
    }
}

/// What one `fleet_drain` run measured.
#[derive(Default)]
pub struct FleetRun {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub pairs: u64,
    /// Plain rounds: plan + merge + drain wall, per round.
    pub plain_round: Samples,
    /// Plain rounds: the p50 and the p95 over one round's genuine queries of
    /// the time from the moment a query is handed to `plan_cycle` until the
    /// round's drain returns with the answers; one reading per round. The run
    /// reports the median round. (A p95 over the whole window's queries has
    /// under two of its ~33 rounds beyond it: it reads whichever rounds the
    /// host disturbed, and spread 24 % over ten runs of the same code.)
    pub round_p50: Samples,
    pub round_p95: Samples,
    /// Plain rounds: drain wall, per round.
    pub plain_drain: Samples,
    pub plain_submissions: u64,
    pub plain_genuine: u64,
    /// Planner rounds: plan + take_queue + drain wall, per round.
    pub planned_round: Samples,
    pub planned_genuine: u64,
    pub planned_engine_submits: u64,
    /// Engine submissions and genuine queries of the first
    /// [`COST_RATIO_ROUNDS`] planner rounds.
    pub cost_ratio_submits: u64,
    pub cost_ratio_genuine: u64,
    pub planner_reuse: u64,
    pub planner_coalesced: u64,
    /// Engine evaluations (cache misses) over both managers.
    pub engine_evals: u64,
    /// Per-cycle `SessionManager::plan_cycle` / `GhostPlanner::plan_cycle`.
    pub plan_cycle: Samples,
    pub planner_plan: Samples,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Scores within tolerance of the oracle's but not bit-equal.
    pub scores_inexact: u64,
    /// From the plain manager's registry after the window.
    pub queue_wait_p50_us: f64,
    pub queue_wait_p99_us: f64,
    pub service_p50_us: f64,
    pub busy_frac: f64,
    pub shard_imbalance: f64,
}

impl FleetRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The genuine answers of one drained round, for the oracle pass.
struct Answered {
    tokens: Vec<TermId>,
    hits: Vec<(u32, f64)>,
}

/// Pairs every genuine outcome with the tokens its cycle planned; a cycle
/// without its genuine outcome is a failure.
fn collect_answers(
    queue_tags: HashMap<(String, usize), Vec<TermId>>,
    outcomes: &[SubmitOutcome],
    run: &mut FleetRun,
    answers: &mut Vec<Answered>,
) {
    let mut pending = queue_tags;
    for o in outcomes.iter().filter(|o| o.is_genuine) {
        match pending.remove(&(o.session.clone(), o.cycle_id)) {
            Some(tokens) => answers.push(Answered {
                tokens,
                hits: o.hits.iter().map(|h| (h.doc_id, h.score)).collect(),
            }),
            None => run.fail(format!(
                "unplanned genuine outcome for {} cycle {}",
                o.session, o.cycle_id
            )),
        }
    }
    for ((session, cycle), _) in pending {
        run.fail(format!(
            "{session} cycle {cycle}: genuine query never answered"
        ));
    }
}

/// `(session, cycle) → genuine tokens` of a queue about to be drained.
fn genuine_tags(queue: &[PlannedQuery]) -> HashMap<(String, usize), Vec<TermId>> {
    let mut tags = HashMap::new();
    for entry in queue {
        for tag in entry.subscriber_tags() {
            if tag.is_genuine {
                tags.insert((tag.session, tag.cycle_id), entry.scheduled.tokens.clone());
            }
        }
    }
    tags
}

/// The queries of pair `pair`: half as many distinct queries as cycles, so
/// tenants overlap as they do on a shared service.
fn round_queries(pool: &[PoolQuery], pair: u64) -> Vec<(usize, &PoolQuery)> {
    let distinct = (SESSIONS * QUERIES_PER_ROUND / 2).max(1);
    let base = (pair as usize * distinct) % (pool.len() - distinct);
    (0..SESSIONS)
        .flat_map(|s| {
            (0..QUERIES_PER_ROUND).map(move |q| (s, (s * QUERIES_PER_ROUND + q * 7) % distinct))
        })
        .map(|(s, i)| (s, &pool[base + i]))
        .collect()
}

/// Runs pairs of rounds for `cfg.seconds`, then checks every genuine answer.
/// With `log` enabled the layer boundaries are recorded as spans.
pub fn run(
    cfg: &FleetConfig,
    log: &mut SpanLog,
) -> Result<(FleetRun, Fleet, Vec<PoolQuery>), String> {
    let mut run = FleetRun::default();
    let mut built = None;
    for _ in 0..cfg.setups.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(Fleet::build(cfg.seed, cfg.workers));
        run.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let fleet = built.expect("at least one build");
    let pool = stack::query_pool(&fleet.corpus, cfg.seed);
    let mut answers = Vec::new();

    let ticks = server::clock_ticks_per_s();
    let cpu0 = server::cpu_ms(0, ticks)?;
    let before_plain = fleet.plain.metrics().global;
    let before_planned = fleet.planned.metrics().global;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < cfg.seconds {
        let queries = round_queries(&pool, run.pairs);
        run.pairs += 1;
        run.attempted += 2 * queries.len() as u64;

        // Plain round.
        let round = log.open("round.plain", 0, run.pairs);
        let t0 = Instant::now();
        let mut plans = Vec::with_capacity(queries.len());
        let mut handed_in = Vec::with_capacity(queries.len());
        for (s, q) in &queries {
            handed_in.push(Instant::now());
            let span = log.open("session.plan", round.id(), run.pairs);
            let plan = fleet.plain.plan_cycle(&session_id(*s), &q.tokens, TOP_K);
            run.plan_cycle.push(log.close(span));
            plans.push(plan.map_err(|e| e.to_string())?);
        }
        let span = log.open("scheduler.merge", round.id(), run.pairs);
        let queue = CycleScheduler::merge(plans);
        log.close(span);
        let tags = genuine_tags(&queue);
        run.plain_submissions += queue.len() as u64;
        let span = log.open("scheduler.drain", round.id(), run.pairs);
        let outcomes = fleet.plain_scheduler.drain(queue);
        run.plain_drain.push(log.close(span));
        let answered = Instant::now();
        run.plain_round.push((answered - t0).as_nanos() as u64);
        let mut waited = Samples::default();
        for handed in handed_in {
            waited.push((answered - handed).as_nanos() as u64);
        }
        run.round_p50.push(waited.percentile(0.50));
        run.round_p95.push(waited.percentile(0.95));
        log.close(round);
        run.plain_genuine += queries.len() as u64;
        collect_answers(tags, &outcomes, &mut run, &mut answers);

        // Planner round, same queries, its own manager.
        let round = log.open("round.planner", 0, run.pairs);
        let t0 = Instant::now();
        for (s, q) in &queries {
            let span = log.open("planner.plan", round.id(), run.pairs);
            let planned = fleet.planner.plan_cycle(&session_id(*s), &q.tokens, TOP_K);
            run.planner_plan.push(log.close(span));
            planned.map_err(|e| e.to_string())?;
        }
        let span = log.open("planner.take_queue", round.id(), run.pairs);
        let queue = fleet.planner.take_queue();
        log.close(span);
        let tags = genuine_tags(&queue);
        let span = log.open("scheduler.drain", round.id(), run.pairs);
        let outcomes = fleet.planned_scheduler.drain(queue);
        log.close(span);
        run.planned_round.push(t0.elapsed().as_nanos() as u64);
        log.close(round);
        run.planned_genuine += queries.len() as u64;
        if run.pairs == COST_RATIO_ROUNDS {
            let now = fleet.planned.metrics().global;
            run.cost_ratio_submits = now.engine_submits - before_planned.engine_submits;
            run.cost_ratio_genuine = run.planned_genuine;
        }
        collect_answers(tags, &outcomes, &mut run, &mut answers);
    }
    run.window_s = window.elapsed().as_secs_f64();
    run.cpu_ms = server::cpu_ms(0, ticks)? - cpu0;
    run.peak_rss_mb = server::peak_rss_mb(0)?;

    let after_plain = fleet.plain.metrics().global;
    let after_planned = fleet.planned.metrics().global;
    run.planned_engine_submits = after_planned.engine_submits - before_planned.engine_submits;
    if run.pairs < COST_RATIO_ROUNDS {
        run.cost_ratio_submits = run.planned_engine_submits;
        run.cost_ratio_genuine = run.planned_genuine;
    }
    run.planner_reuse = after_planned.planner_reuse - before_planned.planner_reuse;
    run.planner_coalesced = after_planned.planner_coalesced - before_planned.planner_coalesced;
    run.engine_evals = (after_plain.cache_misses - before_plain.cache_misses)
        + (after_planned.cache_misses - before_planned.cache_misses);

    let registry = fleet.plain.metrics_registry().registry();
    if let Some(wait) = registry.merged_histogram(M_QUEUE_WAIT_US) {
        run.queue_wait_p50_us = wait.percentile(0.50) as f64;
        run.queue_wait_p99_us = wait.percentile(0.99) as f64;
    }
    if let Some(service) = registry.merged_histogram(M_SERVICE_US) {
        run.service_p50_us = service.percentile(0.50) as f64;
        let drain_us = run.plain_drain.sum() as f64 / 1e3;
        run.busy_frac = service.sum() as f64 / (cfg.workers as f64 * drain_us).max(1.0);
    }
    let mut per_shard = vec![0u64; SHARDS];
    for (labels, count) in registry.counter_values(M_SHARD_SUBMITS) {
        if let Some(shard) = labels
            .iter()
            .find(|l| l.key == "shard")
            .and_then(|l| l.value.parse::<usize>().ok())
        {
            per_shard[shard.min(SHARDS - 1)] += count;
        }
    }
    run.shard_imbalance = toppriv::obs::imbalance(&per_shard);

    let mut oracle = Oracle::new(&fleet.corpus);
    for a in answers {
        match oracle.check(&a.tokens, &a.hits) {
            Ok(inexact) => run.scores_inexact += inexact,
            Err(why) => run.fail(format!("oracle mismatch: {why}")),
        }
    }
    Ok((run, fleet, pool))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_share_queries_across_tenants_and_move_through_the_pool() {
        let pool: Vec<PoolQuery> = (0..1_000)
            .map(|i| PoolQuery {
                text: format!("q{i}"),
                tokens: vec![i],
            })
            .collect();
        let a = round_queries(&pool, 0);
        assert_eq!(a.len(), SESSIONS * QUERIES_PER_ROUND);
        let distinct: std::collections::HashSet<&str> =
            a.iter().map(|(_, q)| q.text.as_str()).collect();
        assert_eq!(distinct.len(), SESSIONS * QUERIES_PER_ROUND / 2);
        let b = round_queries(&pool, 1);
        assert!(a.iter().zip(&b).all(|(x, y)| x.1.text != y.1.text));
    }
}
