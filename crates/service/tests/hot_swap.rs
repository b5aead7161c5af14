//! A tier swap reaches the schedulers already built on the manager, and
//! a drain that loses entries to worker panics reports the cycles it
//! rolled back instead of silently dropping outcomes. Model swaps
//! (decoys identical across an identical reload, accounting kept at the
//! same K and restarted at a new one) are checked step by step by the
//! fleet simulation in `crates/bench`.

mod common;

use std::collections::HashSet;
use std::sync::Arc;
use toppriv_service::{
    CycleScheduler, FaultKind, FaultPlane, FaultSpec, PlannedQuery, SearchTier, SessionManager,
};
use tsearch_search::{Query, SearchHit};

const FLEET_SEED: u64 = 0xF1EE7;
const TOP_K: usize = 10;

/// A cached manager over a 4-shard tier, and a probe query.
fn stack() -> (Arc<SessionManager>, Vec<u32>) {
    let stack = common::stack(0x5A4B, 8, 200);
    let tier = SearchTier::Sharded(stack.sharded);
    let manager = SessionManager::with_tier(tier, stack.model)
        .with_cache(2048)
        .with_fleet_seed(FLEET_SEED);
    (Arc::new(manager), stack.queries[0].tokens.clone())
}

/// A scheduler built before `swap_tier` ranks on the swapped-in tier:
/// every genuine ranking equals the new corpus's exhaustive engine by
/// `to_bits`, and the cache holds only keys resolved after the swap.
#[test]
fn a_scheduler_built_before_a_tier_swap_ranks_on_the_new_tier() {
    let (manager, probe) = stack();
    manager.open_session("warm").unwrap();
    let scheduler = CycleScheduler::for_manager(&manager, 2);
    // The old tier answers one cycle first, and the cache fills from it.
    scheduler.drain(manager.plan_cycle("warm", &probe, TOP_K).unwrap());
    assert!(!manager.cache().expect("cache").is_empty());

    let fresh = common::stack(0x5A4C, 8, 240);
    let old_vocab = manager.tier().vocab().len();
    assert_eq!(fresh.corpus.vocab.len(), old_vocab, "one term space");
    manager.swap_tier(SearchTier::Sharded(fresh.sharded.clone()));
    manager.open_session("after").unwrap();
    let plans = (fresh.queries.iter().take(4))
        .map(|q| manager.plan_cycle("after", &q.tokens, TOP_K).unwrap())
        .collect();
    let queue = CycleScheduler::merge(plans);
    let mut keys = HashSet::new();
    let mut genuine = Vec::new();
    for p in &queue {
        let mut tokens = p.scheduled.tokens.clone();
        tokens.sort_unstable();
        keys.insert(tokens);
        if p.scheduled.is_genuine {
            genuine.push((p.scheduled.cycle_id, p.scheduled.tokens.clone()));
        }
    }
    let outcomes = scheduler.drain(queue);
    let bits = |hits: &[SearchHit]| -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
    };
    for (cycle_id, tokens) in genuine {
        let got = outcomes
            .iter()
            .find(|o| o.is_genuine && o.cycle_id == cycle_id)
            .expect("every cycle delivered");
        let want = fresh.engine.evaluate(&Query::from_tokens(&tokens), TOP_K);
        assert_eq!(bits(&got.hits), bits(&want), "cycle {cycle_id}");
    }
    let cache = manager.cache().expect("cache");
    assert_eq!(cache.len(), keys.len(), "only keys resolved after the swap");
}

/// A tenant whose every entry panics loses its cycle, and the report
/// says so: the cycle is rolled back and replanned in every round but
/// the last, which rolls the last replan back for good, and the tenant's
/// accounting is the never-formulated one. The other tenant is
/// delivered in full.
#[test]
fn drain_surfaces_worker_panics_instead_of_dropping_outcomes() {
    let plane = FaultPlane::new(0).with_spec(FaultSpec::predicate(
        FaultKind::WorkerPanic,
        Arc::new(|plan: &PlannedQuery| plan.session == "poisoned"),
    ));
    let stack = common::stack(0x5A4B, 8, 200);
    let manager = SessionManager::with_tier(SearchTier::Sharded(stack.sharded), stack.model)
        .with_cache(2048)
        .with_fleet_seed(FLEET_SEED)
        .with_fault_plane(Arc::new(plane));
    let manager = Arc::new(manager);
    let probe = &stack.queries[0].tokens;
    let mut plans = Vec::new();
    for id in ["healthy", "poisoned"] {
        manager.open_session(id).unwrap();
        plans.push(manager.plan_cycle(id, probe, TOP_K).unwrap());
    }
    let healthy = plans[0].len();
    let first = ("poisoned", plans[1][0].scheduled.cycle_id);
    let scheduler = CycleScheduler::for_manager(&manager, 4);
    let report = scheduler.drain_resilient(CycleScheduler::merge(plans));
    assert_eq!(report.outcomes.len(), healthy);
    assert!(report.outcomes.iter().all(|o| o.session == "healthy"));
    let rolled: Vec<_> = (report.rolled_back.iter())
        .map(|rb| (rb.session.as_str(), rb.cycle_id))
        .collect();
    let replans = report
        .replanned
        .iter()
        .map(|(s, _, new)| (s.as_str(), *new));
    let want: Vec<_> = std::iter::once(first).chain(replans).collect();
    assert_eq!(rolled, want, "rolled back once per round");
    assert_eq!(report.rounds, rolled.len());
    let poisoned = manager.session_metrics("poisoned").unwrap();
    let metrics = (
        poisoned.cycles,
        poisoned.queries_emitted,
        poisoned.trace_exposure,
    );
    assert_eq!(metrics, (0, 0, 0.0), "never formulated");
}
