//! `CycleScheduler` drains surface worker panics as [`DrainError`]s (and
//! `drain` aborts loudly) instead of silently dropping outcomes. Model
//! swaps (decoys identical across an identical reload, accounting kept
//! at the same K and restarted at a new one) are checked step by step by
//! the fleet simulation in `crates/bench`.

mod common;

use std::sync::Arc;
use toppriv_service::{
    CycleScheduler, FaultKind, FaultPlane, FaultSpec, PlannedQuery, SearchTier, SessionManager,
};

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

#[test]
fn drain_surfaces_worker_panics_instead_of_dropping_outcomes() {
    let (manager, probe) = stack();
    let manager = &manager;
    manager.open_session("healthy").unwrap();
    manager.open_session("poisoned").unwrap();
    let mut plans = Vec::new();
    for id in ["healthy", "poisoned"] {
        plans.push(manager.plan_cycle(id, &probe, TOP_K).unwrap());
    }
    let queue = CycleScheduler::merge(plans);
    let expected = queue.len();
    let poisoned: usize = queue.iter().filter(|p| p.session == "poisoned").count();
    assert!(poisoned > 0);

    let plane = FaultPlane::new(0).with_spec(FaultSpec::predicate(
        FaultKind::WorkerPanic,
        Arc::new(|plan: &PlannedQuery| plan.session == "poisoned"),
    ));
    let scheduler = CycleScheduler::for_manager(manager, 4).with_fault_plane(Arc::new(plane));
    let err = scheduler
        .try_drain(queue.clone())
        .expect_err("poisoned submissions must surface as a drain error");
    assert_eq!(err.failures.len(), poisoned);
    assert_eq!(err.completed.len(), expected - poisoned);
    assert_eq!(err.expected, expected);
    assert!(err.failures.iter().all(|f| f.session == "poisoned"));
    let msg = err.to_string();
    assert!(msg.contains("poisoned"), "error names the session: {msg}");

    // The panicking `drain` front-end aborts loudly with the same story.
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scheduler.drain(queue);
    }))
    .expect_err("drain must panic when submissions are lost");
    let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        text.contains("drain lost"),
        "panic explains the loss: {text}"
    );

    // Without the fault the same queue drains completely.
    let clean = CycleScheduler::for_manager(manager, 4);
    let mut replans = Vec::new();
    for id in ["healthy", "poisoned"] {
        replans.push(manager.plan_cycle(id, &probe, TOP_K).unwrap());
    }
    let outcomes = clean
        .try_drain(CycleScheduler::merge(replans))
        .expect("clean drain");
    assert_eq!(outcomes.len(), expected);
}
