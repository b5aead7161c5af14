//! Property tests over random fault schedules for the self-healing
//! drain (see `CycleScheduler::drain_resilient`):
//!
//! - **Survivor integrity**: every cycle the resilient drain delivers
//!   has genuine rankings bit-identical to a fault-free run of the same
//!   workload — faults may delay or kill cycles, never corrupt them.
//! - **Cycle atomicity**: nothing is silently lost — every planned
//!   cycle, and every replan of one, is either fully delivered or rolled
//!   back — and the coverage identity `engine submissions + cache hits ==
//!   resolved outcomes` holds under failures and replans.
//! - **Bit-exact rollback**: rolling a cycle back leaves the session's
//!   trace accounting `to_bits`-identical to the snapshot taken before
//!   the cycle was formulated (the never-formulated state) — also when a
//!   drain had already delivered part of the cycle, or rolled it back
//!   for good itself.
//!
//! Corpus + LDA builds are the expensive part, so the sampled corpus
//! dimension selects from a small pool of lazily-built random stacks
//! while fault rates, fleet seeds, tenant counts, and workloads stay
//! fully sampled per case.

mod common;

use common::{genuine_hits, metric_bits, stack, Stack};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use toppriv_service::{
    CycleScheduler, FaultKind, FaultPlane, FaultSpec, PlannedQuery, SessionManager, SessionMetrics,
    SubmitOutcome,
};
/// Pool of random stacks, built once each.
fn stacks() -> &'static [Stack; 2] {
    static STACKS: OnceLock<[Stack; 2]> = OnceLock::new();
    STACKS.get_or_init(|| [stack(17, 4, 160), stack(0xFA11, 6, 200)])
}

proptest! {
    /// Survivor integrity + cycle atomicity + coverage identity under a
    /// random rate-fault schedule.
    #[test]
    fn resilient_drain_survivors_match_fault_free(
        stack_idx in 0usize..2,
        tenants in 2usize..=4,
        cycles_per in 1usize..=3,
        fleet_seed: u64,
        fault_seed: u64,
        query_salt in 0usize..64,
        panic_rate in 0.0f64..0.35,
        stall_rate in 0.0f64..0.15,
    ) {
        let stack = &stacks()[stack_idx];
        // Fault-free baseline.
        let clean = SessionManager::new(stack.engine.clone(), stack.model.clone())
            .with_cache(2048)
            .with_fleet_seed(fleet_seed);
        let clean = Arc::new(clean);
        // Same fleet under a random fault schedule: worker panics at
        // `panic_rate` plus short shard stalls at `stall_rate`.
        let plane = Arc::new(
            FaultPlane::new(fault_seed)
                .with_spec(FaultSpec::rate(FaultKind::WorkerPanic, panic_rate))
                .with_spec(FaultSpec::rate(FaultKind::ShardStall, stall_rate).stalling_ms(2)),
        );
        let faulty = SessionManager::new(stack.engine.clone(), stack.model.clone())
            .with_cache(2048)
            .with_fleet_seed(fleet_seed)
            .with_fault_plane(plane);
        let faulty = Arc::new(faulty);
        for m in [&clean, &faulty] {
            for s in 0..tenants {
                m.open_session(&format!("t{s}")).unwrap();
            }
        }
        // Identical workloads plan identical queues (same fleet seed,
        // same per-session generator streams).
        let mut clean_plans = Vec::new();
        let mut faulty_plans = Vec::new();
        let mut planned: Vec<(String, usize)> = Vec::new();
        for r in 0..cycles_per {
            for s in 0..tenants {
                let id = format!("t{s}");
                let q = &stack.queries[(query_salt + s + r * 5) % stack.queries.len()];
                clean_plans.push(clean.plan_cycle(&id, &q.tokens, 10).unwrap());
                let plan = faulty.plan_cycle(&id, &q.tokens, 10).unwrap();
                planned.push((id, plan[0].scheduled.cycle_id));
                faulty_plans.push(plan);
            }
        }
        let clean_queue = CycleScheduler::merge(clean_plans);
        // A fault-free queue drains in one round that rolls nothing back,
        // with one outcome per entry, in queue order.
        let clean_report = CycleScheduler::for_manager(&clean, 2).drain_resilient(clean_queue.clone());
        prop_assert!(clean_report.rounds == 1 && clean_report.rolled_back.is_empty());
        prop_assert!(clean_report.discarded.is_empty());
        let key = |o: &SubmitOutcome| (o.session.clone(), o.cycle_id, o.time_secs.to_bits());
        let queued = clean_queue.iter().map(|p| {
            (p.session.clone(), p.scheduled.cycle_id, p.scheduled.time_secs.to_bits())
        });
        let drained: Vec<_> = clean_report.outcomes.iter().map(key).collect();
        prop_assert_eq!(drained, queued.collect::<Vec<_>>());
        let baseline = genuine_hits(&clean_report.outcomes);

        let scheduler = CycleScheduler::for_manager(&faulty, 2);
        let report = scheduler.drain_resilient(CycleScheduler::merge(faulty_plans));

        // (a) Every delivered genuine ranking is bit-identical to the
        // fault-free run — a replanned cycle, replanned again as often as
        // it failed, translates back to the original cycle it replaced.
        let new_to_old: HashMap<(String, usize), usize> = report
            .replanned
            .iter()
            .map(|(s, old, new)| ((s.clone(), *new), *old))
            .collect();
        let delivered = genuine_hits(&report.outcomes);
        prop_assert!(!baseline.is_empty());
        for ((session, cycle_id), hits) in &delivered {
            let mut orig = *cycle_id;
            while let Some(&old) = new_to_old.get(&(session.clone(), orig)) {
                orig = old;
            }
            let expect = baseline
                .get(&(session.clone(), orig))
                .expect("delivered cycle must exist in the fault-free run");
            prop_assert_eq!(hits, expect, "session {} cycle {}", session, cycle_id);
        }

        // (b) Nothing silently lost: every planned cycle is either
        // fully delivered or explicitly rolled back.
        let delivered_keys: HashSet<(String, usize)> = report
            .outcomes
            .iter()
            .map(|o| (o.session.clone(), o.cycle_id))
            .collect();
        let rolled: HashSet<(String, usize)> = report
            .rolled_back
            .iter()
            .map(|r| (r.session.clone(), r.cycle_id))
            .collect();
        let replans = report.replanned.iter().map(|(s, _, new)| (s.clone(), *new));
        for key in planned.iter().cloned().chain(replans) {
            prop_assert!(
                delivered_keys.contains(&key) || rolled.contains(&key),
                "cycle {:?} neither delivered nor rolled back",
                key
            );
        }
        // A cycle is never both.
        prop_assert!(delivered_keys.is_disjoint(&rolled));

        // (c) Coverage identity under failures: every resolved per-tenant
        // outcome (delivered or discarded) was served by exactly one
        // engine submission or cache hit — failed entries never count.
        let g = faulty.metrics().global;
        prop_assert_eq!(
            g.submitted,
            (report.outcomes.len() + report.discarded.len()) as u64
        );
        prop_assert_eq!(g.cache_hits + g.cache_misses, g.submitted);
    }

    /// Bit-exact rollback: unwinding planned cycles newest-first steps
    /// the session's accounting back through the exact snapshots taken
    /// before each plan — including refolds over a non-empty in-flight
    /// journal, for cycles a drain delivered only in part (some members
    /// never drained), and for cycles whose genuine member failed in
    /// every round, which the drain rolled back for good itself after
    /// replanning and rolling back each replan — and a fully delivered
    /// cycle refuses to unwind.
    #[test]
    fn rollback_restores_never_formulated_accounting(
        stack_idx in 0usize..2,
        fleet_seed: u64,
        n in 2usize..=5,
        query_salt in 0usize..64,
        deliver_salt in 0usize..2,
        // What happens to each cycle: 0 = never drained, 1 = all but its
        // last member drained, then rolled back; 2 = drained, at its turn
        // to roll back, with its genuine member failing in every round.
        partial_modes in collection::vec(0usize..3, 5..6),
    ) {
        let stack = &stacks()[stack_idx];
        // While `doomed` is set, every genuine member fails.
        let doomed = Arc::new(AtomicBool::new(false));
        let armed = doomed.clone();
        let plane = FaultPlane::new(0).with_spec(FaultSpec::predicate(
            FaultKind::WorkerPanic,
            Arc::new(move |p: &PlannedQuery| p.scheduled.is_genuine && armed.load(SeqCst)),
        ));
        let manager = SessionManager::new(stack.engine.clone(), stack.model.clone())
            .with_fleet_seed(fleet_seed)
            .with_fault_plane(Arc::new(plane));
        let manager = Arc::new(manager);
        manager.open_session("t0").unwrap();
        let mut pre: Vec<SessionMetrics> = Vec::new();
        let mut plans = Vec::new();
        for i in 0..n {
            pre.push(manager.session_metrics("t0").unwrap());
            let q = &stack.queries[(query_salt + i) % stack.queries.len()];
            plans.push(manager.plan_cycle("t0", &q.tokens, 10).unwrap());
        }
        let ids: Vec<usize> = plans.iter().map(|p| p[0].scheduled.cycle_id).collect();
        let scheduler = CycleScheduler::for_manager(&manager, 2);
        let deliver_first = deliver_salt == 1;
        let delivered = if deliver_first {
            // Draining the oldest cycle in full seals it: it must
            // survive the unwind below, and rolling it back must fail.
            let drained = scheduler.drain(plans[0].clone());
            prop_assert_eq!(drained.len(), plans[0].len());
            1
        } else {
            0
        };
        for i in delivered..n {
            let plan = plans[i].clone();
            match partial_modes[i] {
                1 if plan.len() > 1 => {
                    let some = plan[..plan.len() - 1].to_vec();
                    prop_assert_eq!(scheduler.drain(some).len(), plan.len() - 1);
                }
                _ => {}
            }
        }
        for i in (delivered..n).rev() {
            if partial_modes[i] == 2 {
                // The drain itself rolls the cycle back, and each replan.
                doomed.store(true, SeqCst);
                let report = scheduler.drain_resilient(plans[i].clone());
                doomed.store(false, SeqCst);
                prop_assert!(report.outcomes.is_empty());
                prop_assert_eq!(report.rolled_back[0].cycle_id, ids[i]);
                prop_assert_eq!(report.rolled_back.len(), report.replanned.len() + 1);
            } else {
                let rb = manager.rollback_cycle("t0", ids[i]).unwrap();
                prop_assert_eq!(rb.cycle_id, ids[i]);
            }
            let now = manager.session_metrics("t0").unwrap();
            prop_assert_eq!(metric_bits(&pre[i]), metric_bits(&now), "cycle {}", ids[i]);
            // Double rollback of the same cycle is rejected.
            prop_assert!(manager.rollback_cycle("t0", ids[i]).is_err());
        }
        if deliver_first {
            prop_assert!(
                manager.rollback_cycle("t0", ids[0]).is_err(),
                "delivered work must never reverse"
            );
            let now = manager.session_metrics("t0").unwrap();
            prop_assert_eq!(now.cycles, pre[1].cycles);
        }
    }
}
