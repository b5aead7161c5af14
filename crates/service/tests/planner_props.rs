//! Property test for the cross-session ghost planner: over random
//! corpora/models, fleet seeds, tenant counts (2–8), and workloads,
//! every tenant's genuine rankings under planner-coalesced submissions
//! are **identical** to the unplanned baseline — decoy sharing may only
//! change who pays for a submission, never what any tenant's genuine
//! queries return.
//!
//! Corpus + LDA builds are the expensive part, so the sampled corpus
//! dimension selects from a small pool of lazily-built random stacks
//! (distinct seeds, sizes, and topic counts) while fleet seeds, tenant
//! counts, and query assignment stay fully sampled per case.

mod common;

use common::{genuine_hits, stack, Stack};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use toppriv_service::{CycleScheduler, GhostPlanner, SessionManager};
/// Pool of random stacks, built once each.
fn stacks() -> &'static [Stack; 3] {
    static STACKS: OnceLock<[Stack; 3]> = OnceLock::new();
    STACKS.get_or_init(|| {
        [
            stack(11, 4, 160),
            stack(5003, 6, 200),
            stack(0xBEEF, 8, 240),
        ]
    })
}

proptest! {
    #[test]
    fn planned_rankings_match_unplanned_baseline(
        stack_idx in 0usize..3,
        tenants in 2usize..=8,
        fleet_seed: u64,
        query_salt in 0usize..64,
        rounds in 1usize..=2,
    ) {
        let stack = &stacks()[stack_idx];
        let baseline = Arc::new(
            SessionManager::new(stack.engine.clone(), stack.model.clone())
                .with_cache(2048)
                .with_fleet_seed(fleet_seed),
        );
        let planned = Arc::new(
            SessionManager::new(stack.engine.clone(), stack.model.clone())
                .with_cache(2048)
                .with_fleet_seed(fleet_seed),
        );
        for m in [&baseline, &planned] {
            for s in 0..tenants {
                m.open_session(&format!("t{s}")).unwrap();
            }
        }
        // Baseline: every tenant plans alone, no sharing.
        let mut plans = Vec::new();
        for r in 0..rounds {
            for s in 0..tenants {
                let q = &stack.queries[(query_salt + s + r * 3) % stack.queries.len()];
                plans.push(baseline.plan_cycle(&format!("t{s}"), &q.tokens, 10).unwrap());
            }
        }
        let base = CycleScheduler::for_manager(&baseline, 2).drain(CycleScheduler::merge(plans));

        // Planner: identical workload, decoys shared across tenants.
        let planner = GhostPlanner::new(planned.clone());
        for r in 0..rounds {
            for s in 0..tenants {
                let q = &stack.queries[(query_salt + s + r * 3) % stack.queries.len()];
                planner.plan_cycle(&format!("t{s}"), &q.tokens, 10).unwrap();
            }
        }
        let shared = CycleScheduler::for_manager(&planned, 2).drain(planner.take_queue());

        prop_assert_eq!(genuine_hits(&base), genuine_hits(&shared));
    }
}
