//! Scenario `churn`: tenant join/leave storms.
//!
//! Waves of tenants join, plan paced cycles that drain on the shared
//! scheduler queue, then half of them leave — while the
//! fleet keeps serving. The invariants are the paper's per-cycle and
//! per-trace privacy guarantees, asserted **throughout** the storm, not
//! just at steady state:
//!
//! - every cycle leaves the intention either out-boosted by a decoy
//!   topic (`exposure ≤ mask_level`) or negligibly boosted
//!   (`exposure ≤ ε2`) — it never stands out — and satisfied cycles
//!   (Definition 4: every intention boost ≤ ε2) actually occur
//!   throughout the storm;
//! - every drain resolves every planned submission (no outcome lost to
//!   churn);
//! - every departing tenant's closing accounting is complete and
//!   consistent (`cycles > 0`, mean exposure ≤ mean mask level).
//!
//! [`run_fleet`] is the reusable core: the adversary-collusion
//! integration test drives it with ≥64 sessions and then runs
//! `merge_shard_logs` + the naive-Bayes classifier over the ground
//! truth it returns.

use super::{finish, fleet_manager, sharded_tier, ScenarioReport, SHARDS, TOP_K, WORKERS};
use crate::context::ExperimentContext;
use crate::verdict::InvariantBlock;
use std::sync::Arc;
use toppriv_core::CycleResult;
use toppriv_service::{CycleScheduler, GhostPlanner, PlannedQuery, SessionManager};
use tsearch_corpus::BenchmarkQuery;

/// Churn storm shape.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Tenants joining per wave.
    pub join_per_wave: usize,
    /// Waves (each wave: join storm → load → leave storm).
    pub waves: usize,
    /// Cycles each open session plans per wave.
    pub cycles_per_session: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            join_per_wave: 8,
            waves: 3,
            cycles_per_session: 2,
        }
    }
}

/// Everything the churn storm produced, for downstream adversary
/// evaluation: the manager (its tier holds the per-shard query logs the
/// colluding shards merge), the ground-truth cycles in plan order, and
/// the per-cycle true topics.
pub struct ChurnArtifacts {
    /// The fleet, still holding the surviving sessions.
    pub manager: Arc<SessionManager>,
    /// Ground-truth cycle reports, in plan order.
    pub cycles: Vec<CycleResult>,
    /// True topic of each cycle's genuine query.
    pub truths: Vec<usize>,
    /// Invariant verdicts accumulated through the storm.
    pub invariants: InvariantBlock,
    /// Total submissions drained.
    pub drained: usize,
    /// Tenants that joined over the whole storm.
    pub joined: usize,
    /// Tenants that left (with verified closing accounting).
    pub left: usize,
}

/// Runs the churn storm against an existing fleet manager. The manager
/// should be freshly constructed (the scenario owns its session
/// namespace `churn-<n>`).
pub fn run_fleet(
    manager: Arc<SessionManager>,
    queries: &[BenchmarkQuery],
    cfg: &ChurnConfig,
) -> ChurnArtifacts {
    run_fleet_with(manager, queries, cfg, false)
}

/// [`run_fleet`] with the cross-session [`GhostPlanner`] enabled: every
/// cycle routes through the planner (ghost reuse + coalesced shared
/// submissions), each wave drains the planner queue, and the drain
/// accounting counts **per-subscriber** outcomes — a shared submission
/// resolves once at the engine but must surface one outcome per
/// subscribing tenant.
pub fn run_fleet_planned(
    manager: Arc<SessionManager>,
    queries: &[BenchmarkQuery],
    cfg: &ChurnConfig,
) -> ChurnArtifacts {
    run_fleet_with(manager, queries, cfg, true)
}

fn run_fleet_with(
    manager: Arc<SessionManager>,
    queries: &[BenchmarkQuery],
    cfg: &ChurnConfig,
    planned: bool,
) -> ChurnArtifacts {
    let planner = planned.then(|| GhostPlanner::new(manager.clone()));
    assert!(!queries.is_empty(), "churn needs a workload");
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let mut inv = InvariantBlock::default();
    let mut cycles: Vec<CycleResult> = Vec::new();
    let mut truths: Vec<usize> = Vec::new();
    let mut next_tenant = 0usize;
    let mut joined = 0usize;
    let mut left = 0usize;
    let mut drained = 0usize;
    let mut worst_violation = f64::NEG_INFINITY;
    let mut worst_satisfied = 0.0f64;
    let mut satisfied_cycles = 0usize;
    // Sessions run the manager's defaults: the paper requirement.
    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    let mut lost: Vec<String> = Vec::new();
    let mut bad_closes: Vec<String> = Vec::new();

    for wave in 0..cfg.waves {
        // Join storm.
        for _ in 0..cfg.join_per_wave {
            manager
                .open_session(&format!("churn-{next_tenant}"))
                .expect("fresh tenant id");
            next_tenant += 1;
            joined += 1;
        }
        // Load: every open session plans cycles; the ground truth is
        // kept for the colluding-shards evaluation.
        let ids = manager.session_ids();
        let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
        for (s, id) in ids.iter().enumerate() {
            for c in 0..cfg.cycles_per_session {
                let q = &queries[(wave * 7 + s * 3 + c) % queries.len()];
                let report = match &planner {
                    Some(planner) => planner
                        .plan_cycle(id, &q.tokens, TOP_K)
                        .expect("session is open"),
                    None => {
                        let (report, plan) = manager
                            .formulate_cycle(id, &q.tokens, TOP_K)
                            .and_then(|fc| manager.commit_cycle(fc))
                            .expect("session is open");
                        plans.push(plan);
                        report
                    }
                };
                let m = &report.metrics;
                worst_violation = worst_violation.max(super::masking_violation(m, eps2));
                if report.satisfied && !report.intention.is_empty() {
                    satisfied_cycles += 1;
                    worst_satisfied = worst_satisfied.max(m.exposure);
                }
                cycles.push(report);
                truths.push(q.target_topics[0]);
            }
        }
        let queue = match &planner {
            Some(planner) => planner.take_queue(),
            None => CycleScheduler::merge(plans),
        };
        // With the planner on, a coalesced entry drains one outcome per
        // subscribing tenant; without it every fanout is 1.
        let expected: usize = queue.iter().map(|p| p.fanout()).sum();
        match scheduler.try_drain(queue) {
            Ok(outcomes) => {
                drained += outcomes.len();
                if outcomes.len() != expected {
                    lost.push(format!(
                        "wave {wave}: {} of {expected} drained",
                        outcomes.len()
                    ));
                }
            }
            Err(e) => lost.push(format!("wave {wave}: {e}")),
        }
        // Leave storm: the older half of the open tenants departs;
        // their closing accounting must be complete and consistent.
        let ids = manager.session_ids();
        for id in ids.iter().take(ids.len() / 2) {
            let m = manager.close_session(id).expect("session is open");
            left += 1;
            if m.cycles == 0 || m.mean_exposure > m.mean_mask_level + 1e-9 {
                bad_closes.push(format!(
                    "{id}: cycles {} exposure {:.4} mask {:.4}",
                    m.cycles, m.mean_exposure, m.mean_mask_level
                ));
            }
        }
    }

    inv.check(
        "intention_masked_or_negligible",
        format!(
            "{} cycles across {} waves ({satisfied_cycles} satisfied); worst \
             min(exposure − mask_level, exposure − ε2) = {:.3e}",
            cycles.len(),
            cfg.waves,
            worst_violation
        ),
        satisfied_cycles > 0 && worst_violation <= 1e-9,
    );
    inv.check(
        "satisfied_cycles_within_eps2",
        format!("worst satisfied-cycle exposure {worst_satisfied:.4} vs ε2 {eps2}"),
        worst_satisfied <= eps2 + 1e-9,
    );
    inv.check(
        "all_submissions_drained",
        if lost.is_empty() {
            format!("{drained} submissions drained across {} waves", cfg.waves)
        } else {
            lost.join("; ")
        },
        lost.is_empty(),
    );
    inv.check(
        "departing_accounting_consistent",
        if bad_closes.is_empty() {
            format!("{left} departures, all with cycles > 0 and mean exposure ≤ mean mask")
        } else {
            bad_closes.join("; ")
        },
        bad_closes.is_empty(),
    );

    ChurnArtifacts {
        manager,
        cycles,
        truths,
        invariants: inv,
        drained,
        joined,
        left,
    }
}

/// Runs the churn scenario on the experiment context.
pub fn run(ctx: &ExperimentContext) -> ScenarioReport {
    let manager = fleet_manager(ctx, sharded_tier(ctx, SHARDS));
    let art = run_fleet(manager, ctx.sweep_queries(), &ChurnConfig::default());
    let report = finish("churn", &art.manager, art.invariants);
    art.manager.tier().clear_query_logs();
    report
}
