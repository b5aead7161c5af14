//! Experiment `planner` (extension beyond the paper): the fleet-level
//! cost of decoy traffic with and without the cross-session
//! [`toppriv_service::GhostPlanner`].
//!
//! The paper's per-user cycle multiplies engine load by the cycle
//! length υ (~7× at the defaults); at fleet scale most of those decoys
//! are redundant across tenants. The experiment runs the same planned
//! workload at 8/64/256 sessions twice per size — planner off
//! (every tenant pays its full cycle) and planner on (ghost reuse +
//! coalesced shared submissions) — and records the **fleet cost
//! ratio**: engine-side submissions per genuine query served. The
//! acceptance bar is ratio ≤ 3.0 at 64 sessions with the planner on,
//! against ~υ× off, with the audit plane green throughout.
//!
//! The privacy half runs a second 64-session fleet that asks several
//! hundred distinct queries twice, planner on and planner off, and
//! replays the naive-Bayes genuine-query attack on both fleets' cycles:
//! sharing decoys across tenants must not make a tenant's genuine query
//! easier to pick out than its own unshared cycle already does (within
//! three standard errors). The absolute rate is not gated here: against
//! an unshared cycle the classifier already beats chance + ε1, which is
//! TopPriv's known classifier weakness (experiment `classifier`), not a
//! property of the planner. (Generation is content-seeded, so a fleet's
//! distinct queries, not its cycles, are the independent trials.)
//!
//! Output: one result table and the invariant block `reproduce` gates
//! its exit status on.

use super::{std_err, topic_classifier, Outcome};
use crate::context::{ExperimentContext, FLEET_SEED, FLEET_WORKERS, TOP_K};
use crate::table::{f3, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use std::sync::Arc;
use toppriv_adversary::run_classifier_attack;
use toppriv_core::{CycleResult, PrivacyRequirement};
use toppriv_service::{CycleScheduler, GhostPlanner, PlannedQuery, SessionManager};
use tsearch_corpus::{generate_workload, BenchmarkQuery, WorkloadConfig};

/// Fleet sizes swept (sessions sharing one tier).
pub const SESSIONS: [usize; 3] = [8, 64, 256];
/// Cycles each tenant of a cost fleet plans.
const CYCLES_PER_TENANT: usize = 2;
/// Sessions of the privacy fleet (the size the cost target is set at).
const PRIVACY_SESSIONS: usize = 64;
/// Cycles each tenant of the privacy fleet plans, and how far apart two
/// consecutive ones sit in the query pool: tenant `s` asks query
/// `s + 16·c`, so every query is asked by up to four tenants (sharing
/// still happens) and the fleet covers 64 + 16·31 = 560 of them —
/// a standard error of ≈ 0.02 on each fleet's identification rate.
const PRIVACY_CYCLES: usize = 32;
const PRIVACY_STRIDE: usize = 16;
/// Acceptance bar for the 64-session planner-on fleet cost ratio.
const TARGET_RATIO: f64 = 3.0;

/// One measured run: a fleet of `sessions` tenants, planner on or off.
struct RunStats {
    sessions: usize,
    planner_on: bool,
    engine_submits: u64,
    genuine: u64,
    ratio: f64,
    reused: u64,
    coalesced: u64,
    drained: usize,
    worst_violation: f64,
    audit_healthy: bool,
}

/// What a planner-on fleet leaves behind: its manager (metrics, shard
/// logs) and every planned cycle with its ground-truth topic.
struct Artifacts {
    manager: Arc<SessionManager>,
    cycles: Vec<CycleResult>,
    truths: Vec<usize>,
}

/// What a fleet's tenants ask: in cycle `c`, tenant `s` plans
/// `queries[(s + c * stride) % queries.len()]`.
struct Workload<'a> {
    queries: &'a [BenchmarkQuery],
    cycles_per_tenant: usize,
    stride: usize,
}

/// Runs one fleet: plan everything (through the planner when on), one
/// drain, then read the ratio off the live metrics.
fn run_fleet(
    ctx: &ExperimentContext,
    sessions: usize,
    planner_on: bool,
    workload: &Workload,
) -> (RunStats, Artifacts) {
    let manager = ctx.fleet_manager(true);
    for s in 0..sessions {
        manager
            .open_session(&format!("plan-{s}"))
            .expect("fresh id");
    }
    let queries = workload.queries;
    let planner = planner_on.then(|| GhostPlanner::new(manager.clone()));
    let eps2 = PrivacyRequirement::paper_default().eps2;
    let mut worst_violation = f64::NEG_INFINITY;
    let mut cycles = Vec::new();
    let mut truths = Vec::new();
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for c in 0..workload.cycles_per_tenant {
        for s in 0..sessions {
            let id = format!("plan-{s}");
            let q = &queries[(s + c * workload.stride) % queries.len()];
            let report = match &planner {
                Some(p) => p.plan_cycle(&id, &q.tokens, TOP_K).expect("open"),
                None => {
                    let (report, plan) = manager
                        .formulate_cycle(&id, &q.tokens, TOP_K)
                        .and_then(|fc| manager.commit_cycle(fc))
                        .expect("open");
                    plans.push(plan);
                    report
                }
            };
            let m = &report.metrics;
            worst_violation =
                worst_violation.max((m.exposure - m.mask_level).min(m.exposure - eps2));
            cycles.push(report);
            truths.push(q.target_topics[0]);
        }
    }
    let queue = match &planner {
        Some(p) => p.take_queue(),
        None => CycleScheduler::merge(plans),
    };
    let expected: usize = queue.iter().map(|p| p.fanout()).sum();
    let scheduler = CycleScheduler::for_manager(&manager, FLEET_WORKERS);
    let outcomes = scheduler.drain(queue);
    assert_eq!(outcomes.len(), expected, "every subscriber outcome drains");

    let metrics = manager.metrics_registry();
    let global = metrics.snapshot();
    let stats = RunStats {
        sessions,
        planner_on,
        engine_submits: global.engine_submits,
        genuine: global.genuine_served,
        ratio: metrics.fleet_cost_ratio(),
        reused: global.planner_reuse,
        coalesced: global.planner_coalesced,
        drained: outcomes.len(),
        worst_violation,
        audit_healthy: manager
            .auditor()
            .is_some_and(|a| a.health().healthy && a.cycles_audited() > 0),
    };
    let artifacts = Artifacts {
        manager,
        cycles,
        truths,
    };
    (stats, artifacts)
}

/// Runs the cross-session planner experiment.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let mut runs: Vec<RunStats> = Vec::new();
    for &sessions in &SESSIONS {
        // A shared query pool about a quarter the fleet size: several
        // tenants researching the same things concurrently — the overlap a
        // cross-session planner exists to exploit.
        let queries = ctx.sweep_queries();
        let cost = Workload {
            queries: &queries[..(sessions / 4).clamp(2, queries.len())],
            cycles_per_tenant: CYCLES_PER_TENANT,
            stride: 3,
        };
        let (off, _) = run_fleet(ctx, sessions, false, &cost);
        let (on, _) = run_fleet(ctx, sessions, true, &cost);
        runs.push(off);
        runs.push(on);
    }

    let mut inv = InvariantBlock::default();
    let at = |sessions: usize, on: bool| {
        runs.iter()
            .find(|r| r.sessions == sessions && r.planner_on == on)
            .expect("run matrix is exhaustive")
    };
    let off64 = at(64, false);
    let on64 = at(64, true);
    inv.check(
        "fleet_cost_ratio_within_target",
        format!(
            "64 sessions: {:.2}x engine submissions per genuine query with the planner on \
             (target <= {TARGET_RATIO}x) vs {:.2}x off",
            on64.ratio, off64.ratio
        ),
        on64.ratio <= TARGET_RATIO && off64.ratio > TARGET_RATIO,
    );
    inv.check(
        "planner_cuts_engine_submissions_at_every_size",
        runs.chunks(2)
            .map(|pair| {
                format!(
                    "{} sessions: {} -> {} submits",
                    pair[0].sessions, pair[0].engine_submits, pair[1].engine_submits
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
        SESSIONS
            .iter()
            .all(|&s| at(s, true).engine_submits < at(s, false).engine_submits),
    );
    inv.check(
        "sharing_actually_happened",
        format!(
            "64 sessions on: {} coalesced subscriptions, {} ghost reuses",
            on64.coalesced, on64.reused
        ),
        on64.coalesced > 0,
    );
    let worst = runs
        .iter()
        .map(|r| r.worst_violation)
        .fold(f64::NEG_INFINITY, f64::max);
    inv.check(
        "every_cycle_passes_fleet_invariant",
        format!("worst min(exposure − mask_level, exposure − ε2) = {worst:.3e} across all runs"),
        worst <= 1e-9,
    );
    inv.check(
        "audit_plane_healthy_under_sharing",
        format!(
            "planner-on audit verdicts: {}",
            runs.iter()
                .filter(|r| r.planner_on)
                .map(|r| format!(
                    "{} sessions {}",
                    r.sessions,
                    if r.audit_healthy { "ok" } else { "BREACHED" }
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        runs.iter()
            .filter(|r| r.planner_on)
            .all(|r| r.audit_healthy),
    );

    // --- Adversary: the same attack on a planner-on and a planner-off
    // fleet. Generation is content-seeded, so a fleet's cycles are as
    // many independent trials as it asks distinct queries, however many
    // tenants repeat them; the privacy fleets ask several hundred (a
    // fresh workload over the same corpus) so that the two rates are
    // compared and not which ten cycles the sampler drew.
    let wide = generate_workload(
        &ctx.corpus,
        &WorkloadConfig {
            num_queries: PRIVACY_SESSIONS + PRIVACY_STRIDE * (PRIVACY_CYCLES - 1),
            seed: ctx.scale.workload.seed ^ FLEET_SEED,
            ..ctx.scale.workload.clone()
        },
    );
    let privacy_workload = Workload {
        queries: &wide,
        cycles_per_tenant: PRIVACY_CYCLES,
        stride: PRIVACY_STRIDE,
    };
    let (privacy, art) = run_fleet(ctx, PRIVACY_SESSIONS, true, &privacy_workload);
    let (_, unshared) = run_fleet(ctx, PRIVACY_SESSIONS, false, &privacy_workload);
    let logged = art.manager.tier().query_log();
    let nb = topic_classifier(ctx);
    let report = run_classifier_attack(&nb, &art.cycles, &art.truths);
    let off = run_classifier_attack(&nb, &unshared.cycles, &unshared.truths);
    let (on_id, off_id) = (report.genuine_identification, off.genuine_identification);
    let margin = 3.0 * std_err(on_id, wide.len()).hypot(std_err(off_id, wide.len()));
    inv.check(
        "sharing_adds_no_genuine_identification",
        format!(
            "{} sessions x {PRIVACY_CYCLES} cycles over {} generated queries ({} coalesced, \
             {} reused), {} logged submissions: genuine id {on_id:.3} planner on vs \
             {off_id:.3} off + 3 SE {margin:.3} (chance {:.3}), cycle recovery {:.3} vs \
             unprotected {:.3}",
            privacy.sessions,
            wide.len(),
            privacy.coalesced,
            privacy.reused,
            logged.len(),
            report.genuine_chance,
            report.cycle_recovery,
            report.unprotected_recovery
        ),
        !logged.is_empty()
            && privacy.coalesced > 0
            && privacy.worst_violation <= 1e-9
            && privacy.audit_healthy
            && on_id <= off_id + margin
            && report.cycle_recovery < report.unprotected_recovery,
    );

    let mut table = ResultTable::new(
        "ext9_cross_session_planner",
        "Cross-session ghost planner: engine submissions per genuine query (fleet cost \
         ratio) and ghost reuse at 8/64/256 sessions, planner off vs on",
        vec![
            "sessions".into(),
            "planner".into(),
            "engine_submits".into(),
            "genuine".into(),
            "fleet_cost_ratio".into(),
            "coalesced".into(),
            "reused".into(),
            "drained".into(),
        ],
    );
    for r in &runs {
        table.push_row(vec![
            r.sessions.to_string(),
            if r.planner_on { "on" } else { "off" }.into(),
            r.engine_submits.to_string(),
            r.genuine.to_string(),
            f3(r.ratio),
            r.coalesced.to_string(),
            r.reused.to_string(),
            r.drained.to_string(),
        ]);
    }
    (vec![table], vec![ScenarioReport::close("planner", inv)])
}
