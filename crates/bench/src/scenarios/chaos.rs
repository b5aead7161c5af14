//! Scenario `chaos`: the fleet under deterministic fault injection.
//!
//! Three probes, one verdict:
//!
//! - **Delivery under faults**: the identical workload (same fleet
//!   seed, fresh manager per phase) is drained fault-free, then with 1%
//!   and 5% injected worker panics plus short shard stalls, through
//!   [`toppriv_service::CycleScheduler::drain_resilient`]. Every
//!   *delivered* cycle — replans included — must have genuine rankings
//!   bit-identical to the fault-free run.
//! - **Cycle atomicity**: a predicate fault dooms every submission one
//!   tenant owns, on every attempt. Its cycle (and the one replanned
//!   incarnation) must roll back so cleanly that the tenant's trace
//!   accounting is `to_bits`-identical to the never-formulated
//!   snapshot, while the other tenants' cycles still deliver.
//! - **Quarantine + degraded drain**: a one-shot 1 s stall on shard 0
//!   outlives a 200 ms drain deadline. The watchdog bounds the degraded
//!   drain (instead of hanging the full stall), the shard is
//!   quarantined and sits out the next drain, and the re-admission
//!   probe restores full service.

use super::{finish, sharded_tier, ScenarioReport, FLEET_SEED, SHARDS, TOP_K, WORKERS};
use crate::context::ExperimentContext;
use crate::verdict::InvariantBlock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use toppriv_service::{
    AuditConfig, CycleScheduler, DrainPolicy, FaultKind, FaultPlane, FaultSpec, PlannedQuery,
    SessionManager, SessionMetrics, SubmitOutcome,
};

/// Tenants per phase.
const SESSIONS: usize = 8;

/// Cycles each tenant plans per phase.
const CYCLES_PER_SESSION: usize = 3;

/// Fault-plane seed: the whole schedule is a pure function of this.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Injected panic rates for the delivery phases (fault-free first).
const RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Watchdog deadline for the degraded-drain probe.
const DEADLINE_MS: u64 = 200;

/// Injected stall for the quarantine probe — must dwarf the deadline so
/// a bounded drain proves the watchdog, not a lucky short stall.
const STALL_MS: u64 = 1000;

/// A fleet manager on a fresh sharded tier with an optional fault
/// plane (the plane must attach after the auditor so injected faults
/// are journaled).
fn chaos_manager(ctx: &ExperimentContext, plane: Option<Arc<FaultPlane>>) -> Arc<SessionManager> {
    let mut manager =
        SessionManager::with_tier(sharded_tier(ctx, SHARDS), ctx.default_model().clone())
            .with_cache(4096)
            .with_fleet_seed(FLEET_SEED)
            .with_auditor(AuditConfig::default());
    if let Some(plane) = plane {
        manager = manager.with_fault_plane(plane);
    }
    Arc::new(manager)
}

/// Genuine hits per (session, cycle id), scores compared bitwise.
fn genuine_hits(outcomes: &[SubmitOutcome]) -> HashMap<(String, usize), Vec<(u32, u64)>> {
    let mut map = HashMap::new();
    for o in outcomes.iter().filter(|o| o.is_genuine) {
        map.insert(
            (o.session.clone(), o.cycle_id),
            o.hits
                .iter()
                .map(|h| (h.doc_id, h.score.to_bits()))
                .collect(),
        );
    }
    map
}

/// Bitwise equality of two session accounting snapshots.
fn bit_identical(a: &SessionMetrics, b: &SessionMetrics) -> bool {
    a.cycles == b.cycles
        && a.queries_emitted == b.queries_emitted
        && a.mean_cycle_len.to_bits() == b.mean_cycle_len.to_bits()
        && a.mean_exposure.to_bits() == b.mean_exposure.to_bits()
        && a.worst_exposure.to_bits() == b.worst_exposure.to_bits()
        && a.mean_mask_level.to_bits() == b.mean_mask_level.to_bits()
        && a.satisfied_rate.to_bits() == b.satisfied_rate.to_bits()
        && a.trace_exposure.to_bits() == b.trace_exposure.to_bits()
}

/// One delivery phase: the canonical workload on a fresh fleet.
struct Phase {
    manager: Arc<SessionManager>,
    plane: Option<Arc<FaultPlane>>,
    /// (session, original cycle id) of every planned cycle.
    planned: Vec<(String, usize)>,
    delivered: HashMap<(String, usize), Vec<(u32, u64)>>,
    delivered_keys: HashSet<(String, usize)>,
    rolled: HashSet<(String, usize)>,
    /// Replanned-cycle translation: (session, new id) → original id.
    new_to_old: HashMap<(String, usize), usize>,
    rounds: usize,
    worst_violation: f64,
    satisfied: usize,
    cycles: usize,
}

fn run_phase(ctx: &ExperimentContext, panic_rate: f64) -> Phase {
    let plane = (panic_rate > 0.0).then(|| {
        Arc::new(
            FaultPlane::new(CHAOS_SEED)
                .with_spec(FaultSpec::rate(FaultKind::WorkerPanic, panic_rate))
                .with_spec(FaultSpec::rate(FaultKind::ShardStall, panic_rate).stalling_ms(2)),
        )
    });
    let manager = chaos_manager(ctx, plane.clone());
    super::open_tenants(&manager, SESSIONS);
    let queries = ctx.sweep_queries();
    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    let mut worst_violation = f64::NEG_INFINITY;
    let mut satisfied = 0usize;
    let mut cycles = 0usize;
    let mut planned = Vec::new();
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for r in 0..CYCLES_PER_SESSION {
        for (s, id) in manager.session_ids().iter().enumerate() {
            let q = &queries[(r * 7 + s * 3) % queries.len()];
            let (report, plan) = manager
                .formulate_cycle(id, &q.tokens, TOP_K)
                .and_then(|fc| manager.commit_cycle(fc))
                .expect("session is open");
            worst_violation = worst_violation.max(super::masking_violation(&report.metrics, eps2));
            if report.satisfied && !report.intention.is_empty() {
                satisfied += 1;
            }
            cycles += 1;
            planned.push((id.clone(), plan[0].scheduled.cycle_id));
            plans.push(plan);
        }
    }
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let report = scheduler.drain_resilient(&manager, CycleScheduler::merge(plans));
    Phase {
        delivered: genuine_hits(&report.outcomes),
        delivered_keys: report
            .outcomes
            .iter()
            .map(|o| (o.session.clone(), o.cycle_id))
            .collect(),
        rolled: report
            .rolled_back
            .iter()
            .map(|r| (r.session.clone(), r.cycle_id))
            .collect(),
        new_to_old: report
            .replanned
            .iter()
            .map(|(s, old, new)| ((s.clone(), *new), *old))
            .collect(),
        rounds: report.rounds,
        manager,
        plane,
        planned,
        worst_violation,
        satisfied,
        cycles,
    }
}

/// Silences the panic-hook noise from *injected* faults (the scheduler
/// catches them; the default hook would still print a backtrace per
/// fire). Real panics keep the previous hook's full output.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected "));
        if !injected {
            previous(info);
        }
    }));
}

/// Runs the chaos scenario.
pub fn run(ctx: &ExperimentContext) -> ScenarioReport {
    quiet_injected_panics();
    let mut inv = InvariantBlock::default();

    // ── Delivery phases: the same fleet at 0% / 1% / 5% faults. ──
    let phases: Vec<Phase> = RATES.iter().map(|&r| run_phase(ctx, r)).collect();
    let baseline = &phases[0].delivered;
    let mut mismatched = 0usize;
    let mut lost: Vec<(String, usize)> = Vec::new();
    let mut fired_total = 0u64;
    for phase in &phases[1..] {
        if let Some(plane) = &phase.plane {
            fired_total += plane.fired(FaultKind::WorkerPanic) + plane.fired(FaultKind::ShardStall);
        }
        for (key, hits) in &phase.delivered {
            let orig = phase.new_to_old.get(key).copied().unwrap_or(key.1);
            match baseline.get(&(key.0.clone(), orig)) {
                Some(expect) if expect == hits => {}
                _ => mismatched += 1,
            }
        }
        for key in &phase.planned {
            if !phase.delivered_keys.contains(key) && !phase.rolled.contains(key) {
                lost.push(key.clone());
            }
        }
    }
    inv.check(
        "fault_free_baseline_clean",
        format!(
            "phase 0: {} cycles delivered in {} round(s), none rolled back",
            phases[0].delivered.len(),
            phases[0].rounds
        ),
        phases[0].rounds == 1 && phases[0].rolled.is_empty() && !baseline.is_empty(),
    );
    inv.check(
        "faults_actually_injected",
        format!(
            "{fired_total} faults fired across the 1%/5% phases \
             ({} and {} drain rounds)",
            phases[1].rounds, phases[2].rounds
        ),
        fired_total > 0,
    );
    inv.check(
        "survivors_bit_identical",
        format!(
            "every delivered genuine ranking matches the fault-free run bitwise \
             ({} + {} delivered cycles, {mismatched} mismatched)",
            phases[1].delivered.len(),
            phases[2].delivered.len()
        ),
        mismatched == 0 && !phases[2].delivered.is_empty(),
    );
    inv.check(
        "no_cycle_silently_lost",
        format!(
            "every planned cycle delivered or rolled back under faults \
             ({} planned per phase, {} unaccounted)",
            phases[1].planned.len(),
            lost.len()
        ),
        lost.is_empty(),
    );
    let masked = phases
        .iter()
        .all(|p| p.worst_violation <= 1e-9 && p.satisfied > 0);
    inv.check(
        "intention_masked_or_negligible",
        format!(
            "{} cycles per phase; worst min(exposure − mask_level, exposure − ε2) = {:.3e}",
            phases[0].cycles,
            phases
                .iter()
                .map(|p| p.worst_violation)
                .fold(f64::NEG_INFINITY, f64::max)
        ),
        masked,
    );

    // ── Cycle atomicity: a doomed tenant rolls back bit-exactly. ──
    let doomed = chaos_manager(
        ctx,
        Some(Arc::new(FaultPlane::new(CHAOS_SEED).with_spec(
            FaultSpec::predicate(
                FaultKind::WorkerPanic,
                Arc::new(|p: &PlannedQuery| p.session == "tenant-0"),
            ),
        ))),
    );
    super::open_tenants(&doomed, 4);
    let queries = ctx.sweep_queries();
    let pristine = doomed.session_metrics("tenant-0").expect("tenant open");
    let mut plans = Vec::new();
    for (s, id) in doomed.session_ids().iter().enumerate() {
        plans.push(
            doomed
                .plan_cycle(id, &queries[s % queries.len()].tokens, TOP_K)
                .expect("session is open"),
        );
    }
    let report = CycleScheduler::for_manager(&doomed, WORKERS)
        .drain_resilient(&doomed, CycleScheduler::merge(plans));
    let after = doomed.session_metrics("tenant-0").expect("tenant open");
    let doomed_rollbacks = report
        .rolled_back
        .iter()
        .filter(|r| r.session == "tenant-0")
        .count();
    let survivors: HashSet<&str> = report.outcomes.iter().map(|o| o.session.as_str()).collect();
    inv.check(
        "zero_half_debited_cycles",
        format!(
            "doomed tenant rolled back {doomed_rollbacks} incarnation(s); trace accounting \
             bit-identical to the never-formulated snapshot; {} healthy tenants delivered",
            survivors.len()
        ),
        bit_identical(&pristine, &after)
            && doomed_rollbacks >= 1
            && !survivors.contains("tenant-0")
            && survivors.len() == 3,
    );

    // ── Quarantine: stall > deadline, sit out one drain, recover. ──
    let stall_plane = Arc::new(
        FaultPlane::new(CHAOS_SEED).with_spec(
            FaultSpec::rate(FaultKind::ShardStall, 1.0)
                .on_shard(0)
                .stalling_ms(STALL_MS)
                .limit(1),
        ),
    );
    let quarantined = chaos_manager(ctx, Some(stall_plane));
    super::open_tenants(&quarantined, 6);
    let mut plans = Vec::new();
    for (s, id) in quarantined.session_ids().iter().enumerate() {
        plans.push(
            quarantined
                .plan_cycle(id, &queries[(s + 5) % queries.len()].tokens, TOP_K)
                .expect("session is open"),
        );
    }
    let scheduler = CycleScheduler::for_manager(&quarantined, WORKERS).with_policy(DrainPolicy {
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        deadline: Duration::from_millis(DEADLINE_MS),
        quarantine_threshold: 1,
        quarantine_drains: 2,
    });
    let t0 = Instant::now();
    let err = scheduler
        .try_drain(CycleScheduler::merge(plans))
        .expect_err("the injected stall must outlive the deadline");
    let degraded_ms = t0.elapsed().as_millis() as u64;
    let t_recover = Instant::now();
    // Roll the terminally failed cycles back; everything else re-queues.
    let victims: HashSet<(String, usize)> = err
        .failures
        .iter()
        .map(|f| (f.session.clone(), f.cycle_id))
        .collect();
    for (session, cycle_id) in &victims {
        quarantined
            .rollback_cycle(session, *cycle_id)
            .expect("failed cycle is in the rollback window");
    }
    let pending: Vec<PlannedQuery> = err
        .unresolved
        .into_iter()
        .filter(|p| !victims.contains(&(p.session.clone(), p.scheduled.cycle_id)))
        .collect();
    let stalled_on_shard0 = err.failures.iter().all(|f| f.shard == 0) && !err.failures.is_empty();
    // Second drain, while shard 0 sits in quarantine: a fresh round of
    // cycles (plus whatever the degraded drain left unresolved) drains
    // everywhere else, and every shard-0 entry is skipped back into
    // `unresolved` — the degraded, still-serving fleet.
    let mut round2 = vec![pending];
    for (s, id) in quarantined.session_ids().iter().enumerate() {
        round2.push(
            quarantined
                .plan_cycle(id, &queries[(s + 11) % queries.len()].tokens, TOP_K)
                .expect("session is open"),
        );
    }
    let skipped = match scheduler.try_drain(CycleScheduler::merge(round2)) {
        Ok(_) => Vec::new(),
        Err(e) => e.unresolved,
    };
    let in_quarantine = scheduler
        .quarantined_shards()
        .iter()
        .any(|&(shard, _)| shard == 0);
    // Third drain is the re-admission probe: the stall budget is spent,
    // so shard 0 serves again.
    let probe = scheduler.try_drain(skipped.clone());
    let recovery_ms = t_recover.elapsed().as_millis() as u64;
    inv.check(
        "degraded_drain_bounded",
        format!(
            "injected {STALL_MS} ms stall, {DEADLINE_MS} ms deadline: degraded drain \
             finished in {degraded_ms} ms"
        ),
        degraded_ms < 2 * DEADLINE_MS,
    );
    let probed_ok = matches!(&probe, Ok(outcomes) if !outcomes.is_empty());
    inv.check(
        "quarantine_then_recovery",
        format!(
            "{} terminal failure(s) on shard 0 → quarantined (observed: {in_quarantine}), \
             {} entries skipped one drain, probe redelivered {} in {recovery_ms} ms",
            err.failures.len(),
            skipped.len(),
            probe.as_ref().map(|o| o.len()).unwrap_or(0)
        ),
        stalled_on_shard0 && in_quarantine && !skipped.is_empty() && probed_ok,
    );
    let codes: HashSet<String> = quarantined
        .auditor()
        .map(|a| a.tail(128).iter().map(|e| e.code.clone()).collect())
        .unwrap_or_default();
    let doomed_codes: HashSet<String> = doomed
        .auditor()
        .map(|a| a.tail(128).iter().map(|e| e.code.clone()).collect())
        .unwrap_or_default();
    inv.check(
        "fault_events_journaled",
        format!(
            "quarantine fleet journaled {codes:?}; doomed fleet journaled \
             cycle_rolled_back: {}",
            doomed_codes.contains("cycle_rolled_back")
        ),
        codes.contains("shard_quarantined")
            && codes.contains("degraded_drain")
            && doomed_codes.contains("cycle_rolled_back"),
    );

    // The 5% phase's manager carries the faulty fleet's audit verdict.
    let report = finish("chaos", &phases[2].manager, inv);
    for phase in &phases {
        phase.manager.tier().clear_query_logs();
    }
    quarantined.tier().clear_query_logs();
    doomed.tier().clear_query_logs();
    report
}
