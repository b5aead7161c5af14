//! Scenario `recovery`: spill → crash → restore → replay.
//!
//! The fleet serves load, spills every session's state (posteriors,
//! exposure accounting, pacing position) and every shard's query log
//! into CRC-sealed `tsearch-store` containers on disk, then the whole
//! in-memory fleet is dropped — manager, scheduler, tier. A new fleet is
//! built from scratch and restored **only** from the spilled bytes.
//!
//! Invariants:
//! - every container unseals with its CRC intact, and a corrupted copy
//!   is rejected (the store layer actually guards the spill);
//! - restored per-session accounting is **bit-identical** to the
//!   pre-crash accounting — every `f64` compared by `to_bits`, not
//!   tolerance (Equation-2 trace accounting must not drift across a
//!   crash);
//! - replaying each spilled shard log through the rebuilt tier
//!   reproduces the per-shard logs exactly (ordinal, tokens, text,
//!   compared in ordinal order — a multithreaded drain may append a
//!   shard's entries slightly out of ordinal order) — term routing and
//!   sub-query logging are deterministic, so the adversary-visible
//!   trace is reconstructible;
//! - the restored fleet resumes serving: a post-restore search on a
//!   restored session succeeds, advances its accounting, and keeps the
//!   intention masked (out-boosted by a decoy topic or ≤ ε2).

use super::{finish, fleet_manager, sharded_tier, ScenarioReport, SHARDS, TOP_K, WORKERS};
use crate::context::ExperimentContext;
use crate::verdict::InvariantBlock;
use std::path::PathBuf;
use toppriv_adversary::merge_shard_logs;
use toppriv_service::{
    seal_query_log, seal_session_state, unseal_query_log, unseal_session_state, CycleScheduler,
    PlannedQuery, SessionMetrics,
};
use tsearch_search::LoggedQuery;

/// Sessions that crash and come back.
const SESSIONS: usize = 6;

/// Cycles each session plans before the crash.
const CYCLES_PER_SESSION: usize = 4;

/// Bitwise equality of two metrics snapshots (u64s by value, f64s by
/// bit pattern — NaN-safe and drift-intolerant).
fn metrics_bit_identical(a: &SessionMetrics, b: &SessionMetrics) -> bool {
    a.session == b.session
        && a.cycles == b.cycles
        && a.queries_emitted == b.queries_emitted
        && a.mean_cycle_len.to_bits() == b.mean_cycle_len.to_bits()
        && a.mean_exposure.to_bits() == b.mean_exposure.to_bits()
        && a.worst_exposure.to_bits() == b.worst_exposure.to_bits()
        && a.mean_mask_level.to_bits() == b.mean_mask_level.to_bits()
        && a.satisfied_rate.to_bits() == b.satisfied_rate.to_bits()
        && a.trace_exposure.to_bits() == b.trace_exposure.to_bits()
}

/// Per-shard log equality, compared in ordinal order. The ordinal draw
/// and the log push are not one atomic step, so a concurrent drain may
/// append a shard's entries out of ordinal order; the single-threaded
/// replay always appends in order. The logged *set* per shard is what
/// must match.
fn logs_equal(a: &[Vec<LoggedQuery>], b: &[Vec<LoggedQuery>]) -> bool {
    let by_ordinal = |log: &[LoggedQuery]| {
        let mut sorted: Vec<LoggedQuery> = log.to_vec();
        sorted.sort_by_key(|q| q.ordinal);
        sorted
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(la, lb)| {
            let (la, lb) = (by_ordinal(la), by_ordinal(lb));
            la.len() == lb.len()
                && la.iter().zip(&lb).all(|(qa, qb)| {
                    qa.ordinal == qb.ordinal && qa.tokens == qb.tokens && qa.text == qb.text
                })
        })
}

/// Runs the crash-recovery scenario.
pub fn run(ctx: &ExperimentContext) -> ScenarioReport {
    let spill_dir: PathBuf =
        std::env::temp_dir().join(format!("toppriv_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");
    let mut inv = InvariantBlock::default();
    let queries = ctx.sweep_queries();

    // --- Phase 1: serve, then spill everything. ------------------------
    let manager = fleet_manager(ctx, sharded_tier(ctx, SHARDS));
    super::open_tenants(&manager, SESSIONS);
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        for c in 0..CYCLES_PER_SESSION {
            let q = &queries[(s * 5 + c) % queries.len()];
            plans.push(manager.plan_cycle(id, &q.tokens, TOP_K).expect("open"));
        }
    }
    // Whatever this drain delivered is the state that spills; the
    // restore is checked against it, not against a count.
    let _ = scheduler.try_drain(CycleScheduler::merge(plans));

    let ids = manager.session_ids();
    let pre_crash: Vec<SessionMetrics> = ids
        .iter()
        .map(|id| manager.session_metrics(id).expect("open"))
        .collect();
    for id in &ids {
        let state = manager.export_session(id).expect("open session");
        let sealed = seal_session_state(&state);
        std::fs::write(spill_dir.join(format!("session_{id}.bin")), sealed)
            .expect("spill session state");
    }
    let tier = manager.tier();
    let engine = tier.as_sharded().expect("scenario tier is sharded");
    let shard_count = engine.num_shards();
    for (s, log) in engine.shard_logs().iter().enumerate() {
        std::fs::write(
            spill_dir.join(format!("shardlog_{s}.bin")),
            seal_query_log(log),
        )
        .expect("spill shard log");
    }

    // --- Crash: the whole in-memory fleet goes away. -------------------
    drop(scheduler);
    drop(tier);
    drop(manager);

    // --- Phase 2: rebuild from scratch, restore from the spill. --------
    let manager = fleet_manager(ctx, sharded_tier(ctx, SHARDS));
    let mut crc_ok = 0usize;
    let mut crc_total = 0usize;
    for id in &ids {
        crc_total += 1;
        let sealed =
            std::fs::read(spill_dir.join(format!("session_{id}.bin"))).expect("read spill");
        match unseal_session_state(&sealed) {
            Ok(state) => {
                crc_ok += 1;
                manager.restore_session(&state).expect("restore session");
            }
            Err(e) => eprintln!("  recovery: session {id} failed to unseal: {e}"),
        }
    }
    let mut logs_a: Vec<Vec<LoggedQuery>> = Vec::new();
    let mut corrupted_rejected = true;
    for s in 0..shard_count {
        crc_total += 1;
        let sealed =
            std::fs::read(spill_dir.join(format!("shardlog_{s}.bin"))).expect("read spill");
        // Negative control: a single flipped payload byte must be caught
        // by the container CRC, not silently decoded.
        if !sealed.is_empty() {
            let mut bad = sealed.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            corrupted_rejected &= unseal_query_log(&bad).is_err();
        }
        match unseal_query_log(&sealed) {
            Ok(log) => {
                crc_ok += 1;
                logs_a.push(log);
            }
            Err(e) => {
                eprintln!("  recovery: shard log {s} failed to unseal: {e}");
                logs_a.push(Vec::new());
            }
        }
    }
    inv.check(
        "state_crc_verified",
        format!(
            "{crc_ok}/{crc_total} spilled containers unsealed with CRC intact; \
             corrupted copies rejected: {corrupted_rejected}"
        ),
        crc_ok == crc_total && corrupted_rejected,
    );

    // Restored accounting must equal pre-crash accounting, bit for bit.
    let mut mismatches = Vec::new();
    for pre in &pre_crash {
        match manager.session_metrics(&pre.session) {
            Ok(post) if metrics_bit_identical(pre, &post) => {}
            Ok(post) => mismatches.push(format!(
                "{}: trace_exposure {:.17e} → {:.17e}",
                pre.session, pre.trace_exposure, post.trace_exposure
            )),
            Err(e) => mismatches.push(format!("{}: {e}", pre.session)),
        }
    }
    inv.check(
        "accounting_bit_identical",
        if mismatches.is_empty() {
            format!(
                "{} sessions restored; every metric equal by f64 bit pattern",
                pre_crash.len()
            )
        } else {
            mismatches.join("; ")
        },
        mismatches.is_empty() && manager.session_count() == SESSIONS,
    );

    // Replay the spilled trace through the rebuilt tier: merge the
    // per-shard logs back into the global submission order (ordinals are
    // engine-global) and resubmit each query at the engine level.
    let merged = merge_shard_logs(&logs_a);
    let replay_count = merged.len();
    let tier = manager.tier();
    for q in &merged {
        tier.search_tokens(&q.tokens, TOP_K);
    }
    let logs_b = tier.as_sharded().expect("sharded").shard_logs();
    let replay_ok = logs_equal(&logs_a, &logs_b);
    inv.check(
        "replay_reproduces_log",
        format!(
            "{replay_count} submissions replayed across {shard_count} shards; \
             per-shard logs {} the spilled logs",
            if replay_ok { "match" } else { "diverge from" }
        ),
        replay_ok && replay_count > 0,
    );

    // The restored fleet keeps serving.
    let probe_id = &ids[0];
    let before = manager.session_metrics(probe_id).expect("restored").cycles;
    let out = manager
        .search_tokens(probe_id, &queries[0].tokens, TOP_K)
        .expect("post-restore search");
    let after = manager.session_metrics(probe_id).expect("restored").cycles;
    // ... and sustains a full scheduled round on the restored sessions.
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        let q = &queries[(s * 7 + 1) % queries.len()];
        plans.push(manager.plan_cycle(id, &q.tokens, TOP_K).expect("restored"));
    }
    let queue = CycleScheduler::merge(plans);
    let round_expected = queue.len();
    let round_drained = match scheduler.try_drain(queue) {
        Ok(outcomes) => outcomes.len(),
        Err(e) => e.completed.len(),
    };
    inv.check(
        "fleet_resumes_serving",
        format!(
            "post-restore search on {probe_id}: {} hits, exposure {:.4} ≤ mask {:.4}, \
             cycles {before} → {after}; follow-up round drained {round_drained}/{round_expected}",
            out.hits.len(),
            out.report.metrics.exposure,
            out.report.metrics.mask_level
        ),
        after == before + 1
            && super::masking_violation(
                &out.report.metrics,
                toppriv_core::PrivacyRequirement::paper_default().eps2,
            ) <= 1e-9
            && round_drained == round_expected,
    );

    let report = finish("recovery", &manager, inv);
    manager.tier().clear_query_logs();
    let _ = std::fs::remove_dir_all(&spill_dir);
    report
}
