//! Integration tests: the privacy auditor around a concurrent drain.
//!
//! Every cycle is audited once, when it is committed: a rigged ε2 breach
//! surfaces as **exactly one** journal event at the rig, and no drain
//! worker racing on the cycle's submissions re-emits it. A wire search
//! after a rollback draws the pacer's next cycle id. (The tenant gauges,
//! and that both routes debit and audit a session alike under pacer ids,
//! are checked step by step by the fleet simulation in `crates/bench`.)

mod common;

use common::{stack, Stack};
use std::sync::Arc;
use toppriv_service::auditor::{M_AUDIT_CYCLES, M_AUDIT_EVENTS};
use toppriv_service::obs::AuditEvent;
use toppriv_service::{AuditConfig, CycleScheduler, PlannedQuery, PrivacyAuditor, SessionManager};

const SESSIONS: usize = 4;
const WORKERS: usize = 4;

/// A small sharded stack: the rigged cycle's submissions spread across
/// shards and several drain workers, none of which may audit it again.
fn fleet() -> Stack {
    stack(0xA0D17, 8, 300)
}

fn audited_manager(stack: &Stack) -> Arc<SessionManager> {
    let manager = SessionManager::new_sharded(stack.sharded.clone(), stack.model.clone())
        .with_cache(2048)
        .with_fleet_seed(7)
        .with_auditor(AuditConfig::default());
    for s in 0..SESSIONS {
        manager.open_session(&format!("t{s}")).unwrap();
    }
    Arc::new(manager)
}

/// Plans `per_session` cycles for every session, starting at workload
/// query offset `offset`.
fn plan_wave(
    manager: &SessionManager,
    stack: &Stack,
    per_session: usize,
    offset: usize,
) -> Vec<Vec<PlannedQuery>> {
    let queries = &stack.queries;
    let mut plans = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        for q in 0..per_session {
            plans.push(
                manager
                    .plan_cycle(
                        id,
                        &queries[(offset + s + q * 3) % queries.len()].tokens,
                        10,
                    )
                    .unwrap(),
            );
        }
    }
    plans
}

/// Audits a committed cycle again with an unmasked exposure far above
/// both its decoys and ε2: the breach is journaled at the call.
fn rig_breach(auditor: &PrivacyAuditor, session: &str, cycle_id: usize) {
    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    let unmasked = toppriv_core::PrivacyMetrics {
        exposure: 0.5,
        mask_level: 0.0,
        ..Default::default()
    };
    auditor.audit_cycle(session, cycle_id, &unmasked, eps2, 0.5, 0.5);
}

fn breaches(auditor: &PrivacyAuditor) -> Vec<AuditEvent> {
    let events = auditor.log().events().into_iter();
    events.filter(|e| e.code == "eps2_breach").collect()
}

#[test]
fn rigged_breach_emits_exactly_once_across_drain_workers() {
    let stack = fleet();
    let manager = audited_manager(&stack);
    let auditor = manager.auditor().expect("auditor attached").clone();
    let registry = manager.metrics_registry().registry().clone();

    let plans = plan_wave(&manager, &stack, 2, 0);
    let expected: usize = plans.iter().map(|p| p.len()).sum();
    assert_eq!(
        auditor.cycles_audited(),
        (SESSIONS * 2) as u64,
        "each planned cycle audited once, at commit"
    );
    // Rig one planned cycle: the breach is journaled at the call.
    let rigged = plans[0][0].clone();
    rig_breach(&auditor, &rigged.session, rigged.scheduled.cycle_id);
    assert_eq!(auditor.log().breaches(), 1, "journaled at the rig");

    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let outcomes = scheduler.drain(CycleScheduler::merge(plans));
    assert_eq!(outcomes.len(), expected, "every submission drained");

    // Still one breach in the journal, attributed to the rigged cycle:
    // the drain workers audit nothing.
    assert_eq!(auditor.log().breaches(), 1, "exactly-once breach emission");
    let breaches = breaches(&auditor);
    assert_eq!(breaches.len(), 1);
    assert_eq!(breaches[0].tenant, rigged.session);
    assert_eq!(breaches[0].cycle, rigged.scheduled.cycle_id as u64);

    // The counters agree with the journal: one breach-severity event,
    // and the per-cycle audit counter matches the auditor's own count.
    assert_eq!(
        registry
            .counter(M_AUDIT_EVENTS, &[("severity", "breach")])
            .get(),
        1
    );
    assert_eq!(
        registry.counter_total(M_AUDIT_CYCLES),
        auditor.cycles_audited()
    );
    assert_eq!(
        auditor.cycles_audited(),
        (SESSIONS * 2 + 1) as u64,
        "each commit once, plus the rig's own evaluation"
    );

    let health = auditor.health();
    assert!(!health.healthy, "a breach degrades the audit verdict");
    assert_eq!(health.breaches, 1);
    assert_eq!(health.tenants, SESSIONS);

    // A later clean wave must not re-emit the rigged cycle.
    let more = plan_wave(&manager, &stack, 1, 5);
    let expected: usize = more.iter().map(|p| p.len()).sum();
    let outcomes = scheduler.drain(CycleScheduler::merge(more));
    assert_eq!(outcomes.len(), expected);
    assert_eq!(auditor.log().breaches(), 1, "breach not re-emitted");
    assert_eq!(
        registry
            .counter(M_AUDIT_EVENTS, &[("severity", "breach")])
            .get(),
        1
    );
}

#[test]
fn a_search_after_a_rollback_leaves_a_pending_paced_fact_alone() {
    let stack = fleet();
    let manager = audited_manager(&stack);
    let auditor = manager.auditor().expect("auditor attached").clone();
    let queries = &stack.queries;
    let id = "t0";
    let a = manager.plan_cycle(id, &queries[0].tokens, 10).unwrap();
    let b = manager.plan_cycle(id, &queries[1].tokens, 10).unwrap();
    let b_id = b[0].scheduled.cycle_id;
    assert_eq!((a[0].scheduled.cycle_id, b_id), (0, 1));
    rig_breach(&auditor, id, b_id);
    // Rolling A back takes the session's cycle count from 2 to 1. A
    // search labelled by that count would be the session's second cycle
    // again — B's id; it draws the pacer's next id instead.
    manager.rollback_cycle(id, a[0].scheduled.cycle_id).unwrap();
    manager.search_tokens(id, &queries[2].tokens, 10).unwrap();
    assert_eq!(manager.session_metrics(id).unwrap().cycles, 2);

    CycleScheduler::for_manager(&manager, WORKERS).drain(b);
    let breaches = breaches(&auditor);
    assert_eq!(breaches.len(), 1, "B's breach is journaled");
    assert_eq!(
        (breaches[0].tenant.as_str(), breaches[0].cycle),
        (id, b_id as u64)
    );
    assert!(!auditor.health().healthy);
}
