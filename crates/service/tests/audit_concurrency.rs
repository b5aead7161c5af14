//! Integration tests: the privacy auditor around a concurrent drain.
//!
//! Every cycle is audited once, when it is committed: a rigged ε2 breach
//! surfaces as **exactly one** journal event at the rig, and no drain
//! worker racing on the cycle's submissions re-emits it. The per-tenant
//! gauges reflect the manager's exposure accounting in micro-units. A
//! wire search commits like a planned cycle, so it draws a cycle id from
//! the same pacer. (That both routes debit and audit a session alike is
//! checked, step by step, by the fleet simulation in `crates/bench`.)

use std::sync::Arc;
use toppriv_service::auditor::{
    to_micro, M_AUDIT_CYCLES, M_AUDIT_EVENTS, M_TENANT_BURN_CYCLES, M_TENANT_HEADROOM,
    M_TENANT_TRACE_EXPOSURE, M_TENANT_WORST_EXPOSURE,
};
use toppriv_service::obs::AuditEvent;
use toppriv_service::{
    AuditConfig, CycleScheduler, PlannedQuery, PrivacyAuditor, SessionConfig, SessionManager,
};
use tsearch_corpus::{
    generate_workload, BenchmarkQuery, CorpusConfig, SyntheticCorpus, WorkloadConfig,
};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, ShardedEngine};
use tsearch_text::Analyzer;

const SESSIONS: usize = 4;
const SHARDS: usize = 4;
const WORKERS: usize = 4;

struct Stack {
    corpus: SyntheticCorpus,
    engine: Arc<ShardedEngine>,
    model: Arc<LdaModel>,
}

/// A small sharded stack: the rigged cycle's submissions spread across
/// shards and several drain workers, none of which may audit it again.
fn stack() -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 300,
        num_topics: 8,
        terms_per_topic: 60,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
        SHARDS,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 25,
            ..LdaConfig::with_topics(16)
        },
    ));
    Stack {
        corpus,
        engine,
        model,
    }
}

fn audited_manager(stack: &Stack) -> Arc<SessionManager> {
    let manager = SessionManager::new_sharded(stack.engine.clone(), stack.model.clone())
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
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 16,
            ..WorkloadConfig::default()
        },
    );
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
    let stack = stack();
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
    let stack = stack();
    let manager = audited_manager(&stack);
    let auditor = manager.auditor().expect("auditor attached").clone();
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 3,
            ..WorkloadConfig::default()
        },
    );
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

#[test]
fn cycle_ids_are_unique_per_session_across_routes() {
    let stack = stack();
    let manager = SessionManager::new_sharded(stack.engine.clone(), stack.model.clone())
        .with_fleet_seed(7)
        .with_auditor(AuditConfig::default());
    let auditor = manager.auditor().expect("auditor attached").clone();
    // Thresholds so small that every cycle's trace exposure eats more than
    // three quarters of ε2: each audit journals one event (a breach or a
    // low-headroom warning), so the journal names every audited cycle.
    let config = SessionConfig {
        requirement: toppriv_core::PrivacyRequirement::new(1e-6, 1e-6).unwrap(),
        ..SessionConfig::default()
    };
    manager.open_session_with("t", config).unwrap();
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 12,
            ..WorkloadConfig::default()
        },
    );
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    // Interleave both routes: a search between plans, and plans pending
    // while searches commit.
    let interleave = |queries: &[BenchmarkQuery]| {
        let mut plans = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            if i % 2 == 0 {
                plans.push(manager.plan_cycle("t", &q.tokens, 10).unwrap());
            } else {
                manager.search_tokens("t", &q.tokens, 10).unwrap();
            }
        }
        scheduler.drain(CycleScheduler::merge(plans));
    };
    interleave(&queries[..6]);
    let state = manager.export_session("t").unwrap();
    // Searches draw pacer ids and advance the session clock like plans.
    assert_eq!(state.next_cycle_id, 6);
    assert_eq!(state.clock_secs, 6.0 * state.config.think_time_secs);
    manager.close_session("t").unwrap();
    manager.restore_session(&state).unwrap();
    interleave(&queries[6..]);

    let ids: Vec<u64> = auditor
        .log()
        .events()
        .iter()
        .filter(|e| e.tenant == "t")
        .map(|e| e.cycle)
        .collect();
    assert_eq!(auditor.cycles_audited(), queries.len() as u64);
    assert_eq!(ids.len(), queries.len(), "one event per cycle: {ids:?}");
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "cycle ids strictly increase, none repeats: {ids:?}"
    );
}

#[test]
fn tenant_gauges_mirror_exposure_accounting_in_micro_units() {
    let stack = stack();
    let manager = audited_manager(&stack);
    let registry = manager.metrics_registry().registry().clone();

    let plans = plan_wave(&manager, &stack, 2, 0);
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    scheduler.drain(CycleScheduler::merge(plans));

    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    let snapshot = manager.metrics();
    assert_eq!(snapshot.sessions.len(), SESSIONS);
    for m in &snapshot.sessions {
        let labels = [("tenant", m.session.as_str())];
        let trace = registry.gauge(M_TENANT_TRACE_EXPOSURE, &labels).get();
        let worst = registry.gauge(M_TENANT_WORST_EXPOSURE, &labels).get();
        let headroom = registry.gauge(M_TENANT_HEADROOM, &labels).get();
        assert_eq!(
            trace,
            to_micro(m.trace_exposure),
            "{}: trace gauge mirrors the manager's Equation-2 accounting",
            m.session
        );
        assert_eq!(worst, to_micro(m.worst_exposure), "{}", m.session);
        // headroom = ε2 − trace; independent micro-roundings may differ
        // by one unit.
        assert!(
            (headroom - (to_micro(eps2) - trace)).abs() <= 1,
            "{}: headroom {headroom} vs ε2 {} − trace {trace}",
            m.session,
            to_micro(eps2)
        );
        let burn = registry.gauge(M_TENANT_BURN_CYCLES, &labels).get();
        assert!(
            burn >= -1,
            "{}: burn estimate is −1 or a cycle count",
            m.session
        );
    }

    // A departing tenant's gauges leave the registry with it.
    let gone = snapshot.sessions[0].session.clone();
    let series = registry.len();
    manager.close_session(&gone).unwrap();
    assert_eq!(registry.len(), series - 4);
    assert!(registry
        .snapshot()
        .iter()
        .all(|m| m.labels.iter().all(|l| l.value != gone)));
    let health = manager.auditor().unwrap().health();
    assert_eq!(health.tenants, SESSIONS - 1);
    assert!(health.healthy, "clean workload audits clean");
}
