//! Integration tests: the privacy auditor under a concurrent drain.
//!
//! A rigged ε2 breach must surface as **exactly one** journal event no
//! matter how many drain workers race on the cycle's submissions, the
//! per-tenant gauges must reflect the manager's exposure accounting in
//! micro-units, and a later drain must not re-emit the breach. The
//! synchronous search path audits in place, so it can neither erase a
//! pending paced fact nor debit or audit a session differently from the
//! paced path.

use std::sync::Arc;
use toppriv_service::auditor::{
    to_micro, M_AUDIT_CYCLES, M_AUDIT_EVENTS, M_TENANT_BURN_CYCLES, M_TENANT_HEADROOM,
    M_TENANT_TRACE_EXPOSURE, M_TENANT_WORST_EXPOSURE,
};
use toppriv_service::obs::AuditEvent;
use toppriv_service::{
    AuditConfig, CycleScheduler, PlannedQuery, PrivacyAuditor, SessionManager, SessionMetrics,
};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
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
/// shards, so several drain workers genuinely race on its audit.
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

/// Rigs a registered cycle's fact with an unmasked exposure far above
/// both its decoys and ε2: the drain that audits it must surface a breach.
fn rig_breach(auditor: &PrivacyAuditor, session: &str, cycle_id: usize) {
    let eps2 = toppriv_core::PrivacyRequirement::paper_default().eps2;
    let unmasked = toppriv_core::PrivacyMetrics {
        exposure: 0.5,
        mask_level: 0.0,
        ..Default::default()
    };
    auditor.register_cycle(session, cycle_id, &unmasked, eps2, 0.5, 0.5);
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
    // Rig one planned cycle: the very next drain must surface the breach.
    let rigged = plans[0][0].clone();
    rig_breach(&auditor, &rigged.session, rigged.scheduled.cycle_id);

    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    let outcomes = scheduler.run(plans);
    assert_eq!(outcomes.len(), expected, "every submission drained");

    // Exactly one breach in the journal, attributed to the rigged cycle.
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
        (SESSIONS * 2) as u64,
        "each planned cycle audited once (the rig overwrites, not adds)"
    );

    let health = auditor.health();
    assert!(!health.healthy, "a breach degrades the audit verdict");
    assert_eq!(health.breaches, 1);
    assert_eq!(health.tenants, SESSIONS);

    // A later clean drain must not re-emit the pruned rigged cycle.
    let more = plan_wave(&manager, &stack, 1, 5);
    let expected: usize = more.iter().map(|p| p.len()).sum();
    let outcomes = scheduler.run(more);
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
    // Rolling A back takes the session's cycle count from 2 to 1, so the
    // next synchronous cycle is the session's second again — B's id.
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

/// Every field of one session's metrics, floats as bit patterns.
fn metric_bits(m: &SessionMetrics) -> (String, u64, u64, Vec<u64>) {
    let floats = [
        m.mean_cycle_len,
        m.mean_exposure,
        m.worst_exposure,
        m.mean_mask_level,
        m.satisfied_rate,
        m.trace_exposure,
    ];
    (
        m.session.clone(),
        m.cycles,
        m.queries_emitted,
        floats.iter().map(|x| x.to_bits()).collect(),
    )
}

#[test]
fn the_synchronous_and_paced_paths_debit_a_session_alike() {
    let stack = stack();
    let manager = || {
        let manager = SessionManager::new_sharded(stack.engine.clone(), stack.model.clone())
            .with_fleet_seed(7)
            .with_auditor(AuditConfig::default());
        manager.open_session("t").unwrap();
        manager
    };
    let (searched, paced) = (manager(), manager());
    let scheduler = CycleScheduler::for_manager(&paced, WORKERS);
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 60,
            ..WorkloadConfig::default()
        },
    );
    assert!(queries.len() >= 50);
    for q in &queries {
        searched.search_tokens("t", &q.tokens, 10).unwrap();
        let fc = paced.formulate_cycle("t", &q.tokens, 10).unwrap();
        let (_, plan) = paced.commit_cycle(fc).unwrap();
        scheduler.drain(plan);
        assert_eq!(
            metric_bits(&searched.session_metrics("t").unwrap()),
            metric_bits(&paced.session_metrics("t").unwrap())
        );
    }
    let (searched, paced) = (searched.auditor().unwrap(), paced.auditor().unwrap());
    assert_eq!(searched.cycles_audited(), queries.len() as u64);
    assert_eq!(searched.cycles_audited(), paced.cycles_audited());
    assert_eq!(searched.log().events(), paced.log().events());
}

#[test]
fn tenant_gauges_mirror_exposure_accounting_in_micro_units() {
    let stack = stack();
    let manager = audited_manager(&stack);
    let registry = manager.metrics_registry().registry().clone();

    let plans = plan_wave(&manager, &stack, 2, 0);
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    scheduler.run(plans);

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
