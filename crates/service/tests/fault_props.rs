//! Property tests over random fault schedules for the self-healing
//! drain (see `CycleScheduler::drain_resilient`):
//!
//! - **Survivor integrity**: every cycle the resilient drain delivers
//!   has genuine rankings bit-identical to a fault-free run of the same
//!   workload — faults may delay or kill cycles, never corrupt them.
//! - **Cycle atomicity**: nothing is silently lost — every planned
//!   cycle is either fully delivered or rolled back — and the coverage
//!   identity `engine submissions + cache hits == resolved outcomes`
//!   holds under retries and replans.
//! - **Bit-exact rollback**: rolling a cycle back leaves the session's
//!   trace accounting `to_bits`-identical to the snapshot taken before
//!   the cycle was formulated (the never-formulated state) — also when a
//!   drain had already delivered part of the cycle.
//!
//! Corpus + LDA builds are the expensive part, so the sampled corpus
//! dimension selects from a small pool of lazily-built random stacks
//! while fault rates, fleet seeds, tenant counts, and workloads stay
//! fully sampled per case.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use toppriv_service::{
    CycleScheduler, DrainPolicy, FaultKind, FaultPlane, FaultSpec, PlannedQuery, SessionManager,
    SessionMetrics, SubmitOutcome,
};
use tsearch_corpus::{
    generate_workload, BenchmarkQuery, CorpusConfig, SyntheticCorpus, WorkloadConfig,
};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, SearchEngine};
use tsearch_text::Analyzer;

struct Stack {
    engine: Arc<SearchEngine>,
    model: Arc<LdaModel>,
    queries: Vec<BenchmarkQuery>,
}

fn build_stack(seed: u64, num_topics: usize, num_docs: usize) -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs,
        num_topics,
        terms_per_topic: 40,
        seed,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(SearchEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 12,
            ..LdaConfig::with_topics(num_topics)
        },
    ));
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 12,
            seed: seed ^ 0x9E37,
            ..WorkloadConfig::default()
        },
    );
    Stack {
        engine,
        model,
        queries,
    }
}

/// Pool of random stacks, built once each.
fn stacks() -> &'static [Stack; 2] {
    static STACKS: OnceLock<[Stack; 2]> = OnceLock::new();
    STACKS.get_or_init(|| [build_stack(17, 4, 160), build_stack(0xFA11, 6, 200)])
}

/// Genuine hits per (session, cycle), score compared bitwise.
fn genuine_hits(outcomes: &[SubmitOutcome]) -> HashMap<(String, usize), Vec<(u32, u64)>> {
    let mut map = HashMap::new();
    for o in outcomes {
        if o.is_genuine {
            let prev = map.insert(
                (o.session.clone(), o.cycle_id),
                o.hits
                    .iter()
                    .map(|h| (h.doc_id, h.score.to_bits()))
                    .collect::<Vec<_>>(),
            );
            assert!(prev.is_none(), "one genuine outcome per cycle");
        }
    }
    map
}

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
        let baseline = genuine_hits(
            &CycleScheduler::for_manager(&clean, 2).run(clean_plans),
        );

        let scheduler = CycleScheduler::for_manager(&faulty, 2).with_policy(DrainPolicy {
            max_attempts: 3,
            ..DrainPolicy::default()
        });
        let report = scheduler.drain_resilient(&faulty, CycleScheduler::merge(faulty_plans));

        // (a) Every delivered genuine ranking is bit-identical to the
        // fault-free run — replanned cycles translate back to the
        // original cycle they replaced.
        let new_to_old: HashMap<(String, usize), usize> = report
            .replanned
            .iter()
            .map(|(s, old, new)| ((s.clone(), *new), *old))
            .collect();
        let delivered = genuine_hits(&report.outcomes);
        prop_assert!(!baseline.is_empty());
        for ((session, cycle_id), hits) in &delivered {
            let orig = new_to_old
                .get(&(session.clone(), *cycle_id))
                .copied()
                .unwrap_or(*cycle_id);
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
        for key in &planned {
            prop_assert!(
                delivered_keys.contains(key) || rolled.contains(key),
                "cycle {:?} neither delivered nor rolled back",
                key
            );
        }
        // A cycle is never both.
        prop_assert!(delivered_keys.is_disjoint(&rolled));

        // (c) Coverage identity under retries: every resolved per-tenant
        // outcome (delivered or discarded) was served by exactly one
        // engine submission or cache hit — failed attempts never count.
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
    /// journal, and for cycles a drain delivered only in part (some
    /// members never drained, or one member terminally failed) — and a
    /// fully delivered cycle refuses to unwind.
    #[test]
    fn rollback_restores_never_formulated_accounting(
        stack_idx in 0usize..2,
        fleet_seed: u64,
        n in 2usize..=5,
        query_salt in 0usize..64,
        deliver_salt in 0usize..2,
        // What happens to each cycle before its rollback: 0 = never
        // drained, 1 = all but its last member drained, 2 = drained with
        // its genuine member failing every attempt.
        partial_modes in collection::vec(0usize..3, 5..6),
    ) {
        let stack = &stacks()[stack_idx];
        let manager = SessionManager::new(stack.engine.clone(), stack.model.clone())
            .with_fleet_seed(fleet_seed);
        manager.open_session("t0").unwrap();
        let mut pre: Vec<SessionMetrics> = Vec::new();
        let mut plans = Vec::new();
        for i in 0..n {
            pre.push(manager.session_metrics("t0").unwrap());
            let q = &stack.queries[(query_salt + i) % stack.queries.len()];
            plans.push(manager.plan_cycle("t0", &q.tokens, 10).unwrap());
        }
        let ids: Vec<usize> = plans.iter().map(|p| p[0].scheduled.cycle_id).collect();
        let clean = CycleScheduler::for_manager(&manager, 2);
        let genuine_fails = CycleScheduler::for_manager(&manager, 2)
            .with_policy(DrainPolicy {
                max_attempts: 2,
                backoff_base: std::time::Duration::ZERO,
                ..DrainPolicy::default()
            })
            .with_fault_plane(Arc::new(FaultPlane::new(0).with_spec(FaultSpec::predicate(
                FaultKind::WorkerPanic,
                Arc::new(|p: &PlannedQuery| p.scheduled.is_genuine),
            ))));
        let deliver_first = deliver_salt == 1;
        let delivered = if deliver_first {
            // Draining the oldest cycle in full seals it: it must
            // survive the unwind below, and rolling it back must fail.
            let drained = clean.drain(plans[0].clone());
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
                    prop_assert_eq!(clean.drain(some).len(), plan.len() - 1);
                }
                2 => {
                    let err = genuine_fails.try_drain(plan).expect_err("genuine member fails");
                    prop_assert_eq!(err.failures.len(), 1);
                }
                _ => {}
            }
        }
        for i in (delivered..n).rev() {
            let rb = manager.rollback_cycle("t0", ids[i]).unwrap();
            prop_assert_eq!(rb.cycle_id, ids[i]);
            let now = manager.session_metrics("t0").unwrap();
            prop_assert!(
                metrics_bit_identical(&pre[i], &now),
                "rollback of cycle {} left accounting residue",
                ids[i]
            );
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
