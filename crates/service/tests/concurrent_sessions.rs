//! Integration tests: many tenants sharing one model/engine concurrently.
//!
//! The privacy invariant asserted per session is the one the paper's
//! design guarantees per cycle: the protected intention never ends up
//! more prominent than the decoy topics (`exposure ≤ mask_level`), and a
//! satisfied cycle keeps `exposure ≤ ε2`.

use std::sync::Arc;
use toppriv_service::{CycleScheduler, GhostPlanner, ResultCache, SessionManager, SubmitOutcome};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, SearchEngine, ShardedEngine};
use tsearch_text::Analyzer;

struct Stack {
    corpus: SyntheticCorpus,
    engine: Arc<SearchEngine>,
    model: Arc<LdaModel>,
}

/// A small synthetic stack with clear topical structure.
fn stack() -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 300,
        num_topics: 8,
        terms_per_topic: 60,
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

#[test]
fn concurrent_sessions_hold_the_privacy_invariant() {
    let stack = stack();
    let manager =
        Arc::new(SessionManager::new(stack.engine.clone(), stack.model.clone()).with_cache(2048));
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 24,
            ..WorkloadConfig::default()
        },
    );
    const SESSIONS: usize = 10;
    for s in 0..SESSIONS {
        manager.open_session(&format!("user-{s}")).unwrap();
    }

    // Every session searches concurrently from its own thread.
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let manager = manager.clone();
            let queries = &queries;
            scope.spawn(move || {
                let id = format!("user-{s}");
                for q in 0..4 {
                    let query = &queries[(s + q * 3) % queries.len()];
                    let outcome = manager.search_tokens(&id, &query.tokens, 10).unwrap();
                    let m = &outcome.report.metrics;
                    // The core invariant: the intention is never the most
                    // prominent topic of the submitted cycle.
                    assert!(
                        m.exposure <= m.mask_level + 1e-9,
                        "session {id}: exposure {} above mask level {}",
                        m.exposure,
                        m.mask_level
                    );
                    if outcome.report.satisfied && !outcome.report.intention.is_empty() {
                        assert!(
                            m.exposure <= 0.01 + 1e-9,
                            "session {id}: satisfied cycle exposes {}",
                            m.exposure
                        );
                    }
                }
            });
        }
    });

    // Per-session accounting is isolated and complete.
    let snapshot = manager.metrics();
    assert_eq!(snapshot.sessions.len(), SESSIONS);
    for m in &snapshot.sessions {
        assert_eq!(m.cycles, 4, "{} ran 4 searches", m.session);
        assert!(m.queries_emitted >= 4);
        assert!(
            m.mean_exposure <= m.mean_mask_level + 1e-9,
            "{}: mean exposure above mean mask",
            m.session
        );
    }
    // Sessions shared queries, and ghost generation is content-
    // deterministic, so the cross-tenant cache must have fired.
    assert!(
        snapshot.global.cache_hit_rate > 0.0,
        "shared workload must produce cache hits"
    );
    assert_eq!(
        snapshot.global.genuine_served + snapshot.global.ghosts_processed,
        snapshot.global.submitted
    );
}

#[test]
fn cached_results_equal_engine_results() {
    let stack = stack();
    let manager = SessionManager::new(stack.engine.clone(), stack.model.clone()).with_cache(1024);
    manager.open_session("a").unwrap();
    manager.open_session("b").unwrap();
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 4,
            ..WorkloadConfig::default()
        },
    );
    for q in &queries {
        let first = manager.search_tokens("a", &q.tokens, 10).unwrap();
        // Session b repeats the same query: its genuine member (and the
        // deterministic ghosts) now resolve from cache.
        let second = manager.search_tokens("b", &q.tokens, 10).unwrap();
        assert!(second.cache_hits > 0, "repeat cycle should hit cache");
        assert_eq!(first.hits.len(), second.hits.len());
        for (x, y) in first.hits.iter().zip(&second.hits) {
            assert_eq!(x.doc_id, y.doc_id);
            assert!((x.score - y.score).abs() < 1e-12);
        }
    }
}

#[test]
fn paced_schedules_merge_and_drain_in_time_order() {
    let stack = stack();
    let manager =
        Arc::new(SessionManager::new(stack.engine.clone(), stack.model.clone()).with_cache(1024));
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 8,
            ..WorkloadConfig::default()
        },
    );
    for s in 0..4 {
        manager.open_session(&format!("t{s}")).unwrap();
    }
    let mut plans = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        for q in 0..2 {
            plans.push(
                manager
                    .plan_cycle(id, &queries[(s + q) % queries.len()].tokens, 10)
                    .unwrap(),
            );
        }
    }
    let expected: usize = plans.iter().map(|p| p.len()).sum();
    let scheduler = CycleScheduler::for_manager(&manager, 4);
    let outcomes = scheduler.run(plans);
    assert_eq!(outcomes.len(), expected, "every submission drained");
    // Global time order (the adversary-visible trace order).
    assert!(
        outcomes
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs),
        "outcomes must be time-ordered"
    );
    // Exactly one genuine submission per planned cycle, and genuine hits
    // are populated while ghost results are discarded.
    let genuine = outcomes.iter().filter(|o| o.is_genuine).count();
    assert_eq!(genuine, 8);
    assert!(outcomes.iter().all(|o| o.is_genuine || o.hits.is_empty()));
    assert!(outcomes
        .iter()
        .filter(|o| o.is_genuine)
        .any(|o| !o.hits.is_empty()));
    // Queue fully drained.
    assert_eq!(manager.metrics_registry().queue_depth(), 0);
    assert!(manager.metrics().global.max_queue_depth >= expected);
}

/// A sharded engine over the same corpus as `stack()`'s single engine.
fn sharded_engine(stack: &Stack, shards: usize) -> Arc<ShardedEngine> {
    let docs = stack.corpus.token_docs();
    let texts: Vec<String> = stack.corpus.docs.iter().map(|d| d.text.clone()).collect();
    Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        stack.corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
        shards,
    ))
}

#[test]
fn sharded_tier_returns_identical_results_and_drains_per_shard() {
    let stack = stack();
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 6,
            ..WorkloadConfig::default()
        },
    );
    // Same fleet seed on both managers so their ghost cycles (and thus
    // their submission streams) are identical.
    let single = Arc::new(
        SessionManager::new(stack.engine.clone(), stack.model.clone()).with_fleet_seed(42),
    );
    let sharded = Arc::new(
        SessionManager::new_sharded(sharded_engine(&stack, 4), stack.model.clone())
            .with_fleet_seed(42),
    );
    for manager in [&single, &sharded] {
        for s in 0..3 {
            manager.open_session(&format!("t{s}")).unwrap();
        }
    }
    // Synchronous path: identical genuine hits.
    for (s, q) in queries.iter().enumerate() {
        let id = format!("t{}", s % 3);
        let a = single.search_tokens(&id, &q.tokens, 10).unwrap();
        let b = sharded.search_tokens(&id, &q.tokens, 10).unwrap();
        assert_eq!(a.hits.len(), b.hits.len(), "query {s}");
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(x.doc_id, y.doc_id);
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }
    // Paced path: plans carry real shard sets (the primary shard is the
    // submission's failure-domain label) and drain on the shared queue.
    let mut plans = Vec::new();
    for (s, id) in sharded.session_ids().iter().enumerate() {
        plans.push(
            sharded
                .plan_cycle(id, &queries[s % queries.len()].tokens, 10)
                .unwrap(),
        );
    }
    let expected: usize = plans.iter().map(|p| p.len()).sum();
    assert!(plans
        .iter()
        .flatten()
        .all(|p| !p.shards.is_empty() && p.shards.iter().all(|&s| s < 4)));
    assert!(
        plans.iter().flatten().any(|p| p.primary_shard() > 0),
        "submissions should spread beyond shard 0"
    );
    let scheduler = CycleScheduler::for_manager(&sharded, 4);
    let outcomes = scheduler.run(plans);
    assert_eq!(outcomes.len(), expected, "every submission drained");
    assert!(outcomes
        .windows(2)
        .all(|w| w[0].time_secs <= w[1].time_secs));
    let snapshot = sharded.metrics();
    assert_eq!(snapshot.global.queue_depth, 0, "the queue drained empty");
    // Each touched shard logged only its slice of the trace.
    let tier = sharded.tier();
    let engine = tier.as_sharded().unwrap();
    let logs = engine.shard_logs();
    assert!(logs.iter().filter(|l| !l.is_empty()).count() > 1);
    for (s, entries) in logs.iter().enumerate() {
        for e in entries {
            for &t in &e.tokens {
                assert_eq!(engine.router().shard_of(t), s);
            }
        }
    }
}

#[test]
fn fleet_seed_is_secret_but_shared() {
    let stack = stack();
    let query = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .remove(0);
    // Same fleet secret → identical decoy streams (cache-compatible
    // replicas); the engine-side adversary, not knowing the secret,
    // cannot regenerate them from the public default config.
    let runs: Vec<Vec<Vec<u32>>> = [7u64, 7, 99]
        .iter()
        .map(|&seed| {
            let manager = SessionManager::new(stack.engine.clone(), stack.model.clone())
                .with_fleet_seed(seed);
            manager.open_session("u").unwrap();
            let outcome = manager.search_tokens("u", &query.tokens, 10).unwrap();
            outcome
                .report
                .cycle
                .iter()
                .map(|q| q.tokens.clone())
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "same secret, same ghost cycle");
    assert_ne!(runs[0], runs[2], "different secret, different decoys");
    // A random-seed manager does not reproduce the fixed-seed stream.
    let manager = SessionManager::new(stack.engine.clone(), stack.model.clone());
    manager.open_session("u").unwrap();
    let outcome = manager.search_tokens("u", &query.tokens, 10).unwrap();
    let random_run: Vec<Vec<u32>> = outcome
        .report
        .cycle
        .iter()
        .map(|q| q.tokens.clone())
        .collect();
    assert_ne!(runs[0], random_run, "random fleet secret differs");
}

#[test]
fn service_errors_are_typed() {
    let stack = stack();
    let manager = SessionManager::new(stack.engine.clone(), stack.model.clone());
    assert!(manager.search("ghost-town", "anything", 5).is_err());
    manager.open_session("x").unwrap();
    assert!(manager.open_session("x").is_err(), "duplicate id rejected");
    assert!(manager.close_session("x").is_ok());
    assert!(manager.close_session("x").is_err(), "already closed");
}

#[test]
fn shared_model_is_not_duplicated() {
    let stack = stack();
    let baseline = Arc::strong_count(&stack.model);
    let manager = SessionManager::new(stack.engine.clone(), stack.model.clone()).with_cache(256);
    for s in 0..16 {
        manager.open_session(&format!("s{s}")).unwrap();
    }
    // One Arc for the manager plus one per session's belief engine — the
    // model itself is never cloned.
    assert_eq!(Arc::strong_count(&stack.model), baseline + 1 + 16);
    let _ = ResultCache::new(16); // (exercise the re-export)
}

#[test]
fn drained_cycles_never_roll_back() {
    // Delivery seals a cycle on the plain drain path too: once every
    // member of a planned cycle has been drained, its trace debits are
    // final (invariant 6), whichever drain entry point delivered them.
    let stack = stack();
    let manager = SessionManager::new_sharded(sharded_engine(&stack, 4), stack.model.clone());
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 6,
            ..WorkloadConfig::default()
        },
    );
    let mut plans = Vec::new();
    for s in 0..3 {
        let id = format!("t{s}");
        manager.open_session(&id).unwrap();
        for q in 0..2 {
            plans.push(
                manager
                    .plan_cycle(&id, &queries[s * 2 + q].tokens, 10)
                    .unwrap(),
            );
        }
    }
    let cycles: Vec<(String, usize)> = plans
        .iter()
        .map(|p| (p[0].session.clone(), p[0].scheduled.cycle_id))
        .collect();
    let held_back = plans.pop().expect("six plans");
    CycleScheduler::for_manager(&manager, 2).run(plans);
    let (last, drained) = cycles.split_last().expect("six cycles");
    for (session, cycle_id) in drained {
        assert!(
            manager.rollback_cycle(session, *cycle_id).is_err(),
            "{session} cycle {cycle_id} was delivered and must not reverse"
        );
    }
    // The one cycle no drain has seen is still in its rollback window.
    assert_eq!(held_back[0].scheduled.cycle_id, last.1);
    manager
        .rollback_cycle(&last.0, last.1)
        .expect("an undrained cycle still rolls back");
}

/// One outcome minus its cache-hit flag (which of two racing workers
/// computes a shared decoy is not deterministic): session, cycle id,
/// time bits, genuine flag, hits with scores compared bitwise.
type OutcomeKey = (String, usize, u64, bool, Vec<(u32, u64)>);

fn outcome_trace(outcomes: &[SubmitOutcome]) -> Vec<OutcomeKey> {
    outcomes
        .iter()
        .map(|o| {
            let hits = o.hits.iter().map(|h| (h.doc_id, h.score.to_bits()));
            (
                o.session.clone(),
                o.cycle_id,
                o.time_secs.to_bits(),
                o.is_genuine,
                hits.collect(),
            )
        })
        .collect()
}

#[test]
fn drain_is_equivalent_across_worker_counts() {
    let stack = stack();
    let engine = sharded_engine(&stack, 4);
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 8,
            ..WorkloadConfig::default()
        },
    );
    let mut reference = None;
    for workers in [1, 2, 4] {
        // Same fleet seed per manager: identical cycles, identical queue.
        let manager = SessionManager::new_sharded(engine.clone(), stack.model.clone())
            .with_cache(2048)
            .with_fleet_seed(7);
        let mut plans = Vec::new();
        for s in 0..4 {
            let id = format!("t{s}");
            manager.open_session(&id).unwrap();
            for q in 0..2 {
                plans.push(
                    manager
                        .plan_cycle(&id, &queries[(s + q * 3) % 8].tokens, 10)
                        .unwrap(),
                );
            }
        }
        let outcomes = CycleScheduler::for_manager(&manager, workers).run(plans);
        let g = manager.metrics().global;
        assert_eq!(
            g.cache_misses + g.cache_hits,
            outcomes.len() as u64,
            "{workers} workers: submits + cache hits == outcomes"
        );
        let trace = outcome_trace(&outcomes);
        assert!(trace.iter().any(|t| t.3 && !t.4.is_empty()), "genuine hits");
        match &reference {
            None => reference = Some(trace),
            Some(expected) => assert_eq!(
                expected, &trace,
                "{workers} workers: same outcomes, same order, genuine rankings bit-identical"
            ),
        }
    }
}

#[test]
fn planner_drain_settles_every_coalesced_cycle() {
    let stack = stack();
    let manager = Arc::new(
        SessionManager::new_sharded(sharded_engine(&stack, 4), stack.model.clone())
            .with_cache(2048)
            .with_fleet_seed(7),
    );
    let planner = GhostPlanner::new(manager.clone());
    let queries = generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: 2,
            ..WorkloadConfig::default()
        },
    );
    // Every tenant asks the same two queries, so their content-seeded
    // cycles coincide and the planner coalesces them.
    for s in 0..4 {
        let id = format!("t{s}");
        manager.open_session(&id).unwrap();
        for q in &queries {
            planner.plan_cycle(&id, &q.tokens, 10).unwrap();
        }
    }
    let queue = planner.take_queue();
    assert!(queue.iter().any(|p| p.fanout() > 1), "entries coalesced");
    let cycles: std::collections::HashSet<(String, usize)> = queue
        .iter()
        .flat_map(|p| p.subscriber_tags())
        .map(|t| (t.session, t.cycle_id))
        .collect();
    assert_eq!(cycles.len(), 8);
    let expected: usize = queue.iter().map(|p| p.fanout()).sum();
    let outcomes = CycleScheduler::for_manager(&manager, 2).drain(queue);
    assert_eq!(outcomes.len(), expected);
    for (session, cycle_id) in cycles {
        assert!(
            manager.rollback_cycle(&session, cycle_id).is_err(),
            "{session} cycle {cycle_id}: a fault-free drain leaves nothing rollbackable"
        );
    }
}
