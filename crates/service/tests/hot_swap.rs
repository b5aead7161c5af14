//! Integration tests for zero-downtime model swaps and drain fault
//! surfacing:
//!
//! - `GhostGenerator` determinism across an epoch swap: under one fleet
//!   seed, the same query terms must produce identical decoys before and
//!   after swapping in a bit-identical reloaded model, and the shared
//!   result cache must serve the post-swap cycle (cache identity).
//! - Same-K swaps keep per-session accounting continuous; K-changing
//!   swaps reset the trace accounting (the old posteriors are
//!   meaningless in the new topic space).
//! - `CycleScheduler` drains surface worker panics as
//!   [`DrainError`]s (and `drain` aborts loudly) instead of silently
//!   dropping outcomes.

use std::sync::Arc;
use toppriv_service::{
    CycleScheduler, FaultKind, FaultPlane, FaultSpec, PlannedQuery, SearchTier, SessionManager,
};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_search::{ScoringModel, ShardedEngine};
use tsearch_text::Analyzer;

const FLEET_SEED: u64 = 0xF1EE7;
const TOP_K: usize = 10;

struct Stack {
    corpus: SyntheticCorpus,
    manager: Arc<SessionManager>,
}

fn stack() -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 200,
        num_topics: 8,
        terms_per_topic: 50,
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
        4,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 20,
            ..LdaConfig::with_topics(12)
        },
    ));
    let manager = Arc::new(
        SessionManager::with_tier(SearchTier::Sharded(engine), model)
            .with_cache(2048)
            .with_fleet_seed(FLEET_SEED),
    );
    Stack { corpus, manager }
}

fn probe_tokens(corpus: &SyntheticCorpus) -> Vec<u32> {
    let queries = generate_workload(
        corpus,
        &WorkloadConfig {
            num_queries: 4,
            ..WorkloadConfig::default()
        },
    );
    queries[0].tokens.clone()
}

#[test]
fn ghost_generation_is_deterministic_across_identical_swap() {
    let stack = stack();
    let manager = &stack.manager;
    let probe = probe_tokens(&stack.corpus);
    manager.open_session("before").unwrap();
    let pre = manager.search_tokens("before", &probe, TOP_K).unwrap();

    // A real reload: the model goes through its storage codec.
    let reloaded = Arc::new(tsearch_lda::decode(&tsearch_lda::encode(&manager.model())).unwrap());
    assert_eq!(manager.swap_model(reloaded), 1);
    assert_eq!(manager.model_epoch(), 1);

    // A session opened *after* the swap formulates against the new Arc,
    // but same fleet seed + same terms must yield the identical cycle.
    manager.open_session("after").unwrap();
    let post = manager.search_tokens("after", &probe, TOP_K).unwrap();
    assert_eq!(pre.report.cycle.len(), post.report.cycle.len());
    for (a, b) in pre.report.cycle.iter().zip(&post.report.cycle) {
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.is_genuine, b.is_genuine);
    }
    assert_eq!(pre.report.genuine_index, post.report.genuine_index);
    // Identical decoys → the whole post-swap cycle is served from the
    // shared cross-tenant cache, not the engine.
    assert_eq!(post.cache_hits, post.report.cycle.len());
    // And the genuine ranking is unchanged.
    assert_eq!(pre.hits.len(), post.hits.len());
    for (a, b) in pre.hits.iter().zip(&post.hits) {
        assert_eq!(a.doc_id, b.doc_id);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

#[test]
fn same_k_swap_keeps_accounting_k_change_resets_it() {
    let stack = stack();
    let manager = &stack.manager;
    let probe = probe_tokens(&stack.corpus);
    manager.open_session("t").unwrap();
    manager.search_tokens("t", &probe, TOP_K).unwrap();
    let before = manager.session_metrics("t").unwrap();
    assert_eq!(before.cycles, 1);
    assert!(before.trace_exposure > 0.0);

    // Same K: accounting carries across the swap.
    let same_k = Arc::new(tsearch_lda::decode(&tsearch_lda::encode(&manager.model())).unwrap());
    manager.swap_model(same_k);
    manager.search_tokens("t", &probe, TOP_K).unwrap();
    let carried = manager.session_metrics("t").unwrap();
    assert_eq!(carried.cycles, 2);

    // Different K: the topic space changed, the trace restarts.
    let docs = stack.corpus.token_docs();
    let other_k = Arc::new(LdaTrainer::train(
        &docs,
        stack.corpus.vocab.len(),
        LdaConfig {
            iterations: 5,
            ..LdaConfig::with_topics(6)
        },
    ));
    manager.swap_model(other_k);
    manager.search_tokens("t", &probe, TOP_K).unwrap();
    let reset = manager.session_metrics("t").unwrap();
    // The cycle counter keeps counting work done, but the Equation-2
    // trace accounting restarted in the new topic space: exactly the
    // one post-reset query is accumulated.
    assert_eq!(reset.cycles, 3);
    assert_eq!(manager.model_epoch(), 2);
}

#[test]
fn drain_surfaces_worker_panics_instead_of_dropping_outcomes() {
    let stack = stack();
    let manager = &stack.manager;
    let probe = probe_tokens(&stack.corpus);
    manager.open_session("healthy").unwrap();
    manager.open_session("poisoned").unwrap();
    let mut plans = Vec::new();
    for id in ["healthy", "poisoned"] {
        plans.push(manager.plan_cycle(id, &probe, TOP_K).unwrap());
    }
    let queue = CycleScheduler::merge(plans);
    let expected = queue.len();
    let poisoned: usize = queue.iter().filter(|p| p.session == "poisoned").count();
    assert!(poisoned > 0);

    let plane = FaultPlane::new(0).with_spec(FaultSpec::predicate(
        FaultKind::WorkerPanic,
        Arc::new(|plan: &PlannedQuery| plan.session == "poisoned"),
    ));
    let scheduler = CycleScheduler::for_manager(manager, 4).with_fault_plane(Arc::new(plane));
    let err = scheduler
        .try_drain(queue.clone())
        .expect_err("poisoned submissions must surface as a drain error");
    assert_eq!(err.failures.len(), poisoned);
    assert_eq!(err.completed.len(), expected - poisoned);
    assert_eq!(err.expected, expected);
    assert!(err.failures.iter().all(|f| f.session == "poisoned"));
    let msg = err.to_string();
    assert!(msg.contains("poisoned"), "error names the session: {msg}");

    // The panicking `drain` front-end aborts loudly with the same story.
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scheduler.drain(queue);
    }))
    .expect_err("drain must panic when submissions are lost");
    let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        text.contains("drain lost"),
        "panic explains the loss: {text}"
    );

    // Without the fault the same queue drains completely.
    let clean = CycleScheduler::for_manager(manager, 4);
    let mut replans = Vec::new();
    for id in ["healthy", "poisoned"] {
        replans.push(manager.plan_cycle(id, &probe, TOP_K).unwrap());
    }
    let outcomes = clean
        .try_drain(CycleScheduler::merge(replans))
        .expect("clean drain");
    assert_eq!(outcomes.len(), expected);
}
