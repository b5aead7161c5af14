//! Microbenchmarks of the multi-tenant service layer: synchronous
//! private-search throughput vs session count, with and without the
//! shared result cache, plus the cache, the cycle memo and the scheduler
//! in isolation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use toppriv_bench::Scale;
use toppriv_service::{CycleScheduler, ResultCache, SessionManager};
use tsearch_corpus::{generate_workload, BenchmarkQuery, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, SearchEngine};
use tsearch_text::Analyzer;

struct Stack {
    engine: Arc<SearchEngine>,
    model: Arc<LdaModel>,
    queries: Vec<BenchmarkQuery>,
}

fn stack(topics: usize) -> Stack {
    let corpus = SyntheticCorpus::generate(Scale::quick().corpus);
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
            iterations: 15,
            ..LdaConfig::with_topics(topics)
        },
    ));
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 32,
            ..WorkloadConfig::default()
        },
    );
    Stack {
        engine,
        model,
        queries,
    }
}

/// One full multi-tenant pass: every session runs one synchronous private
/// search drawn from the shared pool. Measures end-to-end service
/// throughput (ghost generation + cache/engine resolution).
fn bench_search_vs_sessions(c: &mut Criterion) {
    let stack = stack(20);
    let mut group = c.benchmark_group("service_search");
    group.sample_size(10);
    for &sessions in &[1usize, 8, 64] {
        for cached in [false, true] {
            let mut manager = SessionManager::new(stack.engine.clone(), stack.model.clone());
            if cached {
                manager = manager.with_cache(8192);
            }
            for s in 0..sessions {
                manager.open_session(&format!("s{s}")).unwrap();
            }
            let ids = manager.session_ids();
            group.throughput(Throughput::Elements(sessions as u64));
            group.bench_with_input(
                BenchmarkId::new(if cached { "cached" } else { "uncached" }, sessions),
                &sessions,
                |b, _| {
                    let mut round = 0usize;
                    b.iter(|| {
                        round += 1;
                        for (s, id) in ids.iter().enumerate() {
                            let q = &stack.queries[(s + round) % stack.queries.len()];
                            black_box(manager.search_tokens(id, &q.tokens, 10).unwrap());
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

/// The paced path: merge + drain of a pre-planned multi-tenant queue on
/// the scheduler's worker pool (isolates submission cost from ghost
/// generation).
fn bench_scheduler_drain(c: &mut Criterion) {
    let stack = stack(20);
    let mut group = c.benchmark_group("service_scheduler_drain");
    group.sample_size(10);
    for cached in [false, true] {
        let mut manager = SessionManager::new(stack.engine.clone(), stack.model.clone());
        if cached {
            manager = manager.with_cache(8192);
        }
        let manager = Arc::new(manager);
        for s in 0..8 {
            manager.open_session(&format!("s{s}")).unwrap();
        }
        let mut plans = Vec::new();
        for (s, id) in manager.session_ids().iter().enumerate() {
            for q in 0..4 {
                let query = &stack.queries[(s + q) % stack.queries.len()];
                plans.push(manager.plan_cycle(id, &query.tokens, 10).unwrap());
            }
        }
        let queue = CycleScheduler::merge(plans);
        let scheduler = CycleScheduler::for_manager(&manager, 4);
        group.throughput(Throughput::Elements(queue.len() as u64));
        group.bench_function(
            BenchmarkId::from_parameter(if cached { "cached" } else { "uncached" }),
            |b| b.iter(|| black_box(scheduler.drain(queue.clone()))),
        );
    }
    group.finish();
}

/// What formulating one cycle costs a session at K = 40, the benchmark's
/// model size: with no cache plane (`none`), as the first asker of a query
/// (`first`: a memo lookup that misses, the formulation, a copy and an
/// insert — the memo holds 8 cycles and 32 queries go round, so none is
/// still there when it comes back), and as any later asker (`repeat`: the
/// stored cycle, copied out).
fn bench_formulate_cycle(c: &mut Criterion) {
    let stack = stack(40);
    let mut group = c.benchmark_group("formulate_cycle");
    group.sample_size(20);
    for (name, cache) in [("none", None), ("first", Some(64)), ("repeat", Some(8192))] {
        let mut manager = SessionManager::new(stack.engine.clone(), stack.model.clone());
        if let Some(capacity) = cache {
            manager = manager.with_cache(capacity);
        }
        manager.open_session("s").unwrap();
        let mut next = 0usize;
        let mut formulate = || {
            next = (next + 1) % stack.queries.len();
            manager
                .formulate_cycle("s", &stack.queries[next].tokens, 10)
                .unwrap()
        };
        for _ in &stack.queries {
            black_box(formulate());
        }
        group.bench_function(name, |b| b.iter(|| black_box(formulate())));
    }
    group.finish();
}

/// Raw cache operations.
fn bench_cache_ops(c: &mut Criterion) {
    let cache = ResultCache::new(4096);
    let hits = vec![tsearch_search::SearchHit {
        doc_id: 1,
        score: 1.0,
    }];
    for i in 0..4096u32 {
        cache.insert(&[i, i + 1, i + 2], 10, hits.clone());
    }
    let mut group = c.benchmark_group("service_cache");
    group.sample_size(20);
    group.bench_function("hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(cache.get(&[i, i + 1, i + 2], 10))
        })
    });
    group.bench_function("miss", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(cache.get(&[100_000 + i, 7], 10))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_search_vs_sessions,
    bench_scheduler_drain,
    bench_formulate_cycle,
    bench_cache_ops
);
criterion_main!(benches);
