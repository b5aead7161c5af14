//! Microbenchmarks of the search engine: per-query latency by query
//! length and scoring model. This is the server-side cost that each ghost
//! query multiplies — the overhead TopPriv imposes on the engine.
//! `search_ghost_shaped` is a cycle member as the benchmark stack's
//! traffic sees one: ghosts are drawn from topic top-words, the
//! highest-df terms, so a member reads an order of magnitude more
//! postings than `search_topk`'s user-shaped queries. It runs on the
//! single engine and on the 4-shard tier `wire_open` and `fleet_drain`
//! serve.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toppriv_bench::Scale;
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_search::{Query, ScoringModel, SearchEngine, ShardedEngine};
use tsearch_text::{Analyzer, TermId};

fn engine(model: ScoringModel) -> (SearchEngine, Vec<Vec<u32>>) {
    let corpus = SyntheticCorpus::generate(Scale::quick().corpus);
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = SearchEngine::build(&docs, &texts, Analyzer::new(), corpus.vocab.clone(), model);
    let queries: Vec<Vec<u32>> = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 32,
            ..WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| q.tokens)
    .collect();
    (engine, queries)
}

fn bench_query_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_topk");
    for (name, model) in [
        ("tfidf", ScoringModel::TfIdfCosine),
        ("bm25", ScoringModel::bm25_default()),
    ] {
        let (engine, queries) = engine(model);
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            let parsed: Vec<Query> = queries.iter().map(|t| Query::from_tokens(t)).collect();
            let mut i = 0usize;
            b.iter(|| {
                let q = &parsed[i % parsed.len()];
                i += 1;
                black_box(engine.evaluate(q, 10))
            })
        });
    }
    group.finish();
}

/// Terms per ghost-shaped query, and the top-df pool they are drawn from.
const GHOST_TERMS: usize = 14;
const GHOST_POOL: usize = 40;

/// Shards of the tier `wire_open` and `fleet_drain` serve.
const GHOST_SHARDS: usize = 4;

fn bench_ghost_shaped(c: &mut Criterion) {
    // The benchmark stack's corpus shape.
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 4000,
        num_topics: 20,
        terms_per_topic: 80,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts = vec![String::new(); docs.len()];
    let mut group = c.benchmark_group("search_ghost_shaped");
    for (name, model) in [
        ("tfidf", ScoringModel::TfIdfCosine),
        ("bm25", ScoringModel::bm25_default()),
    ] {
        let engine =
            SearchEngine::build(&docs, &texts, Analyzer::new(), corpus.vocab.clone(), model);
        let sharded = ShardedEngine::build(
            &docs,
            &texts,
            Analyzer::new(),
            corpus.vocab.clone(),
            model,
            GHOST_SHARDS,
        );
        let index = engine.index();
        let mut by_df: Vec<TermId> = (0..index.num_terms() as TermId).collect();
        by_df.sort_by_key(|&t| std::cmp::Reverse(index.doc_freq(t)));
        by_df.truncate(GHOST_POOL);
        let mut rng = StdRng::seed_from_u64(7);
        let queries: Vec<Query> = (0..32)
            .map(|_| {
                // A partial Fisher–Yates shuffle: GHOST_TERMS distinct terms.
                let mut pool = by_df.clone();
                for i in 0..GHOST_TERMS {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                Query::from_tokens(&pool[..GHOST_TERMS])
            })
            .collect();
        let postings: usize = queries
            .iter()
            .flat_map(|q| q.terms())
            .map(|(t, _)| index.doc_freq(t))
            .sum();
        println!(
            "search_ghost_shaped/{name}: {} postings per query",
            postings / queries.len()
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(engine.evaluate(q, 10))
            })
        });
        let sharded_name = format!("{name}/{GHOST_SHARDS}-shards");
        group.bench_with_input(BenchmarkId::from_parameter(sharded_name), &(), |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(sharded.evaluate(q, 10))
            })
        });
    }
    group.finish();
}

fn bench_cycle_overhead(c: &mut Criterion) {
    // Server-side cost of a full cycle (1 genuine + n ghosts) vs one query.
    let (engine, queries) = engine(ScoringModel::TfIdfCosine);
    let mut group = c.benchmark_group("search_cycle_overhead");
    for &cycle_len in &[1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cycle_len),
            &cycle_len,
            |b, &v| {
                let parsed: Vec<Query> = queries.iter().map(|t| Query::from_tokens(t)).collect();
                let mut i = 0usize;
                b.iter(|| {
                    for _ in 0..v {
                        let q = &parsed[i % parsed.len()];
                        i += 1;
                        black_box(engine.evaluate(q, 10));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_concurrent_throughput(c: &mut Criterion) {
    // Aggregate engine throughput with 1 vs 4 concurrent clients — the
    // engine's shared state is one query-log mutex, so scaling should be
    // near-linear until memory bandwidth binds (the benchmark's
    // `fleet_drain` workload, `drain_submissions_per_s`, is the
    // end-to-end view).
    use std::sync::atomic::{AtomicUsize, Ordering};
    let (engine, queries) = engine(ScoringModel::TfIdfCosine);
    let parsed: Vec<Query> = queries.iter().map(|t| Query::from_tokens(t)).collect();
    let mut group = c.benchmark_group("search_concurrent");
    group.sample_size(20);
    const BATCH: usize = 256;
    group.throughput(criterion::Throughput::Elements(BATCH as u64));
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let next = AtomicUsize::new(0);
                    std::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(|| loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= BATCH {
                                    break;
                                }
                                black_box(engine.evaluate(&parsed[i % parsed.len()], 10));
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_query_latency,
    bench_ghost_shaped,
    bench_cycle_overhead,
    bench_concurrent_throughput
);
criterion_main!(benches);
