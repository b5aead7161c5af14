//! Microbenchmarks of the search engine: per-query latency by query
//! length and scoring model. This is the server-side cost that each ghost
//! query multiplies — the overhead TopPriv imposes on the engine.
//! `search_ghost_shaped` is a cycle member as the benchmark stack's
//! traffic sees one: ghosts are drawn from topic top-words, the
//! highest-df terms, so a member reads an order of magnitude more
//! postings than `search_topk`'s user-shaped queries. It runs on the
//! single engine and on the 4-shard tier `wire_open` and `fleet_drain`
//! serve. `search_drain_shaped` ranks one drain shaped like a
//! `fleet_drain` plain round — 64 tenants planning two cycles each over
//! 64 distinct queries — entry by entry and as one term-ordered batch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use toppriv_bench::Scale;
use toppriv_service::{CycleScheduler, SearchTier, SessionManager};
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

/// Tenants of the drain-shaped row, and the cycles each plans.
const DRAIN_TENANTS: usize = 64;
const DRAIN_CYCLES: usize = 2;

fn bench_drain_shaped(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 4000,
        num_topics: 20,
        terms_per_topic: 80,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts = vec![String::new(); docs.len()];
    let model = Arc::new(tsearch_lda::LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        tsearch_lda::LdaConfig {
            iterations: 20,
            ..tsearch_lda::LdaConfig::with_topics(40)
        },
    ));
    let sharded = Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
        GHOST_SHARDS,
    ));
    let manager = SessionManager::with_tier(SearchTier::Sharded(sharded.clone()), model);
    let distinct = DRAIN_TENANTS * DRAIN_CYCLES / 2;
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: distinct,
            ..WorkloadConfig::default()
        },
    );
    let mut plans = Vec::new();
    for s in 0..DRAIN_TENANTS {
        let id = format!("tenant-{s:03}");
        manager.open_session(&id).expect("fresh session");
        for q in 0..DRAIN_CYCLES {
            let query = &queries[(s * DRAIN_CYCLES + q * 7) % distinct];
            plans.push(manager.plan_cycle(&id, &query.tokens, 10).expect("open"));
        }
    }
    let queue = CycleScheduler::merge(plans);
    let entries: Vec<Query> = queue
        .iter()
        .map(|p| Query::from_tokens(&p.scheduled.tokens))
        .collect();
    let keys: Vec<(&Query, usize)> = entries.iter().map(|q| (q, 10)).collect();
    let df = |t: TermId| sharded.index().doc_freq(t);
    let every: usize = entries
        .iter()
        .flat_map(|q| q.terms())
        .map(|(t, _)| df(t))
        .sum();
    let mut unique: Vec<&Query> = entries.iter().collect();
    unique.sort_by(|a, b| a.pairs().cmp(b.pairs()));
    unique.dedup();
    let once: usize = unique
        .iter()
        .flat_map(|q| q.terms())
        .map(|(t, _)| df(t))
        .sum();
    // A term-ordered walk reads each distinct key's terms past the prefix
    // it shares with the key before it.
    let walked: usize = (0..unique.len())
        .map(|j| {
            let (key, prev) = (
                unique[j].pairs(),
                j.checked_sub(1).map(|p| unique[p].pairs()),
            );
            let shared = prev.map_or(0, |p| p.iter().zip(key).take_while(|(a, b)| a == b).count());
            key[shared..].iter().map(|&(t, _)| df(t)).sum::<usize>()
        })
        .sum();
    let mut terms: Vec<TermId> = entries.iter().flat_map(|q| q.term_ids()).collect();
    terms.sort_unstable();
    terms.dedup();
    println!(
        "search_drain_shaped: {} entries, {} distinct; postings {every} read per entry, \
         {once} reading each distinct entry once, {} in one term-ordered walk, {} reading \
         each of its {} distinct terms once",
        entries.len(),
        unique.len(),
        walked,
        terms.iter().map(|&t| df(t)).sum::<usize>(),
        terms.len()
    );
    let mut group = c.benchmark_group("search_drain_shaped");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(entries.len() as u64));
    group.bench_with_input(BenchmarkId::from_parameter("per-entry"), &(), |b, _| {
        b.iter(|| {
            for q in &entries {
                black_box(sharded.evaluate(q, 10));
            }
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &(), |b, _| {
        b.iter(|| black_box(sharded.evaluate_batch(&keys)))
    });
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
    bench_drain_shaped,
    bench_cycle_overhead,
    bench_concurrent_throughput
);
criterion_main!(benches);
