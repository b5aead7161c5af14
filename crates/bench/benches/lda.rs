//! Microbenchmarks of LDA training sweeps and fold-in query inference —
//! the computational core behind Figures 2(d)/3(d) (generation time).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use toppriv_bench::Scale;
use tsearch_corpus::SyntheticCorpus;
use tsearch_lda::{Inferencer, LdaConfig, LdaTrainer};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(Scale::quick().corpus)
}

fn bench_training_sweep(c: &mut Criterion) {
    let corpus = corpus();
    let docs = corpus.token_docs();
    let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let mut group = c.benchmark_group("lda_gibbs_sweep");
    group.sample_size(10);
    for &k in &[10usize, 40, 100] {
        group.throughput(Throughput::Elements(tokens));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut trainer = LdaTrainer::new(
                &docs,
                corpus.vocab.len(),
                LdaConfig {
                    iterations: 1,
                    ..LdaConfig::with_topics(k)
                },
            );
            b.iter(|| trainer.sweep());
        });
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let corpus = corpus();
    let docs = corpus.token_docs();
    let mut group = c.benchmark_group("lda_query_inference");
    group.sample_size(30);
    for &k in &[10usize, 40, 100] {
        let model = LdaTrainer::train(
            &docs,
            corpus.vocab.len(),
            LdaConfig {
                iterations: 15,
                ..LdaConfig::with_topics(k)
            },
        );
        // Bag length matters as much as K: a cycle member is 4–24 tokens
        // (the genuine query, ghosts at 1–2× its length), and the number
        // of topics a bag occupies is bounded by its length.
        let lens: &[usize] = if k == 40 { &[4, 12, 24] } else { &[12] };
        for &len in lens {
            let query: Vec<u32> = corpus.docs[0].tokens.iter().copied().take(len).collect();
            let id = BenchmarkId::new(format!("k{k}"), format!("len{}", query.len()));
            group.bench_with_input(id, &model, |b, m| {
                let inf = Inferencer::new(m);
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(inf.infer_with_seed(&query, seed))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_training_sweep, bench_inference);
criterion_main!(benches);
