//! Microbenchmark of the TopPriv ghost-generation loop — the client-side
//! cost plotted in Figures 2(d) and 3(d).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use toppriv_bench::{ExperimentContext, Scale};
use toppriv_core::{BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement};

fn bench_generate(c: &mut Criterion) {
    let ctx = ExperimentContext::build(Scale::quick(), None);
    let mut group = c.benchmark_group("ghost_generation");
    group.sample_size(20);
    for &(eps1, eps2) in &[(0.05, 0.05), (0.05, 0.02), (0.05, 0.01)] {
        let label = format!("eps1=5%/eps2={}%", eps2 * 100.0);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let generator = GhostGenerator::new(
                BeliefEngine::new(ctx.default_model().clone()),
                PrivacyRequirement::new(eps1, eps2).unwrap(),
                GhostConfig::default(),
            );
            let mut i = 0usize;
            b.iter(|| {
                let q = &ctx.queries[i % ctx.queries.len()];
                i += 1;
                black_box(generator.generate(&q.tokens))
            })
        });
    }
    group.finish();
}

fn bench_generate_by_model(c: &mut Criterion) {
    let ctx = ExperimentContext::build(Scale::quick(), None);
    let mut group = c.benchmark_group("ghost_generation_by_k");
    group.sample_size(20);
    for (k, model) in &ctx.models {
        group.bench_with_input(BenchmarkId::from_parameter(k), &(), |b, _| {
            let generator = GhostGenerator::new(
                BeliefEngine::new(model.clone()),
                PrivacyRequirement::paper_default(),
                GhostConfig::default(),
            );
            let mut i = 0usize;
            b.iter(|| {
                let q = &ctx.queries[i % ctx.queries.len()];
                i += 1;
                black_box(generator.generate(&q.tokens))
            })
        });
    }
    group.finish();
}

/// What a service session pays per search: the cycle **and** each
/// member's posterior, which trace accounting, the planner and the
/// auditor consume. A second inference pass over the members shows here
/// and not in `ghost_generation`. One row per trained model: the fold-in
/// sampler costs the same per draw at every K, so K = 10 is where a
/// change to it would first cost a session something.
fn bench_generate_with_posteriors(c: &mut Criterion) {
    let ctx = ExperimentContext::build(Scale::quick(), None);
    let mut group = c.benchmark_group("ghost_generation_with_posteriors");
    group.sample_size(20);
    for (k, model) in &ctx.models {
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &(), |b, _| {
            let generator = GhostGenerator::new(
                BeliefEngine::new(model.clone()),
                PrivacyRequirement::paper_default(),
                GhostConfig::default(),
            );
            let mut i = 0usize;
            b.iter(|| {
                let q = &ctx.queries[i % ctx.queries.len()];
                i += 1;
                black_box(generator.generate_with_posteriors(&q.tokens))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_generate,
    bench_generate_by_model,
    bench_generate_with_posteriors
);
criterion_main!(benches);
