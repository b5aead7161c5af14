//! Microbenchmarks of the postings codec — the substrate whose encoded
//! sizes feed the Figure 6 space accounting.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tsearch_index::{Posting, PostingsList};

/// `n` postings whose `i`-th gap to the previous doc id is `gap(i)`.
fn make_postings(n: usize, gap: impl Fn(u32) -> u32) -> Vec<Posting> {
    let mut doc_id = 0;
    (0..n as u32)
        .map(|i| {
            doc_id += gap(i) + u32::from(i > 0);
            Posting {
                doc_id,
                tf: (i % 7) + 1,
            }
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("postings_encode");
    for &n in &[1_000usize, 10_000, 100_000] {
        let postings = make_postings(n, |_| 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &postings, |b, p| {
            b.iter(|| PostingsList::from_postings(black_box(p)))
        });
    }
    group.finish();
}

/// Decodes through `next()` (a `for` loop) and through `fold` (the
/// word-at-a-time path `for_each` reaches, as the engine's loops do).
/// `narrow` lists are one-byte pairs throughout; `straddle` gaps cycle
/// over 120–135, so about half the pairs take a two-byte gap and `fold`
/// keeps falling back to `next()`.
fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("postings_decode");
    // (shape, smallest gap, number of distinct gaps)
    for (shape, base, spread) in [("narrow", 3, 1), ("straddle", 120, 16)] {
        for &n in &[1_000usize, 10_000, 100_000] {
            let postings = make_postings(n, |i| base + i * 7 % spread);
            let list = PostingsList::from_postings(&postings);
            group.throughput(Throughput::Elements(n as u64));
            let id = |path| BenchmarkId::new(format!("{path}/{shape}"), n);
            group.bench_with_input(id("next"), &list, |b, l| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for p in l.iter() {
                        acc += p.doc_id as u64 + p.tf as u64;
                    }
                    black_box(acc)
                })
            });
            group.bench_with_input(id("fold"), &list, |b, l| {
                b.iter(|| {
                    let mut acc = 0u64;
                    l.iter().for_each(|p| acc += p.doc_id as u64 + p.tf as u64);
                    black_box(acc)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
