//! Shard-equivalence property: for ANY corpus, query, scoring model, and
//! shard count 1–8, [`ShardedEngine`] returns the same ranked top-k as
//! the single [`SearchEngine`] over the same documents. This is the
//! contract the whole sharded search tier rests on — the service layer
//! may split a tenant fleet across shards only because sharding is
//! invisible in the results.

use proptest::prelude::*;
use tsearch_search::{Query, ScoringModel, SearchEngine, ShardedEngine};
use tsearch_text::{Analyzer, TermId, Vocabulary};

/// Strategy: one document of up to 24 random tokens, about half of them
/// followed by a single term repeated 14–39 times — so term frequencies
/// fall on both sides of the 16 where the engine's per-term table ends.
fn doc_strategy(vocab_size: u32) -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec(0u32..vocab_size, 0..25),
        0u32..vocab_size,
        prop_oneof![Just(0usize), 14usize..40],
    )
        .prop_map(|(mut doc, term, repeats)| {
            doc.extend(std::iter::repeat_n(term, repeats));
            doc
        })
}

/// Strategy: a random corpus, a few random queries over the same
/// vocabulary, a shard count in 1..=8, and a scoring-model selector.
#[allow(clippy::type_complexity)]
fn case_strategy() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<Vec<u32>>, usize, bool, usize)> {
    (2usize..40).prop_flat_map(|vocab_size| {
        (
            proptest::collection::vec(doc_strategy(vocab_size as u32), 1..30),
            proptest::collection::vec(
                proptest::collection::vec(0u32..vocab_size as u32, 1..8),
                1..5,
            ),
            1usize..9,
            any::<bool>(),
            1usize..12,
        )
    })
}

fn build_engines(
    docs: &[Vec<u32>],
    vocab_size: usize,
    model: ScoringModel,
    shards: usize,
) -> (SearchEngine, ShardedEngine) {
    let mut vocab = Vocabulary::new();
    for i in 0..vocab_size {
        vocab.intern(&format!("w{i:03}"));
    }
    for d in docs {
        vocab.observe_document(d);
    }
    let texts: Vec<String> = docs.iter().map(|_| String::new()).collect();
    let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
    let single = SearchEngine::build(&refs, &texts, Analyzer::new(), vocab.clone(), model);
    let sharded = ShardedEngine::build(&refs, &texts, Analyzer::new(), vocab, model, shards);
    (single, sharded)
}

proptest! {
    #[test]
    fn sharded_topk_equals_single_topk(
        (docs, queries, shards, bm25, k) in case_strategy()
    ) {
        let vocab_size = 1 + docs
            .iter()
            .chain(queries.iter())
            .flatten()
            .copied()
            .max()
            .unwrap_or(0) as usize;
        let model = if bm25 {
            ScoringModel::bm25_default()
        } else {
            ScoringModel::TfIdfCosine
        };
        let (single, sharded) = build_engines(&docs, vocab_size, model, shards);
        let queries: Vec<(&Vec<u32>, Query)> =
            queries.iter().map(|t| (t, Query::from_tokens(t))).collect();
        // Every query runs on this one thread before anything is
        // compared, so each evaluation after the first starts from the
        // scratch its predecessor used: a slot left dirty shows up as a
        // wrong score or a stray document below.
        let actual: Vec<_> = queries.iter().map(|(_, q)| sharded.evaluate(q, k)).collect();
        let expected: Vec<_> = queries.iter().map(|(_, q)| single.evaluate(q, k)).collect();
        for (((tokens, query), expected), actual) in queries.iter().zip(&expected).zip(&actual) {
            // The brute-force ranking never touches the scratch.
            let reference = single.evaluate_bruteforce(query, k);
            prop_assert_eq!(expected.len(), reference.len());
            for (e, r) in expected.iter().zip(&reference) {
                prop_assert_eq!(e.doc_id, r.doc_id);
                prop_assert_eq!(e.score.to_bits(), r.score.to_bits());
            }
            prop_assert_eq!(expected.len(), actual.len());
            for (e, a) in expected.iter().zip(actual) {
                prop_assert_eq!(e.doc_id, a.doc_id);
                prop_assert!(
                    (e.score - a.score).abs() < 1e-9,
                    "doc {}: {} vs {}", e.doc_id, e.score, a.score
                );
            }
            // The shard logs must jointly cover exactly the query's terms.
            sharded.clear_query_logs();
            sharded.search_tokens(tokens, k);
            let mut logged: Vec<u32> = sharded
                .shard_logs()
                .iter()
                .flatten()
                .flat_map(|e| e.tokens.iter().copied())
                .collect();
            logged.sort_unstable();
            let mut sent = (*tokens).clone();
            sent.sort_unstable();
            prop_assert_eq!(logged, sent);
        }
    }
}
