//! Shard-equivalence properties: for ANY corpus, query, scoring model,
//! and shard count 1–8, [`ShardedEngine`] returns the same ranked top-k
//! as the single [`SearchEngine`] over the same documents, and for the
//! same submissions it logs the same adversary trace. This is the
//! contract the whole sharded search tier rests on — the service layer
//! may split a tenant fleet across shards only because sharding is
//! invisible in the results and in what the curious server records.

use proptest::prelude::*;
use tsearch_search::{
    Query, ScoringModel, SearchEngine, SearchHit, ShardedEngine, MAX_SAVED_ACCUMULATORS,
};
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

fn bits(hits: &[SearchHit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
}

/// The batch every case of `batch_equals_per_query` evaluates: the random
/// queries, then one of each shape the walk treats apart — a duplicate, a
/// query that is a prefix of another, the empty query, a repeated term —
/// and a nest of prefixes deeper than the live-accumulator bound: the
/// chain `0 1 … L−1` and, for each `e`, `0 … e−1` then `L`, which sorts
/// after the chain and resumes from its depth-`e` prefix.
fn forced_batch(queries: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut batch = queries.to_vec();
    let first = Query::from_tokens(&queries[0]);
    let half = &first.pairs()[..first.num_terms() / 2];
    let prefix = half
        .iter()
        .flat_map(|&(t, qtf)| std::iter::repeat_n(t, qtf as usize));
    batch.push(queries[0].clone());
    batch.push(prefix.collect());
    batch.push(Vec::new());
    batch.push(vec![queries[0][0]; 3]);
    let depth = MAX_SAVED_ACCUMULATORS as u32 + 3;
    batch.push((0..depth).collect());
    for e in 1..depth {
        batch.push((0..e).chain([depth]).collect());
    }
    batch
}

proptest! {
    /// Batched evaluation is per-query evaluation, bit for bit, on one
    /// engine and on 1–8 shards, under both scoring models, at every `k`
    /// the walk treats apart (0, 1, 10, the corpus size, `usize::MAX`).
    #[test]
    fn batch_equals_per_query(
        (docs, queries, shards, bm25) in (12usize..40).prop_flat_map(|vocab_size| {
            (
                proptest::collection::vec(doc_strategy(vocab_size as u32), 1..30),
                proptest::collection::vec(
                    proptest::collection::vec(0u32..vocab_size as u32, 1..8),
                    1..6,
                ),
                1usize..9,
                any::<bool>(),
            )
        })
    ) {
        let batch = forced_batch(&queries);
        let vocab_size = 1 + docs.iter().chain(&batch).flatten().copied().max().unwrap_or(0);
        let model = if bm25 {
            ScoringModel::bm25_default()
        } else {
            ScoringModel::TfIdfCosine
        };
        let (single, sharded) = build_engines(&docs, vocab_size as usize, model, shards);
        let ks = [0, 1, 10, docs.len(), usize::MAX];
        let queries: Vec<Query> = batch.iter().map(|t| Query::from_tokens(t)).collect();
        // Every query at every k, plus each at one k again in another
        // position (a duplicate key).
        let mut keys: Vec<(&Query, usize)> = Vec::new();
        for &k in &ks {
            keys.extend(queries.iter().map(|q| (q, k)));
        }
        keys.extend(queries.iter().enumerate().map(|(i, q)| (q, ks[i % ks.len()])));
        let on_single = single.evaluate_batch(&keys);
        let on_shards = sharded.evaluate_batch(&keys);
        for (i, &(query, k)) in keys.iter().enumerate() {
            let alone = bits(&single.evaluate(query, k));
            prop_assert_eq!(&bits(&single.evaluate_bruteforce(query, k)), &alone);
            prop_assert_eq!(&bits(&on_single[i]), &alone, "single, key {}", i);
            prop_assert_eq!(&bits(&sharded.evaluate(query, k)), &alone);
            prop_assert_eq!(&bits(&on_shards[i]), &alone, "{} shards, key {}", shards, i);
        }
    }

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
        let queries: Vec<Query> = queries.iter().map(|t| Query::from_tokens(t)).collect();
        // Every query runs on this one thread before anything is
        // compared, so each evaluation after the first starts from the
        // scratch its predecessor used: a slot left dirty shows up as a
        // wrong score or a stray document below.
        let actual: Vec<_> = queries.iter().map(|q| sharded.evaluate(q, k)).collect();
        let expected: Vec<_> = queries.iter().map(|q| single.evaluate(q, k)).collect();
        for ((query, expected), actual) in queries.iter().zip(&expected).zip(&actual) {
            // The brute-force ranking never touches the scratch.
            let reference = single.evaluate_bruteforce(query, k);
            prop_assert_eq!(expected.len(), reference.len());
            for (e, r) in expected.iter().zip(&reference) {
                prop_assert_eq!(e.doc_id, r.doc_id);
                prop_assert_eq!(e.score.to_bits(), r.score.to_bits());
            }
            // Both tiers add a document's terms in ascending term order,
            // so the sharded scores are the single engine's to the bit.
            prop_assert_eq!(bits(expected), bits(actual));
        }
    }

    /// Both engines log each submission whole into one ring: whatever mix
    /// of token searches, raw-text searches, batched logs, capacity
    /// bounds and clears reaches them, their `query_log()` snapshots are
    /// equal field for field, at 1–8 shards.
    #[test]
    fn sharded_log_equals_single_log(
        (vocab_size, docs, steps, shards) in (12usize..40).prop_flat_map(|vocab_size| {
            (
                Just(vocab_size),
                proptest::collection::vec(doc_strategy(vocab_size as u32), 1..20),
                proptest::collection::vec(log_step(vocab_size as u32), 1..24),
                1usize..9,
            )
        })
    ) {
        let (single, sharded) = build_engines(&docs, vocab_size, ScoringModel::TfIdfCosine, shards);
        for step in &steps {
            match step {
                LogStep::SearchTokens(tokens) => {
                    single.search_tokens(tokens, 5);
                    sharded.search_tokens(tokens, 5);
                }
                LogStep::SearchText(text) => {
                    single.search(text, 5);
                    sharded.search(text, 5);
                }
                LogStep::LogTokens(batch) => {
                    let batch: Vec<&[u32]> = batch.iter().map(|t| t.as_slice()).collect();
                    single.log_tokens(&batch);
                    sharded.log_tokens(&batch);
                }
                LogStep::Capacity(capacity) => {
                    single.set_query_log_capacity(*capacity);
                    sharded.set_query_log_capacity(*capacity);
                }
                LogStep::Clear => {
                    single.clear_query_log();
                    sharded.clear_query_log();
                }
            }
            prop_assert_eq!(sharded.query_log(), single.query_log(), "{} shards", shards);
        }
    }
}

/// One step of [`sharded_log_equals_single_log`].
#[derive(Debug, Clone)]
enum LogStep {
    SearchTokens(Vec<u32>),
    SearchText(String),
    LogTokens(Vec<Vec<u32>>),
    Capacity(usize),
    Clear,
}

/// Strategy: a log step over a vocabulary of `vocab_size` words. Raw text
/// mixes vocabulary words (in any case, with punctuation) with words the
/// vocabulary lacks; a batch repeats its first submission and holds one
/// submission of a single repeated term.
fn log_step(vocab_size: u32) -> impl Strategy<Value = LogStep> {
    let tokens = move || proptest::collection::vec(0u32..vocab_size, 0..7);
    let text = move || {
        let word = prop_oneof![
            (0u32..vocab_size).prop_map(|t| format!("w{t:03}")),
            (0u32..vocab_size).prop_map(|t| format!("W{t:03}!")),
            Just("zzqx".to_string()),
            Just("the".to_string()),
            Just("naïve, café".to_string()),
        ];
        proptest::collection::vec(word, 0..6).prop_map(|w| LogStep::SearchText(w.join(" ")))
    };
    let batch = move || {
        (proptest::collection::vec(tokens(), 1..5), 0u32..vocab_size).prop_map(
            |(mut batch, term)| {
                batch.push(batch[0].clone());
                batch.push(vec![term; 3]);
                LogStep::LogTokens(batch)
            },
        )
    };
    prop_oneof![
        tokens().prop_map(LogStep::SearchTokens),
        tokens().prop_map(LogStep::SearchTokens),
        text(),
        text(),
        batch(),
        batch(),
        prop_oneof![Just(0usize), 1usize..8, Just(usize::MAX)].prop_map(LogStep::Capacity),
        Just(LogStep::Clear),
    ]
}
