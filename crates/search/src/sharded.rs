//! The term-sharded search engine.
//!
//! [`ShardedEngine`] is the scale-out counterpart of
//! [`SearchEngine`](crate::SearchEngine):
//! postings are partitioned across N [`tsearch_index::ShardedIndex`]
//! shards by term hash, a query is fanned out to exactly the shards that
//! own its terms, and the per-shard partial scores are merged into one
//! ranked list that is **identical** to what the single-shard engine
//! returns (the shard-equivalence property test in
//! `tests/sharded_props.rs` holds this for shard counts 1–8).
//!
//! Exactness falls out of two structural facts:
//!
//! - every term's complete postings list lives on exactly one shard, so
//!   per-term statistics (`df`, `idf`, `max_tf`) are global;
//! - every shard carries the global document-length table and the engine
//!   keeps one global cosine-norm table, so document-side weights are
//!   global too.
//!
//! A document's score is a sum of independent per-term contributions.
//! The engine adds them in ascending term order — each term's postings
//! read from the shard that owns it — through the same batch walk as the
//! single engine, so a shared prefix has the same bits on every tier and
//! the sharded scores are the single engine's bit for bit.
//! [`ShardedEngine::shard_partials`] and [`ShardedEngine::merge_partials`]
//! still show the scatter/gather split, which sums shard by shard and so
//! may land an ulp away.
//!
//! The adversary view is not sharded: the engine is the curious server,
//! and it keeps the single engine's one bounded query log, logging each
//! submission whole. For the same submissions `query_log()` equals
//! [`SearchEngine::query_log`](crate::SearchEngine::query_log) field for
//! field (the log-equality property in `tests/sharded_props.rs`).

use crate::engine::{accumulate_term, with_accumulator, Accumulator, Scorer, TfTable};
use crate::log::{LoggedQuery, QueryLog};
use crate::query::Query;
use crate::score::ScoringModel;
use crate::topk::SearchHit;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;
use toppriv_obs::{recover_lock, HistogramHandle};
use tsearch_index::{DocumentStore, ShardedIndex};
use tsearch_text::{Analyzer, TermId, Vocabulary};

/// Metric name: per-shard accumulation latency (µs), labeled `shard=`:
/// one sample per ranked key of a batch and shard, the time that shard's
/// terms took in the key's walk step (the terms it added past the prefix
/// it resumed from).
pub const M_SHARD_EVAL_US: &str = "engine_shard_eval_us";
/// Metric name: gather latency — merging partials and ranking top-k
/// (µs). Also recorded by the single engine's rank phase, so the stage
/// exists on unsharded tiers too.
pub const M_GATHER_US: &str = "engine_gather_us";

/// A search engine whose postings are term-sharded across N independent
/// slices, behind one query log.
pub struct ShardedEngine {
    index: ShardedIndex,
    store: DocumentStore,
    analyzer: Analyzer,
    vocab: Vocabulary,
    model: ScoringModel,
    /// Global per-document cosine norms (over the full term space).
    doc_norms: Vec<f64>,
    log: Mutex<QueryLog>,
    /// Per-shard scatter-latency histograms (global registry handles,
    /// prefetched so the query path never touches the registry lock).
    shard_eval_us: Vec<HistogramHandle>,
    /// Gather-latency histogram.
    gather_us: HistogramHandle,
}

impl ShardedEngine {
    /// Assembles a sharded engine over a prebuilt sharded index and store.
    pub fn new(
        index: ShardedIndex,
        store: DocumentStore,
        analyzer: Analyzer,
        vocab: Vocabulary,
        model: ScoringModel,
    ) -> Self {
        let doc_norms = compute_global_doc_norms(&index, model);
        let registry = toppriv_obs::global();
        let shard_eval_us = (0..index.num_shards())
            .map(|s| registry.histogram(M_SHARD_EVAL_US, &[("shard", &s.to_string())]))
            .collect();
        let gather_us = registry.histogram(M_GATHER_US, &[]);
        ShardedEngine {
            index,
            store,
            analyzer,
            vocab,
            model,
            doc_norms,
            log: Mutex::new(QueryLog::new()),
            shard_eval_us,
            gather_us,
        }
    }

    /// Builds a sharded engine directly from token documents and texts.
    pub fn build(
        docs: &[&[TermId]],
        texts: &[String],
        analyzer: Analyzer,
        vocab: Vocabulary,
        model: ScoringModel,
        num_shards: usize,
    ) -> Self {
        assert_eq!(docs.len(), texts.len());
        let index = ShardedIndex::build(docs, vocab.len(), num_shards);
        let store = DocumentStore::from_texts(texts.iter().cloned());
        Self::new(index, store, analyzer, vocab, model)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.index.num_shards()
    }

    /// The sorted shard set a token query touches.
    pub fn shard_set(&self, tokens: &[TermId]) -> Vec<usize> {
        self.index.shard_set(tokens.iter().copied())
    }

    /// Executes a text query, returning the best `k` documents. The query
    /// is recorded in the server-side log with its raw text, as
    /// [`SearchEngine::search`](crate::SearchEngine::search) records it.
    pub fn search(&self, text: &str, k: usize) -> Vec<SearchHit> {
        let tokens = self.analyzer.analyze_frozen(text, &self.vocab);
        recover_lock(&self.log).push(Some(text), tokens.iter().copied());
        self.evaluate(&Query::from_tokens(&tokens), k)
    }

    /// Executes a pre-analyzed token query. The log keeps the tokens as
    /// submitted; the entry's canonical text is rendered from them when
    /// [`ShardedEngine::query_log`] is read.
    pub fn search_tokens(&self, tokens: &[TermId], k: usize) -> Vec<SearchHit> {
        self.log_tokens(&[tokens]);
        self.evaluate(&Query::from_tokens(tokens), k)
    }

    /// Logs each pre-analyzed submission, in order, under consecutive
    /// ordinals, as [`ShardedEngine::search_tokens`] logs one. A caller
    /// that ranks through [`ShardedEngine::evaluate_batch`] logs what it
    /// ranked here.
    pub fn log_tokens(&self, submissions: &[&[TermId]]) {
        let mut log = recover_lock(&self.log);
        for tokens in submissions {
            log.push(None, tokens.iter().copied());
        }
    }

    /// Scores a query without logging it, returning exactly the ranked
    /// list [`SearchEngine::evaluate`](crate::SearchEngine::evaluate)
    /// would produce over the unsharded index, bit for bit.
    pub fn evaluate(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        self.evaluate_batch(&[(query, k)]).remove(0)
    }

    /// [`ShardedEngine::evaluate`] of each `(query, k)`, in one walk that
    /// reads each term from the shard owning it.
    pub fn evaluate_batch(&self, batch: &[(&Query, usize)]) -> Vec<Vec<SearchHit>> {
        let router = self.index.router();
        let scorer = Scorer {
            owner: |term| {
                let shard = router.shard_of(term);
                (shard, self.index.shard(shard))
            },
            model: self.model,
            avg_len: self.index.avg_doc_len(),
            num_docs: self.index.num_docs(),
            norms: &self.doc_norms,
            eval_us: &self.shard_eval_us,
            gather_us: &self.gather_us,
        };
        scorer.rank_batch(batch)
    }

    /// Scatter step: the partial (unnormalized) score contributions of
    /// shard `shard_id`'s terms, as its worker pool would compute them.
    pub fn shard_partials(&self, shard_id: usize, query: &Query) -> HashMap<u32, f64> {
        let t0 = Instant::now();
        let router = self.index.router();
        let owned = query
            .terms()
            .filter(|&(term, _)| router.shard_of(term) == shard_id);
        let partials = with_accumulator(self.index.num_docs(), |acc| {
            self.accumulate_shard(shard_id, owned, acc);
            acc.iter().collect()
        });
        self.shard_eval_us[shard_id].record(t0.elapsed().as_micros() as u64);
        partials
    }

    /// Gather step: merges per-shard partials (summing per document) and
    /// ranks the best `k`. `partials` may come in any order — addition of
    /// disjoint-term contributions is the merge.
    pub fn merge_partials(
        &self,
        partials: impl IntoIterator<Item = HashMap<u32, f64>>,
        k: usize,
    ) -> Vec<SearchHit> {
        let t0 = Instant::now();
        let hits = with_accumulator(self.index.num_docs(), |acc| {
            for partial in partials {
                for (doc_id, score) in partial {
                    acc.add(doc_id, score);
                }
            }
            acc.rank(self.model, &self.doc_norms, k)
        });
        self.gather_us.record(t0.elapsed().as_micros() as u64);
        hits
    }

    /// Accumulates the contribution of `terms` — terms shard `shard_id`
    /// owns, in ascending order — into `acc` through the same
    /// [`crate::engine::accumulate_term`] inner loop the single engine
    /// uses (one copy of the scoring code = the shard-equivalence
    /// contract cannot silently drift).
    fn accumulate_shard(
        &self,
        shard_id: usize,
        terms: impl Iterator<Item = (TermId, u32)>,
        acc: &mut Accumulator,
    ) {
        let shard = self.index.shard(shard_id);
        let avg_len = self.index.avg_doc_len();
        for (term, qtf) in terms {
            accumulate_term(shard, self.model, avg_len, term, qtf, acc);
        }
    }

    /// Snapshot of the server-side query log — the adversary's view, as
    /// [`SearchEngine::query_log`](crate::SearchEngine::query_log) reads
    /// it.
    pub fn query_log(&self) -> Vec<LoggedQuery> {
        recover_lock(&self.log).snapshot_with(|t| self.vocab.term(t))
    }

    /// Clears the query log. Ordinals restart.
    pub fn clear_query_log(&self) {
        recover_lock(&self.log).clear();
    }

    /// Bounds the query log to the most recent `capacity` entries;
    /// ordinals keep counting across dropped entries.
    pub fn set_query_log_capacity(&self, capacity: usize) {
        recover_lock(&self.log).set_capacity(capacity);
    }

    /// Fetches a result document's text.
    pub fn fetch_document(&self, doc_id: u32) -> Option<&str> {
        self.store.get(doc_id)
    }

    /// The sharded index (read-only).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// The engine's vocabulary (read-only).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The engine's analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The scoring model in use.
    pub fn model(&self) -> ScoringModel {
        self.model
    }
}

/// Global cosine norms over a sharded index: shards partition the term
/// space, so summing every shard's squared contributions reproduces the
/// single-index norm exactly.
fn compute_global_doc_norms(index: &ShardedIndex, model: ScoringModel) -> Vec<f64> {
    let mut sums = vec![0.0f64; index.num_docs()];
    if !model.needs_cosine_norm() {
        return sums;
    }
    let table = TfTable::new(model, 1.0, index.avg_doc_len());
    // Iterate in ascending term order (not shard-by-shard) so the
    // floating-point accumulation order matches the single engine's and
    // the norms are bit-identical.
    for term in 0..index.num_terms() as TermId {
        let shard = index.owner(term);
        shard.postings(term).iter().for_each(|posting| {
            let w = table.price(shard, posting);
            sums[posting.doc_id as usize] += w * w;
        });
    }
    sums.iter().map(|s| s.sqrt()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;

    fn corpus() -> (Vec<Vec<TermId>>, Vec<String>, Vocabulary) {
        let analyzer = Analyzer::new();
        let mut vocab = Vocabulary::new();
        let texts = vec![
            "apache helicopter weapons army".to_string(),
            "apache web server software".to_string(),
            "stock market investors shares shares shares".to_string(),
            "helicopter aviation airport".to_string(),
            "army weapons market software".to_string(),
        ];
        let docs: Vec<Vec<TermId>> = texts
            .iter()
            .map(|t| analyzer.analyze_into(t, &mut vocab))
            .collect();
        for d in &docs {
            vocab.observe_document(d);
        }
        (docs, texts, vocab)
    }

    fn engines(model: ScoringModel, shards: usize) -> (SearchEngine, ShardedEngine) {
        let (docs, texts, vocab) = corpus();
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        let single = SearchEngine::build(&refs, &texts, Analyzer::new(), vocab.clone(), model);
        let sharded = ShardedEngine::build(&refs, &texts, Analyzer::new(), vocab, model, shards);
        (single, sharded)
    }

    #[test]
    fn matches_single_engine_exactly() {
        for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            for shards in 1usize..=8 {
                let (single, sharded) = engines(model, shards);
                for text in [
                    "apache",
                    "apache helicopter",
                    "stock market shares",
                    "army software market helicopter",
                    "nonexistent gibberish",
                ] {
                    let bits = |hits: Vec<SearchHit>| -> Vec<(u32, u64)> {
                        hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
                    };
                    let a = bits(single.search(text, 10));
                    let b = bits(sharded.search(text, 10));
                    assert_eq!(a, b, "{model:?} {shards} shards: {text}");
                }
            }
        }
    }

    #[test]
    fn scatter_gather_equals_direct_evaluation() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 4);
        let query = Query::parse("apache market shares", sharded.analyzer(), sharded.vocab());
        let direct = sharded.evaluate(&query, 10);
        let partials: Vec<_> = sharded
            .shard_set(&query.term_ids())
            .into_iter()
            .map(|s| sharded.shard_partials(s, &query))
            .collect();
        let merged = sharded.merge_partials(partials, 10);
        assert_eq!(direct.len(), merged.len());
        for (a, b) in direct.iter().zip(&merged) {
            assert_eq!(a.doc_id, b.doc_id);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn evaluate_does_not_log() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 2);
        let q = Query::from_tokens(&[0]);
        sharded.evaluate(&q, 5);
        assert!(sharded.query_log().is_empty());
    }

    #[test]
    fn fetch_document_roundtrip() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 2);
        assert_eq!(
            sharded.fetch_document(1),
            Some("apache web server software")
        );
        assert_eq!(sharded.fetch_document(99), None);
    }
}
