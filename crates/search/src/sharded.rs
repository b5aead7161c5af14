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
//! A document's score is a sum of independent per-term contributions;
//! sharding merely partitions that sum by term, and the gather step adds
//! the partials back together.
//!
//! The adversary view is sharded as well: each shard keeps its **own**
//! bounded, independently locked query log and records only the
//! sub-query routed to it, with ordinals drawn from one atomic counter.
//! There is no engine-wide log mutex — the contention point the
//! single-engine hot path serializes on — and
//! `toppriv_adversary::merge_shard_logs` can reconstruct the global
//! trace for after-the-fact analysis.

use crate::engine::{accumulate_term, with_accumulator, Accumulator, TfTable};
use crate::log::{LoggedQuery, QueryLog};
use crate::query::Query;
use crate::score::ScoringModel;
use crate::topk::SearchHit;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use toppriv_obs::{recover_lock, HistogramHandle};
use tsearch_index::{DocumentStore, ShardRouter, ShardedIndex};
use tsearch_text::{Analyzer, TermId, Vocabulary};

/// Metric name: per-shard scatter latency — one shard's accumulation
/// for one query (µs), labeled `shard=`.
pub const M_SHARD_EVAL_US: &str = "engine_shard_eval_us";
/// Metric name: gather latency — merging partials and ranking top-k
/// (µs). Also recorded by the single engine's rank phase, so the stage
/// exists on unsharded tiers too.
pub const M_GATHER_US: &str = "engine_gather_us";

/// A search engine whose postings are term-sharded across N independent
/// slices, each with its own query log.
pub struct ShardedEngine {
    index: ShardedIndex,
    store: DocumentStore,
    analyzer: Analyzer,
    vocab: Vocabulary,
    model: ScoringModel,
    /// Global per-document cosine norms (over the full term space).
    doc_norms: Vec<f64>,
    /// Global arrival counter feeding every shard log.
    next_ordinal: AtomicU64,
    /// One independently locked log per shard.
    logs: Vec<Mutex<QueryLog>>,
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
        let logs = (0..index.num_shards())
            .map(|_| Mutex::new(QueryLog::new()))
            .collect();
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
            next_ordinal: AtomicU64::new(0),
            logs,
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

    /// The term router (which shard owns each term).
    pub fn router(&self) -> &ShardRouter {
        self.index.router()
    }

    /// The sorted shard set a token query touches.
    pub fn shard_set(&self, tokens: &[TermId]) -> Vec<usize> {
        self.index.shard_set(tokens.iter().copied())
    }

    /// Executes a text query, returning the best `k` documents. Each
    /// touched shard records the sub-query routed to it.
    pub fn search(&self, text: &str, k: usize) -> Vec<SearchHit> {
        self.submit(&Query::parse(text, &self.analyzer, &self.vocab), k)
    }

    /// Executes a pre-analyzed token query (each shard logs the slice of
    /// terms it owns; the slice's canonical text is rendered when the
    /// shard's log is read).
    pub fn search_tokens(&self, tokens: &[TermId], k: usize) -> Vec<SearchHit> {
        self.submit(&Query::from_tokens(tokens), k)
    }

    /// One submission: routed once, and the same shard slices go to the
    /// shard logs — under a single global ordinal — and to the scatter.
    fn submit(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let routed = self.route(query);
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
        for slice in shard_slices(&routed) {
            recover_lock(&self.logs[slice[0].shard]).push_tokens_at(
                ordinal,
                slice
                    .iter()
                    .flat_map(|r| std::iter::repeat_n(r.term, r.qtf as usize)),
            );
        }
        self.evaluate_routed(&routed, k)
    }

    /// Scores a query without logging it, returning exactly the ranked
    /// list [`SearchEngine::evaluate`](crate::SearchEngine::evaluate)
    /// would produce over the unsharded index.
    pub fn evaluate(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        self.evaluate_routed(&self.route(query), k)
    }

    /// The query's terms with their owning shards, ordered by shard and,
    /// within a shard, by term — the order the scatter visits them in.
    fn route(&self, query: &Query) -> Vec<RoutedTerm> {
        let router = self.index.router();
        let mut routed: Vec<RoutedTerm> = query
            .terms()
            .map(|(term, qtf)| RoutedTerm {
                shard: router.shard_of(term),
                term,
                qtf,
            })
            .collect();
        // Stable: `terms()` is term-ascending and stays so within a shard.
        routed.sort_by_key(|r| r.shard);
        routed
    }

    fn evaluate_routed(&self, routed: &[RoutedTerm], k: usize) -> Vec<SearchHit> {
        with_accumulator(self.index.num_docs(), |acc| {
            for slice in shard_slices(routed) {
                let shard_id = slice[0].shard;
                let t0 = Instant::now();
                self.accumulate_shard(shard_id, slice.iter().map(|r| (r.term, r.qtf)), acc);
                self.shard_eval_us[shard_id].record(t0.elapsed().as_micros() as u64);
            }
            let t0 = Instant::now();
            let hits = acc.rank(self.model, &self.doc_norms, k);
            self.gather_us.record(t0.elapsed().as_micros() as u64);
            hits
        })
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

    /// Snapshot of one shard's query log (each entry's text rendered
    /// from its token slice).
    pub fn query_log(&self, shard_id: usize) -> Vec<LoggedQuery> {
        recover_lock(&self.logs[shard_id]).snapshot_with(|t| self.vocab.term(t))
    }

    /// Snapshots of every shard's log, in shard-id order — the input to
    /// `toppriv_adversary::merge_shard_logs`.
    pub fn shard_logs(&self) -> Vec<Vec<LoggedQuery>> {
        (0..self.num_shards()).map(|s| self.query_log(s)).collect()
    }

    /// Clears every shard log and restarts the global ordinal counter.
    pub fn clear_query_logs(&self) {
        for log in &self.logs {
            recover_lock(log).clear();
        }
        self.next_ordinal.store(0, Ordering::Relaxed);
    }

    /// Bounds **each** shard log to `capacity` entries (total retention
    /// is `capacity × num_shards` across the engine).
    pub fn set_query_log_capacity(&self, capacity: usize) {
        for log in &self.logs {
            recover_lock(log).set_capacity(capacity);
        }
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

/// One term of a routed query.
#[derive(Debug, Clone, Copy)]
struct RoutedTerm {
    /// The shard owning the term's postings.
    shard: usize,
    term: TermId,
    /// Query-side term frequency.
    qtf: u32,
}

/// The per-shard slices of a routed query, in ascending shard order.
fn shard_slices(routed: &[RoutedTerm]) -> impl Iterator<Item = &[RoutedTerm]> {
    routed.chunk_by(|a, b| a.shard == b.shard)
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
            for shards in [1usize, 2, 3, 4, 8] {
                let (single, sharded) = engines(model, shards);
                for text in [
                    "apache",
                    "apache helicopter",
                    "stock market shares",
                    "army software market helicopter",
                    "nonexistent gibberish",
                ] {
                    let a = single.search(text, 10);
                    let b = sharded.search(text, 10);
                    assert_eq!(a.len(), b.len(), "{model:?} {shards} shards: {text}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.doc_id, y.doc_id, "{model:?} {shards} shards: {text}");
                        assert!(
                            (x.score - y.score).abs() < 1e-12,
                            "{model:?} {shards} shards: {text}: {} vs {}",
                            x.score,
                            y.score
                        );
                    }
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
    fn shard_logs_partition_the_query() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 4);
        sharded.search("apache market helicopter", 5);
        sharded.search("shares investors", 5);
        let logs = sharded.shard_logs();
        // Union of all shard entries per ordinal reassembles the queries.
        let mut by_ordinal: std::collections::BTreeMap<u64, Vec<TermId>> = Default::default();
        for entries in &logs {
            for e in entries {
                by_ordinal.entry(e.ordinal).or_default().extend(&e.tokens);
            }
        }
        assert_eq!(by_ordinal.len(), 2, "two submissions, two ordinals");
        let first = &by_ordinal[&0];
        assert_eq!(first.len(), 3, "three terms logged across shards");
        // Each shard saw only terms it owns.
        for (s, entries) in logs.iter().enumerate() {
            for e in entries {
                for &t in &e.tokens {
                    assert_eq!(sharded.router().shard_of(t), s);
                }
            }
        }
    }

    #[test]
    fn shard_entries_carry_the_canonical_text_of_their_slice() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 4);
        sharded.search_tokens(&[5, 0, 5, 9, 2], 5);
        sharded.search_tokens(&[], 5);
        sharded.search("Apache  helicopters!", 5);
        let logs = sharded.shard_logs();
        let mut slices = 0;
        for entries in &logs {
            for e in entries {
                let words: Vec<&str> = e.tokens.iter().map(|&t| sharded.vocab().term(t)).collect();
                assert_eq!(e.text, words.join(" "));
                assert!(e.tokens.windows(2).all(|w| w[0] <= w[1]));
                assert!(!e.tokens.is_empty(), "an untouched shard logs nothing");
                slices += 1;
            }
        }
        assert!(slices >= 2);
        // A shard never sees raw text: the third submission is logged as
        // the one vocabulary term it analyzed to, under ordinal 2 (the
        // empty second submission drew ordinal 1 and touched no shard).
        let last: Vec<&LoggedQuery> = logs.iter().flatten().filter(|e| e.ordinal == 2).collect();
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].text, "apache");
        assert!(logs.iter().flatten().all(|e| e.ordinal != 1));
        let mut first: Vec<TermId> = logs
            .iter()
            .flatten()
            .filter(|e| e.ordinal == 0)
            .flat_map(|e| e.tokens.iter().copied())
            .collect();
        first.sort_unstable();
        assert_eq!(first, vec![0, 2, 5, 5, 9]);
    }

    #[test]
    fn log_capacity_bounds_each_shard() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 2);
        sharded.set_query_log_capacity(3);
        for _ in 0..10 {
            sharded.search("apache", 1);
        }
        for entries in sharded.shard_logs() {
            assert!(entries.len() <= 3);
        }
        sharded.clear_query_logs();
        assert!(sharded.shard_logs().iter().all(|l| l.is_empty()));
    }

    #[test]
    fn evaluate_does_not_log() {
        let (_, sharded) = engines(ScoringModel::TfIdfCosine, 2);
        let q = Query::from_tokens(&[0]);
        sharded.evaluate(&q, 5);
        assert!(sharded.shard_logs().iter().all(|l| l.is_empty()));
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
