//! The enterprise search engine.
//!
//! This is the *unmodified* server of the paper's system model: it hosts
//! the plaintext corpus and inverted index, evaluates similarity queries,
//! and — being a curious adversary — keeps a log of every query it
//! processes for after-the-fact analysis.
//!
//! Scoring is term-at-a-time into one dense `Accumulator`: a score
//! slot and a one-byte membership mark per document id, which every
//! posting sets with a plain store and no branch. It lives in a
//! thread-local scratch sized to the corpus, so a submission costs
//! neither an allocation nor a hash per posting. The rank step walks the
//! marks in doc-id order and clears each slot as it reads it. The result is the
//! same, bit for bit, as summing into a fresh map: terms are visited in
//! the same ascending order, every document's first contribution is added
//! to `0.0`, and a document is ranked because it *had a posting*, not
//! because its score is non-zero. [`TopK`]'s order is total (score, then
//! doc id), so the order documents are offered in cannot change a
//! ranking. Under cosine the rank step also drops, with no division, a
//! document whose sum cannot beat the `k`-th score kept so far (see
//! `Accumulator::rank`).
//!
//! A posting's contribution depends on its document's length only under
//! BM25. Under TF-IDF it is a function of `tf` alone, so each query term
//! prices the `tf`s nearly every posting carries once, into a `TfTable`
//! filled by [`ScoringModel::doc_weight`] itself; the loop reads the
//! table and falls back to the call for anything the table lacks.
//!
//! Every posting loop of both engines (`accumulate_term` and the two
//! cosine-norm passes) is driven by `for_each`, not `for`: that reaches
//! [`tsearch_index::postings::PostingsIter`]'s `fold`, which decodes four
//! one-byte postings per 8-byte load, so decode, pricing and the add are
//! one loop. It yields `next()`'s postings in `next()`'s order, so no
//! score changes a bit.
//!
//! Both engines rank through one walker, `Scorer::rank_batch`, and a
//! single query is a batch of one. The walk sorts a batch's distinct
//! `(terms, min(k, num_docs))` keys in ascending term order, so a key
//! that shares its first terms with the one before it resumes from the
//! partial sums that prefix left: a prefix is accumulated once, the sums
//! are copied where the keys branch, and each key is ranked at its leaf.
//! Every document's sum still takes its terms in ascending order, each
//! added to the sum the same terms left, so a batched ranking is the
//! per-query ranking bit for bit. At most [`MAX_SAVED_ACCUMULATORS`]
//! copies are alive at once; a branch past that is recomputed from a
//! shallower copy when a later key needs it, so no batch, however
//! hostile, grows the walk's memory.

use crate::log::{LoggedQuery, QueryLog};
use crate::query::Query;
use crate::score::ScoringModel;
use crate::topk::{SearchHit, TopK};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use toppriv_obs::{recover_lock, HistogramHandle};
use tsearch_index::{DocumentStore, InvertedIndex, Posting};
use tsearch_text::{Analyzer, TermId, Vocabulary};

/// Metric name: single-engine accumulation latency (µs): one sample per
/// ranked key of a batch, the terms its walk added past the prefix it
/// resumed from.
pub const M_EVAL_US: &str = "engine_eval_us";

/// The most partial-sum copies one walk keeps alive besides the
/// accumulator it adds into.
pub const MAX_SAVED_ACCUMULATORS: usize = 8;

/// The search engine: index + document store + scorer + query log.
pub struct SearchEngine {
    index: InvertedIndex,
    store: DocumentStore,
    analyzer: Analyzer,
    vocab: Vocabulary,
    model: ScoringModel,
    /// Precomputed per-document vector norms for cosine scoring.
    doc_norms: Vec<f64>,
    log: Mutex<QueryLog>,
    /// Accumulation-phase latency (global registry handle).
    eval_us: HistogramHandle,
    /// Rank-phase latency, under the same [`crate::sharded::M_GATHER_US`]
    /// name the sharded gather uses — the "gather" stage exists on every
    /// tier.
    gather_us: HistogramHandle,
}

impl SearchEngine {
    /// Assembles an engine over a prebuilt index and store.
    pub fn new(
        index: InvertedIndex,
        store: DocumentStore,
        analyzer: Analyzer,
        vocab: Vocabulary,
        model: ScoringModel,
    ) -> Self {
        let doc_norms = compute_doc_norms(&index, model);
        let registry = toppriv_obs::global();
        SearchEngine {
            index,
            store,
            analyzer,
            vocab,
            model,
            doc_norms,
            log: Mutex::new(QueryLog::new()),
            eval_us: registry.histogram(M_EVAL_US, &[]),
            gather_us: registry.histogram(crate::sharded::M_GATHER_US, &[]),
        }
    }

    /// Builds an engine directly from token documents and their texts.
    pub fn build(
        docs: &[&[TermId]],
        texts: &[String],
        analyzer: Analyzer,
        vocab: Vocabulary,
        model: ScoringModel,
    ) -> Self {
        assert_eq!(docs.len(), texts.len());
        let index = InvertedIndex::build(docs, vocab.len());
        let store = DocumentStore::from_texts(texts.iter().cloned());
        Self::new(index, store, analyzer, vocab, model)
    }

    /// Executes a text query, returning the best `k` documents. The query
    /// is recorded in the server-side log.
    pub fn search(&self, text: &str, k: usize) -> Vec<SearchHit> {
        let tokens = self.analyzer.analyze_frozen(text, &self.vocab);
        recover_lock(&self.log).push(Some(text), tokens.iter().copied());
        self.evaluate(&Query::from_tokens(&tokens), k)
    }

    /// Executes a pre-analyzed token query. The log keeps the tokens as
    /// submitted; the entry's canonical text is rendered from them when
    /// [`SearchEngine::query_log`] is read.
    pub fn search_tokens(&self, tokens: &[TermId], k: usize) -> Vec<SearchHit> {
        self.log_tokens(&[tokens]);
        self.evaluate(&Query::from_tokens(tokens), k)
    }

    /// Logs each pre-analyzed submission, in order, under consecutive
    /// ordinals, as [`SearchEngine::search_tokens`] logs one. A caller
    /// that ranks through [`SearchEngine::evaluate_batch`] logs what it
    /// ranked here.
    pub fn log_tokens(&self, submissions: &[&[TermId]]) {
        let mut log = recover_lock(&self.log);
        for tokens in submissions {
            log.push(None, tokens.iter().copied());
        }
    }

    /// Scores a query without logging it — used by evaluation code that
    /// must not contaminate the adversary-visible trace.
    pub fn evaluate(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        self.evaluate_batch(&[(query, k)]).remove(0)
    }

    /// [`SearchEngine::evaluate`] of each `(query, k)`, in one walk.
    pub fn evaluate_batch(&self, batch: &[(&Query, usize)]) -> Vec<Vec<SearchHit>> {
        let scorer = Scorer {
            owner: |_| (0, &self.index),
            model: self.model,
            avg_len: self.index.avg_doc_len(),
            num_docs: self.index.num_docs(),
            norms: &self.doc_norms,
            eval_us: std::slice::from_ref(&self.eval_us),
            gather_us: &self.gather_us,
        };
        scorer.rank_batch(batch)
    }

    /// Brute-force scoring of every document (reference implementation for
    /// property tests; O(docs × query terms)).
    pub fn evaluate_bruteforce(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let avg_len = self.index.avg_doc_len();
        let mut topk = TopK::new(k);
        for doc_id in 0..self.index.num_docs() as u32 {
            let mut score = 0.0;
            for (term, qtf) in query.terms() {
                let tf = self.index.term_freq(term, doc_id);
                if tf == 0 {
                    continue;
                }
                let qw = self.model.query_weight(qtf, self.index.idf(term));
                let dw = self
                    .model
                    .doc_weight(tf, self.index.doc_len(doc_id), avg_len);
                score += qw * dw;
            }
            if score == 0.0 {
                continue;
            }
            if self.model.needs_cosine_norm() {
                let norm = self.doc_norms[doc_id as usize];
                if norm > 0.0 {
                    score /= norm;
                }
            }
            topk.push(SearchHit { doc_id, score });
        }
        topk.into_sorted()
    }

    /// Snapshot of the server-side query log — the adversary's view.
    /// An entry logged by [`SearchEngine::search_tokens`] was stored in
    /// submission order, which is the order of its text; its `tokens` are
    /// the sorted bag the engine evaluated, as every entry's are.
    pub fn query_log(&self) -> Vec<LoggedQuery> {
        recover_lock(&self.log).snapshot_with(|t| self.vocab.term(t))
    }

    /// Clears the query log (between experiments). Ordinals restart.
    pub fn clear_query_log(&self) {
        recover_lock(&self.log).clear();
    }

    /// Bounds the query log to the most recent `capacity` entries.
    /// Long-running deployments (e.g. `toppriv-serve`) set this so the
    /// demo-oriented adversary log cannot grow without limit; ordinals
    /// keep counting across dropped entries.
    pub fn set_query_log_capacity(&self, capacity: usize) {
        recover_lock(&self.log).set_capacity(capacity);
    }

    /// Fetches a result document's text (Step 7 of the search process).
    pub fn fetch_document(&self, doc_id: u32) -> Option<&str> {
        self.store.get(doc_id)
    }

    /// The engine's index (read-only).
    pub fn index(&self) -> &InvertedIndex {
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

/// Dense score accumulators for one submission: `scores[d]` is document
/// `d`'s running (unnormalized) sum, and `marks[d]` is 1 once a posting
/// has touched it. A slot whose mark is 0 holds `0.0`. A mark is a byte,
/// not a bit, so that marking is a plain store: a bit's read-modify-write
/// would chain every posting in one 64-document word through store
/// forwarding. `marks` is padded to whole 8-byte chunks.
#[derive(Default)]
pub(crate) struct Accumulator {
    scores: Vec<f64>,
    marks: Vec<u8>,
}

/// The documents chunk `index` of `marks` holds, ascending: its 8 marks
/// read as one word, so an untouched chunk costs one load.
fn marked(index: usize, chunk: &[u8]) -> impl Iterator<Item = usize> {
    let mut word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(index * 8 + bit / 8)
    })
}

impl Accumulator {
    /// Adds one contribution to `doc_id`'s score (`doc_id` must be below
    /// the `num_docs` given to [`with_accumulator`]).
    #[inline]
    pub(crate) fn add(&mut self, doc_id: u32, contribution: f64) {
        let d = doc_id as usize;
        self.scores[d] += contribution;
        self.marks[d] = 1;
    }

    /// Makes this accumulator a copy of `other`, reusing its buffers.
    fn copy_from(&mut self, other: &Accumulator) {
        self.scores.clone_from(&other.scores);
        self.marks.clone_from(&other.marks);
    }

    /// The touched documents and their unnormalized sums, by doc id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        (self.marks.chunks_exact(8).enumerate())
            .flat_map(|(i, chunk)| marked(i, chunk))
            .map(|d| (d as u32, self.scores[d]))
    }

    /// Hands each touched document and its sum to `f`, by doc id, and
    /// clears it.
    fn drain(&mut self, mut f: impl FnMut(u32, f64)) {
        for (i, chunk) in self.marks.chunks_exact_mut(8).enumerate() {
            for d in marked(i, chunk) {
                f(d as u32, std::mem::take(&mut self.scores[d]));
            }
            chunk.fill(0);
        }
    }

    /// Cosine-normalizes (when the model asks for it) and ranks the best
    /// `k` touched documents — the one rank step of both engines — and
    /// leaves the accumulator empty. Once `k` hits are kept and the worst
    /// of them scores `w > 0`, a document whose sum is below
    /// `w·(1 − 1e-12)` times its norm is dropped undivided: its normalized
    /// score rounds to at most that bound, and [`TopK`] would reject it,
    /// as a later doc id needs a strictly higher score (ARCHITECTURE.md
    /// gives the argument).
    pub(crate) fn rank(&mut self, model: ScoringModel, norms: &[f64], k: usize) -> Vec<SearchHit> {
        let cosine = model.needs_cosine_norm();
        let mut topk = TopK::new(k);
        let mut bound = f64::NEG_INFINITY;
        self.drain(|doc_id, mut score| {
            let norm = if cosine { norms[doc_id as usize] } else { 0.0 };
            if norm > 0.0 {
                if score < bound * norm {
                    return;
                }
                score /= norm;
            }
            topk.push(SearchHit { doc_id, score });
            if let Some(worst) = topk.worst().filter(|&w| w > 0.0) {
                bound = worst * (1.0 - 1e-12);
            }
        });
        topk.into_sorted()
    }
}

thread_local! {
    /// This thread's accumulator, reused by every evaluation on it.
    static SCRATCH: RefCell<Accumulator> = RefCell::default();
}

/// Runs `f` with this thread's accumulator, empty and sized for exactly
/// `num_docs` documents, and clears it afterwards. The accumulator is
/// taken out of its slot for the call: if `f` panics it is dropped, not
/// left dirty, and the next evaluation starts from a fresh one.
pub(crate) fn with_accumulator<R>(num_docs: usize, f: impl FnOnce(&mut Accumulator) -> R) -> R {
    let mut acc = SCRATCH.with(RefCell::take);
    acc.scores.resize(num_docs, 0.0);
    acc.marks.resize(num_docs.div_ceil(8) * 8, 0);
    let result = f(&mut acc);
    acc.drain(|_, _| {});
    SCRATCH.with(|slot| slot.replace(acc));
    result
}

/// A batch's distinct `(terms, min(k, num_docs))` keys in ascending term
/// order, the prefix each shares with the key before it, and the key each
/// input query maps to.
struct Walk<'q> {
    keys: Vec<(&'q [(TermId, u32)], usize)>,
    /// `shared[j]`: how many first terms key `j` shares with key `j − 1`
    /// (0 for the first).
    shared: Vec<usize>,
    /// `of[i]`: the key of input query `i`.
    of: Vec<usize>,
}

impl<'q> Walk<'q> {
    fn new(queries: impl ExactSizeIterator<Item = (&'q [(TermId, u32)], usize)>) -> Self {
        let mut inputs: Vec<_> = queries.enumerate().collect();
        inputs.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        let mut walk = Walk {
            keys: Vec::with_capacity(inputs.len()),
            shared: Vec::with_capacity(inputs.len()),
            of: vec![0; inputs.len()],
        };
        for (i, key) in inputs {
            if walk.keys.last() != Some(&key) {
                let prev = walk.keys.last().map_or(&[][..], |p| p.0);
                let shared = prev.iter().zip(key.0).take_while(|(a, b)| a == b);
                walk.shared.push(shared.count());
                walk.keys.push(key);
            }
            walk.of[i] = walk.keys.len() - 1;
        }
        walk
    }

    /// `next[j]`: the first key after `j` that shares fewer terms with its
    /// predecessor than `j` does (`keys.len()` if none). Following it from
    /// `j + 1` lists, deepest first, every prefix of key `j` that a later
    /// key resumes from.
    fn next_shallower(&self) -> Vec<usize> {
        let n = self.keys.len();
        let mut next = vec![n; n];
        let mut deeper: Vec<usize> = Vec::new();
        for j in (0..n).rev() {
            while deeper
                .last()
                .is_some_and(|&m| self.shared[m] >= self.shared[j])
            {
                deeper.pop();
            }
            next[j] = deeper.last().copied().unwrap_or(n);
            deeper.push(j);
        }
        next
    }
}

/// What one engine's walk reads, and where it reports its time: `owner`
/// maps a term to its shard and that shard's index (one shard for the
/// single engine).
pub(crate) struct Scorer<'a, O> {
    pub(crate) owner: O,
    pub(crate) model: ScoringModel,
    pub(crate) avg_len: f64,
    pub(crate) num_docs: usize,
    pub(crate) norms: &'a [f64],
    /// Accumulation time per shard: one sample per ranked key and shard
    /// its walk step touched.
    pub(crate) eval_us: &'a [HistogramHandle],
    /// Rank time: one sample per ranked key.
    pub(crate) gather_us: &'a HistogramHandle,
}

impl<'a, O: Fn(TermId) -> (usize, &'a InvertedIndex)> Scorer<'a, O> {
    /// The hits of each `(query, k)`, in order: the one trie walk both
    /// engines rank through (see the module docs).
    pub(crate) fn rank_batch(&self, batch: &[(&Query, usize)]) -> Vec<Vec<SearchHit>> {
        let keys = batch
            .iter()
            .map(|&(q, k)| (q.pairs(), k.min(self.num_docs)));
        let walk = Walk::new(keys);
        let mut ranked = with_accumulator(self.num_docs, |work| self.walk(&walk, work));
        let mut last_use = vec![0; ranked.len()];
        for (i, &j) in walk.of.iter().enumerate() {
            last_use[j] = i;
        }
        let hits = walk
            .of
            .iter()
            .enumerate()
            .map(|(i, &j)| match last_use[j] == i {
                true => std::mem::take(&mut ranked[j]),
                false => ranked[j].clone(),
            });
        hits.collect()
    }

    /// Ranks every key of `walk` in order, resuming each from the deepest
    /// saved copy of a prefix it shares and saving the prefixes later keys
    /// resume from, while fewer than [`MAX_SAVED_ACCUMULATORS`] are saved.
    /// `work` is empty before and after.
    fn walk(&self, walk: &Walk<'_>, work: &mut Accumulator) -> Vec<Vec<SearchHit>> {
        let next = walk.next_shallower();
        // Saved prefixes of the last key walked, by ascending depth.
        let mut saved: Vec<(usize, Accumulator)> = Vec::new();
        let mut spare: Vec<Accumulator> = Vec::new();
        let mut spent: Vec<Option<Duration>> = vec![None; self.eval_us.len()];
        let mut resumed_from = Vec::new();
        let mut ranked = Vec::with_capacity(walk.keys.len());
        for (j, &(terms, k)) in walk.keys.iter().enumerate() {
            while saved.last().is_some_and(|s| s.0 > walk.shared[j]) {
                spare.extend(saved.pop().map(|s| s.1));
            }
            let base = saved.last().map_or(0, |s| s.0);
            // The depths later keys resume from, none below `base`.
            resumed_from.clear();
            let mut m = j + 1;
            while m < walk.keys.len() && walk.shared[m] >= base {
                resumed_from.push(walk.shared[m]);
                m = next[m];
            }
            resumed_from.reverse();
            match saved.last() {
                Some(s) if resumed_from.first() == Some(&base) => work.copy_from(&s.1),
                Some(_) => {
                    let (_, mut acc) = saved.pop().expect("matched above");
                    std::mem::swap(work, &mut acc);
                    spare.push(acc);
                }
                None => {}
            }
            let mut depth = base;
            for &d in resumed_from.iter().filter(|&&d| d > base) {
                self.accumulate(&terms[depth..d], work, &mut spent);
                depth = d;
                if saved.len() < MAX_SAVED_ACCUMULATORS {
                    let mut copy = spare.pop().unwrap_or_default();
                    copy.copy_from(work);
                    saved.push((d, copy));
                }
            }
            self.accumulate(&terms[depth..], work, &mut spent);
            for (shard, spent) in spent.iter_mut().enumerate() {
                if let Some(t) = spent.take() {
                    self.eval_us[shard].record(t.as_micros() as u64);
                }
            }
            let t0 = Instant::now();
            ranked.push(work.rank(self.model, self.norms, k));
            self.gather_us.record(t0.elapsed().as_micros() as u64);
        }
        ranked
    }

    /// Adds `terms` into `work` in order, each through its owning shard,
    /// timing each into `spent[shard]`.
    fn accumulate(
        &self,
        terms: &[(TermId, u32)],
        work: &mut Accumulator,
        spent: &mut [Option<Duration>],
    ) {
        if terms.is_empty() {
            return;
        }
        let mut t0 = Instant::now();
        for &(term, qtf) in terms {
            let (shard, index) = (self.owner)(term);
            accumulate_term(index, self.model, self.avg_len, term, qtf, work);
            let now = Instant::now();
            *spent[shard].get_or_insert_default() += now - t0;
            t0 = now;
        }
    }
}

/// Accumulates one query term's (unnormalized) score contributions from
/// `index` into `acc`. This is the inner loop of accumulator evaluation,
/// shared by the batch walk of both engines and the sharded engine's
/// per-shard scatter step — they MUST score identically (the
/// shard-equivalence contract), so there is exactly one copy.
pub(crate) fn accumulate_term(
    index: &InvertedIndex,
    model: ScoringModel,
    avg_len: f64,
    term: TermId,
    qtf: u32,
    acc: &mut Accumulator,
) {
    let idf = index.idf(term);
    if idf <= 0.0 && index.doc_freq(term) == 0 {
        return;
    }
    let qw = model.query_weight(qtf, idf);
    if qw == 0.0 {
        return;
    }
    let table = TfTable::new(model, qw, avg_len);
    index
        .postings(term)
        .iter()
        .for_each(|posting| acc.add(posting.doc_id, table.price(index, posting)));
}

/// Term frequencies below this are priced from a [`TfTable`]; on the
/// corpora this system serves nearly every posting's is.
const TF_TABLE_LEN: usize = 16;

/// One query term's contributions `qw * doc_weight(tf, …)`, computed once
/// per term for every `tf` below [`TF_TABLE_LEN`] instead of once per
/// posting. Each entry is filled by [`ScoringModel::doc_weight`] itself, so
/// it is bit for bit the value the per-posting call returns. A model whose
/// doc weight reads the document's length (BM25) gets an empty table and
/// every posting falls through to that call; so does any `tf` past the
/// table, whatever the index claims its largest `tf` is.
pub(crate) struct TfTable {
    model: ScoringModel,
    qw: f64,
    avg_len: f64,
    weights: [f64; TF_TABLE_LEN],
    len: usize,
}

impl TfTable {
    pub(crate) fn new(model: ScoringModel, qw: f64, avg_len: f64) -> Self {
        let mut weights = [0.0; TF_TABLE_LEN];
        let len = if model.doc_weight_reads_doc_len() {
            0
        } else {
            for (tf, w) in weights.iter_mut().enumerate().skip(1) {
                *w = qw * model.doc_weight(tf as u32, 0, avg_len);
            }
            TF_TABLE_LEN
        };
        TfTable {
            model,
            qw,
            avg_len,
            weights,
            len,
        }
    }

    /// `posting`'s contribution: `qw * doc_weight(tf, doc_len, avg_len)`.
    #[inline]
    pub(crate) fn price(&self, index: &InvertedIndex, posting: Posting) -> f64 {
        match self.weights[..self.len].get(posting.tf as usize) {
            Some(&w) => w,
            None => {
                let doc_len = index.doc_len(posting.doc_id);
                self.qw * self.model.doc_weight(posting.tf, doc_len, self.avg_len)
            }
        }
    }
}

/// Precomputes cosine norms: the L2 norm of each document's weighted term
/// vector under the given model. The weights come from a [`TfTable`] with
/// `qw = 1.0`, and `1.0 * w == w` exactly.
fn compute_doc_norms(index: &InvertedIndex, model: ScoringModel) -> Vec<f64> {
    let mut sums = vec![0.0f64; index.num_docs()];
    if !model.needs_cosine_norm() {
        return sums;
    }
    let table = TfTable::new(model, 1.0, index.avg_doc_len());
    for term in 0..index.num_terms() as u32 {
        index.postings(term).iter().for_each(|posting| {
            let w = table.price(index, posting);
            sums[posting.doc_id as usize] += w * w;
        });
    }
    sums.iter().map(|s| s.sqrt()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsearch_text::Analyzer;

    fn toy_engine(model: ScoringModel) -> SearchEngine {
        let analyzer = Analyzer::new();
        let mut vocab = Vocabulary::new();
        let texts = vec![
            "apache helicopter weapons army".to_string(),
            "apache web server software".to_string(),
            "stock market investors shares shares shares".to_string(),
            "helicopter aviation airport".to_string(),
        ];
        let docs: Vec<Vec<TermId>> = texts
            .iter()
            .map(|t| analyzer.analyze_into(t, &mut vocab))
            .collect();
        for d in &docs {
            vocab.observe_document(d);
        }
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        SearchEngine::build(&refs, &texts, analyzer, vocab, model)
    }

    #[test]
    fn finds_relevant_documents() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let hits = engine.search("apache helicopter", 4);
        assert!(!hits.is_empty());
        // Doc 0 contains both terms and should rank first.
        assert_eq!(hits[0].doc_id, 0);
        // Scores strictly ordered.
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn bm25_also_works() {
        let engine = toy_engine(ScoringModel::bm25_default());
        let hits = engine.search("stock market", 4);
        assert_eq!(hits[0].doc_id, 2);
    }

    #[test]
    fn accumulator_matches_bruteforce() {
        for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            let engine = toy_engine(model);
            let analyzer = Analyzer::new();
            for text in ["apache", "helicopter airport", "shares investors apache"] {
                let q = Query::parse(text, &analyzer, engine.vocab());
                let fast = engine.evaluate(&q, 10);
                let slow = engine.evaluate_bruteforce(&q, 10);
                assert_eq!(fast.len(), slow.len(), "model {model:?} query {text}");
                // Both sum a document's contributions in ascending term
                // order, so the scores agree to the bit.
                for (f, s) in fast.iter().zip(&slow) {
                    assert_eq!(f.doc_id, s.doc_id);
                    assert_eq!(f.score.to_bits(), s.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn tf_table_prices_every_tf_as_doc_weight_does() {
        // One 7-token document among docs of other lengths, so BM25's
        // fallback reads a length unequal to the average.
        let docs: Vec<Vec<TermId>> = vec![vec![0; 7], vec![1; 2], vec![0, 1, 1]];
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        let index = InvertedIndex::build(&refs, 2);
        let avg_len = index.avg_doc_len();
        for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            for qw in [1.0, 0.3, 2.593_741_3, 1e-9, 7.5e3] {
                let table = TfTable::new(model, qw, avg_len);
                for tf in 1..=40 {
                    let expected = qw * model.doc_weight(tf, index.doc_len(0), avg_len);
                    let priced = table.price(&index, Posting { doc_id: 0, tf });
                    assert_eq!(
                        priced.to_bits(),
                        expected.to_bits(),
                        "model {model:?} qw {qw} tf {tf}"
                    );
                }
            }
        }
    }

    fn bits(hits: &[SearchHit]) -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
    }

    #[test]
    fn multi_byte_pairs_at_every_word_alignment_score_as_bruteforce_does() {
        // Term t's every (5 + t)-th posting is a multi-byte pair, a gap
        // ≥ 128 and a tf ≥ 129 in turn. The word-at-a-time decoder resumes
        // right after one, so the next sits at pair t of a word: terms 0–3
        // cover all four alignments. Term 4 is in every document, so none
        // is empty.
        const TERMS: usize = 4;
        let mut tfs: Vec<[usize; TERMS + 1]> = Vec::new();
        for t in 0..TERMS {
            let period = 5 + t;
            let mut doc = 0;
            for i in 0..60 {
                let (gap, tf) = match (i > 0 && i % period == 0, i / period % 2) {
                    (true, 0) => (128 + t, 1 + i % 3),
                    (true, _) => (i % 4, 129 + i),
                    (false, _) => (i % 4, 1 + i % 3),
                };
                doc = if i == 0 { gap } else { doc + gap + 1 };
                if tfs.len() <= doc {
                    tfs.resize(doc + 1, [0; TERMS + 1]);
                }
                tfs[doc][t] = tf;
            }
        }
        let docs: Vec<Vec<TermId>> = tfs
            .iter()
            .map(|row| {
                let mut tokens = vec![TERMS as TermId];
                for (t, &tf) in row[..TERMS].iter().enumerate() {
                    tokens.extend(std::iter::repeat_n(t as TermId, tf));
                }
                tokens
            })
            .collect();
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        let texts = vec![String::new(); docs.len()];
        let mut vocab = Vocabulary::new();
        for t in 0..=TERMS {
            vocab.intern(&format!("term{t}"));
        }
        for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            let engine = SearchEngine::build(&refs, &texts, Analyzer::new(), vocab.clone(), model);
            let index = engine.index();
            assert!((0..TERMS as TermId).all(|t| index.max_tf(t) >= 129));
            // The norms come from the folded loop; recompute each from
            // `next()` (`term_freq`), summed in the same ascending term order.
            if model.needs_cosine_norm() {
                let table = TfTable::new(model, 1.0, index.avg_doc_len());
                for (doc_id, norm) in (0..).zip(&engine.doc_norms) {
                    let sum: f64 = (0..=TERMS as TermId)
                        .map(|t| index.term_freq(t, doc_id))
                        .filter(|&tf| tf > 0)
                        .map(|tf| table.price(index, Posting { doc_id, tf }))
                        .fold(0.0, |sum, w| sum + w * w);
                    assert_eq!(norm.to_bits(), sum.sqrt().to_bits(), "doc {doc_id}");
                }
            }
            for query in [&[0][..], &[1], &[2], &[3], &[0, 1, 2, 3], &[3, 1, 1, 4]] {
                let q = Query::from_tokens(query);
                assert_eq!(
                    bits(&engine.evaluate(&q, docs.len())),
                    bits(&engine.evaluate_bruteforce(&q, docs.len())),
                    "model {model:?} query {query:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_leaves_nothing_behind() {
        for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            let engine = toy_engine(model);
            let analyzer = Analyzer::new();
            // A touches docs {0, 1, 3}; B touches only doc 2.
            let a = Query::parse("apache helicopter", &analyzer, engine.vocab());
            let b = Query::parse("stock shares", &analyzer, engine.vocab());
            let first = engine.evaluate(&a, 10);
            assert_eq!(bits(&first), bits(&engine.evaluate_bruteforce(&a, 10)));
            let disjoint = engine.evaluate(&b, 10);
            assert_eq!(
                bits(&disjoint),
                bits(&engine.evaluate_bruteforce(&b, 10)),
                "B must not see a document or a score A left behind"
            );
            assert_eq!(disjoint.len(), 1);
            assert_eq!(bits(&engine.evaluate(&a, 10)), bits(&first));

            // Same thread, same scratch, a larger corpus: the scratch
            // grows, and the new slots start clean.
            let mut vocab = Vocabulary::new();
            let docs: Vec<Vec<TermId>> = (0..9)
                .map(|i| analyzer.analyze_into(&format!("apache filler{i}"), &mut vocab))
                .collect();
            for d in &docs {
                vocab.observe_document(d);
            }
            let texts = vec![String::new(); docs.len()];
            let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
            let larger = SearchEngine::build(&refs, &texts, Analyzer::new(), vocab, model);
            let q = Query::parse("filler7 filler8", &analyzer, larger.vocab());
            let hits = larger.evaluate(&q, 10);
            assert_eq!(bits(&hits), bits(&larger.evaluate_bruteforce(&q, 10)));
            assert_eq!(hits.len(), 2);
            // And back on the smaller engine.
            assert_eq!(bits(&engine.evaluate(&a, 10)), bits(&first));
        }
    }

    #[test]
    fn membership_is_having_a_posting_not_a_nonzero_score() {
        let hits = with_accumulator(4, |acc| {
            acc.add(2, 1.5);
            acc.add(2, -1.5);
            acc.add(0, 0.25);
            acc.rank(ScoringModel::bm25_default(), &[], 10)
        });
        assert_eq!(bits(&hits), vec![(0, 0.25f64.to_bits()), (2, 0)]);
        // The scratch was cleared: nothing of that evaluation is left.
        assert!(with_accumulator(4, |acc| acc.iter().next().is_none()));
    }

    /// `rank` without the bound: divide every touched document's sum by
    /// its norm and offer it to [`TopK`].
    fn offer_every_document(
        acc: &Accumulator,
        model: ScoringModel,
        doc_norms: &[f64],
        k: usize,
    ) -> Vec<SearchHit> {
        let mut topk = TopK::new(k);
        for (doc_id, mut score) in acc.iter() {
            let norm = doc_norms[doc_id as usize];
            if model.needs_cosine_norm() && norm > 0.0 {
                score /= norm;
            }
            topk.push(SearchHit { doc_id, score });
        }
        topk.into_sorted()
    }

    proptest::proptest! {
        #[test]
        fn bounded_rank_equals_offering_every_document(
            docs in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..16), 1..40),
            copies in proptest::collection::vec(0usize..40, 0..20),
            query in proptest::collection::vec(0u32..10, 1..6),
        ) {
            // Appended copies of earlier documents score exactly as their
            // originals do, so ties at the k-th place fall back to doc id.
            let mut docs = docs;
            for &i in &copies {
                docs.push(docs[i % docs.len()].clone());
            }
            let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
            let index = InvertedIndex::build(&refs, 10);
            let query = Query::from_tokens(&query);
            for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
                let doc_norms = compute_doc_norms(&index, model);
                let touched = with_accumulator(index.num_docs(), |acc| {
                    for (term, qtf) in query.terms() {
                        accumulate_term(&index, model, index.avg_doc_len(), term, qtf, acc);
                    }
                    acc.iter().count()
                });
                for k in [0, 1, 10, touched, usize::MAX] {
                    let (expected, ranked) = with_accumulator(index.num_docs(), |acc| {
                        for (term, qtf) in query.terms() {
                            accumulate_term(&index, model, index.avg_doc_len(), term, qtf, acc);
                        }
                        let expected = offer_every_document(acc, model, &doc_norms, k);
                        (expected, acc.rank(model, &doc_norms, k))
                    });
                    proptest::prop_assert_eq!(
                        bits(&ranked),
                        bits(&expected),
                        "model {:?} k {}",
                        model,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn query_log_records_everything() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        engine.search("apache", 2);
        engine.search("stock market", 2);
        let log = engine.query_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].ordinal, 0);
        assert_eq!(log[0].text, "apache");
        assert_eq!(log[1].tokens.len(), 2);
        engine.clear_query_log();
        assert!(engine.query_log().is_empty());
    }

    #[test]
    fn token_submissions_are_logged_as_their_canonical_text() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let canonical = |tokens: &[TermId]| {
            let words: Vec<&str> = tokens.iter().map(|&t| engine.vocab().term(t)).collect();
            words.join(" ")
        };
        let submissions: [&[TermId]; 3] = [&[3, 0, 3, 1], &[], &[2]];
        for tokens in submissions {
            engine.search_tokens(tokens, 5);
        }
        engine.search("Apache  helicopters!", 5);
        let log = engine.query_log();
        assert_eq!(log.len(), 4);
        for (entry, tokens) in log.iter().zip(submissions) {
            // Text in submission order, tokens as the sorted bag.
            assert_eq!(entry.text, canonical(tokens));
            let mut bag = tokens.to_vec();
            bag.sort_unstable();
            assert_eq!(entry.tokens, bag);
        }
        assert_eq!(log[0].text, "army apache army helicopter");
        assert_eq!(log[1].text, "");
        // Raw text is kept exactly as received; "helicopters" is not a
        // vocabulary word, so only "apache" reaches the token list.
        assert_eq!(log[3].text, "Apache  helicopters!");
        assert_eq!(log[3].tokens, vec![0]);
        assert_eq!(
            log.iter().map(|e| e.ordinal).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn query_log_capacity_bounds_growth() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        engine.set_query_log_capacity(3);
        for _ in 0..10 {
            engine.search("apache", 1);
        }
        let log = engine.query_log();
        assert_eq!(log.len(), 3, "log trimmed to capacity");
        // Oldest entries dropped, ordinals still unique and monotone.
        assert_eq!(log.last().unwrap().ordinal, 9);
        assert!(log.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
        // Tightening the capacity trims immediately.
        engine.set_query_log_capacity(1);
        assert_eq!(engine.query_log().len(), 1);
    }

    #[test]
    fn evaluate_does_not_log() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let q = Query::from_tokens(&[0]);
        engine.evaluate(&q, 5);
        assert!(engine.query_log().is_empty());
    }

    #[test]
    fn unknown_terms_score_nothing() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let hits = engine.search("nonexistent gibberish", 5);
        assert!(hits.is_empty());
    }

    #[test]
    fn fetch_document_roundtrip() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        assert_eq!(engine.fetch_document(1), Some("apache web server software"));
        assert_eq!(engine.fetch_document(99), None);
    }
}
