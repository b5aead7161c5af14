//! The fixed stack every workload runs on, and the in-process oracle.
//!
//! The server is started with [`server_flags`]; the benchmark regenerates the
//! identical synthetic corpus in-process (same `CorpusConfig` as the server's
//! `build_stack`) to derive query texts and to rank them exhaustively. The
//! server itself receives nothing but NDJSON lines.

use std::collections::{HashMap, HashSet};
use toppriv::corpus::{generate_workload, WorkloadConfig};
use toppriv::search::Query;
use toppriv::search::SearchHit;
use toppriv::text::{Analyzer, TermId};
use toppriv::{CorpusConfig, ScoringModel, SearchEngine, SyntheticCorpus};

// Sized so that a server boots in about a second on two cores: the
// benchmark sets up four times a run and makes ~90 runs per verdict.
pub const DOCS: usize = 4000;
pub const TOPICS: usize = 40;
pub const LDA_ITERATIONS: usize = 20;
/// The server's default `--cache-capacity`.
pub const CACHE_ENTRIES: usize = 4096;
/// Hits asked for by every `Search`.
pub const TOP_K: usize = 10;
/// Distinct queries generated per seed.
pub const POOL_QUERIES: usize = 12_000;

/// The flags `toppriv-serve` is started with (besides `--tcp`).
pub fn server_flags(shards: usize) -> Vec<String> {
    [
        ("--docs", DOCS),
        ("--topics", TOPICS),
        ("--lda-iterations", LDA_ITERATIONS),
        ("--shards", shards),
    ]
    .iter()
    .flat_map(|(flag, value)| [flag.to_string(), value.to_string()])
    .collect()
}

/// The corpus `toppriv-serve` builds for [`server_flags`].
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        num_docs: DOCS,
        num_topics: (TOPICS / 2).max(4),
        terms_per_topic: 80,
        ..CorpusConfig::default()
    }
}

/// One query of the seeded pool.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub text: String,
    pub tokens: Vec<TermId>,
}

/// `POOL_QUERIES` distinct queries drawn from `seed` alone.
pub fn query_pool(corpus: &SyntheticCorpus, seed: u64) -> Vec<PoolQuery> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL_QUERIES);
    let mut round = 0u64;
    while pool.len() < POOL_QUERIES {
        let config = WorkloadConfig {
            num_queries: POOL_QUERIES,
            seed: seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..WorkloadConfig::default()
        };
        for q in generate_workload(corpus, &config) {
            if pool.len() < POOL_QUERIES && !q.tokens.is_empty() && seen.insert(q.text.clone()) {
                pool.push(PoolQuery {
                    text: q.text,
                    tokens: q.tokens,
                });
            }
        }
        round += 1;
    }
    pool
}

/// The exhaustive single-engine ranking every answer is checked against.
pub struct Oracle {
    engine: SearchEngine,
    memo: HashMap<Vec<TermId>, Vec<SearchHit>>,
}

impl Oracle {
    pub fn new(corpus: &SyntheticCorpus) -> Self {
        let docs = corpus.token_docs();
        let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
        Oracle {
            engine: SearchEngine::build(
                &docs,
                &texts,
                Analyzer::new(),
                corpus.vocab.clone(),
                ScoringModel::TfIdfCosine,
            ),
            memo: HashMap::new(),
        }
    }

    /// The expected top-`TOP_K` for a token bag (unlogged evaluation).
    pub fn expected(&mut self, tokens: &[TermId]) -> &[SearchHit] {
        let mut key = tokens.to_vec();
        key.sort_unstable();
        let engine = &self.engine;
        self.memo
            .entry(key)
            .or_insert_with(|| engine.evaluate(&Query::from_tokens(tokens), TOP_K))
    }

    /// The expected top-`TOP_K` for a query text, analyzed as the server does.
    pub fn expected_for_text(&mut self, text: &str) -> &[SearchHit] {
        let tokens = self
            .engine
            .analyzer()
            .analyze_frozen(text, self.engine.vocab());
        self.expected(&tokens)
    }

    /// Compares an answer with the oracle: `Ok(scores not bit-equal)`, or a
    /// description of the first difference that matters.
    pub fn check(&mut self, tokens: &[TermId], got: &[(u32, f64)]) -> Result<u64, String> {
        compare(self.expected(tokens), got)
    }

    pub fn check_text(&mut self, text: &str, got: &[(u32, f64)]) -> Result<u64, String> {
        compare(self.expected_for_text(text), got)
    }
}

/// Scores may differ from the oracle's by this much, relatively. The vendored
/// `serde_json` round-trips `f64` bit-exactly (tested below) and the 1-shard
/// tier is bit-equal to the oracle; the term-sharded tier sums a document's
/// partial scores shard by shard, not in ascending term order, and lands one
/// ulp away on most answers. Rankings must be identical all the same.
pub const SCORE_REL_TOLERANCE: f64 = 1e-12;

/// `Ok(n)`: same documents in the same order, every score within
/// [`SCORE_REL_TOLERANCE`], `n` of them not bit-equal.
fn compare(want: &[SearchHit], got: &[(u32, f64)]) -> Result<u64, String> {
    if want.len() != got.len() {
        return Err(format!("{} hits, oracle has {}", got.len(), want.len()));
    }
    let mut inexact = 0;
    for (rank, (w, &(doc_id, score))) in want.iter().zip(got).enumerate() {
        if w.doc_id != doc_id {
            return Err(format!(
                "rank {rank}: doc {doc_id}, oracle has {}",
                w.doc_id
            ));
        }
        if (w.score - score).abs() > SCORE_REL_TOLERANCE * w.score.abs() {
            return Err(format!(
                "rank {rank} doc {doc_id}: score {score:e}, oracle has {:e}",
                w.score
            ));
        }
        inexact += u64::from(w.score.to_bits() != score.to_bits());
    }
    Ok(inexact)
}

/// FNV-1a over the ranked document ids: equal digests mean equal rankings.
pub fn digest(hits: &[(u32, f64)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &(doc_id, _) in hits {
        for b in doc_id.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> SyntheticCorpus {
        SyntheticCorpus::generate(CorpusConfig {
            num_docs: 300,
            num_topics: 6,
            terms_per_topic: 40,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn oracle_rejects_a_perturbed_hit_list() {
        let corpus = small_corpus();
        let pool = query_pool(&corpus, 7);
        let mut oracle = Oracle::new(&corpus);
        let q = &pool[0];
        let good: Vec<(u32, f64)> = oracle
            .expected(&q.tokens)
            .iter()
            .map(|h| (h.doc_id, h.score))
            .collect();
        assert!(good.len() >= 2, "query must have hits to perturb");
        assert_eq!(oracle.check(&q.tokens, &good), Ok(0));
        assert_eq!(oracle.check_text(&q.text, &good), Ok(0));

        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert!(oracle.check(&q.tokens, &swapped).is_err());

        // One ulp is the sharded tier's summation order, not a wrong answer.
        let mut ulp = good.clone();
        ulp[0].1 = f64::from_bits(ulp[0].1.to_bits() + 1);
        assert_eq!(oracle.check(&q.tokens, &ulp), Ok(1));
        let mut nudged = good.clone();
        nudged[0].1 *= 1.0 + 1e-9;
        assert!(oracle.check(&q.tokens, &nudged).is_err());

        let mut short = good.clone();
        short.pop();
        assert!(oracle.check(&q.tokens, &short).is_err());
        assert_eq!(digest(&good), digest(&ulp));
        assert_ne!(digest(&good), digest(&swapped));
    }

    #[test]
    fn vendored_serde_json_round_trips_scores_bit_exactly() {
        let corpus = small_corpus();
        let pool = query_pool(&corpus, 11);
        let mut oracle = Oracle::new(&corpus);
        let mut checked = 0;
        for q in pool.iter().take(200) {
            for hit in oracle.expected(&q.tokens).to_vec() {
                let text = serde_json::to_string(&hit.score).unwrap();
                let back: f64 = serde_json::from_str(&text).unwrap();
                assert_eq!(back.to_bits(), hit.score.to_bits(), "{text}");
                checked += 1;
            }
        }
        assert!(checked > 500);
    }

    #[test]
    fn pool_is_distinct_and_a_function_of_the_seed() {
        let corpus = small_corpus();
        let a = query_pool(&corpus, 3);
        let b = query_pool(&corpus, 3);
        let c = query_pool(&corpus, 4);
        assert_eq!(a.len(), POOL_QUERIES);
        let texts: HashSet<&str> = a.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(texts.len(), a.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
    }
}
