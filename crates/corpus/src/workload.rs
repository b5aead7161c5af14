//! TREC-style benchmark workload generation.
//!
//! Substitutes for the 150 TREC-1/TREC-2 ad-hoc queries of the paper: every
//! query targets one or two clearly-defined ground-truth topics and contains
//! 2–20 salient terms, mirroring the term-count range the paper reports.

use crate::dist::Categorical;
use crate::generator::SyntheticCorpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use tsearch_text::TermId;

/// Configuration for workload generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of queries (the paper uses 150).
    pub num_queries: usize,
    /// Minimum query length in terms.
    pub min_terms: usize,
    /// Maximum query length in terms.
    pub max_terms: usize,
    /// Probability that a query spans two topics instead of one.
    pub two_topic_prob: f64,
    /// Terms are sampled from the top `salient_pool` terms of each target
    /// topic, weighted by the ground-truth topic distribution.
    pub salient_pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_queries: 150,
            min_terms: 2,
            max_terms: 20,
            two_topic_prob: 0.25,
            salient_pool: 40,
            seed: 0x7E_EC,
        }
    }
}

/// One benchmark query with its ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkQuery {
    /// Dense query id.
    pub id: u32,
    /// Surface text.
    pub text: String,
    /// Analyzed token ids.
    pub tokens: Vec<TermId>,
    /// Ground-truth target topics (1 or 2).
    pub target_topics: Vec<usize>,
}

impl BenchmarkQuery {
    /// Number of search terms.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the query has no terms (never true for generated queries).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Generates a benchmark workload against `corpus`.
pub fn generate_workload(corpus: &SyntheticCorpus, config: &WorkloadConfig) -> Vec<BenchmarkQuery> {
    assert!(config.min_terms >= 1 && config.min_terms <= config.max_terms);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut queries = Vec::with_capacity(config.num_queries);
    for id in 0..config.num_queries {
        let two = rng.gen::<f64>() < config.two_topic_prob && corpus.num_topics() >= 2;
        let mut targets: Vec<usize> = Vec::with_capacity(2);
        targets.push(rng.gen_range(0..corpus.num_topics()));
        if two {
            loop {
                let t = rng.gen_range(0..corpus.num_topics());
                if t != targets[0] {
                    targets.push(t);
                    break;
                }
            }
        }
        let len = rng.gen_range(config.min_terms..=config.max_terms);
        let mut tokens: Vec<TermId> = Vec::with_capacity(len);
        let mut used: HashSet<TermId> = HashSet::with_capacity(len * 2);
        // Round-robin over target topics so two-topic queries mix both.
        let mut attempts = 0usize;
        while tokens.len() < len && attempts < len * 20 {
            attempts += 1;
            let topic = &corpus.topics[targets[tokens.len() % targets.len()]];
            let pool = topic.top_terms(config.salient_pool);
            let weights: Vec<f64> = pool.iter().map(|&(_, w)| w).collect();
            let sampler = match Categorical::new(&weights) {
                Some(s) => s,
                None => break,
            };
            let (term, _) = pool[sampler.sample(&mut rng)];
            if used.insert(term) {
                tokens.push(term);
            }
        }
        let text = tokens
            .iter()
            .map(|&t| corpus.vocab.term(t))
            .collect::<Vec<_>>()
            .join(" ");
        queries.push(BenchmarkQuery {
            id: id as u32,
            text,
            tokens,
            target_topics: targets,
        });
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusConfig;

    fn tiny_corpus() -> SyntheticCorpus {
        SyntheticCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn workload_shape() {
        let corpus = tiny_corpus();
        let cfg = WorkloadConfig {
            num_queries: 30,
            ..WorkloadConfig::default()
        };
        let queries = generate_workload(&corpus, &cfg);
        assert_eq!(queries.len(), 30);
        for q in &queries {
            assert!(q.len() >= cfg.min_terms, "query {} too short", q.id);
            assert!(q.len() <= cfg.max_terms);
            assert!(!q.target_topics.is_empty() && q.target_topics.len() <= 2);
            // No duplicate terms.
            let set: HashSet<_> = q.tokens.iter().collect();
            assert_eq!(set.len(), q.tokens.len());
            // Text is consistent with token ids.
            let words: Vec<&str> = q.text.split(' ').collect();
            assert_eq!(words.len(), q.tokens.len());
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let corpus = tiny_corpus();
        let cfg = WorkloadConfig::default();
        let a = generate_workload(&corpus, &cfg);
        let b = generate_workload(&corpus, &cfg);
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.tokens, qb.tokens);
            assert_eq!(qa.target_topics, qb.target_topics);
        }
    }

    #[test]
    fn query_terms_come_from_target_topics() {
        let corpus = tiny_corpus();
        let cfg = WorkloadConfig {
            num_queries: 20,
            two_topic_prob: 0.0,
            ..WorkloadConfig::default()
        };
        for q in generate_workload(&corpus, &cfg) {
            let topic = &corpus.topics[q.target_topics[0]];
            let topic_terms: HashSet<TermId> = topic.term_weights.iter().map(|&(t, _)| t).collect();
            for tok in &q.tokens {
                assert!(topic_terms.contains(tok), "term outside target topic");
            }
        }
    }
}
