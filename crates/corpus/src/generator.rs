//! The generative corpus model.
//!
//! Substitutes for the Wall Street Journal corpus of the paper. Documents
//! are drawn from an LDA-style generative process over ground-truth topics
//! with Zipfian term distributions, so the fitted LDA models downstream
//! recover topical structure the same way they do on real news text.

use crate::dist::{sample_dirichlet, sample_log_normal, Categorical};
use crate::spec::{CorpusConfig, GeneratedDoc, TopicGroundTruth};
use crate::words::generate_words;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsearch_text::{StopwordList, TermId, Vocabulary, DEFAULT_STOPWORDS};

/// A fully generated synthetic corpus with ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    /// The configuration the corpus was generated from.
    pub config: CorpusConfig,
    /// Vocabulary with document/collection frequencies observed.
    pub vocab: Vocabulary,
    /// Generated documents.
    pub docs: Vec<GeneratedDoc>,
    /// Ground-truth topics.
    pub topics: Vec<TopicGroundTruth>,
}

impl SyntheticCorpus {
    /// Generates a corpus from `config`. Fully deterministic in the config
    /// (including its seed).
    pub fn generate(config: CorpusConfig) -> Self {
        config.validate().expect("invalid corpus config");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // --- Vocabulary -----------------------------------------------------
        let vocab_size = config.vocab_size();
        let words = generate_words(vocab_size, 4);
        let mut vocab = Vocabulary::new();
        for w in &words {
            vocab.intern(w);
        }

        let topic_block = |t: usize| -> std::ops::Range<u32> {
            let start = (t * config.terms_per_topic) as u32;
            start..start + config.terms_per_topic as u32
        };
        let shared_start = (config.num_topics * config.terms_per_topic) as u32;
        let shared_range = shared_start..shared_start + config.shared_pool_terms as u32;
        let background_start = shared_range.end;
        let background_range = background_start..background_start + config.background_terms as u32;

        // --- Topic term distributions ---------------------------------------
        let mut topics = Vec::with_capacity(config.num_topics);
        let mut topic_samplers: Vec<(Vec<TermId>, Categorical)> =
            Vec::with_capacity(config.num_topics);
        for t in 0..config.num_topics {
            let core: Vec<TermId> = topic_block(t).collect();
            // Zipf weights over the core block, in a per-topic random order
            // so corpus-global term ranks do not align across topics.
            let mut order: Vec<usize> = (0..core.len()).collect();
            shuffle(&mut order, &mut rng);
            let core_mass = 1.0 - config.shared_weight;
            let mut term_weights: Vec<(TermId, f64)> = Vec::new();
            let zipf_norm: f64 = (1..=core.len())
                .map(|r| (r as f64).powf(-config.zipf_exponent))
                .sum();
            for (rank, &slot) in order.iter().enumerate() {
                let w = ((rank + 1) as f64).powf(-config.zipf_exponent) / zipf_norm * core_mass;
                term_weights.push((core[slot], w));
            }
            // Shared pool: each topic picks a random subset of the shared
            // pool with uniform weights (models polysemous terms).
            if config.shared_pool_terms > 0 && config.shared_weight > 0.0 {
                let pick = (config.shared_pool_terms / 6).max(1);
                let mut pool: Vec<TermId> = shared_range.clone().collect();
                shuffle(&mut pool, &mut rng);
                let per = config.shared_weight / pick as f64;
                for &term in pool.iter().take(pick) {
                    term_weights.push((term, per));
                }
            }
            term_weights.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
            let weights: Vec<f64> = term_weights.iter().map(|&(_, w)| w).collect();
            let terms: Vec<TermId> = term_weights.iter().map(|&(t, _)| t).collect();
            let sampler = Categorical::new(&weights).expect("topic weights positive");
            topic_samplers.push((terms, sampler));
            topics.push(TopicGroundTruth {
                id: t,
                name: format!("topic-{t:03}"),
                term_weights,
            });
        }

        // Background distribution (Zipfian over the background block).
        let background_terms: Vec<TermId> = background_range.collect();
        let background_weights: Vec<f64> = (1..=background_terms.len())
            .map(|r| (r as f64).powf(-config.zipf_exponent))
            .collect();
        let background_sampler =
            Categorical::new(&background_weights).expect("background weights positive");

        // --- Documents --------------------------------------------------------
        let topic_count_sampler =
            Categorical::new(&config.topic_count_weights).expect("topic count weights");
        let mut docs = Vec::with_capacity(config.num_docs);
        let stopword_pool: Vec<&str> = DEFAULT_STOPWORDS.to_vec();
        for id in 0..config.num_docs {
            let len = sample_log_normal(&mut rng, config.doc_len_mean.ln(), config.doc_len_sigma)
                .round() as usize;
            let len = len.clamp(config.min_doc_len, config.max_doc_len);

            // Topic set and mixture.
            let k = (topic_count_sampler.sample(&mut rng) + 1).min(config.num_topics);
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            while chosen.len() < k {
                let t = rng.gen_range(0..config.num_topics);
                if !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
            let weights = sample_dirichlet(&mut rng, config.mixture_alpha, k);
            let mut mixture: Vec<(usize, f64)> = chosen
                .iter()
                .copied()
                .zip(weights.iter().copied())
                .collect();
            mixture.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            let mixture_sampler = Categorical::new(&weights).expect("mixture weights");

            // Tokens.
            let mut tokens: Vec<TermId> = Vec::with_capacity(len);
            for _ in 0..len {
                if rng.gen::<f64>() < config.background_weight {
                    tokens.push(background_terms[background_sampler.sample(&mut rng)]);
                } else {
                    let z = chosen[mixture_sampler.sample(&mut rng)];
                    let (terms, sampler) = &topic_samplers[z];
                    tokens.push(terms[sampler.sample(&mut rng)]);
                }
            }
            vocab.observe_document(&tokens);

            // Surface text with stopword noise.
            let mut text = String::with_capacity(len * 8);
            for (i, &tok) in tokens.iter().enumerate() {
                if i > 0 {
                    text.push(' ');
                }
                text.push_str(vocab.term(tok));
                if rng.gen::<f64>() < config.stopword_noise {
                    text.push(' ');
                    text.push_str(stopword_pool[rng.gen_range(0..stopword_pool.len())]);
                }
            }

            docs.push(GeneratedDoc {
                id: id as u32,
                text,
                tokens,
                mixture,
            });
        }

        SyntheticCorpus {
            config,
            vocab,
            docs,
            topics,
        }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of ground-truth topics.
    pub fn num_topics(&self) -> usize {
        self.topics.len()
    }

    /// Token-id sequences of all documents, in id order (what the index
    /// builder and the LDA trainer consume).
    pub fn token_docs(&self) -> Vec<&[TermId]> {
        self.docs.iter().map(|d| d.tokens.as_slice()).collect()
    }

    /// Verifies that the surface text of every document re-analyzes to the
    /// stored token ids under `analyzer`. Used by tests and as a sanity
    /// check when wiring a custom analyzer.
    pub fn verify_text_roundtrip(&self, analyzer: &tsearch_text::Analyzer) -> Result<(), String> {
        for doc in &self.docs {
            let reanalyzed = analyzer.analyze_frozen(&doc.text, &self.vocab);
            if reanalyzed != doc.tokens {
                return Err(format!(
                    "doc {} re-analyzes to {} tokens, expected {}",
                    doc.id,
                    reanalyzed.len(),
                    doc.tokens.len()
                ));
            }
        }
        Ok(())
    }
}

/// Fisher–Yates shuffle (kept local to avoid `rand`'s `SliceRandom` trait
/// import spreading through the crate).
fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Stopword list matching what the generator injects as noise; exposed for
/// tests that construct custom analyzers.
pub fn generator_stopwords() -> StopwordList {
    StopwordList::english()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsearch_text::Analyzer;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCorpus::generate(CorpusConfig::tiny());
        let b = SyntheticCorpus::generate(CorpusConfig::tiny());
        assert_eq!(a.docs.len(), b.docs.len());
        for (da, db) in a.docs.iter().zip(&b.docs) {
            assert_eq!(da.tokens, db.tokens);
            assert_eq!(da.text, db.text);
        }
    }

    #[test]
    fn corpus_has_expected_shape() {
        let cfg = CorpusConfig::tiny();
        let corpus = SyntheticCorpus::generate(cfg.clone());
        assert_eq!(corpus.num_docs(), cfg.num_docs);
        assert_eq!(corpus.num_topics(), cfg.num_topics);
        assert_eq!(corpus.vocab.len(), cfg.vocab_size());
        for doc in &corpus.docs {
            assert!(doc.tokens.len() >= cfg.min_doc_len);
            assert!(doc.tokens.len() <= cfg.max_doc_len);
            let total: f64 = doc.mixture.iter().map(|&(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "mixture sums to 1");
        }
    }

    #[test]
    fn text_reanalyzes_to_tokens() {
        let corpus = SyntheticCorpus::generate(CorpusConfig::tiny());
        let analyzer = Analyzer::new();
        corpus.verify_text_roundtrip(&analyzer).unwrap();
    }

    #[test]
    fn topic_weights_are_distributions() {
        let corpus = SyntheticCorpus::generate(CorpusConfig::tiny());
        for topic in &corpus.topics {
            let sum: f64 = topic.term_weights.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-6, "topic {} sums to {sum}", topic.id);
            // Sorted descending.
            for pair in topic.term_weights.windows(2) {
                assert!(pair[0].1 >= pair[1].1);
            }
        }
    }

    #[test]
    fn dominant_topic_terms_actually_occur() {
        let corpus = SyntheticCorpus::generate(CorpusConfig::tiny());
        // Documents dominated by topic t should contain top terms of t more
        // often than top terms of a different topic.
        let t0 = &corpus.topics[0];
        let top: Vec<TermId> = t0.top_terms(10).iter().map(|&(w, _)| w).collect();
        let docs0: Vec<&GeneratedDoc> = corpus
            .docs
            .iter()
            .filter(|d| d.dominant_topic() == 0 && d.topic_weight(0) > 0.7)
            .collect();
        if docs0.is_empty() {
            return; // tiny corpus may not have such docs; other tests cover
        }
        let hits: usize = docs0
            .iter()
            .map(|d| d.tokens.iter().filter(|t| top.contains(t)).count())
            .sum();
        assert!(hits > 0, "dominant-topic terms should appear");
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg2 = CorpusConfig::tiny();
        cfg2.seed = 999;
        let a = SyntheticCorpus::generate(CorpusConfig::tiny());
        let b = SyntheticCorpus::generate(cfg2);
        assert_ne!(a.docs[0].tokens, b.docs[0].tokens);
    }
}
