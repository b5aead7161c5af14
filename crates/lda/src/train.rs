//! Collapsed Gibbs sampling LDA trainer.
//!
//! Re-implements the algorithm of GibbsLDA++ (which the paper uses): each
//! token's topic assignment is resampled from
//! `p(z=k) ∝ (n_wk + β)/(n_k + Vβ) · (n_dk + α)`
//! with the token's own assignment excluded. After the final iteration the
//! model estimates are read off the counts with Dirichlet smoothing.

use crate::model::LdaModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tsearch_text::TermId;

/// Trainer configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of topics K.
    pub num_topics: usize,
    /// Document-topic Dirichlet prior; `None` selects the GibbsLDA++
    /// default `50 / K` used in the paper.
    pub alpha: Option<f64>,
    /// Topic-word Dirichlet prior (paper default 0.1).
    pub beta: f64,
    /// Gibbs iterations over the whole corpus.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LdaConfig {
    /// Paper-default configuration for K topics.
    pub fn with_topics(num_topics: usize) -> Self {
        Self {
            num_topics,
            alpha: None,
            beta: 0.1,
            iterations: 100,
            seed: 0x1DA,
        }
    }

    /// Resolved alpha value.
    pub fn resolved_alpha(&self) -> f64 {
        self.alpha.unwrap_or(50.0 / self.num_topics as f64)
    }
}

/// Progress snapshot emitted after each iteration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainProgress {
    /// Completed iteration (1-based).
    pub iteration: usize,
    /// Training-set perplexity at this point.
    pub perplexity: f64,
}

/// The collapsed Gibbs sampler state.
pub struct LdaTrainer {
    config: LdaConfig,
    vocab_size: usize,
    /// Word-topic counts, word-major: `nwk[w * K + k]`.
    nwk: Vec<u32>,
    /// Per-topic totals.
    nk: Vec<u32>,
    /// Document-topic counts, doc-major: `ndk[d * K + k]`.
    ndk: Vec<u32>,
    /// Flattened token stream.
    tokens: Vec<TermId>,
    /// Topic assignment of each token.
    assignments: Vec<u32>,
    /// Start offset of each document in `tokens` (plus a final sentinel).
    doc_offsets: Vec<usize>,
    rng: StdRng,
}

impl LdaTrainer {
    /// Initializes the sampler with random topic assignments.
    pub fn new(docs: &[&[TermId]], vocab_size: usize, config: LdaConfig) -> Self {
        assert!(config.num_topics > 0, "need at least one topic");
        assert!(vocab_size > 0, "need a vocabulary");
        let k = config.num_topics;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let total_tokens: usize = docs.iter().map(|d| d.len()).sum();
        let mut tokens = Vec::with_capacity(total_tokens);
        let mut assignments = Vec::with_capacity(total_tokens);
        let mut doc_offsets = Vec::with_capacity(docs.len() + 1);
        let mut nwk = vec![0u32; vocab_size * k];
        let mut nk = vec![0u32; k];
        let mut ndk = vec![0u32; docs.len() * k];
        for (d, doc) in docs.iter().enumerate() {
            doc_offsets.push(tokens.len());
            for &w in doc.iter() {
                assert!((w as usize) < vocab_size, "token outside vocabulary");
                let z = rng.gen_range(0..k) as u32;
                tokens.push(w);
                assignments.push(z);
                nwk[w as usize * k + z as usize] += 1;
                nk[z as usize] += 1;
                ndk[d * k + z as usize] += 1;
            }
        }
        doc_offsets.push(tokens.len());
        LdaTrainer {
            config,
            vocab_size,
            nwk,
            nk,
            ndk,
            tokens,
            assignments,
            doc_offsets,
            rng,
        }
    }

    /// Runs one full Gibbs sweep over all tokens.
    ///
    /// Each token draws from the conditional of the module docs by inverse
    /// CDF, with one uniform from the trainer's RNG, as the dense reference
    /// loop does; only the float evaluation order differs. The factors come
    /// from `f64` mirrors of the counts, built at the start of the sweep —
    /// `n_wk + β`, `1/(n_k + Vβ)` and the current document's `n_dk + α` —
    /// and each recomputed from its integer count whenever that count
    /// changes (never incremented in float), so the weight pass has no
    /// division and no conversion; a token refreshes only the topics it
    /// leaves and joins. The draw walks block sums of about √K topics, then
    /// one block, instead of one K-long running sum.
    pub fn sweep(&mut self) {
        let k = self.config.num_topics;
        let alpha = self.config.resolved_alpha();
        let beta = self.config.beta;
        let vbeta = self.vocab_size as f64 * beta;
        let mut word_f: Vec<f64> = self.nwk.iter().map(|&c| c as f64 + beta).collect();
        let mut inv_denom: Vec<f64> = self.nk.iter().map(|&c| 1.0 / (c as f64 + vbeta)).collect();
        let mut doc_f = vec![0.0f64; k];
        let mut weights = vec![0.0f64; k];
        let block = sweep_block_len(k);
        let mut block_sums = vec![0.0f64; k.div_ceil(block)];
        let num_docs = self.doc_offsets.len() - 1;
        for d in 0..num_docs {
            let (start, end) = (self.doc_offsets[d], self.doc_offsets[d + 1]);
            let ndk = &mut self.ndk[d * k..d * k + k];
            for (f, &c) in doc_f.iter_mut().zip(ndk.iter()) {
                *f = c as f64 + alpha;
            }
            for i in start..end {
                let row = self.tokens[i] as usize * k;
                let old = self.assignments[i] as usize;
                // Exclude the token's own assignment.
                self.nwk[row + old] -= 1;
                self.nk[old] -= 1;
                ndk[old] -= 1;
                word_f[row + old] = self.nwk[row + old] as f64 + beta;
                inv_denom[old] = 1.0 / (self.nk[old] as f64 + vbeta);
                doc_f[old] = ndk[old] as f64 + alpha;
                // Unnormalized conditional and its block sums. Indexing
                // slices of length k lets the compiler drop bounds checks.
                let (a, r, c) = (&word_f[row..row + k], &inv_denom[..k], &doc_f[..k]);
                let p = &mut weights[..k];
                let mut total = 0.0;
                for (b, sum) in block_sums.iter_mut().enumerate() {
                    let lo = b * block;
                    let hi = (lo + block).min(k);
                    let mut s = 0.0;
                    for t in lo..hi {
                        p[t] = a[t] * r[t] * c[t];
                        s += p[t];
                    }
                    *sum = s;
                    total += s;
                }
                let u = self.rng.gen::<f64>() * total;
                let new = draw_two_level(u, &weights, &block_sums, block);
                self.assignments[i] = new as u32;
                self.nwk[row + new] += 1;
                self.nk[new] += 1;
                ndk[new] += 1;
                word_f[row + new] = self.nwk[row + new] as f64 + beta;
                inv_denom[new] = 1.0 / (self.nk[new] as f64 + vbeta);
                doc_f[new] = ndk[new] as f64 + alpha;
            }
        }
    }

    /// The dense sweep [`LdaTrainer::sweep`] replaced, kept verbatim as the
    /// reference its chain is tested against.
    #[cfg(test)]
    fn reference_sweep(&mut self) {
        let k = self.config.num_topics;
        let alpha = self.config.resolved_alpha();
        let beta = self.config.beta;
        let vbeta = self.vocab_size as f64 * beta;
        let mut weights = vec![0.0f64; k];
        let num_docs = self.doc_offsets.len() - 1;
        for d in 0..num_docs {
            let (start, end) = (self.doc_offsets[d], self.doc_offsets[d + 1]);
            for i in start..end {
                let w = self.tokens[i] as usize;
                let old = self.assignments[i] as usize;
                // Exclude the token's own assignment.
                self.nwk[w * k + old] -= 1;
                self.nk[old] -= 1;
                self.ndk[d * k + old] -= 1;
                // Accumulate unnormalized conditional.
                let mut total = 0.0;
                let nwk_row = &self.nwk[w * k..w * k + k];
                let ndk_row = &self.ndk[d * k..d * k + k];
                for t in 0..k {
                    let p = (nwk_row[t] as f64 + beta) / (self.nk[t] as f64 + vbeta)
                        * (ndk_row[t] as f64 + alpha);
                    total += p;
                    weights[t] = total;
                }
                // Draw the new topic by inverse CDF.
                let u = self.rng.gen::<f64>() * total;
                let mut new = k - 1;
                for (t, &cum) in weights.iter().enumerate() {
                    if u < cum {
                        new = t;
                        break;
                    }
                }
                self.assignments[i] = new as u32;
                self.nwk[w * k + new] += 1;
                self.nk[new] += 1;
                self.ndk[d * k + new] += 1;
            }
        }
    }

    /// Training-set perplexity under the current count estimates. A
    /// decreasing sequence over iterations indicates the sampler is
    /// fitting the corpus.
    pub fn perplexity(&self) -> f64 {
        let k = self.config.num_topics;
        let alpha = self.config.resolved_alpha();
        let beta = self.config.beta;
        let vbeta = self.vocab_size as f64 * beta;
        let kalpha = k as f64 * alpha;
        let num_docs = self.doc_offsets.len() - 1;
        let mut log_lik = 0.0;
        for d in 0..num_docs {
            let (start, end) = (self.doc_offsets[d], self.doc_offsets[d + 1]);
            let doc_len = (end - start) as f64;
            for i in start..end {
                let w = self.tokens[i] as usize;
                let mut p = 0.0;
                for t in 0..k {
                    let phi = (self.nwk[w * k + t] as f64 + beta) / (self.nk[t] as f64 + vbeta);
                    let theta = (self.ndk[d * k + t] as f64 + alpha) / (doc_len + kalpha);
                    p += phi * theta;
                }
                log_lik += p.max(f64::MIN_POSITIVE).ln();
            }
        }
        (-log_lik / self.tokens.len().max(1) as f64).exp()
    }

    /// Runs the configured number of iterations, invoking `progress` after
    /// each (with perplexity computed every `perplexity_every` iterations,
    /// 0 meaning never).
    pub fn run<F: FnMut(TrainProgress)>(&mut self, perplexity_every: usize, mut progress: F) {
        for it in 1..=self.config.iterations {
            self.sweep();
            if perplexity_every > 0 && (it % perplexity_every == 0 || it == self.config.iterations)
            {
                progress(TrainProgress {
                    iteration: it,
                    perplexity: self.perplexity(),
                });
            }
        }
    }

    /// Finalizes the model: reads smoothed phi and theta off the counts.
    pub fn into_model(self) -> LdaModel {
        let k = self.config.num_topics;
        let alpha = self.config.resolved_alpha();
        let beta = self.config.beta;
        let vbeta = self.vocab_size as f64 * beta;
        let kalpha = k as f64 * alpha;
        let mut phi_wk = vec![0.0f64; self.vocab_size * k];
        for w in 0..self.vocab_size {
            for t in 0..k {
                phi_wk[w * k + t] =
                    (self.nwk[w * k + t] as f64 + beta) / (self.nk[t] as f64 + vbeta);
            }
        }
        let num_docs = self.doc_offsets.len() - 1;
        let mut theta_dk = vec![0.0f64; num_docs * k];
        for d in 0..num_docs {
            let doc_len = (self.doc_offsets[d + 1] - self.doc_offsets[d]) as f64;
            for t in 0..k {
                theta_dk[d * k + t] = (self.ndk[d * k + t] as f64 + alpha) / (doc_len + kalpha);
            }
        }
        LdaModel::from_parts(k, self.vocab_size, alpha, beta, phi_wk, theta_dk)
    }

    /// Convenience: initialize, run, and finalize in one call.
    pub fn train(docs: &[&[TermId]], vocab_size: usize, config: LdaConfig) -> LdaModel {
        let mut trainer = Self::new(docs, vocab_size, config);
        trainer.run(0, |_| {});
        trainer.into_model()
    }

    /// Internal count-invariant check used by tests: all three count
    /// matrices must agree with the assignment vector.
    pub fn check_invariants(&self) -> Result<(), String> {
        let k = self.config.num_topics;
        let mut nwk = vec![0u32; self.vocab_size * k];
        let mut nk = vec![0u32; k];
        let mut ndk = vec![0u32; (self.doc_offsets.len() - 1) * k];
        for d in 0..self.doc_offsets.len() - 1 {
            for i in self.doc_offsets[d]..self.doc_offsets[d + 1] {
                let w = self.tokens[i] as usize;
                let z = self.assignments[i] as usize;
                nwk[w * k + z] += 1;
                nk[z] += 1;
                ndk[d * k + z] += 1;
            }
        }
        if nwk != self.nwk {
            return Err("word-topic counts inconsistent".into());
        }
        if nk != self.nk {
            return Err("topic totals inconsistent".into());
        }
        if ndk != self.ndk {
            return Err("doc-topic counts inconsistent".into());
        }
        Ok(())
    }
}

/// Topics per block of the sweep's two-level draw: ⌈√K⌉, which keeps both
/// levels about √K long at any K.
fn sweep_block_len(k: usize) -> usize {
    (k - 1).isqrt() + 1
}

/// The first topic whose running sum of `weights` exceeds `u`, found block
/// by block: `block_sums[b]` is the sum of the `b`-th run of `block`
/// topics. A `u` past every sum (rounding) falls to the last topic, within
/// its block or overall, as the dense scan does.
fn draw_two_level(u: f64, weights: &[f64], block_sums: &[f64], block: usize) -> usize {
    let mut cum = 0.0;
    for (b, &sum) in block_sums.iter().enumerate() {
        if u < cum + sum {
            let lo = b * block;
            let hi = (lo + block).min(weights.len());
            for (t, &p) in (lo..hi).zip(&weights[lo..hi]) {
                cum += p;
                if u < cum {
                    return t;
                }
            }
            return hi - 1;
        }
        cum += sum;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clearly separated "topics": words 0..5 vs words 5..10.
    fn synthetic_docs() -> Vec<Vec<TermId>> {
        let mut docs = Vec::new();
        for d in 0..40 {
            let base: u32 = if d % 2 == 0 { 0 } else { 5 };
            let doc: Vec<TermId> = (0..30).map(|i| base + (i % 5) as u32).collect();
            docs.push(doc);
        }
        docs
    }

    fn refs(docs: &[Vec<TermId>]) -> Vec<&[TermId]> {
        docs.iter().map(|d| d.as_slice()).collect()
    }

    #[test]
    fn counts_stay_consistent() {
        let docs = synthetic_docs();
        let mut trainer = LdaTrainer::new(
            &refs(&docs),
            10,
            LdaConfig {
                iterations: 3,
                ..LdaConfig::with_topics(2)
            },
        );
        trainer.check_invariants().unwrap();
        trainer.sweep();
        trainer.check_invariants().unwrap();
        trainer.sweep();
        trainer.check_invariants().unwrap();
    }

    #[test]
    fn perplexity_decreases() {
        let docs = synthetic_docs();
        let mut trainer = LdaTrainer::new(
            &refs(&docs),
            10,
            LdaConfig {
                iterations: 30,
                ..LdaConfig::with_topics(2)
            },
        );
        let before = trainer.perplexity();
        for _ in 0..30 {
            trainer.sweep();
        }
        let after = trainer.perplexity();
        assert!(
            after < before,
            "perplexity should drop: before {before}, after {after}"
        );
    }

    #[test]
    fn recovers_separated_topics() {
        let docs = synthetic_docs();
        let model = LdaTrainer::train(
            &refs(&docs),
            10,
            LdaConfig {
                iterations: 60,
                alpha: Some(0.5),
                ..LdaConfig::with_topics(2)
            },
        );
        model.validate().unwrap();
        // The top-5 words of each topic should be one of the two blocks.
        for t in 0..2 {
            let top: Vec<u32> = model.top_words(t, 5).iter().map(|&(w, _)| w).collect();
            let low = top.iter().filter(|&&w| w < 5).count();
            assert!(
                low == 5 || low == 0,
                "topic {t} mixes blocks: {top:?} (low count {low})"
            );
        }
        // And the two topics should cover different blocks.
        let t0_low = model.top_words(0, 5).iter().all(|&(w, _)| w < 5);
        let t1_low = model.top_words(1, 5).iter().all(|&(w, _)| w < 5);
        assert_ne!(t0_low, t1_low, "topics should split the two blocks");
    }

    #[test]
    fn training_is_deterministic() {
        let docs = synthetic_docs();
        let cfg = LdaConfig {
            iterations: 10,
            ..LdaConfig::with_topics(3)
        };
        let a = LdaTrainer::train(&refs(&docs), 10, cfg.clone());
        let b = LdaTrainer::train(&refs(&docs), 10, cfg);
        for w in 0..10u32 {
            assert_eq!(a.word_topics(w), b.word_topics(w));
        }
    }

    #[test]
    fn default_alpha_matches_paper() {
        let cfg = LdaConfig::with_topics(200);
        assert!((cfg.resolved_alpha() - 0.25).abs() < 1e-12);
        assert_eq!(cfg.beta, 0.1);
    }

    #[test]
    fn progress_callback_fires() {
        let docs = synthetic_docs();
        let mut trainer = LdaTrainer::new(
            &refs(&docs),
            10,
            LdaConfig {
                iterations: 4,
                ..LdaConfig::with_topics(2)
            },
        );
        let mut seen = Vec::new();
        trainer.run(2, |p| seen.push(p.iteration));
        assert_eq!(seen, vec![2, 4]);
    }

    /// Runs one sampler with [`LdaTrainer::sweep`] and a twin with the
    /// reference sweep, asserting after every sweep that both hold the same
    /// chain, and that the finished models are bit-identical.
    fn assert_same_chain(docs: &[&[TermId]], vocab_size: usize, config: LdaConfig) {
        let k = config.num_topics;
        let mut fast = LdaTrainer::new(docs, vocab_size, config.clone());
        let mut reference = LdaTrainer::new(docs, vocab_size, config.clone());
        for it in 1..=config.iterations {
            fast.sweep();
            reference.reference_sweep();
            assert!(
                fast.assignments == reference.assignments,
                "K={k}: assignments diverge at sweep {it}"
            );
            assert!(fast.nwk == reference.nwk, "K={k}: n_wk at sweep {it}");
            assert_eq!(fast.nk, reference.nk, "K={k}: n_k at sweep {it}");
            assert!(fast.ndk == reference.ndk, "K={k}: n_dk at sweep {it}");
            fast.check_invariants().unwrap();
        }
        let (fast, reference) = (fast.into_model(), reference.into_model());
        for w in 0..vocab_size as TermId {
            let (a, b) = (fast.word_topics(w), reference.word_topics(w));
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "K={k}: phi of word {w}"
            );
        }
        for d in 0..docs.len() {
            let (a, b) = (fast.doc_topics(d), reference.doc_topics(d));
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "K={k}: theta of doc {d}"
            );
        }
    }

    const SWEEP_TOPIC_COUNTS: [usize; 6] = [1, 2, 10, 24, 40, 100];

    proptest::proptest! {
        #[test]
        fn sweep_draws_the_reference_chain(
            k_index in 0..SWEEP_TOPIC_COUNTS.len(),
            mut docs in proptest::collection::vec(proptest::collection::vec(0u32..30, 0..40), 0..20),
            seed: u64,
        ) {
            // An empty document, a one-token one, and word 30, which occurs
            // in this document only.
            docs.push(vec![]);
            docs.push(vec![7]);
            docs.push(vec![30, 4, 30]);
            assert_same_chain(
                &refs(&docs),
                31,
                LdaConfig {
                    iterations: 4,
                    seed,
                    ..LdaConfig::with_topics(SWEEP_TOPIC_COUNTS[k_index])
                },
            );
        }
    }

    #[test]
    fn sweep_draws_the_reference_chain_on_a_topical_corpus() {
        let corpus =
            tsearch_corpus::SyntheticCorpus::generate(tsearch_corpus::CorpusConfig::tiny());
        for k in SWEEP_TOPIC_COUNTS {
            assert_same_chain(
                &corpus.token_docs(),
                corpus.vocab.len(),
                LdaConfig {
                    iterations: 6,
                    ..LdaConfig::with_topics(k)
                },
            );
        }
    }

    /// The benchmark stack's corpus and training configuration, draw for
    /// draw (about 2 s in a release build):
    /// `cargo test --release -p tsearch-lda -- --ignored`.
    #[test]
    #[ignore]
    fn sweep_draws_the_reference_chain_on_the_benchmark_stack() {
        let corpus = tsearch_corpus::SyntheticCorpus::generate(tsearch_corpus::CorpusConfig {
            num_docs: 4000,
            num_topics: 20,
            terms_per_topic: 80,
            ..tsearch_corpus::CorpusConfig::default()
        });
        assert_same_chain(
            &corpus.token_docs(),
            corpus.vocab.len(),
            LdaConfig {
                iterations: 20,
                ..LdaConfig::with_topics(40)
            },
        );
    }

    #[test]
    fn empty_documents_are_tolerated() {
        let docs: Vec<Vec<TermId>> = vec![vec![], vec![0, 1], vec![]];
        let model = LdaTrainer::train(
            &refs(&docs),
            2,
            LdaConfig {
                iterations: 2,
                ..LdaConfig::with_topics(2)
            },
        );
        model.validate().unwrap();
        assert_eq!(model.num_docs(), 3);
    }
}
