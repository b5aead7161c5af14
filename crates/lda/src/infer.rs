//! Fold-in inference: estimating `Pr(t|q)` for text not seen in training.
//!
//! This is the "inference mode" of GibbsLDA++ the paper relies on: the
//! word-topic statistics (`phi`) are frozen, and Gibbs sweeps resample only
//! the query's own topic assignments. The posterior is read off the local
//! counts, averaged over the post-burn-in sweeps for stability.

use crate::model::LdaModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tsearch_text::TermId;

/// Inference parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Total Gibbs sweeps over the query tokens.
    pub sweeps: usize,
    /// Sweeps discarded before averaging.
    pub burn_in: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        Self {
            sweeps: 30,
            burn_in: 10,
        }
    }
}

/// Query-time inference engine bound to a trained model.
#[derive(Debug, Clone)]
pub struct Inferencer<'m> {
    model: &'m LdaModel,
    config: InferenceConfig,
}

impl<'m> Inferencer<'m> {
    /// Creates an inferencer with default parameters.
    pub fn new(model: &'m LdaModel) -> Self {
        Self {
            model,
            config: InferenceConfig::default(),
        }
    }

    /// Creates an inferencer with explicit parameters.
    pub fn with_config(model: &'m LdaModel, config: InferenceConfig) -> Self {
        assert!(config.sweeps > config.burn_in, "need post-burn-in sweeps");
        Self { model, config }
    }

    /// The bound model.
    pub fn model(&self) -> &LdaModel {
        self.model
    }

    /// Infers `Pr(t|tokens)`. Deterministic: the RNG is seeded from the
    /// token content, so the same query text always yields the same
    /// posterior (matching how a client would cache per-query inferences).
    pub fn infer(&self, tokens: &[TermId]) -> Vec<f64> {
        let mut hasher = DefaultHasher::new();
        tokens.hash(&mut hasher);
        self.infer_with_seed(tokens, hasher.finish())
    }

    /// Infers `Pr(t|tokens)` with an explicit seed.
    ///
    /// The conditional of one token, `φ_w[t]·(n_t + α)`, is sampled as two
    /// buckets (the decomposition of SparseLDA, Yao, Mimno & McCallum,
    /// KDD 2009): the smoothing mass `α·φ_w[t]`, whose per-token prefix
    /// sums are built once per call and reused by every sweep, and the
    /// document mass `φ_w[t]·n_t`, which is non-zero only on the topics
    /// the bag currently occupies (at most `min(n, K)`, typically a
    /// handful). A draw walks the occupied topics and, only when it lands
    /// in the smoothing bucket, binary-searches that token's prefix row —
    /// instead of a K-deep dependent add chain per token per sweep.
    pub fn infer_with_seed(&self, tokens: &[TermId], seed: u64) -> Vec<f64> {
        let k = self.model.num_topics();
        let alpha = self.model.alpha();
        if tokens.is_empty() {
            // An empty query carries no evidence: posterior equals the
            // symmetric Dirichlet mean.
            return vec![1.0 / k as f64; k];
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Local assignments, counts, and the topics with a non-zero count.
        // Counts are whole numbers held as `f64` (exact far beyond any bag
        // length) so the document mass needs no conversion per term.
        let n = tokens.len();
        let mut assignments: Vec<usize> = Vec::with_capacity(n);
        let mut ndk = vec![0.0f64; k];
        let mut occupied: Vec<usize> = Vec::with_capacity(n.min(k));
        for _ in tokens {
            let z = rng.gen_range(0..k);
            assignments.push(z);
            if ndk[z] == 0.0 {
                occupied.push(z);
            }
            ndk[z] += 1.0;
        }
        // Smoothing bucket: row i holds the running sums of α·φ_w over
        // topics for token i; its last entry is the bucket's mass.
        let mut smoothing: Vec<f64> = Vec::with_capacity(n * k);
        for &w in tokens {
            let mut total = 0.0;
            smoothing.extend(self.model.word_topics(w).iter().map(|&phi| {
                total += alpha * phi;
                total
            }));
        }
        // Running document mass over `occupied`, rebuilt per draw.
        let mut document = vec![0.0f64; n.min(k)];
        let mut kept_counts = vec![0.0f64; k];
        for sweep in 0..self.config.sweeps {
            for (i, &w) in tokens.iter().enumerate() {
                let old = assignments[i];
                ndk[old] -= 1.0;
                if ndk[old] == 0.0 {
                    let at = occupied
                        .iter()
                        .position(|&t| t == old)
                        .expect("a counted topic is listed");
                    occupied.swap_remove(at);
                }
                let phi_row = self.model.word_topics(w);
                let row = &smoothing[i * k..(i + 1) * k];
                let document = &mut document[..occupied.len()];
                let mut doc_mass = 0.0;
                for (cum, &t) in document.iter_mut().zip(&occupied) {
                    doc_mass += phi_row[t] * ndk[t];
                    *cum = doc_mass;
                }
                let total = doc_mass + row[k - 1];
                let new = if total > 0.0 {
                    let u = rng.gen::<f64>() * total;
                    if u < doc_mass {
                        // Branch-free over a handful of entries: the index
                        // of the first running sum above `u`.
                        let at: usize = document.iter().map(|&cum| usize::from(cum <= u)).sum();
                        occupied[at.min(occupied.len() - 1)]
                    } else {
                        let rest = u - doc_mass;
                        row.partition_point(|&cum| cum <= rest).min(k - 1)
                    }
                } else {
                    rng.gen_range(0..k)
                };
                assignments[i] = new;
                if ndk[new] == 0.0 {
                    occupied.push(new);
                }
                ndk[new] += 1.0;
            }
            if sweep >= self.config.burn_in {
                for &t in &occupied {
                    kept_counts[t] += ndk[t];
                }
            }
        }
        // Mean over the kept sweeps of (n_t + α) / (n + Kα), divided once.
        let kept = (self.config.sweeps - self.config.burn_in) as f64;
        let denom = kept * (n as f64 + k as f64 * alpha);
        kept_counts
            .iter()
            .map(|&count| (count + kept * alpha) / denom)
            .collect()
    }

    /// The sampler as it was before the two-bucket split: every topic of
    /// every token of every sweep through one serial prefix sum. Kept as
    /// the reference the tests compare the estimator against.
    #[cfg(test)]
    fn infer_dense_reference(&self, tokens: &[TermId], seed: u64) -> Vec<f64> {
        let k = self.model.num_topics();
        let alpha = self.model.alpha();
        let kalpha = k as f64 * alpha;
        if tokens.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut assignments: Vec<usize> = Vec::with_capacity(tokens.len());
        let mut ndk = vec![0u32; k];
        for _ in tokens {
            let z = rng.gen_range(0..k);
            assignments.push(z);
            ndk[z] += 1;
        }
        let mut weights = vec![0.0f64; k];
        let mut accumulated = vec![0.0f64; k];
        let mut kept = 0usize;
        for sweep in 0..self.config.sweeps {
            for (i, &w) in tokens.iter().enumerate() {
                let old = assignments[i];
                ndk[old] -= 1;
                let phi_row = self.model.word_topics(w);
                let mut total = 0.0;
                for t in 0..k {
                    let p = phi_row[t] * (ndk[t] as f64 + alpha);
                    total += p;
                    weights[t] = total;
                }
                let new = if total > 0.0 {
                    let u = rng.gen::<f64>() * total;
                    weights.iter().position(|&cum| u < cum).unwrap_or(k - 1)
                } else {
                    rng.gen_range(0..k)
                };
                assignments[i] = new;
                ndk[new] += 1;
            }
            if sweep >= self.config.burn_in {
                kept += 1;
                let denom = tokens.len() as f64 + kalpha;
                for t in 0..k {
                    accumulated[t] += (ndk[t] as f64 + alpha) / denom;
                }
            }
        }
        let kept = kept.max(1) as f64;
        accumulated.iter_mut().for_each(|p| *p /= kept);
        accumulated
    }

    /// Posterior of a *cycle* of queries per Equation (2):
    /// `Pr(t|{q1..qv}) = (1/v) Σ Pr(t|q)`, assuming all queries in the
    /// cycle look equally likely to the adversary.
    pub fn infer_cycle(&self, queries: &[&[TermId]]) -> Vec<f64> {
        let k = self.model.num_topics();
        if queries.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let mut mean = vec![0.0f64; k];
        for q in queries {
            let post = self.infer(q);
            for t in 0..k {
                mean[t] += post[t];
            }
        }
        mean.iter_mut().for_each(|p| *p /= queries.len() as f64);
        mean
    }

    /// Combines precomputed per-query posteriors per Equation (2). The
    /// client caches each query's posterior and calls this to evaluate a
    /// growing cycle without re-inferring earlier members.
    pub fn combine_posteriors(posteriors: &[Vec<f64>]) -> Vec<f64> {
        assert!(!posteriors.is_empty(), "cycle must be non-empty");
        let k = posteriors[0].len();
        let mut mean = vec![0.0f64; k];
        for p in posteriors {
            assert_eq!(p.len(), k, "posterior dimension mismatch");
            for t in 0..k {
                mean[t] += p[t];
            }
        }
        mean.iter_mut().for_each(|m| *m /= posteriors.len() as f64);
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{LdaConfig, LdaTrainer};

    /// Train a tiny model on two separated word blocks.
    fn trained_model() -> LdaModel {
        let mut docs = Vec::new();
        for d in 0..40 {
            let base: u32 = if d % 2 == 0 { 0 } else { 5 };
            docs.push((0..30).map(|i| base + (i % 5) as u32).collect::<Vec<_>>());
        }
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        LdaTrainer::train(
            &refs,
            10,
            LdaConfig {
                iterations: 60,
                alpha: Some(0.5),
                ..LdaConfig::with_topics(2)
            },
        )
    }

    #[test]
    fn posterior_is_a_distribution() {
        let model = trained_model();
        let inf = Inferencer::new(&model);
        let post = inf.infer(&[0, 1, 2]);
        assert_eq!(post.len(), 2);
        let sum: f64 = post.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sums to {sum}");
        assert!(post.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn posterior_favors_the_right_topic() {
        let model = trained_model();
        let inf = Inferencer::new(&model);
        // Which trained topic owns the low block?
        let low_topic = if model.phi(0, 0) > model.phi(1, 0) {
            0
        } else {
            1
        };
        let post_low = inf.infer(&[0, 1, 2, 3]);
        let post_high = inf.infer(&[5, 6, 7, 8]);
        assert!(
            post_low[low_topic] > 0.7,
            "low-block query should load topic {low_topic}: {post_low:?}"
        );
        assert!(
            post_high[1 - low_topic] > 0.7,
            "high-block query should load the other topic: {post_high:?}"
        );
    }

    #[test]
    fn inference_is_deterministic() {
        let model = trained_model();
        let inf = Inferencer::new(&model);
        assert_eq!(inf.infer(&[0, 5, 1]), inf.infer(&[0, 5, 1]));
    }

    #[test]
    fn empty_query_is_uniform() {
        let model = trained_model();
        let inf = Inferencer::new(&model);
        let post = inf.infer(&[]);
        assert_eq!(post, vec![0.5, 0.5]);
    }

    #[test]
    fn cycle_posterior_is_mean() {
        let model = trained_model();
        let inf = Inferencer::new(&model);
        let q1: Vec<TermId> = vec![0, 1, 2];
        let q2: Vec<TermId> = vec![5, 6, 7];
        let p1 = inf.infer(&q1);
        let p2 = inf.infer(&q2);
        let cycle = inf.infer_cycle(&[&q1, &q2]);
        for t in 0..2 {
            assert!((cycle[t] - (p1[t] + p2[t]) / 2.0).abs() < 1e-12);
        }
        let combined = Inferencer::combine_posteriors(&[p1.clone(), p2.clone()]);
        assert_eq!(cycle, combined);
    }

    #[test]
    fn mixed_query_splits_mass() {
        let model = trained_model();
        let inf = Inferencer::new(&model);
        let post = inf.infer(&[0, 1, 5, 6]);
        // Both topics should get substantial mass.
        assert!(post[0] > 0.2 && post[1] > 0.2, "{post:?}");
    }

    #[test]
    #[should_panic(expected = "post-burn-in")]
    fn bad_config_rejected() {
        let model = trained_model();
        let _ = Inferencer::with_config(
            &model,
            InferenceConfig {
                sweeps: 5,
                burn_in: 5,
            },
        );
    }

    /// Six 8-word blocks (ids 0..48) trained to six topics; every fourth
    /// word of a document comes from a pool all blocks share (ids 48..56),
    /// so bags that use the pool are genuinely ambiguous.
    fn six_topic_model() -> LdaModel {
        let docs: Vec<Vec<TermId>> = (0..180u32)
            .map(|d| {
                (0..40)
                    .map(|i| match i % 4 {
                        3 => 48 + (i * 5 + d) % 8,
                        _ => (d % 6) * 8 + (i * 7 + d) % 8,
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        LdaTrainer::train(
            &refs,
            56,
            LdaConfig {
                iterations: 80,
                alpha: Some(0.3),
                ..LdaConfig::with_topics(6)
            },
        )
    }

    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    fn argmax(p: &[f64]) -> usize {
        (0..p.len())
            .max_by(|&a, &b| p[a].partial_cmp(&p[b]).unwrap())
            .unwrap()
    }

    fn assert_distribution(post: &[f64], k: usize) {
        assert_eq!(post.len(), k);
        let sum: f64 = post.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sums to {sum}");
        assert!(post.iter().all(|&p| p > 0.0 && p.is_finite()), "{post:?}");
    }

    #[test]
    fn two_bucket_sampler_estimates_what_the_dense_reference_estimates() {
        let model = six_topic_model();
        let inf = Inferencer::new(&model);
        let mut rng = StdRng::seed_from_u64(0x5A3F);
        // Clearly topical bags: 4–24 words of one block. Both samplers
        // must name the same topic.
        for bag in 0..300u64 {
            let block = rng.gen_range(0..6u32);
            let len = rng.gen_range(4..=24usize);
            let tokens: Vec<TermId> = (0..len)
                .map(|_| block * 8 + rng.gen_range(0..8u32))
                .collect();
            let sparse = inf.infer_with_seed(&tokens, bag);
            let dense = inf.infer_dense_reference(&tokens, bag);
            assert_distribution(&sparse, 6);
            assert_eq!(argmax(&sparse), argmax(&dense), "bag {bag}: {tokens:?}");
        }
        // Mixed bags (each word from one of two blocks or the shared
        // pool): the two are different Gibbs chains over one conditional,
        // so they differ bag by bag — by no more than the reference
        // differs from itself under another seed. Measured here: 0.0608
        // against 0.0736.
        let (mut cross, mut own) = (0.0, 0.0);
        let bags = 300u64;
        for bag in 0..bags {
            let bases = [rng.gen_range(0..6u32) * 8, rng.gen_range(0..6u32) * 8, 48];
            let len = rng.gen_range(4..=24usize);
            let tokens: Vec<TermId> = (0..len)
                .map(|_| bases[rng.gen_range(0..3usize)] + rng.gen_range(0..8u32))
                .collect();
            let dense = inf.infer_dense_reference(&tokens, bag);
            cross += l1(&inf.infer_with_seed(&tokens, bag), &dense);
            own += l1(&inf.infer_dense_reference(&tokens, bag ^ 0xFFFF), &dense);
        }
        let (cross, own) = (cross / bags as f64, own / bags as f64);
        assert!(own > 0.0, "the reference must vary with its seed");
        assert!(
            cross <= own,
            "mean L1 to the reference {cross:.4} exceeds its own seed-to-seed {own:.4}"
        );
    }

    #[test]
    fn explicit_seed_is_deterministic_and_matters() {
        let model = six_topic_model();
        let inf = Inferencer::new(&model);
        let tokens = [0, 1, 9, 17, 2, 3];
        assert_eq!(
            inf.infer_with_seed(&tokens, 7),
            inf.infer_with_seed(&tokens, 7)
        );
        assert!((0..8).any(|s| inf.infer_with_seed(&tokens, s) != inf.infer_with_seed(&tokens, 7)));
    }

    #[test]
    fn duplicate_tokens_and_bags_longer_than_k() {
        let model = six_topic_model();
        let inf = Inferencer::new(&model);
        // One word 30 times: n > K, and every token shares one φ row.
        let repeated = vec![3 as TermId; 30];
        let post = inf.infer(&repeated);
        assert_distribution(&post, 6);
        assert_eq!(argmax(&post), argmax(model.word_topics(3)));
        // 40 tokens over all six blocks: every topic ends up occupied.
        let spread: Vec<TermId> = (0..40u32).map(|i| (i % 6) * 8 + i % 8).collect();
        assert_distribution(&inf.infer(&spread), 6);
    }

    /// A 3-word, `k`-topic model with hand-set `phi` (word-major).
    fn handmade(k: usize, alpha: f64, phi_wk: Vec<f64>) -> LdaModel {
        LdaModel::from_parts(
            k,
            phi_wk.len() / k,
            alpha,
            0.01,
            phi_wk,
            vec![1.0 / k as f64; k],
        )
    }

    #[test]
    fn word_with_an_all_zero_phi_row_falls_back_to_a_uniform_draw() {
        // Word 1 has no mass under any topic: both buckets are empty for
        // it, so its assignment is a uniform draw and it still counts as
        // one token of the bag.
        let model = handmade(2, 0.5, vec![0.9, 0.1, 0.0, 0.0, 0.1, 0.9]);
        let inf = Inferencer::new(&model);
        for seed in 0..20 {
            assert_distribution(&inf.infer_with_seed(&[1], seed), 2);
            assert_distribution(&inf.infer_with_seed(&[0, 1, 1, 0], seed), 2);
        }
        // Alone, the zero word says nothing: over many seeds it lands on
        // each topic about half the time.
        let mean0: f64 = (0..400)
            .map(|s| inf.infer_with_seed(&[1], s)[0])
            .sum::<f64>()
            / 400.0;
        assert!((mean0 - 0.5).abs() < 0.05, "mean Pr(t0) {mean0}");
    }

    #[test]
    fn single_topic_model_is_certain() {
        let model = handmade(1, 0.5, vec![0.5, 0.3, 0.2]);
        let inf = Inferencer::new(&model);
        assert_eq!(inf.infer(&[0, 1, 2, 2]), vec![1.0]);
        assert_eq!(inf.infer(&[]), vec![1.0]);
    }

    #[test]
    fn tiny_alpha_neither_divides_by_zero_nor_loses_the_topic() {
        // α so small the smoothing bucket underflows next to any document
        // mass: draws come from the occupied topics alone, and nothing is
        // ever divided by α.
        let model = handmade(2, 1e-300, vec![0.9, 0.1, 0.5, 0.5, 0.1, 0.9]);
        let inf = Inferencer::new(&model);
        for seed in 0..50 {
            assert_distribution(&inf.infer_with_seed(&[0, 0, 0, 1], seed), 2);
        }
        // A lone token has an empty document bucket: only α·φ is left,
        // vanishing but still proportional to φ.
        let mean0: f64 = (0..400)
            .map(|s| inf.infer_with_seed(&[0], s)[0])
            .sum::<f64>()
            / 400.0;
        assert!((mean0 - 0.9).abs() < 0.05, "mean Pr(t0) {mean0}");
    }
}
