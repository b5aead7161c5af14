//! The trained LDA model.
//!
//! Holds the two conditional-probability families the paper uses
//! (Section IV-B): `Pr(w|t)` for all words and topics, and `Pr(t|d)` for
//! all topics and documents, plus the corpus prior `Pr(t)` of Equation (1).
//!
//! The model also keeps, per topic, the descending ranking of word ids
//! that [`LdaModel::top_words`] answers from. A ghost query is drawn from
//! the best words of its masking topic, so a serving fleet asks for the
//! same few rankings thousands of times a second; each one is sorted once,
//! on first use, and shared by everyone holding the `Arc<LdaModel>`. The
//! rankings are derived state: [`crate::serialize`] never writes them (it
//! rebuilds a model through [`LdaModel::from_parts`]), and a hot-swapped
//! model is a new value whose rankings start empty. The per-word
//! specificity table [`LdaModel::word_specificity`] is derived state of
//! the same kind: built once, on first use, for the whole model.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tsearch_text::TermId;

/// A trained Latent Dirichlet Allocation model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    /// Number of topics K.
    num_topics: usize,
    /// Vocabulary size V.
    vocab_size: usize,
    /// Dirichlet hyperparameter on document-topic mixtures.
    alpha: f64,
    /// Dirichlet hyperparameter on topic-word distributions.
    beta: f64,
    /// `Pr(w|t)`, stored word-major: `phi_wk[w * K + k]`. Word-major layout
    /// makes the query-inference inner loop (all topics of one word)
    /// contiguous.
    phi_wk: Vec<f64>,
    /// `Pr(t|d)`, stored document-major: `theta_dk[d * K + k]`.
    theta_dk: Vec<f64>,
    /// Corpus prior `Pr(t)` per Equation (1).
    prior: Vec<f64>,
    /// Per topic, every word id in descending `Pr(w|t)` order — filled on
    /// the first [`LdaModel::top_words`] of that topic. Ids only: the
    /// probabilities are read back from `phi_wk`.
    rankings: Vec<OnceLock<Box<[TermId]>>>,
    /// Per word, `−ln Pr(w)` — filled on the first
    /// [`LdaModel::word_specificity`].
    specificity: OnceLock<Box<[f64]>>,
}

impl LdaModel {
    /// Assembles a model from raw estimates. `phi_wk` must be word-major
    /// `V×K`, `theta_dk` document-major `D×K`.
    pub fn from_parts(
        num_topics: usize,
        vocab_size: usize,
        alpha: f64,
        beta: f64,
        phi_wk: Vec<f64>,
        theta_dk: Vec<f64>,
    ) -> Self {
        assert_eq!(phi_wk.len(), num_topics * vocab_size, "phi shape");
        assert_eq!(theta_dk.len() % num_topics, 0, "theta shape");
        let num_docs = theta_dk.len() / num_topics;
        // Equation (1): Pr(t) = (1/|D|) sum_d Pr(t|d).
        let mut prior = vec![0.0f64; num_topics];
        for d in 0..num_docs {
            for k in 0..num_topics {
                prior[k] += theta_dk[d * num_topics + k];
            }
        }
        if num_docs > 0 {
            prior.iter_mut().for_each(|p| *p /= num_docs as f64);
        }
        LdaModel {
            num_topics,
            vocab_size,
            alpha,
            beta,
            phi_wk,
            theta_dk,
            prior,
            rankings: vec![OnceLock::new(); num_topics],
            specificity: OnceLock::new(),
        }
    }

    /// Number of topics K.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Vocabulary size V.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Number of training documents D.
    pub fn num_docs(&self) -> usize {
        self.theta_dk
            .len()
            .checked_div(self.num_topics)
            .unwrap_or(0)
    }

    /// Hyperparameter alpha.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Hyperparameter beta.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// `Pr(w|t)`.
    pub fn phi(&self, topic: usize, word: TermId) -> f64 {
        self.phi_wk[word as usize * self.num_topics + topic]
    }

    /// The topic row of one word: `Pr(w|t)` for all `t` (contiguous slice).
    pub fn word_topics(&self, word: TermId) -> &[f64] {
        let start = word as usize * self.num_topics;
        &self.phi_wk[start..start + self.num_topics]
    }

    /// `Pr(t|d)` for a training document.
    pub fn theta(&self, doc: usize, topic: usize) -> f64 {
        self.theta_dk[doc * self.num_topics + topic]
    }

    /// The full mixture of a training document.
    pub fn doc_topics(&self, doc: usize) -> &[f64] {
        let start = doc * self.num_topics;
        &self.theta_dk[start..start + self.num_topics]
    }

    /// Corpus prior `Pr(t)` (Equation 1).
    pub fn prior(&self) -> &[f64] {
        &self.prior
    }

    /// The word distribution of one topic: `Pr(w|t)` for all `w`
    /// (strided gather; used by ghost-query generation and reports).
    pub fn topic_word_dist(&self, topic: usize) -> Vec<f64> {
        (0..self.vocab_size)
            .map(|w| self.phi_wk[w * self.num_topics + topic])
            .collect()
    }

    /// The `n` highest-probability words of `topic` as `(word, Pr(w|t))`,
    /// descending; words of equal probability keep ascending id order.
    pub fn top_words(&self, topic: usize, n: usize) -> Vec<(TermId, f64)> {
        self.ranking(topic)
            .iter()
            .take(n)
            .map(|&w| (w, self.phi(topic, w)))
            .collect()
    }

    /// Every word id in descending `Pr(w|topic)` order, sorted on the
    /// first call for that topic. The sort is stable over ascending ids,
    /// so ties — and with them every ghost query drawn from a pool — do
    /// not depend on who asked first.
    fn ranking(&self, topic: usize) -> &[TermId] {
        self.rankings[topic].get_or_init(|| {
            let mut pairs: Vec<(TermId, f64)> = (0..self.vocab_size)
                .map(|w| (w as TermId, self.phi_wk[w * self.num_topics + topic]))
                .collect();
            pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite phi"));
            pairs.into_iter().map(|(w, _)| w).collect()
        })
    }

    /// Every word's specificity `−ln Pr(w)` (higher = rarer), where
    /// `Pr(w) = Σ_t Pr(w|t)·Pr(t)` is its probability under the corpus
    /// prior; a word of probability 0 reads `−ln` of the smallest positive
    /// `f64`. Computed on the first call.
    pub fn word_specificity(&self) -> &[f64] {
        self.specificity.get_or_init(|| {
            (0..self.vocab_size as TermId)
                .map(|w| {
                    let pr: f64 = (self.word_topics(w).iter().zip(&self.prior))
                        .map(|(&phi, &p)| phi * p)
                        .sum();
                    -pr.max(f64::MIN_POSITIVE).ln()
                })
                .collect()
        })
    }

    /// Size accounting for Figure 6: the serialized footprint of the model
    /// structures at 4 bytes per probability (single precision, matching
    /// the ~140 MB the paper reports for LDA200 over the 182k-term WSJ
    /// vocabulary).
    pub fn size_breakdown(&self) -> LdaSizeBreakdown {
        LdaSizeBreakdown {
            phi_bytes: self.phi_wk.len() * 4,
            theta_bytes: self.theta_dk.len() * 4,
            prior_bytes: self.prior.len() * 8,
        }
    }

    /// Checks internal consistency: every stored distribution sums to 1.
    pub fn validate(&self) -> Result<(), String> {
        for k in 0..self.num_topics {
            let sum: f64 = (0..self.vocab_size)
                .map(|w| self.phi_wk[w * self.num_topics + k])
                .sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!("phi for topic {k} sums to {sum}"));
            }
        }
        for d in 0..self.num_docs() {
            let sum: f64 = self.doc_topics(d).iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!("theta for doc {d} sums to {sum}"));
            }
        }
        let prior_sum: f64 = self.prior.iter().sum();
        if self.num_docs() > 0 && (prior_sum - 1.0).abs() > 1e-6 {
            return Err(format!("prior sums to {prior_sum}"));
        }
        Ok(())
    }
}

/// Byte-size breakdown of an LDA model (Figure 6 accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LdaSizeBreakdown {
    /// `Pr(w|t)` matrix bytes — the dominant structure.
    pub phi_bytes: usize,
    /// `Pr(t|d)` matrix bytes.
    pub theta_bytes: usize,
    /// Prior vector bytes.
    pub prior_bytes: usize,
}

impl LdaSizeBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.phi_bytes + self.theta_bytes + self.prior_bytes
    }

    /// The client-side footprint: the client needs `Pr(w|t)` and the prior
    /// but not the per-document mixtures.
    pub fn client_bytes(&self) -> usize {
        self.phi_bytes + self.prior_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 2-topic, 3-word, 2-doc model.
    fn toy() -> LdaModel {
        // phi word-major: word0: [0.7, 0.1], word1: [0.2, 0.3], word2: [0.1, 0.6]
        let phi = vec![0.7, 0.1, 0.2, 0.3, 0.1, 0.6];
        // theta doc-major: doc0: [0.9, 0.1], doc1: [0.3, 0.7]
        let theta = vec![0.9, 0.1, 0.3, 0.7];
        LdaModel::from_parts(2, 3, 25.0, 0.1, phi, theta)
    }

    #[test]
    fn accessors() {
        let m = toy();
        assert_eq!(m.num_topics(), 2);
        assert_eq!(m.vocab_size(), 3);
        assert_eq!(m.num_docs(), 2);
        assert_eq!(m.phi(0, 0), 0.7);
        assert_eq!(m.phi(1, 2), 0.6);
        assert_eq!(m.theta(1, 1), 0.7);
        assert_eq!(m.word_topics(1), &[0.2, 0.3]);
        assert_eq!(m.doc_topics(0), &[0.9, 0.1]);
    }

    #[test]
    fn prior_is_mean_theta() {
        let m = toy();
        assert!((m.prior()[0] - 0.6).abs() < 1e-12);
        assert!((m.prior()[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn top_words_sorted() {
        let m = toy();
        let top = m.top_words(0, 2);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 1);
        let dist = m.topic_word_dist(1);
        assert_eq!(dist, vec![0.1, 0.3, 0.6]);
    }

    /// `top_words` as it was before the rankings were kept: gather the
    /// topic's column, stable-sort the whole vocabulary, truncate.
    fn full_sort_top_words(m: &LdaModel, topic: usize, n: usize) -> Vec<(TermId, f64)> {
        let mut pairs: Vec<(TermId, f64)> = (0..m.vocab_size())
            .map(|w| (w as TermId, m.phi(topic, w as TermId)))
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite phi"));
        pairs.truncate(n);
        pairs
    }

    /// 3 topics over 211 words whose `Pr(w|t)` take only a handful of
    /// distinct values per topic, so every pool boundary falls inside a
    /// run of ties.
    fn tied() -> LdaModel {
        let (k, v) = (3usize, 211usize);
        let mut phi = vec![0.0f64; v * k];
        for t in 0..k {
            let levels = 3 + 2 * t;
            let raw: Vec<f64> = (0..v)
                .map(|w| (1 + (w * 7 + t * 13) % levels) as f64)
                .collect();
            let sum: f64 = raw.iter().sum();
            for w in 0..v {
                phi[w * k + t] = raw[w] / sum;
            }
        }
        LdaModel::from_parts(k, v, 1.0, 0.1, phi, vec![0.2, 0.3, 0.5])
    }

    fn assert_same(a: &[(TermId, f64)], b: &[(TermId, f64)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()));
        }
    }

    #[test]
    fn top_words_equals_the_full_sort_including_ties() {
        let m = tied();
        let v = m.vocab_size();
        // Twice: the first pass builds each ranking, the second reads it.
        for _ in 0..2 {
            for t in 0..m.num_topics() {
                for n in [0, 1, 40, 160, v, v + 7] {
                    let got = m.top_words(t, n);
                    assert_eq!(got.len(), n.min(v));
                    assert_same(&got, &full_sort_top_words(&m, t, n));
                }
            }
        }
    }

    #[test]
    fn racing_first_calls_all_get_the_same_ranking() {
        let m = tied();
        let expected = full_sort_top_words(&m, 1, 160);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        m.top_words(1, 160)
                    })
                })
                .collect();
            for racer in racers {
                assert_same(&racer.join().expect("racer panicked"), &expected);
            }
        });
    }

    #[test]
    fn built_rankings_survive_clone_and_never_reach_the_codec() {
        let cold = tied();
        let warm = tied();
        for t in 0..warm.num_topics() {
            warm.top_words(t, 40);
        }
        let copy = warm.clone();
        for t in 0..warm.num_topics() {
            assert_same(&copy.top_words(t, 160), &full_sort_top_words(&cold, t, 160));
        }
        let bytes = crate::serialize::encode(&warm);
        assert_eq!(bytes, crate::serialize::encode(&cold));
        // The codec stores single precision, so the reference is the
        // decoded model's own full sort.
        let back = crate::serialize::decode(&bytes).expect("decodes");
        for t in 0..back.num_topics() {
            assert_same(&back.top_words(t, 160), &full_sort_top_words(&back, t, 160));
        }
    }

    #[test]
    fn validation_accepts_toy() {
        toy().validate().unwrap();
    }

    #[test]
    fn validation_rejects_broken_phi() {
        let phi = vec![0.9, 0.1, 0.2, 0.3, 0.1, 0.6]; // topic 0 sums to 1.2
        let theta = vec![1.0, 0.0];
        let m = LdaModel::from_parts(2, 3, 1.0, 0.1, phi, theta);
        assert!(m.validate().is_err());
    }

    #[test]
    fn size_breakdown() {
        let m = toy();
        let s = m.size_breakdown();
        assert_eq!(s.phi_bytes, 6 * 4);
        assert_eq!(s.theta_bytes, 4 * 4);
        assert_eq!(s.prior_bytes, 2 * 8);
        assert_eq!(s.total(), 24 + 16 + 16);
        assert_eq!(s.client_bytes(), 24 + 16);
    }
}
