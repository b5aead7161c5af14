//! Experiment scale presets.
//!
//! The paper's setup (172,890 WSJ articles, LDA up to K=300, 150 TREC
//! queries) is scaled to laptop-sized synthetic equivalents. Two presets:
//! `quick` for smoke tests and CI, `standard` for the full reproduction
//! runs.

use serde::{Deserialize, Serialize};
use tsearch_corpus::{CorpusConfig, WorkloadConfig};

/// All knobs of a reproduction run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scale {
    /// Preset name (used in cache file names).
    pub name: String,
    /// Corpus generation config.
    pub corpus: CorpusConfig,
    /// Workload generation config.
    pub workload: WorkloadConfig,
    /// LDA topic counts to train (the paper's LDA050..LDA300).
    pub topic_counts: Vec<usize>,
    /// The default model's K (the paper's LDA200).
    pub default_k: usize,
    /// Gibbs iterations for training.
    pub lda_iterations: usize,
    /// Threshold grid (fractions) for the ε sweeps of Figures 2–4.
    pub eps_grid: Vec<f64>,
    /// PDX expansion factors (Figure 4).
    pub expansion_factors: Vec<usize>,
    /// Cycle lengths υ for the TopPriv-vs-PDX ratio (Figure 5).
    pub cycle_lengths: Vec<usize>,
    /// Corpus sizes for the space-growth sweep (Figure 6).
    pub fig6_doc_counts: Vec<usize>,
    /// Queries evaluated per sweep point (≤ workload size).
    pub queries_per_setting: usize,
    /// Queries used for the adversary experiment.
    pub adversary_queries: usize,
}

impl Scale {
    /// Tiny preset for tests: seconds, not minutes.
    pub fn quick() -> Self {
        Scale {
            name: "quick".into(),
            corpus: CorpusConfig {
                num_docs: 400,
                num_topics: 10,
                terms_per_topic: 60,
                shared_pool_terms: 60,
                background_terms: 150,
                doc_len_mean: 80.0,
                min_doc_len: 20,
                max_doc_len: 250,
                ..CorpusConfig::default()
            },
            workload: WorkloadConfig {
                num_queries: 40,
                ..WorkloadConfig::default()
            },
            topic_counts: vec![10, 20, 40],
            default_k: 20,
            lda_iterations: 30,
            eps_grid: vec![0.01, 0.02, 0.03, 0.05],
            expansion_factors: vec![2, 4, 8],
            cycle_lengths: vec![2, 4],
            fig6_doc_counts: vec![200, 400, 800],
            queries_per_setting: 10,
            adversary_queries: 40,
        }
    }

    /// The full reproduction preset.
    pub fn standard() -> Self {
        Scale {
            name: "standard".into(),
            corpus: CorpusConfig::default(), // 4000 docs, 40 topics, ~11k vocab
            workload: WorkloadConfig::default(), // 150 queries, 2-20 terms
            topic_counts: vec![50, 100, 150, 200, 250, 300],
            default_k: 200,
            lda_iterations: 60,
            eps_grid: vec![
                0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05,
            ],
            expansion_factors: vec![2, 4, 8, 12, 16],
            cycle_lengths: vec![2, 4, 8, 12],
            fig6_doc_counts: vec![500, 1000, 2000, 4000, 8000, 16000],
            queries_per_setting: 60,
            adversary_queries: 40,
        }
    }

    /// Parses a preset by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "standard" => Some(Self::standard()),
            _ => None,
        }
    }

    /// Model label in the paper's style (`LDA050`, `LDA200`, ...).
    pub fn model_label(k: usize) -> String {
        format!("LDA{k:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for scale in [Scale::quick(), Scale::standard()] {
            scale.corpus.validate().unwrap();
            assert!(scale.topic_counts.contains(&scale.default_k));
            assert!(scale.queries_per_setting <= scale.workload.num_queries);
            assert!(scale.adversary_queries <= scale.workload.num_queries);
            assert!(scale.eps_grid.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn by_name() {
        assert_eq!(Scale::by_name("quick").unwrap().name, "quick");
        assert_eq!(Scale::by_name("standard").unwrap().name, "standard");
        assert!(Scale::by_name("nope").is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(Scale::model_label(50), "LDA050");
        assert_eq!(Scale::model_label(300), "LDA300");
    }
}
