//! # tsearch-corpus
//!
//! Synthetic corpus and workload substrate — the reproduction's substitute
//! for the Wall Street Journal corpus and the TREC-1/2 ad-hoc queries used
//! in the paper.
//!
//! The corpus is drawn from an LDA-style generative model over ground-truth
//! topics, giving every document a known topic mixture and every query a
//! known topical intention — which is exactly the ground truth needed to
//! evaluate how well TopPriv hides that intention.
//!
//! ## Example
//!
//! ```
//! use tsearch_corpus::{CorpusConfig, SyntheticCorpus, WorkloadConfig, generate_workload};
//!
//! let corpus = SyntheticCorpus::generate(CorpusConfig::tiny());
//! let queries = generate_workload(&corpus, &WorkloadConfig { num_queries: 5, ..Default::default() });
//! assert_eq!(queries.len(), 5);
//! assert!(queries[0].len() >= 2);
//! ```

pub mod dist;
pub mod evolve;
pub mod generator;
pub mod spec;
pub mod stats;
pub mod words;
pub mod workload;

pub use evolve::EvolutionConfig;
pub use generator::SyntheticCorpus;
pub use spec::{CorpusConfig, GeneratedDoc, TopicGroundTruth};
pub use stats::{fit_heaps, vocabulary_growth, CorpusStats};
pub use workload::{generate_workload, BenchmarkQuery, WorkloadConfig};
