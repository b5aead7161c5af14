//! # tsearch-lda
//!
//! Latent Dirichlet Allocation substrate — a Rust re-implementation of the
//! collapsed Gibbs sampler of GibbsLDA++ that the paper uses for topical
//! modeling (Section IV-B and Appendix A).
//!
//! Provides:
//! - [`LdaTrainer`]: collapsed Gibbs training with the paper's defaults
//!   (`α = 50/K`, `β = 0.1`);
//! - [`LdaModel`]: the trained `Pr(w|t)` / `Pr(t|d)` tables and the corpus
//!   prior `Pr(t)` of Equation (1);
//! - [`Inferencer`]: fold-in inference of `Pr(t|q)` for unseen queries and
//!   the cycle posterior of Equation (2);
//! - topic reports (Tables II–IV) and a compact binary codec whose sizes
//!   feed Figure 6.
//!
//! ## Example
//!
//! ```
//! use tsearch_lda::{Inferencer, LdaConfig, LdaTrainer};
//!
//! // Two separated word blocks -> two recoverable topics.
//! let docs: Vec<Vec<u32>> = (0..20)
//!     .map(|d| (0..20).map(|i| if d % 2 == 0 { i % 4 } else { 4 + i % 4 }).collect())
//!     .collect();
//! let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
//! let model = LdaTrainer::train(&refs, 8, LdaConfig {
//!     iterations: 30,
//!     ..LdaConfig::with_topics(2)
//! });
//! let posterior = Inferencer::new(&model).infer(&[0, 1, 2]);
//! assert!((posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

pub mod infer;
pub mod model;
pub mod report;
pub mod serialize;
pub mod train;

pub use infer::{InferenceConfig, Inferencer};
pub use model::{LdaModel, LdaSizeBreakdown};
pub use report::{
    all_topics, best_matching_topic, mean_pairwise_topic_similarity, topic_cosine, topic_report,
    TopicReport,
};
pub use serialize::{decode, encode, load, save, CodecError};
pub use train::{LdaConfig, LdaTrainer, TrainProgress};
