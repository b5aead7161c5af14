//! # tsearch-search
//!
//! The similarity search engine substrate — the paper's *unmodified*
//! enterprise server. Supports TF-IDF cosine (default) and BM25 scoring
//! over the `tsearch-index` inverted index, and exposes the server-side
//! query log that the curious adversary analyzes.
//!
//! ## Example
//!
//! ```
//! use tsearch_search::{ScoringModel, SearchEngine};
//! use tsearch_text::{Analyzer, Vocabulary};
//!
//! let analyzer = Analyzer::new();
//! let mut vocab = Vocabulary::new();
//! let texts = vec!["apache helicopter army".to_string(), "stock market shares".to_string()];
//! let docs: Vec<Vec<u32>> = texts.iter().map(|t| analyzer.analyze_into(t, &mut vocab)).collect();
//! for d in &docs { vocab.observe_document(d); }
//! let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
//! let engine = SearchEngine::build(&refs, &texts, analyzer, vocab, ScoringModel::TfIdfCosine);
//!
//! let hits = engine.search("apache helicopter", 10);
//! assert_eq!(hits[0].doc_id, 0);
//! assert_eq!(engine.query_log().len(), 1); // the server saw the query
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod eval;
pub mod log;
pub mod query;
pub mod score;
pub mod sharded;
pub mod topk;

pub use engine::{SearchEngine, MAX_SAVED_ACCUMULATORS, M_EVAL_US};
pub use eval::result_lists_identical;
pub use log::LoggedQuery;
pub use query::Query;
pub use score::ScoringModel;
pub use sharded::{ShardedEngine, M_GATHER_US, M_SHARD_EVAL_US};
pub use topk::{SearchHit, TopK};
