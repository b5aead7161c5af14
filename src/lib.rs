//! # toppriv
//!
//! Facade crate for the TopPriv reproduction and its production service
//! layer. Re-exports every subsystem under a stable module path and
//! provides [`build_demo_stack`] — the three-piece demo stack (corpus,
//! engine, shared LDA model) that the examples and the `toppriv-serve`
//! demo mode are built on.
//!
//! Layering (each layer only depends on the ones above it):
//!
//! - substrates: [`text`], [`index`], [`store`], [`corpus`];
//! - models and engines: [`lda`], [`search`];
//! - the paper's client module: [`core`] (with [`baselines`] and
//!   [`adversary`] for the evaluation);
//! - the multi-tenant service layer: [`service`];
//! - cross-cutting observability (registry, histograms, spans): [`obs`].
//!
//! The reproduction harness (`crates/bench`, the `reproduce` binary)
//! depends on this stack, not the other way round.

pub use toppriv_adversary as adversary;
pub use toppriv_baselines as baselines;
pub use toppriv_core as core;
pub use toppriv_obs as obs;
pub use toppriv_service as service;
pub use tsearch_corpus as corpus;
pub use tsearch_index as index;
pub use tsearch_lda as lda;
pub use tsearch_search as search;
pub use tsearch_store as store;
pub use tsearch_text as text;

pub use toppriv_core::{
    BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement, TrustedClient,
};
pub use toppriv_service::{ResultCache, SearchTier, ServiceMetrics, SessionManager};
pub use tsearch_corpus::{CorpusConfig, SyntheticCorpus};
pub use tsearch_index::{ShardRouter, ShardedIndex};
pub use tsearch_lda::LdaModel;
pub use tsearch_search::{ScoringModel, SearchEngine, ShardedEngine};

use std::sync::Arc;
use tsearch_index::{DocumentStore, InvertedIndex};
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_text::Analyzer;

/// Entries of the adversary query log the demo stack's engine keeps (one
/// log whether the tier is single or sharded).
pub const DEMO_QUERY_LOG_TAIL: usize = 4_096;

/// Builds the demo stack: a synthetic corpus, a search engine hosting it,
/// and an LDA model trained on it (wrapped in an [`Arc`] so any number of
/// belief engines, clients, and service sessions can share it).
pub fn build_demo_stack(
    config: CorpusConfig,
    topics: usize,
    iterations: usize,
) -> (SyntheticCorpus, SearchEngine, Arc<LdaModel>) {
    let (corpus, tier, model) = build_demo_stack_sharded(config, topics, iterations, 1);
    let engine = match tier {
        SearchTier::Single(engine) => {
            Arc::try_unwrap(engine).unwrap_or_else(|_| unreachable!("freshly built, sole Arc"))
        }
        SearchTier::Sharded(_) => unreachable!("shards = 1 always builds a single tier"),
    };
    (corpus, engine, model)
}

/// Variant of [`build_demo_stack`] whose search tier is term-sharded:
/// returns a [`SearchTier::Sharded`] over `shards` index shards when
/// `shards > 1`, else a [`SearchTier::Single`] (the two are
/// result-identical; sharding only changes how the service scales).
///
/// The engine keeps only the last [`DEMO_QUERY_LOG_TAIL`] entries of
/// its adversary query log: the stack backs long-running servers and
/// load drivers, where an unbounded log (≈ 290 B an entry) is RSS that
/// grows with how fast the caller submits. The examples that read
/// `query_log()` submit far fewer queries than the tail holds;
/// experiments and tests build their own engines.
///
/// Training is journaled as an `lda_train` span of the global tracer
/// ([`obs::tracer`]).
pub fn build_demo_stack_sharded(
    config: CorpusConfig,
    topics: usize,
    iterations: usize,
    shards: usize,
) -> (SyntheticCorpus, SearchTier, Arc<LdaModel>) {
    let corpus = SyntheticCorpus::generate(config);
    let docs = corpus.token_docs();
    // Train before the engine exists, so that the store's copy of the
    // texts is not live beside the sampler's state; the store holds the
    // only copy beyond the corpus's own.
    let model = {
        let _span = toppriv_obs::tracer().span("lda_train");
        Arc::new(LdaTrainer::train(
            &docs,
            corpus.vocab.len(),
            LdaConfig {
                iterations,
                ..LdaConfig::with_topics(topics)
            },
        ))
    };
    let store = DocumentStore::from_texts(corpus.docs.iter().map(|d| d.text.clone()));
    let vocab = corpus.vocab.clone();
    let tier = if shards > 1 {
        SearchTier::Sharded(Arc::new(ShardedEngine::new(
            ShardedIndex::build(&docs, vocab.len(), shards),
            store,
            Analyzer::new(),
            vocab,
            ScoringModel::TfIdfCosine,
        )))
    } else {
        SearchTier::Single(Arc::new(SearchEngine::new(
            InvertedIndex::build(&docs, vocab.len()),
            store,
            Analyzer::new(),
            vocab,
            ScoringModel::TfIdfCosine,
        )))
    };
    tier.set_query_log_capacity(DEMO_QUERY_LOG_TAIL);
    (corpus, tier, model)
}
