//! The search tier behind the service: one engine or many shards.
//!
//! Every service component that touches the engine (session resolution,
//! the cycle scheduler's workers, the server's log-capacity plumbing)
//! goes through [`SearchTier`], so the same service stack runs unchanged
//! over a single [`SearchEngine`] or a term-sharded [`ShardedEngine`].
//! Shards stay below this boundary: a sharded tier reads each term from
//! the shard that owns it inside the engine, so nothing above the tier
//! plans, labels or isolates by shard.

use std::sync::Arc;
use tsearch_search::{LoggedQuery, Query, SearchEngine, SearchHit, ShardedEngine};
use tsearch_text::{Analyzer, TermId, Vocabulary};

/// A handle to the search tier: a single engine or a sharded one.
///
/// Cloning is cheap (the variants hold `Arc`s).
#[derive(Clone)]
pub enum SearchTier {
    /// One monolithic engine (the seed's layout).
    Single(Arc<SearchEngine>),
    /// A term-sharded engine; queries fan out to their shard sets.
    Sharded(Arc<ShardedEngine>),
}

impl SearchTier {
    /// Number of shards (1 for a single engine).
    pub fn num_shards(&self) -> usize {
        match self {
            SearchTier::Single(_) => 1,
            SearchTier::Sharded(e) => e.num_shards(),
        }
    }

    /// Executes a token query (logged by the engine).
    pub fn search_tokens(&self, tokens: &[TermId], k: usize) -> Vec<SearchHit> {
        match self {
            SearchTier::Single(e) => e.search_tokens(tokens, k),
            SearchTier::Sharded(e) => e.search_tokens(tokens, k),
        }
    }

    /// Logs each submission, in order, under consecutive ordinals, as
    /// [`SearchTier::search_tokens`] logs one.
    pub fn log_tokens(&self, submissions: &[&[TermId]]) {
        match self {
            SearchTier::Single(e) => e.log_tokens(submissions),
            SearchTier::Sharded(e) => e.log_tokens(submissions),
        }
    }

    /// Ranks each `(query, k)` in one term-ordered walk without logging
    /// it (see `SearchEngine::evaluate_batch`): the caller logs what it
    /// ranked through [`SearchTier::log_tokens`].
    pub fn evaluate_batch(&self, batch: &[(&Query, usize)]) -> Vec<Vec<SearchHit>> {
        match self {
            SearchTier::Single(e) => e.evaluate_batch(batch),
            SearchTier::Sharded(e) => e.evaluate_batch(batch),
        }
    }

    /// Documents in the corpus: the most hits any `k` returns.
    pub fn num_docs(&self) -> usize {
        match self {
            SearchTier::Single(e) => e.index().num_docs(),
            SearchTier::Sharded(e) => e.index().num_docs(),
        }
    }

    /// The tier's analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        match self {
            SearchTier::Single(e) => e.analyzer(),
            SearchTier::Sharded(e) => e.analyzer(),
        }
    }

    /// The tier's vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        match self {
            SearchTier::Single(e) => e.vocab(),
            SearchTier::Sharded(e) => e.vocab(),
        }
    }

    /// Bounds the engine's adversary query log to its most recent
    /// `capacity` entries (either variant keeps one log).
    pub fn set_query_log_capacity(&self, capacity: usize) {
        match self {
            SearchTier::Single(e) => e.set_query_log_capacity(capacity),
            SearchTier::Sharded(e) => e.set_query_log_capacity(capacity),
        }
    }

    /// Snapshot of the engine's adversary query log (see
    /// `SearchEngine::query_log`): each engine-bound submission once.
    pub fn query_log(&self) -> Vec<LoggedQuery> {
        match self {
            SearchTier::Single(e) => e.query_log(),
            SearchTier::Sharded(e) => e.query_log(),
        }
    }
}

impl From<Arc<SearchEngine>> for SearchTier {
    fn from(engine: Arc<SearchEngine>) -> Self {
        SearchTier::Single(engine)
    }
}

impl From<Arc<ShardedEngine>> for SearchTier {
    fn from(engine: Arc<ShardedEngine>) -> Self {
        SearchTier::Sharded(engine)
    }
}
