//! The search tier behind the service: one engine or many shards.
//!
//! Every service component that touches the engine (session resolution,
//! the cycle scheduler's workers, the server's log-capacity plumbing)
//! goes through [`SearchTier`], so the same service stack runs unchanged
//! over a single [`SearchEngine`] or a term-sharded [`ShardedEngine`].
//! Shards stay below this boundary: a sharded tier scatters each query
//! to the shards its terms route to and gathers inside the engine, so
//! nothing above the tier plans, labels or isolates by shard.

use std::sync::Arc;
use tsearch_search::{SearchEngine, SearchHit, ShardedEngine};
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

    /// Executes a token query (logged by the engine / touched shards).
    pub fn search_tokens(&self, tokens: &[TermId], k: usize) -> Vec<SearchHit> {
        match self {
            SearchTier::Single(e) => e.search_tokens(tokens, k),
            SearchTier::Sharded(e) => e.search_tokens(tokens, k),
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

    /// Bounds the adversary query log: the single engine's one log, or
    /// **each** shard's log, to `capacity` entries.
    pub fn set_query_log_capacity(&self, capacity: usize) {
        match self {
            SearchTier::Single(e) => e.set_query_log_capacity(capacity),
            SearchTier::Sharded(e) => e.set_query_log_capacity(capacity),
        }
    }

    /// The sharded engine, if this tier is sharded.
    pub fn as_sharded(&self) -> Option<&Arc<ShardedEngine>> {
        match self {
            SearchTier::Single(_) => None,
            SearchTier::Sharded(e) => Some(e),
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
