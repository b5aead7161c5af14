//! The search tier behind the service: one engine or many shards.
//!
//! Every service component that touches the engine (session resolution,
//! the cycle scheduler's workers, the server's log-capacity plumbing)
//! goes through [`SearchTier`], so the same service stack runs unchanged
//! over a single [`SearchEngine`] or a term-sharded [`ShardedEngine`].
//! The tier is also where submissions learn their *shard set* — the
//! sorted list of shards a query's terms route to — whose lowest id the
//! [`crate::CycleScheduler`] uses as the submission's failure domain.

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

    /// The sorted shard set a token query touches (always `[0]` for a
    /// single engine with a non-empty query).
    pub fn shard_set(&self, tokens: &[TermId]) -> Vec<usize> {
        match self {
            SearchTier::Single(_) => {
                if tokens.is_empty() {
                    Vec::new()
                } else {
                    vec![0]
                }
            }
            SearchTier::Sharded(e) => e.shard_set(tokens),
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

    /// Clears the adversary query log(s).
    pub fn clear_query_logs(&self) {
        match self {
            SearchTier::Single(e) => e.clear_query_log(),
            SearchTier::Sharded(e) => e.clear_query_logs(),
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
