//! The cache plane: a sharded LRU result cache, and a memo of whole
//! cycles beside it.
//!
//! Multi-tenant decoy traffic is highly redundant: the ghost generator is
//! deterministic per query content (the RNG is seeded from the token
//! hash), so two tenants protecting the same query emit the *same* ghost
//! cycle, and popular masking topics repeat their top words across
//! tenants. Uncached, each ghost is a full engine evaluation (~7× a
//! genuine query per cycle; `engine_evals_per_genuine` in `benchmark/`);
//! this cache absorbs the duplicates before they reach the engine.
//!
//! Keys are normalized term multisets (sorted token ids) plus the result
//! count — the engine treats queries as bags of words, so token order
//! never matters. The service keys on `min(k, num_docs)`, the most hits
//! any `k` can return, so one query asked at any `k` beyond the corpus
//! holds one entry and a tenant cannot push others out by varying `k`. Entries live in [`DEFAULT_SHARDS`] independently locked
//! shards selected by key hash; each shard is a classic intrusive-list
//! LRU, so a get refreshes recency in O(1) and eviction removes the
//! least-recently-used entry of that shard; eviction is the only way an
//! entry leaves.
//!
//! Privacy note: the cache sits *inside* the trusted service boundary,
//! and per-session privacy accounting covers every cycle member whether
//! or not it hit cache, so the `(ε1, ε2)` certificates themselves are
//! unchanged. The cache's effectiveness *depends on* ghost determinism
//! per query content — which, under a publicly known seed, would let an
//! engine-side adversary replay ghost generation per logged query and
//! test which query's regenerated decoys all appear in the log (a
//! stronger probing attack than the paper's, which assumes the client
//! seed is secret). The [`crate::SessionManager`] therefore mixes a
//! per-fleet **secret** seed into every session's `GhostConfig`: all
//! sessions of the fleet share it, so cross-tenant decoys stay
//! cache-identical, but the engine cannot regenerate them, restoring the
//! paper's secret-seed assumption. See
//! [`SessionManager::with_fleet_seed`](crate::SessionManager::with_fleet_seed)
//! to pin the secret across service replicas (replicas with different
//! secrets still work — they just stop sharing decoy cache entries).
//!
//! ## The cycle memo
//!
//! The same determinism makes the *formulation* repeatable, not only its
//! members' results: the paper prices a protected query at υ engine
//! submissions plus one cycle formulation, the result cache removes the
//! submissions of a query the fleet has seen, and `CycleMemo` removes
//! the formulation. [`SessionManager::with_cache`](crate::SessionManager::with_cache)
//! attaches both or neither, and the memo's size follows the result
//! cache's (an eighth as many cycles as results) instead of being set.
//! Its key, `CycleKey`, is everything the generator reads — model
//! epoch, `(ε1, ε2)`, every `GhostConfig` field with the fleet secret
//! mixed into the seed, and the token sequence in the order it was
//! analyzed — held and compared exactly. The value is what the generator
//! returned, handed back verbatim; per-session accounting still runs on
//! every request, so the certificates and Equation-2 sums are what they
//! would be without it. Every session formulates through it, and a model
//! swap empties it. Both stores sit on one LRU implementation, `Shard`.
//!
//! Timing note: a memo hit answers faster than a formulation, but only
//! where a result-cache hit already answers faster than an evaluation —
//! a query some tenant of the fleet asked before. It tells a client
//! nothing the result cache did not, and the engine, which sees neither,
//! nothing at all.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use toppriv_core::{CycleResult, GhostConfig, PrivacyRequirement};
use toppriv_obs::{recover_lock, Counter, HistogramHandle, MetricsRegistry};
use tsearch_search::SearchHit;
use tsearch_text::TermId;

/// Metric name: per-cache-shard lookup hits.
pub const M_CACHE_SHARD_HITS: &str = "cache_hits_total";
/// Metric name: per-cache-shard lookup misses.
pub const M_CACHE_SHARD_MISSES: &str = "cache_misses_total";
/// Metric name: per-cache-shard LRU evictions.
pub const M_CACHE_EVICTIONS: &str = "cache_evictions_total";
/// Metric name: cache lookup latency histogram (µs).
pub const M_CACHE_LOOKUP_US: &str = "cache_lookup_us";
/// Metric name: cycles handed back from the cycle memo.
pub const M_CYCLE_MEMO_HITS: &str = "cycle_memo_hits_total";
/// Metric name: cycles the memo did not hold and the generator formulated.
pub const M_CYCLE_MEMO_MISSES: &str = "cycle_memo_misses_total";
/// Metric name: stored cycles dropped to make room for newer ones.
pub const M_CYCLE_MEMO_EVICTIONS: &str = "cycle_memo_evictions_total";

/// Registry handles the cache publishes into when bound via
/// [`ResultCache::with_registry`]: per-shard hit/miss/eviction counters
/// plus one lookup-latency histogram.
struct CacheObs {
    hits: Vec<Counter>,
    misses: Vec<Counter>,
    evictions: Vec<Counter>,
    lookup_us: HistogramHandle,
}

impl CacheObs {
    fn new(registry: &MetricsRegistry, shards: usize) -> Self {
        let per_shard = |name: &str| -> Vec<Counter> {
            (0..shards)
                .map(|s| registry.counter(name, &[("shard", &s.to_string())]))
                .collect()
        };
        CacheObs {
            hits: per_shard(M_CACHE_SHARD_HITS),
            misses: per_shard(M_CACHE_SHARD_MISSES),
            evictions: per_shard(M_CACHE_EVICTIONS),
            lookup_us: registry.histogram(M_CACHE_LOOKUP_US, &[]),
        }
    }
}

/// Normalized cache key: sorted tokens + requested depth.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    tokens: Vec<TermId>,
    k: usize,
}

impl CacheKey {
    /// Normalizes a token query (sorts; duplicates are kept — the engine
    /// scores term frequency, so `a a b` and `a b` are different bags).
    pub fn new(tokens: &[TermId], k: usize) -> Self {
        let mut tokens = tokens.to_vec();
        tokens.sort_unstable();
        CacheKey { tokens, k }
    }

    fn shard_of(&self, shards: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % shards
    }
}

const NO_SLOT: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: slot arena + hash index + intrusive recency list. The
/// one LRU in this crate — [`ResultCache`] keeps sixteen of them over
/// member results, [`CycleMemo`] one over whole cycles.
struct Shard<K, V> {
    slots: Vec<Entry<K, V>>,
    index: HashMap<K, usize>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            slots: Vec::with_capacity(capacity.min(64)),
            index: HashMap::new(),
            free: Vec::new(),
            head: NO_SLOT,
            tail: NO_SLOT,
            capacity,
        }
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NO_SLOT => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NO_SLOT => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NO_SLOT;
        self.slots[slot].next = self.head;
        match self.head {
            NO_SLOT => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let slot = *self.index.get(key)?;
        self.unlink(slot);
        self.link_front(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Inserts (or refreshes) an entry; returns whether an existing
    /// entry had to be evicted to make room.
    fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].value = value;
            self.unlink(slot);
            self.link_front(slot);
            return false;
        }
        let mut evicted = false;
        if self.index.len() >= self.capacity {
            // Evict the least recently used entry of this shard.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = self.slots[victim].key.clone();
            self.index.remove(&old_key);
            self.free.push(victim);
            evicted = true;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NO_SLOT,
            next: NO_SLOT,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = entry;
                s
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.link_front(slot);
        evicted
    }

    /// Drops every entry; the capacity stays.
    fn clear(&mut self) {
        *self = Shard::new(self.capacity);
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

type ResultShard = Shard<CacheKey, Vec<SearchHit>>;

/// Thread-safe sharded LRU cache of search results.
///
/// ## Example
///
/// ```
/// use toppriv_service::ResultCache;
/// use tsearch_search::SearchHit;
///
/// let cache = ResultCache::new(1024);
/// let hits = vec![SearchHit { doc_id: 7, score: 1.5 }];
/// // Keys normalize token order: `a b` and `b a` are the same bag.
/// cache.insert(&[3, 1], 10, hits.clone());
/// assert_eq!(cache.get(&[1, 3], 10).unwrap()[0].doc_id, 7);
/// // A different result depth is a different key.
/// assert!(cache.get(&[1, 3], 5).is_none());
/// let (cached, was_hit) = cache.get_or_compute(&[1, 3], 10, || unreachable!());
/// assert!(was_hit && cached[0].doc_id == 7);
/// ```
pub struct ResultCache {
    shards: Vec<Mutex<ResultShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
    obs: Option<CacheObs>,
}

/// Default shard count (capacity permitting).
pub const DEFAULT_SHARDS: usize = 16;

impl ResultCache {
    /// A cache holding at most `capacity` entries across [`DEFAULT_SHARDS`]
    /// shards (fewer shards when the capacity is tiny).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS.min(capacity.max(1)))
    }

    /// Explicit shard count; total capacity is split evenly (rounded up).
    fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ResultCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
            obs: None,
        }
    }

    /// Binds the cache to a metrics registry: per-shard
    /// [`M_CACHE_SHARD_HITS`] / [`M_CACHE_SHARD_MISSES`] /
    /// [`M_CACHE_EVICTIONS`] counters and the [`M_CACHE_LOOKUP_US`]
    /// latency histogram publish there on every lookup.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.obs = Some(CacheObs::new(&registry, self.shards.len()));
        self
    }

    /// The configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, key: &CacheKey) -> (usize, &Mutex<ResultShard>) {
        let s = key.shard_of(self.shards.len());
        (s, &self.shards[s])
    }

    /// Looks up a normalized query, refreshing its recency.
    pub fn get(&self, tokens: &[TermId], k: usize) -> Option<Vec<SearchHit>> {
        self.get_key(&CacheKey::new(tokens, k))
    }

    pub(crate) fn get_key(&self, key: &CacheKey) -> Option<Vec<SearchHit>> {
        let t0 = Instant::now();
        let (s, shard) = self.shard(key);
        let found = recover_lock(shard).get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(obs) = &self.obs {
            obs.lookup_us.record(t0.elapsed().as_micros() as u64);
            match &found {
                Some(_) => obs.hits[s].inc(),
                None => obs.misses[s].inc(),
            }
        }
        found
    }

    /// Inserts (or refreshes) a result list.
    pub fn insert(&self, tokens: &[TermId], k: usize, hits: Vec<SearchHit>) {
        self.insert_key(CacheKey::new(tokens, k), hits);
    }

    pub(crate) fn insert_key(&self, key: CacheKey, hits: Vec<SearchHit>) {
        let (s, shard) = self.shard(&key);
        let evicted = recover_lock(shard).insert(key, hits);
        if evicted {
            if let Some(obs) = &self.obs {
                obs.evictions[s].inc();
            }
        }
    }

    /// Drops every entry (the tier the results were ranked on is being
    /// replaced); the capacity and the counters stay.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            recover_lock(shard).clear();
        }
    }

    /// Cache-through read: returns `(hits, was_cache_hit)`, computing and
    /// inserting on miss. The shard lock is *not* held while `compute`
    /// runs, so concurrent misses on the same key may both evaluate (last
    /// write wins) — the engine is read-only, so that is merely duplicated
    /// work, never inconsistency.
    pub fn get_or_compute(
        &self,
        tokens: &[TermId],
        k: usize,
        compute: impl FnOnce() -> Vec<SearchHit>,
    ) -> (Vec<SearchHit>, bool) {
        if let Some(hits) = self.get(tokens, k) {
            return (hits, true);
        }
        let hits = compute();
        self.insert(tokens, k, hits.clone());
        (hits, false)
    }

    /// Counts `n` hits on `key` that no lookup made: tenants served
    /// from a resolution another lookup paid for — a planner-coalesced
    /// entry's subscribers beyond the first, or a later duplicate of an
    /// entry resolved in the same batch. From each tenant's point of view
    /// its submission was served without touching the engine, so it
    /// counts as a hit, globally and on the key's cache shard.
    pub(crate) fn add_hits(&self, key: &CacheKey, n: u64) {
        if n == 0 {
            return;
        }
        self.hits.fetch_add(n, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.hits[key.shard_of(self.shards.len())].add(n);
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| recover_lock(s).len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, 0 when never used.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The identity of one formulation: everything `GhostGenerator::run`
/// reads, held as it is and compared field by field — never as a digest,
/// because two tenants whose keys collided would be handed each other's
/// cycle, certified for a different query or requirement. (What no
/// session can vary is not in it: sessions build their generators with
/// the default inference parameters and the effectiveness check on.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CycleKey {
    /// Stands for the model: a session's generator is bound to the model
    /// of the epoch it carries.
    model_epoch: u64,
    eps1: u64,
    eps2: u64,
    min_len_mult: u64,
    max_len_mult: u64,
    max_cycle_len: usize,
    term_pool: usize,
    term_selection: u8,
    /// The seed the generator runs with (fleet secret mixed in).
    seed: u64,
    /// As analyzed, not sorted: the generator seeds its RNG from this
    /// sequence, so the same bag in another order is another cycle.
    tokens: Vec<TermId>,
}

impl CycleKey {
    /// Both structs are taken apart without `..`: a field added to either
    /// stops this compiling until the key holds it too.
    pub(crate) fn new(
        model_epoch: u64,
        requirement: PrivacyRequirement,
        ghost: &GhostConfig,
        tokens: &[TermId],
    ) -> Self {
        let PrivacyRequirement { eps1, eps2 } = requirement;
        let GhostConfig {
            min_len_mult,
            max_len_mult,
            max_cycle_len,
            term_pool,
            term_selection,
            seed,
        } = *ghost;
        CycleKey {
            model_epoch,
            eps1: eps1.to_bits(),
            eps2: eps2.to_bits(),
            min_len_mult: min_len_mult.to_bits(),
            max_len_mult: max_len_mult.to_bits(),
            max_cycle_len,
            term_pool,
            term_selection: term_selection as u8,
            seed,
            tokens: tokens.to_vec(),
        }
    }
}

/// What the generator returns for one query: the cycle, and each
/// member's posterior aligned with it.
pub(crate) type GeneratedCycle = (CycleResult, Vec<Vec<f64>>);

/// A bounded memo of whole cycles beside the [`ResultCache`]: the result
/// cache spares a repeated query its υ engine submissions, this spares it
/// the formulation. Generation is deterministic in what a [`CycleKey`]
/// holds, so a stored cycle is the cycle the generator would certify
/// again; it is handed back verbatim, posteriors and `generation_secs`
/// included, and the session accounts it like any other.
///
/// One shard behind one mutex — the LRU order is total — held for a hash
/// lookup and an `Arc` clone; the copy a caller owns is made outside it.
pub(crate) struct CycleMemo {
    cycles: Mutex<Shard<CycleKey, Arc<GeneratedCycle>>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CycleMemo {
    /// A memo of at most `capacity` cycles (none at 0), counting into
    /// `registry`.
    pub(crate) fn new(capacity: usize, registry: &MetricsRegistry) -> Self {
        CycleMemo {
            cycles: Mutex::new(Shard::new(capacity)),
            hits: registry.counter(M_CYCLE_MEMO_HITS, &[]),
            misses: registry.counter(M_CYCLE_MEMO_MISSES, &[]),
            evictions: registry.counter(M_CYCLE_MEMO_EVICTIONS, &[]),
        }
    }

    /// The stored cycle for `key`, or `generate`'s, stored for the next
    /// caller. The lock is not held while `generate` runs: two callers
    /// missing on one key both formulate — the same cycle — and the later
    /// insert replaces the earlier.
    pub(crate) fn get_or_generate(
        &self,
        key: CycleKey,
        generate: impl FnOnce() -> GeneratedCycle,
    ) -> GeneratedCycle {
        let stored = recover_lock(&self.cycles).get(&key);
        if let Some(stored) = stored {
            self.hits.inc();
            return GeneratedCycle::clone(&stored);
        }
        self.misses.inc();
        let generated = generate();
        let evicted = recover_lock(&self.cycles).insert(key, Arc::new(generated.clone()));
        if evicted {
            self.evictions.inc();
        }
        generated
    }

    /// Forgets every stored cycle (the model they were certified under is
    /// being replaced).
    pub(crate) fn clear(&self) {
        recover_lock(&self.cycles).clear();
    }

    /// Cycles currently stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        recover_lock(&self.cycles).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(doc_id: u32) -> SearchHit {
        SearchHit {
            doc_id,
            score: doc_id as f64,
        }
    }

    #[test]
    fn get_after_insert_and_normalization() {
        let cache = ResultCache::new(8);
        cache.insert(&[3, 1, 2], 10, vec![hit(7)]);
        // Token order does not matter; k does.
        assert_eq!(cache.get(&[1, 2, 3], 10).unwrap()[0].doc_id, 7);
        assert!(cache.get(&[1, 2, 3], 5).is_none());
        // Duplicates are a different bag.
        assert!(cache.get(&[1, 1, 2, 3], 10).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Single shard so the recency order is total.
        let cache = ResultCache::with_shards(3, 1);
        cache.insert(&[1], 10, vec![hit(1)]);
        cache.insert(&[2], 10, vec![hit(2)]);
        cache.insert(&[3], 10, vec![hit(3)]);
        assert_eq!(cache.len(), 3);
        cache.insert(&[4], 10, vec![hit(4)]);
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&[1], 10).is_none(), "oldest entry evicted");
        assert!(cache.get(&[2], 10).is_some());
        assert!(cache.get(&[3], 10).is_some());
        assert!(cache.get(&[4], 10).is_some());
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = ResultCache::with_shards(3, 1);
        cache.insert(&[1], 10, vec![hit(1)]);
        cache.insert(&[2], 10, vec![hit(2)]);
        cache.insert(&[3], 10, vec![hit(3)]);
        // Touch [1]: now [2] is the LRU entry.
        assert!(cache.get(&[1], 10).is_some());
        cache.insert(&[4], 10, vec![hit(4)]);
        assert!(cache.get(&[2], 10).is_none(), "LRU after refresh is [2]");
        assert!(cache.get(&[1], 10).is_some(), "refreshed entry survives");
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let cache = ResultCache::with_shards(2, 1);
        cache.insert(&[1], 10, vec![hit(1)]);
        cache.insert(&[2], 10, vec![hit(2)]);
        cache.insert(&[1], 10, vec![hit(99)]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&[1], 10).unwrap()[0].doc_id, 99);
        assert!(cache.get(&[2], 10).is_some());
    }

    #[test]
    fn eviction_slots_are_reused() {
        let cache = ResultCache::with_shards(2, 1);
        for i in 0..100u32 {
            cache.insert(&[i], 10, vec![hit(i)]);
        }
        assert_eq!(cache.len(), 2);
        let shard = cache.shards[0].lock().unwrap();
        assert!(
            shard.slots.len() <= 3,
            "arena should recycle slots, used {}",
            shard.slots.len()
        );
    }

    #[test]
    fn get_or_compute_counts_hits() {
        let cache = ResultCache::new(8);
        let (r1, was_hit) = cache.get_or_compute(&[5, 6], 10, || vec![hit(42)]);
        assert!(!was_hit);
        assert_eq!(r1[0].doc_id, 42);
        let (r2, was_hit) = cache.get_or_compute(&[6, 5], 10, || unreachable!("cached"));
        assert!(was_hit);
        assert_eq!(r2[0].doc_id, 42);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_hits_count_once_per_subscriber() {
        let registry = Arc::new(MetricsRegistry::new());
        let cache = ResultCache::with_shards(8, 1).with_registry(registry.clone());
        // Miss shared by 3 tenants: 1 physical miss + 2 per-tenant hits.
        let (_, was_hit) = cache.get_or_compute(&[1, 2], 10, || vec![hit(1)]);
        cache.add_hits(&CacheKey::new(&[1, 2], 10), 2);
        assert!(!was_hit);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        // Hit shared by 4 tenants: all 4 count as hits.
        let (_, was_hit) = cache.get_or_compute(&[2, 1], 10, || unreachable!());
        cache.add_hits(&CacheKey::new(&[2, 1], 10), 3);
        assert!(was_hit);
        assert_eq!(cache.hits(), 6);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 6.0 / 7.0).abs() < 1e-12);
        // The per-shard obs counters agree with the global atomics.
        assert_eq!(registry.counter_total(M_CACHE_SHARD_HITS), 6);
        assert_eq!(registry.counter_total(M_CACHE_SHARD_MISSES), 1);
        // No extra subscriber adds nothing.
        cache.add_hits(&CacheKey::new(&[1, 2], 10), 0);
        assert_eq!(cache.hits(), 6);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = std::sync::Arc::new(ResultCache::new(64));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..200u32 {
                        // Keys normalize by sorting, so the expected value
                        // must be order-independent too.
                        let q = [i % 32, t % 4];
                        let (lo, hi) = (q[0].min(q[1]), q[0].max(q[1]));
                        let (hits, _) = cache.get_or_compute(&q, 10, || vec![hit(lo * 100 + hi)]);
                        assert_eq!(hits[0].doc_id, lo * 100 + hi);
                    }
                });
            }
        });
        assert!(cache.hits() > 0);
        assert!(cache.len() <= 64);
    }

    #[test]
    fn registry_binding_publishes_per_shard_counts() {
        let registry = Arc::new(MetricsRegistry::new());
        // Single shard so hit/miss/eviction attribution is deterministic.
        let cache = ResultCache::with_shards(2, 1).with_registry(registry.clone());
        cache.insert(&[1], 10, vec![hit(1)]);
        cache.insert(&[2], 10, vec![hit(2)]);
        cache.insert(&[3], 10, vec![hit(3)]); // evicts [1]
        assert!(cache.get(&[2], 10).is_some());
        assert!(cache.get(&[1], 10).is_none());
        assert_eq!(registry.counter_total(M_CACHE_SHARD_HITS), 1);
        assert_eq!(registry.counter_total(M_CACHE_SHARD_MISSES), 1);
        assert_eq!(registry.counter_total(M_CACHE_EVICTIONS), 1);
        let lookups = registry.merged_histogram(M_CACHE_LOOKUP_US).unwrap();
        assert_eq!(lookups.count(), 2);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache = ResultCache::new(0);
        cache.insert(&[1], 10, vec![hit(1)]);
        assert!(cache.get(&[1], 10).is_none());
        assert!(cache.is_empty());
    }
}
