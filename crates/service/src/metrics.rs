//! Service-wide observability.
//!
//! [`ServiceMetrics`] is the shared front door every subsystem reports
//! into: the session manager's resolutions (a hit or a miss per
//! subscriber, one latency sample per entry), the cycle scheduler (queue
//! depth) and the ghost planner (reuse, coalescing). Each fact is counted
//! once, where it is decided: `SessionManager::resolve` decides every hit
//! and miss, and the result cache keeps no tally of its own. A figure
//! derived from counters — members resolved, ghosts processed, the fleet
//! cost ratio — is computed from them by [`ServiceMetrics::snapshot`] when
//! it is read, and never stored as a series of its own.
//!
//! The storage behind it is a [`toppriv_obs::MetricsRegistry`] — named
//! counters/gauges/histograms over lock-free atomics — so the
//! hot paths never take a lock that a panicked worker could poison, and
//! the same registry feeds the NDJSON/Prometheus exposition in
//! `toppriv-serve`.
//!
//! Submit latency lives in a log-linear HDR-style histogram
//! ([`toppriv_obs::Histogram`]): bounded memory, deterministic,
//! mergeable, and within [`toppriv_obs::RELATIVE_ERROR`] on every
//! percentile.
//!
//! Each `ServiceMetrics::new()` gets a private registry so managers in
//! tests and experiments stay isolated; `toppriv-serve` constructs one
//! over [`toppriv_obs::global()`] so engine-layer metrics (scatter /
//! gather, pacing) and service metrics expose through one endpoint.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use toppriv_obs::{Counter, Gauge, HistogramHandle, MetricsRegistry};

/// Metric name: resolutions served from the result cache.
pub const M_CACHE_HITS: &str = "service_cache_hits_total";
/// Metric name: resolutions that reached the engine.
pub const M_CACHE_MISSES: &str = "service_cache_misses_total";
/// Metric name: genuine queries served.
pub const M_GENUINE: &str = "service_genuine_total";
/// Metric name: scheduler queue depth (entries of the current drain not
/// yet claimed).
pub const M_QUEUE_DEPTH: &str = "scheduler_queue_depth";
/// Metric name: high-water mark of the queue depth.
pub const M_QUEUE_DEPTH_MAX: &str = "scheduler_queue_depth_max";
/// Metric name: resolution latency histogram (µs), one sample per
/// resolved entry.
pub const M_SUBMIT_US: &str = "service_submit_us";
/// Metric name: unique engine-side submissions — one per queue entry
/// resolved against the cache/tier, regardless of how many tenants
/// subscribe to it.
pub const M_ENGINE_SUBMITS: &str = "service_engine_submits_total";
/// Metric name: ghost members the planner replaced with another tenant's
/// already-planned submission (donor reuse).
pub const M_PLANNER_REUSE: &str = "planner_reuse_total";
/// Metric name: planned submissions coalesced into an existing shared
/// queue entry instead of being enqueued (engine submissions avoided).
pub const M_PLANNER_COALESCED: &str = "planner_coalesced_total";

/// Shared counters and the submit-latency histogram, backed by a
/// metrics registry.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    cache_hits: Counter,
    cache_misses: Counter,
    genuine_served: Counter,
    queue_depth: Gauge,
    max_queue_depth: Gauge,
    submit_us: HistogramHandle,
    engine_submits: Counter,
    planner_reuse: Counter,
    planner_coalesced: Counter,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A fresh, private registry (what tests and experiments want: no
    /// cross-talk between managers).
    pub fn new() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Metrics over an existing registry — pass
    /// [`toppriv_obs::global()`]'s clone to unify service metrics with
    /// the engine-layer instrumentation for exposition.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        ServiceMetrics {
            cache_hits: registry.counter(M_CACHE_HITS, &[]),
            cache_misses: registry.counter(M_CACHE_MISSES, &[]),
            genuine_served: registry.counter(M_GENUINE, &[]),
            queue_depth: registry.gauge(M_QUEUE_DEPTH, &[]),
            max_queue_depth: registry.gauge(M_QUEUE_DEPTH_MAX, &[]),
            submit_us: registry.histogram(M_SUBMIT_US, &[]),
            engine_submits: registry.counter(M_ENGINE_SUBMITS, &[]),
            planner_reuse: registry.counter(M_PLANNER_REUSE, &[]),
            planner_coalesced: registry.counter(M_PLANNER_COALESCED, &[]),
            registry,
        }
    }

    /// The backing registry (for exposition and stage histograms).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Records one resolved entry as `SessionManager::resolve` decided
    /// it: one **unique** engine-side submission, counted once no matter
    /// how many tenants subscribe to its results; one latency sample; and
    /// one hit or miss per subscriber, `genuine` holding whether each is
    /// its tenant's genuine query. The first subscriber counts
    /// `cache_hit`; each one beyond it is served from that resolution and
    /// counts a hit. Entirely lock-free.
    pub fn record_resolved(&self, latency_us: u64, cache_hit: bool, genuine: &[bool]) {
        self.engine_submits.inc();
        self.submit_us.record(latency_us);
        if let Some((_, shared)) = genuine.split_first() {
            if cache_hit {
                self.cache_hits.inc();
            } else {
                self.cache_misses.inc();
            }
            self.cache_hits.add(shared.len() as u64);
        }
        let genuine = genuine.iter().filter(|&&g| g).count();
        self.genuine_served.add(genuine as u64);
    }

    /// Counts one planner donor-reuse substitution.
    pub fn record_planner_reuse(&self) {
        self.planner_reuse.inc();
    }

    /// Counts one planned submission coalesced into a shared queue entry.
    pub fn record_planner_coalesced(&self) {
        self.planner_coalesced.inc();
    }

    /// Engine submissions per genuine query (the fleet cost ratio υ_eff);
    /// 0 before any genuine query was served.
    pub fn fleet_cost_ratio(&self) -> f64 {
        let genuine = self.genuine_served.get();
        if genuine == 0 {
            0.0
        } else {
            self.engine_submits.get() as f64 / genuine as f64
        }
    }

    /// Sets the instantaneous queue depth (and bumps the high-water mark).
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as i64);
        self.max_queue_depth.fetch_max(depth as i64);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.get().max(0) as usize
    }

    /// Cache hit rate over all recorded submits.
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.cache_hits.get() as f64;
        let m = self.cache_misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Snapshot of every global counter, the figures derived from them,
    /// and latency percentiles (computed over the resolution-latency
    /// histogram).
    pub fn snapshot(&self) -> GlobalMetrics {
        let submitted = self.cache_hits.get() + self.cache_misses.get();
        let genuine_served = self.genuine_served.get();
        GlobalMetrics {
            submitted,
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_hit_rate: self.cache_hit_rate(),
            genuine_served,
            // Read apart from the counters it sums, so a concurrent
            // resolution may show in one and not yet the other.
            ghosts_processed: submitted.saturating_sub(genuine_served),
            queue_depth: self.queue_depth(),
            max_queue_depth: self.max_queue_depth.get().max(0) as usize,
            p50_submit_us: self.submit_us.percentile(0.50),
            p99_submit_us: self.submit_us.percentile(0.99),
            engine_submits: self.engine_submits.get(),
            fleet_cost_ratio: self.fleet_cost_ratio(),
            planner_reuse: self.planner_reuse.get(),
            planner_coalesced: self.planner_coalesced.get(),
        }
    }
}

/// Serializable snapshot of the global counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalMetrics {
    /// Total cycle members resolved: `cache_hits + cache_misses`.
    pub submitted: u64,
    /// Lookups served from cache.
    pub cache_hits: u64,
    /// Lookups that reached the engine.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`.
    pub cache_hit_rate: f64,
    /// Genuine queries answered.
    pub genuine_served: u64,
    /// Ghost queries processed: `submitted − genuine_served`.
    pub ghosts_processed: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub max_queue_depth: usize,
    /// Median resolution latency per entry (µs).
    pub p50_submit_us: u64,
    /// 99th-percentile resolution latency per entry (µs).
    pub p99_submit_us: u64,
    /// Unique engine-side submissions (one per resolved queue entry).
    pub engine_submits: u64,
    /// Engine submissions per genuine query (υ_eff; 0 before traffic):
    /// `engine_submits / genuine_served`.
    pub fleet_cost_ratio: f64,
    /// Planner donor-reuse substitutions.
    pub planner_reuse: u64,
    /// Planned submissions coalesced into shared queue entries.
    pub planner_coalesced: u64,
}

/// Per-session privacy accounting, maintained by the session itself.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SessionMetrics {
    /// Session identifier.
    pub session: String,
    /// Protected searches served.
    pub cycles: u64,
    /// Total queries emitted (genuine + ghosts).
    pub queries_emitted: u64,
    /// Mean cycle length υ.
    pub mean_cycle_len: f64,
    /// Mean per-cycle exposure `max_{t∈U} B(t|C)`.
    pub mean_exposure: f64,
    /// Worst per-cycle exposure seen.
    pub worst_exposure: f64,
    /// Mean mask level `max_{t∈T\U} B(t|C)`.
    pub mean_mask_level: f64,
    /// Fraction of cycles whose `(ε1, ε2)` requirement was satisfied.
    pub satisfied_rate: f64,
    /// Exposure of the whole recorded trace (Equation 2 over the session).
    pub trace_exposure: f64,
}

/// Full service snapshot: global counters plus one entry per session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Global counters.
    pub global: GlobalMetrics,
    /// Per-session privacy metrics, sorted by session id.
    pub sessions: Vec<SessionMetrics>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_rates() {
        let m = ServiceMetrics::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            m.record_resolved(us, us <= 30, &[us == 10]);
        }
        let snap = m.snapshot();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 7);
        assert!((snap.cache_hit_rate - 0.3).abs() < 1e-12);
        assert_eq!(snap.genuine_served, 1);
        assert_eq!(snap.ghosts_processed, 9);
        // Values below 2×SUBBUCKETS sit in exact histogram buckets, so
        // these percentiles are exact, same as the old sorted sample.
        assert_eq!(snap.p50_submit_us, 50);
        assert_eq!(snap.p99_submit_us, 100);
    }

    #[test]
    fn queue_depth_high_water() {
        let m = ServiceMetrics::new();
        m.set_queue_depth(5);
        m.set_queue_depth(12);
        m.set_queue_depth(3);
        let snap = m.snapshot();
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.max_queue_depth, 12);
    }

    #[test]
    fn latency_memory_is_bounded_and_tail_exact_enough() {
        // The histogram covers the whole stream in fixed memory; unlike
        // the old reservoir there is no sampling, so the p99 of a known
        // stream is within the documented relative error.
        let m = ServiceMetrics::new();
        let n = 32_768u64;
        for i in 0..n {
            m.record_resolved(i, false, &[false]);
        }
        let snap = m.snapshot();
        assert_eq!(snap.submitted, n);
        let exact_p99 = (n as f64 * 0.99).ceil() as u64 - 1;
        let err = snap.p99_submit_us.abs_diff(exact_p99) as f64;
        assert!(
            err <= exact_p99 as f64 * toppriv_obs::RELATIVE_ERROR + 1.0,
            "p99 {} vs exact {exact_p99}",
            snap.p99_submit_us
        );
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let snap = ServiceMetrics::new().snapshot();
        assert_eq!(snap.p50_submit_us, 0);
        assert_eq!(snap.p99_submit_us, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
    }

    #[test]
    fn fleet_cost_ratio_tracks_engine_submissions_per_genuine() {
        let m = ServiceMetrics::new();
        assert_eq!(m.fleet_cost_ratio(), 0.0);
        // One genuine query whose cycle resolved 7 unique queue entries.
        m.record_resolved(10, false, &[true]);
        for _ in 0..6 {
            m.record_resolved(10, false, &[false]);
        }
        let snap = m.snapshot();
        assert_eq!(snap.engine_submits, 7);
        assert!((snap.fleet_cost_ratio - 7.0).abs() < 1e-12);
        // Coalescing: the next genuine query subscribes to 2 fresh
        // entries beside another tenant's ghosts, so 9 submissions serve
        // 2 genuine queries. A subscriber beyond the first is a hit.
        m.record_resolved(10, false, &[false, true]);
        m.record_resolved(10, true, &[false, false]);
        assert!((m.fleet_cost_ratio() - 4.5).abs() < 1e-12);
        m.record_planner_reuse();
        m.record_planner_coalesced();
        m.record_planner_coalesced();
        let snap = m.snapshot();
        let tally = (snap.cache_misses, snap.cache_hits, snap.submitted);
        assert_eq!(tally, (8, 3, 11));
        assert_eq!((snap.genuine_served, snap.ghosts_processed), (2, 9));
        assert_eq!(snap.planner_reuse, 1);
        assert_eq!(snap.planner_coalesced, 2);
        // One latency sample per entry, not per subscriber.
        let samples = m
            .registry()
            .merged_histogram(M_SUBMIT_US)
            .expect("recorded");
        assert_eq!(samples.count(), 9);
    }

    #[test]
    fn registry_exposes_service_metrics() {
        let m = ServiceMetrics::new();
        m.record_resolved(42, true, &[true]);
        assert_eq!(m.registry().counter_total(M_CACHE_HITS), 1);
        let text = toppriv_obs::render_prometheus(m.registry());
        assert!(text.contains("service_cache_hits_total 1"));
        assert!(text.contains("service_submit_us_count 1"));
        // Derived figures are computed when read, not published.
        assert!(!text.contains("service_submits_total"));
        assert!(!text.contains("fleet_cost_ratio"));
    }
}
