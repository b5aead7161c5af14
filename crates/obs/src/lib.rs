//! # toppriv-obs — hand-rolled observability for the TopPriv fleet
//!
//! The offline build environment rules out `tracing`, `prometheus`, and
//! `hdrhistogram`, so this crate provides the minimal production set by
//! hand, in the same spirit as the vendored serde/proptest stand-ins:
//!
//! - [`Histogram`] — log-linear HDR-style latency histograms: bounded
//!   memory, ~1% relative bucket error ([`RELATIVE_ERROR`]), lock-free
//!   recording, exact merges;
//! - [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and
//!   histograms with label support (`shard`, `session`, `stage`);
//!   handles are `Arc`s over atomics so hot paths never lock;
//! - [`Tracer`] / [`Span`] — request-lifecycle spans with ids and
//!   parent links, journaled into a fixed ring buffer;
//! - [`AuditLog`] / [`HealthReport`] — the bounded audit-event journal
//!   and aggregated verdict behind the service-layer privacy auditor;
//! - exposition — [`render_prometheus`] and [`render_ndjson`].
//!
//! Process-wide instrumentation (the search engines, index build,
//! pacing) records into [`global()`]; service-level components keep
//! per-instance registries so experiments and tests stay isolated, and
//! can be pointed at the global one for unified exposition.
//!
//! ```
//! use toppriv_obs::{MetricsRegistry, render_prometheus};
//!
//! let reg = MetricsRegistry::new();
//! let lat = reg.histogram("submit_us", &[("shard", "0")]);
//! lat.record(120);
//! reg.counter("submits_total", &[("shard", "0")]).inc();
//! assert!(render_prometheus(&reg).contains("submits_total{shard=\"0\"} 1"));
//! ```

#![warn(missing_docs)]

mod audit;
mod expo;
mod hist;
mod registry;
mod span;

pub use audit::{AuditEvent, AuditLog, AuditSeverity, HealthReport};
pub use expo::{imbalance, parse_ndjson_line, render_ndjson, render_prometheus};
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS, RELATIVE_ERROR, SUBBUCKETS};
pub use registry::{
    Counter, Gauge, HistogramHandle, Label, MetricSnapshot, MetricValue, MetricsRegistry,
};
pub use span::{Span, SpanEvent, Tracer, ROOT};

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, recovering the inner value if a previous holder
/// panicked. Observability must degrade, never take the process down:
/// a poisoned metrics lock yields the last written state instead of a
/// cascading panic.
pub fn recover_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Read-locks an `RwLock`, recovering from poisoning (see
/// [`recover_lock`]).
pub fn recover_read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write-locks an `RwLock`, recovering from poisoning (see
/// [`recover_lock`]).
pub fn recover_write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

static GLOBAL_REGISTRY: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
static GLOBAL_TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();

/// The process-global metrics registry. Engine-layer instrumentation
/// (scatter/gather latency, index shard sizes, pacing jitter) records
/// here; `toppriv-serve` reads it.
pub fn global() -> &'static Arc<MetricsRegistry> {
    GLOBAL_REGISTRY.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// The process-global tracer (journal capacity 4096 events).
pub fn tracer() -> &'static Arc<Tracer> {
    GLOBAL_TRACER.get_or_init(|| Arc::new(Tracer::new(4096)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("lib_test_total", &[]).inc();
        assert!(global().counter_total("lib_test_total") >= 1);
    }

    #[test]
    fn recover_helpers_survive_poison() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*recover_lock(&m), 5);

        let l = Arc::new(RwLock::new(7u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*recover_read(&l), 7);
        *recover_write(&l) = 8;
        assert_eq!(*recover_read(&l), 8);
    }

    #[test]
    fn tracer_spans_record() {
        let t = tracer();
        let before = t.recorded();
        {
            let _s = t.span("lib_test");
        }
        assert!(t.recorded() > before);
    }
}
