//! Named metrics with label support.
//!
//! A [`MetricsRegistry`] hands out cheap clonable handles ([`Counter`],
//! [`Gauge`], [`Histogram`][crate::Histogram] via [`HistogramHandle`])
//! keyed by name + sorted label set. Handles are `Arc`s over atomics, so
//! the hot path (increment, record) never takes the registry lock — the
//! `RwLock` guards only handle creation and snapshotting.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::recover_write;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One `key="value"` metric label (a named struct rather than a tuple so
/// the vendored serde derive can serialize it).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Label {
    /// Label key, e.g. `shard`.
    pub key: String,
    /// Label value, e.g. `3`.
    pub value: String,
}

impl Label {
    /// Builds a label.
    pub fn new(key: impl Into<String>, value: impl Into<String>) -> Self {
        Label {
            key: key.into(),
            value: value.into(),
        }
    }
}

/// Internal registry key: metric name plus its sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<Label>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<Label> {
    let mut out: Vec<Label> = labels.iter().map(|(k, v)| Label::new(*k, *v)).collect();
    out.sort();
    out
}

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic.
///
/// ```
/// let reg = toppriv_obs::MetricsRegistry::new();
/// let c = reg.counter("requests_total", &[("shard", "0")]);
/// c.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter detached from any registry (handy for tests).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Cloning shares the
/// underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge detached from any registry (handy for tests).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Sets the value to `max(current, v)` — a high-water mark.
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// A shared handle to a registry histogram.
pub type HistogramHandle = Arc<Histogram>;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

/// The value part of a metric snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A point-in-time reading of one named metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label set.
    pub labels: Vec<Label>,
    /// The reading.
    pub value: MetricValue,
}

/// A registry of named counters, gauges, and histograms.
///
/// Handles are created (or fetched) by name + label set; asking twice
/// for the same key returns handles over the same storage. Requesting an
/// existing name with a *different* metric type returns a fresh detached
/// handle rather than panicking (the registry keeps the original).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = MetricKey {
            name: name.to_string(),
            labels: sorted_labels(labels),
        };
        let mut map = recover_write(&self.metrics);
        map.entry(key).or_insert_with(make).clone()
    }

    /// Gets or creates the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => Counter::new(),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// Gets or creates the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Drops the series `name{labels}` from the registry; returns whether
    /// it was registered. Handles already handed out stay usable but are
    /// detached — nothing exports them any more — and asking for the
    /// same key again creates a fresh series. This is what keeps series
    /// labelled by something a client chose (a tenant id) bounded by what
    /// is live, not by what was ever seen.
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let key = MetricKey {
            name: name.to_string(),
            labels: sorted_labels(labels),
        };
        recover_write(&self.metrics).remove(&key).is_some()
    }

    /// Snapshots every metric, sorted by name then labels.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = crate::recover_read(&self.metrics);
        map.iter()
            .map(|(key, metric)| MetricSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Merges every histogram registered under `name` (across all label
    /// sets) into one, or `None` if the name has no histograms.
    pub fn merged_histogram(&self, name: &str) -> Option<Histogram> {
        let map = crate::recover_read(&self.metrics);
        let mut merged: Option<Histogram> = None;
        for (key, metric) in map.iter() {
            if key.name != name {
                continue;
            }
            if let Metric::Histogram(h) = metric {
                let m = merged.get_or_insert_with(Histogram::new);
                m.merge(h);
            }
        }
        merged
    }

    /// Sums every counter registered under `name` across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        let map = crate::recover_read(&self.metrics);
        map.iter()
            .filter(|(key, _)| key.name == name)
            .map(|(_, metric)| match metric {
                Metric::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    }

    /// Per-label-set counter readings for `name`, in label order.
    pub fn counter_values(&self, name: &str) -> Vec<(Vec<Label>, u64)> {
        let map = crate::recover_read(&self.metrics);
        map.iter()
            .filter(|(key, _)| key.name == name)
            .filter_map(|(key, metric)| match metric {
                Metric::Counter(c) => Some((key.labels.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        crate::recover_read(&self.metrics).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("shard", "0")]);
        let b = reg.counter("x_total", &[("shard", "0")]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter_total("x_total"), 5);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("y_total", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("y_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn remove_detaches_the_series_and_a_new_one_starts_fresh() {
        let reg = MetricsRegistry::new();
        let old = reg.gauge("tenant_x", &[("tenant", "a")]);
        old.set(7);
        reg.gauge("tenant_x", &[("tenant", "b")]).set(9);
        assert!(reg.remove("tenant_x", &[("tenant", "a")]));
        assert!(!reg.remove("tenant_x", &[("tenant", "a")]), "already gone");
        assert_eq!(reg.len(), 1, "the other label set is untouched");
        old.set(8); // detached: still usable, exported nowhere
        assert_eq!(reg.gauge("tenant_x", &[("tenant", "a")]).get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn merged_histogram_spans_label_sets() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat_us", &[("shard", "0")]).record(10);
        reg.histogram("lat_us", &[("shard", "1")]).record(20);
        let merged = reg.merged_histogram("lat_us").unwrap();
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 20);
        assert!(reg.merged_histogram("missing").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("b_gauge", &[]).set(-3);
        reg.counter("a_total", &[("shard", "1")]).add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a_total");
        assert_eq!(snap[0].value, MetricValue::Counter(2));
        assert_eq!(snap[1].value, MetricValue::Gauge(-3));
        let json = serde_json::to_string(&snap[0]).unwrap();
        let back: MetricSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap[0]);
    }

    #[test]
    fn type_mismatch_degrades_instead_of_panicking() {
        let reg = MetricsRegistry::new();
        reg.counter("mixed", &[]).add(3);
        let g = reg.gauge("mixed", &[]);
        g.set(9); // detached handle; original counter untouched
        assert_eq!(reg.counter_total("mixed"), 3);
    }
}
