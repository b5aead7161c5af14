//! Exposition: Prometheus text and NDJSON.
//!
//! Two live renderings of a [`MetricsRegistry`]:
//!
//! - [`render_prometheus`] — the Prometheus text format (counters and
//!   gauges as plain samples, histograms summary-style with `_count`,
//!   `_sum`, and `quantile=` samples);
//! - [`render_ndjson`] — one serialized [`MetricSnapshot`] per line,
//!   the same payload `toppriv-serve`'s NDJSON `metrics` command and
//!   `--metrics-interval` emitter use.
//!
//! Plus [`imbalance`], the max-over-mean summary of per-shard counts.

use crate::registry::{Label, MetricSnapshot, MetricValue, MetricsRegistry};

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[Label], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|l| format!("{}=\"{}\"", l.key, escape_label_value(&l.value)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders the registry in the Prometheus text exposition format.
///
/// ```
/// let reg = toppriv_obs::MetricsRegistry::new();
/// reg.counter("submits_total", &[("shard", "0")]).add(5);
/// let text = toppriv_obs::render_prometheus(&reg);
/// assert!(text.contains("submits_total{shard=\"0\"} 5"));
/// ```
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for snap in registry.snapshot() {
        match &snap.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    snap.name,
                    render_labels(&snap.labels, None),
                    v
                ));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    snap.name,
                    render_labels(&snap.labels, None),
                    v
                ));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    snap.name,
                    render_labels(&snap.labels, None),
                    h.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    snap.name,
                    render_labels(&snap.labels, None),
                    h.sum
                ));
                for (q, v) in [
                    ("0.5", h.p50),
                    ("0.9", h.p90),
                    ("0.99", h.p99),
                    ("0.999", h.p999),
                ] {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        snap.name,
                        render_labels(&snap.labels, Some(("quantile", q))),
                        v
                    ));
                }
            }
        }
    }
    out
}

/// Renders the registry as NDJSON: one [`MetricSnapshot`] JSON object
/// per line, in registry (name, labels) order.
pub fn render_ndjson(registry: &MetricsRegistry) -> Vec<String> {
    registry
        .snapshot()
        .iter()
        .filter_map(|snap| serde_json::to_string(snap).ok())
        .collect()
}

/// Parses one NDJSON line back into a [`MetricSnapshot`].
pub fn parse_ndjson_line(line: &str) -> Result<MetricSnapshot, String> {
    serde_json::from_str(line).map_err(|e| format!("{e:?}"))
}

/// Max-over-mean imbalance of per-shard counts. Structurally total: 0.0
/// for empty or all-zero input (no observed load means no imbalance, and
/// in particular no panic and no division by a zero mean).
pub fn imbalance(per_shard: &[u64]) -> f64 {
    let max = per_shard.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 0.0;
    }
    // f64 accumulation: huge counter sums must not overflow either.
    let total: f64 = per_shard.iter().map(|&c| c as f64).sum();
    let mean = total / per_shard.len() as f64;
    max as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_renders_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("subs_total", &[("shard", "2")]).add(9);
        reg.gauge("depth", &[]).set(-1);
        reg.histogram("lat_us", &[("stage", "gather")]).record(50);
        let text = render_prometheus(&reg);
        assert!(text.contains("subs_total{shard=\"2\"} 9"));
        assert!(text.contains("depth -1"));
        assert!(text.contains("lat_us_count{stage=\"gather\"} 1"));
        assert!(text.contains("lat_us_sum{stage=\"gather\"} 50"));
        assert!(text.contains("lat_us{stage=\"gather\",quantile=\"0.99\"} 50"));
    }

    #[test]
    fn ndjson_roundtrips() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("shard", "0")]).add(3);
        reg.histogram("b_us", &[]).record(77);
        let lines = render_ndjson(&reg);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let snap = parse_ndjson_line(line).unwrap();
            assert!(!snap.name.is_empty());
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
        assert!((imbalance(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[30, 10]) - 1.5).abs() < 1e-12);
        // Degenerate shapes must stay total: one loaded shard among
        // idle ones is max-over-mean = n, and a single shard is 1.0.
        assert!((imbalance(&[0, 0, 0, 12]) - 4.0).abs() < 1e-12);
        assert!((imbalance(&[7]) - 1.0).abs() < 1e-12);
        assert!(imbalance(&[u64::MAX, u64::MAX]).is_finite());
    }
}
