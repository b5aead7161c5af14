//! Exact nanosecond samples and the timer-resolution check.
//!
//! Latencies are kept as raw `Instant` nanoseconds and percentiles are
//! nearest-rank over the sorted samples. The repo's `toppriv_obs::Histogram`
//! buckets values 1.6 % wide, which quantises a flat 44 ms latency to the
//! same reading on every run; a benchmark must be able to tell 44.0 from
//! 44.3, so it does not go through buckets.

use std::time::Instant;

/// A bag of nanosecond measurements.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Mean in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) in nanoseconds; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn p50_ms(&self) -> f64 {
        self.percentile(0.50) as f64 / 1e6
    }

    /// The tail the windows can support: at today's rates they hold 340–900
    /// `Search` samples, so p95 has at least ten samples beyond it and p99
    /// does not (ten seeds of `wire_cold` read p99 56–79 ms, p95 52–58 ms).
    pub fn p95_ms(&self) -> f64 {
        self.percentile(0.95) as f64 / 1e6
    }

    pub fn p99_ms(&self) -> f64 {
        self.percentile(0.99) as f64 / 1e6
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean() / 1e3
    }
}

/// The smallest non-zero step `Instant` shows on this machine, in ns.
pub fn timer_resolution_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..2_000 {
        let t0 = Instant::now();
        let mut dt = 0;
        while dt == 0 {
            dt = t0.elapsed().as_nanos() as u64;
        }
        best = best.min(dt);
    }
    best
}

/// Renders a stage time for people: a median the timer cannot resolve is
/// `unresolved`, never `0`.
pub fn fmt_stage_us(samples: &Samples, resolution_ns: u64) -> String {
    if samples.is_empty() {
        "n/a".into()
    } else if samples.percentile(0.5) < resolution_ns {
        "unresolved".into()
    } else {
        format!("{:.3}", samples.percentile(0.5) as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_exact() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push(v * 1_000_003);
        }
        assert_eq!(s.percentile(0.50), 50 * 1_000_003);
        assert_eq!(s.percentile(0.99), 99 * 1_000_003);
        assert_eq!(s.percentile(1.0), 100 * 1_000_003);
        assert_eq!(Samples::default().percentile(0.5), 0);
    }

    #[test]
    fn sub_resolution_median_prints_unresolved() {
        let mut s = Samples::default();
        s.push(3);
        s.push(4);
        assert_eq!(fmt_stage_us(&s, 25), "unresolved");
        assert_eq!(fmt_stage_us(&Samples::default(), 25), "n/a");
        assert!(timer_resolution_ns() >= 1);
    }
}
