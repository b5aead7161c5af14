//! The benchmark's contract in one place: workload names, every metric's
//! name, unit, direction and bound, and what each per-layer metric is
//! expected to move. `BENCHMARK.json` at the repository root restates the
//! first three; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_cold",
        why: "closed loop over TCP, distinct queries so every cache lookup misses: every cycle member reaches search/index",
    },
    Workload {
        name: "wire_hot",
        why: "closed loop over TCP, 256 Zipf-hot queries plus 1 in 8 unseen: members are cache hits, time is formulation, protocol, session",
    },
    Workload {
        name: "wire_open",
        why: "open loop at a fixed rate over TCP against 4 shards, with tenant churn, scrapes and 1 search in 8.5 sent straight after an answer; latency from due time",
    },
    Workload {
        name: "fleet_drain",
        why: "in-process plan and drain rounds through scheduler and ghost planner, the paced path the wire cannot reach",
    },
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is defined on every workload (README, "What each
/// metric means on each workload").
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_genuine",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "engine_evals_per_genuine",
        unit: "count",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "drain_submissions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "fleet_genuine_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "planner_cost_ratio",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 41] = [
    layer(
        "server.transport_us",
        "us",
        Lower,
        "search_p50_ms on every wire_*; search_p95_ms on wire_open",
    ),
    layer("server.handle_us", "us", Lower, "parent row of the ledger"),
    layer(
        "protocol.parse_us",
        "us",
        Lower,
        "search_p50_ms, cpu_ms_per_genuine on wire_hot",
    ),
    layer(
        "protocol.encode_us",
        "us",
        Lower,
        "search_p50_ms, cpu_ms_per_genuine on wire_hot",
    ),
    layer(
        "protocol.resp_bytes",
        "B",
        Lower,
        "protocol.encode_us, server.transport_us",
    ),
    layer(
        "text.analyze_us",
        "us",
        Lower,
        "cpu_ms_per_genuine on wire_hot",
    ),
    layer(
        "core.formulate_us",
        "us",
        Lower,
        "search_p50_ms, cpu_ms_per_genuine on wire_hot; fleet_genuine_qps on fleet_drain",
    ),
    layer(
        "core.cycle_len",
        "count",
        Lower,
        "engine_evals_per_genuine everywhere",
    ),
    layer(
        "core.satisfied_frac",
        "frac",
        Higher,
        "none: the privacy certificate must hold while the rest moves",
    ),
    layer("lda.infer_us", "us", Lower, "core.formulate_us on wire_hot"),
    layer("session.search_us", "us", Lower, "server.handle_us"),
    layer("session.self_us", "us", Lower, "search_p50_ms on wire_hot"),
    layer(
        "session.plan_us",
        "us",
        Lower,
        "fleet_genuine_qps on fleet_drain",
    ),
    layer(
        "session.churn_p50_ms",
        "ms",
        Lower,
        "peak_rss_mb on wire_open",
    ),
    layer("cache.lookup_us", "us", Lower, "search_p50_ms on wire_hot"),
    layer("cache.insert_us", "us", Lower, "search_p50_ms on wire_cold"),
    layer(
        "cache.hit_rate",
        "frac",
        Higher,
        "engine_evals_per_genuine on wire_hot",
    ),
    layer(
        "cache.evictions_per_genuine",
        "count",
        Lower,
        "cache.insert_us on wire_cold",
    ),
    layer(
        "search.eval_us",
        "us",
        Lower,
        "search_p50_ms, cpu_ms_per_genuine, search_qps on wire_cold, wire_open; flat on wire_hot",
    ),
    layer(
        "search.shard_eval_us",
        "us",
        Lower,
        "search.eval_us on wire_open; drain_submissions_per_s on fleet_drain",
    ),
    layer(
        "search.gather_us",
        "us",
        Lower,
        "search.eval_us on wire_open, fleet_drain",
    ),
    layer(
        "search.shards_touched",
        "count",
        Lower,
        "search.shard_eval_us on wire_open, fleet_drain",
    ),
    layer(
        "index.decode_us",
        "us",
        Lower,
        "search.eval_us on wire_cold",
    ),
    layer(
        "index.postings_per_member",
        "count",
        Lower,
        "index.decode_us on wire_cold",
    ),
    layer(
        "planner.plan_us",
        "us",
        Lower,
        "fleet_genuine_qps on fleet_drain",
    ),
    layer(
        "planner.reuse_per_genuine",
        "count",
        Higher,
        "planner_cost_ratio on fleet_drain",
    ),
    layer(
        "planner.coalesced_per_genuine",
        "count",
        Higher,
        "planner_cost_ratio on fleet_drain",
    ),
    layer(
        "scheduler.drain_s",
        "s",
        Lower,
        "drain_submissions_per_s on fleet_drain",
    ),
    layer(
        "scheduler.queue_wait_p50_us",
        "us",
        Lower,
        "drain_submissions_per_s on fleet_drain",
    ),
    layer(
        "scheduler.queue_wait_p99_us",
        "us",
        Lower,
        "search_p95_ms on fleet_drain",
    ),
    layer(
        "scheduler.service_p50_us",
        "us",
        Lower,
        "drain_submissions_per_s on fleet_drain",
    ),
    layer(
        "scheduler.busy_frac",
        "frac",
        Higher,
        "drain_submissions_per_s on fleet_drain",
    ),
    layer(
        "scheduler.shard_imbalance",
        "ratio",
        Lower,
        "scheduler.busy_frac on fleet_drain",
    ),
    layer(
        "obs.scrape_p50_ms",
        "ms",
        Lower,
        "search_p50_ms on wire_open",
    ),
    layer(
        "obs.scrape_bytes_end",
        "B",
        Lower,
        "obs.scrape_p50_ms, peak_rss_mb on wire_open",
    ),
    layer(
        "obs.series_end",
        "count",
        Lower,
        "obs.scrape_bytes_end on wire_open",
    ),
    layer(
        "loadgen.send_lag_p99_ms",
        "ms",
        Lower,
        "nothing: instrument health",
    ),
    layer(
        "loadgen.samples",
        "count",
        Higher,
        "nothing: instrument health",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "nothing: instrument health",
    ),
    layer(
        "ledger.residual_frac",
        "frac",
        Lower,
        "nothing: instrument health",
    ),
    layer(
        "ledger.replay_vs_server_cpu",
        "ratio",
        Lower,
        "nothing: instrument health (replayed handle time over server CPU per genuine)",
    ),
];

/// What to print beside a metric: the better direction, its bound if it has
/// one, and for a per-layer metric what it should move.
pub fn reading_aid(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        format!(
            "{} is better, bound {:.0} %",
            m.better.as_str(),
            100.0 * m.bound
        )
    } else if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
        format!("{} is better; moves {}", m.better.as_str(), m.moves)
    } else {
        String::new()
    }
}

/// The contract's name rule: starts with a letter or digit, at most 64 of
/// letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The contract's unit rule: at most 16 of letters, digits, `_ / % . -`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::HashSet;

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::String(s)) => s,
            other => panic!("{key}: expected string, got {other:?}"),
        }
    }

    fn seq_of<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Seq(items)) => items,
            other => panic!("{key}: expected array, got {other:?}"),
        }
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty());
            assert!(seen.insert(m.name));
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_unit("ms per op"));
    }

    #[test]
    fn benchmark_json_restates_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(json.get("run_seconds"), Some(&Value::UInt(RUN_SECONDS)));
        let workloads = seq_of(&json, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
        }
        let e2e = seq_of(&json, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound"), Some(&Value::Float(m.bound)), "{}", m.name);
        }
        let layers = seq_of(&json, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
        }
    }
}
