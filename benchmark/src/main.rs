//! The TopPriv service benchmark: one command that starts the real
//! `toppriv-serve`, drives it socket to socket, checks every answer against an
//! in-process oracle and prints every metric by name with its unit.
//!
//! ```text
//! toppriv-benchmark --seed 7                       all four workloads, end to end
//! toppriv-benchmark --seed 7 --trace               ... plus the traced runs and ledgers
//! toppriv-benchmark --seed 7 --repeat 2            two sets, compared against the bounds
//! toppriv-benchmark --seed 7 --smoke               2 s windows, checks the harness only
//! toppriv-benchmark --workload wire_hot --seed 7 --seconds 15 --trace 0
//! ```
//!
//! With `--workload` the last line of standard output is the one JSON object
//! the driver reads: `--trace 0` carries every end-to-end metric, `--trace 1`
//! every per-layer metric.

mod fleet;
mod loadgen;
mod server;
mod spec;
mod stack;
mod stats;
mod trace;
mod wire;

use loadgen::WireWorkload;
use spec::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::Samples;
use std::path::PathBuf;
use std::process::Command;
use toppriv::SyntheticCorpus;
use trace::{Decomposer, Ledger, SpanLog};

/// Server boots (or stack builds) per run; `setup_s` is their median. A boot
/// takes 1.1 or 1.5 s with little in between, and the median of an even count
/// (the mean of the middle two) drifts less between sets of runs than that of
/// three or five.
const SETUPS: usize = 4;
/// Discarded before every wire window; long enough to leave TCP quick-ack
/// mode and settle allocations.
const WARMUP_S: f64 = 2.0;
/// `wire_hot` touches its whole hot set first: 128 requests per connection at
/// today's 44 ms each.
const WARMUP_HOT_S: f64 = 6.5;
/// Share of `--seconds` a traced run spends on the wire (the rest is replay).
const TRACED_WIRE_SHARE: f64 = 0.4;
/// Queries a traced `fleet_drain` decomposes into layers.
const FLEET_DECOMPOSED: usize = 200;

struct Args {
    server_bin: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let default_bin = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("release/toppriv-serve");
    let mut args = Args {
        server_bin: default_bin,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--server-bin" => args.server_bin = PathBuf::from(value(&mut i, "--server-bin")?),
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                args.repeat = value(&mut i, "--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => args.smoke = true,
            // `--trace`, `--trace 0`, `--trace 1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--help" | "-h" => {
                println!(
                    "toppriv-benchmark --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]]\n\
                     \u{20}                 [--repeat <n>] [--smoke] [--server-bin <path>]\n\
                     workloads: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
        i += 1;
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload '{w}'"));
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    if args.smoke {
        args.seconds = 2.0;
    }
    Ok(args)
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Measurements behind the value.
    samples: u64,
}

/// What one run of one workload produced.
struct Report {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    metrics: Vec<Metric>,
    /// Answer digest per pool query (wire workloads).
    digests: std::collections::BTreeMap<usize, u64>,
    ledger: Option<Ledger>,
    notes: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `{:?}` of a finite f64 (`validate` saw to that) is its shortest
                // round-trip form: every digit measured, and valid JSON.
                format!(
                    r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// `tabulate` fixes names, units and order; what can still go wrong is the
    /// value: every one a finite number, end-to-end ones never 0.
    fn validate(&self) -> Result<(), String> {
        for m in &self.metrics {
            if !m.value.is_finite() || (!self.traced && m.value <= 0.0) {
                return Err(format!(
                    "{}: {} = {} is not a usable number",
                    self.workload, m.name, m.value
                ));
            }
        }
        Ok(())
    }

    fn print(&self) {
        let why = WORKLOADS
            .iter()
            .find(|w| w.name == self.workload)
            .map_or("", |w| w.why);
        println!(
            "\n== {} ({}) — attempted {}, failed {}, failed_frac {:.6}\n   {why}",
            self.workload,
            if self.traced {
                "traced run, per-layer"
            } else {
                "end to end"
            },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        if let Some(why) = &self.first_failure {
            println!("   first failure: {why}");
        }
        for m in &self.metrics {
            println!(
                "   {:<30} {:>16.6} {:<6} n={:<8} {}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                spec::reading_aid(m.name),
            );
        }
        for note in &self.notes {
            println!("   {note}");
        }
        if let Some(ledger) = &self.ledger {
            println!(
                "   ledger (µs per Search; wire RTT mean {:.1} µs):",
                ledger.rtt_us
            );
            for (row, us) in &ledger.rows {
                println!(
                    "     {:<20} {:>12.2}  {:>6.1} %",
                    row,
                    us,
                    100.0 * us / ledger.rtt_us.max(1e-9)
                );
            }
            println!(
                "     {:<20} {:>12.2}  {:>6.1} %",
                "residual",
                ledger.residual_frac * ledger.rtt_us,
                100.0 * ledger.residual_frac
            );
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Harness {
    args: Args,
    conns: usize,
    workers: usize,
    resolution_ns: u64,
}

impl Harness {
    fn setups(&self) -> usize {
        if self.args.smoke {
            1
        } else {
            SETUPS
        }
    }

    fn warmup(&self, kind: WireWorkload) -> f64 {
        match (self.args.smoke, kind) {
            (true, _) => 1.0,
            (false, WireWorkload::Hot) => WARMUP_HOT_S,
            (false, _) => WARMUP_S,
        }
    }

    fn wire_kind(name: &str) -> Option<WireWorkload> {
        [WireWorkload::Cold, WireWorkload::Hot, WireWorkload::Open]
            .into_iter()
            .find(|w| w.name() == name)
    }

    fn run(&self, workload: &'static str, traced: bool) -> Result<Report, String> {
        let report = match (Self::wire_kind(workload), traced) {
            (Some(kind), false) => self.wire_end_to_end(kind),
            (Some(kind), true) => self.wire_traced(kind),
            (None, false) => self.fleet_end_to_end(),
            (None, true) => self.fleet_traced(),
        }?;
        report.validate()?;
        Ok(report)
    }

    fn wire_config(&self, kind: WireWorkload, seconds: f64, setups: usize) -> wire::WireConfig {
        wire::WireConfig {
            workload: kind,
            seed: self.args.seed,
            seconds,
            warmup: self.warmup(kind),
            setups,
            server_bin: self.args.server_bin.clone(),
            conns: self.conns,
        }
    }

    fn wire_end_to_end(&self, kind: WireWorkload) -> Result<Report, String> {
        let corpus = SyntheticCorpus::generate(stack::corpus_config());
        let pool = stack::query_pool(&corpus, self.args.seed);
        let mut oracle = stack::Oracle::new(&corpus);
        let run = wire::run(
            &self.wire_config(kind, self.args.seconds, self.setups()),
            &pool,
            &mut oracle,
        )?;
        let n = run.search.len() as u64;
        let genuine = run.genuine as f64;
        let measured = [
            ("setup_s", median(&run.setup_s), run.setup_s.len() as u64),
            ("search_p50_ms", run.search.p50_ms(), n),
            ("search_p95_ms", run.search.p95_ms(), n),
            ("search_qps", ratio(n as f64, run.window_s), n),
            (
                "cpu_ms_per_genuine",
                ratio(run.cpu_ms, genuine),
                run.genuine,
            ),
            (
                "engine_evals_per_genuine",
                ratio(run.cache_misses as f64, genuine),
                run.genuine,
            ),
            ("peak_rss_mb", run.peak_rss_mb, 1),
            (
                "drain_submissions_per_s",
                ratio(run.submitted as f64, run.snapshot_s),
                run.submitted,
            ),
            (
                "fleet_genuine_qps",
                ratio(genuine, run.snapshot_s),
                run.genuine,
            ),
            (
                "planner_cost_ratio",
                ratio(run.engine_submits as f64, genuine),
                run.genuine,
            ),
        ];
        let mut notes = vec![format!(
            "{} connections × {} tenants, {} loop; Search/churn/scrape samples {}/{}/{}; server υ {:.2}; {} scores one ulp off the oracle",
            self.conns,
            loadgen::SESSIONS_PER_CONN,
            if kind.is_open_loop() { "open" } else { "closed" },
            n,
            run.churn.len(),
            run.scrape.len(),
            ratio(run.cycle_len_sum as f64, n as f64),
            run.scores_inexact,
        )];
        if kind.is_open_loop() {
            notes.push(format!(
                "loadgen.send_lag_p99_ms {:.4} ms (n={})",
                run.send_lag.p99_ms(),
                run.send_lag.len()
            ));
            notes.push(format!(
                "follow-up searches (sent the moment the previous answer arrives): p50 {:.3} ms, n={}",
                run.follow_up.p50_ms(),
                run.follow_up.len()
            ));
        }
        Ok(Report {
            workload: kind.name(),
            traced: false,
            attempted: run.attempted,
            failed: run.failed,
            first_failure: run.first_failure,
            metrics: end_to_end_metrics(&measured),
            digests: run.digests,
            ledger: None,
            notes,
        })
    }

    fn wire_traced(&self, kind: WireWorkload) -> Result<Report, String> {
        let (corpus, tier, model) = toppriv::build_demo_stack_sharded(
            stack::corpus_config(),
            stack::TOPICS,
            stack::LDA_ITERATIONS,
            kind.shards(),
        );
        let pool = stack::query_pool(&corpus, self.args.seed);
        let mut oracle = stack::Oracle::new(&corpus);
        let cfg = self.wire_config(kind, self.args.seconds * TRACED_WIRE_SHARE, 1);
        let run = wire::run(&cfg, &pool, &mut oracle)?;

        let off = trace::replay_pass(
            kind,
            self.args.seed,
            self.conns,
            &pool,
            &tier,
            &model,
            false,
        );
        let on = trace::replay_pass(kind, self.args.seed, self.conns, &pool, &tier, &model, true);
        let path = PathBuf::from(format!("benchmark/out/trace_{}.ndjson", kind.name()));
        on.log
            .write_ndjson(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let totals = on.log.totals();
        let c = &on.counts;
        let n = run.search.len() as u64;
        let rtt_us = run.search.mean_us();
        let ledger = trace::ledger(rtt_us, &totals, c.searches);
        let per = |name| trace::per_search_us(&totals, name, c.searches);
        let mean = |name| trace::mean_us(&totals, name);
        let replayed_ms =
            (per("protocol.parse") + per("server.handle") + per("protocol.encode")) / 1e3;
        let session_self = ledger
            .rows
            .iter()
            .find(|r| r.0 == "session.self")
            .map_or(0.0, |r| r.1);
        let calls = |name: &str| totals.get(name).map_or(0, |t| t.1);
        let measured = [
            ("server.transport_us", ledger.rows[0].1, n),
            ("server.handle_us", per("server.handle"), c.searches),
            ("protocol.parse_us", per("protocol.parse"), c.searches),
            ("protocol.encode_us", per("protocol.encode"), c.searches),
            (
                "protocol.resp_bytes",
                ratio(run.resp_bytes as f64, n as f64),
                n,
            ),
            ("text.analyze_us", per("text.analyze"), c.searches),
            ("core.formulate_us", per("core.formulate"), c.searches),
            (
                "core.cycle_len",
                ratio(run.cycle_len_sum as f64, n as f64),
                n,
            ),
            (
                "core.satisfied_frac",
                ratio(run.satisfied as f64, n as f64),
                n,
            ),
            ("lda.infer_us", per("lda.infer"), c.searches),
            ("session.search_us", per("session.search"), c.searches),
            ("session.self_us", session_self, c.searches),
            (
                "session.churn_p50_ms",
                run.churn.p50_ms(),
                run.churn.len() as u64,
            ),
            ("cache.lookup_us", mean("cache.lookup"), c.members),
            ("cache.insert_us", mean("cache.insert"), c.misses),
            (
                "cache.hit_rate",
                ratio(
                    run.cache_hits as f64,
                    (run.cache_hits + run.cache_misses) as f64,
                ),
                run.submitted,
            ),
            (
                "cache.evictions_per_genuine",
                ratio(run.evictions as f64, run.genuine as f64),
                run.genuine,
            ),
            ("search.eval_us", mean("search.eval"), c.misses),
            (
                "search.shard_eval_us",
                mean("search.shard_eval"),
                calls("search.shard_eval"),
            ),
            (
                "search.gather_us",
                mean("search.gather"),
                calls("search.gather"),
            ),
            (
                "search.shards_touched",
                ratio(c.shards_touched as f64, c.members as f64),
                c.members,
            ),
            ("index.decode_us", mean("index.decode"), c.members),
            (
                "index.postings_per_member",
                ratio(c.postings as f64, c.members as f64),
                c.members,
            ),
            (
                "obs.scrape_p50_ms",
                run.scrape.p50_ms(),
                run.scrape.len() as u64,
            ),
            ("obs.scrape_bytes_end", run.scrape_bytes_end as f64, 1),
            ("obs.series_end", run.series_end as f64, 1),
            (
                "loadgen.send_lag_p99_ms",
                run.send_lag.p99_ms(),
                run.send_lag.len() as u64,
            ),
            ("loadgen.samples", n as f64, n),
            (
                "trace.overhead_frac",
                on.wall_s / off.wall_s - 1.0,
                trace::REPLAY_REQUESTS as u64,
            ),
            ("ledger.residual_frac", ledger.residual_frac, c.searches),
            (
                "ledger.replay_vs_server_cpu",
                ratio(replayed_ms, ratio(run.cpu_ms, run.genuine as f64)),
                c.searches,
            ),
        ];
        let own = on.log.self_totals();
        let notes = vec![
            format!(
                "replayed {} requests in-process ({} Search, {} members, {} misses); spans on {:.3} s, off {:.3} s → {}",
                trace::REPLAY_REQUESTS, c.searches, c.members, c.misses, on.wall_s, off.wall_s, path.display()
            ),
            format!(
                "self time per Search: request {:.1} µs, member {:.1} µs, replay.decompose {:.1} µs (timer resolution {} ns)",
                ratio(own.get("request").copied().unwrap_or(0) as f64, c.searches as f64) / 1e3,
                ratio(own.get("member").copied().unwrap_or(0) as f64, c.searches as f64) / 1e3,
                ratio(own.get("replay.decompose").copied().unwrap_or(0) as f64, c.searches as f64) / 1e3,
                self.resolution_ns,
            ),
            format!("stage medians, µs: {}", self.stage_medians(&on.log)),
        ];
        Ok(Report {
            workload: kind.name(),
            traced: true,
            attempted: run.attempted,
            failed: run.failed,
            first_failure: run.first_failure,
            metrics: per_layer_metrics(&measured),
            digests: run.digests,
            ledger: Some(ledger),
            notes,
        })
    }

    /// Median of each span name, or `unresolved` where the timer cannot see it.
    fn stage_medians(&self, log: &SpanLog) -> String {
        let mut by_name: std::collections::BTreeMap<&str, Samples> = Default::default();
        for s in &log.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
        by_name
            .iter()
            .map(|(name, samples)| {
                format!(
                    "{name} {}",
                    stats::fmt_stage_us(samples, self.resolution_ns)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn fleet_config(&self, seconds: f64, setups: usize) -> fleet::FleetConfig {
        fleet::FleetConfig {
            seed: self.args.seed,
            seconds,
            setups,
            workers: self.workers,
        }
    }

    fn fleet_end_to_end(&self) -> Result<Report, String> {
        let cfg = self.fleet_config(self.args.seconds, self.setups());
        let (run, _, _) = fleet::run(&cfg, &mut SpanLog::new(false))?;
        let genuine = (run.plain_genuine + run.planned_genuine) as f64;
        let plain_qps = ratio(run.plain_genuine as f64, run.plain_round.sum() as f64 / 1e9);
        let measured = [
            ("setup_s", median(&run.setup_s), run.setup_s.len() as u64),
            (
                "search_p50_ms",
                run.round_p50.p50_ms(),
                run.round_p50.len() as u64,
            ),
            (
                "search_p95_ms",
                run.round_p95.p50_ms(),
                run.round_p95.len() as u64,
            ),
            ("search_qps", plain_qps, run.plain_genuine),
            (
                "cpu_ms_per_genuine",
                ratio(run.cpu_ms, genuine),
                genuine as u64,
            ),
            (
                "engine_evals_per_genuine",
                ratio(run.engine_evals as f64, genuine),
                genuine as u64,
            ),
            ("peak_rss_mb", run.peak_rss_mb, 1),
            (
                "drain_submissions_per_s",
                ratio(
                    run.plain_submissions as f64,
                    run.plain_drain.sum() as f64 / 1e9,
                ),
                run.plain_submissions,
            ),
            ("fleet_genuine_qps", plain_qps, run.plain_genuine),
            (
                "planner_cost_ratio",
                ratio(run.cost_ratio_submits as f64, run.cost_ratio_genuine as f64),
                run.cost_ratio_genuine,
            ),
        ];
        let notes = vec![format!(
            "{} pairs of rounds in {:.2} s: {} sessions × {} queries, {} shards, {} workers; planner round p50 {:.2} ms; {} scores one ulp off the oracle",
            run.pairs,
            run.window_s,
            fleet::SESSIONS,
            fleet::QUERIES_PER_ROUND,
            fleet::SHARDS,
            self.workers,
            run.planned_round.p50_ms(),
            run.scores_inexact,
        )];
        Ok(Report {
            workload: "fleet_drain",
            traced: false,
            attempted: run.attempted,
            failed: run.failed,
            first_failure: run.first_failure,
            metrics: end_to_end_metrics(&measured),
            digests: Default::default(),
            ledger: None,
            notes,
        })
    }

    fn fleet_traced(&self) -> Result<Report, String> {
        // Two half-length runs, spans off then on: their round times give the
        // tracing overhead, the second one the spans.
        let cfg = self.fleet_config(self.args.seconds * TRACED_WIRE_SHARE, 1);
        let (off, _, _) = fleet::run(&cfg, &mut SpanLog::new(false))?;
        let mut log = SpanLog::new(true);
        let (run, fleet, pool) = fleet::run(&cfg, &mut log)?;

        // The layers under one cycle, on the first queries of the pool.
        let mut decomposer = Decomposer::new(fleet.tier.clone(), fleet.model.clone());
        for (i, q) in pool.iter().take(FLEET_DECOMPOSED).enumerate() {
            decomposer.search(
                &mut log,
                0,
                1_000_000 + i as u64,
                &fleet.plain,
                "tenant-000",
                &q.text,
            );
        }
        let path = PathBuf::from("benchmark/out/trace_fleet_drain.ndjson");
        log.write_ndjson(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let totals = log.totals();
        let c = &decomposer.counts;
        let per = |name| trace::per_search_us(&totals, name, c.searches);
        let mean = |name| trace::mean_us(&totals, name);
        let calls = |name: &str| totals.get(name).map_or(0, |t| t.1);
        let registry = fleet.plain.metrics_registry().registry();
        let scrape = toppriv::obs::render_prometheus(registry);
        let rounds = run.plain_round.len() as u64;
        let measured = [
            ("text.analyze_us", per("text.analyze"), c.searches),
            ("core.formulate_us", per("core.formulate"), c.searches),
            (
                "core.cycle_len",
                ratio(c.members as f64, c.searches as f64),
                c.searches,
            ),
            (
                "core.satisfied_frac",
                ratio(c.satisfied as f64, c.searches as f64),
                c.searches,
            ),
            ("lda.infer_us", per("lda.infer"), c.searches),
            (
                "session.plan_us",
                run.plan_cycle.mean_us(),
                run.plan_cycle.len() as u64,
            ),
            ("cache.lookup_us", mean("cache.lookup"), c.members),
            ("cache.insert_us", mean("cache.insert"), c.misses),
            (
                "cache.hit_rate",
                1.0 - ratio(c.misses as f64, c.members as f64),
                c.members,
            ),
            ("search.eval_us", mean("search.eval"), c.misses),
            (
                "search.shard_eval_us",
                mean("search.shard_eval"),
                calls("search.shard_eval"),
            ),
            (
                "search.gather_us",
                mean("search.gather"),
                calls("search.gather"),
            ),
            (
                "search.shards_touched",
                ratio(c.shards_touched as f64, c.members as f64),
                c.members,
            ),
            ("index.decode_us", mean("index.decode"), c.members),
            (
                "index.postings_per_member",
                ratio(c.postings as f64, c.members as f64),
                c.members,
            ),
            (
                "planner.plan_us",
                run.planner_plan.mean_us(),
                run.planner_plan.len() as u64,
            ),
            (
                "planner.reuse_per_genuine",
                ratio(run.planner_reuse as f64, run.planned_genuine as f64),
                run.planned_genuine,
            ),
            (
                "planner.coalesced_per_genuine",
                ratio(run.planner_coalesced as f64, run.planned_genuine as f64),
                run.planned_genuine,
            ),
            ("scheduler.drain_s", run.plain_drain.mean() / 1e9, rounds),
            (
                "scheduler.queue_wait_p50_us",
                run.queue_wait_p50_us,
                run.plain_submissions,
            ),
            (
                "scheduler.queue_wait_p99_us",
                run.queue_wait_p99_us,
                run.plain_submissions,
            ),
            (
                "scheduler.service_p50_us",
                run.service_p50_us,
                run.plain_submissions,
            ),
            ("scheduler.busy_frac", run.busy_frac, run.plain_submissions),
            (
                "scheduler.shard_imbalance",
                run.shard_imbalance,
                run.plain_submissions,
            ),
            ("obs.scrape_bytes_end", scrape.len() as f64, 1),
            ("obs.series_end", registry.len() as f64, 1),
            ("loadgen.samples", rounds as f64, rounds),
            (
                "trace.overhead_frac",
                ratio(run.plain_round.mean(), off.plain_round.mean()) - 1.0,
                rounds,
            ),
        ];
        let notes = vec![
            format!(
                "{} traced pairs of rounds; {} queries decomposed ({} members, {} misses) → {}",
                run.pairs,
                c.searches,
                c.members,
                c.misses,
                path.display()
            ),
            format!("stage medians, µs: {}", self.stage_medians(&log)),
        ];
        Ok(Report {
            workload: "fleet_drain",
            traced: true,
            attempted: run.attempted + off.attempted,
            failed: run.failed + off.failed,
            first_failure: run.first_failure.or(off.first_failure),
            metrics: per_layer_metrics(&measured),
            digests: Default::default(),
            ledger: None,
            notes,
        })
    }
}

/// `(name, value, samples)` as measured.
type Measured = (&'static str, f64, u64);

/// Orders measured values by a metric table. A per-layer metric a workload
/// does not exercise reads 0 with no samples; a name the table lacks is a bug.
fn tabulate(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    measured: &[Measured],
) -> Vec<Metric> {
    let metrics: Vec<Metric> = table
        .map(|(name, unit)| {
            let (value, samples) = measured
                .iter()
                .find(|m| m.0 == name)
                .map_or((0.0, 0), |m| (m.1, m.2));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect();
    for m in measured {
        assert!(
            metrics.iter().any(|k| k.name == m.0),
            "'{}' is in no metric table",
            m.0
        );
    }
    metrics
}

fn end_to_end_metrics(measured: &[Measured]) -> Vec<Metric> {
    tabulate(END_TO_END.iter().map(|m| (m.name, m.unit)), measured)
}

fn per_layer_metrics(measured: &[Measured]) -> Vec<Metric> {
    tabulate(PER_LAYER.iter().map(|m| (m.name, m.unit)), measured)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `--repeat`: every (workload, end-to-end metric) pair across the sets, its
/// spread relative to the best value, and the bound. Returns whether all agree.
fn compare_sets(sets: &[Vec<Report>]) -> bool {
    println!(
        "\n== repeat check: {} sets of the same commit and seed",
        sets.len()
    );
    println!(
        "   {:<12} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "min", "max", "rel diff", "bound"
    );
    let mut agree = true;
    for (w, first) in sets[0].iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|set| set[w].value(m.name)).collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let base = match m.better {
                Better::Lower => lo,
                Better::Higher => hi,
            };
            let diff = ratio(hi - lo, base);
            let ok = diff <= m.bound;
            agree &= ok;
            println!(
                "   {:<12} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{}",
                first.workload,
                m.name,
                lo,
                hi,
                100.0 * diff,
                100.0 * m.bound,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    agree
}

/// `wire_open` (4 shards) and `wire_cold` (1 shard) must answer the queries
/// they share identically. Returns whether they do.
fn shards_agree(set: &[Report]) -> bool {
    let find = |name| set.iter().find(|r| r.workload == name);
    let (Some(cold), Some(open)) = (find("wire_cold"), find("wire_open")) else {
        return true;
    };
    let shared: Vec<_> = cold
        .digests
        .iter()
        .filter_map(|(q, d)| open.digests.get(q).map(|o| d == o))
        .collect();
    let differing = shared.iter().filter(|same| !**same).count();
    println!(
        "\n== 1 shard against 4: wire_cold and wire_open share {} queries, {} answer digests differ",
        shared.len(),
        differing
    );
    differing == 0
}

fn run_all(h: &Harness) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<Report>> = Vec::new();
    for rep in 0..h.args.repeat {
        if h.args.repeat > 1 {
            println!("\n#### set {} of {}", rep + 1, h.args.repeat);
        }
        let mut set = Vec::new();
        for w in &WORKLOADS {
            if h.args
                .workload
                .as_deref()
                .is_some_and(|only| only != w.name)
            {
                continue;
            }
            let report = h.run(w.name, false)?;
            report.print();
            ok &= report.correct();
            set.push(report);
            if h.args.trace {
                let traced = h.run(w.name, true)?;
                traced.print();
                ok &= traced.correct();
            }
        }
        ok &= shards_agree(&set);
        sets.push(set);
    }
    if sets.len() > 1 {
        ok &= compare_sets(&sets);
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if !args.server_bin.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --bin toppriv-serve` or pass --server-bin",
            args.server_bin.display()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let h = Harness {
        conns: nproc.min(2),
        workers: nproc,
        resolution_ns: stats::timer_resolution_ns(),
        args,
    };
    println!(
        "toppriv-benchmark: seed {}, window {} s, nproc {}, {} wire connections, commit {}, {}, loopback",
        h.args.seed,
        h.args.seconds,
        nproc,
        h.conns,
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
    );
    println!(
        "server: {} --tcp 127.0.0.1:0 {} (wire_open: --shards 4); timer resolution {} ns",
        h.args.server_bin.display(),
        stack::server_flags(1).join(" "),
        h.resolution_ns,
    );
    if h.args.smoke {
        println!("SMOKE MODE: 2 s windows, one set-up — checks names, units and schema only; the numbers are unusable");
    }

    // Driver mode: one workload, one run, its JSON object as the last line.
    if let (Some(name), 1) = (&h.args.workload, h.args.repeat) {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("validated")
            .name;
        let report = h.run(workload, h.args.trace)?;
        report.print();
        println!("{}", report.json());
        return Ok(report.correct());
    }
    run_all(&h)
}

fn main() {
    // Everything that owns a child process lives below `real_main`, so it is
    // dropped — and the child killed — before the process exits.
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("toppriv-benchmark: FAILED — an operation failed, an answer differed from the oracle, or sets disagreed");
            1
        }
        Err(e) => {
            eprintln!("toppriv-benchmark: error: {e}");
            2
        }
    };
    std::process::exit(code);
}
