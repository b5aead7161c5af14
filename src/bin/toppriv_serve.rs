//! `toppriv-serve` — the multi-tenant private-search service.
//!
//! Modes:
//!
//! - `--demo`: build a synthetic corpus + LDA model, open `--sessions`
//!   tenants, run a paced multi-tenant workload through the cycle
//!   scheduler, and print per-session privacy metrics plus the global
//!   cache/latency report;
//! - `--tcp ADDR`: serve the NDJSON protocol over TCP;
//! - `--stdin`: serve the NDJSON protocol over stdin/stdout (default
//!   when no mode flag is given).
//!
//! All modes accept `--shards N` to term-shard the search tier: postings
//! split across N shards, each with its own adversary log.
//! The demo additionally accepts `--planner` to route cycles through the
//! cross-session ghost planner (decoy reuse + coalesced shared
//! submissions) and prints the resulting fleet cost ratio.
//!
//! ```text
//! cargo run --release --bin toppriv-serve -- --sessions 64 --shards 4 --demo
//! ```

use std::sync::Arc;
use toppriv::corpus::{generate_workload, SyntheticCorpus, WorkloadConfig};
use toppriv::service::{
    AuditConfig, CycleScheduler, FaultKind, FaultPlane, FaultSpec, GhostPlanner, SessionConfig,
    SessionManager,
};
use toppriv::{CorpusConfig, LdaModel, SearchTier};

struct Args {
    sessions: usize,
    demo: bool,
    tcp: Option<String>,
    queries_per_session: usize,
    cache_capacity: usize,
    no_cache: bool,
    workers: usize,
    shards: usize,
    docs: usize,
    topics: usize,
    lda_iterations: usize,
    metrics_interval: Option<u64>,
    audit_interval: Option<u64>,
    planner: bool,
    fault_rate: f64,
    fault_seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 8,
            demo: false,
            tcp: None,
            queries_per_session: 4,
            cache_capacity: 4096,
            no_cache: false,
            workers: 4,
            shards: 1,
            docs: 800,
            topics: 24,
            lda_iterations: 40,
            metrics_interval: None,
            audit_interval: None,
            planner: false,
            fault_rate: 0.0,
            fault_seed: 0xC4A0_5EED,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let parse_usize = |argv: &[String], i: &mut usize, flag: &str| -> Result<usize, String> {
        *i += 1;
        argv.get(*i)
            .ok_or(format!("{flag} needs a value"))?
            .parse::<usize>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--sessions" => args.sessions = parse_usize(&argv, &mut i, "--sessions")?,
            "--queries" => args.queries_per_session = parse_usize(&argv, &mut i, "--queries")?,
            "--cache-capacity" => {
                args.cache_capacity = parse_usize(&argv, &mut i, "--cache-capacity")?
            }
            "--workers" => args.workers = parse_usize(&argv, &mut i, "--workers")?,
            "--shards" => {
                args.shards = parse_usize(&argv, &mut i, "--shards")?.max(1);
            }
            "--docs" => args.docs = parse_usize(&argv, &mut i, "--docs")?,
            "--topics" => args.topics = parse_usize(&argv, &mut i, "--topics")?,
            "--lda-iterations" => {
                args.lda_iterations = parse_usize(&argv, &mut i, "--lda-iterations")?
            }
            "--metrics-interval" => {
                args.metrics_interval =
                    Some(parse_usize(&argv, &mut i, "--metrics-interval")? as u64)
            }
            "--audit-interval" => {
                args.audit_interval = Some(parse_usize(&argv, &mut i, "--audit-interval")? as u64)
            }
            "--fault-rate" => {
                i += 1;
                args.fault_rate = argv
                    .get(i)
                    .ok_or("--fault-rate needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("--fault-rate: {e}"))?;
                if !(0.0..=1.0).contains(&args.fault_rate) {
                    return Err("--fault-rate must be in [0, 1]".into());
                }
            }
            "--fault-seed" => {
                i += 1;
                args.fault_seed = argv
                    .get(i)
                    .ok_or("--fault-seed needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--no-cache" => args.no_cache = true,
            "--planner" => args.planner = true,
            "--demo" => args.demo = true,
            "--stdin" => args.demo = false,
            "--tcp" => {
                i += 1;
                args.tcp = Some(argv.get(i).ok_or("--tcp needs an address")?.clone());
            }
            "--help" | "-h" => {
                println!(
                    "toppriv-serve — multi-tenant private-search service\n\
                     --demo             run the synthetic multi-tenant demo and exit\n\
                     --tcp ADDR         serve NDJSON over TCP (e.g. 127.0.0.1:7077)\n\
                     --stdin            serve NDJSON over stdin/stdout (default)\n\
                     --sessions N       tenants in the demo (default 8)\n\
                     --queries N        queries per tenant in the demo (default 4)\n\
                     --cache-capacity N result cache entries (default 4096); N/8 whole\n\
                     \u{20}                  cycles are remembered beside them\n\
                     --no-cache         no result cache and no cycle memo\n\
                     --planner          route demo cycles through the cross-session ghost\n\
                     \u{20}                  planner (decoy reuse + coalesced shared submissions)\n\
                     --workers N        scheduler worker threads (default 4)\n\
                     --shards N         term-shard the search tier across N shards (default 1)\n\
                     --docs N           synthetic corpus size (default 800)\n\
                     --topics N         LDA topic count (default 24)\n\
                     --lda-iterations N Gibbs iterations (default 40)\n\
                     --fault-rate R     inject deterministic worker panics and short shard\n\
                     \u{20}                  stalls at rate R in [0, 1]; the demo's self-healing\n\
                     \u{20}                  drain reports the rollbacks they cause (default 0)\n\
                     --fault-seed N     fault-plane seed: the whole injected schedule is a\n\
                     \u{20}                  pure function of this (default 3298844397)\n\
                     --metrics-interval SECS\n\
                     \u{20}                  emit the metrics registry as NDJSON every SECS\n\
                     \u{20}                  seconds (demo: stdout + final dump; server: stderr)\n\
                     --audit-interval SECS\n\
                     \u{20}                  print the privacy-audit health line to stderr every\n\
                     \u{20}                  SECS seconds; the demo additionally exits non-zero\n\
                     \u{20}                  when the audit plane reports degraded"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
        i += 1;
    }
    Ok(args)
}

/// Builds the shared stack: synthetic corpus, search tier hosting it
/// (term-sharded when `--shards > 1`), LDA model.
fn build_stack(args: &Args) -> (SyntheticCorpus, SearchTier, Arc<LdaModel>) {
    let t0 = std::time::Instant::now();
    let (corpus, tier, model) = toppriv::build_demo_stack_sharded(
        CorpusConfig {
            num_docs: args.docs,
            num_topics: (args.topics / 2).max(4),
            terms_per_topic: 80,
            ..CorpusConfig::default()
        },
        args.topics,
        args.lda_iterations,
        args.shards,
    );
    // The stack build journals its training as the `lda_train` span.
    let train_s = toppriv::obs::tracer()
        .events()
        .iter()
        .rfind(|e| e.name == "lda_train")
        .map_or(0.0, |e| e.dur_us as f64 / 1e6);
    eprintln!(
        "[toppriv-serve] stack ready in {:.1}s (LDA training {train_s:.1}s): {} docs, {} vocab, \
         LDA K={}, {} shard(s)",
        t0.elapsed().as_secs_f64(),
        corpus.num_docs(),
        corpus.vocab.len(),
        args.topics,
        tier.num_shards(),
    );
    (corpus, tier, model)
}

fn build_manager(args: &Args, tier: SearchTier, model: Arc<LdaModel>) -> SessionManager {
    // Bind the service metrics to the process-global registry so the
    // engine-layer histograms (scatter/gather, pacing) and the service
    // counters surface through one exposition endpoint. The audit plane
    // is always attached (after the registry, so its gauges land there
    // too): it serves the `Health` / `AuditTail` protocol ops and the
    // `--audit-interval` health line.
    let mut manager = SessionManager::with_tier(tier, model)
        .with_defaults(SessionConfig::default())
        .with_metrics_registry(toppriv::obs::global().clone())
        .with_auditor(AuditConfig::default());
    if !args.no_cache {
        manager = manager.with_cache(args.cache_capacity);
    }
    // Chaos mode: a deterministic fault plane (worker panics + short
    // shard stalls at `--fault-rate`, schedule a pure function of
    // `--fault-seed`). Attached after the auditor so injected faults
    // land in the audit journal.
    if args.fault_rate > 0.0 {
        eprintln!(
            "[toppriv-serve] fault injection on: rate {}, seed {:#x}",
            args.fault_rate, args.fault_seed,
        );
        // The scheduler catches injected panics; keep the default hook's
        // backtrace spam for *real* panics only.
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected "));
            if !injected {
                previous(info);
            }
        }));
        manager = manager.with_fault_plane(Arc::new(
            FaultPlane::new(args.fault_seed)
                .with_spec(FaultSpec::rate(FaultKind::WorkerPanic, args.fault_rate))
                .with_spec(FaultSpec::rate(FaultKind::ShardStall, args.fault_rate).stalling_ms(2)),
        ));
    }
    manager
}

/// Prints one audit health line to stderr and returns whether the plane
/// is healthy (`true` when no auditor is attached — nothing to degrade).
fn emit_audit_health(manager: &SessionManager) -> bool {
    let Some(auditor) = manager.auditor() else {
        return true;
    };
    let h = auditor.health();
    eprintln!(
        "[toppriv-serve] audit {}: {} (worst headroom {:.3e}, burn min {})",
        h.verdict(),
        h.detail,
        h.worst_headroom,
        h.burn_cycles_min,
    );
    h.healthy
}

/// Spawns the periodic audit health-line emitter (stderr).
fn spawn_audit_emitter(
    interval_secs: u64,
    manager: Arc<SessionManager>,
) -> (
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::spawn(move || {
        let interval = std::time::Duration::from_secs(interval_secs.max(1));
        loop {
            std::thread::sleep(interval);
            if stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                break;
            }
            emit_audit_health(&manager);
        }
    });
    (stop, handle)
}

/// Spawns the periodic NDJSON metrics emitter: every `interval_secs` the
/// whole registry is rendered one [`toppriv::obs::MetricSnapshot`] JSON
/// object per line. Demo mode writes to stdout (the CI smoke parses it);
/// server modes write to stderr so the protocol stream stays clean.
fn spawn_metrics_emitter(
    interval_secs: u64,
    to_stdout: bool,
) -> (
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::spawn(move || {
        let interval = std::time::Duration::from_secs(interval_secs.max(1));
        loop {
            std::thread::sleep(interval);
            if stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                break;
            }
            emit_metrics_ndjson(to_stdout);
        }
    });
    (stop, handle)
}

/// Renders the global registry as NDJSON to stdout or stderr.
fn emit_metrics_ndjson(to_stdout: bool) {
    for line in toppriv::obs::render_ndjson(toppriv::obs::global()) {
        if to_stdout {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    }
}

fn run_demo(args: &Args) {
    let (corpus, tier, model) = build_stack(args);
    let manager = Arc::new(build_manager(args, tier, model));

    // Tenants share a realistic workload: each session draws its queries
    // from a common pool (overlap across tenants is what a shared search
    // service sees, and what makes the decoy cache pay off).
    let pool = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: (args.sessions * args.queries_per_session / 2).max(8),
            ..WorkloadConfig::default()
        },
    );
    for s in 0..args.sessions {
        manager
            .open_session(&format!("tenant-{s:03}"))
            .expect("fresh id");
    }
    eprintln!(
        "[toppriv-serve] {} sessions open, {} pooled queries, cache {}",
        manager.session_count(),
        pool.len(),
        if manager.cache().is_some() {
            "on"
        } else {
            "off"
        },
    );

    let emitter = args
        .metrics_interval
        .map(|secs| spawn_metrics_emitter(secs, true));
    let audit_emitter = args
        .audit_interval
        .map(|secs| spawn_audit_emitter(secs, manager.clone()));

    // Plan every tenant's paced cycles, merge, and drain on the pool.
    // With `--planner` the cycles route through the cross-session ghost
    // planner instead: decoys are rewritten to match other tenants'
    // queued submissions and identical submissions coalesce into shared
    // queue entries, so the engine sees less than υ× the genuine volume.
    let t0 = std::time::Instant::now();
    let planner = args.planner.then(|| GhostPlanner::new(manager.clone()));
    let mut plans = Vec::new();
    for (s, id) in manager.session_ids().iter().enumerate() {
        for q in 0..args.queries_per_session {
            let query = &pool[(s * args.queries_per_session + q * 7) % pool.len()];
            if let Some(planner) = &planner {
                planner
                    .plan_cycle(id, &query.tokens, 10)
                    .expect("session open");
            } else {
                plans.push(
                    manager
                        .plan_cycle(id, &query.tokens, 10)
                        .expect("session open"),
                );
            }
        }
    }
    let scheduler = CycleScheduler::for_manager(&manager, args.workers);
    let queue = match &planner {
        Some(planner) => planner.take_queue(),
        None => CycleScheduler::merge(plans),
    };
    // The self-healing drain: on a fault-free queue it is one round with
    // nothing rolled back; under injected faults it retries, replans and
    // rolls cycles back instead of losing work.
    let report = scheduler.drain_resilient(&manager, queue);
    eprintln!(
        "[toppriv-serve] resilient drain: {} round(s), {} cycle(s) rolled back, {} replanned",
        report.rounds,
        report.rolled_back.len(),
        report.replanned.len(),
    );
    if let Some(plane) = manager.fault_plane() {
        eprintln!("[toppriv-serve]   fault plane: {}", plane.report());
    }
    let outcomes = report.outcomes;
    let wall = t0.elapsed().as_secs_f64();

    if let Some((stop, handle)) = emitter {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        // Final dump so even sub-interval demo runs leave one complete
        // registry snapshot on stdout.
        emit_metrics_ndjson(true);
        let _ = handle.join();
    }
    if let Some((stop, handle)) = audit_emitter {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }

    let genuine = outcomes.iter().filter(|o| o.is_genuine).count();
    let snapshot = manager.metrics();
    println!(
        "\n=== toppriv-serve demo: {} tenants, {} genuine searches, {} submissions in {:.2}s ({:.0} submissions/s)",
        args.sessions,
        genuine,
        outcomes.len(),
        wall,
        outcomes.len() as f64 / wall.max(1e-9),
    );
    println!(
        "    server sees {:.2}x the genuine query volume; engine evaluated {} (cache absorbed {})",
        outcomes.len() as f64 / genuine.max(1) as f64,
        snapshot.global.cache_misses,
        snapshot.global.cache_hits,
    );
    if args.planner {
        println!(
            "    planner: fleet cost ratio {:.2}x ({} engine submissions for {} genuine; {} coalesced, {} decoys reused)",
            snapshot.global.fleet_cost_ratio,
            snapshot.global.engine_submits,
            genuine,
            snapshot.global.planner_coalesced,
            snapshot.global.planner_reuse,
        );
    }
    println!(
        "    cache hit rate {:.1}%  |  submit latency p50 {}us p99 {}us  |  max queue depth {}",
        snapshot.global.cache_hit_rate * 100.0,
        snapshot.global.p50_submit_us,
        snapshot.global.p99_submit_us,
        snapshot.global.max_queue_depth,
    );
    let tier = manager.tier();
    if let Some(engine) = tier.as_sharded() {
        let log_sizes: Vec<usize> = engine.shard_logs().iter().map(|l| l.len()).collect();
        println!(
            "    {} shards behind one drain queue; per-shard adversary log entries: {:?}",
            engine.num_shards(),
            log_sizes,
        );
    }
    println!("\n    per-session privacy (first 12 shown):");
    println!(
        "    {:<12} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "session", "cycles", "upsilon", "exposure", "worst", "mask", "satisfied"
    );
    for m in snapshot.sessions.iter().take(12) {
        println!(
            "    {:<12} {:>7} {:>8.2} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.0}%",
            m.session,
            m.cycles,
            m.mean_cycle_len,
            m.mean_exposure * 100.0,
            m.worst_exposure * 100.0,
            m.mean_mask_level * 100.0,
            m.satisfied_rate * 100.0,
        );
    }
    let all_satisfied = snapshot
        .sessions
        .iter()
        .map(|m| m.satisfied_rate)
        .fold(1.0f64, f64::min);
    println!(
        "\n    worst per-session satisfied rate: {:.0}%  |  cache hit rate {:.3} (> 0 expected)",
        all_satisfied * 100.0,
        snapshot.global.cache_hit_rate,
    );
    // With `--audit-interval`, the demo's exit status is the audit
    // plane's verdict: a breached fleet invariant fails the run.
    if args.audit_interval.is_some() {
        let healthy = emit_audit_health(&manager);
        if !healthy {
            eprintln!("[toppriv-serve] audit plane degraded — exiting non-zero");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.demo {
        run_demo(&args);
        return;
    }
    // The server answers from the tier and the model; the corpus goes now.
    let (_, tier, model) = build_stack(&args);
    let manager = Arc::new(build_manager(&args, tier, model));
    // Server modes keep stdout for the NDJSON protocol; the periodic
    // registry dump goes to stderr.
    let _emitter = args
        .metrics_interval
        .map(|secs| spawn_metrics_emitter(secs, false));
    let _audit_emitter = args
        .audit_interval
        .map(|secs| spawn_audit_emitter(secs, manager.clone()));
    match &args.tcp {
        Some(addr) => {
            if let Err(e) = toppriv::service::serve_tcp(manager, addr.as_str()) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = toppriv::service::serve_lines(&manager, stdin.lock(), stdout.lock()) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
