//! The socket-to-socket workloads: a real `toppriv-serve` child on loopback,
//! driven over NDJSON by one thread per connection.

use crate::loadgen::{self, Op, OpStream, WireWorkload, SESSIONS_PER_CONN};
use crate::server::{self, Server};
use crate::stack::{self, Oracle, PoolQuery};
use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use toppriv::service::{GlobalMetrics, Response};

/// A response slower than this counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);
/// The open loop sleeps until this close to a due time, then spins: on this
/// box a sleep overshoots by up to a millisecond or two.
const SPIN_BEFORE_DUE: Duration = Duration::from_millis(2);

pub struct WireConfig {
    pub workload: WireWorkload,
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Discarded warm-up before the window, seconds.
    pub warmup: f64,
    /// Server boots timed for `setup_s`; the last one serves the load.
    pub setups: usize,
    pub server_bin: PathBuf,
    pub conns: usize,
}

/// What one wire run measured.
#[derive(Default)]
pub struct WireRun {
    /// Spawn → first `Opened`, one per boot.
    pub setup_s: Vec<f64>,
    /// Window start → last in-window operation answered, seconds.
    pub window_s: f64,
    pub search: Samples,
    /// The follow-up searches among them (`wire_open`).
    pub follow_up: Samples,
    pub churn: Samples,
    pub scrape: Samples,
    pub send_lag: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Server counters over the window (`Metrics` op before and after).
    pub submitted: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub genuine: u64,
    pub engine_submits: u64,
    pub evictions: u64,
    /// Seconds between the two `Metrics` snapshots.
    pub snapshot_s: f64,
    /// Server CPU (user + system) over the window, ms.
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    /// From the `Results` reports inside the window.
    pub cycle_len_sum: u64,
    pub satisfied: u64,
    pub resp_bytes: u64,
    /// `MetricsProm` text size and registry series count after the window.
    pub scrape_bytes_end: u64,
    pub series_end: u64,
    /// Scores within tolerance of the oracle's but not bit-equal.
    pub scores_inexact: u64,
    /// Ranking digest per pool query (for the 1-shard against 4-shard check).
    pub digests: BTreeMap<usize, u64>,
}

impl WireRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// One NDJSON connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line and reads its response line. An `Err` means the
    /// connection is no longer usable (I/O error, timeout, unparseable reply).
    fn call(&mut self, line: &str) -> Result<(Response, usize), String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let response = serde_json::from_str::<Response>(reply.trim_end())
            .map_err(|e| format!("unparseable response: {e}"))?;
        Ok((response, n))
    }

    fn expect_opened(&mut self, conn: usize, slot: usize) -> Result<(), String> {
        match self.call(&loadgen::open_line(conn, slot))?.0 {
            Response::Opened { .. } => Ok(()),
            other => Err(format!("Open answered {other:?}")),
        }
    }
}

/// One answered `Search`, kept for the oracle pass after the window.
struct Answer {
    query: usize,
    hits: Vec<(u32, f64)>,
}

/// What one connection thread brings back.
#[derive(Default)]
struct ConnResult {
    run: WireRun,
    answers: Vec<Answer>,
    /// When the connection's last operation was answered.
    done_at: Option<Instant>,
}

struct Marks {
    start: Instant,
    window_start: Instant,
    window_end: Instant,
}

/// Performs one operation; returns false when the connection broke.
fn perform(
    conn: &mut Conn,
    op: Op,
    lines: &[String],
    origin: Instant,
    in_window: bool,
    out: &mut ConnResult,
) -> bool {
    out.run.attempted += 1;
    let mut last = None;
    for line in lines {
        match conn.call(line) {
            Ok(reply) => last = Some(reply),
            Err(why) => {
                out.run.fail(format!("{op:?}: {why}"));
                return false;
            }
        }
    }
    let latency = origin.elapsed().as_nanos() as u64;
    let (response, bytes) = last.expect("every op has at least one line");
    match (op, response) {
        (Op::Search { query, .. }, Response::Results { hits, report }) => {
            out.answers.push(Answer {
                query,
                hits: hits.iter().map(|h| (h.doc_id, h.score)).collect(),
            });
            if in_window {
                out.run.search.push(latency);
                if op.is_follow_up() {
                    out.run.follow_up.push(latency);
                }
                out.run.cycle_len_sum += report.cycle_len as u64;
                out.run.satisfied += u64::from(report.satisfied);
                out.run.resp_bytes += bytes as u64;
            }
        }
        (Op::Churn { .. }, Response::Opened { .. }) => {
            if in_window {
                out.run.churn.push(latency);
            }
        }
        (Op::Scrape, Response::MetricsProm { .. }) => {
            if in_window {
                out.run.scrape.push(latency);
            }
        }
        (op, Response::Error { message }) => out.run.fail(format!("{op:?}: {message}")),
        (op, other) => out.run.fail(format!("{op:?} answered {other:?}")),
    }
    out.done_at = Some(Instant::now());
    true
}

/// Closed loop: the next request leaves when the previous answer is in.
fn closed_loop(
    mut conn: Conn,
    mut stream: OpStream,
    c: usize,
    pool: &[PoolQuery],
    marks: &Marks,
) -> ConnResult {
    let mut out = ConnResult::default();
    loop {
        let now = Instant::now();
        if now >= marks.window_end {
            break;
        }
        let op = stream.next_op();
        let lines = loadgen::lines(op, c, pool);
        if !perform(
            &mut conn,
            op,
            &lines,
            now,
            now >= marks.window_start,
            &mut out,
        ) {
            break;
        }
    }
    out
}

/// Open loop: requests leave on the schedule whatever the server does, and
/// latency runs from the due time, so a stall is charged to every request it
/// delays. A follow-up search is due the moment the connection's previous
/// answer arrived (its own slot passes unused, so the next operation keeps its
/// distance).
fn open_loop(
    mut conn: Conn,
    mut stream: OpStream,
    c: usize,
    pool: &[PoolQuery],
    marks: &Marks,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut free_at = marks.start;
    for i in 0.. {
        let mut due = marks.start + Duration::from_nanos(stream.due_ns(i));
        if due >= marks.window_end {
            break;
        }
        let op = stream.next_op();
        if op.is_follow_up() && i > 0 {
            due = due.min(free_at);
        }
        let lines = loadgen::lines(op, c, pool);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            if wait > SPIN_BEFORE_DUE {
                std::thread::sleep(wait - SPIN_BEFORE_DUE);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        let in_window = due >= marks.window_start;
        if in_window {
            // The generator's own lateness: from the later of the due time and
            // the moment the connection came free. (What a busy connection adds
            // is the server's doing, and is in the latency.)
            out.run
                .send_lag
                .push(due.max(free_at).elapsed().as_nanos() as u64);
        }
        if !perform(&mut conn, op, &lines, due, in_window, &mut out) {
            break;
        }
        free_at = Instant::now();
    }
    out
}

/// The server's global counters, read over the control connection.
fn snapshot(control: &mut Conn) -> Result<GlobalMetrics, String> {
    match control.call(r#"{"op":"Metrics"}"#)?.0 {
        Response::Metrics(snapshot) => Ok(snapshot.global),
        other => Err(format!("Metrics answered {other:?}")),
    }
}

/// Sum of the registry's `cache_evictions_total` counters and the number of
/// series the registry holds.
fn registry_reading(control: &mut Conn) -> Result<(u64, u64), String> {
    match control.call(r#"{"op":"MetricsNdjson"}"#)?.0 {
        Response::MetricsNdjson { lines } => {
            let mut evictions = 0;
            for line in &lines {
                let metric = toppriv::obs::parse_ndjson_line(line)?;
                if let (
                    toppriv::service::cache::M_CACHE_EVICTIONS,
                    toppriv::obs::MetricValue::Counter(v),
                ) = (metric.name.as_str(), &metric.value)
                {
                    evictions += v;
                }
            }
            Ok((evictions, lines.len() as u64))
        }
        other => Err(format!("MetricsNdjson answered {other:?}")),
    }
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Boots the server (`setups` times), opens the tenants, drives the load and
/// checks every answer against the oracle.
pub fn run(cfg: &WireConfig, pool: &[PoolQuery], oracle: &mut Oracle) -> Result<WireRun, String> {
    let flags = stack::server_flags(cfg.workload.shards());
    let mut total = WireRun::default();

    // Set-up: spawn → first `Opened`, repeated so the median is steady.
    let mut booted = None;
    for _ in 0..cfg.setups.max(1) {
        drop(booted.take());
        let server = Server::spawn(&cfg.server_bin, &flags)?;
        let mut first = Conn::connect(&server.addr)?;
        first.expect_opened(0, 0)?;
        total
            .setup_s
            .push(server.spawned_at.elapsed().as_secs_f64());
        booted = Some((server, first));
    }
    let (server, first) = booted.expect("at least one boot");

    let mut conns = vec![first];
    for _ in 1..cfg.conns {
        conns.push(Conn::connect(&server.addr)?);
    }
    for (c, conn) in conns.iter_mut().enumerate() {
        for slot in 0..SESSIONS_PER_CONN {
            if (c, slot) != (0, 0) {
                conn.expect_opened(c, slot)?;
            }
        }
    }
    // A third, idle connection reads the server's counters at the window's
    // edges; it carries no load.
    let mut control = Conn::connect(&server.addr)?;

    let start = Instant::now() + Duration::from_millis(20);
    let marks = Marks {
        start,
        window_start: start + Duration::from_secs_f64(cfg.warmup),
        window_end: start + Duration::from_secs_f64(cfg.warmup + cfg.seconds),
    };
    let ticks = server::clock_ticks_per_s();
    let pid = server.pid();

    let (results, edges) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let stream = OpStream::new(cfg.workload, cfg.seed, c, cfg.conns, pool.len());
                let marks = &marks;
                scope.spawn(move || {
                    sleep_until(marks.start);
                    if cfg.workload.is_open_loop() {
                        open_loop(conn, stream, c, pool, marks)
                    } else {
                        closed_loop(conn, stream, c, pool, marks)
                    }
                })
            })
            .collect();
        let mut read_edge = |at: Instant| -> Result<_, String> {
            sleep_until(at);
            let t = Instant::now();
            let cpu = server::cpu_ms(pid, ticks)?;
            let evictions = registry_reading(&mut control)?.0;
            Ok((t, cpu, evictions, snapshot(&mut control)?))
        };
        let edges =
            read_edge(marks.window_start).and_then(|a| Ok((a, read_edge(marks.window_end)?)));
        let results: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (results, edges)
    });
    let ((t0, cpu0, evict0, before), (t1, cpu1, evict1, after)) = edges?;

    // The window as it was: from its start until the last operation that
    // began in it was answered.
    let done_at = results.iter().filter_map(|r| r.done_at).max();
    total.window_s = done_at.map_or(cfg.seconds, |t| {
        t.saturating_duration_since(marks.window_start)
            .as_secs_f64()
    });
    total.snapshot_s = (t1 - t0).as_secs_f64();
    total.cpu_ms = cpu1 - cpu0;
    total.submitted = after.submitted - before.submitted;
    total.cache_hits = after.cache_hits - before.cache_hits;
    total.cache_misses = after.cache_misses - before.cache_misses;
    total.genuine = after.genuine_served - before.genuine_served;
    total.engine_submits = after.engine_submits - before.engine_submits;
    total.evictions = evict1 - evict0;
    total.peak_rss_mb = server::peak_rss_mb(pid)?;
    total.series_end = registry_reading(&mut control)?.1;
    total.scrape_bytes_end = match control.call(r#"{"op":"MetricsProm"}"#)?.0 {
        Response::MetricsProm { text } => text.len() as u64,
        other => return Err(format!("MetricsProm answered {other:?}")),
    };
    drop(server);

    // Oracle pass, after the window so it takes no CPU from the server.
    for result in results {
        let r = result.run;
        total.search.extend(&r.search);
        total.follow_up.extend(&r.follow_up);
        total.churn.extend(&r.churn);
        total.scrape.extend(&r.scrape);
        total.send_lag.extend(&r.send_lag);
        total.attempted += r.attempted;
        total.failed += r.failed;
        if let Some(why) = r.first_failure {
            total.first_failure.get_or_insert(why);
        }
        total.cycle_len_sum += r.cycle_len_sum;
        total.satisfied += r.satisfied;
        total.resp_bytes += r.resp_bytes;
        for answer in result.answers {
            let query = &pool[answer.query];
            match oracle.check_text(&query.text, &answer.hits) {
                Ok(inexact) => total.scores_inexact += inexact,
                Err(why) => total.fail(format!("oracle mismatch on '{}': {why}", query.text)),
            }
            total
                .digests
                .insert(answer.query, stack::digest(&answer.hits));
        }
    }
    Ok(total)
}
