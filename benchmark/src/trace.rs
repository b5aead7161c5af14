//! The traced run: spans recorded from the benchmark's own files around the
//! calls into each layer's public functions, and the per-request ledger.
//!
//! Tracing inside `toppriv-serve` is a later issue. Here the first requests of
//! a workload's sequence are replayed against an in-process stack built with
//! the server's configuration; every layer boundary is one span (name, start,
//! end, parent, request), kept in memory and written out as NDJSON at the end.

use crate::loadgen::{self, Op, OpStream, WireWorkload, SESSIONS_PER_CONN};
use crate::stack::{PoolQuery, CACHE_ENTRIES, TOP_K};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use toppriv::search::Query;
use toppriv::service::{handle, AuditConfig, Request, SessionConfig};
use toppriv::{BeliefEngine, LdaModel, ResultCache, SearchTier, SessionManager};

/// Requests replayed untimed first: enough for `wire_hot` to touch its whole
/// hot set.
pub const REPLAY_WARMUP: usize = 288;
/// Requests replayed with spans. Cut from the issue's 2 000 so that a traced
/// run fits the driver's per-run budget.
pub const REPLAY_REQUESTS: usize = 300;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct OpenSpan {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl OpenSpan {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span journal. Disabled, it still times (callers use the
/// durations) but stores nothing: the wall-clock difference between an
/// enabled and a disabled pass is the tracing overhead.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    pub spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> OpenSpan {
        let id = self.next_id;
        self.next_id += 1;
        OpenSpan {
            id,
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span; returns its duration in ns.
    pub fn close(&mut self, span: OpenSpan) -> u64 {
        let end = Instant::now();
        if self.enabled {
            self.spans.push(SpanRec {
                id: span.id,
                parent: span.parent,
                request: span.request,
                name: span.name,
                start_ns: (span.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
        (end - span.start).as_nanos() as u64
    }

    /// `(total ns, calls)` per span name.
    pub fn totals(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
        }
        out
    }

    /// Self time per span name: a span's duration minus its children's.
    pub fn self_totals(&self) -> HashMap<&'static str, u64> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    pub searches: u64,
    pub members: u64,
    pub misses: u64,
    pub satisfied: u64,
    pub postings: u64,
    pub shards_touched: u64,
}

/// Times the layers under one `Search` by calling each one's public function
/// on the request's own inputs. Its cache is a shadow of the manager's: it
/// sees the same member sequence, so it hits and misses alike.
pub struct Decomposer {
    tier: SearchTier,
    belief: BeliefEngine,
    shadow: ResultCache,
    pub counts: Counts,
}

impl Decomposer {
    pub fn new(tier: SearchTier, model: Arc<LdaModel>) -> Self {
        Decomposer {
            tier,
            belief: BeliefEngine::new(model),
            shadow: ResultCache::new(CACHE_ENTRIES),
            counts: Counts::default(),
        }
    }

    /// `manager.formulate_cycle` commits nothing, so this may run beside the
    /// manager's own `search` of the same request.
    pub fn search(
        &mut self,
        log: &mut SpanLog,
        parent: u64,
        request: u64,
        manager: &SessionManager,
        session: &str,
        text: &str,
    ) {
        let root = log.open("replay.decompose", parent, request);
        let at = root.id();

        let s = log.open("text.analyze", at, request);
        let tokens = self.tier.analyzer().analyze_frozen(text, self.tier.vocab());
        log.close(s);

        let s = log.open("core.formulate", at, request);
        let cycle = manager.formulate_cycle(session, &tokens, TOP_K);
        log.close(s);
        let Ok(cycle) = cycle else {
            log.close(root);
            return;
        };

        let s = log.open("lda.infer", at, request);
        black_box(self.belief.posterior(&tokens));
        log.close(s);

        self.counts.searches += 1;
        self.counts.satisfied += u64::from(cycle.report().satisfied);
        for member in &cycle.report().cycle {
            self.counts.members += 1;
            let m = log.open("member", at, request);
            let s = log.open("cache.lookup", m.id(), request);
            let cached = self.shadow.get(&member.tokens, TOP_K);
            log.close(s);
            if cached.is_none() {
                self.counts.misses += 1;
                let s = log.open("search.eval", m.id(), request);
                let hits = self.tier.search_tokens(&member.tokens, TOP_K);
                log.close(s);
                let s = log.open("cache.insert", m.id(), request);
                self.shadow.insert(&member.tokens, TOP_K, hits);
                log.close(s);
            }
            log.close(m);
            self.diagnose(log, at, request, &member.tokens);
        }
        log.close(root);
    }

    /// Outside the ledger: what evaluating a member costs below the engine's
    /// API (postings decode) and across shards (scatter, gather).
    fn diagnose(&mut self, log: &mut SpanLog, parent: u64, request: u64, tokens: &[u32]) {
        let query = Query::from_tokens(tokens);
        let s = log.open("index.decode", parent, request);
        let mut postings = 0u64;
        for (term, _) in query.terms() {
            let list = match &self.tier {
                SearchTier::Single(e) => e.index().postings(term),
                SearchTier::Sharded(e) => e.index().postings(term),
            };
            for p in list.iter() {
                black_box(p);
                postings += 1;
            }
        }
        log.close(s);
        self.counts.postings += postings;

        match &self.tier {
            SearchTier::Single(_) => self.counts.shards_touched += 1,
            SearchTier::Sharded(engine) => {
                let shards = engine.shard_set(tokens);
                self.counts.shards_touched += shards.len() as u64;
                let mut partials = Vec::with_capacity(shards.len());
                for &shard in &shards {
                    let s = log.open("search.shard_eval", parent, request);
                    partials.push(engine.shard_partials(shard, &query));
                    log.close(s);
                }
                let s = log.open("search.gather", parent, request);
                black_box(engine.merge_partials(partials, TOP_K));
                log.close(s);
            }
        }
    }
}

/// A manager configured like `toppriv-serve`'s, except for the registry
/// (private, so two managers do not share counters) and the fleet seed
/// (pinned, so in-process counts repeat exactly).
pub fn server_like_manager(
    tier: SearchTier,
    model: Arc<LdaModel>,
    fleet_seed: u64,
    cache: bool,
) -> SessionManager {
    let manager = SessionManager::with_tier(tier, model)
        .with_defaults(SessionConfig::default())
        .with_auditor(AuditConfig::default())
        .with_fleet_seed(fleet_seed);
    if cache {
        manager.with_cache(CACHE_ENTRIES)
    } else {
        manager
    }
}

pub struct ReplayPass {
    pub wall_s: f64,
    pub log: SpanLog,
    pub counts: Counts,
}

/// Replays the first requests of a wire workload in-process: both connections'
/// streams interleaved, as the server sees them. Manager `a` takes the real
/// path (`parse → handle → encode`); manager `b` takes `SessionManager::search`
/// and the decomposition, so `handle` and `search` are timed independently.
pub fn replay_pass(
    workload: WireWorkload,
    seed: u64,
    conns: usize,
    pool: &[PoolQuery],
    tier: &SearchTier,
    model: &Arc<LdaModel>,
    enabled: bool,
) -> ReplayPass {
    let fleet_seed = seed ^ 0xF1EE_75EE_D000_0001;
    let a = server_like_manager(tier.clone(), model.clone(), fleet_seed, true);
    let b = server_like_manager(tier.clone(), model.clone(), fleet_seed, true);
    let mut streams: Vec<OpStream> = (0..conns)
        .map(|c| OpStream::new(workload, seed, c, conns, pool.len()))
        .collect();
    for c in 0..conns {
        for slot in 0..SESSIONS_PER_CONN {
            let id = loadgen::session_id(c, slot);
            a.open_session(&id).expect("fresh session");
            b.open_session(&id).expect("fresh session");
        }
    }
    let mut decomposer = Decomposer::new(tier.clone(), model.clone());
    let mut log = SpanLog::new(false);
    let mut request = 0u64;
    let mut t0 = Instant::now();
    for n in 0..REPLAY_WARMUP + REPLAY_REQUESTS {
        if n == REPLAY_WARMUP {
            decomposer.counts = Counts::default();
            log = SpanLog::new(enabled);
            t0 = Instant::now();
        }
        let c = n % conns;
        let op = streams[c].next_op();
        for line in loadgen::lines(op, c, pool) {
            request += 1;
            one_request(
                &mut log,
                request,
                &line,
                op,
                c,
                pool,
                &a,
                &b,
                &mut decomposer,
            );
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ReplayPass {
        wall_s,
        log,
        counts: decomposer.counts,
    }
}

#[allow(clippy::too_many_arguments)]
fn one_request(
    log: &mut SpanLog,
    request: u64,
    line: &str,
    op: Op,
    conn: usize,
    pool: &[PoolQuery],
    a: &SessionManager,
    b: &SessionManager,
    decomposer: &mut Decomposer,
) {
    let root = log.open("request", 0, request);
    let at = root.id();
    // Churn and scrape requests get their own span names, so the per-`Search`
    // rows hold `Search` requests only.
    let [parse, handling, encode] = match op {
        Op::Search { .. } => ["protocol.parse", "server.handle", "protocol.encode"],
        _ => ["other.parse", "other.handle", "other.encode"],
    };

    let s = log.open(parse, at, request);
    let parsed = serde_json::from_str::<Request>(line).expect("generated requests parse");
    log.close(s);

    let for_b = parsed.clone();
    let s = log.open(handling, at, request);
    let response = handle(a, parsed);
    log.close(s);

    let s = log.open(encode, at, request);
    black_box(serde_json::to_string(&response).expect("responses serialize"));
    log.close(s);

    if let Op::Search { slot, query, .. } = op {
        let session = loadgen::session_id(conn, slot);
        let text = &pool[query].text;
        let s = log.open("session.search", at, request);
        black_box(
            b.search(&session, text, TOP_K)
                .expect("replayed search succeeds"),
        );
        log.close(s);
        decomposer.search(log, at, request, b, &session, text);
    } else {
        // Churn and scrapes only need to keep `b`'s session table in step.
        black_box(handle(b, for_b));
    }
    log.close(root);
}

/// Mean µs per call of a span name; 0 when it never ran.
pub fn mean_us(totals: &HashMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match totals.get(name) {
        Some(&(ns, calls)) if calls > 0 => ns as f64 / calls as f64 / 1e3,
        _ => 0.0,
    }
}

/// µs of a span name per `Search` request.
pub fn per_search_us(totals: &HashMap<&'static str, (u64, u64)>, name: &str, searches: u64) -> f64 {
    match totals.get(name) {
        Some(&(ns, _)) if searches > 0 => ns as f64 / searches as f64 / 1e3,
        _ => 0.0,
    }
}

/// One workload's per-request budget: rows that should sum to the wire RTT.
pub struct Ledger {
    pub rtt_us: f64,
    /// `(row, µs per Search)`.
    pub rows: Vec<(&'static str, f64)>,
    pub residual_frac: f64,
}

/// `transport + parse + analyze + formulate + Σ members (lookup + miss ×
/// (eval + insert)) + session.self + encode` against the measured wire RTT.
///
/// `transport` is what the socket adds around the replayed server work: RTT
/// minus `parse + handle + encode`. (The issue subtracts `handle` alone, which
/// would count parse and encode twice.) With that, what the rows leave over is
/// `handle − session.search`: two independent timings of the same work.
pub fn ledger(rtt_us: f64, totals: &HashMap<&'static str, (u64, u64)>, searches: u64) -> Ledger {
    let per = |name| per_search_us(totals, name, searches);
    let parse = per("protocol.parse");
    let encode = per("protocol.encode");
    let analyze = per("text.analyze");
    let formulate = per("core.formulate");
    let members = per("cache.lookup") + per("search.eval") + per("cache.insert");
    let session_self = per("session.search") - analyze - formulate - members;
    let transport = rtt_us - parse - per("server.handle") - encode;
    let rows = vec![
        ("server.transport", transport),
        ("protocol.parse", parse),
        ("text.analyze", analyze),
        ("core.formulate", formulate),
        ("cache.lookup", per("cache.lookup")),
        ("search.eval", per("search.eval")),
        ("cache.insert", per("cache.insert")),
        ("session.self", session_self),
        ("protocol.encode", encode),
    ];
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    Ledger {
        rtt_us,
        rows,
        residual_frac: if rtt_us > 0.0 {
            1.0 - sum / rtt_us
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::new(true);
        log.spans = vec![
            SpanRec {
                id: 1,
                parent: 0,
                request: 1,
                name: "request",
                start_ns: 0,
                end_ns: 100,
            },
            SpanRec {
                id: 2,
                parent: 1,
                request: 1,
                name: "parse",
                start_ns: 5,
                end_ns: 25,
            },
            SpanRec {
                id: 3,
                parent: 1,
                request: 1,
                name: "handle",
                start_ns: 30,
                end_ns: 90,
            },
            SpanRec {
                id: 4,
                parent: 3,
                request: 1,
                name: "eval",
                start_ns: 40,
                end_ns: 80,
            },
        ];
        let own = log.self_totals();
        assert_eq!(own["request"], 20);
        assert_eq!(own["parse"], 20);
        assert_eq!(own["handle"], 20);
        assert_eq!(own["eval"], 40);
        assert_eq!(log.totals()["handle"], (60, 1));
    }

    #[test]
    fn disabled_log_times_but_stores_nothing() {
        let mut log = SpanLog::new(false);
        let s = log.open("x", 0, 1);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(log.close(s) >= 1_000_000);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn ledger_rows_and_residual_sum_to_the_rtt() {
        let mut totals: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for (name, us) in [
            ("protocol.parse", 10),
            ("server.handle", 1_000),
            ("protocol.encode", 20),
            ("text.analyze", 5),
            ("core.formulate", 300),
            ("cache.lookup", 15),
            ("search.eval", 500),
            ("cache.insert", 10),
            ("session.search", 950),
        ] {
            totals.insert(name, (us * 1_000 * 4, 4));
        }
        let l = ledger(5_000.0, &totals, 4);
        let sum: f64 = l.rows.iter().map(|r| r.1).sum();
        assert!((sum + l.residual_frac * 5_000.0 - 5_000.0).abs() < 1e-6);
        // handle − search = 50 µs of 5 000.
        assert!((l.residual_frac - 0.01).abs() < 1e-9);
    }
}
