//! The deterministic fleet simulation. A [`Sim`] drives tenants through
//! the real stack — a 4-shard tier, result cache and cycle memo, audit
//! plane, ghost planner and seeded fault plane — one [`Step`] at a time.
//! Every tenant request and every operator read is an NDJSON line served
//! by `server::serve_lines`, and each response line must equal one
//! rendered from the sequential [`model::Model`], with rankings from the
//! exhaustive single-engine oracle. After each step the simulation also
//! compares every tenant's `SessionMetrics` by `to_bits`, the audit
//! plane's cycles, tenants, journal and tenant gauges, and the shared
//! planes: resident cache entries and the hit and miss counts of the
//! result cache and the cycle memo.

pub mod model;

use model::{allows, CacheKey, Model};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use toppriv_core::{BeliefEngine, CycleResult, GhostConfig, GhostGenerator, PrivacyRequirement};
use toppriv_service::auditor::{to_micro, M_TENANT_HEADROOM as HEADROOM};
use toppriv_service::auditor::{
    M_TENANT_TRACE_EXPOSURE as TRACE, M_TENANT_WORST_EXPOSURE as WORST,
};
use toppriv_service::cache::{M_CACHE_EVICTIONS, M_CYCLE_MEMO_EVICTIONS};
use toppriv_service::cache::{M_CACHE_SHARD_HITS as HITS, M_CACHE_SHARD_MISSES as MISSES};
use toppriv_service::cache::{M_CYCLE_MEMO_HITS as MEMO_HITS, M_CYCLE_MEMO_MISSES as MEMO_MISSES};
use toppriv_service::obs::{parse_ndjson_line, MetricValue};
use toppriv_service::protocol::{HitDto, SearchReportDto};
use toppriv_service::session::MAX_SESSION_ID_BYTES;
use toppriv_service::{serve_lines, AuditConfig, CycleScheduler, FaultKind, FaultPlane, FaultSpec};
use toppriv_service::{GhostPlanner, Op, PlannedQuery, Request, ResilientReport, Response};
use toppriv_service::{SearchTier, SubmissionPredicate};
use toppriv_service::{ServiceError, SessionConfig, SessionManager, SessionMetrics, SubmitOutcome};
use tsearch_corpus::{generate_workload, BenchmarkQuery, CorpusConfig, EvolutionConfig};
use tsearch_corpus::{SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{Query, ScoringModel::TfIdfCosine, SearchEngine, ShardedEngine};
use tsearch_text::{Analyzer, TermId};

/// Workers of every drain but a `Drain` step's, which draws its own.
const WORKERS: usize = 2;
const TOP_K: usize = 10;
/// The watchdog probe's stall outlasts its deadline five times over, so
/// whether the drain is cut does not depend on timing.
const DEADLINE: Duration = Duration::from_millis(200);
const STALL_MS: u64 = 1000;
/// Above the distinct keys of any run, so nothing is evicted and
/// residency is a set, not an LRU order.
const CACHE_CAPACITY: usize = 1 << 16;

/// One step. Tenant `n` is session `t{n}`; a query index is taken modulo
/// the current corpus's query pool.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Open(usize),
    Close(usize),
    /// A wire `Search`.
    Search(usize, usize),
    /// A paced cycle, through the ghost planner when `true`.
    Plan(usize, usize, bool),
    /// `drain_resilient` of every planned submission by this many
    /// workers, under the fault plane.
    Drain(usize),
    /// Rolls back one of the tenant's cycles, picked by the index.
    Rollback(usize, usize),
    SpillRestore(usize),
    Swap(Swap),
    /// Evolves the corpus and swaps in its tier and a model trained on it.
    Evolve,
    /// Every open tenant plans the same query, through the planner when
    /// `true`, then a drain.
    Crowd(usize, bool),
    /// Threads search a tenant while it closes.
    CloseUnderLoad(usize, usize),
    /// A one-worker drain held past its deadline by an injected stall.
    Stall,
    /// Malformed lines, then searches with a `k` beyond any corpus.
    Hostile(usize, usize),
}

#[derive(Debug, Clone, Copy)]
pub enum Swap {
    /// An identical model, decoded from its encoding, swapped in while
    /// the queued submissions drain.
    Reload,
    SameK,
    NewK,
}

/// What every simulated fleet shares, built once: the base and evolved
/// corpora with their query pools and oracles, and the models (base,
/// retrained at the same K, at another K, on the evolved corpus).
pub struct Stack {
    pub corpus: SyntheticCorpus,
    evolved: SyntheticCorpus,
    pub pools: [Vec<BenchmarkQuery>; 2],
    oracles: [SearchEngine; 2],
    models: [Arc<LdaModel>; 4],
}

fn texts(corpus: &SyntheticCorpus) -> Vec<String> {
    corpus.docs.iter().map(|d| d.text.clone()).collect()
}

fn sharded(c: &SyntheticCorpus) -> SearchTier {
    let (docs, vocab) = (c.token_docs(), c.vocab.clone());
    let engine = ShardedEngine::build(&docs, &texts(c), Analyzer::new(), vocab, TfIdfCosine, 4);
    SearchTier::Sharded(Arc::new(engine))
}

fn train(c: &SyntheticCorpus, k: usize, seed: u64) -> Arc<LdaModel> {
    let config = LdaConfig {
        iterations: 25,
        seed,
        ..LdaConfig::with_topics(k)
    };
    Arc::new(LdaTrainer::train(&c.token_docs(), c.vocab.len(), config))
}

pub fn stack() -> &'static Stack {
    static STACK: OnceLock<Stack> = OnceLock::new();
    STACK.get_or_init(|| {
        let corpus = SyntheticCorpus::generate(CorpusConfig {
            num_docs: 300,
            num_topics: 8,
            terms_per_topic: 60,
            ..Default::default()
        });
        let evolved = corpus.evolve(EvolutionConfig {
            new_topics: 2,
            new_docs: 60,
            new_topic_share: 0.8,
            ..Default::default()
        });
        let (seed, corpora) = (LdaConfig::with_topics(16).seed, [&corpus, &evolved]);
        let jobs = [(0, 16, seed), (0, 16, !seed), (0, 24, seed), (1, 16, seed)];
        let models = std::thread::scope(|s| {
            let trainers = jobs.map(|(c, k, seed)| s.spawn(move || train(corpora[c], k, seed)));
            trainers.map(|t| t.join().expect("trainer"))
        });
        let workload = WorkloadConfig {
            num_queries: 48,
            ..Default::default()
        };
        let engine = |c: &SyntheticCorpus| {
            let (docs, vocab) = (c.token_docs(), c.vocab.clone());
            SearchEngine::build(&docs, &texts(c), Analyzer::new(), vocab, TfIdfCosine)
        };
        let pools = [&corpus, &evolved].map(|c| generate_workload(c, &workload));
        // A query's tokens are its text as the server analyzes it, in
        // order: the memo keys a wire search and a plan of it alike.
        for (pool, c) in pools.iter().zip([&corpus, &evolved]) {
            let analyzed = |q: &BenchmarkQuery| Analyzer::new().analyze_frozen(&q.text, &c.vocab);
            assert!(
                pool.iter().all(|q| analyzed(q) == q.tokens),
                "tokens are the text"
            );
        }
        Stack {
            pools,
            oracles: [engine(&corpus), engine(&evolved)],
            corpus,
            evolved,
            models,
        }
    })
}

/// Every field of `m`, each float by its bits.
fn bits(m: &SessionMetrics) -> (&str, u64, u64, Vec<u64>) {
    let f = [m.mean_cycle_len, m.mean_exposure, m.worst_exposure];
    let g = [m.mean_mask_level, m.satisfied_rate, m.trace_exposure];
    let floats = f.iter().chain(&g).map(|x| x.to_bits()).collect();
    (&m.session, m.cycles, m.queries_emitted, floats)
}

/// `op` as a client sends it: one JSON line.
fn line(op: Op) -> Vec<u8> {
    let mut line = serde_json::to_vec(&Request { op }).expect("request encodes");
    line.push(b'\n');
    line
}

/// What `serve_lines` answers to `input`.
fn serve(manager: &SessionManager, input: &[u8]) -> String {
    let mut out = Vec::new();
    serve_lines(manager, input, &mut out).expect("in-memory streams");
    String::from_utf8(out).expect("a UTF-8 response")
}

/// `response` as the server frames it.
fn render(response: &Response) -> String {
    serde_json::to_string(response).expect("response encodes") + "\n"
}

fn parse(line: &str) -> Response {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"))
}

fn error(e: ServiceError) -> String {
    let message = e.to_string();
    render(&Response::Error { message })
}

fn unknown(id: &str) -> String {
    error(ServiceError::UnknownSession(id.into()))
}

fn search(session: &str, query: &str, k: Option<usize>) -> Op {
    let (session, query) = (session.into(), query.into());
    Op::Search { session, query, k }
}

fn open(session: String) -> Op {
    let (eps1, eps2) = (None, None);
    Op::Open {
        session,
        eps1,
        eps2,
    }
}

fn close(session: String) -> Op {
    Op::Close { session }
}

/// What tells a drained submission apart: session, cycle, genuineness
/// and due time.
type Identity = (String, usize, bool, u64);

fn identity(o: &SubmitOutcome) -> Identity {
    let due = o.time_secs.to_bits();
    (o.session.clone(), o.cycle_id, o.is_genuine, due)
}

/// Each entry a drain went on to resolve, by the identity of its first
/// subscriber's outcome: its tokens, `k` and fan-out.
type Resolving = HashMap<Identity, (Vec<TermId>, usize, u64)>;

/// Drops every queued submission of one cycle.
fn unplan(queue: &mut Vec<PlannedQuery>, id: &str, cycle_id: usize) {
    let other = |session: &str, cycle: usize| session != id || cycle != cycle_id;
    queue.retain_mut(|p| {
        if p.subscribers.is_empty() {
            return other(&p.session, p.scheduled.cycle_id);
        }
        p.subscribers.retain(|t| other(&t.session, t.cycle_id));
        !p.subscribers.is_empty()
    });
}

/// One simulated fleet and its reference model.
pub struct Sim {
    stack: &'static Stack,
    seed: u64,
    pub manager: Arc<SessionManager>,
    planner: GhostPlanner,
    pub model: Model,
    queries: Vec<BenchmarkQuery>,
    /// Planned submissions not drained yet (the planner queues its own).
    pending: Vec<PlannedQuery>,
    evolved: bool,
    /// A model swap runs beside the drain.
    racing: bool,
    journal_seq: u64,
    /// Arms the fault plane's one long stall, for the next entry drawn.
    stall: Arc<AtomicBool>,
    /// Filled by the fault plane as drains pass entries to resolution.
    resolving: Arc<Mutex<Resolving>>,
    /// Result-cache and cycle-memo hits and misses read so far.
    counters: [u64; 4],
    /// Cycles committed on a paced route with their query's topic, the
    /// metrics of every close, the per-tenant outcomes delivered, and the
    /// step kinds that ran.
    pub planned: Vec<(CycleResult, usize)>,
    pub closed: Vec<SessionMetrics>,
    pub drained: usize,
    pub ran: BTreeSet<&'static str>,
    log: Vec<String>,
}

impl Sim {
    /// A fleet under fleet secret `seed` serving `queries`, with worker
    /// panics and shard stalls injected at `fault_rate`.
    pub fn new(seed: u64, queries: Vec<BenchmarkQuery>, fault_rate: f64) -> Self {
        let stack = stack();
        let stall = Arc::new(AtomicBool::new(false));
        let resolving: Arc<Mutex<Resolving>> = Arc::default();
        let armed = stall.clone();
        let stalls: SubmissionPredicate = Arc::new(move |_| armed.swap(false, SeqCst));
        // Consulted only for an entry no worker panic was drawn for, and
        // never firing, this spec sees exactly the entries that resolve.
        let seen = Arc::clone(&resolving);
        let observe: SubmissionPredicate = Arc::new(move |p: &PlannedQuery| {
            let (tag, s) = (&p.subscriber_tags()[0], &p.scheduled);
            let id = (
                tag.session.clone(),
                tag.cycle_id,
                tag.is_genuine,
                s.time_secs.to_bits(),
            );
            let entry = (s.tokens.clone(), p.k, p.fanout() as u64);
            seen.lock().expect("observer").insert(id, entry);
            false
        });
        let plane = FaultPlane::new(seed)
            .with_spec(FaultSpec::predicate(FaultKind::ShardStall, stalls).stalling_ms(STALL_MS))
            .with_spec(FaultSpec::rate(FaultKind::ShardStall, fault_rate).stalling_ms(1))
            .with_spec(FaultSpec::rate(FaultKind::WorkerPanic, fault_rate))
            .with_spec(FaultSpec::predicate(FaultKind::WorkerPanic, observe));
        let manager = SessionManager::with_tier(sharded(&stack.corpus), stack.models[0].clone())
            .with_cache(CACHE_CAPACITY)
            .with_fleet_seed(seed)
            .with_auditor(AuditConfig::default())
            .with_fault_plane(Arc::new(plane));
        let manager = Arc::new(manager);
        Sim {
            stack,
            seed,
            planner: GhostPlanner::new(manager.clone()),
            model: Model::new(stack.models[0].clone()),
            manager,
            queries,
            pending: Vec::new(),
            evolved: false,
            racing: false,
            journal_seq: 0,
            stall,
            resolving,
            counters: [0; 4],
            planned: Vec::new(),
            closed: Vec::new(),
            drained: 0,
            ran: BTreeSet::new(),
            log: Vec::new(),
        }
    }

    /// Applies `step` and compares the stack with the model; on the first
    /// disagreement prints the seed and the step log, and fails.
    pub fn step(&mut self, step: Step) {
        self.log.push(format!("{:4} {step:?}", self.log.len()));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let ran = self.apply(step);
            self.compare();
            ran
        }));
        match ran {
            Ok(ran) => self.ran.extend(ran),
            Err(failure) => {
                let (seed, at, log) = (self.seed, self.log.len() - 1, self.log.join("\n"));
                eprintln!("fleet simulation seed {seed} failed at step {at}; log:\n{log}");
                resume_unwind(failure)
            }
        }
    }

    /// Applies `step`; names its kind unless it was skipped.
    fn apply(&mut self, step: Step) -> Option<&'static str> {
        match step {
            Step::Open(t) => Some(["open_duplicate", "open"][usize::from(self.open(t))]),
            Step::Close(t) => Some(self.close(t)),
            Step::Search(t, q) => Some(self.search(t, q, None)),
            Step::Plan(t, q, false) => self.plan(t, q, false).map(|()| "plan"),
            Step::Plan(t, q, true) => self.plan(t, q, true).map(|()| "plan_planner"),
            Step::Drain(workers) => self.drain(workers),
            Step::Rollback(t, pick) => Some(self.rollback(t, pick)),
            Step::SpillRestore(t) => self.spill_restore(t),
            Step::Swap(swap) => Some(self.swap(swap)),
            Step::Evolve => self.evolve(),
            Step::Crowd(q, planner) => Some(self.crowd(q, planner)),
            Step::CloseUnderLoad(t, q) => Some(self.close_under_load(t, q)),
            Step::Stall => self.stall(),
            Step::Hostile(t, q) => Some(self.hostile(t, q)),
        }
    }

    fn ask(&self, op: Op) -> String {
        serve(&self.manager, &line(op))
    }

    /// The stack against the model, after every step; the audit plane and
    /// the registry are read over the protocol.
    fn compare(&mut self) {
        let ids = self.model.open_ids();
        assert_eq!(self.manager.session_ids(), ids, "open sessions");
        for id in &ids {
            let got = self.manager.session_metrics(id).expect("open");
            assert_eq!(bits(&got), bits(&self.model.metrics(id).expect("open")));
        }
        let epoch = self.manager.model_epoch();
        assert_eq!(epoch, self.model.epoch(), "model epoch");
        let (audited, tenants) = self.model.audit();
        let Response::Health(health) = parse(&self.ask(Op::Health)) else {
            panic!("a Health line");
        };
        let got = (health.cycles_audited, health.tenants, health.healthy);
        assert_eq!(got, (audited, tenants.len(), true), "audit plane");
        // One event more than the model expects: an extra one shows.
        let want = self.model.take_events();
        let limit = Some(want.len() + 1);
        let Response::AuditTail { events } = parse(&self.ask(Op::AuditTail { limit })) else {
            panic!("an AuditTail line");
        };
        let (mut got, seq) = (Vec::new(), self.journal_seq);
        for e in events.into_iter().filter(|e| e.seq >= seq) {
            self.journal_seq = e.seq + 1;
            got.push((e.code, e.tenant, e.cycle));
        }
        got.sort();
        assert_eq!(got, want, "journal events");

        let Response::MetricsNdjson { lines } = parse(&self.ask(Op::MetricsNdjson)) else {
            panic!("a MetricsNdjson line");
        };
        let (mut counters, mut gauges) = (BTreeMap::new(), BTreeMap::new());
        // Histograms cost the most to parse, and none is read below.
        let counted = |line: &&String| !line.contains(r#"{"Histogram":"#);
        let metric = |line: &String| parse_ndjson_line(line).expect("a metric line");
        for m in lines.iter().filter(counted).map(metric) {
            match (m.value, &m.labels[..]) {
                (MetricValue::Counter(n), _) => *counters.entry(m.name).or_insert(0) += n,
                (MetricValue::Gauge(g), [l]) if [HEADROOM, TRACE, WORST].contains(&&*m.name) => {
                    gauges.insert((l.value.clone(), m.name), g);
                }
                _ => {}
            }
        }
        let (eps2, mut want) = (PrivacyRequirement::paper_default().eps2, BTreeMap::new());
        for id in tenants {
            let m = self.model.metrics(&id).expect("open");
            let (trace, worst) = (m.trace_exposure, m.worst_exposure);
            for (name, v) in [(HEADROOM, eps2 - trace), (TRACE, trace), (WORST, worst)] {
                want.insert((id.clone(), name.to_string()), to_micro(v));
            }
        }
        assert_eq!(gauges, want, "tenant gauges");
        let read = |name: &str| counters.get(name).copied().unwrap_or(0);
        let evictions = [M_CACHE_EVICTIONS, M_CYCLE_MEMO_EVICTIONS].map(read);
        assert_eq!(evictions, [0, 0], "result-cache and memo evictions");
        let now = [HITS, MISSES, MEMO_HITS, MEMO_MISSES].map(read);
        let delta = |i: usize| now[i] - self.counters[i];
        for (plane, want) in self.model.take_lookups().iter().enumerate() {
            let (hits, misses) = (delta(2 * plane), delta(2 * plane + 1));
            let what = format!("{}, {want:?}", ["result cache", "cycle memo"][plane]);
            assert!(allows(want, hits, misses), "{what}: {hits}/{misses}");
        }
        self.counters = now;
        let resident = self.manager.cache().expect("cache").len();
        assert_eq!(resident, self.model.resident(), "resident cache entries");
    }

    /// The open tenants, in session-id order.
    pub fn open_tenants(&self) -> Vec<usize> {
        let index = |id: &String| id[1..].parse().expect("t{n}");
        self.model.open_ids().iter().map(index).collect()
    }

    fn query(&self, q: usize) -> BenchmarkQuery {
        let pool = [&self.queries, &self.stack.pools[1]][usize::from(self.evolved)];
        pool[q % pool.len()].clone()
    }

    /// Documents in the corpus the tier serves.
    fn num_docs(&self) -> usize {
        [&self.stack.corpus, &self.stack.evolved][usize::from(self.evolved)]
            .docs
            .len()
    }

    /// The result-cache key of a member asked at depth `k`.
    fn key(&self, tokens: &[TermId], k: usize) -> CacheKey {
        let mut tokens = tokens.to_vec();
        tokens.sort_unstable();
        (tokens, k.min(self.num_docs()))
    }

    /// The exhaustive single engine's top `k` for `genuine`: every tier
    /// must serve exactly these documents and score bits.
    fn oracle(&self, genuine: &[TermId], k: usize) -> Vec<(u32, f64)> {
        let e = usize::from(self.evolved);
        let k = k.min(self.num_docs());
        let want = self.stack.oracles[e].evaluate_bruteforce(&Query::from_tokens(genuine), k);
        want.iter().map(|h| (h.doc_id, h.score)).collect()
    }

    /// The cycle a tenant's own generator formulates for `tokens`: bound
    /// to the tenant's model, under the fleet secret.
    fn reference(&mut self, id: &str, tokens: &[TermId]) -> CycleResult {
        let belief = BeliefEngine::new(self.model.bind(id));
        let mut ghost = GhostConfig::default();
        ghost.seed ^= self.seed;
        let requirement = PrivacyRequirement::paper_default();
        GhostGenerator::new(belief, requirement, ghost).generate(tokens)
    }

    /// Opens `t` over the protocol; `false` when it was open already.
    fn open(&mut self, t: usize) -> bool {
        let id = format!("t{t}");
        let (session, fresh) = (id.clone(), self.model.open(&id));
        let duplicate = error(ServiceError::DuplicateSession(id.clone()));
        let want = fresh.then(|| render(&Response::Opened { session }));
        assert_eq!(self.ask(open(id)), want.unwrap_or(duplicate), "open");
        fresh
    }

    fn close(&mut self, t: usize) -> &'static str {
        let id = format!("t{t}");
        self.withdraw(&id);
        let got = self.ask(close(id.clone()));
        let Some(metrics) = self.model.close(&id) else {
            assert_eq!(got, unknown(&id), "close");
            return "close_unknown";
        };
        assert_eq!(got, render(&Response::Closed(metrics.clone())), "close");
        self.closed.push(metrics);
        "close"
    }

    /// Withdraws a closing tenant's queued submissions: a queued entry
    /// names its tenant by id only, so one left behind would settle or
    /// roll back the same-numbered cycle of a tenant that reopens the id.
    fn withdraw(&mut self, id: &str) {
        self.pending.extend(self.planner.take_queue());
        for c in self.model.cycles(id) {
            unplan(&mut self.pending, id, c.id);
        }
    }

    /// A wire `Search` of query `q` by tenant `t` at depth `k`.
    fn search(&mut self, t: usize, q: usize, k: Option<usize>) -> &'static str {
        let (id, query) = (format!("t{t}"), self.query(q));
        let got = self.ask(search(&id, &query.text, k));
        if !self.model.is_open(&id) {
            assert_eq!(got, unknown(&id), "search of closed {id}");
            return "search_unknown";
        }
        let reference = self.reference(&id, &query.tokens);
        self.answered(&id, &query.tokens, &reference, k.unwrap_or(TOP_K), &got);
        "search"
    }

    /// Checks a wire answer against the line the model renders for the
    /// tenant's reference cycle `c` at depth `k`, then has the model
    /// formulate, resolve and commit that cycle as delivered.
    fn answered(&mut self, id: &str, user: &[TermId], c: &CycleResult, k: usize, got: &str) {
        let dto = |(doc_id, score)| HitDto { doc_id, score };
        let hits = self.oracle(&c.genuine().tokens, k);
        let hits = hits.into_iter().map(dto).collect();
        let report = SearchReportDto {
            cycle_len: c.cycle_len(),
            exposure: c.metrics.exposure,
            mask_level: c.metrics.mask_level,
            satisfied: c.satisfied,
            intention: c.intention.clone(),
        };
        let want = render(&Response::Results { hits, report });
        assert_eq!(got, want, "{id}'s answer");
        self.model.formulate(user, false);
        let members: Vec<_> = c
            .cycle
            .iter()
            .map(|m| (self.key(&m.tokens, k), 1))
            .collect();
        self.model.resolve(&members);
        let cycle_id = self.model.commit(id, c, user);
        self.model.deliver(id, cycle_id, c.cycle_len());
    }

    /// Plans a cycle of `t`; `None` when `t` is closed.
    fn plan(&mut self, t: usize, q: usize, through_planner: bool) -> Option<()> {
        let (id, query) = (format!("t{t}"), self.query(q));
        let (tokens, topic) = (&query.tokens, query.target_topics[0]);
        if !self.model.is_open(&id) {
            return None;
        }
        self.model.formulate(tokens, false);
        if through_planner {
            // Its cycle ids are checked against the planner's queue at the drain.
            let report = self.planner.plan_cycle(&id, tokens, TOP_K).expect("open");
            self.model.commit(&id, &report, tokens);
            self.planned.push((report, topic));
            return Some(());
        }
        let reference = self.reference(&id, tokens);
        let plan = self.manager.plan_cycle(&id, tokens, TOP_K).expect("open");
        // Which members the plan holds is checked at the drain.
        let cycle_id = self.model.commit(&id, &reference, tokens);
        assert_eq!(plan.len(), reference.cycle_len(), "{id}'s plan");
        assert!(plan.iter().all(|p| p.scheduled.cycle_id == cycle_id));
        self.pending.extend(plan);
        self.planned.push((reference, topic));
        Some(())
    }

    fn queue(&mut self) -> Vec<PlannedQuery> {
        let mut queue = std::mem::take(&mut self.pending);
        queue.extend(self.planner.take_queue());
        CycleScheduler::merge(vec![queue])
    }

    /// `drain_resilient` of every planned submission by `workers`
    /// workers.
    fn drain(&mut self, workers: usize) -> Option<&'static str> {
        let scheduler = CycleScheduler::for_manager(&self.manager, workers);
        self.drain_on(&scheduler)?;
        Some(["drain1", "drain2", "drain4"][workers.min(4) / 2])
    }

    /// `drain_resilient` of every planned submission on `scheduler`; its
    /// rollbacks, replans, deliveries and cache lookups then go to the
    /// model. `None` when nothing was queued.
    fn drain_on(&mut self, scheduler: &CycleScheduler) -> Option<ResilientReport> {
        let queue = self.queue();
        if queue.is_empty() {
            return None;
        }
        // Every entry is a member of each cycle its tags name.
        let mut open = BTreeSet::new();
        for p in &queue {
            for tag in &p.subscriber_tags() {
                let cycle = self.model.cycle(&tag.session, tag.cycle_id);
                let members = cycle.map_or(&[][..], |c| &c.report.cycle);
                let entry = (&p.scheduled.tokens, tag.is_genuine);
                let member = members.iter().any(|m| (&m.tokens, m.is_genuine) == entry);
                assert!(member, "{tag:?} has no member {:?}", p.scheduled);
                if cycle.is_some_and(|c| c.outstanding > 0) {
                    open.insert((tag.session.clone(), tag.cycle_id));
                }
            }
        }
        let plane = self.manager.fault_plane().expect("fault plane").clone();
        let fired = || plane.fired(FaultKind::WorkerPanic) + plane.fired(FaultKind::ShardStall);
        let before = fired();
        let report = scheduler.drain_resilient(queue);
        // Rollbacks and replans, in the order the drain made them: a
        // replan may fail and be rolled back in a later round.
        for rb in &report.rolled_back {
            let (id, old) = (&rb.session, rb.cycle_id);
            assert_eq!(self.model.rollback(id, old).as_ref(), Some(&rb.user_tokens));
            let replans_of = report.replanned.iter();
            if let Some((_, _, new)) = replans_of.clone().find(|(s, o, _)| s == id && *o == old) {
                self.model.formulate(&rb.user_tokens, self.racing);
                let reference = self.reference(id, &rb.user_tokens);
                let cycle_id = self.model.commit(id, &reference, &rb.user_tokens);
                assert_eq!(cycle_id, *new, "{id} replanned {old}");
                open.insert((id.clone(), *new));
            }
        }
        // The result cache now holds every entry some outcome came from.
        let mut resolving = std::mem::take(&mut *self.resolving.lock().expect("observer"));
        let done = report.outcomes.iter().chain(&report.discarded);
        let keys: Vec<_> = (done.filter_map(|o| resolving.remove(&identity(o))))
            .map(|(tokens, k, fanout)| (self.key(&tokens, k), fanout))
            .collect();
        self.model.resolve(&keys);
        for o in &report.outcomes {
            self.model.deliver(&o.session, o.cycle_id, 1);
        }
        // Each cycle is delivered in full or rolled back (and gone).
        for (id, cycle_id) in open {
            let cycle = self.model.cycle(&id, cycle_id);
            assert!(cycle.is_none_or(|c| c.outstanding == 0), "{id}'s lost");
        }
        for o in report.outcomes.iter().filter(|o| o.is_genuine) {
            let cycle = self.model.cycle(&o.session, o.cycle_id).expect("delivered");
            let got: Vec<_> = o.hits.iter().map(|h| (h.doc_id, h.score)).collect();
            let want = self.oracle(&cycle.report.genuine().tokens, TOP_K);
            assert_eq!(got, want, "ranking of {}'s cycle {}", o.session, o.cycle_id);
        }
        let clean = report.rounds == 1 && report.rolled_back.is_empty();
        assert!(clean || fired() > before, "a fault-free drain: {report:?}");
        self.drained += report.outcomes.len();
        Some(report)
    }

    fn rollback(&mut self, t: usize, pick: usize) -> &'static str {
        let id = format!("t{t}");
        let cycles = self.model.cycles(&id);
        let open = cycles.iter().filter(|c| c.outstanding > 0);
        let cycle = open.clone().nth(pick % open.count().max(1));
        let cycle_id = cycle.or(cycles.first()).map_or(pick, |c| c.id);
        let want = self.model.rollback(&id, cycle_id);
        match self.manager.rollback_cycle(&id, cycle_id) {
            Err(_) if want.is_none() => "rollback_refused",
            got => {
                assert_eq!(got.map(|rb| rb.user_tokens).ok(), want, "rollback");
                self.pending.extend(self.planner.take_queue());
                unplan(&mut self.pending, &id, cycle_id);
                "rollback"
            }
        }
    }

    /// Spills a tenant with nothing outstanding, closes it and restores it
    /// from the spill.
    fn spill_restore(&mut self, t: usize) -> Option<&'static str> {
        let id = format!("t{t}");
        let outstanding = self.model.cycles(&id).iter().any(|c| c.outstanding > 0);
        if !self.model.is_open(&id) || self.model.unbound(&id) || outstanding {
            return None;
        }
        // Every commit drew a pacer id and advanced the session clock.
        let state = self.manager.export_session(&id).expect("open");
        let next = self.model.next_id(&id);
        let clock = next as f64 * SessionConfig::default().think_time_secs;
        let pacer = (state.next_cycle_id, state.clock_secs);
        assert_eq!(pacer, (next as u64, clock), "{id}'s pacer");
        let spill = format!("fleet_sim_{}_{:x}_{id}", std::process::id(), self.seed);
        let path = std::env::temp_dir().join(spill);
        self.manager.spill_session(&id, &path).expect("spill");
        let closed = self.manager.close_session(&id).expect("open");
        assert_eq!(self.manager.load_session(&path).expect("restore"), id);
        std::fs::remove_file(&path).expect("spilled");
        self.model.spill_restore(&id);
        assert_eq!(bits(&closed), bits(&self.model.metrics(&id).expect("open")));
        Some("spill_restore")
    }

    fn swap(&mut self, swap: Swap) -> &'static str {
        let reload = tsearch_lda::decode(&tsearch_lda::encode(&self.manager.model()));
        let (models, reload) = (&self.stack.models, Arc::new(reload.expect("model codec")));
        let (model, ran) = match (swap, self.evolved) {
            (Swap::SameK, false) => (models[1].clone(), "swap_same_k"),
            (Swap::NewK, false) => (models[2].clone(), "swap_new_k"),
            _ => (reload, "swap_reload"),
        };
        if let Swap::NewK = swap {
            // A K change settles every cycle: drain the queue first.
            self.drain(WORKERS);
        }
        self.model.swap(model.clone());
        let manager = self.manager.clone();
        // A reload is swapped in while the queue drains, losing nothing.
        std::thread::scope(|s| {
            let swapped = s.spawn(move || manager.swap_model(model));
            if let Swap::Reload = swap {
                self.racing = true;
                self.drain(WORKERS);
                self.racing = false;
            }
            let epoch = swapped.join().expect("swap");
            assert_eq!(epoch, self.model.epoch(), "the swap's epoch");
        });
        ran
    }

    /// Evolves the corpus (once) and swaps in its tier and a model trained
    /// on it.
    fn evolve(&mut self) -> Option<&'static str> {
        if self.evolved {
            return None;
        }
        self.drain(WORKERS);
        let fresh = self.stack.models[3].clone();
        self.manager.swap_tier(sharded(&self.stack.evolved));
        self.manager.swap_model(fresh.clone());
        self.model.swap_tier();
        self.model.swap(fresh);
        self.evolved = true;
        Some("evolve")
    }

    /// Every open tenant plans query `q`, through the ghost planner when
    /// `through_planner`, whose queue must then share an entry; then a
    /// drain delivers every queued cycle, each in full, and a delivered
    /// cycle, coalesced or not, no longer rolls back.
    fn crowd(&mut self, q: usize, through_planner: bool) -> &'static str {
        let tenants = self.open_tenants();
        for &t in &tenants {
            self.plan(t, q, through_planner);
        }
        self.pending.extend(self.planner.take_queue());
        let shared = tenants.len() < 2 || self.pending.iter().any(|p| p.fanout() > 1);
        assert!(shared || !through_planner, "a planner crowd shared nothing");
        let tags = self.pending.iter().flat_map(|p| p.subscriber_tags());
        let cycles: BTreeSet<_> = tags.map(|t| (t.session, t.cycle_id)).collect();
        self.drain(WORKERS);
        for (id, cycle_id) in cycles {
            let cycle = self.model.cycle(&id, cycle_id);
            let sealed = cycle.is_some_and(|c| c.outstanding == 0);
            let refused = self.manager.rollback_cycle(&id, cycle_id).is_err();
            assert!(refused || !sealed, "{id}'s sealed cycle {cycle_id}");
        }
        ["crowd", "crowd_planner"][usize::from(through_planner)]
    }

    /// Eight threads search tenant `t` over the wire while it closes:
    /// every search answered was committed before the close, and none
    /// after it debits or audits the closed tenant.
    fn close_under_load(&mut self, t: usize, q: usize) -> &'static str {
        let (id, query) = (format!("t{t}"), self.query(q));
        self.open(t);
        let reference = self.reference(&id, &query.tokens);
        self.withdraw(&id);
        let (manager, answered) = (&*self.manager, AtomicUsize::new(0));
        let (ask, refused) = (line(search(&id, &query.text, None)), unknown(&id));
        let searcher = || {
            let mut answers = Vec::new();
            // Searches run until the close refuses them (the cap keeps a
            // stalled close inside the audit journal's ring).
            let next = || serve(manager, &ask);
            while let Some(r) = (answers.len() < 100).then(next).filter(|r| *r != refused) {
                answers.push(r);
                answered.fetch_add(1, SeqCst);
            }
            answers
        };
        let (closed, answers) = std::thread::scope(|s| {
            let threads = [(); 8].map(|()| s.spawn(searcher));
            while answered.load(SeqCst) < 2 && !threads.iter().all(|t| t.is_finished()) {
                std::thread::yield_now();
            }
            let closed = serve(manager, &line(close(id.clone())));
            (closed, threads.map(|t| t.join().expect("searcher")))
        });
        // The session lock serializes the answered searches.
        for got in answers.into_iter().flatten() {
            self.answered(&id, &query.tokens, &reference, TOP_K, &got);
        }
        let want = self.model.close(&id).expect("open");
        assert_eq!(closed, render(&Response::Closed(want)), "closed under load");
        "close_under_load"
    }

    /// A one-worker drain whose first claimed entry stalls five
    /// deadlines: the watchdog cuts the round at the deadline, the stalled
    /// cycle rolls back and is replanned, and the next round delivers the
    /// rest.
    fn stall(&mut self) -> Option<&'static str> {
        self.pending = self.queue();
        if self.pending.len() < 2 {
            return None;
        }
        self.stall.store(true, SeqCst);
        let scheduler = CycleScheduler::for_manager(&self.manager, 1).with_deadline(DEADLINE);
        let t0 = Instant::now();
        let report = self.drain_on(&scheduler).expect("queued");
        let took = t0.elapsed();
        assert!(!self.stall.load(SeqCst), "no entry stalled");
        assert!(took < 2 * DEADLINE, "the watchdog took {took:?}");
        assert!(
            report.rounds > 1 && !report.rolled_back.is_empty(),
            "{report:?}"
        );
        self.model.note("degraded_drain", "fleet", 1);
        Some("stall")
    }

    /// Hostile lines from tenant `t`: a non-UTF-8 line, unparseable JSON,
    /// a `k` of the wrong type, an over-long session id and an over-long
    /// line each get a typed error and change nothing; then searches at
    /// `k = num_docs` and beyond any corpus are answered at `k = num_docs`
    /// and share one cache key per member.
    fn hostile(&mut self, t: usize, q: usize) -> &'static str {
        let (id, text) = (format!("t{t}"), self.query(q).text);
        self.open(t);
        let k =
            |k| format!(r#"{{"op":{{"Search":{{"session":"{id}","query":"{text}","k":{k}}}}}}}"#);
        let json = [r#"{"op":"#.into(), k("-1"), k("1.5"), k(r#""ten""#)].map(String::into_bytes);
        for mut input in json.into_iter().chain([b"\xff\xfe{}".to_vec()]) {
            input.push(b'\n');
            let got = serve(&self.manager, &input);
            let typed = got.starts_with(r#"{"Error":{"message":"unparseable request: "#);
            assert!(typed, "{got}");
        }
        let long = "x".repeat(MAX_SESSION_ID_BYTES + 1);
        let n = long.len();
        let bytes = format!("session id of {n} bytes exceeds {MAX_SESSION_ID_BYTES}");
        assert_eq!(self.ask(open(long)), error(ServiceError::BadRequest(bytes)));
        let message = "request line exceeds 65536 bytes".into();
        let over = serve(&self.manager, &[b'x'; 64 * 1024 + 1]);
        assert_eq!(over, render(&Response::Error { message }));
        // One ranking, one cache entry per member, however far past the
        // corpus `k` goes: the later searches add no key.
        let mut resident = Vec::new();
        for k in [self.num_docs(), 1_000_000_000_000, usize::MAX] {
            self.search(t, q, Some(k));
            resident.push(self.model.resident());
        }
        assert!(resident.windows(2).all(|w| w[0] == w[1]), "{resident:?}");
        "hostile"
    }
}
