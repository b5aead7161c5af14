//! The deterministic fleet simulation. A [`Sim`] drives tenants through
//! the real stack — a 4-shard tier, result cache, audit plane, ghost
//! planner and seeded fault plane — one [`Step`] at a time. After each
//! step it compares the stack with the sequential [`model::Model`]: every
//! tenant's `SessionMetrics` by `to_bits`, the audit plane's cycles,
//! tenants and journal, and each genuine ranking (doc ids in order)
//! against the exhaustive single-engine oracle.

pub mod model;

use model::Model;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use toppriv_core::{BeliefEngine, CycleResult, GhostConfig, GhostGenerator, PrivacyRequirement};
use toppriv_service::{handle, AuditConfig, CycleScheduler, FaultKind, FaultPlane, FaultSpec};
use toppriv_service::{GhostPlanner, Op, PlannedQuery, Request, Response, SearchTier};
use toppriv_service::{SessionManager, SessionMetrics};
use tsearch_corpus::{generate_workload, BenchmarkQuery, CorpusConfig, EvolutionConfig};
use tsearch_corpus::{SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{Query, ScoringModel::TfIdfCosine, SearchEngine, ShardedEngine};
use tsearch_text::{Analyzer, TermId};

const WORKERS: usize = 2;
const TOP_K: usize = 10;
/// The watchdog probe's stall outlasts its deadline five times over, so
/// whether the drain is cut does not depend on timing.
const DEADLINE: Duration = Duration::from_millis(200);
const STALL_MS: u64 = 1000;

/// One step. Tenant `n` is session `t{n}`; a query index is taken modulo
/// the current corpus's query pool.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Open(usize),
    Close(usize),
    /// A wire `Search` through `server::handle`.
    Search(usize, usize),
    /// A paced cycle, through the ghost planner when `true`.
    Plan(usize, usize, bool),
    /// `drain_resilient` of every planned submission under the fault plane.
    Drain,
    /// Rolls back one of the tenant's cycles, picked by the index.
    Rollback(usize, usize),
    SpillRestore(usize),
    Swap(Swap),
    /// Evolves the corpus and swaps in its tier and a model trained on it.
    Evolve,
    /// Every open tenant plans the same query, then a drain.
    Crowd(usize),
    /// Threads search a tenant while it closes.
    CloseUnderLoad(usize, usize),
    /// A one-worker drain held past its deadline by an injected stall.
    Stall,
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
        Stack {
            pools: [&corpus, &evolved].map(|c| generate_workload(c, &workload)),
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

fn unknown(response: &Response) -> bool {
    matches!(response, Response::Error { message } if message.contains("unknown session"))
}

fn search(session: String, query: String) -> Request {
    let op = Op::Search {
        session,
        query,
        k: None,
    };
    Request { op }
}

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
    scheduler: CycleScheduler,
    pub model: Model,
    queries: Vec<BenchmarkQuery>,
    /// Planned submissions not drained yet (the planner queues its own).
    pending: Vec<PlannedQuery>,
    evolved: bool,
    journal_seq: u64,
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
        let plane = FaultPlane::new(seed)
            .with_spec(FaultSpec::rate(FaultKind::WorkerPanic, fault_rate))
            .with_spec(FaultSpec::rate(FaultKind::ShardStall, fault_rate).stalling_ms(1));
        let manager = SessionManager::with_tier(sharded(&stack.corpus), stack.models[0].clone())
            .with_cache(4096)
            .with_fleet_seed(seed)
            .with_auditor(AuditConfig::default())
            .with_fault_plane(Arc::new(plane));
        let manager = Arc::new(manager);
        Sim {
            stack,
            seed,
            planner: GhostPlanner::new(manager.clone()),
            scheduler: CycleScheduler::for_manager(&manager, WORKERS),
            model: Model::new(stack.models[0].clone()),
            manager,
            queries,
            pending: Vec::new(),
            evolved: false,
            journal_seq: 0,
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
            Step::Open(t) => self.open(t).then_some("open"),
            Step::Close(t) => Some(self.close(t)),
            Step::Search(t, q) => Some(self.search(t, q)),
            Step::Plan(t, q, false) => self.plan(t, q, false).map(|()| "plan"),
            Step::Plan(t, q, true) => self.plan(t, q, true).map(|()| "plan_planner"),
            Step::Drain => self.drain(),
            Step::Rollback(t, pick) => Some(self.rollback(t, pick)),
            Step::SpillRestore(t) => self.spill_restore(t),
            Step::Swap(swap) => Some(self.swap(swap)),
            Step::Evolve => self.evolve(),
            Step::Crowd(q) => Some(self.crowd(q)),
            Step::CloseUnderLoad(t, q) => Some(self.close_under_load(t, q)),
            Step::Stall => self.stall(),
        }
    }

    /// The stack against the model, after every step.
    fn compare(&mut self) {
        let ids = self.model.open_ids();
        assert_eq!(self.manager.session_ids(), ids, "open sessions");
        for id in &ids {
            let got = self.manager.session_metrics(id).expect("open");
            assert_eq!(bits(&got), bits(&self.model.metrics(id).expect("open")));
        }
        let auditor = self.manager.auditor().expect("audit plane");
        let health = auditor.health();
        let (audited, tenants) = self.model.audit();
        let got = (health.cycles_audited, health.tenants, health.healthy);
        assert_eq!(got, (audited, tenants, true), "audit plane");
        let (tail, seq) = (auditor.tail(1024), self.journal_seq);
        let mut got = Vec::new();
        for e in tail.into_iter().filter(|e| e.seq >= seq) {
            self.journal_seq = e.seq + 1;
            got.push((e.code, e.tenant, e.cycle));
        }
        got.sort();
        assert_eq!(got, self.model.take_events(), "journal events");
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

    /// Checks `got` against the oracle's ranking of the genuine member.
    fn ranking(&self, genuine: &[TermId], got: Vec<u32>) {
        let oracle = &self.stack.oracles[usize::from(self.evolved)];
        let want = oracle.evaluate_bruteforce(&Query::from_tokens(genuine), TOP_K);
        let want: Vec<u32> = want.iter().map(|h| h.doc_id).collect();
        assert_eq!(got, want, "ranking of {genuine:?}");
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

    /// Opens `t`; `false` when it was open already.
    fn open(&mut self, t: usize) -> bool {
        let id = format!("t{t}");
        let fresh = self.model.open(&id);
        assert_eq!(self.manager.open_session(&id).is_ok(), fresh, "open {id}");
        fresh
    }

    fn close(&mut self, t: usize) -> &'static str {
        let id = format!("t{t}");
        self.withdraw(&id);
        let want = self.model.close(&id);
        let got = self.manager.close_session(&id).ok();
        assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits));
        self.closed.extend(got);
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

    fn search(&mut self, t: usize, q: usize) -> &'static str {
        let (id, query) = (format!("t{t}"), self.query(q));
        let got = handle(&self.manager, search(id.clone(), query.text));
        if !self.model.is_open(&id) {
            assert!(unknown(&got), "search of closed {id}: {got:?}");
            return "search";
        }
        let reference = self.reference(&id, &query.tokens);
        self.answered(&id, &query.tokens, &reference, got);
        "search"
    }

    /// Checks a wire answer against the tenant's reference cycle, then
    /// commits that cycle as delivered.
    fn answered(&mut self, id: &str, user: &[TermId], c: &CycleResult, got: Response) {
        let Response::Results { hits, report: r } = got else {
            panic!("search of {id}: {got:?}");
        };
        let (m, len) = (&c.metrics, c.cycle_len());
        assert_eq!([r.exposure, r.mask_level], [m.exposure, m.mask_level]);
        assert_eq!((r.cycle_len, r.satisfied), (len, c.satisfied));
        assert_eq!(r.intention, c.intention);
        self.ranking(&c.genuine().tokens, hits.iter().map(|h| h.doc_id).collect());
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

    /// `drain_resilient` of every planned submission; its rollbacks,
    /// replans and deliveries then go to the model.
    fn drain(&mut self) -> Option<&'static str> {
        let queue = self.queue();
        if queue.is_empty() {
            return None;
        }
        // Every entry is a member of each cycle its tags name.
        let mut open = BTreeSet::new();
        for p in &queue {
            for tag in p.subscriber_tags() {
                let cycle = self.model.cycle(&tag.session, tag.cycle_id);
                let members = cycle.map_or(&[][..], |c| &c.report.cycle);
                let entry = (&p.scheduled.tokens, tag.is_genuine);
                let member = members.iter().any(|m| (&m.tokens, m.is_genuine) == entry);
                assert!(member, "{tag:?} has no member {:?}", p.scheduled);
                if cycle.is_some_and(|c| c.outstanding > 0) {
                    open.insert((tag.session, tag.cycle_id));
                }
            }
        }
        let plane = self.manager.fault_plane().expect("fault plane").clone();
        let fired = || plane.fired(FaultKind::WorkerPanic) + plane.fired(FaultKind::ShardStall);
        let before = fired();
        let report = self.scheduler.drain_resilient(&self.manager, queue);
        for rb in &report.rolled_back {
            let (id, old) = (&rb.session, rb.cycle_id);
            assert_eq!(self.model.rollback(id, old).as_ref(), Some(&rb.user_tokens));
            let replans = report.replanned.iter();
            if let Some((_, _, new)) = replans.clone().find(|(s, o, _)| s == id && *o == old) {
                let reference = self.reference(id, &rb.user_tokens);
                let cycle_id = self.model.commit(id, &reference, &rb.user_tokens);
                assert_eq!(cycle_id, *new, "{id} replanned {old}");
                open.insert((id.clone(), *new));
            }
        }
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
            let got = o.hits.iter().map(|h| h.doc_id).collect();
            self.ranking(&cycle.report.genuine().tokens, got);
        }
        let clean = report.rounds == 1 && report.rolled_back.is_empty();
        assert!(clean || fired() > before, "a fault-free drain: {report:?}");
        self.drained += report.outcomes.len();
        Some("drain")
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
            self.drain();
        }
        self.model.swap(model.clone());
        let manager = self.manager.clone();
        // A reload is swapped in while the queue drains, losing nothing.
        std::thread::scope(|s| {
            s.spawn(move || manager.swap_model(model));
            if let Swap::Reload = swap {
                self.drain();
            }
        });
        ran
    }

    /// Evolves the corpus (once) and swaps in its tier and a model trained
    /// on it.
    fn evolve(&mut self) -> Option<&'static str> {
        if self.evolved {
            return None;
        }
        self.drain();
        let fresh = self.stack.models[3].clone();
        self.manager.swap_tier(sharded(&self.stack.evolved));
        self.manager.swap_model(fresh.clone());
        self.model.swap(fresh);
        self.scheduler = CycleScheduler::for_manager(&self.manager, WORKERS);
        self.evolved = true;
        Some("evolve")
    }

    /// Every open tenant plans query `q`: identical cycles, whose members
    /// the result cache absorbs — at most one miss per member per worker.
    fn crowd(&mut self, q: usize) -> &'static str {
        let tenants = self.open_tenants();
        let hits = self.manager.metrics().global.cache_hits;
        for &t in &tenants {
            self.plan(t, q, false);
        }
        self.drain();
        let hits = self.manager.metrics().global.cache_hits - hits;
        assert!(tenants.len() <= WORKERS || hits > 0, "a crowd hit no cache");
        "crowd"
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
        let ask = || handle(manager, search(id.clone(), query.text.clone()));
        let searcher = || {
            let mut answers = Vec::new();
            // Searches run until the close refuses them (the cap keeps a
            // stalled close inside the audit journal's ring).
            while let Some(r) = (answers.len() < 100).then(ask).filter(|r| !unknown(r)) {
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
            let closed = manager.close_session(&id).expect("open");
            (closed, threads.map(|t| t.join().expect("searcher")))
        });
        for got in answers.into_iter().flatten() {
            self.answered(&id, &query.tokens, &reference, got);
        }
        let want = self.model.close(&id).expect("open");
        assert_eq!(bits(&closed), bits(&want), "closed under load");
        "close_under_load"
    }

    /// A one-worker drain whose first submission stalls five deadlines:
    /// the watchdog cuts the drain at the deadline, the stalled cycle rolls
    /// back, and the next drain delivers the rest.
    fn stall(&mut self) -> Option<&'static str> {
        let queue = self.queue();
        if queue.len() < 2 {
            self.pending = queue;
            return None;
        }
        let spec = FaultSpec::rate(FaultKind::ShardStall, 1.0).stalling_ms(STALL_MS);
        let plane = Arc::new(FaultPlane::new(self.seed).with_spec(spec.limit(1)));
        let scheduler = CycleScheduler::for_manager(&self.manager, 1).with_fault_plane(plane);
        let (entries, t0) = (queue.len(), Instant::now());
        let drained = scheduler.with_deadline(DEADLINE).try_drain(queue);
        let (took, err) = (t0.elapsed(), drained.expect_err("stalled"));
        assert!(took < 2 * DEADLINE, "the watchdog took {took:?}");
        let cut = (err.failed.len(), err.completed.len(), err.unresolved.len());
        assert_eq!(cut, (1, 0, entries - 1), "failed, completed, unresolved");
        self.model.note("degraded_drain", "fleet", 1);
        self.pending = err.unresolved;
        for tag in err.failed[0].subscriber_tags() {
            let (id, cycle_id) = (&tag.session, tag.cycle_id);
            let want = self.model.rollback(id, cycle_id);
            let got = self.manager.rollback_cycle(id, cycle_id).ok();
            assert_eq!(got.map(|rb| rb.user_tokens), want, "stalled {id}");
            unplan(&mut self.pending, id, cycle_id);
        }
        self.drain();
        Some("stall")
    }
}
