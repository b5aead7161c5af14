//! The global cycle scheduler.
//!
//! Each session paces its own cycle onto a simulated clock (the per-user
//! timing defense of `toppriv_core::pacing`); the service must then
//! submit the union of all tenants' schedules. [`CycleScheduler`] merges
//! the per-session plans into one time-ordered queue — the service-level
//! counterpart of [`toppriv_core::merge_schedules`], keeping its exact
//! ordering semantics — and drains it in **groups**: the entries whose
//! lowest term is the same. Entries that share a prefix of terms share
//! a group, and the entries of a group that reach the engine are ranked
//! in one term-ordered walk (`SearchEngine::evaluate_batch`), which reads
//! a shared prefix once. Workers claim groups from one shared cursor,
//! largest (most entries) first, so the groups claimed last are small.
//! Shards are neither a scheduling unit nor a failure domain above the
//! tier; per-shard work is the engine's own `engine_shard_eval_us{shard}`.
//!
//! Grouping changes what the engine reads, not what an entry is: each
//! entry is claimed (under the deadline), drawn for faults, retried,
//! looked up, logged, counted and fanned out on its own, with the
//! accounting one worker draining the queue in order would give. Keys
//! never cross groups, so a cache lookup cannot race another worker's
//! insert: with a cache, a later duplicate is a hit and never reaches the
//! engine; without one, every entry reaches it. The engine's log is
//! written when the workers have joined: every entry that reached the
//! engine, in queue order, under consecutive ordinals. So the log reads
//! as one worker draining the queue in order would leave it, and its
//! ordinals count exactly the submissions the engine received — a cache
//! hit, a failed entry or one the deadline cut takes none.
//!
//! A scheduler is built from the manager whose cycles it drains
//! ([`CycleScheduler::for_manager`]) and shares that manager's tier,
//! cache, metrics, auditor, fault plane and session table.
//!
//! A drain is four steps, each its own function: **claim** (the deadline
//! watchdog), **resolve with retry** (a group's entries as one batch; an
//! entry whose first attempt fails is retried alone, with bounded
//! exponential backoff), **fan-out** (one outcome per subscribing
//! tenant), and — after the workers join — **settle**: every delivered
//! member is counted against its cycle in the owning session, and a
//! cycle whose members were all delivered leaves the rollback window.
//! That is the only way a planned cycle is sealed, on every drain path.
//!
//! Draining consumes the queue without sleeping between submissions:
//! simulated time orders the trace the engine sees, while wall-clock
//! throughput is bounded only by the worker pool. Queue depth and
//! per-submit latency are reported to [`ServiceMetrics`]; each drain
//! additionally records **queue wait** (drain start → an entry's claim)
//! into [`M_QUEUE_WAIT_US`] and **service time** (one group's
//! resolution) into [`M_SERVICE_US`], and journals a `drain` span with
//! one `drain_worker` child per worker into the global tracer.

use crate::cache::ResultCache;
use crate::fault::{FaultKind, FaultPlane};
use crate::metrics::ServiceMetrics;
use crate::session::{self, Resolving, RolledBackCycle, SessionManager, SessionTable};
use crate::tier::SearchTier;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use toppriv_core::ScheduledQuery;
use toppriv_obs::{AuditSeverity, Counter, HistogramHandle, Span};
use tsearch_search::SearchHit;
use tsearch_text::TermId;

/// Metric name: queue wait (claim time − drain start, µs).
pub const M_QUEUE_WAIT_US: &str = "scheduler_queue_wait_us";
/// Metric name: service time (µs): one sample per claimed group, its
/// entries' resolution, retries and fan-out.
pub const M_SERVICE_US: &str = "scheduler_service_us";
/// Metric name: drained submission counter. The series carries no
/// `shard` label; the Rust name stays because `benchmark/src/fleet.rs`
/// imports it.
pub const M_SHARD_SUBMITS: &str = "scheduler_submits_total";
/// Metric name: submission retry counter.
pub const M_RETRIES: &str = "scheduler_retries_total";

/// Attempts per submission (first try included) before its failure is
/// terminal.
const MAX_ATTEMPTS: u32 = 3;
/// First retry backoff; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Retry backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(50);
/// Default per-drain deadline: far beyond any healthy drain.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// One subscribing tenant of a (possibly shared) planned submission.
///
/// The cross-session planner coalesces identical submissions from
/// several tenants into one queue entry; each subscriber keeps its own
/// ground-truth cycle id and genuine flag, so the drain can fan the
/// single resolution out into per-tenant outcomes.
/// Tags exist only inside the trusted service boundary — the engine
/// sees one untagged submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionTag {
    /// Subscribing session id.
    pub session: String,
    /// That session's ground-truth cycle id (evaluation/audit only).
    pub cycle_id: usize,
    /// Whether the submission is this subscriber's genuine query.
    pub is_genuine: bool,
}

/// One scheduled submission, tagged with its tenant.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Owning session id.
    pub session: String,
    /// The paced submission (simulated time, tokens, ground truth).
    pub scheduled: ScheduledQuery,
    /// Results to fetch.
    pub k: usize,
    /// All subscribing tenants when the planner coalesced this entry
    /// (owner included). Empty for the common unshared case — the owner
    /// fields above are the single implicit subscriber.
    pub subscribers: Vec<SubmissionTag>,
}

impl PlannedQuery {
    /// The subscriber list this entry resolves for: the explicit
    /// `subscribers` when the planner shared it, else the implicit
    /// owner-only tag.
    pub fn subscriber_tags(&self) -> Vec<SubmissionTag> {
        if self.subscribers.is_empty() {
            vec![SubmissionTag {
                session: self.session.clone(),
                cycle_id: self.scheduled.cycle_id,
                is_genuine: self.scheduled.is_genuine,
            }]
        } else {
            self.subscribers.clone()
        }
    }

    /// How many per-tenant outcomes this entry fans out into.
    pub fn fanout(&self) -> usize {
        self.subscribers.len().max(1)
    }
}

/// Outcome of one drained submission.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Owning session id.
    pub session: String,
    /// Ground-truth cycle id within the session (evaluation only).
    pub cycle_id: usize,
    /// Simulated submission time.
    pub time_secs: f64,
    /// Whether this was the genuine query (evaluation only).
    pub is_genuine: bool,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// The genuine query's hits; ghost results are discarded at the
    /// trusted boundary and never materialize here.
    pub hits: Vec<SearchHit>,
}

/// One worker failure surfaced by [`CycleScheduler::try_drain`] —
/// terminal, i.e. the submission exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct SubmissionFailure {
    /// Session owning the submission that triggered the panic.
    pub session: String,
    /// The owning session's cycle id (what a rollback reverses).
    pub cycle_id: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

/// A drain that lost submissions to worker panics. The submissions that
/// did complete are preserved in `completed` (sorted like a successful
/// drain), so callers can still account for the partial trace; the
/// submissions that did **not** come back as plans the caller can retry
/// or roll back (see [`CycleScheduler::drain_resilient`]) — nothing is
/// silently dropped.
#[derive(Debug)]
pub struct DrainError {
    /// Per-submission terminal failures, in queue order.
    pub failures: Vec<SubmissionFailure>,
    /// The failed entries themselves, in queue order (each produced
    /// exactly one entry in `failures`). Re-draining them
    /// verbatim replays the same deterministic fault decisions — these
    /// are rollback candidates, not retry candidates.
    pub failed: Vec<PlannedQuery>,
    /// Entries never attempted: unclaimed when the drain deadline cut
    /// the drain short. Safe to re-queue into a later drain verbatim.
    pub unresolved: Vec<PlannedQuery>,
    /// Outcomes of the submissions that completed.
    pub completed: Vec<SubmitOutcome>,
    /// Per-tenant outcomes the drain was asked to produce — the sum of
    /// every queue entry's subscriber fan-out (equal to the queue length
    /// when nothing was coalesced).
    pub expected: usize,
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drain lost {} of {} submissions to worker panics",
            self.failures.len(),
            self.expected
        )?;
        if !self.unresolved.is_empty() {
            write!(
                f,
                " ({} unresolved entries re-queued)",
                self.unresolved.len()
            )?;
        }
        if let Some(first) = self.failures.first() {
            write!(
                f,
                " (first: session '{}': {})",
                first.session, first.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for DrainError {}

/// What [`CycleScheduler::drain_resilient`] produces: the delivered
/// outcomes plus a full ledger of everything the self-healing path did.
#[derive(Debug)]
pub struct ResilientReport {
    /// Outcomes of every *fully delivered* cycle, sorted by simulated
    /// time like a plain drain.
    pub outcomes: Vec<SubmitOutcome>,
    /// Outcomes that resolved against the engine but belong to cycles
    /// later rolled back — discarded from `outcomes` (cycle atomicity)
    /// but kept here so engine-side accounting identities (`merged +
    /// cache_hits == drained`) remain checkable.
    pub discarded: Vec<SubmitOutcome>,
    /// Every cycle whose trace debits were reversed.
    pub rolled_back: Vec<RolledBackCycle>,
    /// `(session, old cycle id, new cycle id)` for every rolled-back
    /// cycle that was replanned as a fresh cycle.
    pub replanned: Vec<(String, usize, usize)>,
    /// Drain rounds it took (1 for a fault-free queue).
    pub rounds: usize,
}

/// What every worker of one drain shares.
struct DrainRun<'a> {
    queue: &'a [PlannedQuery],
    /// Queue positions by group, largest group first, each in queue order.
    groups: Vec<Vec<usize>>,
    /// Next unclaimed group.
    cursor: AtomicUsize,
    /// Entries claimed so far.
    taken: AtomicUsize,
    started: Instant,
}

/// What became of one claimed entry, keyed by its queue position: its
/// fanned-out outcomes, or its terminal failure. Workers collect these
/// locally and hand them back when they join.
type Claimed = (usize, Result<Vec<SubmitOutcome>, SubmissionFailure>);

/// Merges per-session plans and drains them on one shared worker queue.
pub struct CycleScheduler {
    tier: SearchTier,
    cache: Option<Arc<ResultCache>>,
    metrics: Arc<ServiceMetrics>,
    workers: usize,
    /// The deterministic fault plane, when attached: worker panics and
    /// shard stalls are drawn from its seeded schedule per (submission,
    /// attempt), so retries flip fresh coins and rate faults heal.
    fault: Option<Arc<FaultPlane>>,
    /// Per-drain deadline: workers stop claiming once it passes, and an
    /// injected stall that outlives it panics into the retry path — a
    /// hung submission cannot block [`CycleScheduler::try_drain`]
    /// forever. Unclaimed entries come back in [`DrainError::unresolved`].
    deadline: Duration,
    /// Monotone drain counter, numbering `degraded_drain` events.
    drains: AtomicU64,
    /// The privacy auditor, when the audit plane is attached: it spills
    /// its journal after each drain and journals degraded drains. Cycles
    /// were audited when they were committed, not here.
    auditor: Option<Arc<crate::auditor::PrivacyAuditor>>,
    /// The owning manager's session table, when built by
    /// [`CycleScheduler::for_manager`]: where delivered members settle.
    sessions: Option<SessionTable>,
    queue_wait_us: HistogramHandle,
    service_us: HistogramHandle,
    submits: Counter,
    retries: Counter,
}

impl CycleScheduler {
    /// A scheduler over explicit parts. `workers` is the pool size: all
    /// of them claim from the one merged queue.
    fn new(
        tier: SearchTier,
        cache: Option<Arc<ResultCache>>,
        metrics: Arc<ServiceMetrics>,
        workers: usize,
    ) -> Self {
        let registry = metrics.registry();
        CycleScheduler {
            queue_wait_us: registry.histogram(M_QUEUE_WAIT_US, &[]),
            service_us: registry.histogram(M_SERVICE_US, &[]),
            submits: registry.counter(M_SHARD_SUBMITS, &[]),
            retries: registry.counter(M_RETRIES, &[]),
            tier,
            cache,
            metrics,
            workers: workers.max(1),
            fault: None,
            deadline: DEFAULT_DEADLINE,
            drains: AtomicU64::new(0),
            auditor: None,
            sessions: None,
        }
    }

    /// Attaches a deterministic [`FaultPlane`]: its `WorkerPanic` and
    /// `ShardStall` specs drive this scheduler's workers.
    /// [`CycleScheduler::for_manager`] inherits the manager's plane
    /// automatically.
    pub fn with_fault_plane(mut self, plane: Arc<FaultPlane>) -> Self {
        self.fault = Some(plane);
        self
    }

    /// Overrides the per-drain deadline (30 s by default).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// A scheduler sharing a [`SessionManager`]'s search tier, cache,
    /// metrics registry, auditor, and fault plane — and its session
    /// table, so every drain settles the cycles it delivers. With the
    /// manager's auditor, each drain ends with the auditor's epilogue
    /// (periodic journal spill).
    pub fn for_manager(manager: &SessionManager, workers: usize) -> Self {
        let mut scheduler = Self::new(
            manager.tier(),
            manager.cache().cloned(),
            manager.metrics_registry().clone(),
            workers,
        );
        scheduler.sessions = Some(manager.session_table());
        scheduler.auditor = manager.auditor().cloned();
        if let Some(plane) = manager.fault_plane() {
            scheduler = scheduler.with_fault_plane(plane.clone());
        }
        scheduler
    }

    /// Merges per-session plans into one globally time-ordered queue —
    /// the same stable ascending-time order as
    /// [`toppriv_core::merge_schedules`].
    pub fn merge(plans: Vec<Vec<PlannedQuery>>) -> Vec<PlannedQuery> {
        let mut all: Vec<PlannedQuery> = plans.into_iter().flatten().collect();
        all.sort_by(|a, b| {
            a.scheduled
                .time_secs
                .partial_cmp(&b.scheduled.time_secs)
                .expect("finite time")
        });
        all
    }

    /// Drains a merged queue: every worker claims the next entry from
    /// the one shared cursor and resolves it through the shared
    /// cache/tier. Returns outcomes sorted by simulated time (ties
    /// broken by merged-queue position); every cycle whose members were
    /// all delivered is sealed against rollback.
    ///
    /// A worker panic aborts the whole drain **loudly**: this wrapper
    /// panics with the session of the first failure. A caller that must
    /// survive failures drains with [`CycleScheduler::drain_resilient`],
    /// which retries, rolls back and replans, or with
    /// [`CycleScheduler::try_drain`] to get the structured [`DrainError`].
    pub fn drain(&self, queue: Vec<PlannedQuery>) -> Vec<SubmitOutcome> {
        match self.try_drain(queue) {
            Ok(outcomes) => outcomes,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CycleScheduler::drain`] with structured failure reporting:
    /// worker panics are caught per submission and retried with bounded
    /// exponential backoff (each attempt flips a fresh deterministic
    /// fault coin, so transient rate faults heal), the rest of the queue
    /// keeps draining under the per-drain deadline watchdog, and the
    /// error carries every terminal failure (session, panic message)
    /// plus the outcomes that did complete and the entries that were
    /// never attempted. Completed outcomes are settled either way: a
    /// cycle with a failed or unresolved member stays rollbackable.
    pub fn try_drain(&self, queue: Vec<PlannedQuery>) -> Result<Vec<SubmitOutcome>, DrainError> {
        // Shared (planner-coalesced) entries resolve once but produce one
        // outcome per subscribing tenant; a drain succeeds when every
        // expected per-tenant outcome materialized.
        let expected: usize = queue.iter().map(|p| p.fanout()).sum();
        self.metrics.set_queue_depth(queue.len());
        let drain_span = toppriv_obs::tracer().span("drain");
        let number = self.drains.fetch_add(1, Ordering::Relaxed) + 1;
        let run = DrainRun {
            queue: &queue,
            groups: groups(&queue),
            cursor: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
            started: Instant::now(),
        };
        let mut claimed: Vec<Claimed> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers.min(run.groups.len()))
                .map(|_| scope.spawn(|| self.work(&run, &drain_span)))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        self.metrics.set_queue_depth(0);
        if let Some(auditor) = &self.auditor {
            auditor.finish_drain();
        }
        // Per queue position: `Some(true)` failed, `Some(false)` completed,
        // `None` never claimed (the deadline watchdog cut the drain short).
        let mut failed_at: Vec<Option<bool>> = vec![None; queue.len()];
        claimed.sort_by_key(|&(at, _)| at);
        let mut completed = Vec::new();
        let mut failures = Vec::new();
        // What reached the engine, in queue order: each resolved entry
        // whose first subscriber's outcome is not a cache hit.
        let mut reached: Vec<&[TermId]> = Vec::new();
        for (at, resolved) in claimed {
            failed_at[at] = Some(resolved.is_err());
            match resolved {
                Ok(outcomes) => {
                    if outcomes.first().is_some_and(|o| !o.cache_hit) {
                        reached.push(&queue[at].scheduled.tokens);
                    }
                    completed.extend(outcomes);
                }
                Err(failure) => failures.push(failure),
            }
        }
        self.tier.log_tokens(&reached);
        let (mut failed, mut unresolved) = (Vec::new(), Vec::new());
        for (plan, status) in queue.into_iter().zip(failed_at) {
            match status {
                Some(true) => failed.push(plan),
                Some(false) => {}
                None => unresolved.push(plan),
            }
        }
        self.settle(&completed);
        if !unresolved.is_empty() {
            if let Some(auditor) = &self.auditor {
                auditor.note(
                    AuditSeverity::Warning,
                    "degraded_drain",
                    "fleet",
                    number as usize,
                    format!(
                        "drain {number} degraded: the deadline passed with {} entries unclaimed",
                        unresolved.len()
                    ),
                );
            }
        }
        if failures.is_empty() && unresolved.is_empty() && completed.len() == expected {
            Ok(completed)
        } else {
            Err(DrainError {
                failures,
                failed,
                unresolved,
                completed,
                expected,
            })
        }
    }

    /// **Claim**: the next group this worker should resolve. `None` once
    /// every group is claimed or the drain deadline passed (the
    /// cooperative watchdog: the unclaimed remainder comes back as
    /// `unresolved` instead of blocking forever).
    fn claim(&self, run: &DrainRun) -> Option<usize> {
        if run.started.elapsed() > self.deadline {
            return None;
        }
        let group = run.cursor.fetch_add(1, Ordering::Relaxed);
        (group < run.groups.len()).then_some(group)
    }

    /// One worker's loop: claim a group, resolve it, until the claim gate
    /// closes.
    fn work(&self, run: &DrainRun, drain_span: &Span<'_>) -> Vec<Claimed> {
        let span = drain_span.child("drain_worker");
        let mut claimed = Vec::new();
        while let Some(group) = self.claim(run) {
            let t0 = Instant::now();
            self.resolve_group(run, &run.groups[group], &mut claimed);
            // The service-time histogram keeps this worker's span id as
            // the bucket's trace exemplar, so a p99 outlier links straight
            // to its `drain_worker` span.
            self.service_us
                .record_with_exemplar(t0.elapsed().as_micros() as u64, span.id());
        }
        claimed
    }

    /// **Resolve with retry** for one group. Each entry is claimed in
    /// queue order while the deadline allows (the rest stay unclaimed)
    /// and drawn for its first attempt's faults under `catch_unwind`. The
    /// entries that pass resolve as one batch; an entry whose first
    /// attempt panicked — or every entry, if the batch itself panicked —
    /// is retried alone with bounded exponential backoff (a fresh fault
    /// coin per attempt), and a terminal failure comes back as the entry's
    /// [`SubmissionFailure`].
    fn resolve_group(&self, run: &DrainRun, group: &[usize], claimed: &mut Vec<Claimed>) {
        let mut batch = Vec::with_capacity(group.len());
        let mut retry = Vec::new();
        for &at in group {
            if run.started.elapsed() > self.deadline {
                break;
            }
            self.queue_wait_us
                .record(run.started.elapsed().as_micros() as u64);
            let taken = run.taken.fetch_add(1, Ordering::Relaxed) + 1;
            self.metrics
                .set_queue_depth(run.queue.len().saturating_sub(taken));
            let plan = &run.queue[at];
            match catch_unwind(AssertUnwindSafe(|| self.inject_faults(run, plan, 0))) {
                Ok(()) => batch.push(at),
                Err(payload) => retry.push((at, payload)),
            }
        }
        match catch_unwind(AssertUnwindSafe(|| self.resolve(run, &batch))) {
            Ok(resolved) => {
                for (&at, (hits, cache_hit)) in batch.iter().zip(resolved) {
                    claimed.push((at, Ok(self.fan_out(&run.queue[at], &hits, cache_hit))));
                }
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                retry.extend(batch.iter().map(|&at| (at, Box::new(message.clone()) as _)));
                retry.sort_by_key(|r| r.0);
            }
        }
        for (at, payload) in retry {
            let resolved = self.retry(run, at, payload);
            let plan = &run.queue[at];
            claimed.push((
                at,
                resolved.map(|(hits, hit)| self.fan_out(plan, &hits, hit)),
            ));
        }
    }

    /// Resolves the entries at `positions` as one batch through the
    /// cache/tier.
    fn resolve(&self, run: &DrainRun, positions: &[usize]) -> Vec<(Vec<SearchHit>, bool)> {
        let entries: Vec<Resolving<'_>> = (positions.iter())
            .map(|&at| {
                let plan = &run.queue[at];
                Resolving {
                    tokens: &plan.scheduled.tokens,
                    k: plan.k,
                    genuine: plan
                        .subscriber_tags()
                        .iter()
                        .map(|t| t.is_genuine)
                        .collect(),
                }
            })
            .collect();
        let cache = self.cache.as_deref();
        SessionManager::resolve(&self.tier, cache, &self.metrics, &entries)
    }

    /// Retries the entry at `at`, whose first attempt panicked with
    /// `payload`, alone: up to [`MAX_ATTEMPTS`] attempts in all, each
    /// after a backoff and a fresh fault draw, while the deadline allows.
    fn retry(
        &self,
        run: &DrainRun,
        at: usize,
        mut payload: Box<dyn Any + Send>,
    ) -> Result<(Vec<SearchHit>, bool), SubmissionFailure> {
        let plan = &run.queue[at];
        let mut attempt = 1u32;
        loop {
            if attempt >= MAX_ATTEMPTS || run.started.elapsed() > self.deadline {
                return Err(SubmissionFailure {
                    session: plan.session.clone(),
                    cycle_id: plan.scheduled.cycle_id,
                    attempts: attempt,
                    message: panic_message(payload.as_ref()),
                });
            }
            self.retries.inc();
            std::thread::sleep(
                BACKOFF_BASE
                    .saturating_mul(1 << (attempt - 1))
                    .min(BACKOFF_CAP),
            );
            let once = catch_unwind(AssertUnwindSafe(|| {
                self.inject_faults(run, plan, attempt);
                self.resolve(run, &[at]).remove(0)
            }));
            match once {
                Ok(resolved) => return Ok(resolved),
                Err(p) => payload = p,
            }
            attempt += 1;
        }
    }

    /// Panics when the attached fault plane schedules a stall that
    /// outlives the drain deadline, or a worker panic, for this attempt.
    fn inject_faults(&self, run: &DrainRun, plan: &PlannedQuery, attempt: u32) {
        let Some(plane) = &self.fault else { return };
        if let Some(stall) = plane.stall_for(plan, attempt) {
            // An injected stall sleeps in small slices so the deadline
            // can preempt it: a stall that outlives the drain deadline
            // panics into the failure path instead of hanging the worker.
            let mut left = stall;
            while !left.is_zero() {
                let slice = left.min(Duration::from_millis(1));
                std::thread::sleep(slice);
                left -= slice;
                assert!(
                    run.started.elapsed() <= self.deadline,
                    "injected shard stall exceeded the drain deadline (session '{}')",
                    plan.session
                );
            }
        }
        assert!(
            !plane.fires_submission(FaultKind::WorkerPanic, plan, attempt),
            "injected worker_panic fault (session '{}')",
            plan.session
        );
    }

    /// **Fan-out**: one resolution becomes one outcome per subscribing
    /// tenant. Subscribers beyond the first were
    /// served from the shared resolution, which is a cache hit from
    /// their point of view. Ghost results are discarded inside the
    /// trusted boundary; only genuine hits leave the scheduler.
    fn fan_out(
        &self,
        plan: &PlannedQuery,
        hits: &[SearchHit],
        cache_hit: bool,
    ) -> Vec<SubmitOutcome> {
        self.submits.inc();
        (plan.subscriber_tags().into_iter())
            .enumerate()
            .map(|(j, tag)| SubmitOutcome {
                session: tag.session,
                cycle_id: tag.cycle_id,
                time_secs: plan.scheduled.time_secs,
                is_genuine: tag.is_genuine,
                cache_hit: cache_hit || j > 0,
                hits: if tag.is_genuine {
                    hits.to_vec()
                } else {
                    Vec::new()
                },
            })
            .collect()
    }

    /// **Settle**: counts every delivered member against its cycle in
    /// the owning session; a cycle with none left outstanding leaves the
    /// rollback window. Runs once per drain, after the workers joined.
    fn settle(&self, completed: &[SubmitOutcome]) {
        if let Some(sessions) = &self.sessions {
            session::settle_delivered(sessions, &delivered_members(completed));
        }
    }

    /// Self-healing drain: [`CycleScheduler::try_drain`] in rounds, with
    /// **cycle-atomic degradation**. Unresolved entries (cut off by the
    /// deadline) are re-queued into the next round; cycles
    /// with a terminally failed submission are rolled back through
    /// `manager` — trace debits reversed bit-exactly, the tenant's audit
    /// accounting re-credited, their already-resolved outcomes discarded (kept
    /// in [`ResilientReport::discarded`] for engine-side accounting) —
    /// and replanned once as fresh cycles. A replanned cycle that fails
    /// again is rolled back for good. Fully delivered cycles were
    /// already sealed by the round that delivered their last member
    /// (every [`CycleScheduler::try_drain`] settles what it delivers).
    ///
    /// `manager` must be the manager the queue was planned on (cycle
    /// ids are resolved against its sessions).
    pub fn drain_resilient(
        &self,
        manager: &SessionManager,
        queue: Vec<PlannedQuery>,
    ) -> ResilientReport {
        /// Round cap: with one replan per cycle this converges long
        /// before, but a bound keeps a
        /// pathological fault schedule from looping the drain forever.
        const MAX_ROUNDS: usize = 6;
        let mut outcomes: Vec<SubmitOutcome> = Vec::new();
        let mut rolled_back: Vec<RolledBackCycle> = Vec::new();
        let mut replanned: Vec<(String, usize, usize)> = Vec::new();
        let mut victims: HashSet<(String, usize)> = HashSet::new();
        // Cycles that already got their one replan: a second failure is
        // terminal.
        let mut no_replan: HashSet<(String, usize)> = HashSet::new();
        let mut pending = queue;
        let mut rounds = 0usize;
        while !pending.is_empty() && rounds < MAX_ROUNDS {
            rounds += 1;
            let err = match self.try_drain(std::mem::take(&mut pending)) {
                Ok(mut done) => {
                    outcomes.append(&mut done);
                    break;
                }
                Err(err) => err,
            };
            outcomes.extend(err.completed);
            let mut round_victims: HashSet<(String, usize)> = HashSet::new();
            for plan in &err.failed {
                for tag in plan.subscriber_tags() {
                    round_victims.insert((tag.session, tag.cycle_id));
                }
            }
            // Release victim fan-out tags from the unresolved remainder:
            // an entry subscribed only by rolled-back cycles is dropped
            // outright, a shared entry keeps serving its survivors.
            let mut next: Vec<PlannedQuery> = Vec::with_capacity(err.unresolved.len());
            for mut plan in err.unresolved {
                if plan.subscribers.is_empty() {
                    let key = (plan.session.clone(), plan.scheduled.cycle_id);
                    if round_victims.contains(&key) {
                        continue;
                    }
                } else {
                    plan.subscribers
                        .retain(|t| !round_victims.contains(&(t.session.clone(), t.cycle_id)));
                    if plan.subscribers.is_empty() {
                        continue;
                    }
                }
                next.push(plan);
            }
            for (session, cycle_id) in round_victims {
                if !victims.insert((session.clone(), cycle_id)) {
                    continue;
                }
                let Ok(rb) = manager.rollback_cycle(&session, cycle_id) else {
                    // Unknown (e.g. rolled back via another scheduler):
                    // nothing to reverse.
                    continue;
                };
                if !no_replan.contains(&(session.clone(), cycle_id)) {
                    if let Ok(plan) = manager.plan_cycle(&session, &rb.user_tokens, rb.k) {
                        if let Some(new_id) = plan.first().map(|p| p.scheduled.cycle_id) {
                            no_replan.insert((session.clone(), new_id));
                            replanned.push((session.clone(), cycle_id, new_id));
                        }
                        next.extend(plan);
                    }
                }
                rolled_back.push(rb);
            }
            pending = next;
        }
        // Rounds exhausted with work still pending: those cycles cannot
        // be delivered this drain — roll them back rather than leave
        // them half-debited.
        for plan in pending {
            for (session, cycle_id) in plan
                .subscriber_tags()
                .into_iter()
                .map(|t| (t.session, t.cycle_id))
            {
                if victims.insert((session.clone(), cycle_id)) {
                    if let Ok(rb) = manager.rollback_cycle(&session, cycle_id) {
                        rolled_back.push(rb);
                    }
                }
            }
        }
        // Cycle atomicity: outcomes of rolled-back cycles never leave
        // the scheduler as delivered work.
        let (delivered, discarded): (Vec<_>, Vec<_>) = outcomes
            .into_iter()
            .partition(|o| !victims.contains(&(o.session.clone(), o.cycle_id)));
        let mut outcomes = delivered;
        outcomes.sort_by(|a, b| a.time_secs.partial_cmp(&b.time_secs).expect("finite time"));
        ResilientReport {
            outcomes,
            discarded,
            rolled_back,
            replanned,
            rounds: rounds.max(1),
        }
    }
}

/// The panic payload's message, when it was a string (the common case).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The queue's groups, largest first: positions whose lowest term is
/// the same, each in queue order (the entries with no term are one
/// group). Equal keys share their lowest term, so they never part.
fn groups(queue: &[PlannedQuery]) -> Vec<Vec<usize>> {
    let mut by_term: BTreeMap<Option<TermId>, Vec<usize>> = BTreeMap::new();
    for (at, plan) in queue.iter().enumerate() {
        let lowest = plan.scheduled.tokens.iter().min().copied();
        by_term.entry(lowest).or_default().push(at);
    }
    let mut groups: Vec<Vec<usize>> = by_term.into_values().collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    groups
}

/// Delivered members per session and cycle id — what the settle step
/// counts against each cycle's outstanding members.
fn delivered_members(completed: &[SubmitOutcome]) -> HashMap<&str, HashMap<usize, usize>> {
    let mut delivered: HashMap<&str, HashMap<usize, usize>> = HashMap::new();
    for o in completed {
        let cycles = delivered.entry(&o.session).or_default();
        *cycles.entry(o.cycle_id).or_insert(0) += 1;
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use toppriv_core::merge_schedules;
    use tsearch_search::Query;

    fn plan(session: &str, times: &[f64]) -> Vec<PlannedQuery> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| PlannedQuery {
                session: session.to_string(),
                scheduled: ScheduledQuery {
                    time_secs: t,
                    tokens: vec![i as u32],
                    is_genuine: i == 0,
                    cycle_id: 0,
                },
                k: 10,
                subscribers: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn subscriber_tags_default_to_the_owner() {
        let p = plan("a", &[0.0]).remove(0);
        assert_eq!(p.fanout(), 1);
        let tags = p.subscriber_tags();
        assert_eq!(
            tags,
            vec![SubmissionTag {
                session: "a".into(),
                cycle_id: 0,
                is_genuine: true,
            }]
        );
    }

    #[test]
    fn explicit_subscribers_fan_out() {
        let mut p = plan("a", &[0.0]).remove(0);
        p.subscribers = vec![
            SubmissionTag {
                session: "a".into(),
                cycle_id: 0,
                is_genuine: true,
            },
            SubmissionTag {
                session: "b".into(),
                cycle_id: 3,
                is_genuine: false,
            },
        ];
        assert_eq!(p.fanout(), 2);
        assert_eq!(p.subscriber_tags().len(), 2);
        assert_eq!(p.subscriber_tags()[1].session, "b");
    }

    #[test]
    fn merge_is_globally_time_ordered() {
        let merged = CycleScheduler::merge(vec![
            plan("a", &[3.0, 1.0, 2.0]),
            plan("b", &[0.5, 2.5]),
            plan("c", &[]),
        ]);
        assert_eq!(merged.len(), 5);
        assert!(merged
            .windows(2)
            .all(|w| w[0].scheduled.time_secs <= w[1].scheduled.time_secs));
        assert_eq!(merged[0].session, "b");
    }

    #[test]
    fn merge_matches_core_merge_schedules() {
        // The service-level merge must order submissions exactly like the
        // core's merge_schedules on the projected schedule (stable sort by
        // time, ties keeping input order).
        let plans = vec![plan("a", &[2.0, 1.0, 1.0]), plan("b", &[1.0, 3.0])];
        let flat: Vec<ScheduledQuery> = plans
            .iter()
            .flatten()
            .map(|p| p.scheduled.clone())
            .collect();
        let expected = merge_schedules(flat);
        let merged = CycleScheduler::merge(plans);
        assert_eq!(merged.len(), expected.len());
        for (m, e) in merged.iter().zip(&expected) {
            assert_eq!(m.scheduled.time_secs, e.time_secs);
            assert_eq!(m.scheduled.tokens, e.tokens);
        }
    }

    /// A tiny corpus behind a sharded tier — enough for the drain steps
    /// to run against.
    fn tiny_tier(shards: usize) -> (tsearch_corpus::SyntheticCorpus, SearchTier) {
        let corpus = tsearch_corpus::SyntheticCorpus::generate(tsearch_corpus::CorpusConfig {
            num_docs: 160,
            num_topics: 8,
            terms_per_topic: 40,
            ..Default::default()
        });
        let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
        let engine = tsearch_search::ShardedEngine::build(
            &corpus.token_docs(),
            &texts,
            tsearch_text::Analyzer::new(),
            corpus.vocab.clone(),
            tsearch_search::ScoringModel::TfIdfCosine,
            shards,
        );
        (corpus, SearchTier::Sharded(Arc::new(engine)))
    }

    /// An LDA model over the tiny corpus.
    fn tiny_model(corpus: &tsearch_corpus::SyntheticCorpus) -> Arc<tsearch_lda::LdaModel> {
        Arc::new(tsearch_lda::LdaTrainer::train(
            &corpus.token_docs(),
            corpus.vocab.len(),
            tsearch_lda::LdaConfig {
                iterations: 15,
                ..tsearch_lda::LdaConfig::with_topics(8)
            },
        ))
    }

    fn tiny_queries(
        corpus: &tsearch_corpus::SyntheticCorpus,
        n: usize,
    ) -> Vec<tsearch_corpus::BenchmarkQuery> {
        tsearch_corpus::generate_workload(
            corpus,
            &tsearch_corpus::WorkloadConfig {
                num_queries: n,
                ..Default::default()
            },
        )
    }

    /// A run over `queue` with one group per entry, in queue order.
    fn run_over(queue: &[PlannedQuery]) -> DrainRun<'_> {
        DrainRun {
            queue,
            groups: (0..queue.len()).map(|at| vec![at]).collect(),
            cursor: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    #[test]
    fn claim_hands_out_the_queue_in_order_then_closes() {
        let (_, tier) = tiny_tier(4);
        let scheduler = CycleScheduler::new(tier, None, Arc::new(ServiceMetrics::new()), 2);
        let queue = plan("a", &[0.0; 3]);
        let run = run_over(&queue);
        assert_eq!(scheduler.claim(&run), Some(0));
        assert_eq!(scheduler.claim(&run), Some(1));
        assert_eq!(scheduler.claim(&run), Some(2));
        assert_eq!(scheduler.claim(&run), None);
        assert_eq!(scheduler.claim(&run), None, "the gate stays closed");
    }

    #[test]
    fn claim_closes_at_the_deadline_and_leaves_the_rest_unclaimed() {
        let (_, tier) = tiny_tier(2);
        let scheduler = CycleScheduler::new(tier, None, Arc::new(ServiceMetrics::new()), 1)
            .with_deadline(Duration::from_millis(1));
        let queue = plan("a", &[0.0; 3]);
        let mut run = run_over(&queue);
        assert_eq!(scheduler.claim(&run), Some(0));
        run.started = Instant::now() - Duration::from_millis(50);
        assert_eq!(scheduler.claim(&run), None);
        assert_eq!(run.cursor.into_inner(), 1, "nothing past the deadline");
    }

    #[test]
    fn terminal_failures_do_not_pause_the_next_drain() {
        let (corpus, tier) = tiny_tier(4);
        let plane = crate::fault::FaultPlane::new(0).with_spec(crate::fault::FaultSpec::predicate(
            FaultKind::WorkerPanic,
            Arc::new(|p: &PlannedQuery| p.session == "doomed"),
        ));
        let manager =
            SessionManager::with_tier(tier, tiny_model(&corpus)).with_fault_plane(Arc::new(plane));
        let tenants = ["doomed", "a", "b", "c"];
        for tenant in tenants {
            manager.open_session(tenant).unwrap();
        }
        let queries = tiny_queries(&corpus, tenants.len());
        let scheduler = CycleScheduler::for_manager(&manager, 2);
        let doomed = manager.plan_cycle("doomed", &queries[0].tokens, 5).unwrap();
        let err = scheduler
            .try_drain(doomed)
            .expect_err("every attempt of the doomed cycle panics");
        assert!(err.failures.len() >= 3, "{} failures", err.failures.len());
        assert_eq!(err.failed.len(), err.failures.len());
        assert!(err.unresolved.is_empty());
        // The same scheduler's next drain serves the other tenants in
        // full: a terminal failure holds nothing back.
        let plans = tenants[1..]
            .iter()
            .zip(&queries[1..])
            .map(|(tenant, q)| manager.plan_cycle(tenant, &q.tokens, 5).unwrap())
            .collect();
        let queue = CycleScheduler::merge(plans);
        let expected = queue.len();
        let outcomes = scheduler
            .try_drain(queue)
            .expect("no entry is held back after a failed drain");
        assert_eq!(outcomes.len(), expected);
        // The failed entries never reached the engine and took no ordinal:
        // the log counts exactly the second drain's entries.
        let tier = manager.tier();
        let engine = tier.as_sharded().expect("sharded");
        let ordinals: std::collections::BTreeSet<u64> = (engine.shard_logs().into_iter().flatten())
            .map(|e| e.ordinal)
            .collect();
        assert_eq!(ordinals, (0..expected as u64).collect());
    }

    /// Drains, by two workers, a queue with duplicate bags (in another
    /// token order too), a query that is a prefix of another, a repeated
    /// term and `k`s past the corpus, then reads the shard logs back by
    /// ordinal: each engine-bound entry once, as the slices each shard
    /// owns, in queue order under contiguous ordinals — every entry
    /// without a cache, only each key's first occurrence with one. A log
    /// bounded to two entries per shard keeps each shard's newest two.
    #[test]
    fn a_drain_logs_each_engine_bound_entry_once_in_queue_order() {
        let submissions: [(&[u32], usize); 9] = [
            (&[5, 9], 10),
            (&[5, 9, 14], 10),
            (&[9, 5], 10),
            (&[20], 10),
            (&[5, 9, 14], 10),
            (&[9, 9, 20], 10),
            (&[20], 10),
            (&[20], usize::MAX),
            (&[20], 1_000_000_000_000),
        ];
        let queue: Vec<PlannedQuery> = (submissions.iter().enumerate())
            .map(|(i, &(tokens, k))| PlannedQuery {
                session: "a".into(),
                scheduled: ScheduledQuery {
                    time_secs: i as f64,
                    tokens: tokens.to_vec(),
                    is_genuine: true,
                    cycle_id: i,
                },
                k,
                subscribers: Vec::new(),
            })
            .collect();
        for (cached, engine_bound) in [
            (false, &[0, 1, 2, 3, 4, 5, 6, 7, 8][..]),
            (true, &[0, 1, 3, 5, 7]),
        ] {
            let drained = |capacity: Option<usize>| {
                let (_, tier) = tiny_tier(4);
                if let Some(capacity) = capacity {
                    tier.set_query_log_capacity(capacity);
                }
                let engine = tier.as_sharded().expect("sharded").clone();
                let metrics = Arc::new(ServiceMetrics::new());
                let cache = cached.then(|| Arc::new(ResultCache::new(64)));
                let scheduler = CycleScheduler::new(tier, cache, metrics.clone(), 2);
                (scheduler.drain(queue.clone()), engine, metrics)
            };
            let (outcomes, engine, metrics) = drained(None);
            let snapshot = metrics.snapshot();
            assert_eq!(
                snapshot.engine_submits,
                queue.len() as u64,
                "one submission per entry"
            );
            let misses = engine_bound.len() as u64;
            assert_eq!(
                (snapshot.cache_misses, snapshot.cache_hits),
                (misses, 9 - misses)
            );
            for o in &outcomes {
                let (tokens, k) = submissions[o.cycle_id];
                let want = engine.evaluate(&Query::from_tokens(tokens), k);
                let bits = |h: &[SearchHit]| -> Vec<(u32, u64)> {
                    h.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
                };
                assert_eq!(bits(&o.hits), bits(&want), "entry {}", o.cycle_id);
            }
            // Per ordinal, each shard's slice.
            let mut logged: BTreeMap<u64, BTreeMap<usize, Vec<u32>>> = BTreeMap::new();
            for (shard, entries) in engine.shard_logs().into_iter().enumerate() {
                for e in entries {
                    logged.entry(e.ordinal).or_default().insert(shard, e.tokens);
                }
            }
            let want: Vec<BTreeMap<usize, Vec<u32>>> = (engine_bound.iter())
                .map(|&at| {
                    let mut slices: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
                    let mut tokens = submissions[at].0.to_vec();
                    tokens.sort_unstable();
                    for t in tokens {
                        slices
                            .entry(engine.router().shard_of(t))
                            .or_default()
                            .push(t);
                    }
                    slices
                })
                .collect();
            let ordinals: Vec<u64> = logged.keys().copied().collect();
            assert_eq!(ordinals, (0..want.len() as u64).collect::<Vec<_>>());
            assert_eq!(
                logged.into_values().collect::<Vec<_>>(),
                want,
                "cache {cached}"
            );
            let (_, bounded, _) = drained(Some(2));
            for (all, kept) in engine.shard_logs().iter().zip(bounded.shard_logs()) {
                assert_eq!(kept, all[all.len().saturating_sub(2)..], "cache {cached}");
            }
        }
    }

    #[test]
    fn settle_seals_fully_delivered_cycles_only() {
        let (corpus, tier) = tiny_tier(2);
        let manager = SessionManager::with_tier(tier, tiny_model(&corpus));
        manager.open_session("a").unwrap();
        let query = tiny_queries(&corpus, 1).remove(0);
        let tokens = &query.tokens;
        let first = manager.plan_cycle("a", tokens, 5).unwrap();
        let second = manager.plan_cycle("a", tokens, 5).unwrap();
        assert!(first.len() > 1, "a cycle has ghosts");
        let outcome = |p: &PlannedQuery| SubmitOutcome {
            session: p.session.clone(),
            cycle_id: p.scheduled.cycle_id,
            time_secs: p.scheduled.time_secs,
            is_genuine: p.scheduled.is_genuine,
            cache_hit: false,
            hits: Vec::new(),
        };
        // All of the second cycle, all but one member of the first.
        let delivered: Vec<SubmitOutcome> = first[1..].iter().chain(&second).map(outcome).collect();
        let counts = delivered_members(&delivered);
        assert_eq!(counts["a"][&first[0].scheduled.cycle_id], first.len() - 1);
        assert_eq!(counts["a"][&second[0].scheduled.cycle_id], second.len());

        // A scheduler without a session table settles nothing.
        CycleScheduler::new(manager.tier(), None, manager.metrics_registry().clone(), 1)
            .settle(&delivered);
        let scheduler = CycleScheduler::for_manager(&manager, 1);
        scheduler.settle(&delivered);
        assert!(
            manager
                .rollback_cycle("a", second[0].scheduled.cycle_id)
                .is_err(),
            "fully delivered: sealed"
        );
        // Settling the last member seals the first cycle too.
        scheduler.settle(&[outcome(&first[0])]);
        assert!(manager
            .rollback_cycle("a", first[0].scheduled.cycle_id)
            .is_err());
        // A cycle with a member outstanding still rolls back.
        let third = manager.plan_cycle("a", tokens, 5).unwrap();
        let partial: Vec<SubmitOutcome> = third[1..].iter().map(outcome).collect();
        scheduler.settle(&partial);
        manager
            .rollback_cycle("a", third[0].scheduled.cycle_id)
            .expect("one member outstanding");
    }
}
