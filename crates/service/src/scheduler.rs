//! The global cycle scheduler.
//!
//! Each session paces its own cycle onto a simulated clock (the per-user
//! timing defense of `toppriv_core::pacing`); the service must then
//! submit the union of all tenants' schedules. [`CycleScheduler`] merges
//! the per-session plans into one time-ordered queue — the service-level
//! counterpart of [`toppriv_core::merge_schedules`], keeping its exact
//! ordering semantics — and drains it with **one shared cursor claimed
//! by every worker**: a worker takes the next entry, evaluates the whole
//! query through the tier (a sharded tier scatters and gathers inside
//! `ShardedEngine`), and moves on. Shards are not a scheduling unit:
//! nearly every multi-term query touches shard 0, so queues keyed by
//! shard would collapse into one queue served by one worker.
//!
//! A submission's *primary shard* (the lowest id of the shard set
//! [`crate::SessionManager::plan_cycle`] tags it with) survives as a
//! **label**: the failure domain that quarantine and
//! [`crate::FaultSpec::on_shard`] key on, and the `shard=` label of
//! [`M_SHARD_SUBMITS`] / [`M_SERVICE_US`] / [`M_SHARD_RETRIES`].
//!
//! A scheduler is built from the manager whose cycles it drains
//! ([`CycleScheduler::for_manager`]) and shares that manager's tier,
//! cache, metrics, auditor, fault plane and session table.
//!
//! A drain is four steps, each its own function: **claim** (deadline
//! watchdog and quarantine gate), **resolve with retry**, **fan-out**
//! (one outcome and one audit fact per subscribing tenant), and — after
//! the workers join — **settle**: every delivered member is counted
//! against its cycle in the owning session, and a cycle whose members
//! were all delivered leaves the rollback window. That is the only way a
//! planned cycle is sealed, on every drain path.
//!
//! Draining consumes the queue in time order but does not sleep between
//! submissions: simulated time orders the trace the engine sees, while
//! wall-clock throughput is bounded only by the worker pool. Queue depth
//! and per-submit latency are reported to [`ServiceMetrics`]; each drain
//! additionally records **queue wait** (drain start → claim) into
//! [`M_QUEUE_WAIT_US`] and **service time** (resolution) into
//! [`M_SERVICE_US`], and journals a `drain` span with one `drain_worker`
//! child per worker into the global tracer.

use crate::cache::ResultCache;
use crate::fault::{FaultKind, FaultPlane};
use crate::metrics::ServiceMetrics;
use crate::session::{self, RolledBackCycle, SessionManager, SessionTable};
use crate::tier::SearchTier;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use toppriv_core::ScheduledQuery;
use toppriv_obs::{recover_lock, AuditSeverity, Counter, HistogramHandle, Span};
use tsearch_search::SearchHit;

/// Metric name: queue wait (claim time − drain start, µs).
pub const M_QUEUE_WAIT_US: &str = "scheduler_queue_wait_us";
/// Metric name: service time (resolution latency, µs), labelled by the
/// submission's primary shard.
pub const M_SERVICE_US: &str = "scheduler_service_us";
/// Metric name: drained submission counter, labelled by primary shard.
pub const M_SHARD_SUBMITS: &str = "scheduler_submits_total";
/// Metric name: submission retry counter, labelled by primary shard.
pub const M_SHARD_RETRIES: &str = "scheduler_retries_total";

/// Retry, watchdog, and quarantine knobs for a drain.
///
/// The defaults keep pre-fault-plane behaviour intact for healthy
/// queues: retries only trigger after a panic, the 30 s deadline is far
/// beyond any test drain, and quarantine needs repeated same-shard
/// failures in one drain.
#[derive(Debug, Clone)]
pub struct DrainPolicy {
    /// Attempts per submission (first try included) before the failure
    /// is terminal.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt (bounded exponential).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-drain deadline: workers stop claiming once it passes, and an
    /// injected stall that outlives it panics into the retry path — a
    /// hung shard can no longer block [`CycleScheduler::try_drain`]
    /// forever. Unclaimed entries come back in
    /// [`DrainError::unresolved`].
    pub deadline: Duration,
    /// Terminal failures on one primary shard (the failure domain)
    /// within a single drain at (or past) which that shard's entries
    /// are quarantined for the next drains.
    pub quarantine_threshold: usize,
    /// How many subsequent drains a quarantined shard sits out before
    /// its re-admission probe (the first drain at or past the expiry
    /// epoch readmits the shard; failing again re-quarantines it).
    pub quarantine_drains: u64,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        DrainPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            deadline: Duration::from_secs(30),
            quarantine_threshold: 3,
            quarantine_drains: 2,
        }
    }
}

/// One subscribing tenant of a (possibly shared) planned submission.
///
/// The cross-session planner coalesces identical submissions from
/// several tenants into one queue entry; each subscriber keeps its own
/// ground-truth cycle id and genuine flag, so the drain can fan the
/// single resolution out into per-tenant outcomes and audit facts.
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

/// One scheduled submission, tagged with its tenant and shard set.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Owning session id.
    pub session: String,
    /// The paced submission (simulated time, tokens, ground truth).
    pub scheduled: ScheduledQuery,
    /// Results to fetch.
    pub k: usize,
    /// Sorted shard set the submission's terms route to (`[0]` on a
    /// single-engine tier). The lowest id is the submission's primary
    /// shard: its failure domain and metric label, not a queue.
    pub shards: Vec<usize>,
    /// All subscribing tenants when the planner coalesced this entry
    /// (owner included). Empty for the common unshared case — the owner
    /// fields above are the single implicit subscriber.
    pub subscribers: Vec<SubmissionTag>,
}

impl PlannedQuery {
    /// The failure domain (and `shard=` metric label) of this
    /// submission: the lowest shard its terms route to.
    pub fn primary_shard(&self) -> usize {
        self.shards.first().copied().unwrap_or(0)
    }

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
pub struct ShardFailure {
    /// Primary shard of the submission whose resolution panicked.
    pub shard: usize,
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
    pub failures: Vec<ShardFailure>,
    /// The failed entries themselves, in queue order (each produced
    /// exactly one entry in `failures`). Re-draining them
    /// verbatim replays the same deterministic fault decisions — these
    /// are rollback candidates, not retry candidates.
    pub failed: Vec<PlannedQuery>,
    /// Entries never attempted: skipped because their primary shard is
    /// quarantined, or unclaimed when the drain deadline cut the drain
    /// short. Safe to re-queue into a later drain verbatim.
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
                " (first: shard {} session '{}': {})",
                first.shard, first.session, first.message
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

/// The instruments carrying one primary-shard label, fetched once at
/// construction so workers publish with plain atomic ops.
struct ShardLabel {
    service_us: HistogramHandle,
    submits: Counter,
    retries: Counter,
}

/// What every worker of one drain shares.
struct DrainRun<'a> {
    queue: &'a [PlannedQuery],
    /// Failure domains sitting this drain out.
    quarantined: HashSet<usize>,
    /// Next unclaimed position in the merged, time-ordered queue.
    cursor: AtomicUsize,
    started: Instant,
}

/// What became of one claimed entry, keyed by its queue position: its
/// fanned-out outcomes, or its terminal failure. Workers collect these
/// locally and hand them back when they join.
type Claimed = (usize, Result<Vec<SubmitOutcome>, ShardFailure>);

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
    /// Retry / watchdog / quarantine knobs.
    policy: DrainPolicy,
    /// Quarantined failure domains: primary shard → first drain epoch
    /// that readmits it. Quarantine spans *across* drains, never within
    /// one — a domain's failures in one drain surface in that drain's
    /// [`DrainError`] and only then gate the next drains.
    quarantine: Mutex<HashMap<usize, u64>>,
    /// Monotone drain counter (the quarantine epoch clock).
    drain_epoch: AtomicU64,
    /// The privacy auditor, when the audit plane is attached: every
    /// drained submission is audited via
    /// [`crate::PrivacyAuditor::on_outcome`].
    auditor: Option<Arc<crate::auditor::PrivacyAuditor>>,
    /// The owning manager's session table, when built by
    /// [`CycleScheduler::for_manager`]: where delivered members settle.
    sessions: Option<SessionTable>,
    queue_wait_us: HistogramHandle,
    /// One entry per shard of the tier, indexed by primary shard.
    labels: Vec<ShardLabel>,
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
        let labels = (0..tier.num_shards())
            .map(|s| {
                let shard = s.to_string();
                let label = [("shard", shard.as_str())];
                ShardLabel {
                    service_us: registry.histogram(M_SERVICE_US, &label),
                    submits: registry.counter(M_SHARD_SUBMITS, &label),
                    retries: registry.counter(M_SHARD_RETRIES, &label),
                }
            })
            .collect();
        CycleScheduler {
            queue_wait_us: registry.histogram(M_QUEUE_WAIT_US, &[]),
            labels,
            tier,
            cache,
            metrics,
            workers: workers.max(1),
            fault: None,
            policy: DrainPolicy::default(),
            quarantine: Mutex::new(HashMap::new()),
            drain_epoch: AtomicU64::new(0),
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

    /// Overrides the default [`DrainPolicy`].
    pub fn with_policy(mut self, policy: DrainPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The scheduler's drain policy.
    pub fn policy(&self) -> &DrainPolicy {
        &self.policy
    }

    /// Currently quarantined shards (sorted), with the drain epoch that
    /// readmits each.
    pub fn quarantined_shards(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = recover_lock(&self.quarantine)
            .iter()
            .map(|(&s, &e)| (s, e))
            .collect();
        out.sort_unstable();
        out
    }

    /// A scheduler sharing a [`SessionManager`]'s search tier, cache,
    /// metrics registry, auditor, and fault plane — and its session
    /// table, so every drain settles the cycles it delivers. With the
    /// manager's auditor, drain workers audit every drained submission
    /// against its registered cycle facts, and each drain ends with the
    /// auditor's epilogue (fact pruning, periodic journal spill).
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
    /// panics with the shard/session of the first failure. Scenario
    /// harnesses that need to keep running use
    /// [`CycleScheduler::try_drain`], which returns the failure as a
    /// structured [`DrainError`] instead.
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
    /// error carries every terminal failure (shard, session, panic
    /// message) plus the outcomes that did complete and the entries that
    /// were never attempted. Completed outcomes are settled either way:
    /// a cycle with a failed or unresolved member stays rollbackable.
    pub fn try_drain(&self, queue: Vec<PlannedQuery>) -> Result<Vec<SubmitOutcome>, DrainError> {
        // Shared (planner-coalesced) entries resolve once but produce one
        // outcome per subscribing tenant; a drain succeeds when every
        // expected per-tenant outcome materialized.
        let expected: usize = queue.iter().map(|p| p.fanout()).sum();
        self.metrics.set_queue_depth(queue.len());
        let drain_span = toppriv_obs::tracer().span("drain");
        let epoch = self.drain_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let run = DrainRun {
            queue: &queue,
            quarantined: self.admit(epoch),
            cursor: AtomicUsize::new(0),
            started: Instant::now(),
        };
        let mut claimed: Vec<Claimed> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers.min(queue.len()))
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
        claimed.sort_by_key(|&(at, _)| at);
        let mut completed = Vec::new();
        let mut failures = Vec::new();
        let mut failed_at = HashSet::new();
        for (at, resolved) in claimed {
            match resolved {
                Ok(outcomes) => completed.extend(outcomes),
                Err(failure) => {
                    failed_at.insert(at);
                    failures.push(failure);
                }
            }
        }
        // Every position below the cursor was resolved, failed, or
        // passed over by the quarantine gate; the rest went unclaimed
        // when the deadline watchdog cut the drain short.
        let cursor = run.cursor.into_inner();
        let quarantined = run.quarantined;
        let mut failed = Vec::with_capacity(failures.len());
        let mut unresolved = Vec::new();
        let mut skipped = 0usize;
        for (at, plan) in queue.into_iter().enumerate() {
            let sits_out = quarantined.contains(&self.failure_domain(&plan));
            if failed_at.contains(&at) {
                failed.push(plan);
            } else if sits_out || at >= cursor {
                skipped += usize::from(sits_out);
                unresolved.push(plan);
            }
        }
        self.settle(&completed);
        self.close_epoch(epoch, &failures, unresolved.len(), skipped);
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

    /// The failure domain of a submission: its primary shard, clamped
    /// to the tier (plans made against a wider tier still land on a
    /// label this scheduler carries).
    fn failure_domain(&self, plan: &PlannedQuery) -> usize {
        plan.primary_shard().min(self.labels.len() - 1)
    }

    /// Opens drain `epoch`'s quarantine gate: expired entries are
    /// readmitted (their first drain back is the re-admission probe);
    /// the domains still sitting out are returned.
    fn admit(&self, epoch: u64) -> HashSet<usize> {
        let mut map = recover_lock(&self.quarantine);
        map.retain(|_, &mut until| epoch < until);
        map.keys().copied().collect()
    }

    /// **Claim**: the next queue position this worker should resolve.
    /// `None` once the queue is exhausted or the drain deadline passed
    /// (the cooperative watchdog: the unclaimed remainder comes back as
    /// `unresolved` instead of blocking forever). Entries of a
    /// quarantined failure domain are passed over.
    fn claim(&self, run: &DrainRun) -> Option<usize> {
        loop {
            if run.started.elapsed() > self.policy.deadline {
                return None;
            }
            let at = run.cursor.fetch_add(1, Ordering::Relaxed);
            let plan = run.queue.get(at)?;
            if !run.quarantined.contains(&self.failure_domain(plan)) {
                return Some(at);
            }
        }
    }

    /// One worker's loop: claim, resolve, fan out, until the claim gate
    /// closes.
    fn work(&self, run: &DrainRun, drain_span: &Span<'_>) -> Vec<Claimed> {
        let span = drain_span.child("drain_worker");
        let mut claimed = Vec::new();
        while let Some(at) = self.claim(run) {
            self.queue_wait_us
                .record(run.started.elapsed().as_micros() as u64);
            self.metrics
                .set_queue_depth(run.queue.len().saturating_sub(at + 1));
            let plan = &run.queue[at];
            let label = &self.labels[self.failure_domain(plan)];
            let tags = plan.subscriber_tags();
            let t0 = Instant::now();
            let resolved = self.resolve_with_retry(run, plan, &tags);
            claimed.push((
                at,
                resolved.map(|(hits, cache_hit)| {
                    // The service-time histogram keeps this worker's
                    // span id as the bucket's trace exemplar, so a p99
                    // outlier links straight to its `drain_worker` span.
                    label
                        .service_us
                        .record_with_exemplar(t0.elapsed().as_micros() as u64, span.id());
                    label.submits.inc();
                    self.fan_out(plan, &tags, &hits, cache_hit)
                }),
            ));
        }
        claimed
    }

    /// **Resolve with retry**: one claimed entry through the cache/tier
    /// under `catch_unwind`, so one poisoned submission cannot take the
    /// worker's collected outcomes with it. A panic is retried with
    /// bounded exponential backoff (a fresh fault coin per attempt);
    /// a terminal one comes back as the entry's [`ShardFailure`].
    fn resolve_with_retry(
        &self,
        run: &DrainRun,
        plan: &PlannedQuery,
        tags: &[SubmissionTag],
    ) -> Result<(Vec<SearchHit>, bool), ShardFailure> {
        let shard = self.failure_domain(plan);
        let mut attempt = 0u32;
        loop {
            let once = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.inject_faults(run, shard, plan, attempt);
                SessionManager::resolve(
                    &self.tier,
                    self.cache.as_deref(),
                    &self.metrics,
                    &plan.scheduled.tokens,
                    plan.k,
                    tags.iter().map(|tag| tag.is_genuine),
                )
            }));
            let payload = match once {
                Ok(resolved) => return Ok(resolved),
                Err(payload) => payload,
            };
            attempt += 1;
            if attempt >= self.policy.max_attempts || run.started.elapsed() > self.policy.deadline {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err(ShardFailure {
                    shard,
                    session: plan.session.clone(),
                    cycle_id: plan.scheduled.cycle_id,
                    attempts: attempt,
                    message,
                });
            }
            self.labels[shard].retries.inc();
            let backoff = self
                .policy
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(self.policy.backoff_cap);
            std::thread::sleep(backoff);
        }
    }

    /// Panics when the attached fault plane schedules a stall that
    /// outlives the drain deadline, or a worker panic, for this attempt.
    fn inject_faults(&self, run: &DrainRun, shard: usize, plan: &PlannedQuery, attempt: u32) {
        let Some(plane) = &self.fault else { return };
        if let Some(stall) = plane.stall_for(shard, plan, attempt) {
            // An injected stall sleeps in small slices so the deadline
            // can preempt it: a stall that outlives the drain deadline
            // panics into the failure path instead of hanging the worker.
            let mut left = stall;
            while !left.is_zero() {
                let slice = left.min(Duration::from_millis(1));
                std::thread::sleep(slice);
                left -= slice;
                assert!(
                    run.started.elapsed() <= self.policy.deadline,
                    "injected shard stall exceeded the drain deadline (session '{}')",
                    plan.session
                );
            }
        }
        assert!(
            !plane.fires_submission(FaultKind::WorkerPanic, shard, plan, attempt),
            "injected worker_panic fault (session '{}')",
            plan.session
        );
    }

    /// **Fan-out**: one resolution becomes one outcome — and one audit
    /// fact — per subscribing tenant. Subscribers beyond the first were
    /// served from the shared resolution, which is a cache hit from
    /// their point of view. Ghost results are discarded inside the
    /// trusted boundary; only genuine hits leave the scheduler.
    fn fan_out(
        &self,
        plan: &PlannedQuery,
        tags: &[SubmissionTag],
        hits: &[SearchHit],
        cache_hit: bool,
    ) -> Vec<SubmitOutcome> {
        tags.iter()
            .enumerate()
            .map(|(j, tag)| {
                if let Some(auditor) = &self.auditor {
                    auditor.on_outcome(&tag.session, tag.cycle_id);
                }
                SubmitOutcome {
                    session: tag.session.clone(),
                    cycle_id: tag.cycle_id,
                    time_secs: plan.scheduled.time_secs,
                    is_genuine: tag.is_genuine,
                    cache_hit: cache_hit || j > 0,
                    hits: if tag.is_genuine {
                        hits.to_vec()
                    } else {
                        Vec::new()
                    },
                }
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

    /// Quarantine bookkeeping, strictly *after* the drain so a failure
    /// domain's failures never change this drain's own outcome — they
    /// gate the next drains (and are probed back in epoch-style).
    fn close_epoch(
        &self,
        epoch: u64,
        failures: &[ShardFailure],
        unresolved: usize,
        skipped: usize,
    ) {
        let mut per_shard: HashMap<usize, usize> = HashMap::new();
        for f in failures {
            *per_shard.entry(f.shard).or_insert(0) += 1;
        }
        for (shard, count) in per_shard {
            if count < self.policy.quarantine_threshold {
                continue;
            }
            let until = epoch + self.policy.quarantine_drains;
            recover_lock(&self.quarantine).insert(shard, until);
            if let Some(auditor) = &self.auditor {
                auditor.note(
                    AuditSeverity::Warning,
                    "shard_quarantined",
                    "fleet",
                    shard,
                    format!(
                        "shard {shard} quarantined after {count} terminal failures in \
                         drain {epoch}; re-admission probe at drain {until}"
                    ),
                );
            }
        }
        if unresolved > 0 {
            if let Some(auditor) = &self.auditor {
                auditor.note(
                    AuditSeverity::Warning,
                    "degraded_drain",
                    "fleet",
                    epoch as usize,
                    format!(
                        "drain {epoch} degraded: {unresolved} entries unresolved \
                         ({skipped} quarantine-skipped), the rest of the queue kept draining"
                    ),
                );
            }
        }
    }

    /// Convenience: merge then drain.
    pub fn run(&self, plans: Vec<Vec<PlannedQuery>>) -> Vec<SubmitOutcome> {
        self.drain(Self::merge(plans))
    }

    /// Self-healing drain: [`CycleScheduler::try_drain`] in rounds, with
    /// **cycle-atomic degradation**. Unresolved entries (quarantined
    /// shards, deadline cuts) are re-queued into the next round; cycles
    /// with a terminally failed submission are rolled back through
    /// `manager` — trace debits reversed bit-exactly, pending audit
    /// facts released, their already-resolved outcomes discarded (kept
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
        /// Round cap: with one replan per cycle and monotone quarantine
        /// expiry this converges long before, but a bound keeps a
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
                shards: vec![0],
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

    fn run_over<'a>(queue: &'a [PlannedQuery], quarantined: &[usize]) -> DrainRun<'a> {
        DrainRun {
            queue,
            quarantined: quarantined.iter().copied().collect(),
            cursor: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// Entries whose primary shards are `primaries`, in queue order.
    fn queue_on(primaries: &[usize]) -> Vec<PlannedQuery> {
        let mut queue = plan("a", &vec![0.0; primaries.len()]);
        for (p, &shard) in queue.iter_mut().zip(primaries) {
            p.shards = vec![shard, shard + 1];
        }
        queue
    }

    #[test]
    fn claim_hands_out_the_queue_in_order_then_closes() {
        let (_, tier) = tiny_tier(4);
        let scheduler = CycleScheduler::new(tier, None, Arc::new(ServiceMetrics::new()), 2);
        let queue = queue_on(&[0, 1, 0]);
        let run = run_over(&queue, &[]);
        assert_eq!(scheduler.claim(&run), Some(0));
        assert_eq!(scheduler.claim(&run), Some(1));
        assert_eq!(scheduler.claim(&run), Some(2));
        assert_eq!(scheduler.claim(&run), None);
        assert_eq!(scheduler.claim(&run), None, "the gate stays closed");
    }

    #[test]
    fn claim_passes_over_quarantined_failure_domains() {
        let (_, tier) = tiny_tier(4);
        let scheduler = CycleScheduler::new(tier, None, Arc::new(ServiceMetrics::new()), 2);
        // The gate keys on the primary (lowest) shard only: the last
        // entry also touches shard 2 but its domain is shard 1.
        let queue = queue_on(&[2, 1, 2, 0, 1]);
        let run = run_over(&queue, &[2]);
        assert_eq!(scheduler.claim(&run), Some(1));
        assert_eq!(scheduler.claim(&run), Some(3));
        assert_eq!(scheduler.claim(&run), Some(4));
        assert_eq!(scheduler.claim(&run), None);
        // A primary shard beyond the tier clamps onto its last label.
        let wide = queue_on(&[9]);
        assert_eq!(scheduler.failure_domain(&wide[0]), 3);
        assert_eq!(scheduler.claim(&run_over(&wide, &[3])), None);
    }

    #[test]
    fn claim_closes_at_the_deadline_and_leaves_the_rest_unclaimed() {
        let (_, tier) = tiny_tier(2);
        let scheduler = CycleScheduler::new(tier, None, Arc::new(ServiceMetrics::new()), 1)
            .with_policy(DrainPolicy {
                deadline: Duration::from_millis(1),
                ..DrainPolicy::default()
            });
        let queue = queue_on(&[0, 1, 0]);
        let mut run = run_over(&queue, &[]);
        assert_eq!(scheduler.claim(&run), Some(0));
        run.started = Instant::now() - Duration::from_millis(50);
        assert_eq!(scheduler.claim(&run), None);
        assert_eq!(run.cursor.into_inner(), 1, "nothing past the deadline");
    }

    #[test]
    fn quarantine_gate_readmits_at_the_expiry_epoch() {
        let (_, tier) = tiny_tier(4);
        let scheduler = CycleScheduler::new(tier, None, Arc::new(ServiceMetrics::new()), 1)
            .with_policy(DrainPolicy {
                quarantine_threshold: 2,
                quarantine_drains: 2,
                ..DrainPolicy::default()
            });
        let failure = |shard| ShardFailure {
            shard,
            session: "a".into(),
            cycle_id: 0,
            attempts: 3,
            message: "boom".into(),
        };
        // Drain 1: two failures on shard 1 reach the threshold, one on
        // shard 3 does not.
        scheduler.close_epoch(1, &[failure(1), failure(3), failure(1)], 0, 0);
        assert_eq!(scheduler.quarantined_shards(), vec![(1, 3)]);
        assert_eq!(scheduler.admit(2), HashSet::from([1]), "sits drain 2 out");
        assert!(scheduler.admit(3).is_empty(), "drain 3 is the probe");
        assert!(scheduler.quarantined_shards().is_empty());
    }

    #[test]
    fn settle_seals_fully_delivered_cycles_only() {
        let (corpus, tier) = tiny_tier(2);
        let model = tsearch_lda::LdaTrainer::train(
            &corpus.token_docs(),
            corpus.vocab.len(),
            tsearch_lda::LdaConfig {
                iterations: 15,
                ..tsearch_lda::LdaConfig::with_topics(8)
            },
        );
        let manager = SessionManager::with_tier(tier, Arc::new(model));
        manager.open_session("a").unwrap();
        let query = tsearch_corpus::generate_workload(
            &corpus,
            &tsearch_corpus::WorkloadConfig {
                num_queries: 1,
                ..Default::default()
            },
        )
        .remove(0);
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

    #[test]
    fn primary_shard_is_the_lowest() {
        let mut p = plan("a", &[0.0]).remove(0);
        p.shards = vec![2, 5];
        assert_eq!(p.primary_shard(), 2);
        p.shards.clear();
        assert_eq!(p.primary_shard(), 0);
    }
}
