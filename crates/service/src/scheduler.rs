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
//! entry is claimed (under the deadline), drawn for faults, looked up,
//! logged, counted and fanned out on its own, with the accounting one
//! worker draining the queue in order would give. Keys never cross
//! groups, so a cache lookup cannot race another worker's insert: with a
//! cache, a later duplicate is a hit and never reaches the engine;
//! without one, every entry reaches it. The engine's log is written when
//! the workers have joined: every entry that reached the engine, in queue
//! order, under consecutive ordinals. So the log reads as one worker
//! draining the queue in order would leave it, and its ordinals count
//! exactly the submissions the engine received — a cache hit, a failed
//! entry or one the deadline cut takes none.
//!
//! A scheduler keeps the manager whose cycles it drains
//! ([`CycleScheduler::for_manager`]). Each round of a drain reads the
//! manager's tier when it starts, so a drain after
//! [`SessionManager::swap_tier`] ranks on the new tier, and it settles,
//! rolls back and replans through the manager.
//!
//! A drain runs in **rounds**, and the cycle is its one unit of
//! recovery. A round is four steps, each its own function: **claim** (the
//! deadline watchdog), **resolve** (a group's entries as one batch),
//! **fan-out** (one outcome per subscribing tenant), and — after the
//! workers join — **settle**: every delivered member is counted against
//! its cycle in the owning session, and a cycle whose members were all
//! delivered leaves the rollback window. That is the only way a planned
//! cycle is sealed. An entry the fault plane fails, or every entry of a
//! group whose batch panicked, fails without a retry: the engine is pure,
//! so the same input would fail again. A cycle with a failed entry is
//! rolled back and replanned as a fresh cycle into the next round,
//! beside the entries the deadline left unclaimed; what is still pending
//! after the last round is rolled back for good. The outcomes of a
//! rolled-back cycle never leave the scheduler as delivered work.
//!
//! Draining consumes the queue without sleeping between submissions:
//! simulated time orders the trace the engine sees, while wall-clock
//! throughput is bounded only by the worker pool. Queue depth and
//! per-submit latency are reported to the manager's
//! [`crate::ServiceMetrics`]; each round additionally records **queue
//! wait** (round start → an entry's claim) into [`M_QUEUE_WAIT_US`] and
//! **service time** (one group's resolution) into [`M_SERVICE_US`], and
//! journals a `drain` span with one `drain_worker` child per worker into
//! the global tracer.

use crate::fault::FaultKind;
use crate::session::{Resolving, RolledBackCycle, SessionManager};
use crate::tier::SearchTier;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use toppriv_core::ScheduledQuery;
use toppriv_obs::{AuditSeverity, Counter, HistogramHandle, Span};
use tsearch_search::SearchHit;
use tsearch_text::TermId;

/// Metric name: queue wait (claim time − round start, µs).
pub const M_QUEUE_WAIT_US: &str = "scheduler_queue_wait_us";
/// Metric name: service time (µs): one sample per claimed group, its
/// entries' resolution and fan-out.
pub const M_SERVICE_US: &str = "scheduler_service_us";
/// Metric name: drained submission counter. The series carries no
/// `shard` label; the Rust name stays because `benchmark/src/fleet.rs`
/// imports it.
pub const M_SHARD_SUBMITS: &str = "scheduler_submits_total";

/// Default per-round deadline: far beyond any healthy drain.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);
/// Rounds per drain: a bound keeps a fault that fails every replan of a
/// cycle from looping the drain forever.
const MAX_ROUNDS: usize = 6;

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

/// What [`CycleScheduler::drain_resilient`] produces: the delivered
/// outcomes plus a full ledger of what the drain rolled back and
/// replanned.
#[derive(Debug)]
pub struct ResilientReport {
    /// Outcomes of every *fully delivered* cycle: in queue order when
    /// the drain took one round (a merged queue is in time order), sorted
    /// by simulated time when it took more.
    pub outcomes: Vec<SubmitOutcome>,
    /// Outcomes that resolved against the engine but belong to cycles
    /// later rolled back — discarded from `outcomes` (cycle atomicity)
    /// but kept here so engine-side accounting identities (`merged +
    /// cache_hits == drained`) remain checkable.
    pub discarded: Vec<SubmitOutcome>,
    /// Every cycle whose trace debits were reversed, in the order the
    /// drain rolled them back.
    pub rolled_back: Vec<RolledBackCycle>,
    /// `(session, old cycle id, new cycle id)` for every rolled-back
    /// cycle that was replanned as a fresh cycle, in the order of
    /// `rolled_back`.
    pub replanned: Vec<(String, usize, usize)>,
    /// Drain rounds it took (1 for a fault-free queue).
    pub rounds: usize,
}

/// What every worker of one round shares.
struct DrainRun<'a> {
    queue: &'a [PlannedQuery],
    /// The manager's tier when the round started.
    tier: SearchTier,
    /// Queue positions by group, largest group first, each in queue order.
    groups: Vec<Vec<usize>>,
    /// Next unclaimed group.
    cursor: AtomicUsize,
    /// Entries claimed so far.
    taken: AtomicUsize,
    started: Instant,
}

/// What became of one claimed entry, keyed by its queue position: its
/// fanned-out outcomes, or `None` when it failed. Workers collect these
/// locally and hand them back when they join.
type Claimed = (usize, Option<Vec<SubmitOutcome>>);

/// What one round left: the outcomes it produced (settled), the entries
/// that failed, and the entries the deadline left unclaimed — each in
/// queue order.
struct Round {
    completed: Vec<SubmitOutcome>,
    failed: Vec<PlannedQuery>,
    unclaimed: Vec<PlannedQuery>,
}

/// Merges per-session plans and drains them on one shared worker queue.
pub struct CycleScheduler {
    /// The manager whose cycles this scheduler drains: its tier, cache,
    /// metrics, auditor, fault plane and sessions.
    manager: Arc<SessionManager>,
    workers: usize,
    /// Per-round deadline: workers stop claiming once it passes, and an
    /// injected stall that outlives it panics into the failure path — a
    /// hung submission cannot block a drain forever. Unclaimed entries
    /// go to the next round.
    deadline: Duration,
    /// Monotone round counter, numbering `degraded_drain` events.
    drains: AtomicU64,
    queue_wait_us: HistogramHandle,
    service_us: HistogramHandle,
    submits: Counter,
}

impl CycleScheduler {
    /// A scheduler of `workers` threads (all claiming from the one merged
    /// queue) over `manager`'s tier, cache, metrics registry, auditor and
    /// fault plane. Every drain settles the cycles it delivers in the
    /// manager's sessions; with the manager's auditor, each round ends
    /// with the auditor's epilogue (periodic journal spill).
    pub fn for_manager(manager: &Arc<SessionManager>, workers: usize) -> Self {
        let registry = manager.metrics_registry().registry();
        CycleScheduler {
            queue_wait_us: registry.histogram(M_QUEUE_WAIT_US, &[]),
            service_us: registry.histogram(M_SERVICE_US, &[]),
            submits: registry.counter(M_SHARD_SUBMITS, &[]),
            manager: manager.clone(),
            workers: workers.max(1),
            deadline: DEFAULT_DEADLINE,
            drains: AtomicU64::new(0),
        }
    }

    /// Overrides the per-round deadline (30 s by default).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
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

    /// Drains a merged queue and returns the outcomes of every delivered
    /// cycle: [`CycleScheduler::drain_resilient`]'s `outcomes`. A
    /// fault-free queue drains in one round, its outcomes in queue order.
    pub fn drain(&self, queue: Vec<PlannedQuery>) -> Vec<SubmitOutcome> {
        self.drain_resilient(queue).outcomes
    }

    /// Drains a merged queue in rounds, with **cycle-atomic
    /// degradation**. A cycle with a failed entry is rolled back through
    /// the manager — trace debits reversed bit-exactly, the tenant's
    /// audit accounting re-credited, its already-resolved outcomes
    /// discarded (kept in [`ResilientReport::discarded`] for engine-side
    /// accounting) — and replanned as a fresh cycle, whose entries the
    /// next round drains beside those the deadline left unclaimed. In the
    /// last round a failed cycle is rolled back for good, and so is every
    /// cycle with an entry still pending after it. Fully delivered cycles
    /// were already sealed by the round that delivered their last member.
    pub fn drain_resilient(&self, queue: Vec<PlannedQuery>) -> ResilientReport {
        let mut outcomes: Vec<SubmitOutcome> = Vec::new();
        let (mut rolled_back, mut replanned) = (Vec::new(), Vec::new());
        let mut victims: HashSet<(String, usize)> = HashSet::new();
        let (mut pending, mut rounds) = (queue, 0);
        loop {
            rounds += 1;
            let round = self.round(pending);
            // The first round's outcomes move as they are: a fault-free
            // drain does no work per outcome past its round.
            if outcomes.is_empty() {
                outcomes = round.completed;
            } else {
                outcomes.extend(round.completed);
            }
            // The cycles with a failed entry, each once, in queue order.
            let mut failed: Vec<(String, usize)> = Vec::new();
            for tag in round.failed.iter().flat_map(PlannedQuery::subscriber_tags) {
                let cycle = (tag.session, tag.cycle_id);
                if victims.insert(cycle.clone()) {
                    failed.push(cycle);
                }
            }
            pending = round.unclaimed;
            release(&mut pending, &victims);
            for (session, cycle_id) in failed {
                // Unknown (closed, or rolled back since it was planned):
                // nothing to reverse.
                let Ok(rb) = self.manager.rollback_cycle(&session, cycle_id) else {
                    continue;
                };
                if rounds < MAX_ROUNDS {
                    if let Ok(plan) = self.manager.plan_cycle(&session, &rb.user_tokens, rb.k) {
                        replanned.push((session, cycle_id, plan[0].scheduled.cycle_id));
                        pending.extend(plan);
                    }
                }
                rolled_back.push(rb);
            }
            if pending.is_empty() || rounds == MAX_ROUNDS {
                break;
            }
            pending = Self::merge(vec![pending]);
        }
        // Rounds exhausted: a cycle with an entry still pending cannot be
        // delivered by this drain, so it is not left half-debited.
        for tag in pending.iter().flat_map(PlannedQuery::subscriber_tags) {
            let cycle = (tag.session, tag.cycle_id);
            if victims.insert(cycle.clone()) {
                if let Ok(rb) = self.manager.rollback_cycle(&cycle.0, cycle.1) {
                    rolled_back.push(rb);
                }
            }
        }
        // Cycle atomicity: outcomes of rolled-back cycles never leave the
        // scheduler as delivered work.
        let mut discarded = Vec::new();
        if !victims.is_empty() {
            (discarded, outcomes) = (outcomes.into_iter())
                .partition(|o| victims.contains(&(o.session.clone(), o.cycle_id)));
        }
        if rounds > 1 {
            outcomes.sort_by(|a, b| a.time_secs.partial_cmp(&b.time_secs).expect("finite time"));
        }
        ResilientReport {
            outcomes,
            discarded,
            rolled_back,
            replanned,
            rounds,
        }
    }

    /// One round over `queue`: workers claim and resolve its groups until
    /// the queue or the deadline runs out; then the round logs what
    /// reached the engine and settles what it delivered.
    fn round(&self, queue: Vec<PlannedQuery>) -> Round {
        let metrics = self.manager.metrics_registry();
        metrics.set_queue_depth(queue.len());
        let drain_span = toppriv_obs::tracer().span("drain");
        let number = self.drains.fetch_add(1, Ordering::Relaxed) + 1;
        let run = DrainRun {
            queue: &queue,
            tier: self.manager.tier(),
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
        metrics.set_queue_depth(0);
        if let Some(auditor) = self.manager.auditor() {
            auditor.finish_drain();
        }
        // Per queue position: `Some(true)` failed, `Some(false)` completed,
        // `None` never claimed (the deadline watchdog cut the round short).
        let mut failed_at: Vec<Option<bool>> = vec![None; queue.len()];
        claimed.sort_by_key(|&(at, _)| at);
        let mut completed = Vec::new();
        // What reached the engine, in queue order: each resolved entry
        // whose first subscriber's outcome is not a cache hit.
        let mut reached: Vec<&[TermId]> = Vec::new();
        for (at, resolved) in claimed {
            failed_at[at] = Some(resolved.is_none());
            if let Some(outcomes) = resolved {
                if outcomes.first().is_some_and(|o| !o.cache_hit) {
                    reached.push(&queue[at].scheduled.tokens);
                }
                completed.extend(outcomes);
            }
        }
        run.tier.log_tokens(&reached);
        self.manager.settle(&completed);
        let (mut failed, mut unclaimed) = (Vec::new(), Vec::new());
        for (plan, status) in queue.into_iter().zip(failed_at) {
            match status {
                Some(true) => failed.push(plan),
                Some(false) => {}
                None => unclaimed.push(plan),
            }
        }
        if !unclaimed.is_empty() {
            if let Some(auditor) = self.manager.auditor() {
                auditor.note(
                    AuditSeverity::Warning,
                    "degraded_drain",
                    "fleet",
                    number as usize,
                    format!(
                        "drain {number} degraded: the deadline passed with {} entries unclaimed",
                        unclaimed.len()
                    ),
                );
            }
        }
        Round {
            completed,
            failed,
            unclaimed,
        }
    }

    /// **Claim**: the next group this worker should resolve. `None` once
    /// every group is claimed or the round's deadline passed (the
    /// cooperative watchdog: the unclaimed remainder goes to the next
    /// round instead of blocking forever).
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

    /// **Resolve** one group. Each entry is claimed in queue order while
    /// the deadline allows (the rest stay unclaimed) and drawn for faults
    /// under `catch_unwind`; an entry whose draw panicked fails. The
    /// entries that pass resolve as one batch, and if the batch itself
    /// panics, each of them fails.
    fn resolve_group(&self, run: &DrainRun, group: &[usize], claimed: &mut Vec<Claimed>) {
        let mut batch = Vec::with_capacity(group.len());
        for &at in group {
            if run.started.elapsed() > self.deadline {
                break;
            }
            self.queue_wait_us
                .record(run.started.elapsed().as_micros() as u64);
            let taken = run.taken.fetch_add(1, Ordering::Relaxed) + 1;
            (self.manager.metrics_registry())
                .set_queue_depth(run.queue.len().saturating_sub(taken));
            let plan = &run.queue[at];
            match catch_unwind(AssertUnwindSafe(|| self.inject_faults(run, plan))) {
                Ok(()) => batch.push(at),
                Err(_) => claimed.push((at, None)),
            }
        }
        match catch_unwind(AssertUnwindSafe(|| self.resolve(run, &batch))) {
            Ok(resolved) => {
                for (&at, (hits, cache_hit)) in batch.iter().zip(resolved) {
                    let outcomes = self.fan_out(&run.queue[at], &hits, cache_hit);
                    claimed.push((at, Some(outcomes)));
                }
            }
            Err(_) => claimed.extend(batch.iter().map(|&at| (at, None))),
        }
    }

    /// Resolves the entries at `positions` as one batch through the
    /// manager's cache and the round's tier.
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
        self.manager.resolve(&run.tier, &entries)
    }

    /// Panics when the manager's fault plane schedules a stall that
    /// outlives the round's deadline, or a worker panic, for this entry.
    fn inject_faults(&self, run: &DrainRun, plan: &PlannedQuery) {
        let Some(plane) = self.manager.fault_plane() else {
            return;
        };
        if let Some(stall) = plane.stall_for(plan) {
            // An injected stall sleeps in small slices so the deadline
            // can preempt it: a stall that outlives the deadline panics
            // into the failure path instead of hanging the worker.
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
            !plane.fires_submission(FaultKind::WorkerPanic, plan),
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
}

/// Releases rolled-back cycles' subscriptions from queued entries: an
/// entry subscribed only by `victims` is dropped, a shared entry keeps
/// serving its other subscribers.
fn release(queue: &mut Vec<PlannedQuery>, victims: &HashSet<(String, usize)>) {
    let live = |session: &str, cycle_id: usize| !victims.contains(&(session.into(), cycle_id));
    queue.retain_mut(|plan| {
        if plan.subscribers.is_empty() {
            return live(&plan.session, plan.scheduled.cycle_id);
        }
        plan.subscribers.retain(|t| live(&t.session, t.cycle_id));
        !plan.subscribers.is_empty()
    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlane;
    use toppriv_core::merge_schedules;
    use tsearch_search::{LoggedQuery, Query};

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

    /// A manager over the tiny corpus's sharded tier, with `plane`.
    fn tiny_manager(shards: usize, plane: Option<FaultPlane>) -> Arc<SessionManager> {
        let (corpus, tier) = tiny_tier(shards);
        let manager = SessionManager::with_tier(tier, tiny_model(&corpus));
        Arc::new(match plane {
            Some(plane) => manager.with_fault_plane(Arc::new(plane)),
            None => manager,
        })
    }

    /// A run over `queue` with one group per entry, in queue order.
    fn run_over<'a>(queue: &'a [PlannedQuery], tier: SearchTier) -> DrainRun<'a> {
        DrainRun {
            queue,
            tier,
            groups: (0..queue.len()).map(|at| vec![at]).collect(),
            cursor: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    #[test]
    fn claim_hands_out_the_queue_in_order_then_closes() {
        let manager = tiny_manager(4, None);
        let scheduler = CycleScheduler::for_manager(&manager, 2);
        let queue = plan("a", &[0.0; 3]);
        let run = run_over(&queue, manager.tier());
        assert_eq!(scheduler.claim(&run), Some(0));
        assert_eq!(scheduler.claim(&run), Some(1));
        assert_eq!(scheduler.claim(&run), Some(2));
        assert_eq!(scheduler.claim(&run), None);
        assert_eq!(scheduler.claim(&run), None, "the gate stays closed");
    }

    #[test]
    fn claim_closes_at_the_deadline_and_leaves_the_rest_unclaimed() {
        let manager = tiny_manager(2, None);
        let scheduler =
            CycleScheduler::for_manager(&manager, 1).with_deadline(Duration::from_millis(1));
        let queue = plan("a", &[0.0; 3]);
        let mut run = run_over(&queue, manager.tier());
        assert_eq!(scheduler.claim(&run), Some(0));
        run.started = Instant::now() - Duration::from_millis(50);
        assert_eq!(scheduler.claim(&run), None);
        assert_eq!(run.cursor.into_inner(), 1, "nothing past the deadline");
    }

    /// A tenant whose every entry fails holds nothing back: its cycle
    /// fails in every round while the other tenants in the same queue are
    /// delivered in full, and so is the same scheduler's next drain; the
    /// failed entries never reached the engine and took no ordinal.
    #[test]
    fn terminal_failures_do_not_pause_the_next_drain() {
        let plane = FaultPlane::new(0).with_spec(crate::fault::FaultSpec::predicate(
            FaultKind::WorkerPanic,
            Arc::new(|p: &PlannedQuery| p.session == "doomed"),
        ));
        let manager = tiny_manager(4, Some(plane));
        let tenants = ["doomed", "a", "b", "c"];
        for tenant in tenants {
            manager.open_session(tenant).unwrap();
        }
        let queries = tiny_queries(&tiny_tier(4).0, tenants.len());
        let scheduler = CycleScheduler::for_manager(&manager, 2);
        let plan_all = |tenants: &[&str]| {
            let plans = (tenants.iter().zip(&queries))
                .map(|(tenant, q)| manager.plan_cycle(tenant, &q.tokens, 5).unwrap())
                .collect();
            CycleScheduler::merge(plans)
        };
        let queue = plan_all(&tenants);
        let doomed = queue.iter().filter(|p| p.session == "doomed").count();
        let report = scheduler.drain_resilient(queue.clone());
        assert_eq!(report.rounds, MAX_ROUNDS);
        assert_eq!(report.outcomes.len(), queue.len() - doomed);
        assert!(report.outcomes.iter().all(|o| o.session != "doomed"));
        assert!(
            report.discarded.is_empty(),
            "a doomed entry resolves nothing"
        );
        let delivered = report.outcomes.len();
        let queue = plan_all(&tenants[1..]);
        let expected = queue.len();
        let report = scheduler.drain_resilient(queue);
        assert_eq!((report.rounds, report.outcomes.len()), (1, expected));
        // The log counts exactly the delivered entries of both drains.
        let delivered = (delivered + expected) as u64;
        let ordinals: Vec<u64> = (manager.tier().query_log().iter())
            .map(|e| e.ordinal)
            .collect();
        assert_eq!(ordinals, (0..delivered).collect::<Vec<_>>());
    }

    /// Drains, by two workers, a queue with duplicate bags (in another
    /// token order too), a query that is a prefix of another, a repeated
    /// term and `k`s past the corpus, then reads the engine's log back:
    /// each engine-bound entry once, whole, in queue order under
    /// contiguous ordinals — every entry without a cache, only each key's
    /// first occurrence with one. A log bounded to two entries keeps the
    /// newest two.
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
        let (corpus, _) = tiny_tier(4);
        let model = tiny_model(&corpus);
        for (cached, engine_bound) in [
            (false, &[0, 1, 2, 3, 4, 5, 6, 7, 8][..]),
            (true, &[0, 1, 3, 5, 7]),
        ] {
            let drained = |capacity: Option<usize>| {
                let (_, tier) = tiny_tier(4);
                if let Some(capacity) = capacity {
                    tier.set_query_log_capacity(capacity);
                }
                let manager = SessionManager::with_tier(tier.clone(), model.clone());
                let manager = Arc::new(match cached {
                    true => manager.with_cache(64),
                    false => manager,
                });
                let outcomes = CycleScheduler::for_manager(&manager, 2).drain(queue.clone());
                (outcomes, tier, manager.metrics_registry().snapshot())
            };
            let (outcomes, tier, snapshot) = drained(None);
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
            let bits = |h: &[SearchHit]| -> Vec<(u32, u64)> {
                h.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
            };
            for o in &outcomes {
                let (tokens, k) = submissions[o.cycle_id];
                let want = tier.evaluate_batch(&[(&Query::from_tokens(tokens), k)]);
                assert_eq!(bits(&o.hits), bits(&want[0]), "entry {}", o.cycle_id);
            }
            let want: Vec<LoggedQuery> = (0..)
                .zip(engine_bound)
                .map(|(ordinal, &at)| {
                    let tokens = submissions[at].0;
                    let words: Vec<&str> = tokens.iter().map(|&t| tier.vocab().term(t)).collect();
                    let mut bag = tokens.to_vec();
                    bag.sort_unstable();
                    LoggedQuery {
                        ordinal,
                        text: words.join(" "),
                        tokens: bag,
                    }
                })
                .collect();
            assert_eq!(tier.query_log(), want, "cache {cached}");
            let (_, bounded, _) = drained(Some(2));
            let kept = &want[want.len() - 2..];
            assert_eq!(bounded.query_log(), kept, "cache {cached}");
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
        manager.settle(&delivered);
        assert!(
            manager
                .rollback_cycle("a", second[0].scheduled.cycle_id)
                .is_err(),
            "fully delivered: sealed"
        );
        // Settling the last member seals the first cycle too.
        manager.settle(&[outcome(&first[0])]);
        assert!(manager
            .rollback_cycle("a", first[0].scheduled.cycle_id)
            .is_err());
        // A cycle with a member outstanding still rolls back.
        let third = manager.plan_cycle("a", tokens, 5).unwrap();
        let partial: Vec<SubmitOutcome> = third[1..].iter().map(outcome).collect();
        manager.settle(&partial);
        manager
            .rollback_cycle("a", third[0].scheduled.cycle_id)
            .expect("one member outstanding");
    }
}
