//! Multi-tenant session management.
//!
//! One [`SessionManager`] serves many users against a single shared
//! [`LdaModel`] and one [`SearchTier`] (a monolithic engine or a
//! term-sharded one — both behind `Arc`s, so the paper's ~140 MB model
//! exists once in memory, not once per tenant). Each session owns the
//! per-user state of the paper's Figure 1 client:
//!
//! - a [`GhostGenerator`] (over the shared belief model) that formulates
//!   and certifies cycles;
//! - running trace sums for Equation-2 session-level accounting;
//! - a [`PacingScheduler`] with a per-session seed and clock, producing
//!   the submission schedule the [`crate::CycleScheduler`] merges.
//!
//! Every cycle takes one route: formulate, commit, resolve, settle.
//! [`SessionManager::search`] runs all four inline (each member through
//! the shared [`ResultCache`]), while [`SessionManager::plan_cycle`] —
//! [`SessionManager::formulate_cycle`] then
//! [`SessionManager::commit_cycle`] — stops after the commit and hands
//! the paced schedule to the global cycle scheduler, whose drains
//! resolve and settle it. The commit is one locked step on both paths:
//! it draws the pacer's cycle id, journals the cycle with every member
//! outstanding, and has the auditor judge it. A cycle stays rollbackable
//! until every one of its members was delivered; delivery is the only
//! thing that seals it.
//!
//! ## The fleet secret ghost seed
//!
//! Ghost generation is seeded from the query content XOR a config seed.
//! With the *public* default seed, an engine-side adversary could replay
//! ghost generation per logged query and test which logged query's
//! regenerated decoys all appear in the trace. The manager therefore
//! draws one service-wide **secret** seed at construction (or accepts
//! one via [`SessionManager::with_fleet_seed`]) and mixes it into every
//! session's [`GhostConfig`]. All sessions of the fleet share it, so
//! cross-tenant decoys stay cache-identical; the engine does not know
//! it, so the paper's secret-seed assumption is restored.
//!
//! ## Zero-downtime swaps
//!
//! The shared model and the search tier both live behind `RwLock`s, so
//! a fleet operator can retrain and [`SessionManager::swap_model`] (or
//! rebuild the index and [`SessionManager::swap_tier`]) without closing
//! a single session. Model swaps are **epoch-style**: the manager bumps
//! a monotone epoch counter; each session lazily rebinds its
//! [`GhostGenerator`] to the current model on its next search, keeping
//! its exposure accounting intact when the topic space is unchanged
//! (same `K`) and restarting trace accounting when it is not (topic ids
//! change meaning across a `K` change, so the old running sums would be
//! meaningless). Ghost decoys stay deterministic across a swap to an
//! identical model because generation is content-seeded — the fleet
//! seed survives the rebind, so cross-tenant cache identity is
//! preserved. A session's `(model, epoch)` pair is read under the model
//! slot's lock, so the epoch a session carries names the model its
//! generator holds — which is what lets the cycle memo (see
//! [`crate::cache`]) key stored cycles by epoch; a swap empties the memo.

use crate::cache::{CacheKey, CycleKey, CycleMemo, GeneratedCycle, ResultCache};
use crate::fault::{FaultKind, FaultPlane};
use crate::metrics::{MetricsSnapshot, ServiceMetrics, SessionMetrics};
use crate::scheduler::{PlannedQuery, SubmitOutcome};
use crate::tier::SearchTier;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;
use toppriv_core::{
    BeliefEngine, CycleResult, GhostConfig, GhostGenerator, PacingConfig, PacingScheduler,
    PrivacyRequirement, ScheduledQuery,
};
use toppriv_obs::{recover_lock, recover_read, recover_write, Span};
use tsearch_lda::LdaModel;
use tsearch_search::{Query, SearchEngine, SearchHit, ShardedEngine};
use tsearch_text::TermId;

/// Per-session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The `(ε1, ε2)` requirement this tenant asked for.
    pub requirement: PrivacyRequirement,
    /// Ghost generation parameters.
    pub ghost: GhostConfig,
    /// Pacing parameters (seed is re-derived per session).
    pub pacing: PacingConfig,
    /// Results fetched per query.
    pub top_k: usize,
    /// Simulated seconds between a session's consecutive cycles when
    /// pacing schedules are planned.
    pub think_time_secs: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            requirement: PrivacyRequirement::paper_default(),
            ghost: GhostConfig::default(),
            pacing: PacingConfig::default(),
            top_k: 10,
            think_time_secs: 30.0,
        }
    }
}

/// Service-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No session with that id.
    UnknownSession(String),
    /// A session with that id already exists.
    DuplicateSession(String),
    /// Malformed request (empty query, bad thresholds, ...).
    BadRequest(String),
    /// A transient infrastructure failure (an injected or real I/O
    /// error); the operation is safe to retry.
    Unavailable(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session '{id}'"),
            ServiceError::DuplicateSession(id) => write!(f, "session '{id}' already open"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Unavailable(m) => write!(f, "temporarily unavailable: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Outcome of one private search resolved inline.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The genuine query's hits (ghost results are discarded).
    pub hits: Vec<SearchHit>,
    /// The full cycle report (privacy accounting, ground truth).
    pub report: CycleResult,
    /// How many cycle members were served from the result cache.
    pub cache_hits: usize,
}

/// A cycle that has been formulated (generated and certified) but not
/// yet committed to its session's trace accounting, pacing clock, or
/// audit plane — the unit of work the cross-session
/// [`crate::planner::GhostPlanner`] rewrites between
/// [`SessionManager::formulate_cycle`] and
/// [`SessionManager::commit_cycle`].
#[derive(Debug, Clone)]
pub struct FormulatedCycle {
    pub(crate) session: String,
    /// The original user tokens, kept so a model swap between formulate
    /// and commit can regenerate instead of committing stale posteriors.
    pub(crate) user_tokens: Vec<TermId>,
    pub(crate) report: CycleResult,
    /// Per-member posteriors aligned with `report.cycle`.
    pub(crate) posteriors: Vec<Vec<f64>>,
    pub(crate) requirement: PrivacyRequirement,
    pub(crate) k: usize,
    pub(crate) model_epoch: u64,
}

impl FormulatedCycle {
    /// The formulated cycle (after any planner rewrites).
    pub fn report(&self) -> &CycleResult {
        &self.report
    }
}

/// What [`SessionManager::rollback_cycle`] hands back: enough to replan
/// the reversed search as a brand-new cycle.
#[derive(Debug, Clone)]
pub struct RolledBackCycle {
    /// The owning session id.
    pub session: String,
    /// The pacer cycle id that was reversed (a replan draws a fresh one).
    pub cycle_id: usize,
    /// The genuine user tokens of the reversed cycle.
    pub user_tokens: Vec<TermId>,
    /// The result depth the reversed cycle would have fetched.
    pub k: usize,
}

/// The complete trace accounting of one session, extracted into one
/// foldable value so cycle **rollback** can be bit-exact.
///
/// `f64` accumulation is not associative, so a rolled-back cycle cannot
/// be subtracted back out of running sums without leaving rounding
/// residue. Instead the session keeps *two* copies plus a journal: a
/// `base` accounting holding only fully delivered cycles, and the
/// live accounting, which equals `base` folded with every in-flight
/// cycle **in commitment order**. Rolling a cycle back removes its
/// journal record and replays `base ⊕ remaining in-flight` — the exact
/// same sequence of float operations a session that never formulated
/// the cycle would have performed, so the post-rollback accounting is
/// `to_bits`-identical to never-formulated (what the chaos proptests
/// assert).
#[derive(Debug, Clone, Default)]
struct TraceAccounting {
    /// Union of every certified intention (for trace exposure).
    intention_union: BTreeSet<usize>,
    /// Running sum of every submitted query's posterior (genuine and
    /// ghosts alike): Equation 2's trace posterior is the mean of these,
    /// so trace exposure is computable without retaining the history.
    posterior_sum: Vec<f64>,
    /// Queries accumulated into `posterior_sum`.
    posterior_count: u64,
    // Aggregates for SessionMetrics.
    cycles: u64,
    queries_emitted: u64,
    sum_cycle_len: f64,
    sum_exposure: f64,
    worst_exposure: f64,
    sum_mask: f64,
    satisfied: u64,
}

impl TraceAccounting {
    /// Folds one cycle's debits in — the single accounting primitive
    /// both the live fold and rollback replay go through, so the float
    /// operation sequence is identical on every path.
    fn fold(&mut self, result: &CycleResult, posteriors: &[Vec<f64>], num_topics: usize) {
        debug_assert_eq!(result.cycle_len(), posteriors.len());
        if self.posterior_sum.is_empty() {
            self.posterior_sum = vec![0.0; num_topics];
        }
        for posterior in posteriors {
            for (acc, p) in self.posterior_sum.iter_mut().zip(posterior) {
                *acc += p;
            }
            self.posterior_count += 1;
        }
        self.intention_union
            .extend(result.intention.iter().copied());
        self.cycles += 1;
        self.queries_emitted += result.cycle_len() as u64;
        self.sum_cycle_len += result.cycle_len() as f64;
        self.sum_exposure += result.metrics.exposure;
        self.worst_exposure = self.worst_exposure.max(result.metrics.exposure);
        self.sum_mask += result.metrics.mask_level;
        if result.satisfied {
            self.satisfied += 1;
        }
    }

    /// Drops the Equation-2 trace state (topic ids changed meaning after
    /// a K-changing model swap) while the work aggregates keep counting.
    fn reset_trace(&mut self) {
        self.intention_union.clear();
        self.posterior_sum.clear();
        self.posterior_count = 0;
    }
}

/// One journaled cycle not yet compacted into `base`: everything needed
/// to replay its accounting fold, plus what a rollback caller needs to
/// replan it.
#[derive(Debug, Clone)]
struct CycleRecord {
    /// The pacer cycle id its submissions carry.
    cycle_id: usize,
    /// The genuine user tokens, for replanning after a rollback.
    user_tokens: Vec<TermId>,
    report: CycleResult,
    posteriors: Vec<Vec<f64>>,
    k: usize,
    /// Members not delivered yet. The cycle is rollbackable while this
    /// is non-zero and compacts into `base` once it is zero.
    undelivered: usize,
}

/// In-flight journal cap: past this many journaled cycles the oldest is
/// force-settled. Every drain and every inline search settles what it
/// delivers, so this only bounds cycles that are never fully delivered
/// (a plan never drained, a search whose resolution panicked) and never
/// rolled back: those stop being rollbackable instead of leaking memory.
const MAX_INFLIGHT_CYCLES: usize = 256;

/// One tenant's state. All fields live behind the manager's per-session
/// mutex; the heavyweight model/engine state is shared through `Arc`s
/// inside `client`.
pub(crate) struct Session {
    generator: GhostGenerator,
    /// The configuration `generator` runs with: the tenant's, with the
    /// fleet secret mixed into its seed.
    ghost: GhostConfig,
    /// The manager model epoch this session's generator was built
    /// against; lazily rebound when the manager's epoch moves on.
    model_epoch: u64,
    pacer: PacingScheduler,
    config: SessionConfig,
    /// Session-local simulated clock for schedule planning.
    clock_secs: f64,
    /// Live accounting: `base ⊕ inflight` in journal order.
    acc: TraceAccounting,
    /// Accounting of fully delivered cycles only.
    base: TraceAccounting,
    /// Commitment-ordered journal of cycles not yet compacted into
    /// `base` (see [`TraceAccounting`]).
    inflight: Vec<CycleRecord>,
    /// Set by [`SessionManager::close_session`] under this session's
    /// lock, for the request that cloned the handle out of the table
    /// before the close removed it (see [`SessionManager::lock_open`]).
    closed: bool,
}

impl Session {
    fn new(
        model: Arc<LdaModel>,
        config: SessionConfig,
        seed: u64,
        fleet_seed: u64,
        model_epoch: u64,
    ) -> Self {
        // Ghost content stays content-seeded (deterministic per query,
        // which is what makes cross-tenant decoys cacheable) but mixes in
        // the fleet-wide *secret* seed — shared by every session of this
        // service, unknown to the engine — so an engine-side adversary
        // cannot replay ghost generation from the public defaults. Pacing
        // must differ per tenant, so its seed mixes in the session hash.
        let ghost = GhostConfig {
            seed: config.ghost.seed ^ fleet_seed,
            ..config.ghost.clone()
        };
        let pacing = PacingConfig {
            seed: config.pacing.seed ^ seed,
            ..config.pacing
        };
        let generator =
            GhostGenerator::new(BeliefEngine::new(model), config.requirement, ghost.clone());
        Session {
            generator,
            ghost,
            model_epoch,
            pacer: PacingScheduler::new(pacing),
            config,
            clock_secs: 0.0,
            acc: TraceAccounting::default(),
            base: TraceAccounting::default(),
            inflight: Vec::new(),
            closed: false,
        }
    }

    /// Rebinds this session's generator to the manager's current model
    /// (epoch-style swap). The fleet-mixed ghost config is the one the
    /// session was opened with, so decoy determinism and cache identity
    /// survive a swap to an identical model. When the topic
    /// count changes, trace accounting restarts — topic ids no longer
    /// mean the same thing, so the old posterior sums are dropped rather
    /// than silently mixed across incompatible topic spaces.
    fn rebind_model(&mut self, model: Arc<LdaModel>, epoch: u64) {
        let old_topics = self.generator.belief().num_topics();
        self.generator = GhostGenerator::new(
            BeliefEngine::new(model),
            self.config.requirement,
            self.ghost.clone(),
        );
        if self.generator.belief().num_topics() != old_topics {
            // The old topic space is gone, so every in-flight cycle's
            // posteriors are meaningless for rollback replay: fold them
            // into the base as-is (their work aggregates still count),
            // drop the trace state, and restart the journal.
            self.compact_all();
            self.base.reset_trace();
            self.acc = self.base.clone();
        }
        self.model_epoch = epoch;
    }

    /// Folds the delivered prefix of the in-flight journal into `base`.
    /// Only a *prefix* may compact: `acc` must stay reproducible as
    /// `base ⊕ inflight` in order, so a record with members outstanding
    /// blocks every record behind it.
    fn compact(&mut self) {
        let delivered_prefix = self
            .inflight
            .iter()
            .take_while(|r| r.undelivered == 0)
            .count();
        let num_topics = self.generator.belief().num_topics();
        for record in self.inflight.drain(..delivered_prefix) {
            self.base
                .fold(&record.report, &record.posteriors, num_topics);
        }
    }

    /// Force-settles and compacts the whole journal (model rebind with
    /// a K change).
    fn compact_all(&mut self) {
        for record in &mut self.inflight {
            record.undelivered = 0;
        }
        self.compact();
    }

    /// Formulates one cycle for `tokens` **without** recording it, with
    /// each member's posterior (aligned with `result.cycle`) as the
    /// generator inferred it — once, on the sorted bag that is submitted.
    /// These are the vectors the certificate was computed from, and
    /// exactly what any later re-inference of the same members would
    /// produce. Accounting happens separately in [`Session::account`] so
    /// a cross-session planner can substitute cycle members between
    /// generation and accounting — the session then debits exactly what
    /// was actually planned for submission.
    ///
    /// This is the one place that asks the manager's [`CycleMemo`], when
    /// there is one: a cycle another request already formulated under the
    /// same [`CycleKey`] is handed back as it was certified.
    fn generate(&self, tokens: &[TermId], memo: Option<&CycleMemo>) -> GeneratedCycle {
        let generate = || self.generator.generate_with_posteriors(tokens);
        match memo {
            Some(memo) => {
                let requirement = self.config.requirement;
                let key = CycleKey::new(self.model_epoch, requirement, &self.ghost, tokens);
                memo.get_or_generate(key, generate)
            }
            None => generate(),
        }
    }

    /// Records one formulated cycle into the session's trace accounting.
    /// `posteriors` must align with `result.cycle` — for a shared
    /// (planner-substituted) cycle these are the posteriors of the
    /// members **as submitted**, so a shared submission debits this
    /// session's trace exactly as an owned decoy would.
    ///
    /// `cycle_id` ties the record to its submissions: every member
    /// starts outstanding, [`Session::deliver`] counts them off, and
    /// until the last one is delivered [`Session::rollback`] can reverse
    /// the cycle.
    fn account(
        &mut self,
        result: &CycleResult,
        posteriors: Vec<Vec<f64>>,
        cycle_id: usize,
        user_tokens: &[TermId],
        k: usize,
    ) {
        let num_topics = self.generator.belief().num_topics();
        self.acc.fold(result, &posteriors, num_topics);
        self.inflight.push(CycleRecord {
            cycle_id,
            user_tokens: user_tokens.to_vec(),
            report: result.clone(),
            posteriors,
            k,
            undelivered: result.cycle_len(),
        });
        if self.inflight.len() > MAX_INFLIGHT_CYCLES {
            self.inflight[0].undelivered = 0;
        }
        self.compact();
    }

    /// Counts `members` delivered submissions against an in-flight
    /// cycle. At zero outstanding the cycle leaves the rollback window
    /// (the caller's next [`Session::compact`] folds it into `base` once
    /// every cycle committed before it is fully delivered too). Unknown
    /// or already settled cycles are ignored.
    fn deliver(&mut self, cycle_id: usize, members: usize) {
        if let Some(record) = self.inflight.iter_mut().find(|r| r.cycle_id == cycle_id) {
            record.undelivered = record.undelivered.saturating_sub(members);
        }
    }

    /// Reverses one in-flight cycle's trace debits **bit-exactly** by
    /// replaying `base ⊕ remaining in-flight` — the same float operation
    /// sequence a session that never formulated the cycle would have
    /// run. Returns the removed record (its `user_tokens` are what the
    /// caller replans from), or `None` when the cycle is unknown or
    /// fully delivered (delivered work is never rolled back).
    fn rollback(&mut self, cycle_id: usize) -> Option<CycleRecord> {
        let pos = self
            .inflight
            .iter()
            .position(|r| r.cycle_id == cycle_id && r.undelivered > 0)?;
        let record = self.inflight.remove(pos);
        let num_topics = self.generator.belief().num_topics();
        let mut acc = self.base.clone();
        for r in &self.inflight {
            acc.fold(&r.report, &r.posteriors, num_topics);
        }
        self.acc = acc;
        Some(record)
    }

    fn metrics(&self, id: &str) -> SessionMetrics {
        let acc = &self.acc;
        let n = acc.cycles.max(1) as f64;
        let intention: Vec<usize> = acc.intention_union.iter().copied().collect();
        // Equation 2 over the whole trace from the running sum: trace
        // boost = mean posterior − prior; exposure is its max over the
        // union of certified intentions.
        let trace_exposure = if acc.posterior_count == 0 {
            0.0
        } else {
            let belief = self.generator.belief();
            let prior = belief.prior();
            let trace_boosts: Vec<f64> = acc
                .posterior_sum
                .iter()
                .zip(prior)
                .map(|(&sum, &pri)| sum / acc.posterior_count as f64 - pri)
                .collect();
            toppriv_core::exposure(&trace_boosts, &intention)
        };
        SessionMetrics {
            session: id.to_string(),
            cycles: acc.cycles,
            queries_emitted: acc.queries_emitted,
            mean_cycle_len: acc.sum_cycle_len / n,
            mean_exposure: acc.sum_exposure / n,
            worst_exposure: acc.worst_exposure,
            mean_mask_level: acc.sum_mask / n,
            satisfied_rate: acc.satisfied as f64 / n,
            trace_exposure,
        }
    }
}

/// What [`SessionManager::with_cache`] attaches. The two stores are one
/// plane: a stored cycle spares the formulation of a query whose members
/// the result cache already spares the engine.
struct CachePlane {
    results: Arc<ResultCache>,
    cycles: CycleMemo,
}

/// Stored cycles per result-cache entry: a cycle is υ ≈ 6.3 members and
/// members repeat across cycles, so a result cache of `capacity` entries
/// backs about an eighth as many cycles.
const RESULTS_PER_STORED_CYCLE: usize = 8;

impl CachePlane {
    fn new(capacity: usize, registry: &Arc<toppriv_obs::MetricsRegistry>) -> Self {
        CachePlane {
            results: Arc::new(ResultCache::new(capacity).with_registry(registry.clone())),
            cycles: CycleMemo::new(capacity / RESULTS_PER_STORED_CYCLE, registry),
        }
    }
}

/// The multi-tenant service core.
///
/// ## Example
///
/// ```no_run
/// use std::sync::Arc;
/// use toppriv_service::SessionManager;
/// # let engine: Arc<tsearch_search::SearchEngine> = unimplemented!();
/// # let model: Arc<tsearch_lda::LdaModel> = unimplemented!();
///
/// // One shared engine + model, a 4096-entry decoy cache, and a fixed
/// // fleet secret (omit `with_fleet_seed` to draw a random one).
/// let manager = SessionManager::new(engine, model)
///     .with_cache(4096)
///     .with_fleet_seed(0xC0FFEE);
/// manager.open_session("alice").unwrap();
/// let outcome = manager.search("alice", "apache helicopter", 10).unwrap();
/// assert!(outcome.report.metrics.exposure <= outcome.report.metrics.mask_level);
/// ```
pub struct SessionManager {
    tier: RwLock<SearchTier>,
    model: RwLock<Arc<LdaModel>>,
    /// Monotone model-swap counter; sessions compare against it to
    /// lazily rebind their generators after [`SessionManager::swap_model`].
    model_epoch: AtomicU64,
    /// The cache plane [`SessionManager::with_cache`] attaches: member
    /// results and whole cycles, both or neither.
    cache: Option<CachePlane>,
    metrics: Arc<ServiceMetrics>,
    /// The online privacy auditor, when the audit plane is attached
    /// (see [`SessionManager::with_auditor`]).
    auditor: Option<Arc<crate::auditor::PrivacyAuditor>>,
    /// The deterministic fault-injection plane, when attached (see
    /// [`SessionManager::with_fault_plane`]). `None` in production —
    /// every injection check compiles to a branch on `None`.
    fault: Option<Arc<FaultPlane>>,
    defaults: SessionConfig,
    /// Service-wide secret mixed into every session's ghost seed.
    fleet_seed: u64,
    sessions: RwLock<HashMap<String, Arc<Mutex<Session>>>>,
}

/// One entry [`SessionManager::resolve`] serves: a queue entry or a wire
/// search's cycle member.
pub(crate) struct Resolving<'a> {
    pub(crate) tokens: &'a [TermId],
    pub(crate) k: usize,
    /// Each subscriber's genuine flag, the owner's first.
    pub(crate) genuine: Vec<bool>,
}

impl SessionManager {
    /// A manager over a shared single engine and model, no result cache,
    /// and a randomly drawn fleet secret ghost seed.
    pub fn new(engine: Arc<SearchEngine>, model: Arc<LdaModel>) -> Self {
        Self::with_tier(SearchTier::Single(engine), model)
    }

    /// A manager over a term-sharded engine (queries fan out to their
    /// shard sets inside the engine).
    pub fn new_sharded(engine: Arc<ShardedEngine>, model: Arc<LdaModel>) -> Self {
        Self::with_tier(SearchTier::Sharded(engine), model)
    }

    /// A manager over an explicit search tier.
    pub fn with_tier(tier: SearchTier, model: Arc<LdaModel>) -> Self {
        SessionManager {
            tier: RwLock::new(tier),
            model: RwLock::new(model),
            model_epoch: AtomicU64::new(0),
            cache: None,
            metrics: Arc::new(ServiceMetrics::new()),
            auditor: None,
            fault: None,
            defaults: SessionConfig::default(),
            fleet_seed: random_fleet_seed(),
            sessions: RwLock::default(),
        }
    }

    /// Attaches a sharded LRU result cache of `capacity` entries and,
    /// beside it, a memo of `capacity / 8` whole cycles, so a query the
    /// fleet has already protected is neither evaluated nor formulated
    /// again. Both publish their eviction counters (the memo also its
    /// hits and misses, the result cache its lookup latency) into this
    /// manager's metrics registry. The result cache's hits and misses
    /// are counted once, per subscriber, by [`ServiceMetrics`].
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(CachePlane::new(capacity, self.metrics.registry()));
        self
    }

    /// Rebinds this manager's metrics onto `registry` — pass a clone of
    /// [`toppriv_obs::global()`] to expose service counters alongside
    /// the engine-layer instrumentation through one endpoint. An
    /// already-attached cache is re-bound to the same registry.
    pub fn with_metrics_registry(mut self, registry: Arc<toppriv_obs::MetricsRegistry>) -> Self {
        self.metrics = Arc::new(ServiceMetrics::with_registry(registry.clone()));
        if let Some(plane) = &self.cache {
            self.cache = Some(CachePlane::new(plane.results.capacity(), &registry));
        }
        self
    }

    /// Attaches the online privacy-audit plane: every committed cycle is
    /// judged once by a [`crate::PrivacyAuditor`] publishing into this
    /// manager's metrics registry, every drain (via a
    /// [`crate::CycleScheduler::for_manager`] scheduler) ends with its
    /// journal spill, and `Health` / `AuditTail` read out the verdict.
    /// Attach **after**
    /// [`SessionManager::with_metrics_registry`] so the auditor's gauges
    /// land on the final registry.
    pub fn with_auditor(mut self, config: crate::auditor::AuditConfig) -> Self {
        self.auditor = Some(Arc::new(crate::auditor::PrivacyAuditor::new(
            self.metrics.registry().clone(),
            config,
        )));
        self
    }

    /// The attached privacy auditor, if the audit plane is on.
    pub fn auditor(&self) -> Option<&Arc<crate::auditor::PrivacyAuditor>> {
        self.auditor.as_ref()
    }

    /// Attaches a deterministic [`FaultPlane`]: the scheduler and the
    /// session/audit spill paths consult it before touching real state.
    /// Attach **after** [`SessionManager::with_auditor`] so the auditor's
    /// own spill path sees the plane too.
    pub fn with_fault_plane(mut self, plane: Arc<FaultPlane>) -> Self {
        if let Some(auditor) = &self.auditor {
            auditor.attach_fault_plane(plane.clone());
        }
        self.fault = Some(plane);
        self
    }

    /// The attached fault plane, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.fault.as_ref()
    }

    /// Overrides the default per-session configuration.
    pub fn with_defaults(mut self, defaults: SessionConfig) -> Self {
        self.defaults = defaults;
        self
    }

    /// Overrides the fleet secret ghost seed (e.g. to share one secret
    /// across service replicas, or to make tests deterministic). Must be
    /// called before sessions are opened — already-open sessions keep
    /// the seed they were created with.
    pub fn with_fleet_seed(mut self, seed: u64) -> Self {
        self.fleet_seed = seed;
        self
    }

    /// The search tier (single engine or shards) at this instant. The
    /// returned handle is a cheap clone (`Arc`s inside); it keeps
    /// serving even if the manager swaps tiers afterwards.
    pub fn tier(&self) -> SearchTier {
        recover_read(&self.tier).clone()
    }

    /// The shared model at this instant (a cheap `Arc` clone).
    pub fn model(&self) -> Arc<LdaModel> {
        recover_read(&self.model).clone()
    }

    /// The current model epoch: 0 at construction, bumped by every
    /// [`SessionManager::swap_model`].
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch.load(Ordering::SeqCst)
    }

    /// Swaps the shared model without closing sessions (zero-downtime
    /// retrain deploy). Returns the new epoch. Each open session rebinds
    /// its generator to the new model lazily on its next search or plan;
    /// in-flight resolutions against the old model finish unharmed
    /// (their `Arc` keeps it alive). Exposure accounting carries across
    /// the swap when the topic count is unchanged and restarts when it
    /// is not (see [`Self::swap_tier`] for the index-side counterpart).
    pub fn swap_model(&self, model: Arc<LdaModel>) -> u64 {
        let mut slot = recover_write(&self.model);
        *slot = model;
        // Bump while still holding the slot so (model, epoch) move
        // together: see [`Self::model_and_epoch`].
        let epoch = self.model_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(plane) = &self.cache {
            // No session will ask under the old epoch again.
            plane.cycles.clear();
        }
        epoch
    }

    /// The shared model and its epoch, read as one pair: under the slot's
    /// read lock, which [`Self::swap_model`] holds for writing while it
    /// moves both. A session bound from this pair can key the cycle memo
    /// by the epoch and mean the model.
    fn model_and_epoch(&self) -> (Arc<LdaModel>, u64) {
        let slot = recover_read(&self.model);
        (slot.clone(), self.model_epoch())
    }

    /// Swaps the search tier without closing sessions (zero-downtime
    /// index rebuild, e.g. after corpus evolution). Sessions keep their
    /// privacy accounting; the result cache is emptied, since its
    /// rankings came from the old index. Every later search, and every
    /// drain round a [`crate::CycleScheduler`] starts afterwards, ranks on
    /// the new tier.
    pub fn swap_tier(&self, tier: SearchTier) {
        *recover_write(&self.tier) = tier;
        if let Some(plane) = &self.cache {
            plane.results.clear();
        }
    }

    /// The result cache, if one is attached.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref().map(|plane| &plane.results)
    }

    /// The cycle memo, if a cache is attached.
    fn memo(&self) -> Option<&CycleMemo> {
        self.cache.as_ref().map(|plane| &plane.cycles)
    }

    /// The shared metrics registry.
    pub fn metrics_registry(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Opens a session with the manager's default configuration.
    pub fn open_session(&self, id: &str) -> Result<(), ServiceError> {
        self.open_session_with(id, self.defaults.clone())
    }

    /// Opens a session with an explicit configuration.
    pub fn open_session_with(&self, id: &str, config: SessionConfig) -> Result<(), ServiceError> {
        check_session_id(id)?;
        let mut sessions = recover_write(&self.sessions);
        if sessions.contains_key(id) {
            return Err(ServiceError::DuplicateSession(id.to_string()));
        }
        let (model, epoch) = self.model_and_epoch();
        let session = Session::new(model, config, session_seed(id), self.fleet_seed, epoch);
        sessions.insert(id.to_string(), Arc::new(Mutex::new(session)));
        Ok(())
    }

    /// Closes a session, returning its final metrics.
    pub fn close_session(&self, id: &str) -> Result<SessionMetrics, ServiceError> {
        let session = recover_write(&self.sessions)
            .remove(id)
            .ok_or_else(|| ServiceError::UnknownSession(id.to_string()))?;
        let mut session = recover_lock(&session);
        session.closed = true;
        if let Some(auditor) = &self.auditor {
            auditor.forget_session(id);
        }
        Ok(session.metrics(id))
    }

    /// Open session count.
    pub fn session_count(&self) -> usize {
        recover_read(&self.sessions).len()
    }

    /// Sorted ids of the open sessions.
    pub fn session_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = recover_read(&self.sessions).keys().cloned().collect();
        ids.sort();
        ids
    }

    fn session(&self, id: &str) -> Result<Arc<Mutex<Session>>, ServiceError> {
        recover_read(&self.sessions)
            .get(id)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownSession(id.to_string()))
    }

    /// Locks a looked-up session for a path that debits it or has the
    /// audit plane judge it. Between the lookup and this lock
    /// [`SessionManager::close_session`] can have removed the session and
    /// had the auditor forget the tenant; a cycle audited after that
    /// would bring the tenant's entry and gauges back with no close left
    /// to retire them, so the late request is answered as one that
    /// arrived after the close.
    fn lock_open<'a>(
        id: &str,
        session: &'a Mutex<Session>,
    ) -> Result<MutexGuard<'a, Session>, ServiceError> {
        let session = recover_lock(session);
        if session.closed {
            return Err(ServiceError::UnknownSession(id.to_string()));
        }
        Ok(session)
    }

    /// Epoch check on the search hot path: if the manager's model moved
    /// on since this session last generated, rebind its generator now.
    fn refresh_session(&self, session: &mut Session) {
        if session.model_epoch != self.model_epoch() {
            let (model, epoch) = self.model_and_epoch();
            session.rebind_model(model, epoch);
        }
    }

    /// Resolves a batch of entries — a drain group's queue entries or a
    /// wire search's cycle members — on `tier` with the accounting one
    /// worker resolving them one by one in order would give. With a
    /// cache, each entry's first occurrence in the batch looks its key up;
    /// a later duplicate is served from it, counted a hit, and never
    /// reaches the engine. Without one, every entry reaches
    /// the engine and counts a miss. The entries that reach the engine are
    /// ranked in one term-ordered walk, so only the kernel's work is
    /// shared. Each entry is one engine submission however many tenants
    /// subscribe to it; subscribers beyond the first count a hit. This is
    /// where every hit and miss is decided, and [`ServiceMetrics`] counts
    /// each once ([`ServiceMetrics::record_resolved`]). Keys, here and in
    /// the walk, hold `min(k, num_docs)`; each entry's is built once.
    /// Returns each entry's `(hits, cache_hit)` for its first subscriber.
    ///
    /// Nothing is logged here: an entry whose `cache_hit` is false reached
    /// `tier`, and the caller logs those ([`SearchTier::log_tokens`]) in
    /// the order its trace reads, so the log's ordinals count exactly the
    /// submissions the engine received.
    pub(crate) fn resolve(
        &self,
        tier: &SearchTier,
        entries: &[Resolving<'_>],
    ) -> Vec<(Vec<SearchHit>, bool)> {
        let t0 = Instant::now();
        let cache = self.cache();
        let mut resolved: Vec<Option<(Vec<SearchHit>, bool)>> = vec![None; entries.len()];
        // For a later duplicate, the entry whose resolution it shares.
        let mut first_of: Vec<Option<usize>> = vec![None; entries.len()];
        let mut engine_bound = Vec::new();
        let num_docs = tier.num_docs();
        let keys: Vec<CacheKey> = match cache {
            Some(_) => (entries.iter())
                .map(|e| CacheKey::new(e.tokens, e.k.min(num_docs)))
                .collect(),
            None => Vec::new(),
        };
        match cache {
            Some(cache) => {
                let mut seen: HashMap<&CacheKey, usize> = HashMap::new();
                for (i, key) in keys.iter().enumerate() {
                    match seen.entry(key) {
                        Entry::Occupied(j) => first_of[i] = Some(*j.get()),
                        Entry::Vacant(slot) => {
                            match cache.get_key(key) {
                                Some(hits) => resolved[i] = Some((hits, true)),
                                None => engine_bound.push(i),
                            }
                            slot.insert(i);
                        }
                    }
                }
            }
            None => engine_bound.extend(0..entries.len()),
        }
        let queries: Vec<Query> = (engine_bound.iter())
            .map(|&i| Query::from_tokens(entries[i].tokens))
            .collect();
        let batch: Vec<(&Query, usize)> = (queries.iter().zip(&engine_bound))
            .map(|(q, &i)| (q, entries[i].k))
            .collect();
        for (&i, hits) in engine_bound.iter().zip(tier.evaluate_batch(&batch)) {
            resolved[i] = Some((hits, false));
        }
        for (i, &j) in first_of.iter().enumerate() {
            if let Some(j) = j {
                let hits = resolved[j].as_ref().expect("an earlier entry").0.clone();
                resolved[i] = Some((hits, true));
            }
        }
        let resolved: Vec<_> = resolved.into_iter().map(|r| r.expect("resolved")).collect();
        if let Some(cache) = cache {
            for (key, (hits, cache_hit)) in keys.into_iter().zip(&resolved) {
                if !cache_hit {
                    cache.insert_key(key, hits.clone());
                }
            }
        }
        // The batch's time, shared evenly by its entries.
        let latency_us = (t0.elapsed() / entries.len().max(1) as u32).as_micros() as u64;
        for (e, &(_, cache_hit)) in entries.iter().zip(&resolved) {
            self.metrics
                .record_resolved(latency_us, cache_hit, &e.genuine);
        }
        resolved
    }

    /// Synchronous private search: formulates the cycle, resolves its
    /// members as one batch, logged in (shuffled) cycle order, discards
    /// ghost results, and returns the genuine hits plus the privacy
    /// report.
    ///
    /// `k == 0` is a sentinel meaning "the session's configured `top_k`".
    pub fn search(&self, id: &str, text: &str, k: usize) -> Result<SearchOutcome, ServiceError> {
        let tier = self.tier();
        let tokens = tier.analyzer().analyze_frozen(text, tier.vocab());
        self.search_tokens(id, &tokens, k)
    }

    /// Token-level variant of [`SessionManager::search`] (`k == 0` means
    /// the session's configured `top_k`).
    pub fn search_tokens(
        &self,
        id: &str,
        tokens: &[TermId],
        k: usize,
    ) -> Result<SearchOutcome, ServiceError> {
        // Session existence first: an unknown tenant should hear that, not
        // a complaint about its query text.
        let session = self.session(id)?;
        self.search_in(id, &session, tokens, k)
    }

    /// [`SessionManager::search_tokens`] from the session lookup on: the
    /// one cycle route run inline. The cycle is formulated and committed
    /// like a planned one, its scheduled members are resolved as one
    /// batch under the session lock (logged in schedule order), and the
    /// delivered cycle settles. A
    /// panic while resolving leaves the cycle journaled with members
    /// outstanding, rollbackable like a paced cycle with a failed member.
    fn search_in(
        &self,
        id: &str,
        session: &Mutex<Session>,
        tokens: &[TermId],
        k: usize,
    ) -> Result<SearchOutcome, ServiceError> {
        let (span, mut session, fc) = self.formulate_in(id, session, tokens, k, "search")?;
        let k = fc.k;
        let (report, schedule) = self.commit_locked(&mut session, fc);
        let tier = self.tier();
        let resolve_span = span.child("resolve");
        let members: Vec<Resolving<'_>> = (schedule.iter())
            .map(|query| Resolving {
                tokens: &query.tokens,
                k,
                genuine: vec![query.is_genuine],
            })
            .collect();
        let resolved = self.resolve(&tier, &members);
        let reached: Vec<&[TermId]> = (members.iter().zip(&resolved))
            .filter(|(_, r)| !r.1)
            .map(|(m, _)| m.tokens)
            .collect();
        tier.log_tokens(&reached);
        drop(resolve_span);
        let cache_hits = resolved.iter().filter(|r| r.1).count();
        // Ghost results are dropped on the floor (Figure 1, step 4).
        let genuine_hits = (schedule.iter().zip(resolved))
            .find_map(|(query, (hits, _))| query.is_genuine.then_some(hits))
            .unwrap_or_default();
        if let Some(first) = schedule.first() {
            session.deliver(first.cycle_id, schedule.len());
            session.compact();
        }
        Ok(SearchOutcome {
            hits: genuine_hits,
            report,
            cache_hits,
        })
    }

    /// The locked prelude of both cycle paths: rejects an empty query,
    /// opens the root span `span`, locks the session (refusing one closed
    /// since its lookup), rebinds it to the current model, resolves the
    /// `k == 0` default, and formulates the cycle without recording it.
    /// The session stays locked in the returned guard, so the caller's
    /// accounting sees the state the cycle was formulated against.
    fn formulate_in<'a>(
        &self,
        id: &str,
        session: &'a Mutex<Session>,
        tokens: &[TermId],
        k: usize,
        span: &'static str,
    ) -> Result<(Span<'static>, MutexGuard<'a, Session>, FormulatedCycle), ServiceError> {
        if tokens.is_empty() {
            return Err(ServiceError::BadRequest(
                "query analyzed to zero tokens".into(),
            ));
        }
        let span = toppriv_obs::tracer().span(span);
        let mut session = Self::lock_open(id, session)?;
        self.refresh_session(&mut session);
        let k = if k == 0 { session.config.top_k } else { k };
        let (report, posteriors) = {
            let _formulate = span.child("formulate");
            session.generate(tokens, self.memo())
        };
        let fc = FormulatedCycle {
            session: id.to_string(),
            user_tokens: tokens.to_vec(),
            report,
            posteriors,
            requirement: session.config.requirement,
            k,
            model_epoch: session.model_epoch,
        };
        Ok((span, session, fc))
    }

    /// Plans one paced cycle: formulates and commits it (see
    /// [`SessionManager::commit_cycle`]) and returns the per-submission
    /// plan for the [`crate::CycleScheduler`] to drain. The cycle stays
    /// rollbackable until a drain delivered all of it.
    pub fn plan_cycle(
        &self,
        id: &str,
        tokens: &[TermId],
        k: usize,
    ) -> Result<Vec<PlannedQuery>, ServiceError> {
        self.commit_cycle(self.formulate_cycle(id, tokens, k)?)
            .map(|(_, plan)| plan)
    }

    /// Formulates one cycle **without** committing it: the cycle is
    /// generated and certified, but nothing is recorded in the session's
    /// trace accounting, pacing clock, or audit plane yet. The returned
    /// [`FormulatedCycle`] is what the cross-session
    /// [`crate::planner::GhostPlanner`] rewrites (substituting ghost
    /// members with other tenants' already-planned submissions) before
    /// handing it back to [`SessionManager::commit_cycle`]. Callers that
    /// don't rewrite anything should just use
    /// [`SessionManager::plan_cycle`], or commit it straight away when
    /// they need the returned ground-truth [`CycleResult`] too.
    pub fn formulate_cycle(
        &self,
        id: &str,
        tokens: &[TermId],
        k: usize,
    ) -> Result<FormulatedCycle, ServiceError> {
        let session = self.session(id)?;
        let (_span, _session, fc) = self.formulate_in(id, &session, tokens, k, "plan_cycle")?;
        Ok(fc)
    }

    /// Commits a formulated (and possibly planner-rewritten) cycle: the
    /// **final** members are accounted into the session's trace — a
    /// shared submission debits this subscriber's running posterior sums
    /// exactly as an owned decoy would — the cycle is paced onto the
    /// session clock, the audit plane judges it, and the per-submission
    /// plan is returned.
    ///
    /// If the shared model was swapped between formulation and commit,
    /// the held posteriors (and any cross-tenant substitutions) are
    /// stale; the cycle is silently regenerated from the original user
    /// tokens under the current model instead.
    pub fn commit_cycle(
        &self,
        fc: FormulatedCycle,
    ) -> Result<(CycleResult, Vec<PlannedQuery>), ServiceError> {
        let session = self.session(&fc.session)?;
        self.commit_in(&session, fc)
    }

    /// [`SessionManager::commit_cycle`] from the session lookup on.
    fn commit_in(
        &self,
        session: &Mutex<Session>,
        fc: FormulatedCycle,
    ) -> Result<(CycleResult, Vec<PlannedQuery>), ServiceError> {
        let mut session = Self::lock_open(&fc.session, session)?;
        self.refresh_session(&mut session);
        let (id, k) = (fc.session.clone(), fc.k);
        let (report, schedule) = self.commit_locked(&mut session, fc);
        let plan = schedule
            .into_iter()
            .map(|scheduled| PlannedQuery {
                session: id.clone(),
                scheduled,
                k,
                subscribers: Vec::new(),
            })
            .collect();
        Ok((report, plan))
    }

    /// The commit step of every cycle, on a session locked and bound to
    /// the current model: regenerates a cycle formulated under an older
    /// model, paces it onto the session clock (drawing its cycle id),
    /// journals its debits with every member outstanding, and has the
    /// auditor judge it — the one place a cycle is audited. Returns the
    /// committed cycle and its schedule.
    fn commit_locked(
        &self,
        session: &mut Session,
        fc: FormulatedCycle,
    ) -> (CycleResult, Vec<ScheduledQuery>) {
        let id = fc.session.as_str();
        let (report, posteriors) = if session.model_epoch != fc.model_epoch {
            session.generate(&fc.user_tokens, self.memo())
        } else {
            (fc.report, fc.posteriors)
        };
        let start = session.clock_secs;
        session.clock_secs += session.config.think_time_secs;
        let cycle_id = session.pacer.next_cycle_id();
        let schedule = session.pacer.schedule(&report, start);
        session.account(&report, posteriors, cycle_id, &fc.user_tokens, fc.k);
        if let Some(auditor) = &self.auditor {
            let m = session.metrics(id);
            auditor.audit_cycle(
                id,
                cycle_id,
                &report.metrics,
                session.config.requirement.eps2,
                m.trace_exposure,
                m.worst_exposure,
            );
        }
        (report, schedule)
    }

    /// **Cycle atomicity**: reverses a planned cycle whose submissions
    /// could not all be delivered (a drain entry failed, or the drain's
    /// deadline left it unclaimed).
    /// The session's trace accounting is recomputed *without* the cycle
    /// — bit-exactly equal to a session that never formulated it (base
    /// accumulator plus a re-fold of the surviving in-flight journal,
    /// never float subtraction) — the audit plane re-credits the tenant
    /// and journals the rollback (the verdict passed at commit stands),
    /// and the original user tokens come back so the caller can replan
    /// the search as a fresh cycle. Rolling back an unknown or fully
    /// delivered cycle fails with `BadRequest`: delivered work is never
    /// reversed.
    pub fn rollback_cycle(
        &self,
        id: &str,
        cycle_id: usize,
    ) -> Result<RolledBackCycle, ServiceError> {
        let session = self.session(id)?;
        let mut session = Self::lock_open(id, &session)?;
        let record = session.rollback(cycle_id).ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "cycle {cycle_id} of '{id}' is not in the rollback window"
            ))
        })?;
        if let Some(auditor) = &self.auditor {
            let m = session.metrics(id);
            auditor.release_cycle(id, cycle_id, m.trace_exposure, m.worst_exposure);
        }
        Ok(RolledBackCycle {
            session: id.to_string(),
            cycle_id,
            user_tokens: record.user_tokens,
            k: record.k,
        })
    }

    /// Counts delivered outcomes against their cycles: the one place a
    /// planned cycle leaves the rollback window, once none of its members
    /// is outstanding. A session closed since planning is skipped.
    pub(crate) fn settle(&self, delivered: &[SubmitOutcome]) {
        let mut members: HashMap<&str, HashMap<usize, usize>> = HashMap::new();
        for o in delivered {
            *members
                .entry(&o.session)
                .or_default()
                .entry(o.cycle_id)
                .or_default() += 1;
        }
        for (id, cycles) in members {
            let Ok(session) = self.session(id) else {
                continue;
            };
            let mut session = recover_lock(&session);
            for (cycle_id, members) in cycles {
                session.deliver(cycle_id, members);
            }
            session.compact();
        }
    }

    /// Spills one session's complete state (see
    /// [`crate::persist::SessionState`]) for crash recovery. The session
    /// stays open; the caller typically seals the state into a
    /// CRC-checked container via [`crate::persist::seal_session_state`].
    pub fn export_session(&self, id: &str) -> Result<crate::persist::SessionState, ServiceError> {
        let session = self.session(id)?;
        let s = recover_lock(&session);
        // The *live* accounting spills: a restore treats everything
        // spilled as delivered (the rollback window does not survive a
        // crash — in-flight cycles at spill time were audited at commit
        // and are either delivered later or lost with the process, never
        // half-restored).
        Ok(crate::persist::SessionState {
            id: id.to_string(),
            config: s.config.clone(),
            model_epoch: s.model_epoch,
            clock_secs: s.clock_secs,
            intention_union: s.acc.intention_union.iter().copied().collect(),
            posterior_sum: s.acc.posterior_sum.clone(),
            posterior_count: s.acc.posterior_count,
            next_cycle_id: s.pacer.next_cycle_id() as u64,
            cycles: s.acc.cycles,
            queries_emitted: s.acc.queries_emitted,
            sum_cycle_len: s.acc.sum_cycle_len,
            sum_exposure: s.acc.sum_exposure,
            worst_exposure: s.acc.worst_exposure,
            sum_mask: s.acc.sum_mask,
            satisfied: s.acc.satisfied,
        })
    }

    /// Restores a spilled session into this manager. The generator is
    /// rebuilt from the spilled config against the manager's **current**
    /// model and fleet seed; restored accounting is bit-identical to the
    /// spill (all sums and counters carry over raw), and stays
    /// bit-identical *going forward* only when the restoring manager
    /// holds the same fleet seed and an identical model — the crash
    /// recovery contract. Fails on a duplicate or malformed id.
    pub fn restore_session(
        &self,
        state: &crate::persist::SessionState,
    ) -> Result<(), ServiceError> {
        check_session_id(&state.id)?;
        let mut sessions = recover_write(&self.sessions);
        if sessions.contains_key(&state.id) {
            return Err(ServiceError::DuplicateSession(state.id.clone()));
        }
        let (model, epoch) = self.model_and_epoch();
        let mut session = Session::new(
            model,
            state.config.clone(),
            session_seed(&state.id),
            self.fleet_seed,
            epoch,
        );
        session.pacer.resume_from(state.next_cycle_id as usize);
        session.clock_secs = state.clock_secs;
        // Everything restored is settled state: base == acc, journal
        // empty (see the export-side note).
        session.base = TraceAccounting {
            intention_union: state.intention_union.iter().copied().collect(),
            posterior_sum: state.posterior_sum.clone(),
            posterior_count: state.posterior_count,
            cycles: state.cycles,
            queries_emitted: state.queries_emitted,
            sum_cycle_len: state.sum_cycle_len,
            sum_exposure: state.sum_exposure,
            worst_exposure: state.worst_exposure,
            sum_mask: state.sum_mask,
            satisfied: state.satisfied,
        };
        session.acc = session.base.clone();
        session.inflight.clear();
        sessions.insert(state.id.clone(), Arc::new(Mutex::new(session)));
        Ok(())
    }

    /// Spills one session's sealed state container to `path` via the
    /// store's atomic write (temp file + rename, so a crash mid-spill
    /// can never leave a torn container). An attached [`FaultPlane`]
    /// scheduling a [`FaultKind::StoreWrite`] for this path fails the
    /// spill *before* anything touches disk — the previous container
    /// stays valid, mirroring a real `ENOSPC`.
    pub fn spill_session(&self, id: &str, path: &Path) -> Result<(), ServiceError> {
        let state = self.export_session(id)?;
        if let Some(plane) = &self.fault {
            let key = FaultPlane::key_of(path.as_os_str().as_encoded_bytes());
            if let Some(err) = plane.io_error(FaultKind::StoreWrite, key) {
                return Err(ServiceError::Unavailable(format!(
                    "session spill to {} failed: {err}",
                    path.display()
                )));
            }
        }
        let sealed = crate::persist::seal_session_state(&state);
        tsearch_store::atomic_write(path, &sealed).map_err(|err| {
            ServiceError::Unavailable(format!("session spill to {} failed: {err}", path.display()))
        })
    }

    /// Reads a sealed container from `path` and restores the session it
    /// holds (see [`SessionManager::restore_session`] for the recovery
    /// contract). A scheduled [`FaultKind::StoreRead`] fails the read;
    /// a corrupt or truncated container is rejected by the CRC seal
    /// *before* any session state is touched — recovery never restores
    /// half a spill.
    pub fn load_session(&self, path: &Path) -> Result<String, ServiceError> {
        if let Some(plane) = &self.fault {
            let key = FaultPlane::key_of(path.as_os_str().as_encoded_bytes());
            if let Some(err) = plane.io_error(FaultKind::StoreRead, key) {
                return Err(ServiceError::Unavailable(format!(
                    "session load from {} failed: {err}",
                    path.display()
                )));
            }
        }
        let bytes = std::fs::read(path).map_err(|err| {
            ServiceError::Unavailable(format!(
                "session load from {} failed: {err}",
                path.display()
            ))
        })?;
        let state = crate::persist::unseal_session_state(&bytes).map_err(|err| {
            ServiceError::BadRequest(format!(
                "corrupt session container {}: {err}",
                path.display()
            ))
        })?;
        let id = state.id.clone();
        self.restore_session(&state)?;
        Ok(id)
    }

    /// Metrics for one session.
    pub fn session_metrics(&self, id: &str) -> Result<SessionMetrics, ServiceError> {
        let session = self.session(id)?;
        let session = recover_lock(&session);
        Ok(session.metrics(id))
    }

    /// Full service snapshot: global counters plus every session.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut sessions: Vec<SessionMetrics> = self
            .session_ids()
            .iter()
            .filter_map(|id| self.session_metrics(id).ok())
            .collect();
        sessions.sort_by(|a, b| a.session.cmp(&b.session));
        MetricsSnapshot {
            global: self.metrics.snapshot(),
            sessions,
        }
    }
}

/// Longest session id accepted, in bytes. An id is a client's choice
/// and becomes a map key, four gauge labels and audit-event text, so it
/// is bounded like any other input.
pub const MAX_SESSION_ID_BYTES: usize = 128;

/// Refuses an empty or over-long session id.
fn check_session_id(id: &str) -> Result<(), ServiceError> {
    if id.is_empty() {
        return Err(ServiceError::BadRequest("empty session id".into()));
    }
    if id.len() > MAX_SESSION_ID_BYTES {
        return Err(ServiceError::BadRequest(format!(
            "session id of {} bytes exceeds {MAX_SESSION_ID_BYTES}",
            id.len()
        )));
    }
    Ok(())
}

/// Stable per-session seed from the id.
fn session_seed(id: &str) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    id.hash(&mut h);
    h.finish()
}

/// Draws a random fleet secret from the OS entropy `RandomState` seeds
/// its hashers with (the build is std-only; this avoids a crypto dep
/// while still being unpredictable to the engine).
fn random_fleet_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::AuditConfig;
    use crate::cache::{M_CYCLE_MEMO_EVICTIONS, M_CYCLE_MEMO_HITS, M_CYCLE_MEMO_MISSES};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;
    use toppriv_core::TermSelection;
    use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
    use tsearch_lda::{LdaConfig, LdaTrainer};
    use tsearch_search::ScoringModel;
    use tsearch_text::Analyzer;

    const FLEET_SEED: u64 = 0xF1EE7;

    struct Stack {
        engine: Arc<SearchEngine>,
        model: Arc<LdaModel>,
        /// Distinct analyzed queries the vocabulary knows.
        queries: Vec<Vec<TermId>>,
    }

    fn stack(num_queries: usize) -> Stack {
        let corpus = SyntheticCorpus::generate(CorpusConfig {
            num_docs: 240,
            num_topics: 8,
            terms_per_topic: 50,
            ..CorpusConfig::default()
        });
        let docs = corpus.token_docs();
        let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
        let engine = Arc::new(SearchEngine::build(
            &docs,
            &texts,
            Analyzer::new(),
            corpus.vocab.clone(),
            ScoringModel::TfIdfCosine,
        ));
        let model = Arc::new(LdaTrainer::train(
            &docs,
            corpus.vocab.len(),
            LdaConfig {
                iterations: 20,
                ..LdaConfig::with_topics(8)
            },
        ));
        let config = WorkloadConfig {
            num_queries,
            ..WorkloadConfig::default()
        };
        let mut queries: Vec<Vec<TermId>> = generate_workload(&corpus, &config)
            .into_iter()
            .map(|q| q.tokens)
            .collect();
        queries.sort();
        queries.dedup();
        Stack {
            engine,
            model,
            queries,
        }
    }

    fn manager(stack: &Stack) -> SessionManager {
        SessionManager::new(stack.engine.clone(), stack.model.clone()).with_fleet_seed(FLEET_SEED)
    }

    fn memo_counts(manager: &SessionManager) -> (u64, u64) {
        let registry = manager.metrics_registry().registry();
        (
            registry.counter_total(M_CYCLE_MEMO_HITS),
            registry.counter_total(M_CYCLE_MEMO_MISSES),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn hit_bits(hits: &[SearchHit]) -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
    }

    /// Everything a formulation determines — all of a cycle but the wall
    /// time it took — with every float as its bit pattern.
    fn identity(report: &CycleResult, posteriors: &[Vec<f64>]) -> (String, Vec<Vec<u64>>) {
        let m = &report.metrics;
        let discrete = format!(
            "{:?}",
            (
                &report.cycle,
                report.genuine_index,
                &report.intention,
                &report.masking_topics,
                &report.ineffective_topics,
                report.satisfied,
                (m.num_relevant, m.best_intention_rank, m.cycle_len),
            )
        );
        let mut floats = vec![
            bits(&report.solo_boosts),
            bits(&report.cycle_boosts),
            vec![m.exposure.to_bits(), m.mask_level.to_bits()],
        ];
        floats.extend(posteriors.iter().map(|p| bits(p)));
        (discrete, floats)
    }

    fn formulated(manager: &SessionManager, id: &str, tokens: &[TermId]) -> FormulatedCycle {
        manager.formulate_cycle(id, tokens, 10).expect("formulates")
    }

    fn session_bits(m: &SessionMetrics) -> (u64, u64, Vec<u64>) {
        let floats = [
            m.mean_cycle_len,
            m.mean_exposure,
            m.worst_exposure,
            m.mean_mask_level,
            m.satisfied_rate,
            m.trace_exposure,
        ];
        (m.cycles, m.queries_emitted, bits(&floats))
    }

    #[test]
    fn a_manager_with_the_memo_answers_as_one_without() {
        let stack = stack(300);
        assert!(stack.queries.len() >= 200, "{}", stack.queries.len());
        let plain = manager(&stack);
        let cached = manager(&stack).with_cache(4096);
        let sessions = ["s0", "s1", "s2"];
        // Every session asks every query once, all in one shuffled order:
        // the first asker of a query misses, the other two are handed the
        // stored cycle.
        let mut asks: Vec<(&str, &Vec<TermId>)> = sessions
            .iter()
            .flat_map(|&s| stack.queries.iter().map(move |q| (s, q)))
            .collect();
        let mut rng = StdRng::seed_from_u64(17);
        for i in (1..asks.len()).rev() {
            asks.swap(i, rng.gen_range(0..=i));
        }
        for id in sessions {
            plain.open_session(id).unwrap();
            cached.open_session(id).unwrap();
        }
        for (id, tokens) in asks {
            let (a, b) = (
                formulated(&plain, id, tokens),
                formulated(&cached, id, tokens),
            );
            assert_eq!(
                identity(&a.report, &a.posteriors),
                identity(&b.report, &b.posteriors)
            );
            assert_eq!((a.k, a.model_epoch), (b.k, b.model_epoch));
            let a = plain.search_tokens(id, tokens, 10).unwrap();
            let b = cached.search_tokens(id, tokens, 10).unwrap();
            assert_eq!(hit_bits(&a.hits), hit_bits(&b.hits));
            assert_eq!(identity(&a.report, &[]), identity(&b.report, &[]));
        }
        for id in sessions {
            assert_eq!(
                session_bits(&plain.session_metrics(id).unwrap()),
                session_bits(&cached.session_metrics(id).unwrap()),
                "{id}"
            );
        }
        // Each ask formulated twice (once uncommitted, once searched): the
        // first of a query's six formulations missed.
        let queries = stack.queries.len() as u64;
        assert_eq!(memo_counts(&cached), (5 * queries, queries));
        assert_eq!(memo_counts(&plain), (0, 0), "no cache, no memo");
    }

    #[test]
    fn a_stored_cycle_is_only_handed_to_an_identical_formulation() {
        let stack = stack(4);
        let manager = manager(&stack).with_cache(4096);
        let q = stack
            .queries
            .iter()
            .find(|q| q.windows(2).any(|w| w[0] != w[1]))
            .expect("a query of two different terms");
        manager.open_session("a").unwrap();
        manager.open_session("b").unwrap();
        let first = formulated(&manager, "a", q);
        assert_eq!(memo_counts(&manager), (0, 1));
        let again = formulated(&manager, "b", q);
        assert_eq!(memo_counts(&manager), (1, 1), "same key: handed back");
        assert_eq!(
            first.report.metrics.generation_secs.to_bits(),
            again.report.metrics.generation_secs.to_bits(),
            "verbatim, the first measurement included"
        );

        // Anything the generator reads that differs is another key.
        type Change = fn(&mut SessionConfig);
        let others: [(&str, Change); 7] = [
            ("eps", |c| {
                c.requirement = PrivacyRequirement::new(0.08, 0.02).unwrap()
            }),
            ("min", |c| c.ghost.min_len_mult = 1.5),
            ("max", |c| c.ghost.max_len_mult = 3.0),
            ("cap", |c| c.ghost.max_cycle_len = 32),
            ("pool", |c| c.ghost.term_pool = 30),
            ("seed", |c| c.ghost.seed = 1),
            ("selection", |c| {
                c.ghost.term_selection = TermSelection::SpecificityMatched
            }),
        ];
        for (misses, (id, change)) in others.into_iter().enumerate() {
            let mut config = SessionConfig::default();
            change(&mut config);
            manager.open_session_with(id, config).unwrap();
            formulated(&manager, id, q);
            assert_eq!(memo_counts(&manager), (1, 2 + misses as u64), "{id}");
        }
        let (_, misses) = memo_counts(&manager);

        // The same bag in another order seeds another cycle.
        let mut reordered = q.clone();
        reordered.reverse();
        assert_ne!(&reordered, q);
        formulated(&manager, "b", &reordered);
        assert_eq!(memo_counts(&manager), (1, misses + 1));

        // A swapped model is another epoch, even when it is the same model.
        manager.swap_model(stack.model.clone());
        assert_eq!(manager.memo().unwrap().len(), 0, "a swap empties the memo");
        let after = formulated(&manager, "a", q);
        assert_eq!(memo_counts(&manager), (1, misses + 2));
        assert_eq!(
            identity(&after.report, &after.posteriors),
            identity(&first.report, &first.posteriors),
            "same model, same cycle — formulated again, not remembered"
        );
    }

    #[test]
    fn the_memo_is_bounded_and_evicts_the_least_recently_asked() {
        let stack = stack(60);
        let capacity = 4;
        let manager = manager(&stack).with_cache(capacity * RESULTS_PER_STORED_CYCLE);
        manager.open_session("a").unwrap();
        let queries = &stack.queries[..10 * capacity];
        for q in queries {
            formulated(&manager, "a", q);
        }
        let memo = manager.memo().unwrap();
        assert_eq!(memo.len(), capacity);
        let registry = manager.metrics_registry().registry();
        assert_eq!(
            registry.counter_total(M_CYCLE_MEMO_EVICTIONS),
            9 * capacity as u64
        );
        // Stored, oldest first: 36 37 38 39. Asking 36 makes 37 the oldest,
        // so a new query evicts 37 and 36 stays.
        formulated(&manager, "a", &queries[36]);
        assert_eq!(memo_counts(&manager), (1, 40));
        formulated(&manager, "a", &queries[0]);
        formulated(&manager, "a", &queries[36]);
        assert_eq!(
            memo_counts(&manager),
            (2, 41),
            "the refreshed cycle survived"
        );
        formulated(&manager, "a", &queries[37]);
        assert_eq!(memo_counts(&manager), (2, 42), "the oldest did not");
        assert_eq!(memo.len(), capacity);

        // Too small a cache to back one cycle: a memo that stores nothing.
        for capacity in [0, RESULTS_PER_STORED_CYCLE - 1] {
            let manager = self::manager(&stack).with_cache(capacity);
            manager.open_session("a").unwrap();
            formulated(&manager, "a", &queries[0]);
            formulated(&manager, "a", &queries[0]);
            assert_eq!(memo_counts(&manager), (0, 2));
            assert_eq!(manager.memo().unwrap().len(), 0);
        }
    }

    #[test]
    fn threads_asking_one_query_at_once_get_one_cycle() {
        let stack = stack(1);
        let q = &stack.queries[0];
        let plain = manager(&stack);
        plain.open_session("a").unwrap();
        let expected = formulated(&plain, "a", q);
        let expected = identity(&expected.report, &expected.posteriors);

        let manager = manager(&stack).with_cache(4096);
        let threads = 8;
        let barrier = Barrier::new(threads);
        let cycles: Vec<FormulatedCycle> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (manager, barrier) = (&manager, &barrier);
                    scope.spawn(move || {
                        let id = format!("t{t}");
                        manager.open_session(&id).unwrap();
                        barrier.wait();
                        formulated(manager, &id, q)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for fc in &cycles {
            assert_eq!(identity(&fc.report, &fc.posteriors), expected);
        }
        let (hits, misses) = memo_counts(&manager);
        assert_eq!(hits + misses, threads as u64);
        assert!(misses >= 1);
        assert_eq!(manager.memo().unwrap().len(), 1);
    }

    #[test]
    fn rewriting_a_formulated_cycle_leaves_the_stored_one_alone() {
        let stack = stack(1);
        let q = &stack.queries[0];
        let manager = manager(&stack).with_cache(4096);
        manager.open_session("a").unwrap();
        manager.open_session("b").unwrap();
        let mut fc = formulated(&manager, "a", q);
        let certified = identity(&fc.report, &fc.posteriors);
        // What `GhostPlanner::substitute_members` does to a member it
        // replaces with another tenant's submission.
        let ghost = (0..fc.report.cycle_len())
            .find(|&i| i != fc.report.genuine_index)
            .expect("a cycle with a ghost");
        fc.report.cycle[ghost].tokens = vec![0, 1, 2];
        fc.report.cycle[ghost].masking_topic = None;
        fc.posteriors[ghost].fill(0.125);
        fc.report.cycle_boosts.fill(0.0);
        fc.report.satisfied = !fc.report.satisfied;
        assert_ne!(identity(&fc.report, &fc.posteriors), certified);
        manager.commit_cycle(fc).unwrap();

        let next = formulated(&manager, "b", q);
        assert_eq!(memo_counts(&manager), (1, 1));
        assert_eq!(identity(&next.report, &next.posteriors), certified);
    }

    #[test]
    fn a_closed_tenant_leaves_no_series_behind() {
        let stack = stack(1);
        let q = &stack.queries[0];
        let manager = manager(&stack)
            .with_cache(64)
            .with_auditor(AuditConfig::default());
        let registry = manager.metrics_registry().registry().clone();
        // One tenant through the whole path first, so every series that is
        // not a tenant's own exists before the count is taken.
        manager.open_session("warm-up").unwrap();
        manager.search_tokens("warm-up", q, 10).unwrap();
        manager.close_session("warm-up").unwrap();
        let series = registry.len();
        for tenant in 0..1000 {
            let id = format!("tenant-{tenant}");
            manager.open_session(&id).unwrap();
            manager.search_tokens(&id, q, 10).unwrap();
            assert_eq!(registry.len(), series + 4, "{id}: its four gauges, live");
            manager.close_session(&id).unwrap();
        }
        assert_eq!(registry.len(), series);
        assert_eq!(manager.auditor().unwrap().health().tenants, 0);

        // The same id again: new gauges that start from this session, not
        // readings left by the last one.
        manager.open_session("tenant-7").unwrap();
        let labels = [("tenant", "tenant-7")];
        let gauge = |name| registry.gauge(name, &labels).get();
        manager.search_tokens("tenant-7", q, 10).unwrap();
        let after_one = gauge(crate::auditor::M_TENANT_TRACE_EXPOSURE);
        let metrics = manager.session_metrics("tenant-7").unwrap();
        assert_eq!(after_one, crate::auditor::to_micro(metrics.trace_exposure));
        assert_eq!(metrics.cycles, 1);
        assert_eq!(registry.len(), series + 4);
    }

    #[test]
    fn a_request_that_loses_the_race_with_close_is_unknown_session() {
        let stack = stack(1);
        let q = &stack.queries[0];
        let manager = manager(&stack)
            .with_cache(64)
            .with_auditor(AuditConfig::default());
        let registry = manager.metrics_registry().registry().clone();
        manager.open_session("warm-up").unwrap();
        manager.search_tokens("warm-up", q, 10).unwrap();
        manager.close_session("warm-up").unwrap();
        let series = registry.len();

        // The interleaving, forced: each request has looked its session
        // up, as `search_tokens` and `commit_cycle` do first, when the
        // close runs to completion; then the requests carry on.
        manager.open_session("late").unwrap();
        let fc = formulated(&manager, "late", q);
        let handle = manager.session("late").unwrap();
        manager.close_session("late").unwrap();
        let unknown = Err(ServiceError::UnknownSession("late".to_string()));
        assert_eq!(
            manager.search_in("late", &handle, q, 10).map(|_| ()),
            unknown
        );
        assert_eq!(manager.commit_in(&handle, fc).map(|_| ()), unknown);
        assert_eq!(
            SessionManager::lock_open("late", &handle).map(|_| ()),
            unknown,
            "what formulate_cycle and rollback_cycle lock through"
        );

        assert_eq!(registry.len(), series);
        assert_eq!(manager.auditor().unwrap().health().tenants, 0);
    }
}
