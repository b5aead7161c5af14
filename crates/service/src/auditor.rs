//! The online privacy auditor: continuous per-tenant (ε1, ε2) monitoring.
//!
//! PR 7 proved the paper's Definition-4 fleet invariant —
//! `min(exposure − mask_level, exposure − ε2) ≤ 0` — inside the offline
//! scenario harness. [`PrivacyAuditor`] turns that into a permanent
//! runtime check that runs alongside serving, the privacy-system
//! analogue of continuous SLO monitoring:
//!
//! - **register** — [`crate::SessionManager::commit_cycle`] registers
//!   every committed cycle's privacy facts (exposure, mask level, ε2,
//!   trace exposure) as a pending fact while the session lock is held,
//!   and credits the tenant: the per-tenant gauges
//!   (`tenant_worst_exposure`, `tenant_trace_exposure`,
//!   `tenant_budget_headroom = ε2 − trace_exposure`) plus the budget
//!   **burn-rate** estimate (`tenant_burn_cycles`: cycles until ε2
//!   exhaustion at the current trace-exposure slope);
//! - **audit** — the [`crate::CycleScheduler`] drain workers call
//!   [`PrivacyAuditor::on_outcome`] for every drained submission; the
//!   first call for a pending fact evaluates its fleet invariant, and a
//!   breach (or a near-breach, when headroom drops under a quarter of
//!   ε2) is journaled as an [`AuditEvent`] **exactly once** per cycle, no
//!   matter how many workers race on its submissions. The synchronous
//!   search path has no drain to wait for: [`PrivacyAuditor::observe_cycle`]
//!   credits the tenant and runs the same evaluation in place, and never
//!   holds a pending fact;
//! - **spill** — once per drain the journal is optionally spilled to a
//!   CRC-sealed `tsearch-store` container (the PR-7 persist codec, kind
//!   [`tsearch_store::kind::AUDIT_JOURNAL`]) so audits survive restarts;
//! - **read out** — [`PrivacyAuditor::health`] aggregates the verdict a
//!   `Health` protocol op, a `toppriv-serve --audit-interval` tick, or a
//!   scenario's closing invariant consumes; [`PrivacyAuditor::tail`]
//!   serves `AuditTail`.
//!
//! Chaos tests and the `audit` bench experiment rig a breach by calling
//! [`PrivacyAuditor::register_cycle`] again for an already-planned cycle
//! with hand-made [`PrivacyMetrics`] (a mask schedule that cannot cover
//! the exposure): re-registration overwrites the pending fact, so an ε2
//! breach is provably surfaced within one drain without building a
//! deliberately broken ghost generator.

use crate::fault::{FaultKind, FaultPlane};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use toppriv_core::PrivacyMetrics;
use toppriv_obs::{
    recover_lock, AuditEvent, AuditLog, AuditSeverity, Counter, HealthReport, MetricsRegistry,
};

/// Metric name: per-tenant worst single-cycle exposure (micro-units).
pub const M_TENANT_WORST_EXPOSURE: &str = "tenant_worst_exposure";
/// Metric name: per-tenant Equation-2 trace exposure (micro-units).
pub const M_TENANT_TRACE_EXPOSURE: &str = "tenant_trace_exposure";
/// Metric name: per-tenant budget headroom `ε2 − trace_exposure`
/// (micro-units; negative means the session budget is exhausted).
pub const M_TENANT_HEADROOM: &str = "tenant_budget_headroom";
/// Metric name: per-tenant cycles until ε2 exhaustion at the current
/// trace-exposure slope (−1 when the tenant is not burning budget).
pub const M_TENANT_BURN_CYCLES: &str = "tenant_burn_cycles";
/// Metric name: audit events journaled, labelled by `severity`.
pub const M_AUDIT_EVENTS: &str = "audit_events_total";
/// Metric name: cycles whose fleet invariant has been evaluated.
pub const M_AUDIT_CYCLES: &str = "audit_cycles_total";
/// Metric name: journal spills sealed to disk.
pub const M_AUDIT_SPILLS: &str = "audit_spills_total";

/// Events the ring journal retains.
const JOURNAL_CAPACITY: usize = 1024;
/// Near-breach threshold as a fraction of ε2: a `low_headroom` warning
/// is journaled when `0 ≤ headroom < fraction × ε2`.
const NEAR_BREACH_FRACTION: f64 = 0.25;
/// Float tolerance on the fleet-invariant evaluation (matches the
/// scenario harness).
const TOLERANCE: f64 = 1e-9;

/// Fixed-point scale for float-valued gauges: the registry's [`toppriv_obs::Gauge`]
/// is an `i64`, so exposures and headrooms are published in micro-units
/// (`value × 1e6`, rounded).
pub const GAUGE_MICRO: f64 = 1e6;

/// Publishes `v` in micro-units, the fixed-point encoding every
/// `tenant_*` gauge uses.
pub fn to_micro(v: f64) -> i64 {
    (v * GAUGE_MICRO).round() as i64
}

/// Where and how often the auditor spills its journal.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Spill the journal after this many audited cycles (0 disables
    /// periodic spills; explicit [`PrivacyAuditor::spill_now`] always
    /// works).
    pub spill_every_cycles: u64,
    /// Where periodic spills land (sealed container bytes). `None`
    /// disables periodic spills even when `spill_every_cycles > 0`.
    pub spill_path: Option<PathBuf>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            spill_every_cycles: 256,
            spill_path: None,
        }
    }
}

/// Per-tenant accounting the auditor maintains across cycles.
#[derive(Debug)]
struct TenantAudit {
    eps2: f64,
    cycles: u64,
    worst_exposure: f64,
    trace_exposure: f64,
    /// EMA of the per-cycle trace-exposure delta (the burn slope).
    burn_slope: f64,
    breaches: u64,
    gauge_worst: toppriv_obs::Gauge,
    gauge_trace: toppriv_obs::Gauge,
    gauge_headroom: toppriv_obs::Gauge,
    gauge_burn: toppriv_obs::Gauge,
}

impl TenantAudit {
    fn headroom(&self) -> f64 {
        self.eps2 - self.trace_exposure
    }

    /// Cycles until ε2 exhaustion at the current slope (−1 when not
    /// burning or already exhausted with no slope).
    fn burn_cycles(&self) -> i64 {
        if self.burn_slope <= 1e-12 {
            return -1;
        }
        let h = self.headroom();
        if h <= 0.0 {
            return 0;
        }
        (h / self.burn_slope).ceil().min(i64::MAX as f64) as i64
    }
}

/// Privacy facts of one committed cycle.
#[derive(Debug, Clone)]
struct CycleFact {
    exposure: f64,
    mask_level: f64,
    eps2: f64,
    trace_exposure: f64,
    /// Set by the first drain worker that evaluates a pending fact, so
    /// the breach / near-breach event is emitted exactly once per cycle.
    audited: bool,
}

impl CycleFact {
    fn new(metrics: &PrivacyMetrics, eps2: f64, trace_exposure: f64) -> Self {
        CycleFact {
            exposure: metrics.exposure,
            mask_level: metrics.mask_level,
            eps2,
            trace_exposure,
            audited: false,
        }
    }
}

/// Burn-slope EMA smoothing factor.
const BURN_EMA_ALPHA: f64 = 0.3;

/// The continuous privacy auditor (see the module docs for the
/// register → audit → spill → read-out lifecycle).
pub struct PrivacyAuditor {
    registry: Arc<MetricsRegistry>,
    config: AuditConfig,
    log: AuditLog,
    /// session → accumulated accounting.
    tenants: Mutex<HashMap<String, TenantAudit>>,
    /// session → cycle id → registered facts awaiting audit. The outer
    /// key is the session so the drain hot path looks up by `&str`
    /// without allocating a composite key.
    pending: Mutex<HashMap<String, HashMap<usize, CycleFact>>>,
    cycles_audited: AtomicU64,
    /// [`M_AUDIT_CYCLES`], fetched once: it is bumped on every audited
    /// cycle, one per wire `Search`.
    audit_cycles: Counter,
    cycles_at_last_spill: AtomicU64,
    /// The deterministic fault plane, when attached: journal spills
    /// consult its `StoreWrite` schedule before touching disk.
    fault: Mutex<Option<Arc<FaultPlane>>>,
}

impl PrivacyAuditor {
    /// An auditor publishing into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>, config: AuditConfig) -> Self {
        PrivacyAuditor {
            audit_cycles: registry.counter(M_AUDIT_CYCLES, &[]),
            registry,
            config,
            log: AuditLog::new(JOURNAL_CAPACITY),
            tenants: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            cycles_audited: AtomicU64::new(0),
            cycles_at_last_spill: AtomicU64::new(0),
            fault: Mutex::new(None),
        }
    }

    /// Attaches a deterministic [`FaultPlane`]: journal spills draw
    /// `StoreWrite` faults from it (keyed by the spill path), failing
    /// before any bytes reach disk. Wired up automatically by
    /// [`crate::SessionManager::with_fault_plane`].
    pub fn attach_fault_plane(&self, plane: Arc<FaultPlane>) {
        *recover_lock(&self.fault) = Some(plane);
    }

    /// The ring journal (for `AuditTail` and the spill codec).
    pub fn log(&self) -> &AuditLog {
        &self.log
    }

    /// The most recent `limit` journal events, oldest first.
    pub fn tail(&self, limit: usize) -> Vec<AuditEvent> {
        self.log.tail(limit)
    }

    /// Cycles whose fleet invariant has been evaluated.
    pub fn cycles_audited(&self) -> u64 {
        self.cycles_audited.load(Ordering::Relaxed)
    }

    /// Registers one committed cycle's privacy facts and credits the
    /// tenant. Called by the session manager at commit time (while it
    /// still holds the ground truth); the facts wait in the pending set
    /// until a drain worker audits them. Registering a cycle id again
    /// overwrites its pending fact.
    pub fn register_cycle(
        &self,
        session: &str,
        cycle_id: usize,
        metrics: &PrivacyMetrics,
        eps2: f64,
        trace_exposure: f64,
        worst_exposure: f64,
    ) {
        recover_lock(&self.pending)
            .entry(session.to_string())
            .or_default()
            .insert(cycle_id, CycleFact::new(metrics, eps2, trace_exposure));
        self.credit(session, eps2, trace_exposure, worst_exposure);
    }

    /// Credits **and immediately audits** one cycle — the synchronous
    /// search path resolves its cycle inline, so there is no later drain
    /// to call [`PrivacyAuditor::on_outcome`]. Nothing is registered:
    /// the fact is evaluated in place, and `cycle_id` only labels the
    /// events it journals.
    pub fn observe_cycle(
        &self,
        session: &str,
        cycle_id: usize,
        metrics: &PrivacyMetrics,
        eps2: f64,
        trace_exposure: f64,
        worst_exposure: f64,
    ) {
        self.credit(session, eps2, trace_exposure, worst_exposure);
        self.audit(
            session,
            cycle_id,
            &CycleFact::new(metrics, eps2, trace_exposure),
        );
    }

    /// Counts one cycle against the tenant's accounting and refreshes its
    /// gauges and burn estimate.
    fn credit(&self, session: &str, eps2: f64, trace_exposure: f64, worst_exposure: f64) {
        let mut tenants = recover_lock(&self.tenants);
        let tenant = tenants.entry(session.to_string()).or_insert_with(|| {
            let labels = [("tenant", session)];
            TenantAudit {
                eps2,
                cycles: 0,
                worst_exposure: 0.0,
                trace_exposure: 0.0,
                burn_slope: 0.0,
                breaches: 0,
                gauge_worst: self.registry.gauge(M_TENANT_WORST_EXPOSURE, &labels),
                gauge_trace: self.registry.gauge(M_TENANT_TRACE_EXPOSURE, &labels),
                gauge_headroom: self.registry.gauge(M_TENANT_HEADROOM, &labels),
                gauge_burn: self.registry.gauge(M_TENANT_BURN_CYCLES, &labels),
            }
        });
        tenant.eps2 = eps2;
        tenant.cycles += 1;
        let delta = (trace_exposure - tenant.trace_exposure).max(0.0);
        tenant.burn_slope = if tenant.cycles == 1 {
            delta
        } else {
            BURN_EMA_ALPHA * delta + (1.0 - BURN_EMA_ALPHA) * tenant.burn_slope
        };
        tenant.trace_exposure = trace_exposure;
        tenant.worst_exposure = worst_exposure.max(tenant.worst_exposure);
        tenant.gauge_worst.set(to_micro(tenant.worst_exposure));
        tenant.gauge_trace.set(to_micro(tenant.trace_exposure));
        tenant.gauge_headroom.set(to_micro(tenant.headroom()));
        tenant.gauge_burn.set(tenant.burn_cycles());
    }

    /// Releases a rolled-back cycle's pending fact and rebinds the
    /// tenant's accounting to the post-rollback session metrics. The
    /// fact is removed outright — **not** reset — so its exactly-once
    /// audit flag survives the rollback: a breach already journaled for
    /// the cycle stays journaled exactly once, and a replanned
    /// incarnation registers a *new* fact under a *new* cycle id. The
    /// release itself is journaled as an `Info` `cycle_rolled_back`
    /// event.
    pub fn release_cycle(
        &self,
        session: &str,
        cycle_id: usize,
        trace_exposure: f64,
        worst_exposure: f64,
    ) {
        {
            let mut pending = recover_lock(&self.pending);
            if let Some(by_cycle) = pending.get_mut(session) {
                by_cycle.remove(&cycle_id);
                if by_cycle.is_empty() {
                    pending.remove(session);
                }
            }
        }
        {
            let mut tenants = recover_lock(&self.tenants);
            if let Some(t) = tenants.get_mut(session) {
                t.cycles = t.cycles.saturating_sub(1);
                t.trace_exposure = trace_exposure;
                t.worst_exposure = worst_exposure;
                t.gauge_worst.set(to_micro(t.worst_exposure));
                t.gauge_trace.set(to_micro(t.trace_exposure));
                t.gauge_headroom.set(to_micro(t.headroom()));
                t.gauge_burn.set(t.burn_cycles());
            }
        }
        self.emit(
            AuditSeverity::Info,
            "cycle_rolled_back",
            session,
            cycle_id as u64,
            format!(
                "cycle {cycle_id} rolled back: trace debits reversed bit-exactly \
                 (trace exposure now {trace_exposure:.6})"
            ),
        );
    }

    /// Journals one scheduler-plane event (`degraded_drain`) through the
    /// same exactly-once-free emit path as the invariant events.
    /// Scheduler-internal.
    pub(crate) fn note(
        &self,
        severity: AuditSeverity,
        code: &str,
        tenant: &str,
        cycle: usize,
        detail: String,
    ) {
        self.emit(severity, code, tenant, cycle as u64, detail);
    }

    /// Audits one drained submission: the **first** submission of a
    /// registered cycle to arrive has the cycle's fact evaluated (see
    /// `audit`); later ones, and a submission with no registered fact
    /// (already pruned, or planned before the auditor was attached), are
    /// a cheap no-op.
    pub fn on_outcome(&self, session: &str, cycle_id: usize) {
        let fact = {
            let mut pending = recover_lock(&self.pending);
            let Some(fact) = pending.get_mut(session).and_then(|m| m.get_mut(&cycle_id)) else {
                return;
            };
            if fact.audited {
                return;
            }
            fact.audited = true;
            fact.clone()
        };
        self.audit(session, cycle_id, &fact);
    }

    /// The one evaluation of the fleet invariant `min(exposure −
    /// mask_level, exposure − ε2) ≤ 0` for one cycle: counts the cycle
    /// audited and journals a breach (bumping the tenant's breaches) or a
    /// near-breach event.
    fn audit(&self, session: &str, cycle_id: usize, fact: &CycleFact) {
        self.cycles_audited.fetch_add(1, Ordering::Relaxed);
        self.audit_cycles.inc();
        let violation = (fact.exposure - fact.mask_level).min(fact.exposure - fact.eps2);
        debug_assert!(violation.is_finite());
        if violation > TOLERANCE {
            if let Some(t) = recover_lock(&self.tenants).get_mut(session) {
                t.breaches += 1;
            }
            self.emit(
                AuditSeverity::Breach,
                "eps2_breach",
                session,
                cycle_id as u64,
                format!(
                    "fleet invariant violated by {violation:.3e}: exposure {:.4} above both \
                     mask level {:.4} and ε2 {:.4}",
                    fact.exposure, fact.mask_level, fact.eps2
                ),
            );
            return;
        }
        let headroom = fact.eps2 - fact.trace_exposure;
        if headroom < NEAR_BREACH_FRACTION * fact.eps2 {
            self.emit(
                AuditSeverity::Warning,
                "low_headroom",
                session,
                cycle_id as u64,
                format!(
                    "budget headroom {headroom:.3e} below {:.0}% of ε2 {:.4} \
                     (trace exposure {:.4})",
                    NEAR_BREACH_FRACTION * 100.0,
                    fact.eps2,
                    fact.trace_exposure
                ),
            );
        }
    }

    /// Drain epilogue: prunes audited facts (called once per drain by
    /// the scheduler, so the pending set stays bounded by in-flight
    /// cycles) and performs a periodic journal spill when due.
    pub fn finish_drain(&self) {
        {
            let mut pending = recover_lock(&self.pending);
            for by_cycle in pending.values_mut() {
                by_cycle.retain(|_, fact| !fact.audited);
            }
            pending.retain(|_, by_cycle| !by_cycle.is_empty());
        }
        let audited = self.cycles_audited();
        if self.config.spill_every_cycles == 0 || self.config.spill_path.is_none() {
            return;
        }
        let last = self.cycles_at_last_spill.load(Ordering::Relaxed);
        if audited.saturating_sub(last) >= self.config.spill_every_cycles
            && self
                .cycles_at_last_spill
                .compare_exchange(last, audited, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            if let Err(e) = self.spill_now() {
                self.emit(
                    AuditSeverity::Warning,
                    "spill_failed",
                    "",
                    0,
                    format!("journal spill failed: {e}"),
                );
            }
        }
    }

    /// Seals the current journal into a CRC-checked container (kind
    /// [`tsearch_store::kind::AUDIT_JOURNAL`]).
    pub fn seal_journal(&self) -> Vec<u8> {
        crate::persist::seal_audit_journal(&self.log.events())
    }

    /// Spills the sealed journal to the configured path (errors when no
    /// path is configured) and journals the spill itself.
    pub fn spill_now(&self) -> std::io::Result<PathBuf> {
        let path = self.config.spill_path.clone().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no spill path configured")
        })?;
        // Injection point *before* any bytes move: a scheduled
        // `StoreWrite` fault fails the spill like a full disk would,
        // leaving the previous container untouched; the caller's
        // `spill_failed` warning path and the next periodic spill take
        // over from there.
        let plane = recover_lock(&self.fault).clone();
        if let Some(plane) = plane {
            let key = FaultPlane::key_of(path.as_os_str().as_encoded_bytes());
            if let Some(err) = plane.io_error(FaultKind::StoreWrite, key) {
                return Err(err);
            }
        }
        let sealed = self.seal_journal();
        std::fs::write(&path, &sealed)?;
        self.registry.counter(M_AUDIT_SPILLS, &[]).inc();
        self.emit(
            AuditSeverity::Info,
            "journal_spill",
            "",
            0,
            format!(
                "{} event(s) sealed to {} ({} bytes)",
                self.log.events().len(),
                path.display(),
                sealed.len()
            ),
        );
        Ok(path)
    }

    /// Drops a departing tenant from the live accounting (its journal
    /// events remain) and removes its four `tenant_*` gauges from the
    /// registry: a tenant id is chosen by the client, so a series that
    /// outlived its session would grow the registry, and every scrape,
    /// by one tenant's worth per id ever seen. A tenant that opens the
    /// same id again starts fresh gauges.
    pub fn forget_session(&self, session: &str) {
        recover_lock(&self.pending).remove(session);
        if recover_lock(&self.tenants).remove(session).is_some() {
            let labels = [("tenant", session)];
            for name in [
                M_TENANT_WORST_EXPOSURE,
                M_TENANT_TRACE_EXPOSURE,
                M_TENANT_HEADROOM,
                M_TENANT_BURN_CYCLES,
            ] {
                self.registry.remove(name, &labels);
            }
        }
    }

    /// The aggregated audit-plane verdict.
    pub fn health(&self) -> HealthReport {
        let tenants = recover_lock(&self.tenants);
        let mut worst_headroom = f64::MAX;
        let mut burn_min = i64::MAX;
        for t in tenants.values() {
            worst_headroom = worst_headroom.min(t.headroom());
            let b = t.burn_cycles();
            if b >= 0 {
                burn_min = burn_min.min(b);
            }
        }
        let breaches = self.log.breaches();
        HealthReport {
            healthy: breaches == 0,
            tenants: tenants.len(),
            cycles_audited: self.cycles_audited(),
            breaches,
            warnings: self.log.warnings(),
            worst_headroom: if tenants.is_empty() {
                0.0
            } else {
                worst_headroom
            },
            burn_cycles_min: if burn_min == i64::MAX { -1 } else { burn_min },
            detail: format!(
                "{} tenant(s), {} cycle(s) audited, {} breach(es), {} warning(s)",
                tenants.len(),
                self.cycles_audited(),
                breaches,
                self.log.warnings()
            ),
        }
    }

    fn emit(&self, severity: AuditSeverity, code: &str, tenant: &str, cycle: u64, detail: String) {
        let label = match severity {
            AuditSeverity::Info => "info",
            AuditSeverity::Warning => "warning",
            AuditSeverity::Breach => "breach",
        };
        self.registry
            .counter(M_AUDIT_EVENTS, &[("severity", label)])
            .inc();
        self.log.push(severity, code, tenant, cycle, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(exposure: f64, mask_level: f64) -> PrivacyMetrics {
        PrivacyMetrics {
            exposure,
            mask_level,
            num_relevant: 1,
            best_intention_rank: 0,
            cycle_len: 4,
            generation_secs: 0.0,
        }
    }

    fn auditor() -> PrivacyAuditor {
        PrivacyAuditor::new(Arc::new(MetricsRegistry::new()), AuditConfig::default())
    }

    #[test]
    fn masked_cycle_audits_clean() {
        let a = auditor();
        a.register_cycle("t", 0, &metrics(0.02, 0.05), 0.01, 0.001, 0.02);
        a.on_outcome("t", 0);
        a.on_outcome("t", 0);
        assert_eq!(a.cycles_audited(), 1, "first evaluator only");
        assert_eq!(a.log().breaches(), 0);
        assert!(a.health().healthy);
        assert!((a.health().worst_headroom - 0.009).abs() < 1e-12);
    }

    #[test]
    fn breach_emits_exactly_one_event() {
        let a = auditor();
        a.register_cycle("t", 3, &metrics(0.5, 0.0), 0.01, 0.5, 0.5);
        for _ in 0..8 {
            a.on_outcome("t", 3);
        }
        assert_eq!(a.log().breaches(), 1);
        let h = a.health();
        assert!(!h.healthy);
        assert_eq!(h.breaches, 1);
        assert_eq!(
            a.registry.counter_total(M_AUDIT_EVENTS),
            1,
            "counter matches journal"
        );
    }

    #[test]
    fn negligible_exposure_is_not_a_breach() {
        // Satisfied cycle: exposure above the decoys but under ε2.
        let a = auditor();
        a.register_cycle("t", 0, &metrics(0.005, 0.001), 0.01, 0.002, 0.005);
        a.on_outcome("t", 0);
        assert_eq!(a.log().breaches(), 0);
    }

    #[test]
    fn low_headroom_warns_once() {
        let a = auditor();
        // headroom 0.01 − 0.009 = 0.001 < 0.25 × 0.01.
        a.register_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.009, 0.002);
        a.on_outcome("t", 0);
        a.on_outcome("t", 0);
        assert_eq!(a.log().warnings(), 1);
        assert_eq!(a.log().breaches(), 0);
        assert!(a.health().healthy, "warnings do not degrade health");
    }

    #[test]
    fn rigged_cycle_breaches_within_one_audit() {
        let a = auditor();
        a.register_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        a.register_cycle("t", 0, &metrics(0.5, 0.0), 0.01, 0.5, 0.5);
        a.on_outcome("t", 0);
        assert_eq!(a.log().breaches(), 1);
    }

    #[test]
    fn gauges_publish_micro_units() {
        let a = auditor();
        a.register_cycle("alice", 0, &metrics(0.004, 0.05), 0.01, 0.0025, 0.004);
        let g = a.registry.gauge(M_TENANT_HEADROOM, &[("tenant", "alice")]);
        assert_eq!(g.get(), to_micro(0.01 - 0.0025));
        assert_eq!(
            a.registry
                .gauge(M_TENANT_WORST_EXPOSURE, &[("tenant", "alice")])
                .get(),
            to_micro(0.004)
        );
        let series = a.registry.len();
        a.forget_session("alice");
        assert_eq!(
            a.registry.len(),
            series - 4,
            "a departing tenant takes its four gauges with it"
        );
        assert_eq!(a.health().tenants, 0);
        // The same id again starts from fresh series, not the old readings.
        a.register_cycle("alice", 0, &metrics(0.001, 0.05), 0.01, 0.0005, 0.001);
        assert_eq!(a.registry.len(), series);
        assert_eq!(
            a.registry
                .gauge(M_TENANT_WORST_EXPOSURE, &[("tenant", "alice")])
                .get(),
            to_micro(0.001),
            "worst exposure restarts; the old 0.004 is gone"
        );
    }

    #[test]
    fn burn_rate_estimates_cycles_to_exhaustion() {
        let a = auditor();
        // Trace exposure climbs 0.001 per cycle toward ε2 = 0.01.
        a.register_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        a.register_cycle("t", 1, &metrics(0.002, 0.05), 0.01, 0.002, 0.002);
        a.register_cycle("t", 2, &metrics(0.002, 0.05), 0.01, 0.003, 0.002);
        let h = a.health();
        assert!(
            h.burn_cycles_min > 0,
            "a climbing trace exposure must yield a finite burn estimate, got {}",
            h.burn_cycles_min
        );
        // Flat trace exposure decays the slope toward no-burn.
        let b = auditor();
        b.register_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        b.register_cycle("t", 1, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        let hb = b.health();
        assert!(hb.burn_cycles_min == -1 || hb.burn_cycles_min > h.burn_cycles_min);
    }

    #[test]
    fn finish_drain_prunes_audited_facts() {
        let a = auditor();
        a.register_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        a.on_outcome("t", 0);
        a.finish_drain();
        a.on_outcome("t", 0); // pruned: no-op, not a re-audit
        assert_eq!(a.cycles_audited(), 1);
        assert!(recover_lock(&a.pending).is_empty());
    }
}
