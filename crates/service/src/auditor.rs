//! The online privacy auditor: continuous per-tenant (ε1, ε2) monitoring.
//!
//! The paper's Definition-4 fleet invariant is
//! `min(exposure − mask_level, exposure − ε2) ≤ 0` for every cycle.
//! [`PrivacyAuditor`] makes that a permanent runtime check that runs
//! alongside serving, the privacy-system analogue of continuous SLO
//! monitoring:
//!
//! - **audit** — a cycle's privacy facts (exposure, mask level, ε2,
//!   trace exposure) are fixed when it is committed, so the session
//!   manager's one commit step, wire search and planned cycle alike,
//!   calls [`PrivacyAuditor::audit_cycle`] once per cycle while the
//!   session lock is held. It credits the tenant — the per-tenant gauges
//!   (`tenant_worst_exposure`, `tenant_trace_exposure`,
//!   `tenant_budget_headroom = ε2 − trace_exposure`) plus the budget
//!   **burn-rate** estimate (`tenant_burn_cycles`: cycles until ε2
//!   exhaustion at the current trace-exposure slope) — and evaluates the
//!   cycle's fleet invariant in place: a breach (or a near-breach, when
//!   headroom drops under a quarter of ε2) is journaled as an
//!   [`AuditEvent`] then and there, once, before any member is resolved.
//!   Each fact is held once: the count of cycles audited is the
//!   `audit_cycles_total` counter, and a tenant's worst exposure is the
//!   session's own running maximum, handed in and published as it is;
//! - **spill** — once per drain the journal is optionally spilled to a
//!   CRC-sealed `tsearch-store` container (the PR-7 persist codec, kind
//!   [`tsearch_store::kind::AUDIT_JOURNAL`]) so audits survive restarts;
//! - **read out** — [`PrivacyAuditor::health`] aggregates the verdict a
//!   `Health` protocol op, a `toppriv-serve --audit-interval` tick, or the
//!   fleet simulation's per-step comparison consumes; [`PrivacyAuditor::tail`]
//!   serves `AuditTail`.
//!
//! Chaos tests and the `audit` bench experiment rig a breach by calling
//! [`PrivacyAuditor::audit_cycle`] again for an already-planned cycle
//! with hand-made [`PrivacyMetrics`] (a mask schedule that cannot cover
//! the exposure): the breach is journaled at the call, and the drain
//! that delivers the cycle audits nothing again — without building a
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
/// Float tolerance on the fleet-invariant evaluation (the fleet
/// simulation's reference model uses the same).
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

/// Per-tenant accounting the auditor maintains across cycles: what the
/// headroom and burn estimates need.
#[derive(Debug)]
struct TenantAudit {
    eps2: f64,
    cycles: u64,
    trace_exposure: f64,
    /// EMA of the per-cycle trace-exposure delta (the burn slope).
    burn_slope: f64,
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

/// Burn-slope EMA smoothing factor.
const BURN_EMA_ALPHA: f64 = 0.3;

/// The continuous privacy auditor (see the module docs for the
/// audit → spill → read-out lifecycle).
pub struct PrivacyAuditor {
    registry: Arc<MetricsRegistry>,
    config: AuditConfig,
    log: AuditLog,
    /// session → accumulated accounting.
    tenants: Mutex<HashMap<String, TenantAudit>>,
    /// [`M_AUDIT_CYCLES`], fetched once: it is bumped on every committed
    /// cycle, one per wire `Search`, and is the one count of them.
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
        self.audit_cycles.get()
    }

    /// Credits the tenant with one committed cycle and evaluates the
    /// cycle's fleet invariant `min(exposure − mask_level, exposure − ε2)
    /// ≤ 0` in place: counts the cycle audited and journals a breach or a
    /// near-breach event, labelled with `cycle_id`. `worst_exposure` is
    /// the session's running maximum, published as it is. Called by the
    /// session manager's commit step, once per cycle; every call is one
    /// evaluation.
    pub fn audit_cycle(
        &self,
        session: &str,
        cycle_id: usize,
        metrics: &PrivacyMetrics,
        eps2: f64,
        trace_exposure: f64,
        worst_exposure: f64,
    ) {
        self.credit(session, eps2, trace_exposure, worst_exposure);
        self.audit_cycles.inc();
        let exposure = metrics.exposure;
        let violation = (exposure - metrics.mask_level).min(exposure - eps2);
        debug_assert!(violation.is_finite());
        if violation > TOLERANCE {
            self.emit(
                AuditSeverity::Breach,
                "eps2_breach",
                session,
                cycle_id as u64,
                format!(
                    "fleet invariant violated by {violation:.3e}: exposure {exposure:.4} above \
                     both mask level {:.4} and ε2 {eps2:.4}",
                    metrics.mask_level
                ),
            );
            return;
        }
        let headroom = eps2 - trace_exposure;
        if headroom < NEAR_BREACH_FRACTION * eps2 {
            self.emit(
                AuditSeverity::Warning,
                "low_headroom",
                session,
                cycle_id as u64,
                format!(
                    "budget headroom {headroom:.3e} below {:.0}% of ε2 {eps2:.4} \
                     (trace exposure {trace_exposure:.4})",
                    NEAR_BREACH_FRACTION * 100.0,
                ),
            );
        }
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
                trace_exposure: 0.0,
                burn_slope: 0.0,
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
        tenant.gauge_worst.set(to_micro(worst_exposure));
        tenant.gauge_trace.set(to_micro(tenant.trace_exposure));
        tenant.gauge_headroom.set(to_micro(tenant.headroom()));
        tenant.gauge_burn.set(tenant.burn_cycles());
    }

    /// Rebinds the tenant's accounting to the post-rollback session
    /// metrics after a cycle was rolled back. The verdict passed on the
    /// cycle at commit stands: a breach already journaled for it stays
    /// journaled once, and a replanned incarnation is audited afresh
    /// under a *new* cycle id. The release itself is journaled as an
    /// `Info` `cycle_rolled_back` event.
    pub fn release_cycle(
        &self,
        session: &str,
        cycle_id: usize,
        trace_exposure: f64,
        worst_exposure: f64,
    ) {
        if let Some(t) = recover_lock(&self.tenants).get_mut(session) {
            t.cycles = t.cycles.saturating_sub(1);
            t.trace_exposure = trace_exposure;
            t.gauge_worst.set(to_micro(worst_exposure));
            t.gauge_trace.set(to_micro(t.trace_exposure));
            t.gauge_headroom.set(to_micro(t.headroom()));
            t.gauge_burn.set(t.burn_cycles());
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
    /// same emit path as the invariant events.
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

    /// Drain epilogue (called once per drain by the scheduler): performs
    /// a periodic journal spill when due.
    pub fn finish_drain(&self) {
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
        a.audit_cycle("t", 0, &metrics(0.02, 0.05), 0.01, 0.001, 0.02);
        assert_eq!(a.cycles_audited(), 1);
        assert_eq!(a.log().breaches(), 0);
        assert!(a.health().healthy);
        assert!((a.health().worst_headroom - 0.009).abs() < 1e-12);
    }

    #[test]
    fn breach_emits_exactly_one_event() {
        let a = auditor();
        a.audit_cycle("t", 3, &metrics(0.5, 0.0), 0.01, 0.5, 0.5);
        assert_eq!(a.log().breaches(), 1);
        let h = a.health();
        assert!(!h.healthy);
        assert_eq!(h.breaches, 1);
        assert_eq!(
            a.registry.counter_total(M_AUDIT_EVENTS),
            1,
            "counter matches journal"
        );
        assert_eq!(a.tail(1)[0].cycle, 3, "labelled with its cycle id");
    }

    #[test]
    fn negligible_exposure_is_not_a_breach() {
        // Satisfied cycle: exposure above the decoys but under ε2.
        let a = auditor();
        a.audit_cycle("t", 0, &metrics(0.005, 0.001), 0.01, 0.002, 0.005);
        assert_eq!(a.log().breaches(), 0);
    }

    #[test]
    fn low_headroom_warns_once() {
        let a = auditor();
        // headroom 0.01 − 0.009 = 0.001 < 0.25 × 0.01.
        a.audit_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.009, 0.002);
        assert_eq!(a.log().warnings(), 1);
        assert_eq!(a.log().breaches(), 0);
        assert!(a.health().healthy, "warnings do not degrade health");
    }

    #[test]
    fn rigged_cycle_breaches_within_one_audit() {
        let a = auditor();
        a.audit_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        assert_eq!(a.log().breaches(), 0);
        a.audit_cycle("t", 0, &metrics(0.5, 0.0), 0.01, 0.5, 0.5);
        assert_eq!(a.log().breaches(), 1, "journaled at the call");
        a.finish_drain();
        assert_eq!(a.log().breaches(), 1, "a drain audits nothing again");
        assert_eq!(a.cycles_audited(), 2, "each call is one evaluation");
    }

    #[test]
    fn gauges_publish_micro_units() {
        let a = auditor();
        a.audit_cycle("alice", 0, &metrics(0.004, 0.05), 0.01, 0.0025, 0.004);
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
        a.audit_cycle("alice", 0, &metrics(0.001, 0.05), 0.01, 0.0005, 0.001);
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
        a.audit_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        a.audit_cycle("t", 1, &metrics(0.002, 0.05), 0.01, 0.002, 0.002);
        a.audit_cycle("t", 2, &metrics(0.002, 0.05), 0.01, 0.003, 0.002);
        let h = a.health();
        assert!(
            h.burn_cycles_min > 0,
            "a climbing trace exposure must yield a finite burn estimate, got {}",
            h.burn_cycles_min
        );
        // Flat trace exposure decays the slope toward no-burn.
        let b = auditor();
        b.audit_cycle("t", 0, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        b.audit_cycle("t", 1, &metrics(0.002, 0.05), 0.01, 0.001, 0.002);
        let hb = b.health();
        assert!(hb.burn_cycles_min == -1 || hb.burn_cycles_min > h.burn_cycles_min);
    }
}
