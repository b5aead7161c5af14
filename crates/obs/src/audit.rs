//! Structured audit events, the bounded ring journal, and health reports.
//!
//! The privacy guarantee a tenant pays υ× overhead for must be an
//! always-on observable, not a test-time assertion. This module is the
//! substrate of that audit plane:
//!
//! - [`AuditEvent`] — one typed, severity-tagged observation (an ε2
//!   breach, a low-headroom warning, a journal spill);
//! - [`AuditLog`] — a bounded ring journal of events, same design as the
//!   span journal ([`crate::Tracer`]): one atomic head reserves slots,
//!   each slot has its own tiny mutex, so concurrent auditors never
//!   contend on a global lock and a panicked recorder poisons at most
//!   one slot;
//! - [`HealthReport`] — the aggregated verdict a `Health` protocol op or
//!   a `--audit-interval` tick reads out.
//!
//! The service-layer `PrivacyAuditor` (in `toppriv-service`) owns the
//! per-tenant accounting and pushes here; this crate only defines the
//! bounded, serializable substrate.
//!
//! ```
//! use toppriv_obs::{AuditLog, AuditSeverity};
//!
//! let log = AuditLog::new(64);
//! log.push(AuditSeverity::Breach, "eps2_breach", "alice", 3, "exposure 0.5 > eps2 0.01");
//! assert_eq!(log.breaches(), 1);
//! assert_eq!(log.tail(10).len(), 1);
//! assert_eq!(log.tail(10)[0].tenant, "alice");
//! ```

use crate::recover_lock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Severity of one audit event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditSeverity {
    /// Operational bookkeeping (journal spill, auditor start).
    Info,
    /// Near-breach: the guarantee still holds but headroom is low.
    Warning,
    /// The per-cycle fleet invariant failed — the guarantee was violated.
    Breach,
}

/// One structured audit observation, as journaled and as spilled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEvent {
    /// Journal sequence number (emission order, monotone).
    pub seq: u64,
    /// Event severity.
    pub severity: AuditSeverity,
    /// Short machine-readable code (`eps2_breach`, `low_headroom`,
    /// `journal_spill` — see the taxonomy in ARCHITECTURE.md).
    pub code: String,
    /// Tenant (session id) the event concerns; empty for fleet-wide
    /// events.
    pub tenant: String,
    /// Cycle id the event concerns (0 for non-cycle events).
    pub cycle: u64,
    /// Human-readable evidence: what was compared, what was observed.
    pub detail: String,
}

/// A bounded ring journal of [`AuditEvent`]s.
///
/// Pushing is wait-free up to the per-slot mutex (never contended unless
/// two pushes land on the same ring slot simultaneously); the journal
/// retains the most recent `capacity` events and counts every severity
/// forever, so the health verdict survives ring overwrite.
#[derive(Debug)]
pub struct AuditLog {
    next_seq: AtomicU64,
    head: AtomicUsize,
    warnings: AtomicU64,
    breaches: AtomicU64,
    slots: Vec<Mutex<Option<AuditEvent>>>,
}

impl AuditLog {
    /// A journal retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        AuditLog {
            next_seq: AtomicU64::new(0),
            head: AtomicUsize::new(0),
            warnings: AtomicU64::new(0),
            breaches: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Journals one event, returning its sequence number.
    pub fn push(
        &self,
        severity: AuditSeverity,
        code: impl Into<String>,
        tenant: impl Into<String>,
        cycle: u64,
        detail: impl Into<String>,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.store(AuditEvent {
            seq,
            severity,
            code: code.into(),
            tenant: tenant.into(),
            cycle,
            detail: detail.into(),
        });
        seq
    }

    fn store(&self, event: AuditEvent) {
        match event.severity {
            AuditSeverity::Info => {}
            AuditSeverity::Warning => {
                self.warnings.fetch_add(1, Ordering::Relaxed);
            }
            AuditSeverity::Breach => {
                self.breaches.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *recover_lock(&self.slots[slot]) = Some(event);
    }

    /// Restores spilled events (e.g. an unsealed journal container) into
    /// the ring, preserving their sequence numbers; fresh events continue
    /// after the highest restored one.
    pub fn restore(&self, events: &[AuditEvent]) {
        for event in events {
            self.next_seq.fetch_max(event.seq + 1, Ordering::Relaxed);
            self.store(event.clone());
        }
    }

    /// Every retained event, oldest first (by sequence number).
    pub fn events(&self) -> Vec<AuditEvent> {
        let mut out: Vec<AuditEvent> = self
            .slots
            .iter()
            .filter_map(|s| recover_lock(s).clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The most recent `limit` events, oldest first.
    pub fn tail(&self, limit: usize) -> Vec<AuditEvent> {
        let mut events = self.events();
        let skip = events.len().saturating_sub(limit);
        events.drain(..skip);
        events
    }

    /// Total events journaled since creation (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Breach events journaled since creation (survives ring overwrite).
    pub fn breaches(&self) -> u64 {
        self.breaches.load(Ordering::Relaxed)
    }

    /// Warning events journaled since creation (survives ring overwrite).
    pub fn warnings(&self) -> u64 {
        self.warnings.load(Ordering::Relaxed)
    }

    /// Empties the ring (severity totals and sequence numbering keep
    /// counting — the health verdict must not forget a breach).
    pub fn clear(&self) {
        for slot in &self.slots {
            *recover_lock(slot) = None;
        }
    }
}

/// The aggregated audit-plane verdict: what a `Health` protocol op, a
/// `--audit-interval` tick, or a test's per-step comparison reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `true` iff no breach has ever been journaled.
    pub healthy: bool,
    /// Tenants currently under audit.
    pub tenants: usize,
    /// Cycles whose fleet invariant has been evaluated.
    pub cycles_audited: u64,
    /// Breach events journaled since start.
    pub breaches: u64,
    /// Warning events journaled since start.
    pub warnings: u64,
    /// Worst (smallest) per-tenant budget headroom `ε2 − trace_exposure`
    /// across live tenants (0 when no tenant is under audit).
    pub worst_headroom: f64,
    /// Smallest cycles-until-ε2-exhaustion estimate across live tenants
    /// at the current burn slope (−1 when no tenant is burning budget).
    pub burn_cycles_min: i64,
    /// Free-form summary.
    pub detail: String,
}

impl HealthReport {
    /// A vacuously healthy report (no tenants, nothing audited).
    pub fn empty() -> Self {
        HealthReport {
            healthy: true,
            tenants: 0,
            cycles_audited: 0,
            breaches: 0,
            warnings: 0,
            worst_headroom: 0.0,
            burn_cycles_min: -1,
            detail: "no tenants under audit".into(),
        }
    }

    /// The one-word verdict string (`healthy` / `degraded`).
    pub fn verdict(&self) -> &'static str {
        if self.healthy {
            "healthy"
        } else {
            "degraded"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_counts_by_severity() {
        let log = AuditLog::new(8);
        log.push(AuditSeverity::Info, "journal_spill", "", 0, "spilled");
        log.push(AuditSeverity::Warning, "low_headroom", "a", 1, "w");
        log.push(AuditSeverity::Breach, "eps2_breach", "a", 2, "b");
        log.push(AuditSeverity::Breach, "eps2_breach", "b", 1, "b");
        assert_eq!(log.recorded(), 4);
        assert_eq!(log.warnings(), 1);
        assert_eq!(log.breaches(), 2);
        let events = log.events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn ring_keeps_most_recent_but_totals_survive() {
        let log = AuditLog::new(4);
        for i in 0..10u64 {
            log.push(AuditSeverity::Breach, "eps2_breach", "t", i, "x");
        }
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.breaches(), 10, "totals must survive overwrite");
        assert_eq!(log.tail(2).len(), 2);
        assert_eq!(log.tail(2)[1].cycle, 9);
        log.clear();
        assert!(log.events().is_empty());
        assert_eq!(log.breaches(), 10, "clear must not forget breaches");
    }

    #[test]
    fn restore_preserves_sequence_numbers() {
        let log = AuditLog::new(8);
        let spilled = vec![
            AuditEvent {
                seq: 5,
                severity: AuditSeverity::Warning,
                code: "low_headroom".into(),
                tenant: "a".into(),
                cycle: 1,
                detail: "w".into(),
            },
            AuditEvent {
                seq: 9,
                severity: AuditSeverity::Breach,
                code: "eps2_breach".into(),
                tenant: "b".into(),
                cycle: 2,
                detail: "b".into(),
            },
        ];
        log.restore(&spilled);
        assert_eq!(log.events(), spilled);
        assert_eq!(log.breaches(), 1);
        let next = log.push(AuditSeverity::Info, "journal_spill", "", 0, "s");
        assert_eq!(next, 10, "fresh events continue after the restore");
    }

    #[test]
    fn event_roundtrips_through_json() {
        let event = AuditEvent {
            seq: 7,
            severity: AuditSeverity::Breach,
            code: "eps2_breach".into(),
            tenant: "tenant-3".into(),
            cycle: 12,
            detail: "exposure 0.50 above mask 0.00 and eps2 0.01".into(),
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: AuditEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn health_report_verdict() {
        let mut h = HealthReport::empty();
        assert_eq!(h.verdict(), "healthy");
        h.healthy = false;
        h.breaches = 1;
        assert_eq!(h.verdict(), "degraded");
        let json = serde_json::to_string(&h).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn concurrent_pushes_lose_no_totals() {
        let log = std::sync::Arc::new(AuditLog::new(32));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        log.push(AuditSeverity::Breach, "eps2_breach", "t", i, "x");
                    }
                });
            }
        });
        assert_eq!(log.recorded(), 4000);
        assert_eq!(log.breaches(), 4000);
    }
}
