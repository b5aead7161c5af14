//! The fleet fault plane: seeded, deterministic fault injection.
//!
//! One API for every injected fault: a set of [`FaultSpec`]s, each
//! naming a [`FaultKind`], a firing rate, and optional scoping (a fire
//! budget, a stall duration, a submission predicate). The plane is
//! threaded through the scheduler (worker panics, shard
//! stalls) and the auditor and session spill paths (store write/read
//! errors) — the same object, consulted at every layer, so one seed
//! reproduces one fleet-wide fault schedule.
//!
//! ## Determinism
//!
//! Whether a fault fires is a pure function of `(plane seed, fault
//! kind, decision key, attempt)` — **never** of wall clock, thread
//! scheduling, or iteration order. The decision key for a submission is
//! a content hash (session, cycle id, simulated time, tokens), so the
//! same planned queue under the same seed yields the same faults no
//! matter how drain workers interleave; the attempt number is mixed in
//! so a retry of the same submission re-flips an **independent**
//! deterministic coin — which is what lets bounded retry heal
//! rate-based faults. (A [`FaultSpec::max_fires`] budget is the one
//! concession to global state: the budget counter is atomic, so under
//! concurrency *which* eligible decision consumes the last token can
//! vary, while the total never exceeds the budget.)
//!
//! ```
//! use toppriv_service::fault::{FaultKind, FaultPlane, FaultSpec};
//!
//! let plane = FaultPlane::new(7).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.5));
//! // Deterministic: the same key always decides the same way...
//! assert_eq!(
//!     plane.fires_key(FaultKind::WorkerPanic, 42, 0),
//!     plane.fires_key(FaultKind::WorkerPanic, 42, 0),
//! );
//! // ...and a retry (attempt 1) flips an independent coin.
//! let _ = plane.fires_key(FaultKind::WorkerPanic, 42, 1);
//! ```

use crate::scheduler::PlannedQuery;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fault taxonomy (see ARCHITECTURE.md, "Fault model &
/// degradation"). Each kind is injected at a different layer but
/// decided by the same seeded plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A drain worker panics mid-resolve (scheduler layer).
    WorkerPanic,
    /// A drain worker stalls for [`FaultSpec::stall_ms`] before
    /// resolving — the hung-shard simulation the per-drain deadline
    /// watchdog exists for (scheduler layer).
    ShardStall,
    /// A store write (audit-journal or session spill) fails with an
    /// injected I/O error, ENOSPC-style (store layer).
    StoreWrite,
    /// A store read (spill load) fails with an injected I/O error
    /// (store layer).
    StoreRead,
}

impl FaultKind {
    /// Per-kind hash salt: the same key must decide independently for
    /// different kinds.
    fn salt(self) -> u64 {
        match self {
            FaultKind::WorkerPanic => 0x9E6C_0001,
            FaultKind::ShardStall => 0x9E6C_0002,
            FaultKind::StoreWrite => 0x9E6C_0003,
            FaultKind::StoreRead => 0x9E6C_0004,
        }
    }

    /// Stable display name (used in panic payloads and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::ShardStall => "shard_stall",
            FaultKind::StoreWrite => "store_write",
            FaultKind::StoreRead => "store_read",
        }
    }
}

/// Every kind, in taxonomy order (for reporting sweeps).
pub const ALL_FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::WorkerPanic,
    FaultKind::ShardStall,
    FaultKind::StoreWrite,
    FaultKind::StoreRead,
];

/// Submission predicate: a submission it selects fires the spec
/// unconditionally, on every attempt.
pub type SubmissionPredicate = Arc<dyn Fn(&PlannedQuery) -> bool + Send + Sync>;

/// One scheduled fault: what fires, how often, and where.
#[derive(Clone)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Per-decision firing probability in `[0, 1]` (deterministic: the
    /// seeded key hash is compared against this rate).
    pub rate: f64,
    /// Stop firing after this many fires (0 = unlimited).
    pub max_fires: u64,
    /// [`FaultKind::ShardStall`] duration in milliseconds.
    pub stall_ms: u64,
    /// When set, the spec fires exactly for the submissions it selects
    /// (rate/key hashing is bypassed).
    pub predicate: Option<SubmissionPredicate>,
}

impl std::fmt::Debug for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSpec")
            .field("kind", &self.kind)
            .field("rate", &self.rate)
            .field("max_fires", &self.max_fires)
            .field("stall_ms", &self.stall_ms)
            .field("predicate", &self.predicate.is_some())
            .finish()
    }
}

impl FaultSpec {
    /// A rate-based spec: each decision fires with probability `rate`.
    pub fn rate(kind: FaultKind, rate: f64) -> Self {
        FaultSpec {
            kind,
            rate: rate.clamp(0.0, 1.0),
            max_fires: 0,
            stall_ms: 0,
            predicate: None,
        }
    }

    /// A one-shot spec: fires on the first eligible decision, then
    /// never again.
    pub fn once(kind: FaultKind) -> Self {
        FaultSpec {
            max_fires: 1,
            ..Self::rate(kind, 1.0)
        }
    }

    /// A predicate spec: fires exactly for the submissions `predicate`
    /// selects.
    pub fn predicate(kind: FaultKind, predicate: SubmissionPredicate) -> Self {
        FaultSpec {
            predicate: Some(predicate),
            ..Self::rate(kind, 1.0)
        }
    }

    /// Caps total fires.
    pub fn limit(mut self, max_fires: u64) -> Self {
        self.max_fires = max_fires;
        self
    }

    /// Sets the stall duration ([`FaultKind::ShardStall`] only).
    pub fn stalling_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }
}

/// One spec plus its runtime counters.
struct SpecState {
    spec: FaultSpec,
    fired: AtomicU64,
    checked: AtomicU64,
}

/// The seeded fault plane (see the module docs).
pub struct FaultPlane {
    seed: u64,
    specs: Vec<SpecState>,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("seed", &self.seed)
            .field(
                "specs",
                &self.specs.iter().map(|s| &s.spec).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer; full-avalanche
/// and dependency-free, which is all a deterministic fault coin needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlane {
    /// An empty plane (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlane {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds one fault spec.
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(SpecState {
            spec,
            fired: AtomicU64::new(0),
            checked: AtomicU64::new(0),
        });
        self
    }

    /// The deterministic decision key of arbitrary content bytes — what
    /// store-layer injection keys on (a spill path, a container name),
    /// so the same path fails the same way on every run.
    pub fn key_of(bytes: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in bytes {
            h = splitmix64(h ^ u64::from(*b));
        }
        h
    }

    /// The deterministic decision key of one planned submission: a
    /// content hash over (session, cycle id, simulated time bits,
    /// tokens). Thread interleaving cannot change it.
    pub fn submission_key(plan: &PlannedQuery) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in plan.session.as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        h = splitmix64(h ^ plan.scheduled.cycle_id as u64);
        h = splitmix64(h ^ plan.scheduled.time_secs.to_bits());
        for t in &plan.scheduled.tokens {
            h = splitmix64(h ^ u64::from(*t));
        }
        h
    }

    /// Whether `spec` fires for `(key, attempt)` — the pure coin flip,
    /// before budget accounting.
    fn coin(&self, spec: &FaultSpec, key: u64, attempt: u32) -> bool {
        if spec.rate <= 0.0 {
            return false;
        }
        if spec.rate >= 1.0 {
            return true;
        }
        let mixed = splitmix64(
            self.seed
                ^ spec.kind.salt()
                ^ key
                ^ (u64::from(attempt) + 1).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        // Compare the uniform 64-bit draw against the rate threshold.
        (mixed as f64) < spec.rate * (u64::MAX as f64)
    }

    /// Consumes one fire token from the spec's budget. Returns `false`
    /// when the budget is exhausted.
    fn take_token(state: &SpecState) -> bool {
        if state.spec.max_fires == 0 {
            state.fired.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        loop {
            let fired = state.fired.load(Ordering::Relaxed);
            if fired >= state.spec.max_fires {
                return false;
            }
            if state
                .fired
                .compare_exchange(fired, fired + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    fn decide(
        &self,
        kind: FaultKind,
        key: u64,
        attempt: u32,
        plan: Option<&PlannedQuery>,
    ) -> Option<&FaultSpec> {
        for state in &self.specs {
            if state.spec.kind != kind {
                continue;
            }
            state.checked.fetch_add(1, Ordering::Relaxed);
            let fires = match (&state.spec.predicate, plan) {
                (Some(predicate), Some(plan)) => predicate(plan),
                (Some(_), None) => false,
                (None, _) => self.coin(&state.spec, key, attempt),
            };
            if fires && Self::take_token(state) {
                return Some(&state.spec);
            }
        }
        None
    }

    /// Whether `kind` fires for a bare decision key (the store layer,
    /// which has no submission in hand).
    pub fn fires_key(&self, kind: FaultKind, key: u64, attempt: u32) -> bool {
        self.decide(kind, key, attempt, None).is_some()
    }

    /// Whether `kind` fires for one planned submission at retry
    /// `attempt`.
    pub fn fires_submission(&self, kind: FaultKind, plan: &PlannedQuery, attempt: u32) -> bool {
        self.decide(kind, Self::submission_key(plan), attempt, Some(plan))
            .is_some()
    }

    /// The stall duration to inject for one submission, when a
    /// [`FaultKind::ShardStall`] spec fires for it.
    pub fn stall_for(&self, plan: &PlannedQuery, attempt: u32) -> Option<std::time::Duration> {
        self.decide(
            FaultKind::ShardStall,
            Self::submission_key(plan),
            attempt,
            Some(plan),
        )
        .map(|spec| std::time::Duration::from_millis(spec.stall_ms))
    }

    /// The injected I/O error for one store operation, when a
    /// [`FaultKind::StoreWrite`] / [`FaultKind::StoreRead`] spec fires
    /// for `key` (e.g. the journal sequence number or a path hash).
    pub fn io_error(&self, kind: FaultKind, key: u64) -> Option<std::io::Error> {
        debug_assert!(matches!(kind, FaultKind::StoreWrite | FaultKind::StoreRead));
        if self.fires_key(kind, key, 0) {
            Some(std::io::Error::other(format!(
                "injected {} fault (no space left on device)",
                kind.name()
            )))
        } else {
            None
        }
    }

    /// Total fires of `kind` so far (across all its specs).
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.specs
            .iter()
            .filter(|s| s.spec.kind == kind)
            .map(|s| s.fired.load(Ordering::Relaxed))
            .sum()
    }

    /// Total decisions consulted for `kind` so far.
    pub fn checked(&self, kind: FaultKind) -> u64 {
        self.specs
            .iter()
            .filter(|s| s.spec.kind == kind)
            .map(|s| s.checked.load(Ordering::Relaxed))
            .sum()
    }

    /// One-line fire report across the taxonomy (for the demo's summary).
    pub fn report(&self) -> String {
        let mut parts = Vec::new();
        for kind in ALL_FAULT_KINDS {
            let fired = self.fired(kind);
            let checked = self.checked(kind);
            if checked > 0 || fired > 0 {
                parts.push(format!("{} {fired}/{checked}", kind.name()));
            }
        }
        if parts.is_empty() {
            "no faults configured".to_string()
        } else {
            parts.join(", ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toppriv_core::ScheduledQuery;

    fn plan(session: &str, cycle_id: usize, tokens: Vec<u32>) -> PlannedQuery {
        PlannedQuery {
            session: session.to_string(),
            scheduled: ScheduledQuery {
                time_secs: 1.5,
                tokens,
                is_genuine: true,
                cycle_id,
            },
            k: 10,
            subscribers: Vec::new(),
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlane::new(1).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.5));
        let b = FaultPlane::new(1).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.5));
        let c = FaultPlane::new(2).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.5));
        let mut diverged = false;
        for key in 0..256u64 {
            assert_eq!(
                a.fires_key(FaultKind::WorkerPanic, key, 0),
                b.fires_key(FaultKind::WorkerPanic, key, 0),
                "same seed, same key, same verdict"
            );
            if a.fires_key(FaultKind::WorkerPanic, key, 0)
                != c.fires_key(FaultKind::WorkerPanic, key, 0)
            {
                diverged = true;
            }
        }
        assert!(diverged, "a different seed yields a different schedule");
    }

    #[test]
    fn rate_is_roughly_honored() {
        let plane = FaultPlane::new(99).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.05));
        let fired = (0..10_000u64)
            .filter(|&k| plane.fires_key(FaultKind::WorkerPanic, k, 0))
            .count();
        assert!(
            (300..=700).contains(&fired),
            "5% over 10k draws, got {fired}"
        );
    }

    #[test]
    fn attempts_flip_independent_coins() {
        let plane = FaultPlane::new(7).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.5));
        let healed = (0..256u64).filter(|&k| {
            plane.fires_key(FaultKind::WorkerPanic, k, 0)
                && !plane.fires_key(FaultKind::WorkerPanic, k, 1)
        });
        assert!(healed.count() > 0, "a retry must be able to heal");
    }

    #[test]
    fn max_fires_caps_the_budget() {
        let plane = FaultPlane::new(3).with_spec(FaultSpec::once(FaultKind::StoreWrite));
        assert!(plane.io_error(FaultKind::StoreWrite, 0).is_some());
        assert!(plane.io_error(FaultKind::StoreWrite, 1).is_none());
        assert_eq!(plane.fired(FaultKind::StoreWrite), 1);
    }

    #[test]
    fn one_shot_stall_carries_its_duration() {
        let plane = FaultPlane::new(3).with_spec(
            FaultSpec::rate(FaultKind::ShardStall, 1.0)
                .stalling_ms(50)
                .limit(1),
        );
        let p = plan("s", 0, vec![1, 2]);
        assert!(!plane.fires_submission(FaultKind::WorkerPanic, &p, 0));
        assert_eq!(
            plane.stall_for(&p, 0),
            Some(std::time::Duration::from_millis(50))
        );
        assert!(plane.stall_for(&p, 1).is_none(), "the budget is spent");
    }

    #[test]
    fn predicate_specs_subsume_the_legacy_hook() {
        let plane = FaultPlane::new(0).with_spec(FaultSpec::predicate(
            FaultKind::WorkerPanic,
            Arc::new(|p: &PlannedQuery| p.session == "poisoned"),
        ));
        let bad = plan("poisoned", 0, vec![1]);
        let good = plan("healthy", 0, vec![1]);
        for attempt in 0..3 {
            assert!(plane.fires_submission(FaultKind::WorkerPanic, &bad, attempt));
            assert!(!plane.fires_submission(FaultKind::WorkerPanic, &good, attempt));
        }
    }

    #[test]
    fn submission_key_is_content_derived() {
        let a = FaultPlane::submission_key(&plan("s", 0, vec![1, 2]));
        let b = FaultPlane::submission_key(&plan("s", 0, vec![1, 2]));
        let c = FaultPlane::submission_key(&plan("s", 1, vec![1, 2]));
        let d = FaultPlane::submission_key(&plan("t", 0, vec![1, 2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn report_summarizes_fires() {
        let plane = FaultPlane::new(1).with_spec(FaultSpec::once(FaultKind::StoreWrite));
        assert!(plane.io_error(FaultKind::StoreWrite, 9).is_some());
        let report = plane.report();
        assert!(report.contains("store_write 1/1"), "{report}");
    }
}
