//! Session spill/restore for crash recovery.
//!
//! A fleet that never restarts still loses machines. [`SessionState`]
//! is the complete per-tenant client state — privacy requirement, ghost
//! and pacing configuration, the running Equation-2 trace sums, and
//! every aggregate counter — in a **bit-exact binary codec**: all `f64`s
//! are spilled as raw little-endian IEEE-754 bytes, so restored exposure
//! accounting is `==`-identical to the pre-crash accounting, not merely
//! close after a decimal round-trip.
//!
//! The codec composes with `tsearch-store`'s CRC-checked container:
//! [`seal_session_state`] wraps the encoding under
//! [`tsearch_store::kind::SESSION_STATE`], and [`unseal_session_state`]
//! verifies the checksum before decoding, so a corrupt spill surfaces
//! as an error instead of silently wrong accounting.
//!
//! What is deliberately **not** spilled: the model (shared fleet state,
//! rebuilt or reloaded on its own path), the fleet secret ghost seed
//! (the restoring manager must already hold it — spilling a secret next
//! to the data it protects would defeat it), and the pacing RNG's
//! internal position (the pacer restarts from its config seed;
//! [`toppriv_core::PacingScheduler::resume_from`] carries the cycle-id
//! counter so restored sessions keep globally unique cycle ids).
//! Bit-identical restored *accounting* therefore requires restoring
//! under the same fleet seed and an identical model — exactly the crash
//! recovery contract, and what the fleet simulation's spill step asserts.

use crate::session::SessionConfig;
use toppriv_core::{GhostConfig, PacingConfig, PacingStrategy, PrivacyRequirement, TermSelection};
use toppriv_obs::{AuditEvent, AuditSeverity};
use tsearch_store::{kind, seal, unseal_kind, StoreError};

/// Codec version stamped into every spill. Version 1 also carried a
/// posterior history and a history-aware flag; it is refused.
pub const SESSION_STATE_VERSION: u32 = 2;

/// Magic bytes opening a [`SessionState`] payload (inside the sealed
/// container).
pub const SESSION_STATE_MAGIC: [u8; 4] = *b"TPSS";

/// The complete spilled state of one session.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Session id (the manager's key).
    pub id: String,
    /// The tenant's configuration (requirement, ghost, pacing, result
    /// depth, think time).
    pub config: SessionConfig,
    /// Model epoch the session last generated against (informational;
    /// restore rebinds to the restoring manager's current model).
    pub model_epoch: u64,
    /// Session-local simulated clock.
    pub clock_secs: f64,
    /// Union of certified intention topics.
    pub intention_union: Vec<usize>,
    /// Running per-topic posterior sum (Equation-2 trace accounting).
    pub posterior_sum: Vec<f64>,
    /// Queries accumulated into `posterior_sum`.
    pub posterior_count: u64,
    /// The pacer's next cycle id.
    pub next_cycle_id: u64,
    /// Cycles formulated.
    pub cycles: u64,
    /// Queries emitted (genuine + ghosts).
    pub queries_emitted: u64,
    /// Sum of cycle lengths.
    pub sum_cycle_len: f64,
    /// Sum of per-cycle exposures.
    pub sum_exposure: f64,
    /// Worst per-cycle exposure.
    pub worst_exposure: f64,
    /// Sum of per-cycle mask levels.
    pub sum_mask: f64,
    /// Cycles that satisfied the requirement.
    pub satisfied: u64,
}

/// Spill/restore failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The sealed container failed its integrity checks.
    Store(StoreError),
    /// The payload decoded from a valid container is malformed.
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "session container: {e}"),
            PersistError::Malformed(m) => write!(f, "malformed session state: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        PersistError::Store(e)
    }
}

// ---------------------------------------------------------------------
// Little-endian writer/reader. f64 goes through to_le_bytes/from_bits so
// the round-trip is bitwise, not textual.

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn f64s(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }
    fn u64s(&mut self, v: impl ExactSizeIterator<Item = u64>) {
        self.u32(v.len() as u32);
        for x in v {
            self.u64(x);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| PersistError::Malformed("truncated payload".into()))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn len(&mut self) -> Result<usize, PersistError> {
        let n = self.u32()? as usize;
        // Each element of any collection occupies at least one byte, so
        // a length beyond the remaining buffer is corrupt — reject it
        // before any allocation trusts it.
        if n > self.buf.len().saturating_sub(self.at) {
            return Err(PersistError::Malformed("length beyond payload".into()));
        }
        Ok(n)
    }
    fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.len()?;
        self.take(n)
    }
    fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        // f64s are 8 bytes each; bound-check against that stride.
        let n = self.u32()? as usize;
        if n.saturating_mul(8) > self.buf.len().saturating_sub(self.at) {
            return Err(PersistError::Malformed("length beyond payload".into()));
        }
        (0..n).map(|_| self.f64()).collect()
    }
    fn u64s(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(8) > self.buf.len().saturating_sub(self.at) {
            return Err(PersistError::Malformed("length beyond payload".into()));
        }
        (0..n).map(|_| self.u64()).collect()
    }
}

fn encode_pacing_strategy(w: &mut Writer, s: &PacingStrategy) {
    match s {
        PacingStrategy::NaiveImmediate => w.u8(0),
        PacingStrategy::ShuffledBurst => w.u8(1),
        PacingStrategy::PoissonSpread {
            window_secs,
            max_genuine_delay_secs,
        } => {
            w.u8(2);
            w.f64(*window_secs);
            w.f64(*max_genuine_delay_secs);
        }
    }
}

fn decode_pacing_strategy(r: &mut Reader) -> Result<PacingStrategy, PersistError> {
    match r.u8()? {
        0 => Ok(PacingStrategy::NaiveImmediate),
        1 => Ok(PacingStrategy::ShuffledBurst),
        2 => Ok(PacingStrategy::PoissonSpread {
            window_secs: r.f64()?,
            max_genuine_delay_secs: r.f64()?,
        }),
        t => Err(PersistError::Malformed(format!(
            "unknown pacing strategy tag {t}"
        ))),
    }
}

/// Encodes a [`SessionState`] into its raw binary payload (no container
/// framing — see [`seal_session_state`] for the CRC-checked form).
pub fn encode_session_state(state: &SessionState) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(&SESSION_STATE_MAGIC);
    w.u32(SESSION_STATE_VERSION);
    w.bytes(state.id.as_bytes());
    // Config.
    w.f64(state.config.requirement.eps1);
    w.f64(state.config.requirement.eps2);
    let g = &state.config.ghost;
    w.f64(g.min_len_mult);
    w.f64(g.max_len_mult);
    w.u64(g.max_cycle_len as u64);
    w.u64(g.term_pool as u64);
    w.u8(match g.term_selection {
        TermSelection::Biased => 0,
        TermSelection::SpecificityMatched => 1,
    });
    w.u64(g.seed);
    let p = &state.config.pacing;
    encode_pacing_strategy(&mut w, &p.strategy);
    w.f64(p.burst_gap_secs);
    w.f64(p.jitter);
    w.u64(p.seed);
    w.u64(state.config.top_k as u64);
    w.f64(state.config.think_time_secs);
    // Trace state.
    w.u64(state.model_epoch);
    w.f64(state.clock_secs);
    w.u64s(state.intention_union.iter().map(|&t| t as u64));
    w.f64s(&state.posterior_sum);
    w.u64(state.posterior_count);
    w.u64(state.next_cycle_id);
    // Aggregates.
    w.u64(state.cycles);
    w.u64(state.queries_emitted);
    w.f64(state.sum_cycle_len);
    w.f64(state.sum_exposure);
    w.f64(state.worst_exposure);
    w.f64(state.sum_mask);
    w.u64(state.satisfied);
    w.0
}

/// Decodes a raw [`SessionState`] payload (inverse of
/// [`encode_session_state`]).
pub fn decode_session_state(payload: &[u8]) -> Result<SessionState, PersistError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    if r.take(4)? != SESSION_STATE_MAGIC {
        return Err(PersistError::Malformed("bad magic".into()));
    }
    let version = r.u32()?;
    if version != SESSION_STATE_VERSION {
        return Err(PersistError::Malformed(format!(
            "unsupported session state version {version}"
        )));
    }
    let id = String::from_utf8(r.bytes()?.to_vec())
        .map_err(|_| PersistError::Malformed("session id is not UTF-8".into()))?;
    let eps1 = r.f64()?;
    let eps2 = r.f64()?;
    let requirement = PrivacyRequirement { eps1, eps2 };
    let ghost = GhostConfig {
        min_len_mult: r.f64()?,
        max_len_mult: r.f64()?,
        max_cycle_len: r.u64()? as usize,
        term_pool: r.u64()? as usize,
        term_selection: match r.u8()? {
            0 => TermSelection::Biased,
            1 => TermSelection::SpecificityMatched,
            t => {
                return Err(PersistError::Malformed(format!(
                    "unknown term selection tag {t}"
                )))
            }
        },
        seed: r.u64()?,
    };
    let pacing = PacingConfig {
        strategy: decode_pacing_strategy(&mut r)?,
        burst_gap_secs: r.f64()?,
        jitter: r.f64()?,
        seed: r.u64()?,
    };
    let top_k = r.u64()? as usize;
    let think_time_secs = r.f64()?;
    let config = SessionConfig {
        requirement,
        ghost,
        pacing,
        top_k,
        think_time_secs,
    };
    let model_epoch = r.u64()?;
    let clock_secs = r.f64()?;
    let intention_union: Vec<usize> = r.u64s()?.into_iter().map(|t| t as usize).collect();
    let posterior_sum = r.f64s()?;
    let posterior_count = r.u64()?;
    let next_cycle_id = r.u64()?;
    let state = SessionState {
        id,
        config,
        model_epoch,
        clock_secs,
        intention_union,
        posterior_sum,
        posterior_count,
        next_cycle_id,
        cycles: r.u64()?,
        queries_emitted: r.u64()?,
        sum_cycle_len: r.f64()?,
        sum_exposure: r.f64()?,
        worst_exposure: r.f64()?,
        sum_mask: r.f64()?,
        satisfied: r.u64()?,
    };
    if r.at != payload.len() {
        return Err(PersistError::Malformed("trailing bytes".into()));
    }
    Ok(state)
}

/// Codec version stamped into every audit-journal spill.
pub const AUDIT_JOURNAL_VERSION: u32 = 1;

/// Magic bytes opening an audit-journal payload (inside the sealed
/// container).
pub const AUDIT_JOURNAL_MAGIC: [u8; 4] = *b"TPAJ";

fn severity_tag(s: AuditSeverity) -> u8 {
    match s {
        AuditSeverity::Info => 0,
        AuditSeverity::Warning => 1,
        AuditSeverity::Breach => 2,
    }
}

/// Encodes an audit-journal spill into its raw binary payload (no
/// container framing — see [`seal_audit_journal`] for the CRC-checked
/// form).
pub fn encode_audit_journal(events: &[AuditEvent]) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(&AUDIT_JOURNAL_MAGIC);
    w.u32(AUDIT_JOURNAL_VERSION);
    w.u32(events.len() as u32);
    for e in events {
        w.u64(e.seq);
        w.u8(severity_tag(e.severity));
        w.bytes(e.code.as_bytes());
        w.bytes(e.tenant.as_bytes());
        w.u64(e.cycle);
        w.bytes(e.detail.as_bytes());
    }
    w.0
}

/// Decodes a raw audit-journal payload (inverse of
/// [`encode_audit_journal`]).
pub fn decode_audit_journal(payload: &[u8]) -> Result<Vec<AuditEvent>, PersistError> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    if r.take(4)? != AUDIT_JOURNAL_MAGIC {
        return Err(PersistError::Malformed("bad magic".into()));
    }
    let version = r.u32()?;
    if version != AUDIT_JOURNAL_VERSION {
        return Err(PersistError::Malformed(format!(
            "unsupported audit journal version {version}"
        )));
    }
    let n = r.len()?;
    let utf8 = |bytes: &[u8]| {
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed("audit string is not UTF-8".into()))
    };
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = r.u64()?;
        let severity = match r.u8()? {
            0 => AuditSeverity::Info,
            1 => AuditSeverity::Warning,
            2 => AuditSeverity::Breach,
            t => {
                return Err(PersistError::Malformed(format!(
                    "unknown audit severity tag {t}"
                )))
            }
        };
        let code = utf8(r.bytes()?)?;
        let tenant = utf8(r.bytes()?)?;
        let cycle = r.u64()?;
        let detail = utf8(r.bytes()?)?;
        events.push(AuditEvent {
            seq,
            severity,
            code,
            tenant,
            cycle,
            detail,
        });
    }
    if r.at != payload.len() {
        return Err(PersistError::Malformed("trailing bytes".into()));
    }
    Ok(events)
}

/// Seals an audit-journal spill into a CRC-checked `tsearch-store`
/// container (kind [`kind::AUDIT_JOURNAL`]), so breach evidence
/// survives restarts with the same integrity guarantees as session
/// state.
pub fn seal_audit_journal(events: &[AuditEvent]) -> Vec<u8> {
    seal(kind::AUDIT_JOURNAL, &encode_audit_journal(events))
}

/// Unseals and decodes an audit-journal container, verifying its CRC32
/// and kind tag first.
pub fn unseal_audit_journal(container: &[u8]) -> Result<Vec<AuditEvent>, PersistError> {
    let payload = unseal_kind(container, kind::AUDIT_JOURNAL)?;
    decode_audit_journal(payload)
}

/// Seals a [`SessionState`] into a CRC-checked `tsearch-store`
/// container (kind [`kind::SESSION_STATE`]).
pub fn seal_session_state(state: &SessionState) -> Vec<u8> {
    seal(kind::SESSION_STATE, &encode_session_state(state))
}

/// Unseals and decodes a [`SessionState`] container, verifying its
/// CRC32 and kind tag first.
pub fn unseal_session_state(container: &[u8]) -> Result<SessionState, PersistError> {
    let payload = unseal_kind(container, kind::SESSION_STATE)?;
    decode_session_state(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionState {
        SessionState {
            id: "tenant-7".into(),
            config: SessionConfig {
                top_k: 7,
                think_time_secs: 12.5,
                ..SessionConfig::default()
            },
            model_epoch: 3,
            clock_secs: 99.75,
            intention_union: vec![0, 5],
            posterior_sum: vec![0.75, 1.25],
            posterior_count: 2,
            next_cycle_id: 11,
            cycles: 4,
            queries_emitted: 17,
            sum_cycle_len: 17.0,
            sum_exposure: 0.031,
            worst_exposure: 0.012,
            sum_mask: 0.4,
            satisfied: 4,
        }
    }

    #[test]
    fn codec_roundtrips_bitwise() {
        let state = sample();
        let back = decode_session_state(&encode_session_state(&state)).unwrap();
        assert_eq!(back.id, state.id);
        assert_eq!(back.posterior_sum, state.posterior_sum);
        assert_eq!(
            back.sum_exposure.to_bits(),
            state.sum_exposure.to_bits(),
            "f64 round-trip must be bitwise"
        );
        assert_eq!(back.next_cycle_id, state.next_cycle_id);
        assert_eq!(back.config.top_k, state.config.top_k);
    }

    #[test]
    fn sealed_roundtrip_and_corruption_detection() {
        let state = sample();
        let mut sealed = seal_session_state(&state);
        assert!(unseal_session_state(&sealed).is_ok());
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x40;
        assert!(matches!(
            unseal_session_state(&sealed),
            Err(PersistError::Store(_))
        ));
    }

    #[test]
    fn audit_journal_roundtrips_and_detects_corruption() {
        let events = vec![
            AuditEvent {
                seq: 0,
                severity: AuditSeverity::Info,
                code: "journal_spill".into(),
                tenant: String::new(),
                cycle: 0,
                detail: "3 event(s) sealed".into(),
            },
            AuditEvent {
                seq: 1,
                severity: AuditSeverity::Warning,
                code: "low_headroom".into(),
                tenant: "tenant-2".into(),
                cycle: 9,
                detail: "headroom 1.2e-3 below 25% of ε2".into(),
            },
            AuditEvent {
                seq: 2,
                severity: AuditSeverity::Breach,
                code: "eps2_breach".into(),
                tenant: "tenant-0".into(),
                cycle: 4,
                detail: "exposure 0.5 above mask 0.0 and ε2 0.01".into(),
            },
        ];
        let back = decode_audit_journal(&encode_audit_journal(&events)).unwrap();
        assert_eq!(back, events);
        let mut sealed = seal_audit_journal(&events);
        assert_eq!(unseal_audit_journal(&sealed).unwrap(), events);
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x10;
        assert!(matches!(
            unseal_audit_journal(&sealed),
            Err(PersistError::Store(_))
        ));
    }

    #[test]
    fn audit_journal_rejects_bad_tags() {
        let events = vec![AuditEvent {
            seq: 0,
            severity: AuditSeverity::Breach,
            code: "eps2_breach".into(),
            tenant: "t".into(),
            cycle: 1,
            detail: "d".into(),
        }];
        let mut payload = encode_audit_journal(&events);
        // Corrupt the severity tag (first byte after magic+version+count+seq).
        payload[4 + 4 + 4 + 8] = 9;
        assert!(matches!(
            decode_audit_journal(&payload),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            decode_audit_journal(b"nope"),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn a_version_1_state_is_refused() {
        let mut payload = encode_session_state(&sample());
        payload[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_session_state(&payload).unwrap_err();
        assert_eq!(
            err,
            PersistError::Malformed("unsupported session state version 1".into())
        );
    }
}
