//! Store-fault injection on the two durable containers: session spills
//! and the audit journal. A scheduled `StoreWrite` fails a spill before
//! any bytes move (the previous container stays valid), a corrupted
//! container is rejected by the CRC seal before any session state is
//! touched, and a failed periodic journal spill leaves **no gap** — the
//! next spill seals every event including those from before the
//! failure.

mod common;

use common::{metric_bits, Stack};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use toppriv_service::auditor::{AuditConfig, PrivacyAuditor};
use toppriv_service::{
    unseal_audit_journal, FaultKind, FaultPlane, FaultSpec, ServiceError, SessionManager,
};

/// Built once: the tests share it.
fn stack() -> &'static Stack {
    static STACK: OnceLock<Stack> = OnceLock::new();
    STACK.get_or_init(|| common::stack(0x57F4, 4, 140))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("toppriv_store_faults_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn injected_enospc_fails_spill_but_next_succeeds() {
    let s = stack();
    let plane = Arc::new(FaultPlane::new(11).with_spec(FaultSpec::once(FaultKind::StoreWrite)));
    let manager = SessionManager::new(s.engine.clone(), s.model.clone())
        .with_fleet_seed(0x5CE7A210)
        .with_fault_plane(plane.clone());
    manager.open_session("alice").unwrap();
    manager
        .search_tokens("alice", &s.queries[0].tokens, 10)
        .unwrap();
    let path = scratch("alice_spill.bin");
    let _ = std::fs::remove_file(&path);
    // First spill: the one-shot StoreWrite fires before any bytes move.
    let err = manager.spill_session("alice", &path).unwrap_err();
    assert!(
        matches!(err, ServiceError::Unavailable(_)),
        "injected write fault must surface as transient unavailability, got {err}"
    );
    assert!(!path.exists(), "a failed spill leaves nothing on disk");
    assert_eq!(plane.fired(FaultKind::StoreWrite), 1);
    // Next spill: budget exhausted, the periodic spill path recovers.
    manager.spill_session("alice", &path).unwrap();
    assert!(path.exists());
    let at_spill = manager.session_metrics("alice").unwrap();
    // The sealed container round-trips bit-identically on a clean fleet.
    let restored =
        SessionManager::new(s.engine.clone(), s.model.clone()).with_fleet_seed(0x5CE7A210);
    let id = restored.load_session(&path).unwrap();
    assert_eq!(id, "alice");
    let m = restored.session_metrics("alice").unwrap();
    assert_eq!(
        metric_bits(&at_spill),
        metric_bits(&m),
        "restore must be bit-exact"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_spill_is_rejected_before_restore() {
    let s = stack();
    let manager =
        SessionManager::new(s.engine.clone(), s.model.clone()).with_fleet_seed(0x5CE7A210);
    manager.open_session("bob").unwrap();
    manager
        .search_tokens("bob", &s.queries[1].tokens, 10)
        .unwrap();
    let path = scratch("bob_spill.bin");
    manager.spill_session("bob", &path).unwrap();

    let restored =
        SessionManager::new(s.engine.clone(), s.model.clone()).with_fleet_seed(0x5CE7A210);
    // Torn write: truncate the container mid-payload.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = restored.load_session(&path).unwrap_err();
    assert!(
        matches!(&err, ServiceError::BadRequest(m) if m.contains("corrupt session container")),
        "truncated container must be rejected, got {err}"
    );
    // Short read / bit rot: flip one payload byte, keep the length.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let err = restored.load_session(&path).unwrap_err();
    assert!(
        matches!(&err, ServiceError::BadRequest(m) if m.contains("corrupt session container")),
        "bit-rotted container must be rejected, got {err}"
    );
    assert_eq!(restored.session_count(), 0, "no half-restored session");
    // The undamaged bytes still load: rejection was the seal, not luck.
    std::fs::write(&path, &bytes).unwrap();
    restored.load_session(&path).unwrap();
    assert_eq!(restored.session_count(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_read_fault_is_transient() {
    let s = stack();
    let manager =
        SessionManager::new(s.engine.clone(), s.model.clone()).with_fleet_seed(0x5CE7A210);
    manager.open_session("carol").unwrap();
    manager
        .search_tokens("carol", &s.queries[2].tokens, 10)
        .unwrap();
    let path = scratch("carol_spill.bin");
    manager.spill_session("carol", &path).unwrap();

    let restored = SessionManager::new(s.engine.clone(), s.model.clone())
        .with_fleet_seed(0x5CE7A210)
        .with_fault_plane(Arc::new(
            FaultPlane::new(23).with_spec(FaultSpec::once(FaultKind::StoreRead)),
        ));
    let err = restored.load_session(&path).unwrap_err();
    assert!(matches!(err, ServiceError::Unavailable(_)), "got {err}");
    assert_eq!(restored.session_count(), 0);
    // The retry reads clean — the fault was the I/O, not the container.
    restored.load_session(&path).unwrap();
    assert_eq!(restored.session_count(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_journal_spill_leaves_no_gap() {
    use toppriv_core::PrivacyMetrics;
    let path = scratch("audit_journal.bin");
    let _ = std::fs::remove_file(&path);
    let registry = Arc::new(toppriv_obs::MetricsRegistry::new());
    let auditor = PrivacyAuditor::new(
        registry,
        AuditConfig {
            spill_every_cycles: 1,
            spill_path: Some(path.clone()),
        },
    );
    auditor.attach_fault_plane(Arc::new(
        FaultPlane::new(31).with_spec(FaultSpec::once(FaultKind::StoreWrite)),
    ));
    let breach = PrivacyMetrics {
        exposure: 0.5,
        mask_level: 0.0,
        num_relevant: 1,
        best_intention_rank: 0,
        cycle_len: 4,
        generation_secs: 0.0,
    };
    // Cycle 0 breaches (journaled pre-failure), then the periodic spill
    // fails on the injected ENOSPC — surfaced as a spill_failed warning,
    // nothing on disk, ring journal intact.
    auditor.audit_cycle("t", 0, &breach, 0.01, 0.5, 0.5);
    auditor.finish_drain();
    assert!(!path.exists(), "failed spill must not leave a container");
    let codes: Vec<String> = auditor.tail(16).iter().map(|e| e.code.clone()).collect();
    assert!(codes.contains(&"eps2_breach".to_string()));
    assert!(codes.contains(&"spill_failed".to_string()));
    // Cycle 1 audits clean; the next periodic spill succeeds and seals
    // the *whole* journal — the pre-failure breach included. No gap.
    let clean = PrivacyMetrics {
        exposure: 0.002,
        mask_level: 0.05,
        ..breach
    };
    auditor.audit_cycle("t", 1, &clean, 0.01, 0.001, 0.002);
    auditor.finish_drain();
    assert!(path.exists(), "next periodic spill must succeed");
    let events = unseal_audit_journal(&std::fs::read(&path).unwrap()).unwrap();
    let sealed_codes: Vec<&str> = events.iter().map(|e| e.code.as_str()).collect();
    assert!(
        sealed_codes.contains(&"eps2_breach"),
        "pre-failure events must survive into the next spill, got {sealed_codes:?}"
    );
    assert!(sealed_codes.contains(&"spill_failed"));
    // Sequence numbers are contiguous: no journal gap.
    for w in events.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1, "journal gap at seq {}", w[0].seq);
    }
    let _ = std::fs::remove_file(&path);
}
