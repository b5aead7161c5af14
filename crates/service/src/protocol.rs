//! The newline-delimited JSON protocol of `toppriv-serve`.
//!
//! One request per line in, one response per line out, over stdin/stdout
//! or a TCP connection. Shapes (externally tagged on `op` / `status`):
//!
//! ```json
//! {"op":{"Open":{"session":"alice","eps1":0.05,"eps2":0.01}}}
//! {"op":{"Search":{"session":"alice","query":"apache helicopter","k":10}}}
//! {"op":"Metrics"}
//! {"op":"MetricsNdjson"}
//! {"op":"MetricsProm"}
//! {"op":"Health"}
//! {"op":{"AuditTail":{"limit":16}}}
//! {"op":{"Close":{"session":"alice"}}}
//! ```
//!
//! `Metrics` returns the structured [`MetricsSnapshot`] (unchanged since
//! PR 1, so existing clients keep working); `MetricsNdjson` and
//! `MetricsProm` render the manager's full metrics *registry* — every
//! named counter/gauge/histogram, per-shard labels included — as NDJSON
//! lines and Prometheus text respectively.

use crate::metrics::{MetricsSnapshot, SessionMetrics};
use serde::{Deserialize, Serialize};

/// A client request line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// The operation to perform.
    pub op: Op,
}

/// Protocol operations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Op {
    /// Opens a session, optionally with explicit `(ε1, ε2)` thresholds.
    Open {
        /// Session id (tenant-chosen).
        session: String,
        /// Relevance threshold ε1 (default: the paper's 5%).
        eps1: Option<f64>,
        /// Exposure threshold ε2 (default: the paper's 1%).
        eps2: Option<f64>,
    },
    /// Runs one private search in a session.
    Search {
        /// Session id.
        session: String,
        /// Query text.
        query: String,
        /// Results wanted. Omitted or `0` both mean "use the session's
        /// configured `top_k`" — `0` is a sentinel, not a request for
        /// zero results.
        k: Option<usize>,
    },
    /// Reads the full metrics snapshot.
    Metrics,
    /// Dumps the metrics registry as NDJSON lines (one serialized
    /// metric per line).
    MetricsNdjson,
    /// Dumps the metrics registry in the Prometheus text format.
    MetricsProm,
    /// Reads the privacy-audit plane's aggregated health verdict
    /// (requires an attached auditor; errors otherwise).
    Health,
    /// Reads the most recent privacy-audit journal events.
    AuditTail {
        /// Maximum events to return (omitted means 32).
        limit: Option<usize>,
    },
    /// Closes a session, returning its final metrics.
    Close {
        /// Session id.
        session: String,
    },
}

/// One result hit on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HitDto {
    /// Document id.
    pub doc_id: u32,
    /// Relevance score.
    pub score: f64,
}

/// Privacy accounting of one answered search. It says nothing about the
/// result cache: which members hit it would tell a tenant what other
/// tenants searched.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchReportDto {
    /// Cycle length υ (genuine + ghosts).
    pub cycle_len: usize,
    /// `max_{t∈U} B(t|C)`.
    pub exposure: f64,
    /// `max_{t∈T\U} B(t|C)`.
    pub mask_level: f64,
    /// Whether the `(ε1, ε2)` requirement held.
    pub satisfied: bool,
    /// Protected intention topics.
    pub intention: Vec<usize>,
}

/// A server response line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Session opened.
    Opened {
        /// Session id.
        session: String,
    },
    /// Search answered.
    Results {
        /// Genuine hits (ghost results never leave the service).
        hits: Vec<HitDto>,
        /// Privacy accounting.
        report: SearchReportDto,
    },
    /// Metrics snapshot.
    Metrics(MetricsSnapshot),
    /// Registry dump, one JSON-encoded metric per element (each element
    /// parses as a `toppriv_obs::MetricSnapshot`).
    MetricsNdjson {
        /// The NDJSON lines.
        lines: Vec<String>,
    },
    /// Registry dump in Prometheus text form.
    MetricsProm {
        /// The exposition text.
        text: String,
    },
    /// Audit-plane health verdict.
    Health(toppriv_obs::HealthReport),
    /// Most recent audit-journal events, oldest first.
    AuditTail {
        /// The journal tail.
        events: Vec<toppriv_obs::AuditEvent>,
    },
    /// Session closed; final per-session metrics.
    Closed(SessionMetrics),
    /// Any failure.
    Error {
        /// Human-readable cause.
        message: String,
    },
}
