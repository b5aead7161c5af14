//! Protocol server: NDJSON over any line stream, plus a TCP front end.
//!
//! The wire rule is one segment per response. [`serve_lines`] builds the
//! response *and* its newline into one buffer and hands that to the
//! writer in a single `write_all`; accepted sockets run with
//! `TCP_NODELAY`. Written as body-then-newline, the newline is a second
//! small segment that Nagle's algorithm holds until the body is
//! acknowledged, and a client that answers each response at once delays
//! that ACK by 40 ms: a closed-loop `Search` then took 44 ms at the
//! socket for 3 ms of work (`server.transport_us` in `benchmark/`'s
//! ledger). Request lines are read through a 64 KiB cap.
//!
//! That stall was also, by accident, the only limit on what one
//! connection could ask of the server. Without it a client that answers
//! every response at once keeps a service thread busy without pause, and
//! there is a thread per connection and no cap on connections: as many
//! such clients as there are cores set every other tenant's latency. So
//! a TCP connection is paced on purpose instead, by a token bucket: it
//! earns one request start per [`CONNECTION_REQUEST_INTERVAL`], keeps at
//! most [`CONNECTION_BURST`] of them, and a request that finds none
//! stays unread until the next is earned. The sustained rate is the
//! interval's; what the bucket adds is that a connection which rested
//! may send a follow-up straight after an answer without being held. A
//! new connection starts with one start, not a full bucket, so opening
//! connections buys no burst. The stdin mode is not paced.

use crate::protocol::{HitDto, Op, Request, Response, SearchReportDto};
use crate::session::{ServiceError, SessionConfig, SessionManager};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use toppriv_core::PrivacyRequirement;

/// Handles one request against the manager.
pub fn handle(manager: &SessionManager, request: Request) -> Response {
    match request.op {
        Op::Open {
            session,
            eps1,
            eps2,
        } => {
            let default = PrivacyRequirement::paper_default();
            let requirement = match PrivacyRequirement::new(
                eps1.unwrap_or(default.eps1),
                eps2.unwrap_or(default.eps2),
            ) {
                Ok(r) => r,
                Err(e) => {
                    return Response::Error {
                        message: e.to_string(),
                    }
                }
            };
            let config = SessionConfig {
                requirement,
                ..SessionConfig::default()
            };
            match manager.open_session_with(&session, config) {
                Ok(()) => Response::Opened { session },
                Err(e) => error(e),
            }
        }
        Op::Search { session, query, k } => {
            match manager.search(&session, &query, k.unwrap_or(0)) {
                Ok(outcome) => Response::Results {
                    hits: outcome
                        .hits
                        .iter()
                        .map(|h| HitDto {
                            doc_id: h.doc_id,
                            score: h.score,
                        })
                        .collect(),
                    report: SearchReportDto {
                        cycle_len: outcome.report.cycle_len(),
                        exposure: outcome.report.metrics.exposure,
                        mask_level: outcome.report.metrics.mask_level,
                        satisfied: outcome.report.satisfied,
                        intention: outcome.report.intention.clone(),
                    },
                },
                Err(e) => error(e),
            }
        }
        Op::Metrics => Response::Metrics(manager.metrics()),
        Op::MetricsNdjson => Response::MetricsNdjson {
            lines: toppriv_obs::render_ndjson(manager.metrics_registry().registry()),
        },
        Op::MetricsProm => Response::MetricsProm {
            text: toppriv_obs::render_prometheus(manager.metrics_registry().registry()),
        },
        Op::Health => match manager.auditor() {
            Some(auditor) => Response::Health(auditor.health()),
            None => Response::Error {
                message: "audit plane not attached".into(),
            },
        },
        Op::AuditTail { limit } => match manager.auditor() {
            Some(auditor) => Response::AuditTail {
                events: auditor.tail(limit.unwrap_or(32)),
            },
            None => Response::Error {
                message: "audit plane not attached".into(),
            },
        },
        Op::Close { session } => match manager.close_session(&session) {
            Ok(metrics) => Response::Closed(metrics),
            Err(e) => error(e),
        },
    }
}

fn error(e: ServiceError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

/// Longest request line accepted, in bytes, not counting its newline.
/// Without a cap one client that never sends a newline grows the line
/// buffer until the process dies.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// The time in which one TCP connection earns one request start: 50
/// requests a second sustained, whatever the requests cost. A client
/// that leaves this long between its requests never waits; one that
/// does not is held to it by backpressure, never by an error. It is a
/// constant, not an option, until there is admission control to replace
/// it.
pub const CONNECTION_REQUEST_INTERVAL: Duration = Duration::from_millis(20);

/// Most request starts a connection can have saved: after resting this
/// many intervals it may start this many requests at once, then is back
/// to one per interval.
pub const CONNECTION_BURST: u32 = 4;

/// Serves NDJSON requests from `reader`, writing one JSON response per
/// line to `writer`. Returns when the reader is exhausted, or after
/// answering a line longer than `MAX_REQUEST_LINE` with a typed error
/// (the rest of that stream cannot be framed, so the caller closes it).
///
/// Each response and its newline reach `writer` in one `write_all`,
/// then a `flush`.
pub fn serve_lines<R: BufRead, W: Write>(
    manager: &SessionManager,
    reader: R,
    writer: W,
) -> std::io::Result<()> {
    serve_paced(manager, reader, writer, Duration::ZERO)
}

/// [`serve_lines`] with request starts earned one per `interval` and at
/// most [`CONNECTION_BURST`] saved. A request that arrives with none
/// saved waits, and nothing further is read from the stream meanwhile.
fn serve_paced<R: BufRead, W: Write>(
    manager: &SessionManager,
    mut reader: R,
    mut writer: W,
    interval: Duration,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    // When the next request may start. It advances from the due time,
    // not from the wake-up, so a late timer does not stretch the next
    // interval as well. Each interval it lies in the past is one saved
    // start, and it is never left further back than the bucket holds.
    let mut due = Instant::now();
    let saved = interval * (CONNECTION_BURST - 1);
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        let read = (&mut reader).take(limit).read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(());
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            return write_response(&mut writer, &Response::Error { message });
        }
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let now = Instant::now();
        std::thread::sleep(due.saturating_duration_since(now));
        due = now.checked_sub(saved).map_or(due, |oldest| due.max(oldest)) + interval;
        let response = match serde_json::from_slice::<Request>(&line) {
            Ok(request) => handle(manager, request),
            Err(e) => Response::Error {
                message: format!("unparseable request: {e}"),
            },
        };
        write_response(&mut writer, &response)?;
    }
}

/// Writes `response` and its newline as one frame — a single
/// `write_all`, so one segment on a socket — and flushes.
fn write_response(writer: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut frame = serde_json::to_string(response)
        .unwrap_or_else(|e| format!("{{\"Error\":{{\"message\":\"encode: {e}\"}}}}"));
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// Binds `addr` and serves it with [`serve_listener`].
pub fn serve_tcp(manager: Arc<SessionManager>, addr: impl ToSocketAddrs) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("[toppriv-serve] listening on {}", listener.local_addr()?);
    serve_listener(manager, listener)
}

/// Accepts TCP connections forever, one service thread per connection,
/// all sharing the same manager (and therefore the same model, engine,
/// cache, and metrics). A connection that cannot be set up is logged and
/// dropped, and a failed `accept` (`ECONNABORTED`, `EMFILE`, ...) is
/// logged and retried: neither ends the server.
pub fn serve_listener(manager: Arc<SessionManager>, listener: TcpListener) -> ! {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(connection) => connection,
            Err(e) => {
                eprintln!("[toppriv-serve] accept: {e}");
                // Out of descriptors does not clear by itself at once.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let manager = manager.clone();
        let served = std::thread::Builder::new().spawn(move || {
            // Responses are written whole, so there is nothing for
            // Nagle's algorithm to coalesce, only a reply to hold back.
            let result = stream
                .set_nodelay(true)
                .and_then(|()| stream.try_clone())
                .and_then(|read_half| {
                    let reader = BufReader::new(read_half);
                    serve_paced(&manager, reader, stream, CONNECTION_REQUEST_INTERVAL)
                });
            if let Err(e) = result {
                eprintln!("[toppriv-serve] connection {peer}: {e}");
            }
        });
        if let Err(e) = served {
            eprintln!("[toppriv-serve] connection {peer}: no thread: {e}");
        }
    }
}
