//! The wire rules of `serve_lines` / `serve_listener`: one write per
//! response, no Nagle/delayed-ACK stall between back-to-back requests,
//! pipelined requests answered in order, a capped request line, and a
//! TCP connection paced by a token bucket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use toppriv_service::server::{CONNECTION_BURST, CONNECTION_REQUEST_INTERVAL};
use toppriv_service::{serve_lines, serve_listener, Op, Request, Response, SessionManager};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_search::{ScoringModel, SearchEngine};
use tsearch_text::Analyzer;

/// A small stack and the texts of a few queries its vocabulary knows.
fn stack() -> (Arc<SessionManager>, Vec<String>) {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 200,
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
            ..LdaConfig::with_topics(12)
        },
    ));
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 8,
            ..WorkloadConfig::default()
        },
    );
    let manager = Arc::new(SessionManager::new(engine, model).with_cache(2048));
    (manager, queries.into_iter().map(|q| q.text).collect())
}

fn line(op: Op) -> String {
    let mut line = serde_json::to_string(&Request { op }).expect("request encodes");
    line.push('\n');
    line
}

fn open(session: &str) -> String {
    line(Op::Open {
        session: session.into(),
        eps1: None,
        eps2: None,
    })
}

/// Serves `manager` on an ephemeral loopback port. The accept loop never
/// returns; its thread ends with the test process.
fn serve(manager: Arc<SessionManager>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        serve_listener(manager, listener);
    });
    addr
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
}

fn read_response(reader: &mut impl BufRead) -> Option<Response> {
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("read a response line");
    (read > 0).then(|| serde_json::from_str(&line).expect("response parses"))
}

/// Keeps the bytes of every `write` call it receives, one entry each.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn each_response_is_one_write_ending_in_a_newline() {
    let (manager, queries) = stack();
    let input = [
        open("w"),
        line(Op::Search {
            session: "w".into(),
            query: queries[0].clone(),
            k: Some(5),
        }),
        "not json\n".to_string(),
        "\n".to_string(),
        line(Op::Metrics),
    ]
    .concat();
    let mut out = CountingWriter::default();
    serve_lines(&manager, input.as_bytes(), &mut out).expect("serve");
    assert_eq!(out.writes.len(), 4, "four requests, four writes");
    for write in &out.writes {
        assert_eq!(write.last(), Some(&b'\n'));
        assert_eq!(write.iter().filter(|&&b| b == b'\n').count(), 1);
    }
    let kinds: Vec<Response> = out
        .writes
        .iter()
        .map(|w| serde_json::from_slice(w).expect("response parses"))
        .collect();
    assert!(matches!(kinds[0], Response::Opened { .. }));
    assert!(matches!(kinds[1], Response::Results { .. }));
    assert!(matches!(kinds[2], Response::Error { .. }));
    assert!(matches!(kinds[3], Response::Metrics(_)));
}

#[test]
fn back_to_back_searches_do_not_wait_for_a_delayed_ack() {
    let (manager, queries) = stack();
    let addr = serve(manager);
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(open("fast").as_bytes()).expect("send");
    assert!(matches!(
        read_response(&mut reader),
        Some(Response::Opened { .. })
    ));
    // A client that answers each response at once is in TCP ping-pong
    // mode and delays its ACKs by 40 ms: a server that writes a response
    // in two segments waits that long before the second leaves. The pace
    // of a connection is half that.
    let started = Instant::now();
    for i in 0..40 {
        let request = line(Op::Search {
            session: "fast".into(),
            query: queries[i % queries.len()].clone(),
            k: Some(5),
        });
        stream.write_all(request.as_bytes()).expect("send");
        assert!(matches!(
            read_response(&mut reader),
            Some(Response::Results { .. })
        ));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(1200),
        "40 searches took {elapsed:?}: a 40 ms stall per response is back"
    );
}

#[test]
fn a_k_beyond_the_corpus_returns_every_match_and_the_server_lives() {
    const NUM_DOCS: usize = 200;
    let (manager, queries) = stack();
    let addr = serve(manager);
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(open("big").as_bytes()).expect("send");
    assert!(matches!(
        read_response(&mut reader),
        Some(Response::Opened { .. })
    ));
    let mut ask = |k: usize| -> Vec<(u32, u64)> {
        let request = line(Op::Search {
            session: "big".into(),
            query: queries[0].clone(),
            k: Some(k),
        });
        stream.write_all(request.as_bytes()).expect("send");
        match read_response(&mut reader) {
            Some(Response::Results { hits, .. }) => {
                hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
            }
            other => panic!("k = {k}: expected Results, got {other:?}"),
        }
    };
    let every_match = ask(NUM_DOCS);
    assert!(!every_match.is_empty() && every_match.len() <= NUM_DOCS);
    // `k` comes off the wire; it must bound what is kept, not what is
    // reserved (10^12 hits would be 16 TB, and `u64::MAX + 1` overflows).
    assert_eq!(ask(1_000_000_000_000), every_match);
    assert_eq!(ask(usize::MAX), every_match);

    // The process — here, the accept loop — is still there for others.
    let mut second = connect(addr);
    second.write_all(open("after").as_bytes()).expect("send");
    let mut reader = BufReader::new(second);
    assert!(matches!(
        read_response(&mut reader),
        Some(Response::Opened { .. })
    ));
}

#[test]
fn requests_sent_in_one_segment_are_answered_in_order() {
    let (manager, _) = stack();
    let addr = serve(manager);
    let mut stream = connect(addr);
    let batch = [open("first"), open("second"), open("third")].concat();
    stream.write_all(batch.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    for expected in ["first", "second", "third"] {
        match read_response(&mut reader) {
            Some(Response::Opened { session }) => assert_eq!(session, expected),
            other => panic!("expected Opened({expected}), got {other:?}"),
        }
    }
}

#[test]
fn a_tcp_connection_is_paced_and_a_line_stream_is_not() {
    let (manager, _) = stack();
    let sessions = ["a", "b", "c", "d", "e", "f"];
    let batch: String = sessions.iter().map(|s| open(s)).collect();
    let gaps = sessions.len() as u32 - 1;

    // A new connection holds one request start, not a full bucket: the
    // clock starts before the connection exists, as its bucket's does not.
    let addr = serve(manager.clone());
    let started = Instant::now();
    let mut stream = connect(addr);
    stream.write_all(batch.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    for _ in sessions {
        assert!(matches!(
            read_response(&mut reader),
            Some(Response::Opened { .. })
        ));
    }
    let paced = started.elapsed();
    assert!(
        paced >= CONNECTION_REQUEST_INTERVAL * gaps,
        "six requests at once on a new connection were answered in {paced:?}"
    );

    // The same lines from a plain reader (the `--stdin` mode): the
    // sessions exist by now, so each gets an error, and none waits.
    let started = Instant::now();
    let mut out = CountingWriter::default();
    serve_lines(&manager, batch.as_bytes(), &mut out).expect("serve");
    assert_eq!(out.writes.len(), sessions.len());
    assert!(started.elapsed() < CONNECTION_REQUEST_INTERVAL * gaps);
}

#[test]
fn a_rested_connection_may_burst() {
    let (manager, _) = stack();
    let addr = serve(manager);
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let interval = CONNECTION_REQUEST_INTERVAL;
    let burst = CONNECTION_BURST as usize;

    // Sends `lines` `Metrics` requests at once; when each answer arrived,
    // counted from the send.
    let mut ask_at_once = |lines: usize| -> Vec<Duration> {
        let batch = line(Op::Metrics).repeat(lines);
        let sent = Instant::now();
        stream.write_all(batch.as_bytes()).expect("send");
        (0..lines)
            .map(|_| {
                read_response(&mut reader).expect("an answer per line");
                sent.elapsed()
            })
            .collect()
    };

    // The lower bounds hold on every attempt; "inside one interval" is an
    // upper bound on a shared machine, so it gets three.
    let mut burst_seen = false;
    for _ in 0..3 {
        std::thread::sleep(interval * (CONNECTION_BURST + 1));
        let answered = ask_at_once(burst + 2);
        assert!(
            answered[burst] >= interval && answered[burst + 1] >= interval * 2,
            "the bucket holds {burst} starts, yet {} lines were answered at {answered:?}",
            burst + 2
        );
        burst_seen |= answered[burst - 1] < interval;
    }
    assert!(
        burst_seen,
        "a connection that rested {burst} intervals was still held to one line per interval"
    );

    // A closed loop earns what it spends: 50 starts a second, as before.
    std::thread::sleep(interval * (CONNECTION_BURST + 1));
    ask_at_once(burst);
    let started = Instant::now();
    let mut requests = 0;
    while started.elapsed() < Duration::from_secs(1) {
        ask_at_once(1);
        requests += 1;
    }
    assert!(
        (48..=52).contains(&requests),
        "one second of closed loop was {requests} requests"
    );
}

#[test]
fn an_over_long_line_gets_a_typed_error_and_the_connection_is_closed() {
    let (manager, _) = stack();
    let addr = serve(manager);
    let mut stream = connect(addr);
    // One byte over the cap and no newline: the server reads all of it,
    // so its close is a clean FIN.
    stream.write_all(&vec![b'x'; 65_537]).expect("send");
    let mut reader = BufReader::new(stream);
    match read_response(&mut reader) {
        Some(Response::Error { message }) => {
            assert_eq!(message, "request line exceeds 65536 bytes")
        }
        other => panic!("expected the line-cap error, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after the error");
    assert!(rest.is_empty());

    // A line of exactly the cap is still a request (here: an unparseable
    // one), and the server goes on serving that connection and new ones.
    let mut stream = connect(addr);
    let mut at_cap = vec![b'x'; 65_536];
    at_cap.push(b'\n');
    stream.write_all(&at_cap).expect("send");
    stream.write_all(open("after").as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    match read_response(&mut reader) {
        Some(Response::Error { message }) => assert!(message.starts_with("unparseable request")),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(matches!(
        read_response(&mut reader),
        Some(Response::Opened { .. })
    ));
}
