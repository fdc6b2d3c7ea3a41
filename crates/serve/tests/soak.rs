//! Fault-injection soak harness for `rbd serve`.
//!
//! Boots the real service and drives it with a concurrent fleet of
//! adversarial clients — the full corpus attack battery interleaved with
//! byte-dribbling slowloris peers, mid-body disconnects, oversized
//! bodies, garbage and pipelined request lines, and header floods — and
//! asserts the service's survival contract:
//!
//! 1. **no hangs**: every client completes within its own timeout,
//! 2. **no panics**: zero `serve_panics`, zero worker deaths,
//! 3. **correct status mapping**: every fault class gets its 4xx/5xx,
//! 4. **correct answers under fire**: well-formed documents extract
//!    byte-identically to the serial engine, concurrency notwithstanding,
//! 5. **graceful drain**: shutdown completes in-flight work.
//!
//! Set `RBD_SERVE_METRICS=path` to export the final `/metrics.json`
//! snapshot and `RBD_SERVE_TRACE_DIR=dir` to dump per-request Chrome
//! traces (CI uploads both as artifacts). Throughput is reported on
//! stdout.

use rbd_corpus::adversarial::{generate_adversarial, valid_seed_document, AttackKind};
use rbd_serve::{extraction_response_json, HttpCaps, ServeConfig, Server};
use rbd_trace::{CollectingSink, TraceSink};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x5EED_50AC;

fn soak_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        queue_capacity: 32,
        caps: HttpCaps {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        },
        io_timeout: Duration::from_millis(750),
        request_deadline: Duration::from_secs(3),
        drain_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

/// One HTTP exchange with a hard client-side timeout: if the service ever
/// hangs, the client errors instead of wedging the suite.
fn talk(addr: SocketAddr, raw: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(15)))?;
    stream.set_write_timeout(Some(Duration::from_secs(15)))?;
    stream.write_all(raw)?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

fn post_extract_raw(html: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        html.len()
    )
    .into_bytes();
    raw.extend_from_slice(html.as_bytes());
    raw
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0)
}

/// The whole battery in one test: the phases share a server on purpose —
/// the point of a soak is that fault classes interleave on a live,
/// already-exercised instance, not on a fresh one each.
#[test]
fn soak_survives_adversarial_fleet_with_correct_answers() {
    let audit = Arc::new(CollectingSink::new());
    let trace_dir = std::env::var_os("RBD_SERVE_TRACE_DIR").map(std::path::PathBuf::from);
    let config = ServeConfig {
        trace_dir: trace_dir.clone(),
        ..soak_config()
    };
    let server =
        Server::bind(config, Some(Arc::clone(&audit) as Arc<dyn TraceSink>)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Serial reference engine: identical profile to the server's default.
    let reference = rbd_core::RecordExtractor::new(rbd_core::ExtractorConfig::default())
        .expect("reference extractor");

    // ---- Phase 1: concurrent well-formed + adversarial clients --------
    let well_formed_per_client = 12usize;
    let started = Instant::now();
    let mut clients = Vec::new();
    for client_id in 0..4usize {
        let reference = reference.clone();
        clients.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            for i in 0..well_formed_per_client {
                let doc = valid_seed_document(client_id * well_formed_per_client + i, SEED);
                let response = talk(addr, &post_extract_raw(&doc)).expect("well-formed client");
                let status = status_of(&response);
                // Under load a request may be shed — that is the contract,
                // not a failure — but it must never 500 and never hang.
                assert!(
                    status == 200 || status == 422 || status == 503,
                    "unexpected status {status}: {response}"
                );
                if status == 200 {
                    // Byte-identical to the serial engine.
                    let body = response
                        .split("\r\n\r\n")
                        .nth(1)
                        .expect("response has a body");
                    let serial = reference
                        .extract_records(&doc)
                        .map(|e| extraction_response_json(&e).to_string());
                    match serial {
                        Ok(expected) => assert_eq!(body, expected, "doc {client_id}/{i}"),
                        Err(e) => panic!("server said 200 but serial engine failed: {e}"),
                    }
                    ok += 1;
                }
            }
            ok
        }));
    }
    for attack_id in 0..2usize {
        clients.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            for (i, kind) in AttackKind::ALL.iter().enumerate() {
                let doc = generate_adversarial(*kind, attack_id * 7 + i, SEED);
                let response = talk(addr, &post_extract_raw(&doc)).expect("adversarial client");
                let status = status_of(&response);
                assert!(
                    matches!(status, 200 | 408 | 413 | 422 | 503),
                    "attack {kind:?}: unexpected status {status}"
                );
                if status == 200 {
                    ok += 1;
                }
            }
            ok
        }));
    }
    // Protocol-level fault clients run interleaved with the fleet above.
    let fault_clients: Vec<std::thread::JoinHandle<()>> = vec![
        // Slowloris: dribbles one header byte per 50 ms until the server
        // cuts it off. Must be reaped by deadline, not serviced forever.
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(15)))
                .expect("timeout");
            let head = b"POST /extract HTTP/1.1\r\nX-Slow: ";
            for &byte in head.iter().cycle().take(head.len() + 80) {
                if stream.write_all(&[byte]).is_err() {
                    return; // server cut us off early: acceptable
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            let mut out = String::new();
            // Either a 408 arrives or the server already closed on us.
            if stream.read_to_string(&mut out).is_ok() && !out.is_empty() {
                assert_eq!(status_of(&out), 408, "{out}");
            }
        }),
        // Mid-body disconnect: declares 10 000 bytes, sends 100, vanishes.
        std::thread::spawn(move || {
            for i in 0..3 {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .write_all(b"POST /extract HTTP/1.1\r\nContent-Length: 10000\r\n\r\n")
                    .expect("head");
                let _ = stream.write_all(&vec![b'x'; 100 + i]);
                drop(stream); // RST/FIN mid-body
            }
        }),
        // Oversized body: declared over the cap → 413 before upload.
        std::thread::spawn(move || {
            let response = talk(
                addr,
                b"POST /extract HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            )
            .expect("oversized client");
            assert_eq!(status_of(&response), 413, "{response}");
        }),
        // Garbage request line → 400.
        std::thread::spawn(move || {
            let response = talk(addr, b"\x01\x02 utter garbage\r\n\r\n").expect("garbage client");
            assert_eq!(status_of(&response), 400, "{response}");
        }),
        // Pipelined request lines: only the first is answered; the
        // connection closes (`Connection: close`) instead of parsing the
        // smuggled second request.
        std::thread::spawn(move || {
            let response = talk(
                addr,
                b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
            )
            .expect("pipelining client");
            assert_eq!(status_of(&response), 200, "{response}");
            assert_eq!(response.matches("HTTP/1.1").count(), 1, "{response}");
        }),
        // Header flood → 431.
        std::thread::spawn(move || {
            let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
            for i in 0..2000 {
                raw.extend_from_slice(format!("X-Flood-{i}: {}\r\n", "v".repeat(32)).as_bytes());
            }
            raw.extend_from_slice(b"\r\n");
            let response = talk(addr, &raw).expect("flood client");
            assert_eq!(status_of(&response), 431, "{response}");
        }),
    ];

    let mut extracted_ok = 0usize;
    for client in clients {
        extracted_ok += client.join().expect("client thread");
    }
    for fault in fault_clients {
        fault.join().expect("fault client thread");
    }
    let elapsed = started.elapsed();
    assert!(
        extracted_ok >= 4 * well_formed_per_client / 2,
        "too few successes"
    );

    // ---- Phase 2: metrics + audit-stream checks -----------------------
    // `/metrics` speaks Prometheus text by default; the rolling p99 must
    // be live while soak traffic is still inside the 1-minute window.
    let prom = talk(addr, b"GET /metrics HTTP/1.1\r\n\r\n").expect("prometheus metrics");
    assert_eq!(status_of(&prom), 200);
    assert!(prom.contains("# TYPE serve_requests_ok counter"), "{prom}");
    assert!(
        prom.contains("rbd_window_latency_ns{window=\"1m\",quantile=\"0.99\"}"),
        "rolling p99 missing under live traffic:\n{prom}"
    );

    let metrics = talk(addr, b"GET /metrics.json HTTP/1.1\r\n\r\n").expect("metrics");
    assert_eq!(status_of(&metrics), 200);
    let metrics_body = metrics
        .split("\r\n\r\n")
        .nth(1)
        .expect("metrics body")
        .to_string();
    let parsed = rbd_json::Json::parse(&metrics_body).expect("metrics is valid JSON");
    let panics = parsed
        .get("server")
        .and_then(|s| s.get("panics"))
        .and_then(rbd_json::Json::as_f64)
        .expect("panics counter");
    assert_eq!(
        panics, 0.0,
        "extraction panicked under soak:\n{metrics_body}"
    );
    let one_m = parsed
        .get("windows")
        .and_then(|w| w.get("1m"))
        .expect("1m rolling window in metrics.json");
    let window_count = one_m
        .get("count")
        .and_then(rbd_json::Json::as_f64)
        .expect("window count");
    assert!(
        window_count >= 1.0,
        "soak traffic must land in the 1m window:\n{metrics_body}"
    );
    let p99 = one_m
        .get("p99_ns")
        .and_then(rbd_json::Json::as_f64)
        .expect("rolling p99 over live traffic");
    assert!(p99 > 0.0, "{metrics_body}");
    let error_rate = one_m
        .get("error_rate")
        .and_then(rbd_json::Json::as_f64)
        .expect("rolling error rate");
    assert!((0.0..=1.0).contains(&error_rate), "{metrics_body}");
    if let Ok(path) = std::env::var("RBD_SERVE_METRICS") {
        std::fs::write(&path, &metrics_body).expect("export metrics snapshot");
    }
    if let Some(dir) = &trace_dir {
        let traces = std::fs::read_dir(dir)
            .expect("trace dir readable")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("trace-"))
            .count();
        assert!(
            traces >= 1,
            "RBD_SERVE_TRACE_DIR set but no Chrome traces written"
        );
    }

    let kinds: Vec<&'static str> = audit
        .events()
        .iter()
        .map(rbd_trace::TraceEvent::kind)
        .collect();
    assert!(
        kinds.contains(&"server_conn_accepted"),
        "audit stream missing accepts: {kinds:?}"
    );
    assert!(
        kinds.contains(&"server_deadline"),
        "slowloris reap should emit a deadline event: {kinds:?}"
    );

    // Every span the audit stream saw belongs to exactly one request
    // tree: a single `serve:request` root per trace, every parent
    // resolving inside the same trace.
    let spans = audit.spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "serve:request").collect();
    assert!(!roots.is_empty(), "soak produced no request roots");
    for root in &roots {
        assert!(root.parent.is_none(), "request root has a parent: {root:?}");
        let tree: Vec<_> = spans.iter().filter(|s| s.trace == root.trace).collect();
        assert_eq!(
            tree.iter().filter(|s| s.parent.is_none()).count(),
            1,
            "trace {} must have exactly one root",
            root.trace.to_hex()
        );
        for span in &tree {
            if let Some(parent) = span.parent {
                assert!(
                    tree.iter().any(|s| s.span == parent),
                    "span {span:?} has a parent outside its own trace"
                );
            }
        }
    }
    assert!(
        spans.iter().any(|s| s.name == "serve:queue_wait"),
        "queue wait must be recorded per request"
    );
    assert!(
        spans.iter().any(|s| s.name == "tokenize"),
        "extraction stages must parent under the request tree"
    );

    // ---- Phase 3: graceful shutdown drains in-flight work -------------
    let draining = std::thread::spawn(move || {
        // This request is in flight when shutdown triggers below; the
        // drain must still answer it.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .expect("timeout");
        let doc = valid_seed_document(999, SEED);
        let raw = post_extract_raw(&doc);
        let (head, body) = raw.split_at(raw.len() / 2);
        stream.write_all(head).expect("first half");
        std::thread::sleep(Duration::from_millis(200));
        stream.write_all(body).expect("second half");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("drained response");
        assert_eq!(status_of(&out), 200, "{out}");
    });
    std::thread::sleep(Duration::from_millis(50));
    shutdown.trigger();
    let report = server_thread.join().expect("server thread");
    draining.join().expect("draining client");

    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.abandoned, 0, "drain abandoned workers");
    assert_eq!(
        report
            .metrics
            .counters
            .get("serve_panics")
            .copied()
            .unwrap_or(0),
        0
    );
    assert!(
        report
            .metrics
            .counters
            .get("serve_timeouts")
            .copied()
            .unwrap_or(0)
            >= 1,
        "slowloris must be reaped as a timeout"
    );
    assert!(
        kinds.contains(&"server_drained") || {
            // Drained fires at run() exit, after the kinds snapshot above —
            // re-read the audit stream for it.
            audit.events().iter().any(|e| e.kind() == "server_drained")
        }
    );

    let docs_per_sec = extracted_ok as f64 / elapsed.as_secs_f64();
    println!(
        "soak: {extracted_ok} extractions in {:.2}s ({docs_per_sec:.1} docs/s), \
         {} accepted, {} shed, {} timeouts",
        elapsed.as_secs_f64(),
        report
            .metrics
            .counters
            .get("serve_conns_accepted")
            .copied()
            .unwrap_or(0),
        report
            .metrics
            .counters
            .get("serve_requests_shed")
            .copied()
            .unwrap_or(0),
        report
            .metrics
            .counters
            .get("serve_timeouts")
            .copied()
            .unwrap_or(0),
    );
}

/// Deterministic overload through the service's only admission gate: with
/// one worker held by a slowloris request and the one queue slot held by a
/// second, the next connection is refused `503` with `Retry-After` —
/// shedding, not queueing.
#[test]
fn full_queue_sheds_with_retry_after() {
    let server = Server::bind(
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            io_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // The first holder occupies the worker; once the worker has picked it
    // up, the second holder sits in the single queue slot.
    let partial = b"POST /extract HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
    let mut running = TcpStream::connect(addr).expect("connect running holder");
    running.write_all(partial).expect("partial request");
    std::thread::sleep(Duration::from_millis(300));
    let mut queued = TcpStream::connect(addr).expect("connect queued holder");
    queued.write_all(partial).expect("partial request");
    std::thread::sleep(Duration::from_millis(300));

    let refused = talk(addr, b"GET /healthz HTTP/1.1\r\n\r\n").expect("refused client");
    assert_eq!(status_of(&refused), 503, "{refused}");
    assert!(refused.contains("Retry-After: 1\r\n"), "{refused}");
    assert!(refused.contains("\"kind\":\"overload\""), "{refused}");

    // Finish both holders in order; the service then answers normally.
    for (name, holder) in [("running", &mut running), ("queued", &mut queued)] {
        holder.write_all(b"hello").expect("finish holder");
        let mut out = String::new();
        holder.read_to_string(&mut out).expect("holder response");
        assert_eq!(
            status_of(&out),
            422,
            "{name}: plain text has no tags: {out}"
        );
    }
    let healthy = talk(addr, b"GET /healthz HTTP/1.1\r\n\r\n").expect("recovered client");
    assert_eq!(status_of(&healthy), 200, "service must recover: {healthy}");

    shutdown.trigger();
    let report = server_thread.join().expect("server thread");
    assert!(
        report
            .metrics
            .counters
            .get("serve_requests_shed")
            .copied()
            .unwrap_or(0)
            >= 1
    );
}

/// A worker wedged past the drain deadline is abandoned, not waited on
/// forever: shutdown must return promptly and report it.
#[test]
fn drain_deadline_abandons_wedged_connection() {
    let server = Server::bind(
        ServeConfig {
            workers: 1,
            io_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Wedge the worker: open a request and never finish it. The generous
    // io/request deadlines keep it alive far past the drain deadline.
    let mut wedge = TcpStream::connect(addr).expect("connect");
    wedge
        .write_all(b"POST /extract HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-little")
        .expect("wedge request");
    std::thread::sleep(Duration::from_millis(300));

    let drain_started = Instant::now();
    shutdown.trigger();
    let report = server_thread.join().expect("server thread");
    assert!(
        drain_started.elapsed() < Duration::from_secs(10),
        "shutdown must not wait out a 30s-deadline straggler"
    );
    assert_eq!(report.abandoned, 1, "the wedged worker is abandoned");
    drop(wedge);
}

/// Faults on one connection must not corrupt the next: alternate garbage
/// and well-formed requests on a single-worker server and require every
/// well-formed one to succeed.
#[test]
fn faults_do_not_poison_subsequent_requests() {
    let server = Server::bind(
        ServeConfig {
            workers: 1,
            io_timeout: Duration::from_millis(500),
            request_deadline: Duration::from_secs(2),
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let doc = valid_seed_document(7, SEED);
    for round in 0..5 {
        // Fault: garbage, then a mid-body disconnect.
        let garbage = talk(addr, b"NOT-HTTP\r\n\r\n");
        assert!(garbage.is_ok_and(|r| status_of(&r) == 400), "round {round}");
        let mut dropper = TcpStream::connect(addr).expect("connect dropper");
        let _ = dropper.write_all(b"POST /extract HTTP/1.1\r\nContent-Length: 50\r\n\r\nx");
        drop(dropper);

        // Recovery: a well-formed extraction must still succeed.
        let response = talk(addr, &post_extract_raw(&doc)).expect("well-formed");
        assert_eq!(status_of(&response), 200, "round {round}: {response}");
    }

    shutdown.trigger();
    let report = server_thread.join().expect("server thread");
    assert_eq!(report.worker_panics, 0);
}
