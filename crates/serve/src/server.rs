//! The long-lived extraction service: accept loop, admission control,
//! request routing, and graceful drain.
//!
//! ## Shape
//!
//! ```text
//!  accept loop (this thread)          rbd-pipeline pool (N workers)
//!  ───────────────────────           ───────────────────────────────
//!  accept → arm socket deadlines
//!         → try_submit ────────────queue full─▶ 503 + Retry-After
//!                      └──────────admitted───▶ worker: parse request
//!                                              → route → extract
//!                                              → write response → close
//! ```
//!
//! Each accepted connection is one pool job; the worker owns the socket
//! end to end, so backpressure is structural — when every worker is busy
//! and the bounded injector is full, new connections are *refused* with a
//! retryable status instead of piling up in unbounded buffers.
//!
//! ## Fault containment
//!
//! - Socket read/write timeouts and an overall per-request [`Deadline`]
//!   bound every peer interaction (slowloris defense, 408).
//! - The request head and body are capped before allocation (431 / 413).
//! - An extraction panic is caught at the request boundary, answered with
//!   500, traced as [`ServerEvent::WorkerPanic`], and counted — the worker
//!   thread survives.
//! - Shutdown (via [`ShutdownHandle`], which `POST /shutdown` also
//!   calls) stops the accept loop, then drains in-flight work under
//!   [`ServeConfig::drain_deadline`]; wedged workers are abandoned rather
//!   than holding the process open.

use crate::http::{self, HttpCaps, HttpError, Request, Response};
use rbd_core::{DiscoveryError, Extraction, ExtractorConfig, Limits, RecordExtractor};
use rbd_json::Json;
use rbd_limits::Deadline;
use rbd_pipeline::{Pool, PoolConfig, PoolError, TrySubmitError};
use rbd_store::{extraction_response_json, ContentHash, Store, StoredDoc};
use rbd_trace::{
    export, unix_micros, MetricsSink, NullSink, RegistrySnapshot, RollingWindows, ScopedSink,
    ServerEvent, SlowCapture, SlowLog, SpanId, SpanRecord, TraceEvent, TraceId, TraceSink,
};
use std::io::{ErrorKind, Read, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often the nonblocking accept loop polls for new connections and
/// re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How long a refused connection is parked after its 503 so the peer can
/// read the response before we close. Closing a socket that still has
/// unread request bytes makes the kernel send RST, which can discard the
/// response from the peer's receive buffer — the parking window lets the
/// exchange settle without blocking the accept thread.
const PARTING_GRACE: Duration = Duration::from_millis(250);

/// Parked refused connections are capped; past this, new refusals close
/// immediately (an RST to a peer we are shedding under flood is fine).
const PARTING_MAX: usize = 64;

/// Service sizing and fault-tolerance policy. Every bound has a default
/// that keeps a misbehaving peer from taking the service down; `rbd serve`
/// exposes the ones operators actually tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:8080"`. Port 0 picks a free port
    /// (see [`Server::local_addr`]).
    pub addr: String,
    /// Extraction worker threads.
    pub workers: usize,
    /// Bounded injector capacity — connections admitted but not yet
    /// picked up by a worker. A connection arriving at a full queue is
    /// refused with 503; this is the service's only admission gate.
    pub queue_capacity: usize,
    /// HTTP parsing caps (head → 431, body → 413).
    pub caps: HttpCaps,
    /// Socket read/write timeout armed on every accepted connection.
    pub io_timeout: Duration,
    /// Overall wall-clock budget for reading one request (408 past it).
    pub request_deadline: Duration,
    /// How long graceful shutdown waits for in-flight requests before
    /// abandoning wedged workers.
    pub drain_deadline: Duration,
    /// `Retry-After` seconds sent with every 503.
    pub retry_after_s: u64,
    /// When set, each traced request's span tree is written to
    /// `<dir>/trace-<id>.json` in Chrome trace-event format, and slow
    /// captures append to `<dir>/slow.jsonl`.
    pub trace_dir: Option<PathBuf>,
    /// Requests at or over this latency get their full span tree and
    /// audit events kept in the bounded slow log. `None` disables capture.
    pub slow_threshold: Option<Duration>,
    /// When set, the persistent record store at this path backs
    /// `POST /extract` as a content-hash cache (DESIGN.md §14): a request
    /// body whose 256-bit fingerprint is already committed is answered
    /// from the store without running extraction, and fresh
    /// default-profile extractions are committed back. Responses carry
    /// `x-rbd-cache: hit|miss`.
    pub store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            caps: HttpCaps::default(),
            io_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            retry_after_s: 1,
            trace_dir: None,
            slow_threshold: None,
            store: None,
        }
    }
}

/// Why the service could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listener failed.
    Bind(String),
    /// The worker pool could not start.
    Pool(PoolError),
    /// Building the extraction profiles failed (ontology/pattern errors).
    Extractor(String),
    /// The persistent record store could not be opened (I/O failure or a
    /// corrupt file the recovery scan refused).
    Store(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind failed: {e}"),
            ServeError::Pool(e) => write!(f, "worker pool failed: {e}"),
            ServeError::Extractor(e) => write!(f, "extractor setup failed: {e}"),
            ServeError::Store(e) => write!(f, "record store failed to open: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What [`Server::run`] hands back after the drain completes.
#[derive(Debug)]
pub struct ServeReport {
    /// Connections that finished during the drain window.
    pub drained: usize,
    /// Workers abandoned at the drain deadline (0 on a clean drain).
    pub abandoned: usize,
    /// Workers that died outside a job (should always be zero).
    pub worker_panics: usize,
    /// Server counters merged with the pool's per-worker registries.
    pub metrics: RegistrySnapshot,
}

/// Stops the accept loop from another thread — the in-process analogue
/// of SIGTERM (which `std` cannot trap portably). `POST /shutdown` goes
/// through the same handle.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    requested: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests graceful shutdown: stop accepting, drain, exit.
    pub fn trigger(&self) {
        self.requested.store(true, Ordering::SeqCst);
    }
}

/// The three extraction profiles a request can select with the
/// `x-rbd-limits` header. Built once at startup; extractors are reused
/// across requests (the paper's "configured once" contract).
struct Profiles {
    default_profile: RecordExtractor,
    strict: RecordExtractor,
    unbounded: RecordExtractor,
}

/// State shared between the accept loop and every worker.
struct Ctx {
    profiles: Profiles,
    /// The persistent extraction cache, when `rbd serve --store` asked
    /// for one. The mutex guards single-writer access to the append-only
    /// log; hit lookups are two reads (index probe + one frame), so the
    /// critical section stays tiny compared to an extraction.
    store: Option<Mutex<Store>>,
    metrics: Arc<MetricsSink>,
    audit: Arc<dyn TraceSink>,
    windows: RollingWindows,
    slow: Option<SlowLog>,
    trace_dir: Option<PathBuf>,
    started: Instant,
    active: AtomicUsize,
    shutdown: ShutdownHandle,
    caps: HttpCaps,
    request_deadline: Duration,
    retry_after_s: u64,
}

impl Ctx {
    /// Whether any consumer wants per-request span trees. When false,
    /// requests run the metrics-only path: no span collection, no clock
    /// reads beyond the one latency measurement every request pays.
    fn collecting(&self) -> bool {
        self.audit.enabled() || self.trace_dir.is_some() || self.slow.is_some()
    }
}

/// A connection in flight between accept and worker pickup. Carrying the
/// accept timestamps lets the worker reconstruct queue wait as a span
/// without the accept thread doing any tracing work.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    accepted: Instant,
    accepted_us: u64,
}

/// How many slow captures the in-memory log retains (oldest evicted).
const SLOW_LOG_CAP: usize = 256;

/// Per-request trace assembly: the request's [`TraceId`], the synthetic
/// serve-layer spans (`serve:request` → `serve:queue_wait` /
/// `serve:worker`), and — while [`Ctx::collecting`] — every span and
/// audit event the extraction emits, stamped onto the request's tree by
/// the [`ScopedSink`] wrapped around this sink.
///
/// Spans always flow through to the [`MetricsSink`] so the cumulative
/// latency histograms see them; local collection is what audit export,
/// Chrome-trace files, and the slow log read at request end.
#[derive(Debug)]
struct RequestTrace {
    trace: TraceId,
    root: SpanId,
    worker: SpanId,
    collecting: bool,
    accepted: Instant,
    accepted_us: u64,
    job_started: Instant,
    job_started_us: u64,
    metrics: Arc<MetricsSink>,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<TraceEvent>>,
}

impl RequestTrace {
    fn begin(
        ctx: &Ctx,
        trace: TraceId,
        accepted: Instant,
        accepted_us: u64,
        job_started: Instant,
        job_started_us: u64,
    ) -> Self {
        RequestTrace {
            trace,
            root: SpanId::next(),
            worker: SpanId::next(),
            collecting: ctx.collecting(),
            accepted,
            accepted_us,
            job_started,
            job_started_us,
            metrics: Arc::clone(&ctx.metrics),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Closes out the request: records rolling-window and cumulative
    /// latency, synthesizes the serve-layer spans, and fans the finished
    /// tree out to the audit sink, the Chrome-trace directory, and the
    /// slow log.
    fn finish(self, ctx: &Ctx, status: u16) {
        let latency_ns = u64::try_from(self.accepted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ctx.windows.record(latency_ns, status >= 500);
        ctx.metrics
            .registry()
            .observe("serve_request_latency", latency_ns);
        if !self.collecting {
            return;
        }
        let queue_wait = self.job_started.saturating_duration_since(self.accepted);
        let queue_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        let worker_ns = u64::try_from(self.job_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = self
            .spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        spans.push(SpanRecord {
            name: "serve:queue_wait",
            nanos: queue_ns,
            trace: self.trace,
            span: SpanId::next(),
            parent: Some(self.root),
            start_us: self.accepted_us,
        });
        spans.push(SpanRecord {
            name: "serve:worker",
            nanos: worker_ns,
            trace: self.trace,
            span: self.worker,
            parent: Some(self.root),
            start_us: self.job_started_us,
        });
        spans.push(SpanRecord {
            name: "serve:request",
            nanos: latency_ns,
            trace: self.trace,
            span: self.root,
            parent: None,
            start_us: self.accepted_us,
        });
        let events = self
            .events
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if ctx.audit.enabled() {
            for span in &spans {
                ctx.audit.span(*span);
            }
            for event in &events {
                ctx.audit.event(event.clone());
            }
        }
        if let Some(dir) = &ctx.trace_dir {
            let path = dir.join(format!("trace-{}.json", self.trace.to_hex()));
            let body = export::chrome_trace(&spans).to_compact();
            if std::fs::write(path, body).is_err() {
                ctx.metrics.add("serve_trace_write_errors", 1);
            }
        }
        if let Some(slow) = &ctx.slow {
            let capture = SlowCapture {
                trace: self.trace,
                latency_ns,
                status,
                spans,
                events,
            };
            if slow.offer(capture.clone()) {
                ctx.metrics.add("serve_requests_slow", 1);
                if let Some(dir) = &ctx.trace_dir {
                    append_slow_line(ctx, &dir.join("slow.jsonl"), &capture);
                }
            }
        }
    }
}

/// Appends one slow capture as a JSONL line; failures are counted, never
/// propagated (slow capture is diagnostics, not the request path).
fn append_slow_line(ctx: &Ctx, path: &std::path::Path, capture: &SlowCapture) {
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", capture.to_json().to_compact()));
    if appended.is_err() {
        ctx.metrics.add("serve_trace_write_errors", 1);
    }
}

impl TraceSink for RequestTrace {
    fn enabled(&self) -> bool {
        self.collecting
    }

    fn event(&self, event: TraceEvent) {
        if self.collecting {
            self.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(event);
        }
    }

    fn span(&self, span: SpanRecord) {
        self.metrics.span(span);
        if self.collecting {
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(span);
        }
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.metrics.add(counter, delta);
    }
}

/// Decrements the in-flight connection count when the handler returns —
/// including by panic, since the pool's `catch_unwind` runs this `Drop`
/// during unwinding. Without it a single panicking request would inflate
/// `/healthz`'s `active` and the drain report forever.
struct ActiveGuard<'a> {
    active: &'a AtomicUsize,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The extraction service. [`Server::bind`] starts the workers and binds
/// the listener; [`Server::run`] blocks in the accept loop until shutdown.
pub struct Server {
    listener: TcpListener,
    pool: Pool<Conn>,
    ctx: Arc<Ctx>,
    config: ServeConfig,
}

impl Server {
    /// Binds the listener, builds the extraction profiles, and starts the
    /// worker pool. `audit` receives [`ServerEvent`]s when enabled (pass
    /// `None` for metrics-only operation — the right default for a
    /// long-lived service, since event collection grows without bound).
    ///
    /// # Errors
    /// [`ServeError`] when the address cannot be bound, the extractors
    /// cannot be built, or the pool cannot spawn workers.
    pub fn bind(
        config: ServeConfig,
        audit: Option<Arc<dyn TraceSink>>,
    ) -> Result<Self, ServeError> {
        let metrics = Arc::new(MetricsSink::new());
        let profile = |limits: Limits| -> Result<RecordExtractor, ServeError> {
            RecordExtractor::new(ExtractorConfig::default().with_limits(limits))
                .map_err(|e| ServeError::Extractor(e.to_string()))
        };
        let profiles = Profiles {
            default_profile: profile(Limits::default())?,
            strict: profile(Limits::strict())?,
            unbounded: profile(Limits::unbounded())?,
        };

        let listener =
            TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind(e.to_string()))?;

        if let Some(dir) = &config.trace_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| ServeError::Bind(format!("trace dir {}: {e}", dir.display())))?;
        }
        let store = match &config.store {
            Some(path) => Some(Mutex::new(
                Store::open(path).map_err(|e| ServeError::Store(e.to_string()))?,
            )),
            None => None,
        };
        let ctx = Arc::new(Ctx {
            profiles,
            store,
            metrics: Arc::clone(&metrics),
            audit: audit.unwrap_or_else(|| Arc::new(NullSink)),
            windows: RollingWindows::new(),
            slow: config
                .slow_threshold
                .map(|threshold| SlowLog::new(threshold, SLOW_LOG_CAP)),
            trace_dir: config.trace_dir.clone(),
            started: Instant::now(),
            active: AtomicUsize::new(0),
            shutdown: ShutdownHandle {
                requested: Arc::new(AtomicBool::new(false)),
            },
            caps: config.caps,
            request_deadline: config.request_deadline,
            retry_after_s: config.retry_after_s,
        });

        let runner_ctx = Arc::clone(&ctx);
        let pool = Pool::new(
            PoolConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
            },
            move |conn: Conn| handle_connection(&runner_ctx, conn),
            &(Arc::clone(&metrics) as Arc<dyn TraceSink>),
        )
        .map_err(ServeError::Pool)?;

        Ok(Server {
            listener,
            pool,
            ctx,
            config,
        })
    }

    /// The bound address — the actual port when the config asked for 0.
    ///
    /// # Errors
    /// Propagates the OS error if the socket has gone bad since binding.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that requests graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.ctx.shutdown.clone()
    }

    /// Live server counters (also served at `GET /metrics`).
    pub fn metrics(&self) -> RegistrySnapshot {
        self.ctx.metrics.registry().typed_snapshot()
    }

    /// Runs the accept loop until shutdown is requested, then drains
    /// in-flight requests under the drain deadline and returns the final
    /// report. Consumes the server: after `run` the listener is closed.
    pub fn run(self) -> ServeReport {
        let Server {
            listener,
            pool,
            ctx,
            config,
        } = self;
        let mut parting: Vec<(TcpStream, Instant)> = Vec::new();
        while !ctx.shutdown.requested.load(Ordering::SeqCst) {
            reap_parting(&mut parting);
            match listener.accept() {
                Ok((stream, peer)) => {
                    // The lint rule `concurrency` (serve tier) requires the
                    // deadlines armed in the same function as the accept:
                    // an unarmed stream must never escape this scope.
                    let armed = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_read_timeout(Some(config.io_timeout)))
                        .and_then(|()| stream.set_write_timeout(Some(config.io_timeout)));
                    match armed {
                        Ok(()) => admit(&ctx, &pool, stream, peer, &mut parting),
                        Err(_) => ctx.metrics.add("serve_accept_errors", 1),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(_) => {
                    ctx.metrics.add("serve_accept_errors", 1);
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        drop(parting);

        // Stop accepting before draining: closing the listener makes new
        // connection attempts fail fast instead of hanging in the backlog.
        drop(listener);
        let in_flight = ctx.active.load(Ordering::SeqCst);
        let drain_started = Instant::now();
        let report = pool.shutdown_within(config.drain_deadline);
        let remaining = ctx.active.load(Ordering::SeqCst);
        let drained = in_flight.saturating_sub(remaining);
        let elapsed_ms = u64::try_from(drain_started.elapsed().as_millis()).unwrap_or(u64::MAX);
        ctx.metrics
            .add("serve_drain_abandoned", report.abandoned as u64);
        if ctx.audit.enabled() {
            ctx.audit.event(TraceEvent::Server(ServerEvent::Drained {
                drained,
                abandoned: report.abandoned,
                elapsed_ms,
            }));
        }
        let mut merged = rbd_trace::Registry::new();
        merged.merge(&report.metrics);
        merged.merge(&ctx.metrics.registry().typed_snapshot());
        ServeReport {
            drained,
            abandoned: report.abandoned,
            worker_panics: report.worker_panics,
            metrics: merged.typed_snapshot(),
        }
    }
}

/// Pool submission, the one admission gate: a full queue bounces the
/// connection with 503. Runs on the accept thread, so everything here
/// must be non-blocking.
fn admit(
    ctx: &Arc<Ctx>,
    pool: &Pool<Conn>,
    stream: TcpStream,
    peer: SocketAddr,
    parting: &mut Vec<(TcpStream, Instant)>,
) {
    let active = ctx.active.fetch_add(1, Ordering::SeqCst) + 1;
    ctx.metrics.add("serve_conns_accepted", 1);
    if ctx.audit.enabled() {
        ctx.audit
            .event(TraceEvent::Server(ServerEvent::ConnAccepted {
                peer: peer.to_string(),
                active,
            }));
    }
    let conn = Conn {
        stream,
        accepted: Instant::now(),
        accepted_us: unix_micros(),
    };
    match pool.try_submit(conn) {
        Ok(()) => {}
        Err(TrySubmitError::QueueFull(conn)) => {
            bounce(ctx, conn.stream, pool.queue_depth(), parting);
        }
        Err(TrySubmitError::Closed(conn)) => {
            ctx.active.fetch_sub(1, Ordering::SeqCst);
            drop(conn);
        }
    }
}

/// Rolls back an admission the full queue refused, then answers 503 +
/// `Retry-After` on the accept thread and parks the socket in `parting`
/// so it closes cleanly (see [`PARTING_GRACE`]). The socket already has a
/// write timeout, so a peer that refuses to read cannot stall the accept
/// loop for longer than one timeout window.
fn bounce(ctx: &Ctx, mut stream: TcpStream, depth: usize, parting: &mut Vec<(TcpStream, Instant)>) {
    ctx.active.fetch_sub(1, Ordering::SeqCst);
    ctx.metrics.add("serve_requests_shed", 1);
    if ctx.audit.enabled() {
        ctx.audit
            .event(TraceEvent::Server(ServerEvent::RequestShed {
                depth,
                retry_after_s: ctx.retry_after_s,
            }));
    }
    let mut response = Response::json(
        503,
        "Service Unavailable",
        error_json("overload", "service is at capacity; retry shortly"),
    );
    response.retry_after_s = Some(ctx.retry_after_s);
    send(ctx, &mut stream, &response);
    let parked = parting.len() < PARTING_MAX
        && stream.shutdown(Shutdown::Write).is_ok()
        && stream.set_nonblocking(true).is_ok();
    if parked {
        parting.push((stream, Instant::now()));
    }
}

/// Polls parked refused connections: discards any late request bytes and
/// drops each socket once the peer closes (clean FIN) or its grace
/// expires. Non-blocking — runs on the accept thread every poll tick.
fn reap_parting(parting: &mut Vec<(TcpStream, Instant)>) {
    parting.retain_mut(|(stream, since)| {
        let mut scratch = [0u8; 512];
        loop {
            match stream.read(&mut scratch) {
                Ok(0) => return false,
                Ok(_n) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        since.elapsed() < PARTING_GRACE
    });
}

/// The per-connection worker job: parse one request, route it, respond,
/// close. Never panics outward except through the pool's own isolation.
///
/// Once the request head parses, the request gets a [`TraceId`] — the
/// peer's `x-rbd-trace-id` header when it carries a valid one, freshly
/// generated otherwise — which is echoed back in the response and stamps
/// the whole span tree.
fn handle_connection(ctx: &Ctx, conn: Conn) {
    let _guard = ActiveGuard {
        active: &ctx.active,
    };
    let job_started = Instant::now();
    let job_started_us = unix_micros();
    let Conn {
        mut stream,
        accepted,
        accepted_us,
    } = conn;
    let deadline = Deadline::after(ctx.request_deadline);
    match http::read_request(&mut stream, ctx.caps, &deadline) {
        Ok(request) => {
            let trace = request
                .header("x-rbd-trace-id")
                .and_then(TraceId::parse_hex)
                .unwrap_or_else(TraceId::generate);
            let rt = RequestTrace::begin(
                ctx,
                trace,
                accepted,
                accepted_us,
                job_started,
                job_started_us,
            );
            let response = route(ctx, &rt, &request).with_header("x-rbd-trace-id", trace.to_hex());
            send(ctx, &mut stream, &response);
            rt.finish(ctx, response.status);
        }
        Err(error) => {
            match &error {
                HttpError::TimedOut { phase } => {
                    ctx.metrics.add("serve_timeouts", 1);
                    if ctx.audit.enabled() {
                        ctx.audit.event(TraceEvent::Server(ServerEvent::Deadline {
                            phase: (*phase).to_string(),
                            elapsed_ms: deadline.elapsed_ms() as u64,
                        }));
                    }
                }
                HttpError::Disconnected => ctx.metrics.add("serve_disconnects", 1),
                HttpError::Malformed(_)
                | HttpError::LengthRequired
                | HttpError::BodyTooLarge { .. }
                | HttpError::HeadTooLarge { .. } => {
                    ctx.metrics.add("serve_requests_client_error", 1);
                }
            }
            if let Some((status, reason)) = error.status() {
                let response =
                    Response::json(status, reason, error_json("http", &error.to_string()));
                send(ctx, &mut stream, &response);
                // The request was not fully read (flood, oversized body,
                // garbage): drain leftovers with a short budget so closing
                // doesn't RST the error response out from under the peer.
                drain_politely(&mut stream);
            }
        }
    }
}

/// Bounded post-response drain for connections whose request was never
/// fully consumed: half-close the write side, then discard inbound bytes
/// until the peer closes, a short timeout fires, or a byte budget runs
/// out. Runs on a worker thread, so a brief blocking wait is fine.
fn drain_politely(stream: &mut TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(250)))
            .is_err()
    {
        return;
    }
    let mut scratch = [0u8; 4096];
    let mut budget: usize = 256 * 1024;
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn route(ctx: &Ctx, rt: &RequestTrace, request: &Request) -> Response {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/extract") => extract(ctx, rt, request),
        ("GET", "/healthz") => {
            let body = Json::object([
                ("status", Json::Str("ok".to_string())),
                ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
                (
                    "uptime_seconds",
                    Json::UInt(ctx.started.elapsed().as_secs()),
                ),
                (
                    "active",
                    Json::UInt(ctx.active.load(Ordering::SeqCst) as u64),
                ),
            ])
            .to_string();
            Response::json(200, "OK", body)
        }
        // Prometheus exposition by default; JSON for clients that ask for
        // it (and always at /metrics.json, so scripted consumers don't
        // depend on header handling).
        ("GET", "/metrics") => {
            let wants_json = request
                .header("accept")
                .is_some_and(|accept| accept.contains("application/json"));
            if wants_json {
                Response::json(200, "OK", metrics_json(ctx))
            } else {
                Response::text(
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    metrics_prometheus(ctx),
                )
            }
        }
        ("GET", "/metrics.json") => Response::json(200, "OK", metrics_json(ctx)),
        ("POST", "/shutdown") => {
            ctx.shutdown.trigger();
            let body = Json::object([("status", Json::Str("draining".to_string()))]).to_compact();
            Response::json(200, "OK", body)
        }
        (_method, "/extract" | "/healthz" | "/metrics" | "/metrics.json" | "/shutdown") => {
            ctx.metrics.add("serve_requests_client_error", 1);
            Response::json(
                405,
                "Method Not Allowed",
                error_json("method", "method not allowed for this endpoint"),
            )
        }
        (_method, _target) => {
            ctx.metrics.add("serve_requests_client_error", 1);
            Response::json(
                404,
                "Not Found",
                error_json("not_found", "unknown endpoint"),
            )
        }
    }
}

/// `POST /extract`: run record-boundary discovery on the body under the
/// selected limits profile, with panic isolation at the request boundary.
///
/// While the request is being collected (audit / trace dir / slow log),
/// extraction runs its traced path through a [`ScopedSink`] that stamps
/// the request's trace id and parents every extraction span under the
/// `serve:worker` span — one coherent tree per request. Otherwise it runs
/// the metrics-only path, identical to the pre-tracing service.
fn extract(ctx: &Ctx, rt: &RequestTrace, request: &Request) -> Response {
    let Ok(html) = std::str::from_utf8(&request.body) else {
        ctx.metrics.add("serve_requests_client_error", 1);
        return Response::json(
            400,
            "Bad Request",
            error_json("encoding", "request body is not valid UTF-8"),
        );
    };
    // The cache only speaks for the default limits profile: a strict or
    // unbounded extraction of the same bytes can legitimately differ, so
    // those requests bypass the store in both directions.
    let cache = ctx
        .store
        .as_ref()
        .filter(|_| matches!(request.header("x-rbd-limits"), None | Some("default")));
    // A miss keeps the body's hash for the insert, so each body is hashed
    // once.
    let miss = match cache {
        Some(store) => match store_lookup(ctx, store, rt, html) {
            Ok(body) => {
                ctx.metrics.add("serve_requests_ok", 1);
                return Response::json(200, "OK", body)
                    .with_header("x-rbd-cache", "hit".to_string());
            }
            Err(hash) => Some((store, hash)),
        },
        None => None,
    };
    let extractor = profile_for(ctx, request);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if rt.collecting {
            let scoped = ScopedSink::new(rt, rt.trace, Some(rt.worker));
            extractor.extract_records_traced(html, &scoped)
        } else {
            extractor.extract_records_traced(html, ctx.metrics.as_ref())
        }
    }));
    match outcome {
        Err(payload) => {
            let message = panic_message(&payload);
            ctx.metrics.add("serve_panics", 1);
            if ctx.audit.enabled() {
                ctx.audit
                    .event(TraceEvent::Server(ServerEvent::WorkerPanic {
                        message: message.clone(),
                    }));
            }
            Response::json(500, "Internal Server Error", error_json("panic", &message))
        }
        Ok(Err(error)) => {
            ctx.metrics.add("serve_requests_unprocessable", 1);
            Response::json(
                422,
                "Unprocessable Entity",
                error_json(discovery_kind(&error), &error.to_string()),
            )
        }
        Ok(Ok(extraction)) => {
            ctx.metrics.add("serve_requests_ok", 1);
            let response = Response::json(
                200,
                "OK",
                extraction_response_json(&extraction).to_compact(),
            );
            match miss {
                Some((store, hash)) => {
                    store_insert(ctx, store, hash, &extraction);
                    response.with_header("x-rbd-cache", "miss".to_string())
                }
                None => response,
            }
        }
    }
}

/// Consults the persistent store for `html`'s content hash. On a hit the
/// stored response body comes back (byte-identical to what a fresh
/// extraction would serialize — `StoredDoc::response_json` is pinned to
/// [`extraction_response_json`]'s shape) and the lookup is recorded as a
/// `serve:cache_hit` span in the request's trace tree. A miss returns the
/// hash for [`store_insert`]. A read failure on a committed frame degrades
/// to a miss with a typed counter; it never fails the request.
fn store_lookup(
    ctx: &Ctx,
    store: &Mutex<Store>,
    rt: &RequestTrace,
    html: &str,
) -> Result<String, ContentHash> {
    let started = Instant::now();
    let started_us = unix_micros();
    let hash = ContentHash::of(html.as_bytes());
    // The hit layer memoizes the serialized response, so the steady-state
    // critical section is one map lookup.
    let looked_up = store
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .hit(&hash);
    let hit = matches!(&looked_up, Ok(Some(_)));
    rt.event(TraceEvent::Server(ServerEvent::CacheLookup {
        hash: hash.to_hex(),
        hit,
    }));
    match looked_up {
        Ok(Some(stored)) => {
            ctx.metrics.add("store_cache_hits", 1);
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rt.span(SpanRecord {
                name: "serve:cache_hit",
                nanos,
                trace: rt.trace,
                span: SpanId::next(),
                parent: Some(rt.worker),
                start_us: started_us,
            });
            Ok(stored.response.clone())
        }
        Err(_) => {
            ctx.metrics.add("store_read_errors", 1);
            ctx.metrics.add("store_cache_misses", 1);
            Err(hash)
        }
        Ok(None) => {
            ctx.metrics.add("store_cache_misses", 1);
            Err(hash)
        }
    }
}

/// Commits a fresh extraction to the store so the next request for the
/// same bytes hits. A commit failure loses only the cache entry — the
/// response already in flight is unaffected — and is counted.
fn store_insert(ctx: &Ctx, store: &Mutex<Store>, hash: ContentHash, extraction: &Extraction) {
    let doc = StoredDoc::from_extraction(hash, None, extraction);
    let mut guard = store.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.append_batch(std::slice::from_ref(&doc)).is_err() {
        ctx.metrics.add("store_write_errors", 1);
    }
}

/// Picks the limits profile from the `x-rbd-limits` header; an
/// unrecognized value degrades to the default profile with a counter
/// rather than failing the request.
fn profile_for<'a>(ctx: &'a Ctx, request: &Request) -> &'a RecordExtractor {
    match request.header("x-rbd-limits") {
        None | Some("default") => &ctx.profiles.default_profile,
        Some("strict") => &ctx.profiles.strict,
        Some("unbounded") => &ctx.profiles.unbounded,
        Some(_other) => {
            ctx.metrics.add("serve_limits_degraded", 1);
            &ctx.profiles.default_profile
        }
    }
}

/// Writes a response, counting (never propagating) write failures — a
/// peer that vanishes before reading its response is routine.
fn send(ctx: &Ctx, stream: &mut TcpStream, response: &Response) {
    if http::write_response(stream, response).is_err() {
        ctx.metrics.add("serve_write_errors", 1);
    }
}

/// The stable error body shape: `{"error":{"kind":…,"message":…}}`.
fn error_json(kind: &str, message: &str) -> String {
    Json::object([(
        "error",
        Json::object([
            ("kind", Json::Str(kind.to_string())),
            ("message", Json::Str(message.to_string())),
        ]),
    )])
    .to_string()
}

/// Discriminant for the 422 body, mirroring [`DiscoveryError`].
fn discovery_kind(error: &DiscoveryError) -> &'static str {
    match error {
        DiscoveryError::EmptyDocument => "empty_document",
        DiscoveryError::NoCandidates => "no_candidates",
        DiscoveryError::NoConsensus => "no_consensus",
        DiscoveryError::Pattern(_) => "pattern",
        DiscoveryError::Limit(_) => "limit",
    }
}

/// Flattens a panic payload to text, matching the pipeline's convention.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The `GET /metrics.json` body: a small curated `server` block, the
/// rolling 1m/5m windows, and the full registry snapshot (server counters
/// and extraction/pipeline metrics).
fn metrics_json(ctx: &Ctx) -> String {
    let registry = ctx.metrics.registry();
    Json::object([
        (
            "server",
            Json::object([
                (
                    "active",
                    Json::UInt(ctx.active.load(Ordering::SeqCst) as u64),
                ),
                (
                    "accepted",
                    Json::UInt(registry.counter("serve_conns_accepted")),
                ),
                ("shed", Json::UInt(registry.counter("serve_requests_shed"))),
                ("timeouts", Json::UInt(registry.counter("serve_timeouts"))),
                ("panics", Json::UInt(registry.counter("serve_panics"))),
            ]),
        ),
        ("windows", ctx.windows.to_json()),
        ("metrics", registry.typed_snapshot().to_json()),
    ])
    .to_string()
}

/// The default `GET /metrics` body: Prometheus text exposition of the
/// cumulative registry followed by the rolling-window gauges.
fn metrics_prometheus(ctx: &Ctx) -> String {
    let mut out = export::registry_to_prometheus(&ctx.metrics.registry().typed_snapshot());
    out.push_str(&export::windows_to_prometheus(&ctx.windows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn start(
        config: ServeConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServeReport>,
    ) {
        start_with(config, None)
    }

    fn start_with(
        config: ServeConfig,
        audit: Option<Arc<dyn TraceSink>>,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServeReport>,
    ) {
        let server = Server::bind(config, audit).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        (addr, handle, join)
    }

    fn talk(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client read timeout");
        stream.write_all(raw).expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    fn post_extract(addr: SocketAddr, html: &str) -> String {
        let raw = format!(
            "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n{html}",
            html.len()
        );
        talk(addr, raw.as_bytes())
    }

    #[test]
    fn serves_extraction_health_metrics_and_shuts_down() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 2,
            io_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        });

        let html = "<html><body>\
                    <h2>A</h2><p>alpha</p>\
                    <h2>B</h2><p>beta</p>\
                    <h2>C</h2><p>gamma</p>\
                    </body></html>";
        let ok = post_extract(addr, html);
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("\"separator\""), "{ok}");

        let health = talk(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"version\":\""), "{health}");
        assert!(health.contains("\"uptime_seconds\""), "{health}");

        // Default /metrics speaks Prometheus text exposition…
        let metrics = talk(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(
            metrics.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE serve_requests_ok counter"),
            "{metrics}"
        );
        assert!(
            metrics.contains("rbd_window_requests{window=\"1m\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("serve_request_latency_ns_bucket{le=\"+Inf\"}"),
            "{metrics}"
        );

        // …while an Accept header or /metrics.json keeps the JSON view.
        let negotiated = talk(
            addr,
            b"GET /metrics HTTP/1.1\r\nAccept: application/json\r\n\r\n",
        );
        assert!(negotiated.contains("\"accepted\""), "{negotiated}");
        let metrics_json = talk(addr, b"GET /metrics.json HTTP/1.1\r\n\r\n");
        assert!(metrics_json.contains("\"accepted\""), "{metrics_json}");
        assert!(metrics_json.contains("\"windows\""), "{metrics_json}");
        assert!(metrics_json.contains("\"p99_ns\""), "{metrics_json}");
        assert!(metrics_json.contains("serve_requests_ok"), "{metrics_json}");

        let missing = talk(addr, b"GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let wrong_method = talk(addr, b"GET /extract HTTP/1.1\r\n\r\n");
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");

        handle.trigger();
        let report = join.join().expect("server thread");
        assert_eq!(report.worker_panics, 0);
        assert_eq!(report.abandoned, 0);
        assert!(report.metrics.counters.get("serve_requests_ok").copied() >= Some(1));
    }

    #[test]
    fn empty_body_is_422_and_shutdown_endpoint_drains() {
        let (addr, _handle, join) = start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let unprocessable = post_extract(addr, "");
        assert!(unprocessable.starts_with("HTTP/1.1 422"), "{unprocessable}");
        assert!(
            unprocessable.contains("\"kind\":\"empty_document\""),
            "{unprocessable}"
        );

        let bye = talk(
            addr,
            b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
        let report = join.join().expect("server thread");
        assert_eq!(report.abandoned, 0);
    }

    /// Runs `server` on a thread and reports how long after `trigger`
    /// returned `run` took to hand back its report, or `None` if it had
    /// not returned 1 s after.
    fn run_after_trigger(server: Server, trigger_first: bool) -> Option<Duration> {
        let handle = server.shutdown_handle();
        let early = trigger_first.then(|| {
            handle.trigger();
            Instant::now()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let report = server.run();
            let _ = tx.send(report);
        });
        let triggered = early.unwrap_or_else(|| {
            // Long enough for the loop to be polling with no traffic.
            std::thread::sleep(Duration::from_millis(100));
            handle.trigger();
            Instant::now()
        });
        let report = rx.recv_timeout(Duration::from_secs(1)).ok()?;
        assert_eq!(report.abandoned, 0);
        Some(triggered.elapsed())
    }

    #[test]
    fn trigger_stops_an_idle_server_on_loopback_and_unspecified_binds() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = Server::bind(
                ServeConfig {
                    addr: addr.to_string(),
                    workers: 1,
                    ..ServeConfig::default()
                },
                None,
            )
            .expect("bind");
            let waited = run_after_trigger(server, false);
            assert!(
                waited.is_some_and(|d| d < Duration::from_millis(500)),
                "{addr}: run() did not return promptly after trigger: {waited:?}"
            );
        }
    }

    #[test]
    fn trigger_before_run_returns_promptly() {
        let server = Server::bind(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            None,
        )
        .expect("bind");
        let waited = run_after_trigger(server, true);
        assert!(
            waited.is_some_and(|d| d < Duration::from_millis(500)),
            "run() did not return promptly: {waited:?}"
        );
    }

    #[test]
    fn unknown_limits_profile_degrades_not_fails() {
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let html = "<html><body><h2>A</h2><p>x</p><h2>B</h2><p>y</p></body></html>";
        let raw = format!(
            "POST /extract HTTP/1.1\r\nx-rbd-limits: turbo\r\nContent-Length: {}\r\n\r\n{html}",
            html.len()
        );
        let out = talk(addr, raw.as_bytes());
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        handle.trigger();
        let report = join.join().expect("server thread");
        assert_eq!(
            report
                .metrics
                .counters
                .get("serve_limits_degraded")
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn request_produces_one_parented_span_tree() {
        use rbd_trace::CollectingSink;
        let audit = Arc::new(CollectingSink::new());
        let (addr, handle, join) = start_with(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Some(Arc::clone(&audit) as Arc<dyn TraceSink>),
        );
        let html = "<html><body><h2>A</h2><p>x</p><h2>B</h2><p>y</p></body></html>";
        let raw = format!(
            "POST /extract HTTP/1.1\r\nx-rbd-trace-id: deadbeef\r\nContent-Length: {}\r\n\r\n{html}",
            html.len()
        );
        let out = talk(addr, raw.as_bytes());
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        // The inbound trace id is echoed back verbatim (zero-padded hex).
        assert!(
            out.contains("x-rbd-trace-id: 00000000deadbeef\r\n"),
            "{out}"
        );
        handle.trigger();
        join.join().expect("server thread");

        let trace = TraceId::parse_hex("deadbeef").expect("valid hex");
        let spans: Vec<SpanRecord> = audit
            .spans()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        assert!(!spans.is_empty(), "audit sink saw no request spans");
        // Exactly one root, named serve:request.
        let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "{spans:?}");
        assert_eq!(roots[0].name, "serve:request");
        let root = roots[0].span;
        // Queue wait and worker hang off the root.
        for name in ["serve:queue_wait", "serve:worker"] {
            let span = spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}: {spans:?}"));
            assert_eq!(span.parent, Some(root), "{name} must parent at the root");
        }
        let worker = spans
            .iter()
            .find(|s| s.name == "serve:worker")
            .expect("worker span")
            .span;
        // Extraction stages are grandchildren via the worker span, and
        // every span reaches the root by walking parents.
        let tokenize = spans
            .iter()
            .find(|s| s.name == "tokenize")
            .unwrap_or_else(|| panic!("no tokenize span: {spans:?}"));
        assert_eq!(tokenize.parent, Some(worker));
        for span in &spans {
            let mut cursor = *span;
            let mut hops = 0;
            while let Some(parent) = cursor.parent {
                cursor = *spans
                    .iter()
                    .find(|s| s.span == parent)
                    .unwrap_or_else(|| panic!("dangling parent for {cursor:?}"));
                hops += 1;
                assert!(hops < 16, "parent cycle at {span:?}");
            }
            assert_eq!(cursor.span, root, "{span:?} must root at serve:request");
        }
    }

    #[test]
    fn store_backed_extract_hits_byte_identical_with_cache_span() {
        use rbd_trace::CollectingSink;
        let store_path =
            std::env::temp_dir().join(format!("rbd-serve-store-test-{}.rbd", std::process::id()));
        let _ = std::fs::remove_file(&store_path);
        let audit = Arc::new(CollectingSink::new());
        let (addr, handle, join) = start_with(
            ServeConfig {
                workers: 1,
                store: Some(store_path.clone()),
                ..ServeConfig::default()
            },
            Some(Arc::clone(&audit) as Arc<dyn TraceSink>),
        );
        let html = "<html><body>\
                    <h2>A</h2><p>alpha</p>\
                    <h2>B</h2><p>beta</p>\
                    <h2>C</h2><p>gamma</p>\
                    </body></html>";
        let miss = post_extract(addr, html);
        assert!(miss.starts_with("HTTP/1.1 200 OK\r\n"), "{miss}");
        assert!(miss.contains("x-rbd-cache: miss\r\n"), "{miss}");
        let hit = post_extract(addr, html);
        assert!(hit.starts_with("HTTP/1.1 200 OK\r\n"), "{hit}");
        assert!(hit.contains("x-rbd-cache: hit\r\n"), "{hit}");
        // The cache hit serves a byte-identical body.
        let body_of = |response: &str| {
            response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_string())
                .expect("body")
        };
        assert_eq!(body_of(&miss), body_of(&hit), "hit must match fresh bytes");

        // A changed byte busts the cache.
        let mutated = html.replacen("alpha", "alphb", 1);
        let fresh = post_extract(addr, &mutated);
        assert!(fresh.contains("x-rbd-cache: miss\r\n"), "{fresh}");

        // Strict-profile requests bypass the cache in both directions.
        let raw = format!(
            "POST /extract HTTP/1.1\r\nx-rbd-limits: strict\r\nContent-Length: {}\r\n\r\n{html}",
            html.len()
        );
        let strict = talk(addr, raw.as_bytes());
        assert!(strict.starts_with("HTTP/1.1 200 OK\r\n"), "{strict}");
        assert!(!strict.contains("x-rbd-cache:"), "{strict}");

        handle.trigger();
        let report = join.join().expect("server thread");
        assert_eq!(report.metrics.counters.get("store_cache_hits"), Some(&1));
        assert_eq!(report.metrics.counters.get("store_cache_misses"), Some(&2));

        // The hit's trace tree carries the serve:cache_hit span, parented
        // under its request's worker span.
        let spans = audit.spans();
        let cache_span = spans
            .iter()
            .find(|s| s.name == "serve:cache_hit")
            .unwrap_or_else(|| panic!("no serve:cache_hit span: {spans:?}"));
        let worker = spans
            .iter()
            .find(|s| s.trace == cache_span.trace && s.name == "serve:worker")
            .expect("worker span in the hit's trace");
        assert_eq!(cache_span.parent, Some(worker.span));
        // And the audit trail records the lookup decision itself.
        let lookups: Vec<String> = audit
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Server(ServerEvent::CacheLookup { hit, .. }) => Some(hit.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(lookups, ["false", "true", "false"], "{lookups:?}");

        // The store file survives the server: reopen and find the docs.
        let mut store = rbd_store::Store::open(&store_path).expect("reopen");
        assert_eq!(store.len(), 2, "two distinct documents committed");
        let stored = store
            .get(&rbd_store::ContentHash::of(html.as_bytes()))
            .expect("read")
            .expect("present");
        assert_eq!(stored.response_json().to_string(), body_of(&hit));
        let _ = std::fs::remove_file(&store_path);
    }

    #[test]
    fn slow_requests_are_captured_and_traces_written() {
        let trace_dir =
            std::env::temp_dir().join(format!("rbd-serve-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&trace_dir);
        let (addr, handle, join) = start(ServeConfig {
            workers: 1,
            trace_dir: Some(trace_dir.clone()),
            // Zero threshold: every request is "slow", so the capture path
            // runs deterministically.
            slow_threshold: Some(Duration::from_nanos(0)),
            ..ServeConfig::default()
        });
        let html = "<html><body><h2>A</h2><p>x</p><h2>B</h2><p>y</p></body></html>";
        let raw = format!(
            "POST /extract HTTP/1.1\r\nx-rbd-trace-id: c0ffee\r\nContent-Length: {}\r\n\r\n{html}",
            html.len()
        );
        let out = talk(addr, raw.as_bytes());
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        handle.trigger();
        let report = join.join().expect("server thread");
        assert!(
            report.metrics.counters.get("serve_requests_slow").copied() >= Some(1),
            "{:?}",
            report.metrics.counters
        );
        let chrome = std::fs::read_to_string(trace_dir.join("trace-0000000000c0ffee.json"))
            .expect("per-trace Chrome file");
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        assert!(chrome.contains("\"serve:request\""), "{chrome}");
        let slow = std::fs::read_to_string(trace_dir.join("slow.jsonl")).expect("slow log file");
        let first = slow.lines().next().expect("one capture line");
        assert!(first.contains("\"latency_ns\""), "{first}");
        assert!(first.contains("\"0000000000c0ffee\""), "{first}");
        let _ = std::fs::remove_dir_all(&trace_dir);
    }
}
