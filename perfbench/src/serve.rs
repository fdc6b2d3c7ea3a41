//! The `serve_store` workload: `rbd serve --store` with two workers over
//! a log pre-populated at set-up, driven over loopback HTTP/1.1.
//!
//! Two phases run one fixed, seeded request sequence each:
//!
//! * **open loop**: cache hits on committed documents, evenly spaced at
//!   [`RATE_PER_S`]. Two sender lanes share the schedule, so at most two
//!   connections are in flight and a stalled request delays the ones due
//!   after it. Latency is timed from each request's due time. The phase
//!   carries no misses: a miss's commit holds the store lock through two
//!   `sync_data` calls, and on a shared virtual disk fsync times move too
//!   much between runs for a latency tail that includes them to repeat.
//! * **closed loop**: two connections, each sending its next request when
//!   the previous answer arrives; its completion rate is `docs_per_s`.
//!   Most requests repeat committed documents; every [`MISS_EVERY`]th is
//!   a fresh document (a miss: extraction, encoding and the commit),
//!   requested once more [`REPEAT_AFTER`] requests later, when it must hit
//!   and return the miss's bytes.
//!
//! A [`TimerProbe`] runs next to each phase and scales the phase's timings
//! to a nominal host: they are set by how late thread wake-ups come, which
//! the CPU reference loop does not see.

use crate::clock::{self, Ticks, TimerProbe};
use crate::inputs::{self, Doc};
use crate::spans::{Recorder, SelfTimes, SpanRec};
use crate::stages::{self, Expected, Stages};
use crate::{out_dir, stats, Run, Scale};
use rbd_core::{ExtractorConfig, RecordExtractor};
use rbd_serve::{extraction_response_json, ServeConfig, ServeReport, Server};
use rbd_store::{ContentHash, Store, StoredDoc};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;
/// Client connections in flight, in both phases.
const LANES: usize = 2;
/// Open-loop offered rate: about half of the closed-loop capacity.
const RATE_PER_S: f64 = 500.0;
/// Sizes the closed phase to about half of `--seconds` at capacity.
const CLOSED_SIZING_PER_S: f64 = 1000.0;
/// One request in this many is a fresh document.
const MISS_EVERY: usize = 25;
/// The open phase's tail latency is taken in each window of this many
/// consecutive requests, and the median over the windows is reported.
const TAIL_WINDOW: usize = 100;
/// A fresh document is requested again this many requests later.
const REPEAT_AFTER: usize = 25;
/// How strongly each serve timing follows the timer probe: the closed-loop
/// rate and the open-loop median go as a power of the probe's mean period,
/// the open-loop tail as a power of the probe's own windowed tail. Fitted
/// over runs of this workload in quiet and busy periods of the host (see
/// the README).
const RATE_TIMER_POWER: f64 = 1.5;
const P50_TIMER_POWER: f64 = 2.0;
const TAIL_TIMER_POWER: f64 = 3.0;
/// The probe's windowed tail on a nominal timer, which ticks every
/// [`clock::NOMINAL_TIMER_MS`] exactly: nine tenths of the period.
const NOMINAL_PROBE_TAIL_MS: f64 = clock::NOMINAL_TIMER_MS * 0.9;
/// How strongly `Server::bind` and `Store::open`, which read the whole log,
/// follow the reference loop's time. Over 52 runs, set-up times spread
/// 2.9 % at this power, 4.0 % uncalibrated and 9.2 % at the CPU-bound
/// [`clock::SENSITIVITY`].
const LOG_OPEN_SENSITIVITY: f64 = 0.5;
/// Repeated server set-ups whose median is `setup_s`.
const SETUP_TRIALS: usize = 9;
/// Document indices of the log-filler and fresh documents, clear of the
/// committed set's.
const FIRST_FILLER_INDEX: usize = 100;
const FIRST_FRESH_INDEX: usize = 1000;
/// Each phase holds at least two tail windows, which is also room for two
/// misses and a repeat.
const MIN_REQUESTS: usize = 2 * TAIL_WINDOW;
/// Socket timeouts on the client side.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One distinct document the requests can carry.
struct Body {
    request: Vec<u8>,
    html: String,
    /// The in-process `extraction_response_json` of the document.
    expected: Expected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Hit,
    Miss,
}

impl Cache {
    fn header(self) -> &'static str {
        match self {
            Cache::Hit => "hit",
            Cache::Miss => "miss",
        }
    }
}

/// One request of a phase.
struct Req {
    /// When the request is due, in seconds from the phase start (open
    /// loop only).
    at_s: f64,
    body: usize,
    cache: Cache,
    /// The phase-local index of the miss this request repeats; it is sent
    /// only after that miss has been answered.
    after: Option<usize>,
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("below n")
    }
}

fn is_miss_slot(i: usize) -> bool {
    i % MISS_EVERY == MISS_EVERY / 2
}

/// The open-loop phase: `n` requests for hot bodies `0..hot`, due at
/// [`RATE_PER_S`].
fn open_phase(n: usize, hot: usize, rng: &mut SplitMix) -> Vec<Req> {
    (0..n)
        .map(|i| Req {
            at_s: i as f64 / RATE_PER_S,
            body: rng.below(hot),
            cache: Cache::Hit,
            after: None,
        })
        .collect()
}

/// The closed-loop phase: `n` requests over hot bodies `0..hot`, every
/// [`MISS_EVERY`]th a fresh body drawn from `fresh` and repeated
/// [`REPEAT_AFTER`] requests later.
fn closed_phase(
    n: usize,
    hot: usize,
    fresh: &mut impl Iterator<Item = usize>,
    rng: &mut SplitMix,
) -> Vec<Req> {
    let mut reqs = Vec::with_capacity(n);
    let mut repeats: VecDeque<(usize, usize, usize)> = VecDeque::new();
    let at_s = 0.0;
    for i in 0..n {
        if is_miss_slot(i) {
            let body = fresh.next().expect("enough fresh documents");
            repeats.push_back((i + REPEAT_AFTER, body, i));
            reqs.push(Req {
                at_s,
                body,
                cache: Cache::Miss,
                after: None,
            });
        } else if let Some((_, body, miss)) =
            repeats.front().copied().filter(|&(due, _, _)| due <= i)
        {
            repeats.pop_front();
            reqs.push(Req {
                at_s,
                body,
                cache: Cache::Hit,
                after: Some(miss),
            });
        } else {
            reqs.push(Req {
                at_s,
                body: rng.below(hot),
                cache: Cache::Hit,
                after: None,
            });
        }
    }
    reqs
}

/// Removes the run's work directory when the run ends, however it
/// ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is inside the ignored build
        // directory and is harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies a log and syncs the copy, so that no write-back of it is still
/// pending when a later phase is measured.
fn copy(from: &Path, to: &Path) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("copy {} → {}: {e}", from.display(), to.display());
    std::fs::copy(from, to).map_err(failed)?;
    std::fs::File::open(to)
        .and_then(|f| f.sync_all())
        .map_err(failed)
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: rbd_serve::ShutdownHandle,
    thread: std::thread::JoinHandle<ServeReport>,
}

impl Running {
    /// Binds a server on `log` and starts its accept loop; returns it
    /// with the seconds `Server::bind` took.
    fn start(log: &Path) -> Result<(Running, f64), String> {
        let config = ServeConfig {
            workers: WORKERS,
            store: Some(log.to_path_buf()),
            ..ServeConfig::default()
        };
        let started = Instant::now();
        let server = Server::bind(config, None).map_err(|e| e.to_string())?;
        let bind_s = started.elapsed().as_secs_f64();
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok((
            Running {
                addr,
                handle,
                thread,
            },
            bind_s,
        ))
    }

    fn stop(self) -> Result<ServeReport, String> {
        self.handle.trigger();
        let report = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?;
        if report.worker_panics > 0 || report.abandoned > 0 {
            return Err(format!(
                "server drained badly: {} worker panics, {} abandoned",
                report.worker_panics, report.abandoned
            ));
        }
        Ok(report)
    }
}

/// One HTTP/1.1 response.
struct Reply {
    status: u16,
    cache: Option<String>,
    body: Vec<u8>,
}

/// An HTTP/1.1 client connection that is reused unless the server says
/// `Connection: close`.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connects: u64,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            connects: 0,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    fn exchange(&mut self, request: &[u8]) -> Result<Reply, String> {
        loop {
            let reused = self.stream.is_some();
            if !reused {
                let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
                stream
                    .set_read_timeout(Some(IO_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
                    .and_then(|()| stream.set_nodelay(true))
                    .map_err(|e| format!("socket options: {e}"))?;
                self.stream = Some(stream);
                self.connects += 1;
            }
            let stream = self.stream.as_mut().expect("connected above");
            match send_and_read(stream, request, &mut self.buf) {
                Ok((reply, keep_alive)) => {
                    if !keep_alive {
                        self.stream = None;
                    }
                    return Ok(reply);
                }
                // A kept-alive connection the server has since closed:
                // retry once on a new one.
                Err(_) if reused => self.stream = None,
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Writes one request and reads one response; returns it and whether
/// the connection may be reused.
fn send_and_read(
    stream: &mut TcpStream,
    request: &[u8],
    buf: &mut Vec<u8>,
) -> Result<(Reply, bool), String> {
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = find(buf, b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before the response head".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    let mut close = version != "HTTP/1.1";
    let mut cache = None;
    for line in lines.filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("content-length: {e}"))?,
                );
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "x-rbd-cache" => cache = Some(value.to_owned()),
            _ => {}
        }
    }
    let length = length.ok_or("response without content-length")?;
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    if buf.len() > head_end + length {
        return Err("bytes after the response body".to_owned());
    }
    Ok((
        Reply {
            status,
            cache,
            body: buf[head_end..].to_vec(),
        },
        !close,
    ))
}

/// How far ahead of a due time the sender stops sleeping and starts
/// yielding: a sleep can overshoot by this much on a busy host, and that
/// lateness would be charged to the server.
const SPIN_AHEAD: Duration = Duration::from_micros(300);

/// Returns at `due` or just after: sleeps until shortly before it, then
/// yields the processor until it passes.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN_AHEAD) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One answered request.
struct Done {
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    /// Latency from the due time (open loop) or the send (closed loop).
    from_due_ms: f64,
    /// How late the sender ran past the due time.
    late_ms: f64,
    /// Send to last response byte.
    client_ms: f64,
    status: u16,
    hit: bool,
}

/// Runs one phase against `addr`: each request at its due time (open
/// loop) or back to back (closed loop). Every 200 body is checked
/// against the in-process encoding, every cache header against the
/// sequence, and every repeat against its miss's bytes.
fn drive(
    addr: SocketAddr,
    bodies: &[Body],
    reqs: &[Req],
    open_loop: bool,
    trace: Option<(Instant, u64)>,
    out: &mut Run,
) -> (Vec<Done>, f64, u64, Vec<SpanRec>) {
    let n = reqs.len();
    let next = AtomicUsize::new(0);
    let answered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let miss_bodies: Mutex<HashMap<usize, Vec<u8>>> = Mutex::new(HashMap::new());
    let problems: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let results: Mutex<Vec<(usize, Done)>> = Mutex::new(Vec::with_capacity(n));
    let spans: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
    let connects = AtomicUsize::new(0);
    // The open loop's schedule starts a moment ahead, once both lanes
    // are running; the closed loop starts at once.
    let lead = if open_loop {
        Duration::from_millis(5)
    } else {
        Duration::ZERO
    };
    let start = Instant::now() + lead;
    std::thread::scope(|s| {
        for lane in 0..LANES {
            let (next, answered, miss_bodies, problems, results, spans, connects) = (
                &next,
                &answered,
                &miss_bodies,
                &problems,
                &results,
                &spans,
                &connects,
            );
            s.spawn(move || {
                let mut client = Client::new(addr);
                let mut rec = trace.map(|(epoch, _)| {
                    Recorder::new(epoch, u32::try_from(lane).unwrap_or(u32::MAX))
                });
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let req = &reqs[i];
                    let due = open_loop.then(|| start + Duration::from_secs_f64(req.at_s));
                    if let Some(due) = due {
                        wait_until(due);
                    }
                    if let Some(miss) = req.after {
                        // Pairs with the Release store below: the miss has
                        // been answered, so its commit is visible.
                        while !answered[miss].load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                    let sent = Instant::now();
                    let request = &bodies[req.body].request;
                    let reply = match &mut rec {
                        Some(rec) => {
                            let item = trace.map_or(0, |(_, base)| base) + i as u64;
                            rec.span("serve.request", None, item, || client.exchange(request))
                        }
                        None => client.exchange(request),
                    };
                    let finished = Instant::now();
                    let due = due.unwrap_or(sent);
                    let mut done = Done {
                        due,
                        from_due_ms: finished.saturating_duration_since(due).as_secs_f64() * 1e3,
                        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        client_ms: finished.duration_since(sent).as_secs_f64() * 1e3,
                        status: 0,
                        hit: false,
                    };
                    let problem = match reply {
                        Err(e) => Some(format!("request {i}: {e}")),
                        Ok(reply) => {
                            done.status = reply.status;
                            done.hit = reply.cache.as_deref() == Some("hit");
                            check_reply(i, req, &reply, &bodies[req.body], miss_bodies)
                        }
                    };
                    answered[i].store(true, Ordering::Release);
                    if let Some(p) = problem {
                        problems.lock().expect("problem list poisoned").push(p);
                    }
                    mine.push((i, done));
                }
                connects.fetch_add(
                    usize::try_from(client.connects).unwrap_or(usize::MAX),
                    Ordering::Relaxed,
                );
                results.lock().expect("result list poisoned").extend(mine);
                if let Some(rec) = rec {
                    spans.lock().expect("span list poisoned").extend(rec.spans);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    for p in problems.into_inner().expect("problem list poisoned") {
        out.mismatch(p);
    }
    let mut results = results.into_inner().expect("result list poisoned");
    results.sort_by_key(|(i, _)| *i);
    let done: Vec<Done> = results.into_iter().map(|(_, d)| d).collect();
    out.attempted += done.len() as u64;
    out.failed += done.iter().filter(|d| d.status != 200).count() as u64;
    (
        done,
        wall,
        connects.into_inner() as u64,
        spans.into_inner().expect("span list poisoned"),
    )
}

fn check_reply(
    i: usize,
    req: &Req,
    reply: &Reply,
    body: &Body,
    miss_bodies: &Mutex<HashMap<usize, Vec<u8>>>,
) -> Option<String> {
    if reply.status == 503 {
        // Refused under load: counted as failed, not as a wrong answer.
        return None;
    }
    let expected = match &body.expected {
        Ok(json) => json.as_bytes(),
        Err(_) => {
            return (reply.status == 200)
                .then(|| format!("request {i}: 200 for a failing document"))
        }
    };
    if reply.status != 200 {
        return Some(format!("request {i}: status {}", reply.status));
    }
    if reply.body != expected {
        return Some(format!(
            "request {i}: body differs from the in-process extraction"
        ));
    }
    if reply.cache.as_deref() != Some(req.cache.header()) {
        return Some(format!(
            "request {i}: x-rbd-cache {:?}, expected {}",
            reply.cache,
            req.cache.header()
        ));
    }
    let mut misses = miss_bodies.lock().expect("miss bodies poisoned");
    match (req.cache, req.after) {
        (Cache::Miss, _) => {
            misses.insert(i, reply.body.clone());
            None
        }
        (Cache::Hit, Some(miss)) => (misses.get(&miss) != Some(&reply.body))
            .then(|| format!("request {i}: hit body differs from its miss (request {miss})")),
        (Cache::Hit, None) => None,
    }
}

/// Both phases on a fresh copy of the pristine log.
struct Traffic {
    open: Vec<Done>,
    closed: Vec<Done>,
    open_wall_s: f64,
    closed_wall_s: f64,
    /// The timer probe's ticks during each phase.
    open_ticks: Ticks,
    closed_ticks: Ticks,
    connects: u64,
    report: ServeReport,
    spans: Vec<SpanRec>,
}

/// The tail of an open phase: each window's highest percentile with
/// [`stats::TAIL_BEYOND`] samples beyond it, then the median over the
/// windows, since one host stall inflates every request due during it and
/// must not decide the run's figure alone. Returns the figure, the
/// percentile and the window count.
fn windowed_tail(latencies: &[f64]) -> (f64, f64, usize) {
    let tails: Vec<(f64, f64)> = latencies
        .chunks_exact(TAIL_WINDOW)
        .map(stats::tail)
        .collect();
    let pct = tails.first().map_or(100.0, |t| t.1);
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    (stats::median(&values), pct, values.len())
}

impl Traffic {
    /// The closed loop's completion rate on the timer-calibrated clock.
    fn nominal_rate(&self) -> f64 {
        self.closed.len() as f64
            / self.closed_wall_s
            / clock::timer_to_nominal(self.closed_ticks.mean_period_ms(), RATE_TIMER_POWER)
    }
}

fn traffic(
    log: &Path,
    bodies: &[Body],
    open: &[Req],
    closed: &[Req],
    trace: Option<Instant>,
    out: &mut Run,
) -> Result<Traffic, String> {
    let (server, _) = Running::start(log)?;
    let probe = TimerProbe::start();
    let (open_done, open_wall_s, c1, mut spans) =
        drive(server.addr, bodies, open, true, trace.map(|e| (e, 0)), out);
    let open_ticks = probe.finish();
    let probe = TimerProbe::start();
    let (closed_done, closed_wall_s, c2, more) = drive(
        server.addr,
        bodies,
        closed,
        false,
        trace.map(|e| (e, open.len() as u64)),
        out,
    );
    let closed_ticks = probe.finish();
    spans.extend(more);
    let report = server.stop()?;
    Ok(Traffic {
        open: open_done,
        closed: closed_done,
        open_wall_s,
        closed_wall_s,
        open_ticks,
        closed_ticks,
        connects: c1 + c2,
        report,
        spans,
    })
}

fn histogram_mean_ms(report: &ServeReport, name: &str) -> f64 {
    report
        .metrics
        .histograms
        .get(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64 / 1e6)
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Result<Run, String> {
    let mut out = Run::default();
    let dir = out_dir().join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let work = WorkDir(dir);

    // The request sequences.
    let size = |per_s: f64| {
        ((per_s * seconds / 2.0).round() as usize)
            .clamp(MIN_REQUESTS, scale.serve_max_requests.max(MIN_REQUESTS))
    };
    let (n_open, n_closed) = (size(RATE_PER_S), size(CLOSED_SIZING_PER_S));
    let n_fresh = (0..n_closed).filter(|&i| is_miss_slot(i)).count();
    let mut rng = SplitMix(seed ^ 0x5e57_e000_0000_0001);
    let mut fresh_ids = scale.serve_hot..scale.serve_hot + n_fresh;
    let open = open_phase(n_open, scale.serve_hot, &mut rng);
    let closed = closed_phase(n_closed, scale.serve_hot, &mut fresh_ids, &mut rng);

    // Documents: the committed set the requests repeat, the fresh ones,
    // and filler that only lengthens the log.
    let styles = inputs::styles();
    let mut docs = inputs::docs(&styles, 0, scale.serve_hot, seed);
    docs.extend(inputs::docs(&styles, FIRST_FRESH_INDEX, n_fresh, seed));
    let filler = inputs::docs(&styles, FIRST_FILLER_INDEX, scale.serve_filler, seed);

    // References, and the pristine log holding the committed set plus
    // filler.
    let extractor = RecordExtractor::new(ExtractorConfig::default()).map_err(|e| e.to_string())?;
    let pristine = work.0.join("pristine.log");
    let mut bodies = Vec::with_capacity(docs.len());
    let mut correct_sep = 0usize;
    {
        let committed: Vec<StoredDoc> = docs[..scale.serve_hot]
            .iter()
            .chain(&filler)
            .filter_map(|doc| {
                let ex = extractor.extract_records(&doc.html).ok()?;
                let hash = ContentHash::of(doc.html.as_bytes());
                Some(StoredDoc::from_extraction(hash, None, &ex))
            })
            .collect();
        let mut store = Store::open(&pristine).map_err(|e| e.to_string())?;
        for batch in committed.chunks(100) {
            store.append_batch(batch).map_err(|e| e.to_string())?;
        }
    }
    for Doc { html, truth, .. } in docs {
        let expected = match extractor.extract_records(&html) {
            Ok(ex) => {
                if ex.outcome.separator == truth {
                    correct_sep += 1;
                }
                Ok(extraction_response_json(&ex).to_compact())
            }
            Err(e) => Err(e.to_string()),
        };
        let mut request = format!(
            "POST /extract HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
            html.len()
        )
        .into_bytes();
        request.extend_from_slice(html.as_bytes());
        bodies.push(Body {
            request,
            html,
            expected,
        });
    }
    drop(filler);
    out.put("accuracy", correct_sep as f64 / bodies.len() as f64);
    let log_mib = std::fs::metadata(&pristine).map_or(0.0, |m| m.len() as f64 / 1048576.0);

    // Set-up: Server::bind, which opens (recovers) the log, repeated. A
    // clean log is read and not written, so every trial opens one copy.
    let mut setup = Vec::with_capacity(SETUP_TRIALS);
    let mut raw = Vec::with_capacity(SETUP_TRIALS);
    let mut calibs = Vec::new();
    let log = work.0.join("setup.log");
    copy(&pristine, &log)?;
    for _ in 0..SETUP_TRIALS {
        let calib = clock::measure(1);
        let (server, bind_s) = Running::start(&log)?;
        server.stop()?;
        setup.push(bind_s * clock::to_nominal_at(calib, LOG_OPEN_SENSITIVITY));
        raw.push(bind_s);
        calibs.push(calib);
    }
    out.put("setup_s", stats::median(&setup));
    out.note(format!(
        "set-up {:.3} ms raw, calibration loop {:.3} ms",
        stats::median(&raw) * 1e3,
        stats::median(&calibs)
    ));

    // The measured run.
    let peak = stats::PeakRss::start()?;
    let log = work.0.join("run.log");
    copy(&pristine, &log)?;
    let plain = traffic(&log, &bodies, &open, &closed, None, &mut out)?;
    out.put("peak_rss_mib", peak.read()?);
    // Serve timings are timer-bound, so the timer probe, not the CPU
    // reference loop, scales them to a nominal host.
    let latencies: Vec<f64> = plain.open.iter().map(|d| d.from_due_ms).collect();
    let (p50, (tail, tail_pct, windows)) = (stats::median(&latencies), windowed_tail(&latencies));
    let period_ms = plain.open_ticks.mean_period_ms();
    // The probe's own tail: the waits of the same due times for its next
    // tick, through the same windows.
    let (probe_tail, ..) =
        windowed_tail(&plain.open_ticks.waits_ms(plain.open.iter().map(|d| d.due)));
    out.put(
        "latency_p50_ms",
        p50 * clock::timer_to_nominal(period_ms, P50_TIMER_POWER),
    );
    out.put(
        "latency_tail_ms",
        tail * (NOMINAL_PROBE_TAIL_MS / probe_tail).powf(TAIL_TIMER_POWER),
    );
    let plain_rate = plain.nominal_rate();
    out.put("docs_per_s", plain_rate);
    out.put("machine.timer_ms", period_ms);
    out.note(format!(
        "timer probe: period {period_ms:.4} ms open loop, {:.4} ms closed loop, tail {probe_tail:.4} ms; raw p50 {p50:.4} ms, tail {tail:.4} ms, {:.2} docs/s",
        plain.closed_ticks.mean_period_ms(),
        plain.closed.len() as f64 / plain.closed_wall_s,
    ));
    out.note(format!(
        "log {log_mib:.1} MiB; open loop {n_open} hits at {RATE_PER_S}/s, tail = median over {windows} windows of each window's p{tail_pct:.0} of {TAIL_WINDOW}; closed loop {n_closed} requests on {LANES} connections, 1 in {MISS_EVERY} fresh"
    ));

    if trace {
        let epoch = Instant::now();
        let log = work.0.join("traced.log");
        copy(&pristine, &log)?;
        let traced = traffic(&log, &bodies, &open, &closed, Some(epoch), &mut out)?;
        let all: Vec<&Done> = traced.open.iter().chain(&traced.closed).collect();
        let requests = all.len() as f64;
        let server_ms = histogram_mean_ms(&traced.report, "serve_request_latency");
        let client_ms = stats::mean(&all.iter().map(|d| d.client_ms).collect::<Vec<_>>());
        out.put("serve.server_ms", server_ms);
        out.put("serve.accept_wait_ms", client_ms - server_ms);
        out.put("serve.connects_per_req", traced.connects as f64 / requests);
        out.put(
            "serve.refused_share",
            all.iter().filter(|d| d.status == 503).count() as f64 / requests,
        );
        let hits = all.iter().filter(|d| d.hit).count();
        out.put("store.hit_share", hits as f64 / requests);
        let counted = traced
            .report
            .metrics
            .counters
            .get("store_cache_hits")
            .copied();
        if counted != Some(hits as u64) {
            out.mismatch(format!(
                "server counted {counted:?} store hits, the client saw {hits}"
            ));
        }
        out.put(
            "gen.late_ms",
            stats::mean(&traced.open.iter().map(|d| d.late_ms).collect::<Vec<_>>()),
        );
        let busy_ms = traced
            .report
            .metrics
            .histograms
            .get("pipeline_run_time")
            .map_or(0.0, |h| h.sum as f64 / 1e6);
        out.put(
            "pipeline.busy_share",
            busy_ms / 1e3 / (WORKERS as f64 * (traced.open_wall_s + traced.closed_wall_s)),
        );
        out.put(
            "pipeline.queue_wait_ms",
            histogram_mean_ms(&traced.report, "pipeline_queue_wait"),
        );
        out.put(
            "trace.overhead_share",
            plain_rate / traced.nominal_rate() - 1.0,
        );
        let mut spans = traced.spans;

        let mut rec = Recorder::new(epoch, u32::try_from(LANES).unwrap_or(u32::MAX));
        let reqs: Vec<(u64, &Req)> = open
            .iter()
            .chain(&closed)
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();
        calibs.extend(store_layers(
            &pristine, &work.0, &bodies, &reqs, &extractor, &mut rec, &mut out,
        )?);
        spans.extend(rec.spans);

        // Extraction layers on every distinct document the requests carry.
        let stage_set = Stages::new(&ExtractorConfig::default())?;
        let expected: Vec<Expected> = bodies.iter().map(|b| b.expected.clone()).collect();
        let items: Vec<stages::Item<'_>> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| stages::Item {
                stages: &stage_set,
                extractor: &extractor,
                id: i as u64,
                html: &b.html,
            })
            .collect();
        let traced_stages = stages::traced_passes(
            &items,
            &expected,
            WORKERS,
            scale.serve_stage_passes,
            &mut out,
        );
        calibs.extend(traced_stages.calibs);
        spans.extend(traced_stages.spans);
        out.spans = spans;
    }
    out.put("machine.calib_ms", stats::median(&calibs));
    Ok(out)
}

/// Times the store's own calls, replaying exactly what the server does
/// for the request sequence: `Store::open` of the pristine log, then per
/// request `ContentHash::of`, and `contains` + `hit` for a hit or
/// `append_batch` of one document for a miss. Returns the calibration
/// readings it took.
fn store_layers(
    pristine: &Path,
    dir: &Path,
    bodies: &[Body],
    reqs: &[(u64, &Req)],
    extractor: &RecordExtractor,
    rec: &mut Recorder,
    out: &mut Run,
) -> Result<Vec<f64>, String> {
    let mut calibs = Vec::new();
    let mut opens = Vec::with_capacity(SETUP_TRIALS);
    let replay = dir.join("replay.log");
    let mut store = None;
    for _ in 0..SETUP_TRIALS {
        drop(store.take());
        copy(pristine, &replay)?;
        let calib = clock::measure(1);
        let started = Instant::now();
        let opened = rec.span("store.open", None, 0, || Store::open(&replay));
        opens.push(
            started.elapsed().as_secs_f64()
                * 1e3
                * clock::to_nominal_at(calib, LOG_OPEN_SENSITIVITY),
        );
        store = Some(opened.map_err(|e| e.to_string())?);
        calibs.push(calib);
    }
    out.put("store.open_ms", stats::median(&opens));
    let mut store = store.expect("opened at least once");

    let calib = clock::measure(1);
    let first = rec.spans.len();
    for &(item, req) in reqs {
        let body = &bodies[req.body];
        let hash = rec.span("store.hash", None, item, || {
            ContentHash::of(body.html.as_bytes())
        });
        match req.cache {
            Cache::Hit => {
                let entry = rec.span("store.hit", None, item, || {
                    if store.contains(&hash) {
                        store.hit(&hash)
                    } else {
                        Ok(None)
                    }
                });
                let served = entry.map_err(|e| e.to_string())?;
                if served.as_ref().map(|e| e.response.as_str()) != body.expected.as_deref().ok() {
                    out.mismatch(format!("request {item}: Store::hit response differs"));
                }
            }
            Cache::Miss => {
                let ex = extractor
                    .extract_records(&body.html)
                    .map_err(|e| e.to_string())?;
                let doc = StoredDoc::from_extraction(hash, None, &ex);
                let added = rec.span("store.commit", None, item, || {
                    store.append_batch(std::slice::from_ref(&doc))
                });
                if added.map_err(|e| e.to_string())? != 1 {
                    out.mismatch(format!("request {item}: the commit added no document"));
                }
            }
        }
    }
    let f = clock::to_nominal((calib + clock::measure(1)) / 2.0);
    calibs.push(calib);
    let mut times = SelfTimes::default();
    times.add(&rec.spans[first..], 1.0);
    out.put("store.hash_us", times.mean_us("store.hash") * f);
    out.put("store.hit_us", times.mean_us("store.hit") * f);
    out.put("store.commit_ms", times.mean_us("store.commit") / 1e3);
    Ok(calibs)
}
