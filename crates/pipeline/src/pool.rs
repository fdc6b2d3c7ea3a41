//! The fixed-size worker pool.
//!
//! Topology: one bounded **injector** channel feeds `N` worker threads,
//! each blocking on it and taking the oldest job first. Completed jobs
//! leave through one bounded **completion** channel as [`JobResult`]s
//! carrying the job id, the worker that ran it, and its queue-wait /
//! run-time split. [`run_ordered`] is the one submitter loop over that
//! channel pair: it hands back one completion per input, in input order.
//!
//! Jobs are whole documents — milliseconds of extraction each — so one
//! shared queue whose mutex is touched once per job is nowhere near the
//! critical path, and documents carry no state from one to the next that
//! per-worker queues could keep warm.
//!
//! Two policies are explicit rather than emergent:
//!
//! * **Backpressure** — [`Pool::try_submit`] returns
//!   [`TrySubmitError::QueueFull`] on a full injector. Nothing in the pool
//!   ever grows without bound, and a full queue is the only refusal.
//! * **Panic isolation** — the runner executes under
//!   [`std::panic::catch_unwind`]; a panicking job becomes a
//!   [`JobPanic`] in its own completion record and the worker carries on.
//!   The pool cannot be poisoned by its payloads.

use crate::channel::{Bounded, TrySendError};
use rbd_trace::{Registry, RegistrySnapshot, TraceSink};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A job the pool caught panicking. The panic payload is flattened to a
/// message; the job's slot in the completion stream is otherwise normal —
/// one submission, one result, panic or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, stringified (`&str` and `String` payloads pass
    /// through verbatim).
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// One completed job, as delivered on the completion channel.
#[derive(Debug, Clone)]
pub struct JobResult<R> {
    /// The id [`Pool::try_submit`] returned for this job. Ids are assigned
    /// in submission order, so sorting results by id restores it.
    pub job_id: u64,
    /// Index of the worker that ran the job (`0..workers`).
    pub worker: usize,
    /// Time between submission and the worker picking the job up.
    pub queue_wait: Duration,
    /// Time the runner spent on the job.
    pub run_time: Duration,
    /// The runner's output, or the caught panic.
    pub output: Result<R, JobPanic>,
}

/// An internal unit of work: payload plus the bookkeeping the completion
/// record needs.
#[derive(Debug)]
struct Job<T> {
    id: u64,
    payload: T,
    submitted: Instant,
}

/// Pool failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// `workers == 0`: a pool with no workers can accept jobs but never
    /// run one — every submission would deadlock or rot in the queue, so
    /// the configuration is rejected outright.
    ZeroWorkers,
    /// The OS refused to spawn a worker thread.
    Spawn(String),
    /// [`run_ordered`] ended with this many inputs never completed: a
    /// worker thread died outside a job (job panics are caught and
    /// reported per job, so this should never happen).
    LostJobs(usize),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::ZeroWorkers => f.write_str("pool requires at least one worker"),
            PoolError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
            PoolError::LostJobs(n) => write!(f, "{n} job(s) never completed"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Why a submission failed. The payload always comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySubmitError<T> {
    /// The injector is at capacity — backpressure; try again after
    /// draining a completion.
    QueueFull(T),
    /// The pool has been shut down.
    Closed(T),
}

/// Pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads. Must be at least one.
    pub workers: usize,
    /// Injector capacity in jobs; zero is rounded up to one. The
    /// completion channel holds `queue_capacity + workers`, enough for
    /// every queued and in-flight job to complete without the submitter
    /// draining.
    pub queue_capacity: usize,
    /// `true` (the default) delivers a [`JobResult`] per job on the
    /// completion channel. `false` is **detached** mode for jobs that route
    /// their own results (e.g. a network handler writing its response to
    /// the connection it owns): no completion is sent, so nothing wedges
    /// when nobody drains, and per-job metrics still land in the worker
    /// registries merged at shutdown.
    pub deliver_completions: bool,
}

impl PoolConfig {
    /// A config with `workers` threads and a `2 × workers` injector.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers,
            queue_capacity: workers.saturating_mul(2).max(1),
            deliver_completions: true,
        }
    }

    /// Sets the injector capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Switches the pool to detached mode: jobs produce no [`JobResult`]s
    /// on the completion channel (see
    /// [`PoolConfig::deliver_completions`]).
    #[must_use]
    pub fn detached(mut self) -> Self {
        self.deliver_completions = false;
        self
    }
}

/// Everything the worker threads share.
struct Shared<T, R> {
    injector: Bounded<Job<T>>,
    completions: Bounded<JobResult<R>>,
    runner: Box<dyn Fn(T) -> R + Send + Sync>,
    sink: Arc<dyn TraceSink>,
    deliver_completions: bool,
}

impl<T, R> fmt::Debug for Shared<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("queued", &self.injector.len())
            .finish_non_exhaustive()
    }
}

/// What [`Pool::shutdown`] hands back after the last worker exits.
#[derive(Debug)]
pub struct ShutdownReport<R> {
    /// Completions the submitter had not received before shutdown, in
    /// completion order. Together with what was already received, every
    /// admitted job appears exactly once. Always empty in detached mode.
    pub unclaimed: Vec<JobResult<R>>,
    /// All workers' private metric registries, merged: job counts, panics,
    /// queue-wait and run-time histograms. Workers abandoned at a drain
    /// deadline could not contribute theirs.
    pub metrics: RegistrySnapshot,
    /// Workers that died outside a job (should always be zero — job
    /// panics are caught and reported per job).
    pub worker_panics: usize,
    /// Workers still running when a [`Pool::shutdown_within`] drain
    /// deadline expired. Their threads keep finishing in the background
    /// (threads cannot be killed), but the pool stopped waiting for them.
    /// Always zero after a plain [`Pool::shutdown`].
    pub abandoned: usize,
}

/// The worker pool. `T` is the job payload, `R` the runner's output.
#[derive(Debug)]
pub struct Pool<T, R> {
    shared: Arc<Shared<T, R>>,
    handles: Vec<JoinHandle<RegistrySnapshot>>,
    next_id: AtomicU64,
}

impl<T: Send + 'static, R: Send + 'static> Pool<T, R> {
    /// Spawns the workers. `runner` executes each job. `sink` receives the
    /// submission and panic counters; per-job metrics go to private
    /// per-worker registries merged in [`Pool::shutdown`].
    pub fn new(
        config: PoolConfig,
        runner: impl Fn(T) -> R + Send + Sync + 'static,
        sink: Arc<dyn TraceSink>,
    ) -> Result<Self, PoolError> {
        let PoolConfig {
            workers,
            queue_capacity,
            deliver_completions,
        } = config;
        if workers == 0 {
            return Err(PoolError::ZeroWorkers);
        }
        let shared = Arc::new(Shared {
            injector: Bounded::new(queue_capacity),
            completions: Bounded::new(queue_capacity.max(1) + workers),
            runner: Box::new(runner),
            sink,
            deliver_completions,
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("rbd-worker-{index}"))
                .spawn(move || worker_loop(&worker_shared, index));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind: release the workers already running.
                    shared.injector.close();
                    shared.completions.close();
                    return Err(PoolError::Spawn(e.to_string()));
                }
            }
        }
        Ok(Pool {
            shared,
            handles,
            next_id: AtomicU64::new(0),
        })
    }

    /// Jobs waiting in the injector right now (excludes running jobs).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.injector.len()
    }

    /// Submits a job only if the injector has room right now, returning
    /// the job's id — ids are assigned in submission order, so sorting
    /// completions by id reproduces it. [`TrySubmitError::QueueFull`] is
    /// the backpressure signal.
    ///
    /// Backpressure is end to end: the completion channel is bounded too,
    /// so a submitter that never drains results stops being able to
    /// submit once `queue_capacity + workers` results are outstanding.
    /// [`run_ordered`] drains one completion per refusal.
    pub fn try_submit(&self, payload: T) -> Result<u64, TrySubmitError<T>> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            id,
            payload,
            submitted: Instant::now(),
        };
        match self.shared.injector.try_send(job) {
            Ok(()) => {
                self.shared.sink.add("pipeline_jobs_submitted", 1);
                Ok(id)
            }
            Err(TrySendError::Full(job)) => Err(TrySubmitError::QueueFull(job.payload)),
            Err(TrySendError::Closed(job)) => Err(TrySubmitError::Closed(job.payload)),
        }
    }

    /// Blocks for the next completion; `None` once the pool is shut down
    /// and the completion channel drained.
    pub fn recv_result(&self) -> Option<JobResult<R>> {
        self.shared.completions.recv()
    }

    /// Closes the injector, lets every already-admitted job finish, joins
    /// the workers, and returns whatever completions the submitter had
    /// not drained. Completions are drained *while* joining, so shutdown
    /// cannot deadlock on a full completion channel — the clean-drain
    /// guarantee the chaos suite asserts.
    pub fn shutdown(self) -> ShutdownReport<R> {
        self.drain(None)
    }

    /// [`Pool::shutdown`] with a drain deadline: already-admitted jobs get
    /// up to `deadline` of wall clock to finish; workers still running
    /// when it expires are *abandoned* — their `JoinHandle`s dropped, the
    /// channels closed so they exit as soon as their current job returns —
    /// and counted in [`ShutdownReport::abandoned`]. This is the graceful-
    /// shutdown primitive for a long-lived service: drain in-flight work,
    /// but never let one wedged request hold the process open forever.
    pub fn shutdown_within(self, deadline: Duration) -> ShutdownReport<R> {
        self.drain(Some(deadline))
    }

    fn drain(mut self, deadline: Option<Duration>) -> ShutdownReport<R> {
        self.shared.injector.close();
        let started = Instant::now();
        let mut metrics = Registry::new();
        let mut unclaimed = Vec::new();
        let mut worker_panics = 0usize;
        let mut handles = std::mem::take(&mut self.handles);
        loop {
            while let Some(result) = self.shared.completions.try_recv() {
                unclaimed.push(result);
            }
            let mut still_running = Vec::with_capacity(handles.len());
            for handle in handles {
                if handle.is_finished() {
                    match handle.join() {
                        Ok(snapshot) => metrics.merge(&snapshot),
                        Err(_) => worker_panics += 1,
                    }
                } else {
                    still_running.push(handle);
                }
            }
            handles = still_running;
            if handles.is_empty() {
                break;
            }
            if deadline.is_some_and(|d| started.elapsed() >= d) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let abandoned = handles.len();
        // Dropping the surviving handles detaches the threads; closing the
        // channels turns their next blocking wait into an exit path.
        drop(handles);
        self.shared.completions.close();
        while let Some(result) = self.shared.completions.try_recv() {
            unclaimed.push(result);
        }
        ShutdownReport {
            unclaimed,
            metrics: metrics.typed_snapshot(),
            worker_panics,
            abandoned,
        }
    }
}

impl<T, R> Drop for Pool<T, R> {
    /// Dropping without [`Pool::shutdown`] must not leave worker threads
    /// parked forever: closing both channels turns every blocking wait
    /// inside a worker into an exit path. Results still queued are lost —
    /// which is what abandoning a pool means — but the threads terminate.
    fn drop(&mut self) {
        self.shared.injector.close();
        self.shared.completions.close();
    }
}

/// Every input's completion, in input order, plus the merged worker
/// metrics — what [`run_ordered`] returns.
#[derive(Debug)]
pub struct OrderedRun<R> {
    /// One completion per input; `results[i]` belongs to input `i`.
    pub results: Vec<JobResult<R>>,
    /// All workers' private registries, merged at shutdown: job counts,
    /// panics, `pipeline_queue_wait` / `pipeline_run_time` histograms.
    pub metrics: RegistrySnapshot,
}

/// Runs every input through a fresh pool of `workers` threads (with the
/// default `2 × workers` queue) and returns one completion per input, in
/// input order.
///
/// The submission pump is single-threaded on purpose. It alternates a
/// non-blocking [`Pool::try_submit`] with a blocking [`Pool::recv_result`]
/// whenever the queue is full, so it can never be blocked on both bounded
/// channels at once — the classic bounded-queue-pair deadlock — and every
/// admitted job's completion is eventually received; shutdown collects the
/// rest.
///
/// # Errors
///
/// [`PoolError::ZeroWorkers`] or [`PoolError::Spawn`] when the pool cannot
/// start, and [`PoolError::LostJobs`] if some input never completed.
pub fn run_ordered<T, R>(
    workers: usize,
    inputs: impl IntoIterator<Item = T>,
    runner: impl Fn(T) -> R + Send + Sync + 'static,
    sink: Arc<dyn TraceSink>,
) -> Result<OrderedRun<R>, PoolError>
where
    T: Send + 'static,
    R: Send + 'static,
{
    let pool = Pool::new(PoolConfig::with_workers(workers), runner, sink)?;
    let mut submitted = 0usize;
    let mut results = Vec::new();
    for mut input in inputs {
        submitted += 1;
        while let Err(TrySubmitError::QueueFull(returned)) = pool.try_submit(input) {
            input = returned;
            results.extend(pool.recv_result());
        }
    }
    let shutdown = pool.shutdown();
    results.extend(shutdown.unclaimed);
    if results.len() < submitted {
        return Err(PoolError::LostJobs(submitted - results.len()));
    }
    // Ids ascend in submission order and each admitted job completes
    // exactly once, so sorting by id restores input order.
    results.sort_by_key(|r| r.job_id);
    Ok(OrderedRun {
        results,
        metrics: shutdown.metrics,
    })
}

/// One worker thread: take the oldest queued job, run it, repeat. Exits
/// once the injector is closed and drained, or when the completion channel
/// is closed under it. Returns its private metrics for the shutdown merge.
fn worker_loop<T, R>(shared: &Shared<T, R>, me: usize) -> RegistrySnapshot {
    let metrics = Registry::new();
    while let Some(job) = shared.injector.recv() {
        if !run_job(shared, &metrics, me, job) {
            break;
        }
    }
    metrics.typed_snapshot()
}

/// Runs one job under `catch_unwind` and delivers its completion record.
/// Returns `false` when the completion channel is closed — the signal
/// that the pool was abandoned and the worker should exit.
fn run_job<T, R>(shared: &Shared<T, R>, metrics: &Registry, me: usize, job: Job<T>) -> bool {
    let queue_wait = job.submitted.elapsed();
    let Job { id, payload, .. } = job;
    let started = Instant::now();
    // AssertUnwindSafe: the runner only sees state it owns (the moved
    // payload) or shares behind `&` (the caller's extractor, whose methods
    // take `&self` and keep no cross-call mutable state), so a panic
    // cannot leave anything observable torn.
    let outcome = catch_unwind(AssertUnwindSafe(|| (shared.runner)(payload)));
    let run_time = started.elapsed();
    metrics.add("pipeline_jobs_run", 1);
    metrics.observe("pipeline_queue_wait", duration_ns(queue_wait));
    metrics.observe("pipeline_run_time", duration_ns(run_time));
    let output = outcome.map_err(|panic| {
        metrics.add("pipeline_jobs_panicked", 1);
        shared.sink.add("pipeline_jobs_panicked", 1);
        JobPanic {
            message: panic_message(panic.as_ref()),
        }
    });
    if !shared.deliver_completions {
        // Detached mode: the job routed its own result; the channel stays
        // untouched so an undrained pool can never wedge the workers.
        return true;
    }
    shared
        .completions
        .send(JobResult {
            job_id: id,
            worker: me,
            queue_wait,
            run_time,
            output,
        })
        .is_ok()
}

/// Flattens a panic payload to a message. `panic!("…")` produces `&str`
/// or `String`; anything else gets a placeholder.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Saturating nanosecond conversion for histogram recording.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_trace::NullSink;

    fn null_sink() -> Arc<dyn TraceSink> {
        Arc::new(NullSink)
    }

    /// Submits one job to a pool nobody drains, waiting out a full queue.
    fn submit_waiting<T: Send + 'static, R: Send + 'static>(pool: &Pool<T, R>, mut payload: T) {
        loop {
            match pool.try_submit(payload) {
                Ok(_) => return,
                Err(TrySubmitError::QueueFull(returned)) => {
                    payload = returned;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(TrySubmitError::Closed(_)) => panic!("pool closed under the test"),
            }
        }
    }

    #[test]
    fn every_job_completes_exactly_once() {
        for workers in [1, 2, 4] {
            let run =
                run_ordered(workers, 0..100u64, |x: u64| x * x, null_sink()).expect("valid config");
            // One completion per input, in input order: no job lost, none
            // duplicated, none out of place.
            assert_eq!(run.results.len(), 100, "workers={workers}");
            for (x, r) in (0..100u64).zip(&run.results) {
                assert_eq!(r.output, Ok(x * x), "workers={workers}");
                assert!(r.worker < workers);
            }
            assert_eq!(
                run.metrics.counters.get("pipeline_jobs_run"),
                Some(&100),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn zero_workers_is_rejected() {
        let result: Result<Pool<u64, u64>, PoolError> =
            Pool::new(PoolConfig::with_workers(0), |x| x, null_sink());
        assert_eq!(result.err(), Some(PoolError::ZeroWorkers));
    }

    #[test]
    fn panicking_job_is_isolated() {
        let inputs = [1u64, 2, 13, 3];
        let run = run_ordered(
            2,
            inputs,
            |x: u64| {
                assert!(x != 13, "unlucky payload");
                x + 1
            },
            null_sink(),
        )
        .expect("valid config");
        // Exactly one panic, at the panicking payload's index; the pool
        // survived and the others ran normally, in input order.
        for (i, (x, r)) in inputs.iter().zip(&run.results).enumerate() {
            if i == 2 {
                assert!(matches!(&r.output, Err(p) if p.message.contains("unlucky")));
            } else {
                assert_eq!(r.output, Ok(x + 1), "input {i}");
            }
        }
        assert_eq!(run.results.len(), inputs.len());
        assert_eq!(run.metrics.counters.get("pipeline_jobs_panicked"), Some(&1));
        assert_eq!(run.metrics.counters.get("pipeline_jobs_run"), Some(&4));
    }

    #[test]
    fn shutdown_returns_unclaimed_results() {
        let pool = Pool::new(
            PoolConfig::with_workers(2).with_queue_capacity(64),
            |x: u64| x,
            null_sink(),
        )
        .expect("valid config");
        for x in 0..20u64 {
            pool.try_submit(x).expect("room in the queue");
        }
        // Shut down without draining anything: nothing may be lost.
        let report = pool.shutdown();
        let mut ids: Vec<u64> = report.unclaimed.iter().map(|r| r.job_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn detached_pool_runs_jobs_without_completions() {
        let ran = Arc::new(AtomicU64::new(0));
        let pool = {
            let ran = Arc::clone(&ran);
            Pool::new(
                PoolConfig::with_workers(2)
                    .with_queue_capacity(8)
                    .detached(),
                move |x: u64| {
                    ran.fetch_add(x, Ordering::SeqCst);
                },
                null_sink(),
            )
            .expect("valid config")
        };
        // Far more jobs than the completion channel could hold: in
        // delivering mode an undrained submitter would wedge here; in
        // detached mode every job must run to completion regardless.
        for x in 0..100u64 {
            submit_waiting(&pool, x);
        }
        let report = pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), (0..100).sum::<u64>());
        assert!(report.unclaimed.is_empty(), "detached mode sends nothing");
        assert_eq!(report.metrics.counters.get("pipeline_jobs_run"), Some(&100));
        assert_eq!(report.worker_panics, 0);
        assert_eq!(report.abandoned, 0);
    }

    #[test]
    fn detached_pool_still_counts_panics() {
        let pool = Pool::new(
            PoolConfig::with_workers(1).detached(),
            |x: u64| assert!(x != 7, "bad payload"),
            null_sink(),
        )
        .expect("valid config");
        for x in [7u64, 1, 2] {
            submit_waiting(&pool, x);
        }
        let report = pool.shutdown();
        assert_eq!(report.metrics.counters.get("pipeline_jobs_run"), Some(&3));
        assert_eq!(
            report.metrics.counters.get("pipeline_jobs_panicked"),
            Some(&1)
        );
        assert_eq!(report.worker_panics, 0, "job panics are caught, not fatal");
    }

    #[test]
    fn shutdown_within_abandons_a_wedged_worker() {
        let gate: Arc<Bounded<()>> = Arc::new(Bounded::new(4));
        let pool = {
            let gate = Arc::clone(&gate);
            Pool::new(
                PoolConfig::with_workers(1).detached(),
                move |_: u64| {
                    gate.recv();
                },
                null_sink(),
            )
            .expect("valid config")
        };
        pool.try_submit(0).expect("room in the queue");
        // The single worker is parked inside the job waiting on the gate;
        // the drain deadline must expire and abandon it rather than hang.
        let started = Instant::now();
        let report = pool.shutdown_within(Duration::from_millis(50));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drain deadline must bound shutdown"
        );
        assert_eq!(report.abandoned, 1);
        // Release the detached thread so it exits cleanly in background.
        gate.close();
    }

    #[test]
    fn shutdown_within_reports_zero_abandoned_when_workers_finish() {
        let pool =
            Pool::new(PoolConfig::with_workers(2), |x: u64| x, null_sink()).expect("valid config");
        for x in 0..10u64 {
            submit_waiting(&pool, x);
        }
        let report = pool.shutdown_within(Duration::from_secs(30));
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.unclaimed.len(), 10);
    }

    #[test]
    fn metrics_cover_every_job() {
        let run = run_ordered(4, 0..50u64, |x: u64| x * x, null_sink()).expect("valid config");
        assert_eq!(run.results.len(), 50);
        // This submitter never drains, so the completion channel (sized
        // from the queue capacity) must have room for the whole batch —
        // otherwise the bounded completions exert backpressure right back
        // through the workers and the queue stays full forever, by design.
        let pool = Pool::new(
            PoolConfig::with_workers(4).with_queue_capacity(64),
            |x: u64| x,
            null_sink(),
        )
        .expect("valid config");
        for x in 0..50u64 {
            pool.try_submit(x).expect("room in the queue");
        }
        let report = pool.shutdown();
        assert_eq!(report.metrics.counters.get("pipeline_jobs_run"), Some(&50));
        let wait = report
            .metrics
            .histograms
            .get("pipeline_queue_wait")
            .expect("queue-wait histogram");
        assert_eq!(wait.count, 50);
        let run = report
            .metrics
            .histograms
            .get("pipeline_run_time")
            .expect("run-time histogram");
        assert_eq!(run.count, 50);
    }
}
