//! Worker threads, in the two shapes the workspace needs.
//!
//! * [`run_ordered`] runs a **finite batch**: `N` scoped workers pull
//!   `(index, input)` pairs from one mutex around the input iterator, run
//!   each through the runner, and file the [`JobResult`] in slot `index`.
//!   The caller joins the workers and gets one result per input, in input
//!   order. Inputs are taken lazily, so at most `N` are taken and not yet
//!   finished at any moment, and the runner may borrow the caller's state.
//! * [`Pool`] serves an **open-ended stream** (`rbd serve`'s connections):
//!   `N` long-lived workers block on one bounded FIFO injector, and each
//!   job routes its own result. [`Pool::try_submit`] returns
//!   [`TrySubmitError::QueueFull`] on a full injector: nothing grows
//!   without bound, and a full queue is the only refusal.
//!
//! Both run every job through the same body, [`run_job`]: the runner
//! executes under [`std::panic::catch_unwind`], so a panicking job becomes
//! a [`JobPanic`] and its worker carries on, and the per-job metrics land
//! in the worker's private registry, merged once the workers are done.

use crate::channel::{Bounded, TrySendError};
use rbd_trace::{Registry, RegistrySnapshot, TraceSink};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A job the worker caught panicking. The panic payload is flattened to a
/// message; the job's result is otherwise normal — one input, one result,
/// panic or not.
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

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobResult<R> {
    /// Index of the worker that ran the job (`0..workers`).
    pub worker: usize,
    /// Time the worker waited for the job: taking the input in
    /// [`run_ordered`], time in the injector in a [`Pool`].
    pub queue_wait: Duration,
    /// Time the runner spent on the job.
    pub run_time: Duration,
    /// The runner's output, or the caught panic.
    pub output: Result<R, JobPanic>,
}

/// Worker failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// `workers == 0`: no worker would ever run a job, so the
    /// configuration is rejected outright.
    ZeroWorkers,
    /// The OS refused to spawn a worker thread.
    Spawn(String),
    /// [`run_ordered`] ended with this many taken inputs never finished
    /// (job panics are caught and reported per job, so this should never
    /// happen).
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

/// Every input's result, in input order, plus the merged worker metrics —
/// what [`run_ordered`] returns.
#[derive(Debug)]
pub struct OrderedRun<R> {
    /// One result per input; `results[i]` belongs to input `i`.
    pub results: Vec<JobResult<R>>,
    /// All workers' private registries, merged: job counts, panics,
    /// `pipeline_queue_wait` / `pipeline_run_time` histograms.
    pub metrics: RegistrySnapshot,
}

/// What the workers of [`run_ordered`] share: the inputs not yet taken
/// and one slot per input taken so far. One lock per job files the
/// worker's last result and takes its next input.
struct Intake<I, R> {
    /// `None` once the inputs ran out, or once spawning failed so that
    /// the workers already running stop.
    inputs: Option<I>,
    slots: Vec<Option<JobResult<R>>>,
}

/// Runs every input through `runner` on `workers` scoped threads and
/// returns one result per input, in input order.
///
/// Each worker takes the next input itself, so no thread sits between
/// the inputs and the workers, and at most `workers` inputs are taken and
/// not yet finished. A panic in a job is caught and reported in its
/// result; a panic in the input iterator reaches the caller, as it would
/// in a serial loop. `sink` counts each job (`pipeline_jobs_submitted`)
/// and each panic.
///
/// # Errors
///
/// [`PoolError::ZeroWorkers`] or [`PoolError::Spawn`] when the workers
/// cannot start, and [`PoolError::LostJobs`] if some taken input never
/// finished.
pub fn run_ordered<I, R>(
    workers: usize,
    inputs: I,
    runner: impl Fn(I::Item) -> R + Sync,
    sink: &dyn TraceSink,
) -> Result<OrderedRun<R>, PoolError>
where
    I: IntoIterator,
    I::IntoIter: Send,
    R: Send,
{
    if workers == 0 {
        return Err(PoolError::ZeroWorkers);
    }
    let intake = Mutex::new(Intake {
        inputs: Some(inputs.into_iter().enumerate()),
        slots: Vec::new(),
    });
    let mut metrics = Registry::new();
    let mut spawn_error = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (intake, runner) = (&intake, &runner);
            let spawned = std::thread::Builder::new()
                .name(format!("rbd-worker-{worker}"))
                .spawn_scoped(scope, move || ordered_worker(intake, runner, sink, worker));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    lock(intake).inputs = None;
                    spawn_error = Some(PoolError::Spawn(e.to_string()));
                    break;
                }
            }
        }
        for handle in handles {
            match handle.join() {
                Ok(snapshot) => metrics.merge(&snapshot),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    if let Some(e) = spawn_error {
        return Err(e);
    }
    let slots = intake
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .slots;
    let lost = slots.iter().filter(|slot| slot.is_none()).count();
    if lost > 0 {
        return Err(PoolError::LostJobs(lost));
    }
    Ok(OrderedRun {
        results: slots.into_iter().flatten().collect(),
        metrics: metrics.typed_snapshot(),
    })
}

/// One [`run_ordered`] worker: file the last result, take the next input,
/// run it, repeat until the inputs run out. Returns its private metrics.
fn ordered_worker<I, T, R>(
    intake: &Mutex<Intake<I, R>>,
    runner: &impl Fn(T) -> R,
    sink: &dyn TraceSink,
    worker: usize,
) -> RegistrySnapshot
where
    I: Iterator<Item = (usize, T)>,
{
    let metrics = Registry::new();
    let mut finished: Option<(usize, JobResult<R>)> = None;
    loop {
        let waiting = Instant::now();
        let taken = {
            let mut intake = lock(intake);
            if let Some((index, result)) = finished.take() {
                if let Some(slot) = intake.slots.get_mut(index) {
                    *slot = Some(result);
                }
            }
            let taken = intake.inputs.as_mut().and_then(Iterator::next);
            if taken.is_some() {
                intake.slots.push(None);
            } else {
                intake.inputs = None;
            }
            taken
        };
        let Some((index, input)) = taken else {
            break;
        };
        let result = run_job(runner, input, waiting.elapsed(), &metrics, sink, worker);
        finished = Some((index, result));
    }
    metrics.typed_snapshot()
}

/// Locks the intake, recovering from poisoning: the input iterator is the
/// only caller code that runs under the lock, and its panic is re-raised
/// on the caller once the workers are joined.
fn lock<I, R>(intake: &Mutex<Intake<I, R>>) -> std::sync::MutexGuard<'_, Intake<I, R>> {
    intake.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a submission failed. The payload always comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySubmitError<T> {
    /// The injector is at capacity — backpressure.
    QueueFull(T),
    /// The pool has been shut down.
    Closed(T),
}

/// Pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads. Must be at least one.
    pub workers: usize,
    /// Injector capacity in jobs; zero is rounded up to one.
    pub queue_capacity: usize,
}

/// A job in the injector: the payload and when it was submitted.
#[derive(Debug)]
struct Job<T> {
    payload: T,
    submitted: Instant,
}

/// What [`Pool::shutdown_within`] hands back.
#[derive(Debug)]
pub struct ShutdownReport {
    /// All finished workers' private metric registries, merged: job
    /// counts, panics, queue-wait and run-time histograms. Abandoned
    /// workers could not contribute theirs.
    pub metrics: RegistrySnapshot,
    /// Workers that died outside a job (should always be zero — job
    /// panics are caught and counted per job).
    pub worker_panics: usize,
    /// Workers still running when the drain deadline expired. Their
    /// threads keep finishing in the background (threads cannot be
    /// killed), but the pool stopped waiting for them.
    pub abandoned: usize,
}

/// The long-lived worker pool. `T` is the job payload; each job routes
/// its own result (a network handler writes to the connection it owns).
#[derive(Debug)]
pub struct Pool<T> {
    injector: Arc<Bounded<Job<T>>>,
    handles: Vec<JoinHandle<RegistrySnapshot>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns the workers, each taking the oldest queued job, running it,
    /// and repeating until the injector is closed and drained. `runner`
    /// executes each job. `sink` receives the job and panic counters;
    /// per-job metrics go to private per-worker registries merged in
    /// [`Pool::shutdown_within`].
    pub fn new(
        config: PoolConfig,
        runner: impl Fn(T) + Send + Sync + 'static,
        sink: &Arc<dyn TraceSink>,
    ) -> Result<Self, PoolError> {
        if config.workers == 0 {
            return Err(PoolError::ZeroWorkers);
        }
        let injector = Arc::new(Bounded::new(config.queue_capacity));
        let runner = Arc::new(runner);
        let mut handles = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let (queue, runner, sink) =
                (Arc::clone(&injector), Arc::clone(&runner), Arc::clone(sink));
            let spawned = std::thread::Builder::new()
                .name(format!("rbd-worker-{worker}"))
                .spawn(move || {
                    let metrics = Registry::new();
                    while let Some(Job { payload, submitted }) = queue.recv() {
                        let queue_wait = submitted.elapsed();
                        run_job(&*runner, payload, queue_wait, &metrics, &*sink, worker);
                    }
                    metrics.typed_snapshot()
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind: release the workers already running.
                    injector.close();
                    return Err(PoolError::Spawn(e.to_string()));
                }
            }
        }
        Ok(Pool { injector, handles })
    }

    /// Jobs waiting in the injector right now (excludes running jobs).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.injector.len()
    }

    /// Submits a job only if the injector has room right now.
    /// [`TrySubmitError::QueueFull`] is the backpressure signal.
    pub fn try_submit(&self, payload: T) -> Result<(), TrySubmitError<T>> {
        let job = Job {
            payload,
            submitted: Instant::now(),
        };
        self.injector.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) => TrySubmitError::QueueFull(job.payload),
            TrySendError::Closed(job) => TrySubmitError::Closed(job.payload),
        })
    }

    /// Closes the injector and gives the already-admitted jobs up to
    /// `deadline` of wall clock to finish; workers still running when it
    /// expires are *abandoned* — their `JoinHandle`s dropped, so they exit
    /// in the background once the queue is drained — and counted in
    /// [`ShutdownReport::abandoned`]. This is the graceful-shutdown
    /// primitive for a long-lived service: drain in-flight work, but never
    /// let one wedged request hold the process open forever.
    pub fn shutdown_within(mut self, deadline: Duration) -> ShutdownReport {
        self.injector.close();
        let started = Instant::now();
        let mut metrics = Registry::new();
        let mut worker_panics = 0usize;
        let mut handles = std::mem::take(&mut self.handles);
        loop {
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
            if handles.is_empty() || started.elapsed() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        ShutdownReport {
            metrics: metrics.typed_snapshot(),
            worker_panics,
            abandoned: handles.len(),
        }
    }
}

impl<T> Drop for Pool<T> {
    /// Dropping without [`Pool::shutdown_within`] must not leave worker
    /// threads parked forever: closing the injector turns every worker's
    /// blocking wait into an exit path once the queue is drained.
    fn drop(&mut self) {
        self.injector.close();
    }
}

/// The one job body: runs `payload` under `catch_unwind` and records the
/// job in the worker's `metrics` (`pipeline_jobs_run`, the
/// `pipeline_queue_wait` / `pipeline_run_time` histograms,
/// `pipeline_jobs_panicked`) and in `sink` (`pipeline_jobs_submitted`,
/// `pipeline_jobs_panicked`).
fn run_job<T, R>(
    runner: &impl Fn(T) -> R,
    payload: T,
    queue_wait: Duration,
    metrics: &Registry,
    sink: &dyn TraceSink,
    worker: usize,
) -> JobResult<R> {
    sink.add("pipeline_jobs_submitted", 1);
    let started = Instant::now();
    // AssertUnwindSafe: the runner only sees state it owns (the moved
    // payload) or shares behind `&` (the caller's extractor, whose methods
    // take `&self` and keep no cross-call mutable state), so a panic
    // cannot leave anything observable torn.
    let outcome = catch_unwind(AssertUnwindSafe(|| runner(payload)));
    let run_time = started.elapsed();
    metrics.add("pipeline_jobs_run", 1);
    metrics.observe("pipeline_queue_wait", duration_ns(queue_wait));
    metrics.observe("pipeline_run_time", duration_ns(run_time));
    let output = outcome.map_err(|panic| {
        metrics.add("pipeline_jobs_panicked", 1);
        sink.add("pipeline_jobs_panicked", 1);
        JobPanic {
            message: panic_message(panic.as_ref()),
        }
    });
    JobResult {
        worker,
        queue_wait,
        run_time,
        output,
    }
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
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn null_sink() -> &'static dyn TraceSink {
        &NullSink
    }

    fn null_pool_sink() -> Arc<dyn TraceSink> {
        Arc::new(NullSink)
    }

    /// A pool over `runner` with the given sizing and a null sink.
    fn pool<T: Send + 'static>(
        workers: usize,
        queue_capacity: usize,
        runner: impl Fn(T) + Send + Sync + 'static,
    ) -> Pool<T> {
        let config = PoolConfig {
            workers,
            queue_capacity,
        };
        Pool::new(config, runner, &null_pool_sink()).expect("valid config")
    }

    /// Submits one job, waiting out a full queue.
    fn submit_waiting<T: Send + 'static>(pool: &Pool<T>, mut payload: T) {
        loop {
            match pool.try_submit(payload) {
                Ok(()) => return,
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
        let result: Result<Pool<u64>, PoolError> = Pool::new(
            PoolConfig {
                workers: 0,
                queue_capacity: 1,
            },
            |_| {},
            &null_pool_sink(),
        );
        assert_eq!(result.err(), Some(PoolError::ZeroWorkers));
        let ordered = run_ordered(0, 0..4u64, |x: u64| x, null_sink());
        assert_eq!(ordered.err(), Some(PoolError::ZeroWorkers));
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
    fn inputs_are_taken_no_faster_than_workers_finish_them() {
        for workers in [1, 2, 3] {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            // The iterator counts each take; the runner counts each finish.
            let inputs = (0..200u64).inspect(|_| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
            });
            let run = run_ordered(
                workers,
                inputs,
                |x: u64| {
                    std::thread::sleep(Duration::from_micros(50));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    x
                },
                null_sink(),
            )
            .expect("valid config");
            assert_eq!(run.results.len(), 200);
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (1..=workers).contains(&peak),
                "workers={workers}: {peak} inputs taken and unfinished at once"
            );
        }
    }

    #[test]
    fn input_iterator_panic_reaches_the_caller() {
        let inputs = (0..10u64).inspect(|&x| assert!(x != 5, "bad input"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_ordered(2, inputs, |x: u64| x, null_sink())
        }));
        let payload = caught.expect_err("the iterator's panic propagates");
        assert_eq!(panic_message(payload.as_ref()), "bad input");
    }

    #[test]
    fn runner_borrows_caller_owned_state() {
        // Neither the table nor the tally is 'static or shared by `Arc`.
        let table: Vec<String> = (0..50).map(|i| "x".repeat(i)).collect();
        let tally = Mutex::new(Vec::new());
        let run = run_ordered(
            2,
            table.iter(),
            |s: &String| {
                tally.lock().expect("unpoisoned").push(s.len());
                s.len()
            },
            null_sink(),
        )
        .expect("valid config");
        let lengths: Vec<usize> = run
            .results
            .into_iter()
            .map(|r| r.output.expect("ran"))
            .collect();
        assert_eq!(lengths, (0..50).collect::<Vec<_>>());
        let mut tally = tally.into_inner().expect("unpoisoned");
        tally.sort_unstable();
        assert_eq!(tally, lengths);
    }

    #[test]
    fn pool_runs_every_job() {
        let ran = Arc::new(AtomicU64::new(0));
        let pool = {
            let ran = Arc::clone(&ran);
            pool(2, 8, move |x: u64| {
                ran.fetch_add(x, Ordering::SeqCst);
            })
        };
        // Far more jobs than the queue holds, and nobody collects results.
        for x in 0..100u64 {
            submit_waiting(&pool, x);
        }
        let report = pool.shutdown_within(Duration::from_secs(30));
        assert_eq!(ran.load(Ordering::SeqCst), (0..100).sum::<u64>());
        assert_eq!(report.metrics.counters.get("pipeline_jobs_run"), Some(&100));
        assert_eq!(report.worker_panics, 0);
        assert_eq!(report.abandoned, 0);
    }

    #[test]
    fn pool_counts_panics() {
        let pool = pool(1, 2, |x: u64| {
            assert!(x != 7, "bad payload");
        });
        for x in [7u64, 1, 2] {
            submit_waiting(&pool, x);
        }
        let report = pool.shutdown_within(Duration::from_secs(30));
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
            pool(1, 2, move |_: u64| {
                gate.recv();
            })
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
        // Release the abandoned thread so it exits cleanly in background.
        gate.close();
    }

    #[test]
    fn metrics_cover_every_job() {
        let run = run_ordered(4, 0..50u64, |x: u64| x * x, null_sink()).expect("valid config");
        let pool = pool(4, 8, |_: u64| {});
        for x in 0..50u64 {
            submit_waiting(&pool, x);
        }
        let report = pool.shutdown_within(Duration::from_secs(30));
        for metrics in [&run.metrics, &report.metrics] {
            assert_eq!(metrics.counters.get("pipeline_jobs_run"), Some(&50));
            for histogram in ["pipeline_queue_wait", "pipeline_run_time"] {
                let h = metrics.histograms.get(histogram).expect("histogram");
                assert_eq!(h.count, 50, "{histogram}");
            }
        }
    }
}
