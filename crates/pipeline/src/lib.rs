//! # rbd-pipeline — the concurrent batch-extraction engine
//!
//! Everything before this crate processes documents one at a time; this
//! crate is the throughput layer that runs many governed extractions at
//! once without giving up the properties the rest of the workspace is
//! built on: bounded memory, explicit degradation, deterministic output,
//! and zero external dependencies.
//!
//! Three layers, bottom up:
//!
//! * `channel::Bounded` (crate-private) — a bounded MPMC channel from one
//!   `Mutex` and two `Condvar`s. Capacity is a hard, visible limit: a full
//!   channel blocks (or refuses) the producer, it never grows. The
//!   `concurrency` rule in `rbd-lint` denies unbounded channel constructs
//!   everywhere for the same reason.
//! * [`pool::Pool`] — a fixed-size worker pool: `N` workers block on one
//!   bounded FIFO injector, a full queue is the only refusal
//!   ([`TrySubmitError::QueueFull`]), and panics are isolated per job via
//!   `catch_unwind`. Workers record metrics into private registries
//!   merged at shutdown (`Registry::merge`), so the hot path shares no
//!   metric lock. [`run_ordered`] is the one submit/drain loop: it runs a
//!   list of inputs through a fresh pool and returns the completions in
//!   input order.
//! * [`batch::run_batch`] — one call that runs a corpus of `(doc_id,
//!   html)` documents through [`run_ordered`] on `N` workers and returns
//!   per-document results **sorted by `doc_id`**: a concurrent batch is
//!   byte-identical to a serial sweep over the same inputs (given
//!   deterministic per-document limits), which the threaded arm of the
//!   chaos suite asserts end to end. [`cached::run_batch_stored`] layers
//!   the persistent extraction cache (`rbd-store`, DESIGN.md §14) over
//!   the same pool: workers hash first and only extract on a cache miss,
//!   fresh results commit to the store in one crash-safe batch, and each
//!   result reports its [`CacheStatus`].
//!
//! This crate is the only place in the workspace allowed to spawn
//! threads; the `concurrency` lint rule keeps it that way.
//!
//! ## Example
//!
//! ```
//! use rbd_core::RecordExtractor;
//! use rbd_pipeline::{run_batch, BatchConfig};
//! use rbd_trace::{NullSink, TraceSink};
//! use std::sync::Arc;
//!
//! let extractor = RecordExtractor::default();
//! let docs: Vec<(u64, String)> = (0..8)
//!     .map(|i| (i, "<td><p>a a</p><p>b b</p><p>c c</p></td>".to_owned()))
//!     .collect();
//! let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
//! let report = run_batch(&extractor, docs, &BatchConfig::with_jobs(2), &sink).unwrap();
//! assert_eq!(report.results.len(), 8);
//! // Deterministic: results come back sorted by doc_id.
//! assert!(report.results.windows(2).all(|w| w[0].doc_id < w[1].doc_id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cached;
mod channel;
pub mod pool;

pub use batch::{run_batch, BatchConfig, BatchError, BatchReport, BatchResult};
pub use cached::{run_batch_stored, CacheStatus, CachedBatchReport, CachedResult};
pub use pool::{
    run_ordered, JobPanic, JobResult, OrderedRun, Pool, PoolConfig, PoolError, ShutdownReport,
    TrySubmitError,
};
