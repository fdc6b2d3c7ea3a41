//! # rbd-pipeline — the concurrent batch-extraction engine
//!
//! Everything before this crate processes documents one at a time; this
//! crate is the throughput layer that runs many governed extractions at
//! once without giving up the properties the rest of the workspace is
//! built on: bounded memory, explicit degradation, deterministic output,
//! and zero external dependencies.
//!
//! Two ways to run jobs, sharing one job body (`catch_unwind` per job,
//! metrics into per-worker registries merged when the workers are done,
//! via `Registry::merge`, so the hot path shares no metric lock):
//!
//! * [`run_ordered`] — a finite batch. `N` scoped workers each take the
//!   next input from one mutex around the input iterator and file the
//!   result in that input's slot; the caller joins them and gets one
//!   result per input, in input order. Inputs are taken lazily (at most
//!   `N` taken and unfinished at once), and the runner may borrow the
//!   caller's state.
//! * [`Pool`] — the long-lived workers of `rbd serve`: `N` threads block
//!   on one bounded FIFO injector (`channel::Bounded`, crate-private), a
//!   full queue is the only refusal ([`TrySubmitError::QueueFull`]), and
//!   each job routes its own result. Capacity is a hard, visible limit:
//!   the `concurrency` rule in `rbd-lint` denies unbounded channel
//!   constructs everywhere for the same reason.
//!
//! On top of [`run_ordered`]:
//!
//! * [`batch::run_batch`] — one call that runs a corpus of `(doc_id,
//!   html)` documents through [`run_ordered`] on `N` workers and returns
//!   per-document results **sorted by `doc_id`**: a concurrent batch is
//!   byte-identical to a serial sweep over the same inputs (given
//!   deterministic per-document limits), which the threaded arm of the
//!   chaos suite asserts end to end. [`cached::run_batch_stored`] layers
//!   the persistent extraction cache (`rbd-store`, DESIGN.md §14) over
//!   the same workers: documents are hashed first and only a cache miss
//!   is extracted, fresh results commit to the store in one crash-safe
//!   batch, and each result reports its [`CacheStatus`].
//!
//! This crate is the only place in the workspace allowed to spawn
//! threads, scoped or not; the `concurrency` lint rule keeps it that way.
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
