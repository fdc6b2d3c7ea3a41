//! # rbd-trace — tracing, metrics, and the decision audit trail
//!
//! The extraction pipeline is a chain of discrete stages (tokenize → tag
//! tree → highest-fan-out subtree → candidate tags → five heuristics →
//! certainty combination → boundary split), yet its only ordinary output is
//! the final extraction. This crate makes every intermediate decision
//! observable without changing any of them:
//!
//! * **Spans** ([`Span`] / [`SpanRecord`]) — monotonic
//!   [`std::time::Instant`] timings of each pipeline stage;
//! * **Counters and fixed-bucket histograms** ([`Registry`]) — process-wide
//!   telemetry (`extract_docs`, `extract_tags_scanned`, `extract_heuristic_abstentions`,
//!   per-stage latency), snapshotable to `rbd-json`;
//! * **The decision audit trail** ([`TraceEvent`]) — typed events carrying
//!   the *inputs* of each decision: the chosen fan-out subtree and its
//!   runners-up, every candidate tag's count against the 10 % threshold,
//!   each heuristic's full ranking with its raw score inputs, the certainty
//!   combination, and every degradation a governed pass applied.
//!
//! Everything funnels through one object-safe trait, [`TraceSink`]. The
//! default [`NullSink`] reports itself as disabled so instrumented code can
//! skip event construction entirely — the untraced pipeline pays one
//! branch, nothing more (measured <1 % in `crates/bench/benches/tracing.rs`;
//! see EXPERIMENTS.md). [`CollectingSink`] gathers everything in memory for
//! the CLI's `--trace`/`--metrics` flags and the golden-trace tests;
//! [`MockSink`] additionally records the call order for instrumentation
//! tests.
//!
//! Like `rbd-json`, `rbd-limits`, and `rbd-prop`, this crate has no
//! external dependencies, keeping the workspace hermetic.
//!
//! ## Example
//!
//! ```
//! use rbd_trace::{CollectingSink, Span, TraceEvent, TraceSink};
//!
//! let sink = CollectingSink::new();
//! let span = Span::start("tokenize");
//! // ... do the work ...
//! span.finish(&sink);
//! if sink.enabled() {
//!     sink.event(TraceEvent::Tokenized { bytes: 64, tokens: 9, tags: 4, warnings: 0 });
//! }
//! sink.add("extract_tags_scanned", 4);
//!
//! assert_eq!(sink.events().len(), 1);
//! assert_eq!(sink.spans().len(), 1);
//! let snapshot = sink.registry_snapshot().to_compact();
//! assert!(snapshot.contains("\"extract_tags_scanned\":4"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod scoped;
pub mod slow;
pub mod span;
pub mod window;

pub use event::{events_to_json, CandidateDecision, RankedEntry, ServerEvent, TraceEvent};
pub use export::{
    chrome_trace, registry_to_prometheus, sanitize_metric_name, spans_to_chrome_events,
    windows_to_prometheus,
};
pub use metrics::{Histogram, HistogramSnapshot, Registry, RegistrySnapshot, LATENCY_BOUNDS_NS};
pub use scoped::ScopedSink;
pub use slow::SlowCapture;
pub use span::{unix_micros, Span, SpanId, SpanRecord, TraceId};
pub use window::{RollingWindows, WindowSnapshot};

use rbd_json::Json;
use std::sync::{Mutex, PoisonError};

/// Destination of trace output. Object-safe, shareable across threads.
///
/// The contract instrumented code follows:
///
/// * call [`TraceSink::enabled`] before doing *any* work that exists only
///   to be traced — building events, counting tags, even reading the clock
///   ([`Span::start_if`] wraps that check) — so a disabled sink makes
///   instrumentation one predictable branch per stage;
/// * counter increments whose value is already at hand (`add("x", 1)`) may
///   be emitted unconditionally; implementations must make them cheap
///   no-ops when disabled.
///
/// # Thread safety
///
/// The `Send + Sync` supertrait bounds are part of the contract, not an
/// implementation convenience: one sink instance (typically an
/// `Arc<dyn TraceSink>`) is shared by every worker of a concurrent batch
/// run (`rbd-pipeline`), so every method takes `&self` and must be safe to
/// call from many threads at once. Implementations must guarantee:
///
/// * **No lost writes** — concurrent [`TraceSink::event`] /
///   [`TraceSink::span`] / [`TraceSink::add`] calls all land; counter
///   increments are atomic with respect to one another.
/// * **Per-thread order** — the calls one thread makes are observed in
///   the order it made them. *Cross*-thread interleaving is unspecified:
///   events from different documents may interleave arbitrarily, which is
///   why concurrent callers must not assume a global event order (the
///   batch pipeline restores determinism by sorting results by document
///   id, not by trace order).
/// * **No blocking on the caller's critical path** beyond a short mutex
///   hold; a sink must never call back into the pipeline.
///
/// Code that needs contention-free hot-path metrics should record into a
/// private [`Registry`] per thread and aggregate with [`Registry::merge`]
/// afterwards, reserving the shared sink for per-document events.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// `false` when the sink discards everything — instrumented code skips
    /// event construction entirely. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one decision-audit event.
    fn event(&self, event: TraceEvent);

    /// Records one finished span.
    fn span(&self, span: SpanRecord);

    /// Adds `delta` to the named counter.
    fn add(&self, counter: &'static str, delta: u64);
}

/// The no-op sink: reports itself disabled, discards everything. This is
/// what untraced pipeline runs use, so its methods must never allocate.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: TraceEvent) {}

    fn span(&self, _span: SpanRecord) {}

    fn add(&self, _counter: &'static str, _delta: u64) {}
}

/// Collects events and spans in memory and maintains a [`Registry`]:
/// counters from [`TraceSink::add`], per-stage latency histograms from the
/// spans. The backing store is mutex-protected, so one sink can serve a
/// whole extraction (or a corpus of them) across threads.
///
/// Collection is bounded: once the event (or span) store reaches the
/// configured cap — [`CollectingSink::DEFAULT_CAP`] unless overridden via
/// [`CollectingSink::with_event_cap`] — further records are dropped and
/// counted under `trace_events_dropped` / `trace_spans_dropped`, so a
/// long soak or `--trace` run cannot grow memory without bound. Dropped
/// spans still feed the latency histograms; only the per-record storage
/// is capped.
///
/// `CollectingSink` is `Send + Sync` by construction (every field is
/// mutex-protected); the `sinks_are_send_and_sync` compile-time assertion
/// test pins that property so a future field cannot silently revoke it.
#[derive(Debug)]
pub struct CollectingSink {
    events: Mutex<Vec<TraceEvent>>,
    spans: Mutex<Vec<SpanRecord>>,
    registry: Registry,
    cap: usize,
}

impl Default for CollectingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingSink {
    /// Default bound on stored events and spans (each).
    pub const DEFAULT_CAP: usize = 65_536;

    /// Creates an empty sink with the default cap.
    #[must_use]
    pub fn new() -> Self {
        CollectingSink {
            events: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            registry: Registry::new(),
            cap: Self::DEFAULT_CAP,
        }
    }

    /// Creates an empty sink holding at most `cap` events and `cap` spans
    /// (at least one each).
    #[must_use]
    pub fn with_event_cap(cap: usize) -> Self {
        CollectingSink {
            cap: cap.max(1),
            ..Self::new()
        }
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The spans recorded so far, in finish order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Snapshot of the counters and histograms.
    pub fn registry_snapshot(&self) -> Json {
        self.registry.typed_snapshot().to_json()
    }

    /// The underlying registry (for direct counter reads in tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The full trace as JSON: `{"events": [...], "spans": [...],
    /// "metrics": {...}, "traceEvents": [...]}` — what `rbd --trace
    /// <file>` writes. The `traceEvents` key makes the same file loadable
    /// as-is in Perfetto / `chrome://tracing`, which accept any JSON
    /// object containing that key.
    pub fn trace_json(&self) -> Json {
        let spans = self.spans();
        Json::object([
            ("events", events_to_json(&self.events())),
            (
                "spans",
                Json::Array(spans.iter().map(SpanRecord::to_json).collect()),
            ),
            ("metrics", self.registry_snapshot()),
            ("traceEvents", export::spans_to_chrome_events(&spans)),
        ])
    }
}

impl TraceSink for CollectingSink {
    fn event(&self, event: TraceEvent) {
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() >= self.cap {
            drop(events);
            self.registry.add("trace_events_dropped", 1);
            return;
        }
        events.push(event);
    }

    fn span(&self, span: SpanRecord) {
        self.registry.observe(span.name, span.nanos);
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() >= self.cap {
            drop(spans);
            self.registry.add("trace_spans_dropped", 1);
            return;
        }
        spans.push(span);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.registry.add(counter, delta);
    }
}

/// The long-lived-service sink: keeps counters and latency histograms in a
/// [`Registry`], *discards* events and spans, and reports itself disabled
/// so instrumented code skips event construction. [`CollectingSink`]
/// accumulates every event in an unbounded `Vec`, which is exactly wrong
/// for a process meant to run for weeks — this sink's memory footprint is
/// bounded by the number of distinct metric names, not by traffic.
///
/// `rbd serve` installs one of these for its worker pool and serves the
/// snapshot over `/metrics`.
#[derive(Debug, Default)]
pub struct MetricsSink {
    registry: Registry,
}

impl MetricsSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying registry (for snapshots and direct reads).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl TraceSink for MetricsSink {
    /// Disabled: events exist only to be collected, and this sink keeps
    /// none — callers honoring the contract never build them.
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: TraceEvent) {}

    /// Spans still feed the latency histograms; only the per-span records
    /// are dropped.
    fn span(&self, span: SpanRecord) {
        self.registry.observe(span.name, span.nanos);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.registry.add(counter, delta);
    }
}

/// A test double: collects like [`CollectingSink`] but also records a
/// flat, ordered log of every call (`"event:subtree_chosen"`,
/// `"span:tokenize"`, `"add:tags_scanned+42"`), and its
/// [`TraceSink::enabled`] answer is configurable so tests can assert the
/// disabled path emits nothing.
#[derive(Debug)]
pub struct MockSink {
    enabled: bool,
    inner: CollectingSink,
    calls: Mutex<Vec<String>>,
}

impl Default for MockSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MockSink {
    /// An enabled mock.
    #[must_use]
    pub fn new() -> Self {
        MockSink {
            enabled: true,
            inner: CollectingSink::new(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// A mock that reports itself disabled (but still records calls, so a
    /// test can prove no event reached it).
    #[must_use]
    pub fn disabled() -> Self {
        MockSink {
            enabled: false,
            ..Self::new()
        }
    }

    /// The ordered call log.
    pub fn calls(&self) -> Vec<String> {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The collected events (same as [`CollectingSink::events`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events()
    }

    /// The collected spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans()
    }

    /// Counter value, zero if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.registry().counter(name)
    }

    fn log(&self, entry: String) {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(entry);
    }
}

impl TraceSink for MockSink {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn event(&self, event: TraceEvent) {
        self.log(format!("event:{}", event.kind()));
        self.inner.event(event);
    }

    fn span(&self, span: SpanRecord) {
        self.log(format!("span:{}", span.name));
        self.inner.span(span);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.log(format!("add:{counter}+{delta}"));
        self.inner.add(counter, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.event(TraceEvent::Shortcut {
            separator: "hr".into(),
        });
        sink.span(SpanRecord::synthetic("tokenize", 1));
        sink.add("docs_extracted", 1);
        // Nothing to observe: NullSink holds no state at all.
    }

    #[test]
    fn collecting_sink_gathers_everything() {
        let sink = CollectingSink::new();
        assert!(sink.enabled());
        sink.event(TraceEvent::Shortcut {
            separator: "p".into(),
        });
        sink.span(SpanRecord::synthetic("tree_build", 1_500));
        sink.add("docs_extracted", 2);
        sink.add("docs_extracted", 1);

        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.registry().counter("docs_extracted"), 3);
        let json = sink.trace_json().to_compact();
        assert!(json.contains("\"events\""), "{json}");
        assert!(json.contains("\"spans\""), "{json}");
        assert!(json.contains("\"docs_extracted\":3"), "{json}");
    }

    #[test]
    fn spans_feed_latency_histograms() {
        let sink = CollectingSink::new();
        for nanos in [500, 1_500, 2_000_000] {
            sink.span(SpanRecord::synthetic("heuristic:HT", nanos));
        }
        let snap = sink.registry_snapshot().to_compact();
        assert!(snap.contains("\"heuristic:HT\""), "{snap}");
        assert!(snap.contains("\"count\":3"), "{snap}");
    }

    #[test]
    fn metrics_sink_is_bounded_and_disabled() {
        let sink = MetricsSink::new();
        assert!(!sink.enabled(), "events must be skippable at the call site");
        // Events that arrive anyway (unconditional emitters) vanish without
        // allocating; counters and span latencies still accumulate.
        sink.event(TraceEvent::Server(ServerEvent::ConnAccepted {
            peer: "127.0.0.1:9".into(),
            active: 1,
        }));
        sink.span(SpanRecord::synthetic("serve:request", 2_000));
        sink.add("serve_requests", 1);
        sink.add("serve_requests", 1);
        assert_eq!(sink.registry().counter("serve_requests"), 2);
        let snap = sink.registry().typed_snapshot().to_json().to_compact();
        assert!(snap.contains("\"serve:request\""), "{snap}");
    }

    #[test]
    fn mock_sink_records_call_order() {
        let sink = MockSink::new();
        sink.span(SpanRecord::synthetic("tokenize", 10));
        sink.add("tags_scanned", 7);
        sink.event(TraceEvent::Shortcut {
            separator: "hr".into(),
        });
        assert_eq!(
            sink.calls(),
            vec!["span:tokenize", "add:tags_scanned+7", "event:shortcut"]
        );
        assert_eq!(sink.counter("tags_scanned"), 7);
    }

    #[test]
    fn disabled_mock_reports_disabled() {
        let sink = MockSink::disabled();
        assert!(!sink.enabled());
        // Callers honoring the contract will not emit; the mock still
        // records anything that *does* arrive, which is how tests catch
        // instrumentation that ignores `enabled()`.
        assert!(sink.calls().is_empty());
    }

    #[test]
    fn collecting_sink_caps_events_and_counts_overflow() {
        let sink = CollectingSink::with_event_cap(3);
        for _ in 0..5 {
            sink.event(TraceEvent::Shortcut {
                separator: "hr".into(),
            });
        }
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.registry().counter("trace_events_dropped"), 2);
    }

    #[test]
    fn collecting_sink_caps_spans_but_histograms_see_everything() {
        let sink = CollectingSink::with_event_cap(2);
        for nanos in [100, 200, 300, 400] {
            sink.span(SpanRecord::synthetic("tokenize", nanos));
        }
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.registry().counter("trace_spans_dropped"), 2);
        let hist = sink.registry().histogram("tokenize").expect("histogram");
        assert_eq!(hist.count, 4, "dropped spans still feed the histogram");
    }

    #[test]
    fn trace_json_includes_perfetto_trace_events() {
        let sink = CollectingSink::new();
        Span::start("tokenize").finish(&sink);
        let json = sink.trace_json().to_compact();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    /// Compile-time assertion: the shipped sinks satisfy the `Send + Sync`
    /// thread-safety contract of [`TraceSink`]. If a future field makes
    /// one of them thread-unsafe (an `Rc`, a `Cell`, a raw pointer), this
    /// test stops *compiling* — the failure cannot reach CI as a flaky
    /// runtime race.
    #[test]
    fn sinks_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NullSink>();
        assert_send_sync::<CollectingSink>();
        assert_send_sync::<MetricsSink>();
        assert_send_sync::<MockSink>();
        // The trait object form workers actually share.
        assert_send_sync::<std::sync::Arc<dyn TraceSink>>();
        // The aggregation types the pipeline hands between threads.
        assert_send_sync::<Registry>();
        assert_send_sync::<RegistrySnapshot>();
    }

    #[test]
    fn sink_is_object_safe_and_shareable() {
        let sink: std::sync::Arc<dyn TraceSink> = std::sync::Arc::new(CollectingSink::new());
        let clone = std::sync::Arc::clone(&sink);
        std::thread::spawn(move || clone.add("docs_extracted", 1))
            .join()
            .expect("thread");
        sink.add("docs_extracted", 1);
    }
}
