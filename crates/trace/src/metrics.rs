//! Counters and fixed-bucket histograms.
//!
//! A [`Registry`] is a mutex-protected pair of `BTreeMap`s — named `u64`
//! counters and named [`Histogram`]s — so snapshots come out in a
//! deterministic (sorted) order, which the golden-trace tests and the CI
//! chaos-metrics artifact rely on. Histograms use one fixed bucket layout,
//! [`LATENCY_BOUNDS_NS`]: recording is a linear scan over 12 bounds, no
//! allocation, no floating point.

use rbd_json::Json;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Upper bounds (inclusive, nanoseconds) of the histogram buckets, plus an
/// implicit final overflow bucket. Spaced 1µs → 100ms in 1-2.5-5 steps:
/// wide enough for a whole-document pipeline run, fine enough to separate
/// a heuristic pass from a tokenizer pass.
pub const LATENCY_BOUNDS_NS: [u64; 12] = [
    1_000,       // 1 µs
    2_500,       // 2.5 µs
    5_000,       // 5 µs
    10_000,      // 10 µs
    25_000,      // 25 µs
    50_000,      // 50 µs
    100_000,     // 100 µs
    250_000,     // 250 µs
    500_000,     // 500 µs
    1_000_000,   // 1 ms
    10_000_000,  // 10 ms
    100_000_000, // 100 ms
];

/// A fixed-bucket histogram over [`LATENCY_BOUNDS_NS`], tracking count,
/// sum, and maximum alongside the bucket tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; LATENCY_BOUNDS_NS.len() + 1],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one observation (saturating on sum overflow).
    pub fn record(&mut self, value: u64) {
        let idx = LATENCY_BOUNDS_NS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(LATENCY_BOUNDS_NS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds a snapshot of another histogram into this one: bucket-wise
    /// tally addition, count and sum added (sum saturating, like
    /// [`Histogram::record`]), max taken as the larger of the two.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (bucket, &add) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket = bucket.saturating_add(add);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// An immutable copy of the current state for reporting.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets,
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Tallies per bucket; the last entry is the overflow bucket.
    pub buckets: [u64; LATENCY_BOUNDS_NS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (0 < q ≤ 1) as an upper bound in nanoseconds, or
    /// `None` for an empty histogram.
    ///
    /// Fixed buckets cannot resolve a quantile below bucket granularity,
    /// so this returns the inclusive upper bound of the bucket containing
    /// the rank-⌈q·count⌉ observation — a conservative (never
    /// underestimating) figure, which is the right bias for latency
    /// alerting. When the rank lands in the overflow bucket, the recorded
    /// maximum is returned, since the overflow bucket has no upper bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank_f = (q * self.count as f64).ceil();
        let rank = if rank_f < 1.0 {
            1
        } else if rank_f >= self.count as f64 {
            self.count
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            // 1.0 <= rank_f < count by the branches above
            {
                rank_f as u64
            }
        };
        let mut cumulative = 0u64;
        for (i, &tally) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(tally);
            if cumulative >= rank {
                return Some(LATENCY_BOUNDS_NS.get(i).copied().unwrap_or(self.max));
            }
        }
        Some(self.max)
    }

    /// `{"count": ..., "sum": ..., "max": ..., "buckets": [...]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("max", Json::UInt(self.max)),
            (
                "buckets",
                Json::Array(self.buckets.iter().map(|&b| Json::UInt(b)).collect()),
            ),
        ])
    }
}

/// A point-in-time copy of a whole [`Registry`]: every counter and every
/// histogram, keyed by their `&'static str` names.
///
/// This is the hand-off format for multi-threaded aggregation: each worker
/// records into a *private* `Registry` (no lock contention on the hot
/// path), takes a `RegistrySnapshot` when it finishes, and the owner folds
/// the snapshots into one aggregate via [`Registry::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// JSON view: `{"counters": {...}, "histograms": {...}, "bounds_ns":
    /// [...]}`, with keys in sorted order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(&name, &value)| (name, Json::UInt(value)))
            .collect::<Vec<_>>();
        let histograms = self
            .histograms
            .iter()
            .map(|(&name, histogram)| (name, histogram.to_json()))
            .collect::<Vec<_>>();
        Json::object([
            ("counters", Json::object(counters)),
            ("histograms", Json::object(histograms)),
            (
                "bounds_ns",
                Json::Array(LATENCY_BOUNDS_NS.iter().map(|&b| Json::UInt(b)).collect()),
            ),
        ])
    }
}

/// Thread-safe home of all counters and histograms. Names are `&'static
/// str` by design: the metric namespace is closed at compile time, which
/// keeps hot-path recording allocation-free.
// Canonical nesting for `typed_snapshot`, which holds both guards in one
// struct-literal expression. Every other method takes exactly one lock.
// rbd-lint: lock-order(counters < histograms)
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn add(&self, name: &'static str, delta: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Current value of a counter; zero if never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of a single histogram, if it has been observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(Histogram::snapshot)
    }

    /// Typed snapshot of everything — the input format of
    /// [`Registry::merge`], and through [`RegistrySnapshot::to_json`] the
    /// JSON every metrics report prints.
    #[must_use]
    pub fn typed_snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&name, histogram)| (name, histogram.snapshot()))
                .collect(),
        }
    }

    /// Folds another registry's snapshot into this one: counters are
    /// summed (saturating), histograms are merged bucket-wise
    /// ([`Histogram::merge`]).
    ///
    /// Takes `&mut self` deliberately: aggregation is a cold path owned by
    /// one thread (per-worker registries merged after the workers finish),
    /// so exclusive access lets it use [`Mutex::get_mut`] and touch no lock
    /// — the hot recording path never contends with a merge.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        let counters = self
            .counters
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (&name, &value) in &other.counters {
            let slot = counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(value);
        }
        let histograms = self
            .histograms
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (&name, snapshot) in &other.histograms {
            histograms.entry(name).or_default().merge(snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let registry = Registry::new();
        assert_eq!(registry.counter("extract_docs"), 0);
        registry.add("extract_docs", 2);
        registry.add("extract_docs", 3);
        assert_eq!(registry.counter("extract_docs"), 5);
    }

    #[test]
    fn counter_add_saturates() {
        let registry = Registry::new();
        registry.add("c", u64::MAX);
        registry.add("c", 10);
        assert_eq!(registry.counter("c"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::default();
        h.record(999); // bucket 0 (≤ 1µs)
        h.record(1_000); // bucket 0 (inclusive bound)
        h.record(1_001); // bucket 1
        h.record(1_000_000_000); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[LATENCY_BOUNDS_NS.len()], 1);
        assert_eq!(snap.max, 1_000_000_000);
        assert_eq!(snap.sum, 999 + 1_000 + 1_001 + 1_000_000_000);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Registry::new();
        a.add("extract_docs", 3);
        a.add("only_in_a", 1);
        let b = Registry::new();
        b.add("extract_docs", 4);
        b.add("only_in_b", 7);
        a.merge(&b.typed_snapshot());
        assert_eq!(a.counter("extract_docs"), 7);
        assert_eq!(a.counter("only_in_a"), 1);
        assert_eq!(a.counter("only_in_b"), 7);
        // Saturating, like add().
        a.add("big", u64::MAX);
        let c = Registry::new();
        c.add("big", 5);
        a.merge(&c.typed_snapshot());
        assert_eq!(a.counter("big"), u64::MAX);
    }

    #[test]
    fn merge_adds_histograms_bucket_wise() {
        let mut a = Registry::new();
        a.observe("stage", 500); // bucket 0
        a.observe("stage", 2_000); // bucket 1
        let b = Registry::new();
        b.observe("stage", 900); // bucket 0
        b.observe("stage", 1_000_000_000); // overflow bucket
        b.observe("b_only", 5_000);
        a.merge(&b.typed_snapshot());
        let merged = a.histogram("stage").expect("merged histogram");
        assert_eq!(merged.count, 4);
        assert_eq!(merged.buckets[0], 2, "{merged:?}");
        assert_eq!(merged.buckets[1], 1, "{merged:?}");
        assert_eq!(merged.buckets[LATENCY_BOUNDS_NS.len()], 1, "{merged:?}");
        assert_eq!(merged.sum, 500 + 2_000 + 900 + 1_000_000_000);
        assert_eq!(merged.max, 1_000_000_000);
        // Histograms only the other side had are created whole.
        assert_eq!(a.histogram("b_only").map(|h| h.count), Some(1));
    }

    #[test]
    fn merge_equals_single_registry_recording_everything() {
        // The per-worker-then-merge path must be indistinguishable from one
        // shared registry: this is the property the pipeline's metrics
        // aggregation rests on.
        let observations: [(&str, u64); 5] = [
            ("w", 800),
            ("w", 30_000),
            ("w", 2_000_000),
            ("x", 1_000),
            ("w", 999),
        ];
        let mut merged = Registry::new();
        for chunk in observations.chunks(2) {
            let worker = Registry::new();
            for &(name, v) in chunk {
                worker.observe(name, v);
                worker.add("jobs", 1);
            }
            merged.merge(&worker.typed_snapshot());
        }
        let shared = Registry::new();
        for &(name, v) in &observations {
            shared.observe(name, v);
            shared.add("jobs", 1);
        }
        assert_eq!(merged.typed_snapshot(), shared.typed_snapshot());
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), None);
        assert_eq!(h.snapshot().quantile(0.99), None);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let mut h = Histogram::default();
        // 90 fast observations in bucket 0, 10 slow ones in bucket 6
        // (50µs < v ≤ 100µs): p50 resolves to bucket 0's bound, p95/p99
        // to bucket 6's.
        for _ in 0..90 {
            h.record(800);
        }
        for _ in 0..10 {
            h.record(60_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.50), Some(1_000));
        assert_eq!(
            snap.quantile(0.90),
            Some(1_000),
            "rank 90 is the last fast one"
        );
        assert_eq!(snap.quantile(0.95), Some(100_000));
        assert_eq!(snap.quantile(0.99), Some(100_000));
    }

    #[test]
    fn quantile_at_exact_bucket_boundary_values() {
        let mut h = Histogram::default();
        // Boundary values land in the bucket they bound (inclusive), so
        // the reported quantile equals the observed value exactly.
        for &bound in &LATENCY_BOUNDS_NS {
            h.record(bound);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 12);
        assert_eq!(snap.quantile(1.0 / 12.0), Some(1_000));
        assert_eq!(snap.quantile(0.5), Some(50_000), "rank 6 of 12");
        assert_eq!(snap.quantile(1.0), Some(100_000_000));
    }

    #[test]
    fn single_bucket_saturation_pins_every_quantile() {
        let mut h = Histogram::default();
        for _ in 0..10_000 {
            h.record(3_000); // all in bucket 2 (2.5µs < v ≤ 5µs)
        }
        let snap = h.snapshot();
        for q in [0.01, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), Some(5_000), "q={q}");
        }
    }

    #[test]
    fn overflow_bucket_quantile_reports_observed_max() {
        let mut h = Histogram::default();
        h.record(500);
        h.record(7_000_000_000); // 7s: overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.quantile(1.0), Some(7_000_000_000));
        assert_eq!(snap.quantile(0.5), Some(1_000));
    }

    #[test]
    fn merge_preserves_quantiles() {
        // Quantiles over a merged registry must match quantiles over one
        // registry that saw every observation — the property the rolling
        // windows' bucket merging relies on.
        let observations: [u64; 8] = [
            700, 900, 3_000, 30_000, 30_001, 400_000, 2_000_000, 50_000_000,
        ];
        let mut merged = Registry::new();
        for chunk in observations.chunks(3) {
            let worker = Registry::new();
            for &v in chunk {
                worker.observe("lat", v);
            }
            merged.merge(&worker.typed_snapshot());
        }
        let shared = Registry::new();
        for &v in &observations {
            shared.observe("lat", v);
        }
        let m = merged.histogram("lat").expect("merged");
        let s = shared.histogram("lat").expect("shared");
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(m.quantile(q), s.quantile(q), "q={q}");
        }
        assert_eq!(m.quantile(0.5), Some(50_000), "rank 4 of 8");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let registry = Registry::new();
        registry.add("zebra", 1);
        registry.add("apple", 1);
        registry.observe("stage", 5_000);
        let json = registry.typed_snapshot().to_json().to_compact();
        let apple = json.find("\"apple\"").expect("apple present");
        let zebra = json.find("\"zebra\"").expect("zebra present");
        assert!(apple < zebra, "counters must come out sorted: {json}");
        assert!(json.contains("\"stage\""), "{json}");
        assert!(json.contains("\"bounds_ns\""), "{json}");
    }
}
