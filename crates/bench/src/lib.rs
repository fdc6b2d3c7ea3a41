//! Std-only benchmark harness for the `benches/` targets.
//!
//! The workspace builds offline with no external crates, so the benches run
//! on a small [`std::time::Instant`]-based harness instead of criterion:
//!
//! * each measurement **sample** times a batch of `iters` iterations, with
//!   `iters` auto-calibrated so one batch runs long enough for the clock's
//!   resolution not to dominate;
//! * a warm-up period runs (and discards) batches before sampling;
//! * per-iteration statistics (min / median / p95 / mean) are reported per
//!   benchmark and written as machine-readable JSON to
//!   `BENCH_<name>.json` in the working directory via `rbd-json`.
//!
//! Usage mirrors criterion closely enough that a port is mechanical:
//!
//! ```no_run
//! use rbd_bench::Harness;
//!
//! let mut h = Harness::new("example");
//! let mut group = h.group("sums");
//! group.sample_size(20);
//! group.throughput_bytes(1024);
//! group.bench_function("sum_1k", |b| {
//!     b.iter(|| (0u64..1024).sum::<u64>());
//! });
//! group.finish();
//! h.finish();
//! ```

#![forbid(unsafe_code)]

use rbd_json::{Json, ToJson};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target duration for one calibrated measurement batch.
const TARGET_BATCH: Duration = Duration::from_millis(10);
/// Minimum time spent warming up before sampling starts.
const WARMUP: Duration = Duration::from_millis(50);
/// Default number of measurement samples per benchmark.
const DEFAULT_SAMPLES: usize = 20;

/// Runs one batch of iterations and records the elapsed time.
///
/// Passed to the closure given to [`Group::bench_function`]; call
/// [`Bencher::iter`] exactly once with the routine under test.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine` (results are passed through
    /// [`black_box`] so the optimizer cannot delete the work).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Per-iteration timing statistics for one benchmark, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
}

impl Stats {
    fn from_samples(samples: &mut [f64]) -> Self {
        assert!(!samples.is_empty(), "at least one sample");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = samples.len();
        let pick = |q: f64| {
            // Nearest-rank percentile; q in [0, 1].
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            #[allow(clippy::cast_precision_loss)]
            let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
            samples[idx]
        };
        #[allow(clippy::cast_precision_loss)]
        let mean_ns = samples.iter().sum::<f64>() / n as f64;
        Self {
            min_ns: samples[0],
            median_ns: pick(0.5),
            p95_ns: pick(0.95),
            mean_ns,
        }
    }
}

/// One finished benchmark: identity, sampling parameters, and stats.
#[derive(Debug, Clone)]
struct BenchResult {
    group: String,
    name: String,
    iters: u64,
    samples: usize,
    throughput_bytes: Option<u64>,
    stats: Stats,
}

impl BenchResult {
    fn throughput_mib_s(&self) -> Option<f64> {
        self.throughput_bytes.map(|bytes| {
            #[allow(clippy::cast_precision_loss)]
            let per_second = bytes as f64 / (self.stats.median_ns / 1e9);
            per_second / (1024.0 * 1024.0)
        })
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("group", self.group.to_json()),
            ("name", self.name.to_json()),
            ("iters", self.iters.to_json()),
            ("samples", self.samples.to_json()),
            ("throughput_bytes", self.throughput_bytes.to_json()),
            ("min_ns", self.stats.min_ns.to_json()),
            ("median_ns", self.stats.median_ns.to_json()),
            ("p95_ns", self.stats.p95_ns.to_json()),
            ("mean_ns", self.stats.mean_ns.to_json()),
            ("throughput_mib_s", self.throughput_mib_s().to_json()),
        ])
    }
}

/// Collects benchmark results for one bench target and writes the final
/// report.
#[derive(Debug)]
pub struct Harness {
    name: String,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness; `name` becomes the `BENCH_<name>.json` stem.
    #[must_use]
    pub fn new(name: &str) -> Self {
        eprintln!("benchmarking {name} (std harness; see rbd-bench)");
        Self {
            name: name.to_owned(),
            results: Vec::new(),
        }
    }

    /// Looks up the measured throughput (MiB/s, from the median sample) of
    /// an already-run benchmark — `None` if it has not run or declared no
    /// [`Group::throughput_bytes`]. The `hotpath` bench's regression gate
    /// reads its arms back through this before [`Harness::finish`].
    #[must_use]
    pub fn throughput_mib_s(&self, group: &str, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .and_then(BenchResult::throughput_mib_s)
    }

    /// The median time per iteration of an already-run benchmark, in
    /// nanoseconds — `None` if it has not run.
    #[must_use]
    pub fn median_ns(&self, group: &str, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.stats.median_ns)
    }

    /// Like [`Harness::throughput_mib_s`] but computed from the *fastest*
    /// sample (`min_ns`). Best-case throughput is far less sensitive to
    /// scheduler noise than the median — one clean sample suffices — which
    /// is what a pass/fail regression gate needs.
    #[must_use]
    pub fn peak_throughput_mib_s(&self, group: &str, name: &str) -> Option<f64> {
        let r = self
            .results
            .iter()
            .find(|r| r.group == group && r.name == name)?;
        r.throughput_bytes.map(|bytes| {
            #[allow(clippy::cast_precision_loss)]
            let per_second = bytes as f64 / (r.stats.min_ns / 1e9);
            per_second / (1024.0 * 1024.0)
        })
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_owned(),
            sample_size: DEFAULT_SAMPLES,
            throughput_bytes: None,
        }
    }

    /// Prints the summary table and writes `BENCH_<name>.json`.
    ///
    /// # Panics
    ///
    /// Panics if the JSON report cannot be written — benches are developer
    /// tools, and a silently missing report is worse than an abort.
    pub fn finish(self) {
        let path = format!("BENCH_{}.json", self.name);
        let blob = Json::object([
            ("bench", self.name.to_json()),
            (
                "results",
                Json::Array(self.results.iter().map(BenchResult::to_json).collect()),
            ),
        ]);
        std::fs::write(&path, blob.to_pretty() + "\n").expect("write bench report");
        eprintln!("wrote {path} ({} benchmarks)", self.results.len());
    }
}

/// A group of related benchmarks sharing sampling configuration.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    sample_size: usize,
    throughput_bytes: Option<u64>,
}

impl Group<'_> {
    /// Sets the number of measurement samples (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Declares the bytes processed per iteration; enables MiB/s reporting
    /// for subsequent benchmarks in this group.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Runs one benchmark: calibrate the batch size, warm up, then collect
    /// `sample_size` timed batches.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        // Calibrate: double the batch size until one batch reaches the
        // target duration (slow routines stay at one iteration per batch).
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        loop {
            f(&mut b);
            if b.elapsed >= TARGET_BATCH || b.iters >= 1 << 20u64 {
                break;
            }
            b.iters *= 2;
        }
        // Warm up (caches, branch predictors, lazy allocations).
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            f(&mut b);
        }
        // Measure.
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            f(&mut b);
            #[allow(clippy::cast_precision_loss)]
            samples.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
        }
        let stats = Stats::from_samples(&mut samples);
        let result = BenchResult {
            group: self.name.clone(),
            name: id.to_owned(),
            iters: b.iters,
            samples: self.sample_size,
            throughput_bytes: self.throughput_bytes,
            stats,
        };
        let throughput = result
            .throughput_mib_s()
            .map_or(String::new(), |t| format!("  {t:8.1} MiB/s"));
        eprintln!(
            "{:<44} min {:>9}  median {:>9}  p95 {:>9}{throughput}",
            format!("{}/{id}", self.name),
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
        );
        self.harness.results.push(result);
        self
    }

    /// Ends the group (provided for call-site symmetry; dropping works too).
    pub fn finish(self) {}
}

/// Formats a nanosecond quantity with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_order_and_percentiles() {
        let mut samples = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let s = Stats::from_samples(&mut samples);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.p95_ns, 5.0);
        assert!((s.mean_ns - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(750.0), "750ns");
        assert_eq!(fmt_ns(1_500.0), "1.50µs");
        assert_eq!(fmt_ns(2_250_000.0), "2.25ms");
        assert_eq!(fmt_ns(3.5e9), "3.500s");
    }

    #[test]
    fn bencher_counts_iterations() {
        let mut calls = 0u64;
        let mut b = Bencher {
            iters: 17,
            elapsed: Duration::ZERO,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 17);
    }

    #[test]
    fn result_json_shape() {
        let r = BenchResult {
            group: "g".into(),
            name: "n".into(),
            iters: 4,
            samples: 2,
            throughput_bytes: Some(1024 * 1024),
            stats: Stats {
                min_ns: 1e6,
                median_ns: 2e6,
                p95_ns: 3e6,
                mean_ns: 2e6,
            },
        };
        let json = r.to_json().to_compact();
        assert!(json.contains("\"group\":\"g\""), "{json}");
        assert!(json.contains("\"median_ns\":2000000"), "{json}");
        // 1 MiB per 2ms median = 500 MiB/s.
        assert!(json.contains("\"throughput_mib_s\":500"), "{json}");
    }
}
