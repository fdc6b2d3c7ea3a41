//! Cost of observability: extraction throughput reporting to the disabled
//! [`rbd_trace::NullSink`] (what the untraced entry points pass), and to a
//! live [`rbd_trace::CollectingSink`] recording the full audit trail.
//!
//! The NullSink path costs one `enabled()` branch per event site plus the
//! unconditional span/counter no-ops — the gate is < 1 % overhead against
//! the untraced baseline, measured here over the four-domain corpus
//! (EXPERIMENTS.md records the numbers). The harness prints per-variant
//! stats; this bench additionally interleaves the two variants and prints
//! min- and median-based overhead ratios directly, so the gate needs no
//! external arithmetic.

use rbd_bench::{black_box, Harness};
use rbd_core::{ExtractorConfig, RecordExtractor};
use rbd_corpus::{generate_document, sites, Domain};
use rbd_tagtree::TagTreeBuilder;
use rbd_trace::{CollectingSink, NullSink, TraceSink};
use std::time::Instant;

const DOMAINS: [Domain; 4] = [
    Domain::Obituaries,
    Domain::CarAds,
    Domain::JobAds,
    Domain::Courses,
];

fn corpus() -> Vec<String> {
    DOMAINS
        .iter()
        .map(|&domain| {
            let style = &sites::initial_sites(domain)[0];
            generate_document(style, domain, 0, 1998).html
        })
        .collect()
}

fn extractors() -> Vec<RecordExtractor> {
    DOMAINS
        .iter()
        .map(|&domain| {
            let config = ExtractorConfig::default().with_ontology(domain.ontology());
            RecordExtractor::new(config).expect("compiles")
        })
        .collect()
}

fn sweep(extractors: &[RecordExtractor], docs: &[String], sink: &dyn TraceSink) {
    for (extractor, html) in extractors.iter().zip(docs) {
        black_box(
            extractor
                .extract_records_traced(html, sink)
                .expect("records"),
        );
    }
}

fn bench_sink_variants(h: &mut Harness, docs: &[String]) {
    let extractors = extractors();
    let collecting_sink = CollectingSink::new();

    let bytes: usize = docs.iter().map(String::len).sum();
    let mut group = h.group("sink");
    group.throughput_bytes(bytes as u64);
    group.bench_function("null_sink", |b| {
        b.iter(|| sweep(&extractors, docs, &NullSink));
    });
    group.bench_function("collecting_sink", |b| {
        b.iter(|| sweep(&extractors, docs, &collecting_sink));
    });
    group.finish();
}

fn time_once<F: FnMut()>(routine: &mut F) -> u128 {
    let start = Instant::now();
    routine();
    start.elapsed().as_nanos()
}

/// Per-routine stats from strict alternation, so slow drift in machine
/// load (frequency scaling, noisy neighbours) hits both sides equally
/// instead of biasing whichever ran second.
struct Paired {
    a_min: u128,
    a_median: u128,
    b_min: u128,
    b_median: u128,
    /// Median of the per-iteration `b/a` ratios — each pair runs
    /// back-to-back, so whatever interference one side saw, its partner
    /// saw nearly the same; this is the drift-robust overhead estimate.
    ratio_median: f64,
}

fn interleaved<A: FnMut(), B: FnMut()>(mut a: A, mut b: B, runs: usize) -> Paired {
    let mut a_samples = Vec::with_capacity(runs);
    let mut b_samples = Vec::with_capacity(runs);
    let mut ratios = Vec::with_capacity(runs);
    for _ in 0..runs {
        let a_ns = time_once(&mut a);
        let b_ns = time_once(&mut b);
        a_samples.push(a_ns);
        b_samples.push(b_ns);
        ratios.push(b_ns as f64 / a_ns as f64);
    }
    a_samples.sort_unstable();
    b_samples.sort_unstable();
    ratios.sort_unstable_by(|x, y| x.partial_cmp(y).expect("finite"));
    Paired {
        a_min: a_samples[0],
        a_median: a_samples[runs / 2],
        b_min: b_samples[0],
        b_median: b_samples[runs / 2],
        ratio_median: ratios[runs / 2],
    }
}

/// The NullSink price on the pipeline's hot path: the uninstrumented
/// reference is [`rbd_html::tokenize`] followed by
/// [`TagTreeBuilder::try_build_from_tokens`], which replays the tokens
/// into the same builder; the instrumented side is
/// [`TagTreeBuilder::try_build`] reporting to [`NullSink`], which streams
/// the tokens into the builder as they are scanned and adds the budget
/// check, two spans and two event sites, each gated by one `enabled()`
/// branch. The streaming pass skips the token vector the reference
/// builds, so this ratio reads below zero by that saving: it bounds the
/// NullSink cost from above rather than pricing it alone.
fn measure_null_sink_overhead(docs: &[String]) {
    let builder = TagTreeBuilder::default();
    let untraced = || {
        for html in docs {
            let tokens = rbd_html::tokenize(html);
            black_box(
                builder
                    .try_build_from_tokens(html.len(), &tokens)
                    .expect("tree"),
            );
        }
    };
    let nulled = || {
        for html in docs {
            black_box(builder.try_build(html, &NullSink).expect("tree"));
        }
    };

    // Noise floor first: the identical workload on both sides. Whatever
    // ratio this arm reports is pure measurement bias (scheduler, cache,
    // code layout) — the real comparison below is only meaningful down to
    // this floor.
    interleaved(&untraced, &untraced, 20); // warm-up
    let floor = interleaved(&untraced, &untraced, 400);
    println!(
        "tracing-overhead/noise_floor               paired-ratio {:+.2} %",
        (floor.ratio_median - 1.0) * 100.0
    );

    let p = interleaved(untraced, nulled, 400);
    println!(
        "tracing-overhead/untraced_ns               min {} median {}",
        p.a_min, p.a_median
    );
    println!(
        "tracing-overhead/null_sink_ns              min {} median {}",
        p.b_min, p.b_median
    );
    println!(
        "tracing-overhead/null_sink_vs_untraced     paired-ratio {:+.2} %",
        (p.ratio_median - 1.0) * 100.0
    );
}

/// Rolling windows add one `record()` per request in `rbd serve`; a
/// disabled ring must reduce that to a single relaxed atomic load.
/// Measured as the hot-path workload plus one disabled `record()` per
/// document against the bare workload — the same shape batch mode pays
/// when windows are off.
fn measure_disabled_windows_overhead(docs: &[String]) {
    let builder = TagTreeBuilder::default();
    let windows = rbd_trace::RollingWindows::disabled();
    let bare = || {
        for html in docs {
            let tokens = rbd_html::tokenize(html);
            black_box(
                builder
                    .try_build_from_tokens(html.len(), &tokens)
                    .expect("tree"),
            );
        }
    };
    let gated = || {
        for html in docs {
            let tokens = rbd_html::tokenize(html);
            black_box(
                builder
                    .try_build_from_tokens(html.len(), &tokens)
                    .expect("tree"),
            );
            windows.record(black_box(1_000), false);
        }
    };
    interleaved(&bare, &bare, 20); // warm-up
    let p = interleaved(bare, gated, 400);
    println!(
        "tracing-overhead/disabled_windows_vs_bare  paired-ratio {:+.2} %",
        (p.ratio_median - 1.0) * 100.0
    );
}

/// Cost of actually collecting: the full audit trail against the NullSink
/// fast path, end to end through `extract_records`.
fn measure_collecting_overhead(docs: &[String]) {
    let extractors = extractors();
    let collecting = CollectingSink::new();

    let null_sweep = || sweep(&extractors, docs, &NullSink);
    let collect_sweep = || sweep(&extractors, docs, &collecting);
    interleaved(&null_sweep, &collect_sweep, 5); // warm-up
    let p = interleaved(null_sweep, collect_sweep, 60);

    println!(
        "tracing-overhead/no_sink_extract_ns        min {} median {}",
        p.a_min, p.a_median
    );
    println!(
        "tracing-overhead/collecting_extract_ns     min {} median {}",
        p.b_min, p.b_median
    );
    println!(
        "tracing-overhead/collecting_vs_null        paired-ratio {:+.2} %",
        (p.ratio_median - 1.0) * 100.0
    );
}

fn main() {
    let docs = corpus();
    let mut h = Harness::new("tracing");
    bench_sink_variants(&mut h, &docs);
    h.finish();
    measure_null_sink_overhead(&docs);
    measure_disabled_windows_overhead(&docs);
    measure_collecting_overhead(&docs);
}
