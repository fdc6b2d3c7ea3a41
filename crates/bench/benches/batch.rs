//! rbd-pipeline batch throughput at 1/2/4/8 workers.
//!
//! Two arms, because "does the pool scale" has two different answers:
//!
//! * **batch_extract** — CPU-bound: a 32-document corpus through
//!   [`run_batch`]'s governed extraction. Scaling here tracks the number
//!   of physical cores; on a single-core host the expected curve is flat
//!   (the pool must merely not *lose* throughput to queueing overhead).
//! * **batch_fetch_sim** — latency-bound: each job parks for a simulated
//!   2 ms network fetch before a trivial computation. Workers overlap the
//!   waits, so this arm scales with the worker count even on one core —
//!   the regime a real crawl-and-extract batch lives in.

use rbd_bench::{black_box, Harness};
use rbd_core::RecordExtractor;
use rbd_corpus::{generate_document, sites, Domain};
use rbd_pipeline::{run_batch, run_ordered, BatchConfig};
use rbd_trace::{NullSink, TraceSink};
use std::sync::Arc;
use std::time::Duration;

const JOBS: [usize; 4] = [1, 2, 4, 8];
const CORPUS_DOCS: usize = 32;

/// A mixed obituary corpus: every initial site style, cycled.
fn corpus() -> Vec<(u64, String)> {
    let styles = sites::initial_sites(Domain::Obituaries);
    (0..CORPUS_DOCS)
        .map(|i| {
            let style = &styles[i % styles.len()];
            let doc = generate_document(style, Domain::Obituaries, i, 1998);
            (u64::try_from(i).expect("small corpus"), doc.html)
        })
        .collect()
}

fn bench_cpu_bound(h: &mut Harness) {
    let ex = RecordExtractor::default();
    let docs = corpus();
    let bytes: u64 = docs
        .iter()
        .map(|(_, html)| u64::try_from(html.len()).expect("small doc"))
        .sum();
    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);

    let mut group = h.group("batch_extract");
    group.sample_size(10);
    group.throughput_bytes(bytes);
    for jobs in JOBS {
        group.bench_function(&format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                let report = run_batch(&ex, docs.clone(), &BatchConfig::with_jobs(jobs), &sink)
                    .expect("valid batch config");
                assert_eq!(report.results.len(), docs.len());
                black_box(report.succeeded())
            });
        });
    }
    group.finish();
}

fn bench_latency_bound(h: &mut Harness) {
    const FETCH: Duration = Duration::from_millis(2);
    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);

    let mut group = h.group("batch_fetch_sim");
    group.sample_size(10);
    for jobs in JOBS {
        group.bench_function(&format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                let run = run_ordered(
                    jobs,
                    0..u64::try_from(CORPUS_DOCS).expect("small corpus"),
                    |i: u64| {
                        std::thread::sleep(FETCH);
                        i.wrapping_mul(i)
                    },
                    Arc::clone(&sink),
                )
                .expect("valid pool config");
                assert_eq!(run.results.len(), CORPUS_DOCS, "clean drain");
                assert!(run.results.iter().all(|r| r.output.is_ok()), "no panics");
                black_box(run.results)
            });
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::new("batch");
    bench_cpu_bound(&mut h);
    bench_latency_bound(&mut h);
    h.finish();
}
