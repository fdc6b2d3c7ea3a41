//! End-to-end Figure-1 pipeline throughput: page in, populated relational
//! database out; and the per-job cost of running a batch on workers.

use rbd_bench::{black_box, Harness};
use rbd_core::{ExtractorConfig, RecordExtractor};
use rbd_corpus::{generate_document, sites, Domain};
use rbd_db::InstanceGenerator;
use rbd_ontology::domains;
use rbd_pipeline::run_ordered;
use rbd_recognizer::Recognizer;

fn bench_full_pipeline(h: &mut Harness) {
    let ontology = domains::obituaries();
    let extractor =
        RecordExtractor::new(ExtractorConfig::default().with_ontology(ontology.clone()))
            .expect("compiles");
    let recognizer = Recognizer::new(&ontology).expect("compiles");
    let generator = InstanceGenerator::new(&ontology);
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let doc = generate_document(style, Domain::Obituaries, 0, 1998);

    let mut group = h.group("pipeline");
    group.throughput_bytes(doc.html.len() as u64);
    group.bench_function("page_to_database", |b| {
        b.iter(|| {
            let extraction = extractor.extract_records(&doc.html).expect("records");
            let tables: Vec<_> = extraction
                .records
                .iter()
                .map(|r| recognizer.recognize(&r.text))
                .collect();
            let db = generator.populate(&tables);
            assert_eq!(
                db.table("Deceased").expect("entity").len(),
                doc.truth.record_count
            );
            black_box(db)
        });
    });
    group.finish();
}

fn bench_recognizer(h: &mut Harness) {
    let ontology = domains::obituaries();
    let recognizer = Recognizer::new(&ontology).expect("compiles");
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let doc = generate_document(style, Domain::Obituaries, 0, 1998);
    let text = rbd_html::tokenize(&doc.html).plain_text();

    let mut group = h.group("pipeline");
    group.throughput_bytes(text.len() as u64);
    group.bench_function("recognize_data_record_table", |b| {
        b.iter(|| black_box(recognizer.recognize(black_box(&text))));
    });
    group.finish();
}

/// The §4.5 amortization claim, measured: separate passes (discovery's OM
/// re-scans the text, then recognition scans it again, per record) vs the
/// integrated pipeline (one recognition pass feeds OM and the Data-Record
/// Table both).
fn bench_integration_ablation(h: &mut Harness) {
    let ontology = domains::obituaries();
    let extractor =
        RecordExtractor::new(ExtractorConfig::default().with_ontology(ontology.clone()))
            .expect("compiles");
    let recognizer = Recognizer::new(&ontology).expect("compiles");
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let doc = generate_document(style, Domain::Obituaries, 0, 1998);

    let mut group = h.group("integration");
    group.sample_size(20);
    group.bench_function("separate_passes", |b| {
        b.iter(|| {
            let extraction = extractor.extract_records(&doc.html).expect("records");
            let tables: Vec<_> = extraction
                .records
                .iter()
                .map(|r| recognizer.recognize(&r.text))
                .collect();
            black_box(tables)
        });
    });
    group.bench_function("integrated_single_pass", |b| {
        b.iter(|| {
            let integrated = extractor
                .discover_and_recognize(&doc.html, &recognizer, &rbd_trace::NullSink)
                .expect("records");
            black_box(integrated.record_tables())
        });
    });
    group.finish();
}

/// Jobs a no-op run through `run_ordered` per iteration.
const HANDOFF_JOBS: u64 = 10_000;

/// The hand-off alone: `run_ordered` over `HANDOFF_JOBS` inputs with a
/// runner that does nothing, at 1 and 2 workers, reported as jobs/s. Every
/// batch document pays this cost (taking the input, `catch_unwind`, the
/// per-job metrics, filing the result) on top of its extraction. Ungated:
/// it tracks the core count and the lock's contention, not the code alone.
fn bench_ordered_handoff(h: &mut Harness) {
    let mut group = h.group("handoff");
    group.sample_size(10);
    for workers in [1, 2] {
        group.bench_function(&format!("run_ordered_noop_{workers}w"), |b| {
            b.iter(|| {
                let run = run_ordered(workers, 0..HANDOFF_JOBS, |x: u64| x, &rbd_trace::NullSink)
                    .expect("workers start");
                black_box(run.results.len())
            });
        });
    }
    group.finish();
    for workers in [1, 2] {
        let name = format!("run_ordered_noop_{workers}w");
        if let Some(ns) = h.median_ns("handoff", &name) {
            #[allow(clippy::cast_precision_loss)]
            let jobs_per_s = HANDOFF_JOBS as f64 / (ns / 1e9);
            eprintln!("handoff/{name}: {jobs_per_s:.0} jobs/s");
        }
    }
}

fn main() {
    let mut h = Harness::new("pipeline");
    bench_full_pipeline(&mut h);
    bench_recognizer(&mut h);
    bench_integration_ablation(&mut h);
    bench_ordered_handoff(&mut h);
    h.finish();
}
