//! One benchmark per paper table: each measures regenerating that table's
//! data from scratch (corpus generation + evaluation), so `cargo bench`
//! doubles as a reproducibility smoke test — a panic in any experiment
//! fails the bench.

use rbd_bench::{black_box, Harness};
use rbd_certainty::CertaintyTable;
use rbd_corpus::{initial_corpus, test_corpus, Domain};
use rbd_eval::{calibrate, combination_sweep, run_test_sets, HeuristicRunner, DEFAULT_SEED};

fn bench_table_2_3_calibration(h: &mut Harness) {
    let runner = HeuristicRunner::new().expect("ontologies compile");
    let mut group = h.group("tables");
    group.sample_size(10);
    // Tables 2–4 come from one calibration pass over 100 documents.
    group.bench_function("table2_3_4_calibration", |b| {
        b.iter(|| black_box(calibrate(&runner, DEFAULT_SEED, 1)));
    });
    group.finish();
}

fn bench_table_5_sweep(h: &mut Harness) {
    let runner = HeuristicRunner::new().expect("ontologies compile");
    let calibration = calibrate(&runner, DEFAULT_SEED, 1);
    let table = calibration.certainty_table();
    let mut group = h.group("tables");
    group.sample_size(10);
    group.bench_function("table5_combination_sweep", |b| {
        b.iter(|| black_box(combination_sweep(&calibration, &table)));
    });
    group.finish();
}

fn bench_table_6_to_10_test_sets(h: &mut Harness) {
    let runner = HeuristicRunner::new().expect("ontologies compile");
    let table = CertaintyTable::paper_table4();
    let mut group = h.group("tables");
    group.sample_size(10);
    group.bench_function("table6_to_10_test_sets", |b| {
        b.iter(|| {
            let report = run_test_sets(&runner, &table, DEFAULT_SEED, 1);
            assert!(report.compound_success >= 95.0, "headline must hold");
            black_box(report)
        });
    });
    group.finish();
}

fn bench_corpus_generation(h: &mut Harness) {
    let mut group = h.group("corpus");
    group.sample_size(20);
    group.bench_function("initial_corpus_100_docs", |b| {
        b.iter(|| {
            let a = initial_corpus(Domain::Obituaries, DEFAULT_SEED);
            let z = initial_corpus(Domain::CarAds, DEFAULT_SEED);
            black_box((a, z))
        });
    });
    group.bench_function("test_corpus_20_docs", |b| {
        b.iter(|| {
            let docs: Vec<_> = Domain::ALL
                .into_iter()
                .flat_map(|d| test_corpus(d, DEFAULT_SEED))
                .collect();
            black_box(docs)
        });
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("tables");
    bench_table_2_3_calibration(&mut h);
    bench_table_5_sweep(&mut h);
    bench_table_6_to_10_test_sets(&mut h);
    bench_corpus_generation(&mut h);
    h.finish();
}
