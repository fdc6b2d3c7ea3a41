//! Store benchmarks and regression gate for the persistent extraction
//! cache (DESIGN.md §14).
//!
//! Four arms, all over the same document bytes:
//!
//! * `reference/byte_sum_32docs` — a scalar byte-sum over every document:
//!   a machine-speed anchor that no code in this repository moves (the
//!   same construction as the hotpath gate's reference).
//! * `extraction/extract_32docs` — full extraction (tokenize → tree →
//!   heuristics → chunking): the price a cache miss pays.
//! * `store/cold_write` — opening a fresh log and committing every
//!   extraction in one `append_batch` (write + index + fsync'd commit).
//! * `store/warm_hit` — the serve-path hit: content-hash plus the hit
//!   layer's memoized response for every document, no extraction at all.
//!
//! The gate divides each store arm's best throughput over the attempts so
//! far by the byte-sum arm's best and compares those ratios against
//! `crates/bench/baselines/store.json` like the hotpath gate, so an
//! extraction speed-up never moves them. Separately it enforces the
//! store's acceptance floor against the extraction arm: a warm cache hit
//! must be at least [`MIN_WARM_SPEEDUP`]× faster than full extraction.
//!
//! Regenerate the baseline after an intentional performance change:
//!
//! ```text
//! RBD_UPDATE_BENCH_BASELINE=1 cargo bench --bench store
//! ```

use rbd_bench::{black_box, Harness};
use rbd_core::{ExtractorConfig, RecordExtractor};
use rbd_corpus::{generate_document, sites, Domain};
use rbd_json::{Json, ToJson};
use rbd_store::{ContentHash, Store, StoredDoc};
use std::cell::RefCell;
use std::path::PathBuf;

/// Documents in the working set; enough to dwarf per-batch constant costs
/// while keeping the fsync-heavy cold arm in milliseconds.
const DOCS: usize = 32;

/// Allowed drop below the baseline ratio before the gate fails (same
/// rationale as the hotpath gate).
const TOLERANCE: f64 = 0.15;

/// Acceptance floor: a warm cache hit must beat full extraction by at
/// least this factor, on any machine — ratios cancel host speed.
const MIN_WARM_SPEEDUP: f64 = 10.0;

/// Measurement attempts; the capture runs all of them, the gate stops at
/// the first that passes.
const ATTEMPTS: usize = 3;

fn corpus() -> Vec<String> {
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    (0..DOCS)
        .map(|i| generate_document(style, Domain::Obituaries, i, 1998).html)
        .collect()
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rbd-bench-store-{name}-{}.rbd", std::process::id()))
}

/// Extracts every document and pairs it with its content hash — the
/// stored form both store arms replay.
fn extract_all(ex: &RecordExtractor, docs: &[String]) -> Vec<StoredDoc> {
    docs.iter()
        .map(|html| {
            let extraction = ex
                .extract_records(html)
                .unwrap_or_else(|e| panic!("corpus document failed to extract: {e}"));
            StoredDoc::from_extraction(ContentHash::of(html.as_bytes()), None, &extraction)
        })
        .collect()
}

/// The machine-speed anchor: sum every byte of the working set.
/// Deliberately scalar, like the hotpath gate's reference arm.
fn bench_reference(h: &mut Harness, docs: &[String], total: u64) {
    let mut group = h.group("reference");
    group.throughput_bytes(total);
    group.bench_function(&reference_arm().1, |b| {
        b.iter(|| {
            for html in docs {
                black_box(black_box(html).bytes().map(u64::from).sum::<u64>());
            }
        });
    });
    group.finish();
}

fn bench_extraction(h: &mut Harness, ex: &RecordExtractor, docs: &[String], total: u64) {
    let mut group = h.group("extraction");
    group.throughput_bytes(total);
    group.bench_function(&extraction_arm().1, |b| {
        b.iter(|| {
            for html in docs {
                black_box(ex.extract_records(black_box(html)).ok());
            }
        });
    });
    group.finish();
}

fn bench_cold_write(h: &mut Harness, stored: &[StoredDoc], total: u64) {
    let path = scratch_path("cold");
    let mut group = h.group("store");
    group.throughput_bytes(total);
    group.bench_function("cold_write", |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            let mut store = Store::open(&path).unwrap_or_else(|e| panic!("open: {e}"));
            let appended = store
                .append_batch(black_box(stored))
                .unwrap_or_else(|e| panic!("append: {e}"));
            black_box(appended);
        });
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_warm_hit(h: &mut Harness, docs: &[String], stored: &[StoredDoc], total: u64) {
    let path = scratch_path("warm");
    let _ = std::fs::remove_file(&path);
    let mut store = Store::open(&path).unwrap_or_else(|e| panic!("open: {e}"));
    store
        .append_batch(stored)
        .unwrap_or_else(|e| panic!("append: {e}"));
    let store = RefCell::new(store);

    let mut group = h.group("store");
    group.throughput_bytes(total);
    group.bench_function("warm_hit", |b| {
        b.iter(|| {
            for html in docs {
                // The serve-path hit: hash the request body, then the
                // memoized hit layer hands back the canonical response.
                let hash = ContentHash::of(black_box(html).as_bytes());
                let entry = store
                    .borrow_mut()
                    .hit(&hash)
                    .unwrap_or_else(|e| panic!("read-back: {e}"))
                    .unwrap_or_else(|| panic!("warm store missed a committed doc"));
                black_box(entry.response.len());
            }
        });
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// The reference arm every gated ratio divides by.
fn reference_arm() -> (String, String) {
    ("reference".to_owned(), format!("byte_sum_{DOCS}docs"))
}

/// The arm the warm-hit floor compares against.
fn extraction_arm() -> (String, String) {
    ("extraction".to_owned(), format!("extract_{DOCS}docs"))
}

fn gated_arms() -> Vec<(String, String)> {
    vec![
        ("store".to_owned(), "cold_write".to_owned()),
        ("store".to_owned(), "warm_hit".to_owned()),
    ]
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("store.json")
}

fn write_baseline(ratios: &[(String, String, f64)], reference: f64) {
    let arms = ratios
        .iter()
        .map(|(group, name, ratio)| {
            Json::object([
                ("group", group.to_json()),
                ("name", name.to_json()),
                ("ratio", ratio.to_json()),
            ])
        })
        .collect::<Vec<_>>();
    let blob = Json::object([
        (
            "comment",
            "throughput ratios vs a byte-sum over the same bytes; \
             regenerate with RBD_UPDATE_BENCH_BASELINE=1 cargo bench --bench store"
                .to_json(),
        ),
        ("reference_mib_s_at_capture", reference.to_json()),
        ("tolerance", TOLERANCE.to_json()),
        ("min_warm_speedup", MIN_WARM_SPEEDUP.to_json()),
        ("arms", Json::Array(arms)),
    ]);
    let path = baseline_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&path, blob.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("wrote baseline {}", path.display());
}

fn read_baseline() -> Vec<(String, String, f64)> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}\nrun `RBD_UPDATE_BENCH_BASELINE=1 cargo bench --bench store` \
             to create it",
            path.display()
        )
    });
    let root = Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    let arms = root
        .get("arms")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{} has no `arms` array", path.display()));
    arms.iter()
        .filter_map(|arm| {
            Some((
                arm.get("group")?.as_str()?.to_owned(),
                arm.get("name")?.as_str()?.to_owned(),
                arm.get("ratio")?.as_f64()?,
            ))
        })
        .collect()
}

/// Baseline drift plus the absolute warm-hit floor (`warm_speedup` is
/// warm-hit throughput over extraction throughput); returns the failures.
fn gate(measured: &[(String, String, f64)], warm_speedup: f64) -> Vec<String> {
    let baseline = read_baseline();
    let mut failures = Vec::new();
    for (group, name, want) in &baseline {
        let Some((_, _, got)) = measured.iter().find(|(g, n, _)| g == group && n == name) else {
            failures.push(format!("{group}/{name}: baseline arm was not measured"));
            continue;
        };
        let floor = want * (1.0 - TOLERANCE);
        let status = if *got < floor { "FAIL" } else { "ok" };
        eprintln!(
            "gate {group}/{name}: ratio {got:.3} vs baseline {want:.3} (floor {floor:.3}) {status}"
        );
        if *got < floor {
            failures.push(format!(
                "{group}/{name}: throughput ratio {got:.3} fell more than \
                 {:.0}% below baseline {want:.3}",
                TOLERANCE * 100.0
            ));
        }
    }
    if warm_speedup >= MIN_WARM_SPEEDUP {
        eprintln!(
            "warm_hit speedup over extraction {warm_speedup:.1}x >= required \
             {MIN_WARM_SPEEDUP:.0}x"
        );
    } else {
        failures.push(format!(
            "store/warm_hit: speedup over extraction {warm_speedup:.1}x below the required \
             {MIN_WARM_SPEEDUP:.0}x cache-hit floor"
        ));
    }
    failures
}

/// Runs every arm once and folds each arm's peak throughput into `best`
/// (the highest seen per arm so far).
fn measure_into(
    best: &mut Vec<(String, String, f64)>,
    ex: &RecordExtractor,
    docs: &[String],
    stored: &[StoredDoc],
    total: u64,
) {
    let mut h = Harness::new("store");
    bench_reference(&mut h, docs, total);
    bench_extraction(&mut h, ex, docs, total);
    bench_cold_write(&mut h, stored, total);
    bench_warm_hit(&mut h, docs, stored, total);
    let arms = [reference_arm(), extraction_arm()]
        .into_iter()
        .chain(gated_arms());
    for (group, name) in arms {
        let Some(t) = h.peak_throughput_mib_s(&group, &name) else {
            continue;
        };
        match best.iter_mut().find(|(g, n, _)| *g == group && *n == name) {
            Some((_, _, b)) => *b = b.max(t),
            None => best.push((group, name, t)),
        }
    }
    h.finish();
}

/// The best throughput of `arm`, or `None` if it never ran.
fn peak(best: &[(String, String, f64)], (group, name): &(String, String)) -> Option<f64> {
    best.iter()
        .find(|(g, n, _)| g == group && n == name)
        .map(|&(_, _, t)| t)
}

/// Each gated arm's best throughput over the reference's best, and the
/// warm hit's best throughput over extraction's best.
fn ratios(best: &[(String, String, f64)]) -> (Vec<(String, String, f64)>, f64) {
    let reference = peak(best, &reference_arm()).expect("reference arm always runs");
    let gated = gated_arms()
        .into_iter()
        .filter_map(|arm| {
            let t = peak(best, &arm)?;
            Some((arm.0, arm.1, t / reference))
        })
        .collect();
    let warm = peak(best, &("store".to_owned(), "warm_hit".to_owned())).unwrap_or(0.0);
    let extraction = peak(best, &extraction_arm()).expect("extraction arm always runs");
    (gated, warm / extraction)
}

fn main() {
    let docs = corpus();
    let total: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let ex = RecordExtractor::new(ExtractorConfig::default())
        .unwrap_or_else(|e| panic!("default extractor: {e}"));
    let stored = extract_all(&ex, &docs);

    // Both the capture and the gate compare best-of-attempts throughputs:
    // the byte-sum's speed wanders with the host between attempts, and
    // the best of several is its most repeatable figure.
    let mut best: Vec<(String, String, f64)> = Vec::new();
    if std::env::var_os("RBD_UPDATE_BENCH_BASELINE").is_some() {
        for _ in 0..ATTEMPTS {
            measure_into(&mut best, &ex, &docs, &stored, total);
        }
        let (gated, warm_speedup) = ratios(&best);
        eprintln!("warm_hit speedup over extraction {warm_speedup:.1}x");
        let reference = peak(&best, &reference_arm()).unwrap_or(0.0);
        write_baseline(&gated, reference);
        return;
    }

    let mut failures = Vec::new();
    for attempt in 1..=ATTEMPTS {
        measure_into(&mut best, &ex, &docs, &stored, total);
        let (gated, warm_speedup) = ratios(&best);
        eprintln!("gate attempt {attempt}/{ATTEMPTS}:");
        failures = gate(&gated, warm_speedup);
        if failures.is_empty() {
            eprintln!("store bench gate passed ({} arms)", gated.len());
            return;
        }
    }
    eprintln!("store bench gate FAILED:");
    for f in &failures {
        eprintln!("  {f}");
    }
    eprintln!(
        "if the slowdown is intentional, regenerate the baseline with \
         RBD_UPDATE_BENCH_BASELINE=1 and review the diff"
    );
    std::process::exit(1);
}
