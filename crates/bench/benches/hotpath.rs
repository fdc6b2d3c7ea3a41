//! Hot-path benchmarks and regression gate for the zero-copy
//! tokenize → tree pipeline (DESIGN.md §11).
//!
//! Three groups:
//!
//! * `reference` — a scalar byte-sum over the 1 MiB document. This is a
//!   machine-speed anchor: its throughput moves with the host's memory
//!   bandwidth and clock, not with this repository's code.
//! * `tokenize` — [`rbd_html::Tokenizer`] alone, over 16 KiB – 1 MiB
//!   documents.
//! * `tokenize_tree` — the tokenizer streaming straight into tag-tree
//!   construction ([`TagTreeBuilder::try_build`]): the full hot path every
//!   extraction pays before the heuristics run.
//!
//! ## The regression gate
//!
//! After measuring, each hot arm's throughput is divided by the reference
//! arm's, and the resulting *ratios* are compared against the committed
//! baseline in `crates/bench/baselines/hotpath.json`. Ratios cancel out
//! machine speed, so the same baseline holds on a laptop and in CI; what
//! they cannot cancel is a code-level slowdown. Any arm whose ratio drops
//! more than 15 % below its baseline fails the bench process (exit 1).
//!
//! To regenerate after an intentional performance change (mirroring the
//! `RBD_UPDATE_GOLDEN` pattern of the golden-trace tests):
//!
//! ```text
//! RBD_UPDATE_BENCH_BASELINE=1 cargo bench --bench hotpath
//! ```
//!
//! then review the diff like any other code change — the baseline is the
//! performance contract the tentpole optimization landed.

use rbd_bench::{black_box, Harness};
use rbd_corpus::{generate_document, sites, Domain};
use rbd_html::Tokenizer;
use rbd_json::{Json, ToJson};
use rbd_tagtree::TagTreeBuilder;
use rbd_trace::NullSink;
use std::path::PathBuf;

/// Document sizes the hot arms sweep, in KiB.
const SIZES_KIB: [usize; 4] = [16, 64, 256, 1024];

/// Allowed drop below the baseline ratio before the gate fails: generous
/// enough for scheduler noise on shared CI runners, tight enough that an
/// accidental return to per-byte scanning or per-node allocation (3×+
/// swings) cannot slip through.
const TOLERANCE: f64 = 0.15;

/// Builds a document of roughly `target_bytes` by concatenating generated
/// record areas (same construction as the `complexity` bench, so the two
/// report comparable numbers).
fn document_of_size(target_bytes: usize) -> String {
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let mut html = String::with_capacity(target_bytes + 4096);
    let mut i = 0;
    while html.len() < target_bytes {
        let doc = generate_document(style, Domain::Obituaries, i, 1998);
        if html.is_empty() {
            let end = doc.html.rfind("</td>").unwrap_or(doc.html.len());
            html.push_str(&doc.html[..end]);
        } else {
            let start = doc.html.find("<hr>").unwrap_or(0);
            let end = doc.html.rfind("</td>").unwrap_or(doc.html.len());
            html.push_str(&doc.html[start..end]);
        }
        i += 1;
    }
    html.push_str("</td></tr></table></body></html>");
    html
}

/// The machine-speed anchor: sum every byte of the document. Deliberately
/// scalar (no SWAR) so it tracks raw memory traversal speed, the same
/// resource the tokenizer's scanning is bound by.
fn byte_sum(doc: &str) -> u64 {
    doc.bytes().map(u64::from).sum()
}

fn bench_reference(h: &mut Harness, docs: &[(usize, String)]) {
    let mut group = h.group("reference");
    let Some((kb, doc)) = docs.last() else {
        return;
    };
    group.throughput_bytes(doc.len() as u64);
    group.bench_function(&format!("byte_sum_{kb}KiB"), |b| {
        b.iter(|| black_box(byte_sum(black_box(doc))));
    });
    group.finish();
}

fn bench_tokenize(h: &mut Harness, docs: &[(usize, String)]) {
    let mut group = h.group("tokenize");
    for (kb, doc) in docs {
        group.throughput_bytes(doc.len() as u64);
        group.bench_function(&format!("{kb}KiB"), |b| {
            b.iter(|| black_box(Tokenizer::new(black_box(doc)).run()));
        });
    }
    group.finish();
}

fn bench_tokenize_tree(h: &mut Harness, docs: &[(usize, String)]) {
    let mut group = h.group("tokenize_tree");
    let builder = TagTreeBuilder::default();
    for (kb, doc) in docs {
        group.throughput_bytes(doc.len() as u64);
        group.bench_function(&format!("{kb}KiB"), |b| {
            b.iter(|| black_box(builder.try_build(black_box(doc), &NullSink)));
        });
    }
    group.finish();
}

/// The `(group, name)` pairs the gate tracks.
fn gated_arms() -> Vec<(String, String)> {
    let mut arms = Vec::new();
    for kb in SIZES_KIB {
        arms.push(("tokenize".to_owned(), format!("{kb}KiB")));
        arms.push(("tokenize_tree".to_owned(), format!("{kb}KiB")));
    }
    arms
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("hotpath.json")
}

/// Collects `arm throughput / reference throughput` for every gated arm.
///
/// Both sides use *peak* (best-sample) throughput: one clean sample is
/// enough to prove the code can reach a speed, so the ratio barely moves
/// under scheduler noise that shifts medians by double-digit percentages.
fn measured_ratios(h: &Harness, reference: f64) -> Vec<(String, String, f64)> {
    gated_arms()
        .into_iter()
        .filter_map(|(group, name)| {
            let t = h.peak_throughput_mib_s(&group, &name)?;
            Some((group, name, t / reference))
        })
        .collect()
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
            "throughput ratios vs the reference byte-sum arm; regenerate with \
             RBD_UPDATE_BENCH_BASELINE=1 cargo bench --bench hotpath"
                .to_json(),
        ),
        ("reference_mib_s_at_capture", reference.to_json()),
        ("tolerance", TOLERANCE.to_json()),
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

/// Reads the committed baseline back as `(group, name) -> ratio`.
fn read_baseline() -> Vec<(String, String, f64)> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}\nrun `RBD_UPDATE_BENCH_BASELINE=1 cargo bench --bench hotpath` \
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

/// Compares measured ratios to the baseline; returns the failures.
fn gate(measured: &[(String, String, f64)]) -> Vec<String> {
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
    failures
}

/// Runs one full measurement pass and returns `(reference MiB/s, ratios)`.
///
/// Only the final attempt's harness report survives as `BENCH_hotpath.json`
/// (each pass overwrites it), which is the report a human wants anyway.
fn run_measurement(docs: &[(usize, String)]) -> (f64, Vec<(String, String, f64)>) {
    let mut h = Harness::new("hotpath");
    bench_reference(&mut h, docs);
    bench_tokenize(&mut h, docs);
    bench_tokenize_tree(&mut h, docs);
    let reference = h
        .peak_throughput_mib_s("reference", &format!("byte_sum_{}KiB", 1024))
        .expect("reference arm always runs");
    let measured = measured_ratios(&h, reference);
    h.finish();
    (reference, measured)
}

/// Measurement attempts: the baseline takes the per-arm median of this
/// many passes; the gate takes the per-arm best, stopping early once every
/// arm clears its floor. Run-to-run swings on allocation-heavy arms reach
/// double digits even with best-sample timing, so a single pass cannot
/// honor a 15 % tolerance — three can.
const ATTEMPTS: usize = 3;

fn main() {
    let docs: Vec<(usize, String)> = SIZES_KIB
        .iter()
        .map(|&kb| (kb, document_of_size(kb * 1024)))
        .collect();

    if std::env::var_os("RBD_UPDATE_BENCH_BASELINE").is_some() {
        // Per-arm median over the attempts, so an unusually lucky (or
        // unlucky) pass cannot skew the committed contract.
        let mut per_arm: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut last_reference = 0.0;
        for _ in 0..ATTEMPTS {
            let (reference, measured) = run_measurement(&docs);
            last_reference = reference;
            for (group, name, ratio) in measured {
                match per_arm
                    .iter_mut()
                    .find(|(g, n, _)| *g == group && *n == name)
                {
                    Some((_, _, rs)) => rs.push(ratio),
                    None => per_arm.push((group, name, vec![ratio])),
                }
            }
        }
        let medians = per_arm
            .into_iter()
            .map(|(group, name, mut rs)| {
                rs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                (group, name, rs[rs.len() / 2])
            })
            .collect::<Vec<_>>();
        write_baseline(&medians, last_reference);
        return;
    }

    // Gate mode: per-arm best across attempts, finishing early once every
    // baseline arm clears its floor.
    let mut best: Vec<(String, String, f64)> = Vec::new();
    let mut failures = Vec::new();
    for attempt in 1..=ATTEMPTS {
        let (_, measured) = run_measurement(&docs);
        for (group, name, ratio) in measured {
            match best.iter_mut().find(|(g, n, _)| *g == group && *n == name) {
                Some((_, _, r)) => *r = r.max(ratio),
                None => best.push((group, name, ratio)),
            }
        }
        eprintln!("gate attempt {attempt}/{ATTEMPTS}:");
        failures = gate(&best);
        if failures.is_empty() {
            eprintln!("bench-regression gate passed ({} arms)", best.len());
            return;
        }
    }
    eprintln!("bench-regression gate FAILED:");
    for f in &failures {
        eprintln!("  {f}");
    }
    eprintln!(
        "if the slowdown is intentional, regenerate the baseline with \
         RBD_UPDATE_BENCH_BASELINE=1 and review the diff"
    );
    std::process::exit(1);
}
