//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_orsih --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a separate traced run (`--trace 1`). See `perfbench/README.md` for
//! the workloads and why each exists.

mod batch;
mod clock;
mod inputs;
mod serve;
mod spans;
mod stages;
mod stats;

use rbd_json::Json;
use spans::SpanRec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: what a user of the system sees.
const END_TO_END: [(&str, &str); 6] = [
    ("docs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("accuracy", "share"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics from the traced run. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: [(&str, &str); 32] = [
    ("html.tokenize_us", "us"),
    ("tagtree.build_us", "us"),
    ("tagtree.nodes", "count"),
    ("heuristics.view_us", "us"),
    ("heuristics.om_us", "us"),
    ("heuristics.rp_us", "us"),
    ("heuristics.sd_us", "us"),
    ("heuristics.it_us", "us"),
    ("heuristics.ht_us", "us"),
    ("pattern.om_scan_mib_per_s", "MiB/s"),
    ("heuristics.om_abstain_share", "share"),
    ("certainty.combine_us", "us"),
    ("core.chunk_us", "us"),
    ("core.extract_us", "us"),
    ("core.stage_sum_share", "share"),
    ("json.encode_us", "us"),
    ("json.bytes_per_doc", "bytes"),
    ("pipeline.busy_share", "share"),
    ("pipeline.queue_wait_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.connects_per_req", "count"),
    ("serve.refused_share", "share"),
    ("store.open_ms", "ms"),
    ("store.hit_us", "us"),
    ("store.hash_us", "us"),
    ("store.hit_share", "share"),
    ("store.commit_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("machine.calib_ms", "ms"),
    ("machine.timer_ms", "ms"),
    ("gen.late_ms", "ms"),
];

/// Counts that must repeat exactly across runs of one seed.
const EXACT: [&str; 5] = [
    "accuracy",
    "store.hit_share",
    "heuristics.om_abstain_share",
    "tagtree.nodes",
    "serve.connects_per_req",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BatchOrsih,
    BatchLarge,
    ServeStore,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::BatchOrsih,
        Workload::BatchLarge,
        Workload::ServeStore,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::BatchOrsih => "batch_orsih",
            Workload::BatchLarge => "batch_large",
            Workload::ServeStore => "serve_store",
        }
    }

    fn run(self, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Result<Run, String> {
        match self {
            Workload::BatchOrsih => batch::run(false, seed, seconds, trace, scale),
            Workload::BatchLarge => batch::run(true, seed, seconds, trace, scale),
            Workload::ServeStore => serve::run(seed, seconds, trace, scale),
        }
    }
}

/// Input sizes and repetition counts.
pub struct Scale {
    /// `batch_orsih` documents per site style.
    pub orsih_per_style: usize,
    /// `batch_large` pages per site style.
    pub large_per_style: usize,
    /// Repeated set-ups whose median is `setup_s`.
    pub setup_trials: usize,
    /// Fewest untraced batch passes, however short `--seconds` is.
    pub min_passes: usize,
    /// Fewest traced batch passes.
    pub min_traced_passes: usize,
    /// Traced passes over the `serve_store` documents.
    pub serve_stage_passes: usize,
    /// `serve_store`: committed documents the requests repeat.
    pub serve_hot: usize,
    /// `serve_store`: further committed documents that only fill the log.
    pub serve_filler: usize,
    /// `serve_store`: upper bound on requests per phase.
    pub serve_max_requests: usize,
}

impl Scale {
    const FULL: Scale = Scale {
        orsih_per_style: 10,
        large_per_style: 3,
        setup_trials: 101,
        min_passes: 12,
        min_traced_passes: 2,
        serve_stage_passes: 10,
        serve_hot: 200,
        serve_filler: 2000,
        serve_max_requests: usize::MAX,
    };

    /// A few documents per workload: the self-test.
    const SMOKE: Scale = Scale {
        orsih_per_style: 1,
        large_per_style: 1,
        setup_trials: 3,
        min_passes: 2,
        min_traced_passes: 1,
        serve_stage_passes: 1,
        serve_hot: 40,
        serve_filler: 40,
        serve_max_requests: 200,
    };
}

/// One run's outcome.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    mismatches: Vec<String>,
    mismatch_count: usize,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    pub spans: Vec<SpanRec>,
}

impl Run {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed output check; the run then reports
    /// `"correct": false`.
    pub fn mismatch(&mut self, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where the run writes its span file and working files, inside the
/// checkout it runs from.
fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// The metrics this run reports, checked for presence and sanity.
fn selected(run: &Run, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match run.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if !trace && value <= 0.0 {
            return Err(format!("end-to-end metric {name} is {value}, not positive"));
        }
        out.push((name, unit, value));
    }
    Ok(out)
}

fn result_line(run: &Run, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = Json::Object(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_owned(),
                    Json::object([
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    );
    Json::object([
        ("correct", Json::Bool(run.mismatch_count == 0)),
        ("attempted", Json::UInt(run.attempted)),
        ("failed", Json::UInt(run.failed)),
        ("metrics", metrics),
    ])
    .to_compact()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => {
                println!("perfbench self-test: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <batch_orsih|batch_large|serve_store> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args
        .workload
        .run(args.seed, args.seconds, args.trace, &Scale::FULL)
    {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let metrics = match selected(&run, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = out_dir().join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match spans::write_chrome(&path, &run.spans) {
            Ok(()) => println!(
                "perfbench: {} spans written to {}",
                run.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: span file not written: {e}"),
        }
    }
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!("perfbench: {cpus} CPUs available");
    for line in &run.notes {
        println!("perfbench: {line}");
    }
    if let Some(&calib) = run.metrics.get("machine.calib_ms") {
        println!(
            "perfbench: machine.calib_ms {calib:.3} (nominal {:.1})",
            clock::NOMINAL_MS
        );
    }
    for m in &run.mismatches {
        eprintln!("perfbench: output check failed: {m}");
    }
    println!("{}", result_line(&run, &metrics));
    if run.mismatch_count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at smoke scale, untraced and traced: the schema holds,
/// every output check passes, nothing fails, and the counts repeat on a
/// second run of the same seed.
fn self_test() -> Result<(), String> {
    const SEED: u64 = 7;
    for workload in Workload::ALL {
        let name = workload.name();
        let plain = workload.run(SEED, 0.2, false, &Scale::SMOKE)?;
        let traced = workload.run(SEED, 0.2, true, &Scale::SMOKE)?;
        let again = workload.run(SEED, 0.2, true, &Scale::SMOKE)?;
        for (label, run) in [
            ("untraced", &plain),
            ("traced", &traced),
            ("repeat", &again),
        ] {
            if run.mismatch_count > 0 {
                return Err(format!("{name} {label}: {:?}", run.mismatches));
            }
            if run.attempted == 0 || run.failed > 0 {
                return Err(format!(
                    "{name} {label}: {} attempted, {} failed",
                    run.attempted, run.failed
                ));
            }
        }
        selected(&plain, false)?;
        let layers = selected(&traced, true)?;
        let line = Json::parse(&result_line(&traced, &layers)).map_err(|e| e.to_string())?;
        if ["correct", "attempted", "failed", "metrics"]
            .iter()
            .any(|key| line.get(key).is_none())
        {
            return Err(format!("{name}: the result line lacks a key"));
        }
        for metric in EXACT {
            let first = traced.metrics.get(metric).or(plain.metrics.get(metric));
            let second = again.metrics.get(metric).or(plain.metrics.get(metric));
            if first != second {
                return Err(format!(
                    "{name}: {metric} differs between two runs of one seed ({first:?} vs {second:?})"
                ));
            }
        }
        println!("perfbench self-test: {name} ok");
    }
    Ok(())
}
