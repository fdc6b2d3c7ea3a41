//! The batch workloads: a fixed corpus through `run_batch` at two jobs,
//! pass after pass, each pass on the calibrated clock.
//!
//! * `batch_orsih` — the paper's configuration: every site style of all
//!   four domains, each domain's documents under that domain's ontology
//!   so all five heuristics (ORSIH) vote.
//! * `batch_large` — RSIH (no ontology, as `rbd batch` ships) on the same
//!   styles enlarged to 600–1,400 records per page (about 280 KiB).

use crate::clock;
use crate::inputs::{self, Doc};
use crate::stages::{self, Expected, Stages};
use crate::stats;
use crate::{Run, Scale};
use rbd_core::{Extraction, ExtractorConfig, RecordExtractor};
use rbd_corpus::Domain;
use rbd_pipeline::{run_batch, BatchConfig, BatchError};
use rbd_serve::extraction_response_json;
use rbd_trace::{NullSink, TraceSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads, as `rbd batch --jobs 2`.
const JOBS: usize = 2;

/// Blocks of set-up repeats, each followed by a calibration reading.
const SETUP_BLOCKS: usize = 5;

/// Documents per second at nominal speed, which size the pass count:
/// `batch_orsih`, `batch_large`.
const NOMINAL_RATES: (f64, f64) = (1350.0, 290.0);

/// One extractor configuration and the documents it runs on.
struct Group {
    extractor: RecordExtractor,
    stages: Stages,
    /// `(global doc id, html)`, ids indexing the run's flat doc list.
    docs: Vec<(u64, String)>,
}

fn configs(large: bool) -> Vec<(Option<Domain>, ExtractorConfig)> {
    if large {
        vec![(None, ExtractorConfig::default())]
    } else {
        Domain::ALL
            .iter()
            .map(|&d| (Some(d), inputs::orsih_config(d)))
            .collect()
    }
}

/// Builds every extractor the workload uses, ontologies included: what a
/// user waits for before the first document.
fn set_up(large: bool) -> Result<Vec<RecordExtractor>, String> {
    configs(large)
        .into_iter()
        .map(|(_, c)| RecordExtractor::new(c).map_err(|e| format!("extractor build failed: {e}")))
        .collect()
}

/// The fields of an extraction that its response body encodes.
struct Shape {
    separator: String,
    preamble: bool,
    records: Vec<(usize, usize, String)>,
    degraded: usize,
}

impl Shape {
    fn of(ex: &Extraction) -> Self {
        Shape {
            separator: ex.outcome.separator.clone(),
            preamble: ex.preamble.is_some(),
            records: ex
                .records
                .iter()
                .map(|r| (r.start, r.end, r.text.clone()))
                .collect(),
            degraded: ex.degradation.len(),
        }
    }

    fn matches(&self, ex: &Extraction) -> bool {
        self.separator == ex.outcome.separator
            && self.preamble == ex.preamble.is_some()
            && self.degraded == ex.degradation.len()
            && self.records.len() == ex.records.len()
            && self
                .records
                .iter()
                .zip(&ex.records)
                .all(|((start, end, text), r)| {
                    *start == r.start && *end == r.end && *text == r.text
                })
    }
}

pub fn run(
    large: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Result<Run, String> {
    let mut out = Run::default();
    let styles = inputs::styles();
    let docs: Vec<Doc> = if large {
        let big = inputs::enlarged(&styles, (600, 1400));
        inputs::docs(&big, 0, big.len() * scale.large_per_style, seed)
    } else {
        inputs::docs(&styles, 0, styles.len() * scale.orsih_per_style, seed)
    };

    // Set-up time: the median of repeated builds (each is well under a
    // millisecond), on the calibrated clock. The builds run in blocks with
    // a calibration reading around each block, and the median reading
    // scales them, so one disturbed reading cannot skew the figure.
    let block = scale.setup_trials.div_ceil(SETUP_BLOCKS);
    let mut calibs_setup = vec![clock::measure(1)];
    let mut setup = Vec::with_capacity(scale.setup_trials);
    for trial in 0..scale.setup_trials {
        let started = Instant::now();
        black_box(set_up(large)?);
        setup.push(started.elapsed().as_secs_f64());
        if (trial + 1) % block == 0 {
            calibs_setup.push(clock::measure(1));
        }
    }
    out.put(
        "setup_s",
        stats::median(&setup) * clock::to_nominal(stats::median(&calibs_setup)),
    );
    out.note(format!(
        "set-up {:.3} us raw, calibration loop {:.3} ms",
        stats::median(&setup) * 1e6,
        stats::median(&calibs_setup)
    ));

    let mut groups = Vec::new();
    for (extractor, (domain, config)) in set_up(large)?.into_iter().zip(configs(large)) {
        let mine = docs
            .iter()
            .enumerate()
            .filter(|(_, doc)| domain.is_none_or(|want| doc.domain == want))
            .map(|(i, doc)| (i as u64, doc.html.clone()))
            .collect();
        groups.push(Group {
            stages: Stages::new(&config)?,
            extractor,
            docs: mine,
        });
    }
    let n_docs = docs.len();
    let nominal_rate = if large {
        NOMINAL_RATES.1
    } else {
        NOMINAL_RATES.0
    };

    // References: one serial extraction per document.
    let mut expected: Vec<Expected> = vec![Err(String::new()); n_docs];
    let mut shapes: Vec<Result<Shape, ()>> = (0..n_docs).map(|_| Err(())).collect();
    let mut correct_sep = 0usize;
    for g in &groups {
        for (id, html) in &g.docs {
            let i = usize::try_from(*id).expect("doc id fits usize");
            expected[i] = match g.extractor.extract_records(html) {
                Ok(ex) => {
                    if ex.outcome.separator == docs[i].truth {
                        correct_sep += 1;
                    }
                    shapes[i] = Ok(Shape::of(&ex));
                    Ok(extraction_response_json(&ex).to_compact())
                }
                Err(e) => Err(e.to_string()),
            };
        }
    }
    out.put("accuracy", correct_sep as f64 / n_docs as f64);
    let html_bytes: usize = docs.iter().map(|d| d.html.len()).sum();
    out.note(format!(
        "{n_docs} documents, {:.1} KiB mean, {JOBS} jobs",
        html_bytes as f64 / n_docs as f64 / 1024.0
    ));
    drop(docs);

    // Untraced passes: a fixed number, sized so that the run measures
    // about `--seconds` at nominal speed.
    let passes = ((seconds * nominal_rate / n_docs as f64).round() as usize).max(scale.min_passes);
    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
    let peak = stats::PeakRss::start()?;
    // Calibrated seconds summed over the passes.
    let mut nominal_s = 0.0;
    let mut pass_ms = Vec::with_capacity(passes);
    let mut busy = Vec::with_capacity(passes);
    let mut waits = Vec::with_capacity(passes);
    let mut calibs = vec![clock::measure(JOBS)];
    for pass in 0..passes {
        let batches: Vec<Vec<(u64, String)>> = groups.iter().map(|g| g.docs.clone()).collect();
        let started = Instant::now();
        let mut reports = Vec::with_capacity(groups.len());
        for (g, batch) in groups.iter().zip(batches) {
            let report = run_batch(&g.extractor, batch, &BatchConfig::with_jobs(JOBS), &sink)
                .map_err(|e| format!("run_batch failed: {e}"))?;
            reports.push(report);
        }
        let wall = started.elapsed().as_secs_f64();
        // The calibration readings just before and just after the pass.
        let before = calibs[calibs.len() - 1];
        calibs.push(clock::measure(JOBS));
        let f = clock::to_nominal((before + calibs[calibs.len() - 1]) / 2.0);

        let mut run_s = 0.0;
        let mut wait_s = 0.0;
        for result in reports.iter().flat_map(|r| &r.results) {
            out.attempted += 1;
            let i = usize::try_from(result.doc_id).expect("doc id fits usize");
            let same = match (&result.outcome, &expected[i], &shapes[i]) {
                // The whole response body on the first pass; after that the
                // fields it encodes, which cost no serialization.
                (Ok(ex), Ok(json), _) if pass == 0 => {
                    extraction_response_json(ex).to_compact() == *json
                }
                (Ok(ex), Ok(_), Ok(shape)) => shape.matches(ex),
                (Err(BatchError::Discovery(e)), Err(want), _) => e.to_string() == *want,
                _ => false,
            };
            if result.outcome.is_err() {
                out.failed += 1;
            }
            if !same {
                out.mismatch(format!(
                    "document {i}: batch result differs from serial extract_records"
                ));
            }
            run_s += result.run_time.as_secs_f64();
            wait_s += result.queue_wait.as_secs_f64();
        }
        let counted: usize = reports.iter().map(|r| r.results.len()).sum();
        if counted != n_docs {
            out.mismatch(format!("a pass returned {counted} of {n_docs} results"));
        }
        nominal_s += wall * f;
        pass_ms.push(wall * 1e3 * f);
        busy.push(run_s / (JOBS as f64 * wall));
        waits.push(wait_s * 1e3 / n_docs as f64);
    }
    out.put("peak_rss_mib", peak.read()?);
    // Every document of every pass over their summed calibrated time:
    // within a run, pass times spread about 13 %, and the sum holds
    // between runs twice as well as the median pass did.
    let docs_per_s = (passes * n_docs) as f64 / nominal_s;
    out.put("docs_per_s", docs_per_s);
    // A batch user waits for the whole batch: latency is the time one
    // pass over the fixed corpus takes.
    let (tail, tail_pct) = stats::tail(&pass_ms);
    out.put("latency_p50_ms", stats::median(&pass_ms));
    out.put("latency_tail_ms", tail);
    out.put("pipeline.busy_share", stats::median(&busy));
    out.put("pipeline.queue_wait_ms", stats::median(&waits));
    out.note(format!(
        "{passes} passes; latency = one pass over the corpus, tail = p{tail_pct:.2} of {passes} passes"
    ));

    if trace {
        let flat: Vec<stages::Item<'_>> = groups
            .iter()
            .flat_map(|g| {
                g.docs.iter().map(move |(id, html)| stages::Item {
                    stages: &g.stages,
                    extractor: &g.extractor,
                    id: *id,
                    html,
                })
            })
            .collect();
        let traced_passes = (passes / 4).max(scale.min_traced_passes);
        let traced = stages::traced_passes(&flat, &expected, JOBS, traced_passes, &mut out);
        out.put("trace.overhead_share", docs_per_s / traced.docs_per_s - 1.0);
        calibs.extend(traced.calibs);
        out.spans = traced.spans;
    }
    out.put("machine.calib_ms", stats::median(&calibs));
    Ok(out)
}
