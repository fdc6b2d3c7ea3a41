//! The traced pipeline: record-boundary discovery and extraction taken
//! apart into the public call of each layer, each wrapped in a span. It
//! reproduces `RecordExtractor::extract_records` step by step, and every
//! traced document's response body is checked against the serial
//! extraction's, so the decomposition cannot drift from the real path.

use crate::spans::{Recorder, SelfTimes, SpanRec};
use crate::{clock, Run};
use rbd_certainty::{CompoundHeuristic, Consensus};
use rbd_core::{
    chunk_at_separators, DiscoveryOutcome, Extraction, ExtractorConfig, RecordExtractor,
};
use rbd_heuristics::ht::HighestCount;
use rbd_heuristics::it::IdentifiableTags;
use rbd_heuristics::om::OntologyMatching;
use rbd_heuristics::rp::RepeatingPattern;
use rbd_heuristics::sd::StandardDeviation;
use rbd_heuristics::{Heuristic, SubtreeView};
use rbd_serve::extraction_response_json;
use rbd_tagtree::TagTreeBuilder;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The stage spans whose self times add up to one extraction; the root
/// `doc` span's own time is the glue between them and is left out.
pub const STAGES: [&str; 10] = [
    "html.tokenize",
    "tagtree.build",
    "heuristics.view",
    "heuristics.om",
    "heuristics.rp",
    "heuristics.sd",
    "heuristics.it",
    "heuristics.ht",
    "certainty.combine",
    "core.chunk",
];

/// What one traced document produced.
pub struct StageOut {
    /// The extraction the layers produced.
    pub extraction: Extraction,
    /// Tag-tree node count.
    pub nodes: usize,
    /// `Some(abstained)` when OM ran on the document.
    pub om_abstained: Option<bool>,
    /// Plain-text bytes OM scanned (0 when it did not run).
    pub om_text_bytes: usize,
}

/// One extractor configuration, split into its layers.
pub struct Stages {
    builder: TagTreeBuilder,
    threshold: f64,
    max_candidates: Option<usize>,
    max_text: Option<usize>,
    om: Option<OntologyMatching>,
    compound: CompoundHeuristic,
}

impl Stages {
    pub fn new(config: &ExtractorConfig) -> Result<Self, String> {
        if config.xml {
            return Err("the traced pipeline covers HTML extraction only".to_owned());
        }
        let om = config
            .ontology
            .clone()
            .map(OntologyMatching::new)
            .transpose()
            .map_err(|e| format!("ontology failed to compile: {e}"))?;
        Ok(Stages {
            builder: TagTreeBuilder::default().with_budget(config.limits.tree_budget()),
            threshold: config.candidate_threshold,
            max_candidates: config.limits.max_candidate_tags,
            max_text: config.limits.max_text_bytes,
            om,
            compound: CompoundHeuristic::new(config.heuristic_set, config.certainty_table.clone()),
        })
    }

    /// Extracts `html` layer by layer under a root `doc` span.
    pub fn run(&self, html: &str, item: u64, rec: &mut Recorder) -> Result<StageOut, String> {
        let root = rec.open();
        let parent = Some(root.id());
        let tokens = rec.span("html.tokenize", parent, item, || rbd_html::tokenize(html));
        let (tree, _) = rec
            .span("tagtree.build", parent, item, || {
                self.builder.try_build_from_tokens(html.len(), &tokens)
            })
            .map_err(|e| format!("tree build failed: {e}"))?;
        drop(tokens);
        if tree.is_empty() {
            return Err("empty document".to_owned());
        }
        let view = rec.span("heuristics.view", parent, item, || {
            let mut view = SubtreeView::from_tree(&tree, self.threshold);
            if let Some(cap) = self.max_candidates {
                view.cap_candidates(cap);
            }
            view
        });
        let candidates = view.candidates().to_vec();
        if candidates.is_empty() {
            return Err("no candidate tags".to_owned());
        }

        let mut om_abstained = None;
        let mut om_text_bytes = 0;
        let mut rankings = Vec::new();
        let consensus = if candidates.len() == 1 {
            // The §3 shortcut: a single candidate is the separator.
            Consensus {
                scored: Vec::new(),
                winners: vec![candidates[0].name.clone()],
            }
        } else {
            if let Some(om) = &self.om {
                let (ranking, _truncation) = rec.span("heuristics.om", parent, item, || {
                    om.rank_governed(&view, self.max_text)
                });
                om_abstained = Some(ranking.is_none());
                om_text_bytes = self
                    .max_text
                    .map_or(view.text().len(), |cap| view.text().len().min(cap));
                rankings.extend(ranking);
            }
            let others: [(&'static str, &dyn Heuristic); 4] = [
                ("heuristics.rp", &RepeatingPattern::default()),
                ("heuristics.sd", &StandardDeviation),
                ("heuristics.it", &IdentifiableTags::default()),
                ("heuristics.ht", &HighestCount),
            ];
            for (name, heuristic) in others {
                rankings.extend(rec.span(name, parent, item, || heuristic.rank(&view)));
            }
            rec.span("certainty.combine", parent, item, || {
                self.compound.combine(&rankings)
            })
        };
        let separator = consensus
            .winners
            .first()
            .cloned()
            .ok_or("no consensus separator")?;
        let subtree = view.root();
        let subtree_tag = tree.name(subtree).to_owned();
        drop(view);
        let (preamble, records) = rec.span("core.chunk", parent, item, || {
            chunk_at_separators(html, &tree, subtree, &separator, false)
        });
        rec.close(root, "doc", None, item);

        let nodes = tree.len();
        let extraction = Extraction {
            outcome: DiscoveryOutcome {
                separator,
                consensus,
                rankings,
                candidates,
                subtree_tag,
                subtree,
                tree,
                degradation: Vec::new(),
            },
            preamble,
            records,
            degradation: Vec::new(),
        };
        Ok(StageOut {
            extraction,
            nodes,
            om_abstained,
            om_text_bytes,
        })
    }
}

/// Runs `work(i, recorder)` for every `i < n` on `workers` threads that
/// pull indices from one shared counter (the same shape as the batch
/// pool). Returns the wall time in seconds, every span recorded, and the
/// outputs in index order.
pub fn parallel<T: Send>(
    n: usize,
    workers: usize,
    epoch: Instant,
    work: impl Fn(usize, &mut Recorder) -> T + Sync,
) -> (f64, Vec<SpanRec>, Vec<T>) {
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let spans: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for lane in 0..workers {
            let (next, collected, spans, work) = (&next, &collected, &spans, &work);
            s.spawn(move || {
                let mut rec = Recorder::new(epoch, u32::try_from(lane).unwrap_or(u32::MAX));
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    mine.push((i, work(i, &mut rec)));
                }
                collected
                    .lock()
                    .expect("a worker panicked while holding the results")
                    .extend(mine);
                spans
                    .lock()
                    .expect("a worker panicked while holding the spans")
                    .extend(rec.spans);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut out = collected
        .into_inner()
        .expect("a worker panicked while holding the results");
    out.sort_by_key(|(i, _)| *i);
    let spans = spans
        .into_inner()
        .expect("a worker panicked while holding the spans");
    (wall, spans, out.into_iter().map(|(_, t)| t).collect())
}

/// What a serial `extract_records` produced for one document: the
/// response body, or the error message.
pub type Expected = Result<String, String>;

/// One document of a traced pass.
pub struct Item<'a> {
    pub stages: &'a Stages,
    pub extractor: &'a RecordExtractor,
    /// Index into the run's expected outputs.
    pub id: u64,
    pub html: &'a str,
}

/// Results of the traced passes.
pub struct Traced {
    /// Documents per second over all traced passes (calibrated).
    pub docs_per_s: f64,
    pub calibs: Vec<f64>,
    pub spans: Vec<SpanRec>,
}

/// The traced run over `items` on `workers` threads, `passes` times. Each
/// pass takes every document apart into its layers' calls, checks the
/// response against `expected`, and is followed by a reconciliation pass
/// that times `extract_records` whole. Puts every extraction-layer metric
/// on `out`.
pub fn traced_passes(
    items: &[Item<'_>],
    expected: &[Expected],
    workers: usize,
    passes: usize,
    out: &mut Run,
) -> Traced {
    let n = items.len();
    let epoch = Instant::now();
    let mut times = SelfTimes::default();
    let mut all_spans = Vec::new();
    let mut nominal_s = 0.0;
    let mut calibs = Vec::new();
    let mut docs_traced = 0u64;
    let mut om_bytes = 0usize;
    let mut json_bytes = 0usize;
    let mut encoder = Recorder::new(epoch, u32::try_from(workers).unwrap_or(u32::MAX));
    for _ in 0..passes {
        let calib = clock::measure(workers);
        let (wall, spans, outs) = parallel(n, workers, epoch, |i, rec| {
            let item = &items[i];
            item.stages.run(item.html, item.id, rec)
        });
        let calib_after = clock::measure(workers);
        let f = clock::to_nominal((calib + calib_after) / 2.0);
        nominal_s += wall * f;
        times.add(&spans, f);
        all_spans.extend(spans);

        // The response encoding, on this thread after the pass so that
        // the pass times extraction alone, as the untraced run does.
        let first = encoder.spans.len();
        let mut nodes = 0usize;
        let mut om_ran = 0usize;
        let mut om_abstained = 0usize;
        for (item, got) in items.iter().zip(&outs) {
            let json = got.as_ref().ok().map(|stage| {
                encoder.span("json.encode", None, item.id, || {
                    extraction_response_json(&stage.extraction).to_compact()
                })
            });
            let want = usize::try_from(item.id).ok().and_then(|i| expected.get(i));
            match (&json, want) {
                (Some(json), Some(Ok(body))) if json == body => {}
                (None, Some(Err(_))) => {}
                _ => out.mismatch(format!(
                    "document {}: traced layers disagree with extract_records",
                    item.id
                )),
            }
            if let Ok(stage) = got {
                nodes += stage.nodes;
                om_bytes += stage.om_text_bytes;
                json_bytes += json.map_or(0, |j| j.len());
                if let Some(abstained) = stage.om_abstained {
                    om_ran += 1;
                    om_abstained += usize::from(abstained);
                }
            }
        }
        // Counts over the fixed set: identical on every pass.
        out.put("tagtree.nodes", nodes as f64);
        out.put(
            "heuristics.om_abstain_share",
            if om_ran == 0 {
                0.0
            } else {
                om_abstained as f64 / om_ran as f64
            },
        );
        times.add(&encoder.spans[first..], clock::to_nominal(calib_after));

        // Reconciliation: the same documents through extract_records.
        let calib_whole = clock::measure(workers);
        let (_, spans, _) = parallel(n, workers, epoch, |i, rec| {
            let item = &items[i];
            // The extraction is returned out of the span so that dropping
            // it is not timed, as the layered pass does not time it either.
            rec.span("core.extract", None, item.id, || {
                black_box(item.extractor.extract_records(item.html))
            })
            .is_ok()
        });
        times.add(&spans, clock::to_nominal(calib_whole));
        all_spans.extend(spans);
        docs_traced += n as u64;
        calibs.extend([calib, calib_after, calib_whole]);
    }
    all_spans.append(&mut encoder.spans);

    let per_doc = |span: &str| times.per_item_us(span, docs_traced);
    for (metric, span) in [
        ("html.tokenize_us", "html.tokenize"),
        ("tagtree.build_us", "tagtree.build"),
        ("heuristics.view_us", "heuristics.view"),
        ("heuristics.om_us", "heuristics.om"),
        ("heuristics.rp_us", "heuristics.rp"),
        ("heuristics.sd_us", "heuristics.sd"),
        ("heuristics.it_us", "heuristics.it"),
        ("heuristics.ht_us", "heuristics.ht"),
        ("certainty.combine_us", "certainty.combine"),
        ("core.chunk_us", "core.chunk"),
        ("core.extract_us", "core.extract"),
        ("json.encode_us", "json.encode"),
    ] {
        out.put(metric, per_doc(span));
    }
    let stage_ns: f64 = STAGES.iter().map(|s| times.total_ns(s)).sum();
    let whole_ns = times.total_ns("core.extract");
    out.put(
        "core.stage_sum_share",
        if whole_ns > 0.0 {
            stage_ns / whole_ns
        } else {
            0.0
        },
    );
    let om_s = times.total_ns("heuristics.om") / 1e9;
    out.put(
        "pattern.om_scan_mib_per_s",
        if om_s > 0.0 {
            om_bytes as f64 / om_s / (1024.0 * 1024.0)
        } else {
            0.0
        },
    );
    out.put(
        "json.bytes_per_doc",
        json_bytes as f64 / docs_traced.max(1) as f64,
    );
    Traced {
        docs_per_s: docs_traced as f64 / nominal_s,
        calibs,
        spans: all_spans,
    }
}
