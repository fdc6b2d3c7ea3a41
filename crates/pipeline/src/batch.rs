//! Batch extraction: a corpus of documents through the workers of
//! [`run_ordered`], out in deterministic order.
//!
//! [`run_batch`] runs one governed extraction per document (the
//! extractor's [`Limits`](rbd_core::Limits) deadline still applies to each
//! document individually) through [`run_ordered`], then sorts the results
//! by document id — so a 4-worker run and a serial sweep produce
//! byte-identical output for the same inputs.

use crate::pool::{run_ordered, PoolError};
use rbd_core::{DiscoveryError, Extraction, RecordExtractor};
use rbd_trace::{RegistrySnapshot, TraceSink};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Batch-run sizing.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads (the CLI's `--jobs`). Zero is rejected by
    /// [`run_batch`] with [`PoolError::ZeroWorkers`].
    pub jobs: usize,
}

impl BatchConfig {
    /// A config with `jobs` workers.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        BatchConfig { jobs }
    }
}

/// Why one document produced no extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// The extractor ran and failed (the same errors a serial run yields).
    Discovery(DiscoveryError),
    /// The extraction panicked; its worker caught it and the batch
    /// carried on.
    Panicked(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Discovery(e) => write!(f, "{e}"),
            BatchError::Panicked(msg) => write!(f, "extraction panicked: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One document's outcome within a batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The caller-assigned document id (the sort key of the batch).
    pub doc_id: u64,
    /// Which worker ran the document.
    pub worker: usize,
    /// Time the worker waited to take the document from the input.
    pub queue_wait: Duration,
    /// Time the extraction took.
    pub run_time: Duration,
    /// The extraction, or why there is none.
    pub outcome: Result<Extraction, BatchError>,
}

/// A finished batch: per-document results sorted by `doc_id`, plus the
/// merged worker metrics.
#[derive(Debug)]
pub struct BatchReport {
    /// One entry per input document, ascending `doc_id`.
    pub results: Vec<BatchResult>,
    /// Merged per-worker registries: `pipeline_jobs_run`,
    /// `pipeline_queue_wait` / `pipeline_run_time` histograms, and so on.
    pub metrics: RegistrySnapshot,
}

impl BatchReport {
    /// Documents that produced an extraction.
    #[must_use]
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_ok()).count()
    }
}

/// Runs every document through `config.jobs` workers and returns the
/// results sorted by `doc_id`.
///
/// The workers borrow `extractor` (its configuration, ontology rules, and
/// limits) for the length of the call. `sink` observes the run: job and
/// panic counters from the workers, and the full per-document audit trail
/// whenever the sink is enabled.
pub fn run_batch(
    extractor: &RecordExtractor,
    docs: Vec<(u64, String)>,
    config: &BatchConfig,
    sink: &Arc<dyn TraceSink>,
) -> Result<BatchReport, PoolError> {
    let doc_ids: Vec<u64> = docs.iter().map(|(doc_id, _)| *doc_id).collect();
    let sink = sink.as_ref();
    let runner = |html: String| {
        // Each document is one trace: a fresh id plus a root span, stamped
        // onto every stage span the extraction records, so a `--trace` dump
        // separates into per-document span trees. The disabled path
        // (metrics-only batch runs) skips all of it.
        let (scoped, root) = if sink.enabled() {
            let trace = rbd_trace::TraceId::generate();
            let root = rbd_trace::Span::start("batch:doc").with_context(trace, None);
            (
                Some(rbd_trace::ScopedSink::new(sink, trace, Some(root.id()))),
                Some(root),
            )
        } else {
            (None, None)
        };
        let doc_sink: &dyn TraceSink = match &scoped {
            Some(s) => s,
            None => sink,
        };
        let result = extractor.extract_records_traced(&html, doc_sink);
        if let Some(root) = root {
            root.finish(sink);
        }
        result
    };
    let htmls = docs.into_iter().map(|(_, html)| html);
    let run = run_ordered(config.jobs, htmls, runner, sink)?;
    let mut results: Vec<BatchResult> = doc_ids
        .into_iter()
        .zip(run.results)
        .map(|(doc_id, done)| BatchResult {
            doc_id,
            worker: done.worker,
            queue_wait: done.queue_wait,
            run_time: done.run_time,
            outcome: done
                .output
                .map_err(|panic| BatchError::Panicked(panic.message))
                .and_then(|extracted| extracted.map_err(BatchError::Discovery)),
        })
        .collect();
    results.sort_by_key(|r| r.doc_id);
    Ok(BatchReport {
        results,
        metrics: run.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_trace::NullSink;

    fn doc(records: usize, seed: usize) -> String {
        let mut d = String::from("<html><body><table><tr><td><h1>List</h1><hr>");
        for i in 0..records {
            d.push_str(&format!(
                "<b>Entry {i}-{seed}</b><br> body text for entry {i} of seed {seed}, \
                 long enough to look like a record.<br><hr>"
            ));
        }
        d.push_str("</td></tr></table></body></html>");
        d
    }

    fn corpus(n: u64) -> Vec<(u64, String)> {
        (0..n)
            .map(|i| {
                let seed = usize::try_from(i).expect("small corpus");
                let body = match i % 7 {
                    // A couple of degenerate documents so error paths run.
                    3 => String::new(),
                    5 => "plain text, no tags".to_owned(),
                    _ => doc(3 + (seed % 4), seed),
                };
                (i, body)
            })
            .collect()
    }

    fn sink() -> Arc<dyn TraceSink> {
        Arc::new(NullSink)
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let ex = RecordExtractor::default();
        let err = run_batch(&ex, corpus(4), &BatchConfig::with_jobs(0), &sink());
        assert!(matches!(err, Err(PoolError::ZeroWorkers)));
    }

    #[test]
    fn batch_matches_serial_sweep() {
        let ex = RecordExtractor::default();
        // Submitted in reverse `doc_id` order, so the sort contract is
        // checked on unsorted input.
        let docs: Vec<(u64, String)> = corpus(40).into_iter().rev().collect();
        let mut serial: Vec<(u64, Result<Extraction, DiscoveryError>)> = docs
            .iter()
            .map(|(id, html)| (*id, ex.extract_records(html)))
            .collect();
        serial.reverse();
        let report =
            run_batch(&ex, docs, &BatchConfig::with_jobs(4), &sink()).expect("valid config");
        assert_eq!(report.results.len(), serial.len());
        for (got, (want_id, want)) in report.results.iter().zip(&serial) {
            assert_eq!(got.doc_id, *want_id, "sorted by doc_id");
            match (&got.outcome, want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.outcome.separator, w.outcome.separator);
                    assert_eq!(g.records.len(), w.records.len());
                    assert_eq!(
                        g.records.iter().map(|r| &r.text).collect::<Vec<_>>(),
                        w.records.iter().map(|r| &r.text).collect::<Vec<_>>()
                    );
                }
                (Err(BatchError::Discovery(g)), Err(w)) => assert_eq!(g, w),
                (got, want) => panic!("doc {want_id}: batch {got:?} vs serial {want:?}"),
            }
        }
        assert_eq!(
            report.metrics.counters.get("pipeline_jobs_run"),
            Some(&40),
            "{:?}",
            report.metrics.counters
        );
    }

    #[test]
    fn single_worker_batch_still_sorted_and_complete() {
        let ex = RecordExtractor::default();
        let report =
            run_batch(&ex, corpus(10), &BatchConfig::with_jobs(1), &sink()).expect("valid config");
        let ids: Vec<u64> = report.results.iter().map(|r| r.doc_id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert!(report.succeeded() > 0);
    }

    #[test]
    fn traced_batch_yields_one_span_tree_per_document() {
        let ex = RecordExtractor::default();
        let collecting = Arc::new(rbd_trace::CollectingSink::new());
        let audit: Arc<dyn TraceSink> = Arc::clone(&collecting) as Arc<dyn TraceSink>;
        let n = 6u64;
        run_batch(&ex, corpus(n), &BatchConfig::with_jobs(2), &audit).expect("valid config");

        let spans = collecting.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.name == "batch:doc").collect();
        assert_eq!(
            roots.len(),
            usize::try_from(n).expect("small"),
            "one root per document"
        );

        let mut traces: Vec<_> = roots.iter().map(|r| r.trace).collect();
        traces.sort();
        traces.dedup();
        assert_eq!(traces.len(), roots.len(), "distinct trace per document");

        // Every stage span is stamped with some root's trace and parented
        // under that root.
        for span in spans.iter().filter(|s| s.name != "batch:doc") {
            assert!(span.trace.is_set(), "unstamped span {span:?}");
            let root = roots
                .iter()
                .find(|r| r.trace == span.trace)
                .unwrap_or_else(|| panic!("span {span:?} belongs to no document root"));
            assert_eq!(span.parent, Some(root.span), "span {span:?}");
        }
        // The non-degenerate documents exercise the full pipeline.
        assert!(spans.iter().any(|s| s.name == "tokenize"));
        assert!(spans.iter().any(|s| s.name == "tree_build"));
    }
}
