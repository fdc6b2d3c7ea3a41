//! Store-backed batch extraction: the content-hash cache of DESIGN.md §14.
//!
//! [`run_batch_stored`] wraps [`run_batch`](crate::run_batch) with a
//! persistent [`Store`]: every document's bytes are hashed (a 256-bit
//! fingerprint) before any extraction work, documents whose hash is
//! already committed in the store are served from disk without touching
//! tokenize → heuristics → recognize at all, and only the misses go
//! through the batch workers. Fresh extractions are appended to the store
//! in one crash-safe commit at the end of the run, so the next batch over
//! the same corpus is all hits.
//!
//! Failure policy, bottom to top:
//!
//! * a store **read** error (a committed frame that no longer passes its
//!   checksum, say) degrades that document to a miss — it re-runs through
//!   the workers and the typed [`StoreError`] travels on the result so
//!   `rbd batch --json` can report it; nothing panics on a corrupt file;
//! * a store **write** error at commit time loses only the cache (the
//!   extractions themselves are already in hand and are still returned);
//!   the error is surfaced once on the report;
//! * every cache decision is counted: `store_cache_hits`,
//!   `store_cache_misses`, `store_read_errors`, `store_write_errors`, and
//!   `store_docs_appended` land in the same metrics snapshot as the
//!   pipeline counters.

use crate::batch::{run_batch, BatchConfig, BatchError};
use crate::pool::PoolError;
use rbd_core::RecordExtractor;
use rbd_store::{ContentHash, Store, StoreError, StoredDoc};
use rbd_trace::{RegistrySnapshot, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether a document was served from the store or freshly extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// The document's content hash was committed in the store; the stored
    /// extraction was served and the pipeline never ran.
    Hit,
    /// The document ran through the full extraction pipeline.
    Miss,
}

impl CacheStatus {
    /// The JSON-facing name: `"hit"` or `"miss"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// One document's outcome in a store-backed batch.
#[derive(Debug)]
pub struct CachedResult {
    /// The caller-assigned document id (the sort key of the batch).
    pub doc_id: u64,
    /// The 256-bit fingerprint of the document bytes — the cache key.
    pub hash: ContentHash,
    /// Hit (served from the store) or miss (freshly extracted).
    pub cache: CacheStatus,
    /// The stored-form extraction: loaded from disk on a hit, built from
    /// the fresh extraction on a successful miss.
    pub outcome: Result<StoredDoc, BatchError>,
    /// A store read error that degraded this document from a would-be hit
    /// to a miss. The document still extracted normally; this is the
    /// typed reason the cache could not serve it.
    pub store_error: Option<StoreError>,
}

/// A finished store-backed batch.
#[derive(Debug)]
pub struct CachedBatchReport {
    /// One entry per input document, ascending `doc_id`.
    pub results: Vec<CachedResult>,
    /// Pipeline metrics for the miss run, plus the `store_` counters.
    pub metrics: RegistrySnapshot,
    /// Documents served from the store.
    pub hits: u64,
    /// Documents that ran through the pipeline.
    pub misses: u64,
    /// The commit error, if appending the fresh extractions failed. The
    /// extractions are still in `results`; only the cache was lost.
    pub write_error: Option<StoreError>,
}

/// Runs `docs` through the extraction pipeline with `store` as a
/// content-hash cache, committing fresh extractions back to the store.
///
/// `docs` entries are `(doc_id, source, html)`: `source` is an optional
/// provenance label (the CLI passes the file path) persisted with the
/// record. Results come back sorted by `doc_id`, exactly like
/// [`run_batch`](crate::run_batch).
///
/// # Errors
///
/// Returns the worker error ([`PoolError::ZeroWorkers`] for `jobs == 0`)
/// — per-document and per-store failures are reported in the
/// [`CachedBatchReport`], never as an `Err`.
pub fn run_batch_stored(
    extractor: &RecordExtractor,
    docs: Vec<(u64, Option<String>, String)>,
    config: &BatchConfig,
    sink: &Arc<dyn TraceSink>,
    store: &mut Store,
) -> Result<CachedBatchReport, PoolError> {
    if config.jobs == 0 {
        // Surface the invalid config even when every document would hit.
        return Err(PoolError::ZeroWorkers);
    }

    let mut results: Vec<CachedResult> = Vec::with_capacity(docs.len());
    // A miss runs under its position in `misses`, not its `doc_id`: two
    // inputs may share an id, and each extraction must meet its own hash.
    let mut misses: Vec<(u64, String)> = Vec::new();
    let mut miss_meta: Vec<(u64, ContentHash, Option<String>, Option<StoreError>)> = Vec::new();
    let mut read_errors = 0u64;

    for (doc_id, source, html) in docs {
        let hash = ContentHash::of(html.as_bytes());
        let mut store_error = None;
        match store.get(&hash) {
            Ok(Some(stored)) => {
                results.push(CachedResult {
                    doc_id,
                    hash,
                    cache: CacheStatus::Hit,
                    outcome: Ok(stored),
                    store_error: None,
                });
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                // A committed frame failed to read back: degrade to a
                // miss and carry the typed error on the result.
                read_errors += 1;
                store_error = Some(e);
            }
        }
        misses.push((misses.len() as u64, html));
        miss_meta.push((doc_id, hash, source, store_error));
    }

    let hits = results.len() as u64;
    let miss_count = misses.len() as u64;
    let (mut metrics, appended, write_error) = if misses.is_empty() {
        let metrics = RegistrySnapshot {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        (metrics, 0, None)
    } else {
        let report = run_batch(extractor, misses, config, sink)?;
        // Each successful miss becomes one stored doc, committed from
        // `fresh` and then moved into its result.
        let mut fresh: Vec<StoredDoc> = Vec::new();
        let mut fresh_meta: Vec<(u64, Option<StoreError>)> = Vec::new();
        // `run_batch` returns results sorted by id, here input position.
        for ((doc_id, hash, source, store_error), r) in miss_meta.into_iter().zip(report.results) {
            match r.outcome {
                Ok(extraction) => {
                    fresh.push(StoredDoc::from_extraction(
                        hash,
                        source.as_deref(),
                        &extraction,
                    ));
                    fresh_meta.push((doc_id, store_error));
                }
                Err(e) => results.push(CachedResult {
                    doc_id,
                    hash,
                    cache: CacheStatus::Miss,
                    outcome: Err(e),
                    store_error,
                }),
            }
        }
        // One crash-safe commit for the whole run: a failure here loses
        // only the cache, never the extractions already in hand.
        let (appended, write_error) = if fresh.is_empty() {
            (0, None)
        } else {
            match store.append_batch(&fresh) {
                Ok(n) => (n, None),
                Err(e) => (0, Some(e)),
            }
        };
        for ((doc_id, store_error), doc) in fresh_meta.into_iter().zip(fresh) {
            results.push(CachedResult {
                doc_id,
                hash: doc.hash,
                cache: CacheStatus::Miss,
                outcome: Ok(doc),
                store_error,
            });
        }
        (report.metrics, appended, write_error)
    };

    metrics.counters.insert("store_cache_hits", hits);
    metrics.counters.insert("store_cache_misses", miss_count);
    metrics.counters.insert("store_read_errors", read_errors);
    metrics
        .counters
        .insert("store_write_errors", u64::from(write_error.is_some()));
    metrics.counters.insert("store_docs_appended", appended);

    results.sort_by_key(|r| r.doc_id);
    Ok(CachedBatchReport {
        results,
        metrics,
        hits,
        misses: miss_count,
        write_error,
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

    fn corpus(n: u64) -> Vec<(u64, Option<String>, String)> {
        (0..n)
            .map(|i| {
                let seed = usize::try_from(i).expect("small corpus");
                let body = match i % 7 {
                    3 => String::new(),
                    5 => "plain text, no tags".to_owned(),
                    _ => doc(3 + (seed % 4), seed),
                };
                (i, Some(format!("doc-{i}.html")), body)
            })
            .collect()
    }

    fn sink() -> Arc<dyn TraceSink> {
        Arc::new(NullSink)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rbd-cached-unit-{name}-{}.rbd", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn second_run_is_all_hits_and_identical() {
        let path = scratch("rerun");
        let ex = RecordExtractor::default();
        let mut store = Store::open(&path).expect("open");

        let first = run_batch_stored(
            &ex,
            corpus(12),
            &BatchConfig::with_jobs(2),
            &sink(),
            &mut store,
        )
        .expect("valid config");
        assert_eq!(first.hits, 0);
        assert_eq!(first.misses, 12);
        assert!(first.write_error.is_none());
        assert_eq!(first.metrics.counters.get("store_cache_misses"), Some(&12));

        let second = run_batch_stored(
            &ex,
            corpus(12),
            &BatchConfig::with_jobs(2),
            &sink(),
            &mut store,
        )
        .expect("valid config");
        // Only successfully extracted documents were cached; failures
        // (empty / tagless docs) re-run and miss again.
        let cached = first.results.iter().filter(|r| r.outcome.is_ok()).count() as u64;
        assert_eq!(second.hits, cached);
        assert!(second.hits > 0);
        assert_eq!(
            second.metrics.counters.get("store_cache_hits"),
            Some(&cached)
        );

        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.doc_id, b.doc_id);
            assert_eq!(a.hash, b.hash);
            if let (Ok(fresh), Ok(hit)) = (&a.outcome, &b.outcome) {
                assert_eq!(b.cache, CacheStatus::Hit);
                assert_eq!(
                    fresh.response_json().to_compact(),
                    hit.response_json().to_compact(),
                    "doc {}: cache hit must be byte-identical",
                    a.doc_id
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn changed_byte_busts_the_cache() {
        let path = scratch("bust");
        let ex = RecordExtractor::default();
        let mut store = Store::open(&path).expect("open");
        let html = doc(4, 7);
        let docs = vec![(0u64, None, html.clone())];
        let r1 = run_batch_stored(&ex, docs, &BatchConfig::with_jobs(1), &sink(), &mut store)
            .expect("valid config");
        assert_eq!(r1.misses, 1);

        let mutated = html.replacen("Entry", "entry", 1);
        assert_ne!(mutated, html);
        let r2 = run_batch_stored(
            &ex,
            vec![(0u64, None, mutated)],
            &BatchConfig::with_jobs(1),
            &sink(),
            &mut store,
        )
        .expect("valid config");
        assert_eq!(r2.hits, 0, "one changed byte must miss");
        assert_eq!(r2.misses, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_jobs_rejected_even_for_all_hit_batch() {
        let path = scratch("zerojobs");
        let ex = RecordExtractor::default();
        let mut store = Store::open(&path).expect("open");
        let err = run_batch_stored(
            &ex,
            Vec::new(),
            &BatchConfig::with_jobs(0),
            &sink(),
            &mut store,
        );
        assert!(matches!(err, Err(PoolError::ZeroWorkers)));
        let _ = std::fs::remove_file(&path);
    }

    /// Two inputs sharing a `doc_id` but not their bytes: each extraction
    /// must be committed under its own document's hash.
    #[test]
    fn duplicate_doc_ids_commit_under_their_own_hashes() {
        let path = scratch("dupids");
        let ex = RecordExtractor::default();
        let mut store = Store::open(&path).expect("open");
        let page = |name: &str| {
            let mut d = String::from("<html><body><table><tr><td><h1>List</h1><hr>");
            for i in 0..3 {
                d.push_str(&format!(
                    "<b>{name} {i}</b><br> body text for {name} entry {i}, \
                     long enough to look like a record.<br><hr>"
                ));
            }
            d.push_str("</td></tr></table></body></html>");
            d
        };
        let (alpha, bravo) = (page("Alpha"), page("Bravo"));
        let docs = vec![(7, None, alpha.clone()), (7, None, bravo.clone())];
        let report = run_batch_stored(&ex, docs, &BatchConfig::with_jobs(2), &sink(), &mut store)
            .expect("valid config");
        assert_eq!(report.misses, 2);
        assert!(report.write_error.is_none());
        for (html, name) in [(&alpha, "Alpha"), (&bravo, "Bravo")] {
            let hash = ContentHash::of(html.as_bytes());
            let stored = store.get(&hash).expect("readable").expect("committed");
            assert_eq!(stored.records.len(), 3);
            assert!(
                stored.records.iter().all(|r| r.text.contains(name)),
                "{name}'s hash serves {:?}",
                stored.records[0].text
            );
            let result = report.results.iter().find(|r| r.hash == hash);
            assert!(result.is_some_and(|r| r.doc_id == 7));
        }
        assert!(store
            .get(&ContentHash::of(&[]))
            .expect("readable")
            .is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_sorted_with_mixed_hits_and_misses() {
        let path = scratch("mixed");
        let ex = RecordExtractor::default();
        let mut store = Store::open(&path).expect("open");
        // Prime the store with the even-numbered documents.
        let prime: Vec<_> = corpus(8)
            .into_iter()
            .filter(|(i, _, _)| i % 2 == 0)
            .collect();
        run_batch_stored(&ex, prime, &BatchConfig::with_jobs(2), &sink(), &mut store)
            .expect("valid config");
        let all = run_batch_stored(
            &ex,
            corpus(8),
            &BatchConfig::with_jobs(2),
            &sink(),
            &mut store,
        )
        .expect("valid config");
        let ids: Vec<u64> = all.results.iter().map(|r| r.doc_id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert!(all.hits > 0);
        assert!(all.misses > 0);
        assert_eq!(all.hits + all.misses, 8);
        let _ = std::fs::remove_file(&path);
    }
}
