//! Chaos suite: the full pipeline under [`Limits::strict`] over thousands
//! of seeded adversarial documents.
//!
//! No ground truth exists for garbage, so the properties here are the
//! resource-governance contract, not extraction quality:
//!
//! 1. **No panic** — every document either extracts, degrades, or fails
//!    with a typed error (the suite passing at all is the assertion).
//! 2. **Caps respected** — any `Ok` outcome fits the configured limits:
//!    tree within the node cap, candidate set within the candidate cap.
//! 3. **Never silent** — a document that provably exceeds a hard cap
//!    (e.g. more start tags than the node budget) must fail with
//!    `DiscoveryError::Limit`, not quietly truncate.
//! 4. **Accurate reporting** — every degradation event carries the cap
//!    that tripped and an observed value actually over it.
//! 5. **Bounded overshoot** — an already-expired deadline stops the pass
//!    within one unit of work, never after scanning everything.
//! 6. **Tracing survives the attacks** — the main sweep runs with a live
//!    [`CollectingSink`], so the instrumentation itself is under fire; set
//!    `RBD_CHAOS_METRICS=<path>` to write the final counter/histogram
//!    snapshot (the CI chaos job uploads it as an artifact).

use rbd::prelude::*;
use rbd_core::limits::{DegradationStage, LimitKind};
use rbd_corpus::adversarial::{generate_adversarial, AttackKind};
use std::sync::Arc;

/// Fixed seed: every document in this suite replays from `(kind, index)`.
const CHAOS_SEED: u64 = 0x0DD5_EED5_0DD5_EED5;

/// Documents per attack class; 7 classes × 150 = 1050 documents in release
/// (the CI chaos job). The debug run — part of the ordinary workspace test
/// pass — uses a smaller slice of the same corpus to stay fast; it checks
/// the same properties, just over fewer documents.
const PER_KIND: usize = if cfg!(debug_assertions) { 60 } else { 150 };

fn strict_extractor() -> RecordExtractor {
    RecordExtractor::new(ExtractorConfig::default().with_limits(Limits::strict())).unwrap()
}

fn check_outcome(
    kind: AttackKind,
    index: usize,
    doc: &str,
    result: Result<DiscoveryOutcome, DiscoveryError>,
) {
    let limits = Limits::strict();
    match result {
        Ok(out) => {
            // Property 2: caps respected on success.
            let node_cap = limits.max_tree_nodes.unwrap();
            assert!(
                out.tree.len() <= node_cap,
                "{kind:?}#{index}: {} nodes over cap {node_cap}",
                out.tree.len()
            );
            let cand_cap = limits.max_candidate_tags.unwrap();
            assert!(
                out.candidates.len() <= cand_cap,
                "{kind:?}#{index}: {} candidates over cap {cand_cap}",
                out.candidates.len()
            );
            assert!(doc.len() <= limits.max_input_bytes.unwrap());
            // Property 4: every event is a real breach.
            for ev in &out.degradation {
                match ev.cause.limit {
                    LimitKind::CandidateTags | LimitKind::TextBytes => assert!(
                        ev.cause.observed > ev.cause.cap,
                        "{kind:?}#{index}: event {ev} reports no actual breach"
                    ),
                    LimitKind::WallClock => assert!(
                        matches!(
                            ev.stage,
                            DegradationStage::Heuristic(_) | DegradationStage::Recognizer
                        ),
                        "{kind:?}#{index}: wall-clock event at odd stage {ev}"
                    ),
                    hard => panic!("{kind:?}#{index}: hard limit {hard} as degradation"),
                }
            }
        }
        // Property 1/3: failures are typed, and a limit error names a cap.
        Err(DiscoveryError::Limit(e)) => {
            assert!(
                limits_cap_for(e.limit).is_some(),
                "{kind:?}#{index}: limit error {e} for an uncapped resource"
            );
        }
        Err(
            DiscoveryError::EmptyDocument
            | DiscoveryError::NoCandidates
            | DiscoveryError::NoConsensus,
        ) => {}
        Err(other) => panic!("{kind:?}#{index}: unexpected error {other}"),
    }
}

fn limits_cap_for(kind: LimitKind) -> Option<usize> {
    let l = Limits::strict();
    match kind {
        LimitKind::InputBytes => l.max_input_bytes,
        LimitKind::TreeNodes => l.max_tree_nodes,
        LimitKind::NestingDepth => l.max_nesting_depth,
        LimitKind::CandidateTags => l.max_candidate_tags,
        LimitKind::TextBytes => l.max_text_bytes,
        LimitKind::WallClock => l.time_budget.map(|d| d.as_millis().try_into().unwrap_or(0)),
    }
}

#[test]
fn full_pipeline_survives_the_adversarial_corpus() {
    // Property 6: a live sink collects through the whole sweep.
    let sink = CollectingSink::new();
    let ex =
        RecordExtractor::new(ExtractorConfig::default().with_limits(Limits::strict())).unwrap();
    for kind in AttackKind::ALL {
        for index in 0..PER_KIND {
            let doc = generate_adversarial(kind, index, CHAOS_SEED);
            check_outcome(kind, index, &doc, ex.discover_traced(&doc, &sink));
            // Chunking after a successful discovery must also hold up.
            if let Ok(extraction) = ex.extract_records_traced(&doc, &sink) {
                assert_eq!(extraction.degradation, extraction.outcome.degradation);
                let total: usize = extraction.records.len();
                assert!(
                    total < doc.len().max(2),
                    "{kind:?}#{index}: absurd chunking"
                );
            }
        }
    }
    // The whole corpus went through traced code paths; the registry must
    // reflect that, and CI archives the snapshot for trend-watching.
    assert!(sink.registry().counter("extract_tags_scanned") > 0);
    if let Some(path) = std::env::var_os("RBD_CHAOS_METRICS") {
        let snapshot = sink.registry_snapshot().to_pretty();
        std::fs::write(&path, snapshot.as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.to_string_lossy()));
    }
}

#[test]
fn threaded_batch_arm_matches_the_serial_sweep() {
    // The strict profile minus its wall-clock budget: the time-based
    // degradations are the only nondeterministic part of the contract, so
    // dropping them makes "parallel equals serial" an exact assertion
    // while every size cap stays armed.
    let limits = Limits {
        time_budget: None,
        ..Limits::strict()
    };
    let ex = RecordExtractor::new(ExtractorConfig::default().with_limits(limits)).unwrap();

    let mut docs: Vec<(u64, String)> = Vec::new();
    for kind in AttackKind::ALL {
        for index in 0..PER_KIND {
            let id = u64::try_from(docs.len()).expect("small corpus");
            docs.push((id, generate_adversarial(kind, index, CHAOS_SEED)));
        }
    }
    let total = docs.len();

    let serial: Vec<_> = docs
        .iter()
        .map(|(_, html)| ex.extract_records(html))
        .collect();

    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
    let report = run_batch(&ex, docs, &BatchConfig::with_jobs(4), &sink)
        .expect("four workers is a valid batch config");

    // Clean drain: one result per document, ids contiguous after the sort
    // — nothing lost, nothing duplicated.
    assert_eq!(report.results.len(), total);
    let ids: Vec<u64> = report.results.iter().map(|r| r.doc_id).collect();
    let expected: Vec<u64> = (0..u64::try_from(total).expect("small corpus")).collect();
    assert_eq!(ids, expected, "batch lost or duplicated documents");

    // Identical outcomes, document by document: same separator, same
    // record texts, same degradation events, same typed errors.
    for (got, want) in report.results.iter().zip(&serial) {
        let doc_id = got.doc_id;
        match (&got.outcome, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.outcome.separator, w.outcome.separator, "doc {doc_id}");
                assert_eq!(g.degradation, w.degradation, "doc {doc_id}");
                assert_eq!(
                    g.records.iter().map(|r| &r.text).collect::<Vec<_>>(),
                    w.records.iter().map(|r| &r.text).collect::<Vec<_>>(),
                    "doc {doc_id}"
                );
            }
            (Err(rbd::pipeline::BatchError::Discovery(g)), Err(w)) => {
                assert_eq!(g, w, "doc {doc_id}");
            }
            (got_outcome, want_outcome) => {
                panic!("doc {doc_id}: batch {got_outcome:?} vs serial {want_outcome:?}")
            }
        }
    }

    // The merged worker metrics account for every document, and CI archives
    // the snapshot alongside the serial chaos metrics.
    assert_eq!(
        report.metrics.counters.get("pipeline_jobs_run"),
        Some(&u64::try_from(total).expect("small corpus")),
        "{:?}",
        report.metrics.counters
    );
    if let Some(path) = std::env::var_os("RBD_BATCH_METRICS") {
        let snapshot = report.metrics.to_json().to_pretty();
        std::fs::write(&path, snapshot.as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.to_string_lossy()));
    }
}

#[test]
fn oversized_tag_bombs_fail_typed_never_truncate() {
    let ex = strict_extractor();
    let node_cap = Limits::strict().max_tree_nodes.unwrap();
    let mut over_cap_seen = 0usize;
    for index in 0..PER_KIND {
        let doc = generate_adversarial(AttackKind::TagBomb, index, CHAOS_SEED);
        // Tag bombs contain no '<' outside tags, so this counts start tags.
        let tags = doc.matches('<').count();
        let result = ex.discover(&doc);
        if tags + 1 > node_cap && doc.len() <= Limits::strict().max_input_bytes.unwrap() {
            over_cap_seen += 1;
            match result {
                Err(DiscoveryError::Limit(e)) => {
                    assert_eq!(e.limit, LimitKind::TreeNodes, "bomb #{index}: {e}");
                    assert_eq!(e.cap, node_cap);
                    assert!(e.observed > node_cap);
                }
                other => panic!(
                    "bomb #{index} with {tags} tags must fail on the node cap, got {other:?}"
                ),
            }
        }
    }
    // The size distribution must actually exercise the over-cap branch.
    assert!(
        over_cap_seen >= 5,
        "only {over_cap_seen} over-cap bombs generated; distribution regressed"
    );
}

#[test]
fn deep_towers_fail_on_the_depth_cap() {
    let ex = strict_extractor();
    let depth_cap = Limits::strict().max_nesting_depth.unwrap();
    let mut over_cap_seen = 0usize;
    for index in 0..PER_KIND {
        let doc = generate_adversarial(AttackKind::NestingTower, index, CHAOS_SEED);
        // Towers are `<t>`^d … `</t>`^d: end tags count the actual depth.
        let depth = doc.matches("</").count();
        if depth > depth_cap {
            over_cap_seen += 1;
            match ex.discover(&doc) {
                Err(DiscoveryError::Limit(e)) => {
                    assert_eq!(e.limit, LimitKind::NestingDepth, "tower #{index}: {e}");
                }
                other => panic!("tower #{index} of depth {depth} must fail, got {other:?}"),
            }
        }
    }
    assert!(over_cap_seen >= 5, "only {over_cap_seen} over-cap towers");
}

#[test]
fn expired_deadline_stops_within_one_unit_of_work() {
    // A zero budget is expired before the first heuristic: every heuristic
    // abstains, and the typed wall-clock failure arrives without scanning
    // the record area even once.
    let limits = Limits {
        time_budget: Some(std::time::Duration::ZERO),
        ..Limits::default()
    };
    let ex = RecordExtractor::new(ExtractorConfig::default().with_limits(limits)).unwrap();
    let style = &rbd_corpus::sites::initial_sites(rbd_corpus::Domain::Obituaries)[0];
    let doc = rbd_corpus::generate_document(style, rbd_corpus::Domain::Obituaries, 0, CHAOS_SEED);
    let started = std::time::Instant::now();
    match ex.discover(&doc.html) {
        Err(DiscoveryError::Limit(e)) => assert_eq!(e.limit, LimitKind::WallClock),
        // A single-candidate page would shortcut past the heuristics; the
        // obituary styles all emit multiple candidates, so this is a bug.
        other => panic!("zero budget must surface as a wall-clock limit, got {other:?}"),
    }
    // "One unit of work" is one heuristic pass over one small page —
    // seconds of headroom on any machine, yet catching an implementation
    // that ignores the deadline and scans everything.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "expired deadline overshot by {:?}",
        started.elapsed()
    );
}

/// Crash-recovery arm: a committed store survives truncation at *every*
/// byte boundary of the trailing uncommitted region. For each cut the
/// reopened store must recover cleanly — all committed documents intact
/// and byte-identical, at most the uncommitted batch lost — and a cut
/// inside the committed region must surface as a typed error or a clean
/// (possibly empty) store, never a panic or silently wrong data. Set
/// `RBD_STORE_METRICS=<path>` to write the cut/recovery tally (the CI
/// store job uploads it as an artifact).
#[test]
fn store_survives_truncation_at_every_byte_of_the_last_frame() {
    use rbd::core::Record;
    use rbd::store::{ContentHash, Store, StoredDoc};

    fn make_doc(n: u64) -> StoredDoc {
        let body = format!("chaos-store-doc-{n}");
        StoredDoc {
            hash: ContentHash::of(body.as_bytes()),
            source: Some(format!("doc-{n}.html")),
            separator: "hr".to_string(),
            subtree_tag: "td".to_string(),
            preamble: None,
            records: vec![Record {
                start: 0,
                end: body.len(),
                text: body,
            }],
            degraded: 0,
        }
    }

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let base = dir.join(format!("rbd-chaos-store-{pid}.rbd"));
    let scratch = dir.join(format!("rbd-chaos-store-cut-{pid}.rbd"));
    let _ = std::fs::remove_file(&base);

    // Batch A: committed. Batch B: committed on disk, then every suffix of
    // its byte range is torn off in turn, simulating a crash at each point
    // of the append.
    let batch_a: Vec<StoredDoc> = (0..3).map(make_doc).collect();
    let batch_b: Vec<StoredDoc> = (3..5).map(make_doc).collect();
    let len_a = {
        let mut store = Store::open(&base).expect("fresh store opens");
        store.append_batch(&batch_a).expect("batch A commits");
        std::fs::metadata(&base).expect("store file exists").len()
    };
    {
        let mut store = Store::open(&base).expect("committed store reopens");
        store.append_batch(&batch_b).expect("batch B commits");
    }
    let full = std::fs::read(&base).expect("store file readable");
    let len_full = u64::try_from(full.len()).expect("small store");
    assert!(len_full > len_a, "batch B wrote nothing");

    let cut_start = usize::try_from(len_a).expect("small store");
    let mut recovered_committed = 0u64;
    let mut recovered_full = 0u64;
    for cut in cut_start..full.len() + 1 {
        std::fs::write(&scratch, &full[..cut]).expect("scratch write");
        let mut store = Store::open(&scratch)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        let cut_is_full = cut == full.len();
        let expected: u64 = if cut_is_full { 5 } else { 3 };
        assert_eq!(
            store.len(),
            expected,
            "cut at byte {cut}: wrong recovered count"
        );
        if cut_is_full {
            recovered_full += 1;
        } else {
            recovered_committed += 1;
        }
        // Every committed document survives byte-identical.
        for doc in &batch_a {
            let got = store
                .get(&doc.hash)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: read-back failed: {e}"))
                .unwrap_or_else(|| panic!("cut at byte {cut}: committed doc lost"));
            assert_eq!(
                got.response_json().to_compact(),
                doc.response_json().to_compact(),
                "cut at byte {cut}: committed doc mutated"
            );
        }
    }

    // Cuts *inside* the committed region lose data the log can no longer
    // vouch for: recovery must still never panic — a clean (possibly
    // empty) store or a typed error are the only acceptable outcomes.
    let mut torn_committed_ok = 0u64;
    let mut torn_committed_typed = 0u64;
    for cut in (0..cut_start).step_by(7) {
        std::fs::write(&scratch, &full[..cut]).expect("scratch write");
        match Store::open(&scratch) {
            Ok(store) => {
                assert!(store.len() <= 3, "cut at byte {cut}: resurrected documents");
                torn_committed_ok += 1;
            }
            Err(e) => {
                assert!(!e.kind().is_empty(), "cut at byte {cut}: untyped error {e}");
                torn_committed_typed += 1;
            }
        }
    }

    if let Some(path) = std::env::var_os("RBD_STORE_METRICS") {
        let snapshot = rbd_json::Json::object([
            (
                "store_cuts_tested",
                rbd_json::Json::UInt(recovered_committed + recovered_full),
            ),
            (
                "store_recovered_committed",
                rbd_json::Json::UInt(recovered_committed),
            ),
            ("store_recovered_full", rbd_json::Json::UInt(recovered_full)),
            (
                "store_torn_committed_ok",
                rbd_json::Json::UInt(torn_committed_ok),
            ),
            (
                "store_torn_committed_typed",
                rbd_json::Json::UInt(torn_committed_typed),
            ),
        ])
        .to_pretty();
        std::fs::write(&path, snapshot.as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.to_string_lossy()));
    }
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&scratch);
}

#[test]
fn mutated_corpus_keeps_degradation_reports_accurate() {
    // Tight soft caps force frequent degradation on *valid* mutated pages;
    // every report must be present and truthful.
    let limits = Limits {
        max_candidate_tags: Some(2),
        max_text_bytes: Some(256),
        ..Limits::strict()
    };
    let ex = RecordExtractor::new(
        ExtractorConfig::default()
            .with_ontology(rbd_ontology::domains::obituaries())
            .with_limits(limits),
    )
    .unwrap();
    let mut degraded_runs = 0usize;
    for index in 0..200 {
        let doc = generate_adversarial(AttackKind::Mutation, index, CHAOS_SEED);
        if let Ok(out) = ex.discover(&doc) {
            assert!(out.candidates.len() <= 2);
            let text_events = out
                .degradation
                .iter()
                .filter(|e| e.cause.limit == LimitKind::TextBytes)
                .count();
            let cand_events = out
                .degradation
                .iter()
                .filter(|e| e.cause.limit == LimitKind::CandidateTags)
                .count();
            // At most one report per stage per cause.
            assert!(
                text_events <= 1,
                "duplicate text events: {:?}",
                out.degradation
            );
            assert!(
                cand_events <= 1,
                "duplicate candidate events: {:?}",
                out.degradation
            );
            if !out.degradation.is_empty() {
                degraded_runs += 1;
            }
            for ev in &out.degradation {
                assert!(ev.cause.observed > ev.cause.cap, "untruthful event {ev}");
            }
        }
    }
    assert!(
        degraded_runs >= 20,
        "only {degraded_runs} degraded runs; caps too loose to test reporting"
    );
}
