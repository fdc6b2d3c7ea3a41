//! Golden decision-audit traces: fixed corpus documents through the traced
//! pipeline, compared byte-for-byte against checked-in JSON.
//!
//! The goldens pin the *events only* — spans carry wall-clock nanos and the
//! metrics snapshot embeds them, so neither is reproducible. Every event is
//! a pure function of the input document and the configured limits (no
//! scenario sets a time budget, and the tag-bomb run fails at tree build,
//! before the first deadline check), which makes the comparison exact.
//!
//! To regenerate after an intentional change to the event taxonomy:
//!
//! ```text
//! RBD_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then review the diff like any other code change — these files are the
//! compatibility contract for `rbd --trace` consumers.

use rbd::prelude::*;
use rbd_corpus::adversarial::{generate_adversarial, AttackKind};
use rbd_corpus::{generate_document, sites, Domain};
use std::path::PathBuf;

/// Same corpus seed the evaluation suite uses.
const SEED: u64 = 1998;

/// Same seed as `tests/chaos.rs`, so the bomb picked here is one the chaos
/// suite already proves fails typed.
const CHAOS_SEED: u64 = 0x0DD5_EED5_0DD5_EED5;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"))
}

/// Runs `html` through a traced extractor and returns the pretty-printed
/// events array. Extraction failure is a legitimate scenario (the trace up
/// to the failure is exactly what the golden pins), so the result is
/// deliberately dropped.
fn traced_events(config: ExtractorConfig, html: &str) -> String {
    let sink = CollectingSink::new();
    let extractor = RecordExtractor::new(config).expect("config compiles");
    let _ = extractor.extract_records_traced(html, &sink);
    let mut json = rbd::trace::events_to_json(&sink.events()).to_pretty();
    json.push('\n');
    json
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("RBD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual.as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}\nrun `RBD_UPDATE_GOLDEN=1 cargo test --test golden_trace` to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "trace for `{name}` diverged from its golden; if the change is \
         intentional, regenerate with RBD_UPDATE_GOLDEN=1 and review the diff"
    );
}

/// A clean obituary page with the matching ontology under default limits:
/// the full happy path — subtree choice, candidate threshold, all five
/// heuristics with raw inputs, consensus, chunking — with no degradation.
#[test]
fn clean_obituary_trace_matches_golden() {
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let doc = generate_document(style, Domain::Obituaries, 0, SEED);
    let config = ExtractorConfig::default().with_ontology(rbd_ontology::domains::obituaries());
    let trace = traced_events(config, &doc.html);

    // The golden is authoritative; these spot checks make the test
    // self-describing when it fails before a golden exists.
    for needle in [
        "subtree_chosen",
        "candidates",
        "heuristic",
        "\"OM\"",
        "\"RP\"",
        "\"SD\"",
        "\"IT\"",
        "\"HT\"",
        "consensus",
        "chunked",
    ] {
        assert!(trace.contains(needle), "missing {needle} in:\n{trace}");
    }
    assert!(
        !trace.contains("degradation"),
        "clean run must not degrade:\n{trace}"
    );
    assert_matches_golden("clean_obituary", &trace);
}

/// An over-cap tag bomb under pure [`Limits::strict`]: the run dies at tree
/// build with a typed node-cap error, and the trace records exactly what
/// happened before the rejection — events only, no partial tree state.
#[test]
fn tag_bomb_strict_trace_matches_golden() {
    let caps = Limits::strict();
    let node_cap = caps.max_tree_nodes.expect("strict caps nodes");
    let input_cap = caps.max_input_bytes.expect("strict caps input");
    let doc = (0..150)
        .map(|index| generate_adversarial(AttackKind::TagBomb, index, CHAOS_SEED))
        .find(|doc| doc.matches('<').count() + 1 > node_cap && doc.len() <= input_cap)
        .expect("chaos corpus contains an over-cap bomb");

    let config = ExtractorConfig::default().with_limits(Limits::strict());
    let trace = traced_events(config, &doc);
    assert!(
        trace.contains("tokenized"),
        "tokenization precedes the cap:\n{trace}"
    );
    assert!(
        !trace.contains("subtree_chosen"),
        "the bomb must die before subtree choice:\n{trace}"
    );
    assert_matches_golden("tag_bomb_strict", &trace);
}

/// The server-event taxonomy (`rbd serve`'s operational audit trail),
/// serialized from synthetic fixed-value events. The live server's events
/// carry nondeterministic data — peer ports, elapsed times — so the golden
/// pins the *shape*: every variant, every field, the `server_` kind
/// prefix. A field rename or reorder in `ServerEvent` shows up here as a
/// reviewable diff, exactly like the pipeline events above.
#[test]
fn server_event_taxonomy_matches_golden() {
    use rbd::trace::ServerEvent;
    let events = vec![
        TraceEvent::Server(ServerEvent::ConnAccepted {
            peer: "127.0.0.1:50000".into(),
            active: 3,
        }),
        TraceEvent::Server(ServerEvent::RequestShed {
            depth: 16,
            retry_after_s: 1,
        }),
        TraceEvent::Server(ServerEvent::Deadline {
            phase: "read".into(),
            elapsed_ms: 5_000,
        }),
        TraceEvent::Server(ServerEvent::WorkerPanic {
            message: "index out of bounds".into(),
        }),
        TraceEvent::Server(ServerEvent::Drained {
            drained: 7,
            abandoned: 0,
            elapsed_ms: 42,
        }),
    ];
    let mut json = rbd::trace::events_to_json(&events).to_pretty();
    json.push('\n');
    assert_matches_golden("server_events", &json);
}

/// The same clean obituary squeezed through a 2 KiB text cap: the pipeline
/// degrades instead of failing, and the trace must carry the degradation
/// event alongside the decisions made on the truncated text. No time
/// budget, so the trace stays deterministic.
#[test]
fn text_capped_trace_matches_golden() {
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let doc = generate_document(style, Domain::Obituaries, 0, SEED);
    let limits = Limits {
        max_text_bytes: Some(2_048),
        time_budget: None,
        ..Limits::strict()
    };
    let config = ExtractorConfig::default()
        .with_ontology(rbd_ontology::domains::obituaries())
        .with_limits(limits);
    let trace = traced_events(config, &doc.html);
    assert!(
        trace.contains("degradation"),
        "a 2 KiB text cap must degrade this page:\n{trace}"
    );
    assert_matches_golden("text_capped", &trace);
}
