//! # rbd — Record-Boundary Discovery in Web Documents
//!
//! Umbrella crate for the full reproduction of *Record-Boundary Discovery in
//! Web Documents* (D.W. Embley, Y. Jiang, Y.-K. Ng; SIGMOD 1999). It
//! re-exports every subsystem so downstream users depend on a single crate:
//!
//! * [`html`] — from-scratch HTML tokenizer,
//! * [`tagtree`] — Appendix-A tag-tree construction and fan-out analysis,
//! * [`pattern`] — the regular-expression engine behind data frames,
//! * [`ontology`] — application ontologies and matching-rule generation,
//! * [`heuristics`] — the five ranking heuristics (HT, IT, SD, RP, OM),
//! * [`certainty`] — Stanford certainty theory and compound heuristics,
//! * [`core`] — the Record Extractor (discovery + chunking),
//! * [`recognizer`] — constant/keyword recognition (Data-Record Table),
//! * [`db`] — in-memory relational database and instance generator,
//! * [`corpus`] — synthetic web-document corpus,
//! * [`eval`] — the experiment harness reproducing the paper's tables,
//! * [`trace`] — tracing, metrics, and the decision audit trail,
//! * [`pipeline`] — concurrent batch-extraction engine (scoped workers
//!   that pull their own inputs, results in input order),
//! * [`serve`] — fault-tolerant long-lived HTTP extraction service
//!   (socket deadlines, load shedding, graceful drain),
//! * [`store`] — crash-safe persistent record store with a content-hash
//!   extraction cache,
//! * [`report`] — stable machine-readable shapes for CLI output.
//!
//! ## Quickstart
//!
//! ```
//! use rbd::prelude::*;
//!
//! let html = "<html><body><table><tr><td>\
//!     <hr><b>A. Person</b><br> died on January 1, 1998.\
//!     <hr><b>B. Person</b><br> died on January 2, 1998.\
//!     <hr><b>C. Person</b><br> died on January 3, 1998.\
//!     <hr></td></tr></table></body></html>";
//!
//! let extractor = RecordExtractor::new(ExtractorConfig::default()).unwrap();
//! let outcome = extractor.discover(html).unwrap();
//! assert_eq!(outcome.separator.as_str(), "hr");
//! ```

#![forbid(unsafe_code)]

pub use rbd_certainty as certainty;
pub use rbd_core as core;
pub use rbd_corpus as corpus;
pub use rbd_db as db;
pub use rbd_eval as eval;
pub use rbd_heuristics as heuristics;
pub use rbd_html as html;
pub use rbd_limits as limits;
pub use rbd_ontology as ontology;
pub use rbd_pattern as pattern;
pub use rbd_pipeline as pipeline;
pub use rbd_recognizer as recognizer;
pub use rbd_serve as serve;
pub use rbd_store as store;
pub use rbd_tagtree as tagtree;
pub use rbd_trace as trace;

pub mod report;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use rbd_certainty::{CertaintyFactor, CertaintyTable, CompoundHeuristic, HeuristicSet};
    pub use rbd_core::{
        DegradationEvent, DegradationStage, DiscoveryError, DiscoveryOutcome, ExtractorConfig,
        Limits, RecordExtractor,
    };
    pub use rbd_heuristics::{Heuristic, HeuristicKind, Ranking};
    pub use rbd_html::tokenize;
    pub use rbd_ontology::Ontology;
    pub use rbd_pipeline::{run_batch, BatchConfig, BatchReport};
    pub use rbd_tagtree::{TagTree, TagTreeBuilder};
    pub use rbd_trace::{CollectingSink, NullSink, TraceEvent, TraceSink};
}
