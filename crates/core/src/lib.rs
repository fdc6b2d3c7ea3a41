//! # rbd-core — the Record Extractor
//!
//! This crate implements the paper's *Record-Boundary Discovery Algorithm*
//! (§5.3) end to end and the Record Extractor component of its Figure 1
//! architecture:
//!
//! 1. build the tag tree (Appendix A, via `rbd-tagtree`);
//! 2. locate the highest-fan-out subtree;
//! 3. extract the candidate separator tags;
//! 4. run the five heuristics (via `rbd-heuristics`) — or short-circuit
//!    when only one candidate exists (§3);
//! 5. combine them with Stanford certainty theory (via `rbd-certainty`);
//! 6. choose the consensus separator, and
//! 7. chunk the document into records at the separator's positions,
//!    cleaning markup from each chunk.
//!
//! ## Example
//!
//! ```
//! use rbd_core::{ExtractorConfig, RecordExtractor};
//! use rbd_ontology::domains;
//!
//! let html = "<html><body><table><tr><td>\
//!   <hr><b>Ann Smith</b><br> died on May 1, 1998; funeral at 10:00 a.m. \
//!   <hr><b>Bob Jones</b><br> died on May 2, 1998; funeral at 11:00 a.m. \
//!   <hr><b>Cal Young</b><br> died on May 3, 1998; funeral at 12:00 p.m. \
//!   <hr></td></tr></table></body></html>";
//!
//! let extractor = RecordExtractor::new(
//!     ExtractorConfig::default().with_ontology(domains::obituaries()),
//! ).unwrap();
//! let extraction = extractor.extract_records(html).unwrap();
//! assert_eq!(extraction.outcome.separator, "hr");
//! assert_eq!(extraction.records.len(), 3);
//! assert!(extraction.records[1].text.contains("Bob Jones"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assumptions;
pub mod chunk;
pub mod config;
pub mod extractor;
pub mod integrated;
pub mod limits;

pub use assumptions::{AssumptionReport, DocumentClass};
pub use chunk::{chunk_at_separators, Record};
pub use config::ExtractorConfig;
pub use extractor::{DiscoveryError, DiscoveryOutcome, Extraction, RecordExtractor};
pub use integrated::IntegratedExtraction;
pub use limits::{Deadline, DegradationEvent, DegradationStage, LimitExceeded, LimitKind, Limits};
