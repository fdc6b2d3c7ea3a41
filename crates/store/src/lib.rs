//! # rbd-store — crash-safe persistent record store and extraction cache
//!
//! The paper's pipeline ends at "populate the database with the extracted
//! records", but `rbd-db` is in-memory only: a crawler-scale deployment
//! re-extracts everything on every run and then forgets it. This crate is
//! the durability subsystem (DESIGN.md §14):
//!
//! * **A single-file append-only log** of extraction results, as
//!   length-prefixed CRC-checksummed frames whose bodies are `rbd-json`
//!   documents; the hash→offset index is rebuilt from the doc frames on
//!   open.
//! * **Crash-safe commits**: doc frames are written and `sync_data`'d
//!   before the commit frame that makes them visible; recovery on open
//!   validates the committed prefix and truncates any torn or
//!   uncommitted tail, losing at most the one in-flight batch.
//! * **A content-hash cache**: documents are keyed by a 256-bit
//!   fingerprint of their raw bytes ([`hash::fingerprint256`], memory
//!   speed; see that module for the non-cryptographic trade-off), so
//!   re-submitting an unchanged page skips tokenize → heuristics →
//!   recognize entirely and serves the stored extraction —
//!   byte-identical to a fresh one. [`Store::hit`] layers a bounded
//!   in-memory memo of serialized responses over the log, so
//!   steady-state hits cost a hash plus a map lookup.
//! * **A relational view**: [`Store::load_database`] materializes the
//!   committed documents into the existing `rbd-db` storage API, so the
//!   query layer (and the `rbd query` CLI) runs unchanged over a durable
//!   instance.
//!
//! ## Example
//!
//! ```
//! use rbd_core::Record;
//! use rbd_store::{ContentHash, Store, StoredDoc};
//!
//! let path = std::env::temp_dir().join(format!("rbd-store-doc-{}.rbd", std::process::id()));
//! std::fs::remove_file(&path).ok();
//! let mut store = Store::open(&path).unwrap();
//! let doc = StoredDoc {
//!     hash: ContentHash::of(b"<html>...</html>"),
//!     source: Some("page.html".into()),
//!     separator: "hr".into(),
//!     subtree_tag: "td".into(),
//!     preamble: None,
//!     records: vec![Record { start: 0, end: 16, text: "one record".into() }],
//!     degraded: 0,
//! };
//! store.append_batch(std::slice::from_ref(&doc)).unwrap();
//! // A later run (or process) finds it by content hash alone.
//! let mut reopened = Store::open(&path).unwrap();
//! assert_eq!(reopened.get(&doc.hash).unwrap().as_ref(), Some(&doc));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod doc;
pub mod hash;
pub mod log;

pub use db::{database_from_docs, store_scheme, DOCS_RELATION, TEXTS_RELATION};
pub use doc::{extraction_response_json, StoredDoc};
pub use hash::{crc32, fingerprint256, ContentHash};
pub use log::{HitEntry, Store, StoreError, MAGIC, VERSION};
