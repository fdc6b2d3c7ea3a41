//! Loading a store into the `rbd-db` relational layer.
//!
//! The store's query surface is a synthetic two-relation scheme — one row
//! per document plus one row per extracted record — built with the same
//! [`rbd_ontology::Scheme`] machinery the ontology-generated schemes use,
//! so `rbd_db::query` (filters, ordering, joins, grouped counts) runs
//! unchanged over a durable instance.

use crate::doc::StoredDoc;
use crate::log::{Store, StoreError};
use rbd_db::Database;
use rbd_ontology::{Column, Relation, Scheme};

/// Name of the per-document relation.
pub const DOCS_RELATION: &str = "records";
/// Name of the per-record satellite relation.
pub const TEXTS_RELATION: &str = "record_texts";

fn column(name: &str, nullable: bool) -> Column {
    Column {
        name: name.to_owned(),
        nullable,
    }
}

/// The synthetic relational scheme a store exposes.
#[must_use]
pub fn store_scheme() -> Scheme {
    Scheme {
        ontology: "rbd-store".to_owned(),
        entity_relation: DOCS_RELATION.to_owned(),
        relations: vec![
            Relation {
                name: DOCS_RELATION.to_owned(),
                columns: vec![
                    column("record_id", false),
                    column("doc_hash", false),
                    column("source", true),
                    column("separator", false),
                    column("subtree_tag", false),
                    column("record_count", false),
                    column("degraded", false),
                ],
                key_len: 1,
            },
            Relation {
                name: TEXTS_RELATION.to_owned(),
                columns: vec![
                    column("record_id", false),
                    column("ordinal", false),
                    column("start", false),
                    column("end", false),
                    column("text", false),
                ],
                key_len: 2,
            },
        ],
    }
}

/// Materializes `docs` (in the given order) into a queryable database.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if a row violates the synthetic scheme's
/// constraints — impossible for documents produced by this crate, so it
/// indicates a corrupted load.
pub fn database_from_docs(docs: &[StoredDoc]) -> Result<Database, StoreError> {
    let mut db = Database::new(store_scheme());
    for (i, doc) in docs.iter().enumerate() {
        let id = i.to_string();
        db.insert(
            DOCS_RELATION,
            vec![
                Some(id.clone()),
                Some(doc.hash.to_hex()),
                doc.source.clone(),
                Some(doc.separator.clone()),
                Some(doc.subtree_tag.clone()),
                Some(doc.records.len().to_string()),
                Some(doc.degraded.to_string()),
            ],
        )
        .map_err(|e| StoreError::Corrupt {
            offset: 0,
            reason: format!("loading document {i}: {e}"),
        })?;
        for (ordinal, record) in doc.records.iter().enumerate() {
            db.insert(
                TEXTS_RELATION,
                vec![
                    Some(id.clone()),
                    Some(ordinal.to_string()),
                    Some(record.start.to_string()),
                    Some(record.end.to_string()),
                    Some(record.text.clone()),
                ],
            )
            .map_err(|e| StoreError::Corrupt {
                offset: 0,
                reason: format!("loading record {ordinal} of document {i}: {e}"),
            })?;
        }
    }
    Ok(db)
}

impl Store {
    /// Loads every committed document into an in-memory [`Database`] over
    /// the synthetic store scheme.
    ///
    /// # Errors
    ///
    /// As for [`Store::load_all`].
    pub fn load_database(&mut self) -> Result<Database, StoreError> {
        let docs = self.load_all()?;
        database_from_docs(&docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::ContentHash;
    use rbd_core::Record;
    use rbd_db::{join, Predicate};

    fn docs() -> Vec<StoredDoc> {
        vec![
            StoredDoc {
                hash: ContentHash::of(b"first"),
                source: Some("a.html".to_owned()),
                separator: "hr".to_owned(),
                subtree_tag: "td".to_owned(),
                preamble: None,
                records: vec![
                    Record {
                        start: 0,
                        end: 5,
                        text: "Ann".to_owned(),
                    },
                    Record {
                        start: 5,
                        end: 9,
                        text: "Bob".to_owned(),
                    },
                ],
                degraded: 0,
            },
            StoredDoc {
                hash: ContentHash::of(b"second"),
                source: None,
                separator: "li".to_owned(),
                subtree_tag: "ul".to_owned(),
                preamble: None,
                records: vec![Record {
                    start: 0,
                    end: 3,
                    text: "Cy".to_owned(),
                }],
                degraded: 2,
            },
        ]
    }

    #[test]
    fn documents_and_records_materialize() {
        let db = database_from_docs(&docs()).expect("load");
        let recs = db.table(DOCS_RELATION).expect("records table");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs.get(0, "separator"), Some("hr"));
        assert_eq!(recs.get(1, "source"), None);
        let texts = db.table(TEXTS_RELATION).expect("texts table");
        assert_eq!(texts.len(), 3);
        assert_eq!(db.total_rows(), 5);
    }

    #[test]
    fn the_query_layer_runs_unchanged() {
        let db = database_from_docs(&docs()).expect("load");
        let recs = db.table(DOCS_RELATION).expect("records table");
        assert_eq!(recs.query().eq("separator", "hr").count(), 1);
        assert_eq!(
            recs.query()
                .filter("record_count", Predicate::NumGt(1.0))
                .count(),
            1
        );
        let texts = db.table(TEXTS_RELATION).expect("texts table");
        let joined = join(recs, "record_id", texts, "record_id");
        assert_eq!(joined.len(), 3);
    }

    #[test]
    fn round_trip_through_a_real_store() {
        let path = std::env::temp_dir().join(format!("rbd-store-db-{}.rbd", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut store = Store::open(&path).expect("create");
        store.append_batch(&docs()).expect("commit");
        let db = store.load_database().expect("load");
        assert_eq!(db.table(DOCS_RELATION).expect("table").len(), 2);
        assert_eq!(db.scheme().entity_relation, DOCS_RELATION);
    }
}
