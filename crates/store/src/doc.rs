//! The persisted unit: one document's extraction, serialized via
//! `rbd-json` into a log frame.

use crate::hash::ContentHash;
use rbd_core::{Extraction, Record};
use rbd_json::{Json, ParseError};

/// One extracted record as persisted: byte offsets into the source
/// document plus the flattened text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Byte offset where the record starts in the source document.
    pub start: u64,
    /// Byte offset one past the record's end.
    pub end: u64,
    /// The record's flattened text.
    pub text: String,
}

impl StoredRecord {
    fn of(record: &Record) -> Self {
        StoredRecord {
            start: record.start as u64,
            end: record.end as u64,
            text: record.text.clone(),
        }
    }

    fn to_json(&self) -> Json {
        record_json(self.start, self.end, &self.text)
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(StoredRecord {
            start: as_u64(json.get("start")?)?,
            end: as_u64(json.get("end")?)?,
            text: json.get("text")?.as_str()?.to_owned(),
        })
    }
}

/// One record as `{start, end, text}` — the shape shared by the response
/// body and the persisted frame.
fn record_json(start: u64, end: u64, text: &str) -> Json {
    Json::object([
        ("start", Json::UInt(start)),
        ("end", Json::UInt(end)),
        ("text", Json::Str(text.to_owned())),
    ])
}

/// The canonical extraction-response object:
/// `{separator, preamble, records, degraded}`.
fn response_json(
    separator: &str,
    preamble: bool,
    records: impl IntoIterator<Item = Json>,
    degraded: u64,
) -> Json {
    Json::object([
        ("separator", Json::Str(separator.to_owned())),
        ("preamble", Json::Bool(preamble)),
        ("records", Json::array(records)),
        ("degraded", Json::UInt(degraded)),
    ])
}

/// The extraction-response JSON of a fresh extraction — the `200 OK` body
/// of `rbd serve`'s `/extract`, and the comparison key that serial,
/// batched, served and cached results must match byte for byte. A stored
/// document's [`StoredDoc::response_json`] is built by the same encoder,
/// so a cache hit is byte-identical to a cache miss.
#[must_use]
pub fn extraction_response_json(ex: &Extraction) -> Json {
    response_json(
        &ex.outcome.separator,
        ex.preamble.is_some(),
        ex.records
            .iter()
            .map(|r| record_json(r.start as u64, r.end as u64, &r.text)),
        ex.degradation.len() as u64,
    )
}

/// Non-negative integer view of a JSON number (`rbd-json` parses unsigned
/// literals as either `Int` or `UInt` depending on magnitude).
fn as_u64(json: &Json) -> Option<u64> {
    match json {
        Json::UInt(n) => Some(*n),
        Json::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// One document's persisted extraction: the cache value keyed by the
/// document's [`ContentHash`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    /// SHA-256 of the source document's raw bytes — the cache key.
    pub hash: ContentHash,
    /// Where the document came from (a file path for `rbd batch`, `None`
    /// for bodies posted to `rbd serve`).
    pub source: Option<String>,
    /// The discovered record-separator tag.
    pub separator: String,
    /// Tag of the record-bearing subtree.
    pub subtree_tag: String,
    /// The preamble chunk before the first record, if any.
    pub preamble: Option<StoredRecord>,
    /// The extracted records in document order.
    pub records: Vec<StoredRecord>,
    /// Number of degradation events the extraction reported.
    pub degraded: u64,
}

impl StoredDoc {
    /// Captures an extraction for persistence.
    #[must_use]
    pub fn from_extraction(hash: ContentHash, source: Option<&str>, ex: &Extraction) -> Self {
        StoredDoc {
            hash,
            source: source.map(str::to_owned),
            separator: ex.outcome.separator.clone(),
            subtree_tag: ex.outcome.subtree_tag.clone(),
            preamble: ex.preamble.as_ref().map(StoredRecord::of),
            records: ex.records.iter().map(StoredRecord::of).collect(),
            degraded: ex.degradation.len() as u64,
        }
    }

    /// The canonical extraction-response JSON — built by the same encoder
    /// as [`extraction_response_json`], so a cache hit is byte-identical to
    /// a cache miss.
    #[must_use]
    pub fn response_json(&self) -> Json {
        response_json(
            &self.separator,
            self.preamble.is_some(),
            self.records.iter().map(StoredRecord::to_json),
            self.degraded,
        )
    }

    /// Serializes the frame body (everything but the hash, which lives in
    /// the binary frame header).
    #[must_use]
    pub fn body_json(&self) -> Json {
        Json::object([
            (
                "source",
                match &self.source {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            ("separator", Json::Str(self.separator.clone())),
            ("subtree_tag", Json::Str(self.subtree_tag.clone())),
            (
                "preamble",
                match &self.preamble {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "records",
                Json::array(self.records.iter().map(StoredRecord::to_json)),
            ),
            ("degraded", Json::UInt(self.degraded)),
        ])
    }

    /// Parses a frame body serialized by [`StoredDoc::body_json`].
    ///
    /// # Errors
    ///
    /// `Err` with a description when the body is not valid JSON or is
    /// missing a required member.
    pub fn parse_body(hash: ContentHash, body: &str) -> Result<Self, String> {
        let json = Json::parse(body).map_err(|e: ParseError| e.to_string())?;
        let field = |name: &str| -> Result<&Json, String> {
            json.get(name)
                .ok_or_else(|| format!("doc body missing `{name}`"))
        };
        let records = field("records")?
            .as_array()
            .ok_or("`records` is not an array")?
            .iter()
            .map(|r| StoredRecord::from_json(r).ok_or("malformed record entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let preamble = match field("preamble")? {
            Json::Null => None,
            other => Some(StoredRecord::from_json(other).ok_or("malformed preamble")?),
        };
        Ok(StoredDoc {
            hash,
            source: field("source")?.as_str().map(str::to_owned),
            separator: field("separator")?
                .as_str()
                .ok_or("`separator` is not a string")?
                .to_owned(),
            subtree_tag: field("subtree_tag")?
                .as_str()
                .ok_or("`subtree_tag` is not a string")?
                .to_owned(),
            preamble,
            records,
            degraded: as_u64(field("degraded")?).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoredDoc {
        StoredDoc {
            hash: ContentHash::of(b"doc"),
            source: Some("docs/a.html".to_owned()),
            separator: "hr".to_owned(),
            subtree_tag: "td".to_owned(),
            preamble: Some(StoredRecord {
                start: 0,
                end: 10,
                text: "Obituaries".to_owned(),
            }),
            records: vec![
                StoredRecord {
                    start: 10,
                    end: 90,
                    text: "Ann Smith died".to_owned(),
                },
                StoredRecord {
                    start: 90,
                    end: 170,
                    text: "Bob Jones died".to_owned(),
                },
            ],
            degraded: 1,
        }
    }

    #[test]
    fn body_round_trips() {
        let doc = sample();
        let body = doc.body_json().to_compact();
        let parsed = StoredDoc::parse_body(doc.hash, &body).expect("round trip");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn body_without_source_round_trips() {
        let doc = StoredDoc {
            source: None,
            preamble: None,
            ..sample()
        };
        let body = doc.body_json().to_compact();
        let parsed = StoredDoc::parse_body(doc.hash, &body).expect("round trip");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_body_reports_garbage() {
        let err = StoredDoc::parse_body(ContentHash::of(b"x"), "{not json").unwrap_err();
        assert!(!err.is_empty());
        let err = StoredDoc::parse_body(ContentHash::of(b"x"), "{}").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn response_json_shape_matches_the_serve_contract() {
        let doc = sample();
        let body = doc.response_json().to_compact();
        assert!(body.starts_with("{\"separator\":\"hr\",\"preamble\":true,\"records\":["));
        assert!(body.ends_with(",\"degraded\":1}"));
        assert!(body.contains("{\"start\":10,\"end\":90,\"text\":\"Ann Smith died\"}"));
    }
}
