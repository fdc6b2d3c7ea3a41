//! The persisted unit: one document's extraction, serialized via
//! `rbd-json` into a log frame.

use crate::hash::ContentHash;
use rbd_core::{Extraction, Record};
use rbd_json::{Json, ParseError};

/// One record as `{start, end, text}` — the only place this shape is
/// built, shared by the response body and the persisted frame.
fn record_json(record: &Record) -> Json {
    Json::object([
        ("start", Json::UInt(record.start as u64)),
        ("end", Json::UInt(record.end as u64)),
        ("text", Json::Str(record.text.clone())),
    ])
}

/// Parses a `{start, end, text}` entry written by [`record_json`]. An
/// offset that is negative, not an integer or beyond `usize` makes the
/// entry malformed.
fn record_from_json(json: &Json) -> Option<Record> {
    let offset = |name: &str| usize::try_from(as_u64(json.get(name)?)?).ok();
    Some(Record {
        start: offset("start")?,
        end: offset("end")?,
        text: json.get("text")?.as_str()?.to_owned(),
    })
}

/// The canonical extraction-response object:
/// `{separator, preamble, records, degraded}`.
fn response_json(separator: &str, preamble: bool, records: &[Record], degraded: u64) -> Json {
    Json::object([
        ("separator", Json::Str(separator.to_owned())),
        ("preamble", Json::Bool(preamble)),
        ("records", Json::array(records.iter().map(record_json))),
        ("degraded", Json::UInt(degraded)),
    ])
}

/// The extraction-response JSON of a fresh extraction — the `200 OK` body
/// of `rbd serve`'s `/extract`, the output of `rbd extract --json`, and
/// the comparison key that serial, batched, served and cached results
/// must match byte for byte. A stored document's
/// [`StoredDoc::response_json`] is built by the same encoder, so a cache
/// hit is byte-identical to a cache miss.
#[must_use]
pub fn extraction_response_json(ex: &Extraction) -> Json {
    response_json(
        &ex.outcome.separator,
        ex.preamble.is_some(),
        &ex.records,
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
    /// The 256-bit fingerprint of the source document's raw bytes — the
    /// cache key.
    pub hash: ContentHash,
    /// Where the document came from (a file path for `rbd batch`, `None`
    /// for bodies posted to `rbd serve`).
    pub source: Option<String>,
    /// The discovered record-separator tag.
    pub separator: String,
    /// Tag of the record-bearing subtree.
    pub subtree_tag: String,
    /// The preamble chunk before the first record, if any.
    pub preamble: Option<Record>,
    /// The extracted records in document order.
    pub records: Vec<Record>,
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
            preamble: ex.preamble.clone(),
            records: ex.records.clone(),
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
            &self.records,
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
                self.preamble.as_ref().map_or(Json::Null, record_json),
            ),
            ("records", Json::array(self.records.iter().map(record_json))),
            ("degraded", Json::UInt(self.degraded)),
        ])
    }

    /// Parses a frame body serialized by [`StoredDoc::body_json`].
    ///
    /// # Errors
    ///
    /// `Err` with a description when the body is not valid JSON, is
    /// missing a required member, or holds a malformed one.
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
            .map(|r| record_from_json(r).ok_or("malformed record entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let preamble = match field("preamble")? {
            Json::Null => None,
            other => Some(record_from_json(other).ok_or("malformed preamble")?),
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
            degraded: as_u64(field("degraded")?).ok_or("malformed `degraded` count")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_prop::{check, gen, prop_assert_eq, Gen};

    fn record(start: usize, end: usize, text: &str) -> Record {
        Record {
            text: text.to_owned(),
            start,
            end,
        }
    }

    fn sample() -> StoredDoc {
        StoredDoc {
            hash: ContentHash::of(b"doc"),
            source: Some("docs/a.html".to_owned()),
            separator: "hr".to_owned(),
            subtree_tag: "td".to_owned(),
            preamble: Some(record(0, 10, "Obituaries")),
            records: vec![
                record(10, 90, "Ann Smith died"),
                record(90, 170, "Bob Jones died"),
            ],
            degraded: 1,
        }
    }

    /// Record text over the characters an escaper can get wrong: quotes,
    /// backslashes, every char below U+0020, non-ASCII and U+2028; offsets
    /// both small and past `u32::MAX`.
    fn arb_record() -> Gen<Record> {
        let mut alphabet: String = (0u8..0x20).map(char::from).collect();
        alphabet.push_str("\"\\aZ 9\u{7f}é€😀\u{2028}\u{2029}");
        let wide = usize::try_from(u32::MAX).expect("64-bit usize");
        let offset = Gen::one_of(vec![
            gen::int_in(0usize..=4096),
            gen::int_in(wide - 4..=wide + 4),
        ]);
        gen::zip3(offset.clone(), offset, gen::string_from(&alphabet, 0..=24))
            .map(|(start, end, text)| Record { text, start, end })
    }

    fn arb_doc() -> Gen<StoredDoc> {
        let source = Gen::one_of(vec![
            Gen::just(None),
            gen::string_from("a/\"\u{1}é.html", 0..=8).map(Some),
        ]);
        gen::zip3(
            Gen::vec(arb_record(), 0..=6),
            Gen::vec(arb_record(), 0..=1),
            source.zip(gen::int_in(0u64..=3)),
        )
        .map(|(records, mut preamble, (source, degraded))| StoredDoc {
            hash: ContentHash::of(b"doc"),
            source,
            separator: "hr".to_owned(),
            subtree_tag: "td".to_owned(),
            preamble: preamble.pop(),
            records,
            degraded,
        })
    }

    /// A frame body parses back to the same document, and the response
    /// object parses back to the same records.
    #[test]
    fn body_round_trips() {
        check("body_round_trips", &arb_doc(), |doc: &StoredDoc| {
            let body = doc.body_json().to_compact();
            let parsed = StoredDoc::parse_body(doc.hash, &body)?;
            prop_assert_eq!(&parsed, doc);

            let response =
                Json::parse(&doc.response_json().to_compact()).map_err(|e| e.to_string())?;
            let records = response
                .get("records")
                .and_then(Json::as_array)
                .ok_or("response has no records array")?
                .iter()
                .map(|r| record_from_json(r).ok_or("malformed response record"))
                .collect::<Result<Vec<_>, _>>()?;
            prop_assert_eq!(&records, &doc.records);
            prop_assert_eq!(
                response.get("preamble"),
                Some(&Json::Bool(doc.preamble.is_some()))
            );
            Ok(())
        });
    }

    #[test]
    fn parse_body_reports_garbage() {
        let err = StoredDoc::parse_body(ContentHash::of(b"x"), "{not json").unwrap_err();
        assert!(!err.is_empty());
        let err = StoredDoc::parse_body(ContentHash::of(b"x"), "{}").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    /// An offset or a degradation count that is negative or not a number
    /// is a malformed frame, never a wrapped cast or a silent 0.
    #[test]
    fn parse_body_rejects_bad_offsets() {
        let body = sample().body_json().to_compact();
        let good = "{\"start\":10,\"end\":90,";
        assert!(body.contains(good));
        for bad in [
            "{\"start\":-10,\"end\":90,",
            "{\"start\":\"10\",\"end\":90,",
            "{\"start\":10.5,\"end\":90,",
            "{\"start\":null,\"end\":90,",
        ] {
            let err = StoredDoc::parse_body(ContentHash::of(b"x"), &body.replacen(good, bad, 1))
                .unwrap_err();
            assert!(err.contains("malformed record"), "{bad}: {err}");
        }
        let bad_preamble = body.replacen("{\"start\":0,", "{\"start\":-1,", 1);
        let err = StoredDoc::parse_body(ContentHash::of(b"x"), &bad_preamble).unwrap_err();
        assert!(err.contains("malformed preamble"), "{err}");
        let good = "\"degraded\":1";
        assert!(body.contains(good));
        for bad in ["-1", "\"x\"", "1.5", "null"] {
            let body = body.replacen(good, &format!("\"degraded\":{bad}"), 1);
            let err = StoredDoc::parse_body(ContentHash::of(b"x"), &body).unwrap_err();
            assert!(err.contains("malformed `degraded`"), "{bad}: {err}");
        }
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
