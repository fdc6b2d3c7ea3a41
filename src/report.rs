//! Stable machine-readable shapes for CLI output.
//!
//! `rbd batch --json` is consumed by scripts, so its per-document entries
//! are built here — as [`Json`](rbd_json::Json) values with a tested
//! contract — instead of ad-hoc `format!` strings in the binary. The key
//! robustness property: a document that *panicked* inside the pipeline
//! produces a typed `"error"` object naming the failure kind, not a bare
//! string a consumer has to pattern-match.

use rbd_core::Extraction;
use rbd_json::Json;
use rbd_pipeline::{BatchError, CachedResult};

/// One `rbd batch --json` entry: `{"file", "records", "separator"}` on
/// success, `{"file", "error": {"kind", "message", …}}` on failure.
///
/// Error kinds are `"discovery"` (the extractor ran and failed, same as a
/// serial run) and `"panic"` (the extraction panicked; the pool isolated
/// it and the batch carried on).
pub fn batch_entry_json(file: &str, outcome: &Result<Extraction, BatchError>) -> Json {
    match outcome {
        Ok(extraction) => Json::object([
            ("file", Json::Str(file.to_string())),
            ("records", Json::UInt(extraction.records.len() as u64)),
            ("separator", Json::Str(extraction.outcome.separator.clone())),
        ]),
        Err(error) => Json::object([
            ("file", Json::Str(file.to_string())),
            ("error", batch_error_json(error)),
        ]),
    }
}

/// One `rbd batch --store --json` entry: the plain-batch shape plus a
/// `"cache"` field (`"hit"` or `"miss"`) on every entry, and — when a
/// committed store frame failed to read back — a typed `"store_error"`
/// object (`{"kind", "message"}` with kinds `"io"`, `"corrupt"`,
/// `"json"`, `"too_large"`) instead of a panic or a silent re-run.
pub fn cached_batch_entry_json(file: &str, result: &CachedResult) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![("file", Json::Str(file.to_string()))];
    match &result.outcome {
        Ok(stored) => {
            fields.push(("records", Json::UInt(stored.records.len() as u64)));
            fields.push(("separator", Json::Str(stored.separator.clone())));
        }
        Err(error) => fields.push(("error", batch_error_json(error))),
    }
    fields.push(("cache", Json::Str(result.cache.as_str().to_string())));
    if let Some(store_error) = &result.store_error {
        fields.push((
            "store_error",
            Json::object([
                ("kind", Json::Str(store_error.kind().to_string())),
                ("message", Json::Str(store_error.to_string())),
            ]),
        ));
    }
    Json::object(fields)
}

fn batch_error_json(error: &BatchError) -> Json {
    match error {
        BatchError::Discovery(e) => Json::object([
            ("kind", Json::Str("discovery".to_string())),
            ("message", Json::Str(e.to_string())),
        ]),
        BatchError::Panicked(message) => Json::object([
            ("kind", Json::Str("panic".to_string())),
            ("message", Json::Str(message.clone())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicked_doc_serializes_as_typed_error() {
        let outcome: Result<Extraction, BatchError> =
            Err(BatchError::Panicked("index out of bounds".to_string()));
        let entry = batch_entry_json("docs/a.html", &outcome);
        assert_eq!(
            entry.to_string(),
            r#"{"file":"docs/a.html","error":{"kind":"panic","message":"index out of bounds"}}"#
        );
    }

    #[test]
    fn cached_entry_carries_cache_field_and_typed_store_error() {
        use rbd_core::Record;
        use rbd_pipeline::CacheStatus;
        use rbd_store::{ContentHash, StoreError, StoredDoc};
        let hash = ContentHash::of(b"<html>doc</html>");
        let stored = StoredDoc {
            hash,
            source: Some("a.html".to_string()),
            separator: "hr".to_string(),
            subtree_tag: "td".to_string(),
            preamble: None,
            records: vec![Record {
                start: 0,
                end: 4,
                text: "text".to_string(),
            }],
            degraded: 0,
        };
        let result = CachedResult {
            doc_id: 0,
            hash,
            cache: CacheStatus::Hit,
            outcome: Ok(stored),
            store_error: None,
        };
        let entry = cached_batch_entry_json("a.html", &result);
        assert_eq!(
            entry.to_string(),
            r#"{"file":"a.html","records":1,"separator":"hr","cache":"hit"}"#
        );

        let degraded = CachedResult {
            doc_id: 1,
            hash,
            cache: CacheStatus::Miss,
            outcome: Err(BatchError::Panicked("boom".to_string())),
            store_error: Some(StoreError::Corrupt {
                offset: 12,
                reason: "checksum mismatch".to_string(),
            }),
        };
        let entry = cached_batch_entry_json("b.html", &degraded);
        assert_eq!(
            entry.get("cache"),
            Some(&Json::Str("miss".into())),
            "{entry}"
        );
        assert_eq!(
            entry.get("store_error").and_then(|e| e.get("kind")),
            Some(&Json::Str("corrupt".into())),
            "{entry}"
        );
        assert_eq!(
            entry.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("panic".into())),
            "{entry}"
        );
    }

    #[test]
    fn discovery_error_keeps_the_serial_message() {
        let outcome: Result<Extraction, BatchError> = Err(BatchError::Discovery(
            rbd_core::DiscoveryError::EmptyDocument,
        ));
        let entry = batch_entry_json("c.html", &outcome);
        assert_eq!(
            entry.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("discovery".into()))
        );
        assert_eq!(
            entry.get("error").and_then(|e| e.get("message")),
            Some(&Json::Str("document contains no tags".into()))
        );
    }
}
