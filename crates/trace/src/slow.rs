//! Slow-request capture: the full span tree and decision-audit events of a
//! latency outlier, as one structured-log line.
//!
//! A [`SlowCapture`] is one request over the server's latency threshold,
//! with everything it traced. The server writes each as one JSON line to
//! `slow.jsonl` under its trace directory, so a week-long process stays
//! debuggable after the fact without holding captures in memory.

use crate::event::events_to_json;
use crate::span::SpanRecord;
use crate::{TraceEvent, TraceId};
use rbd_json::Json;

/// One captured slow request.
#[derive(Debug, Clone)]
pub struct SlowCapture {
    /// The request's trace id.
    pub trace: TraceId,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The HTTP status the request resolved to.
    pub status: u16,
    /// The request's full span tree.
    pub spans: Vec<SpanRecord>,
    /// The decision-audit events the request emitted.
    pub events: Vec<TraceEvent>,
}

impl SlowCapture {
    /// `{"trace", "latency_ns", "status", "spans", "events"}` — one
    /// structured-log line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("trace", Json::Str(self.trace.to_hex())),
            ("latency_ns", Json::UInt(self.latency_ns)),
            ("status", Json::UInt(u64::from(self.status))),
            (
                "spans",
                Json::Array(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
            ("events", events_to_json(&self.events)),
        ])
    }
}
