//! Bench-side spans: each call into a layer is wrapped in a span with a
//! name, start, end, parent span and the id of the document or request
//! it served. Spans stay in memory until the run ends; self times are
//! derived from them and they are written out as a Chrome trace-event
//! file (loadable in Perfetto).

use rbd_json::Json;
use std::collections::HashMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    /// The document or request the span served.
    pub item: u64,
    /// Which worker thread recorded it.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span collector; ids carry the lane in their high bits so
/// spans from different threads never collide.
pub struct Recorder {
    epoch: Instant,
    lane: u32,
    seq: u64,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Recorder {
            epoch,
            lane,
            seq: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span whose children need its id before it ends.
    pub fn open(&mut self) -> Open {
        self.seq += 1;
        Open {
            id: (u64::from(self.lane) << 40) | self.seq,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span begun with [`Recorder::open`].
    pub fn close(&mut self, open: Open, name: &'static str, parent: Option<u64>, item: u64) {
        let end_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            id: open.id,
            parent,
            item,
            lane: self.lane,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, item);
        out
    }
}

/// Per-name totals of self time (a span's duration minus the part its
/// children cover; children of one parent never overlap here, since each
/// parent's children run one after another on its own thread).
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    /// name → (self nanoseconds, span count)
    pub by_name: HashMap<&'static str, (f64, u64)>,
}

impl SelfTimes {
    /// Adds `spans`' self times, each scaled by `scale` (the calibrated
    /// clock's factor for the pass that recorded them).
    pub fn add(&mut self, spans: &[SpanRec], scale: f64) {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if let Some(parent) = s.parent {
                *child_ns.entry(parent).or_default() += s.duration_ns();
            }
        }
        for s in spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = s.duration_ns().saturating_sub(covered) as f64 * scale;
            let entry = self.by_name.entry(s.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
    }

    /// Total self time of `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |&(ns, _)| ns)
    }

    /// Mean self time per span of `name`, in microseconds (0 when the
    /// layer never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(ns, count)) if count > 0 => ns / count as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Self time of `name` per `per` items, in microseconds.
    pub fn per_item_us(&self, name: &str, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.total_ns(name) / per as f64 / 1e3
        }
    }
}

/// Writes `spans` as Chrome trace-event JSON (`ph: "X"`, one thread lane
/// per recorder).
pub fn write_chrome(path: &std::path::Path, spans: &[SpanRec]) -> Result<(), String> {
    let events = Json::array(spans.iter().map(|s| {
        Json::object([
            ("name", Json::Str(s.name.to_owned())),
            ("ph", Json::Str("X".to_owned())),
            ("ts", Json::Float(s.start_ns as f64 / 1e3)),
            ("dur", Json::Float(s.duration_ns() as f64 / 1e3)),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(u64::from(s.lane))),
            (
                "args",
                Json::object([
                    ("item", Json::UInt(s.item)),
                    ("id", Json::UInt(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::UInt)),
                ]),
            ),
        ])
    }));
    let doc = Json::object([("traceEvents", events)]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // Synced, so that its write-back cannot land in a later run's
    // measurement.
    std::fs::write(path, doc.to_compact())
        .and_then(|()| std::fs::File::open(path)?.sync_all())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRec {
                name: "doc",
                id: 1,
                parent: None,
                item: 0,
                lane: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRec {
                name: "a",
                id: 2,
                parent: Some(1),
                item: 0,
                lane: 0,
                start_ns: 10,
                end_ns: 40,
            },
            SpanRec {
                name: "b",
                id: 3,
                parent: Some(1),
                item: 0,
                lane: 0,
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let mut t = SelfTimes::default();
        t.add(&spans, 1.0);
        assert_eq!(t.total_ns("doc"), 30.0);
        assert_eq!(t.total_ns("a"), 30.0);
        assert_eq!(t.mean_us("b"), 0.04);
    }
}
