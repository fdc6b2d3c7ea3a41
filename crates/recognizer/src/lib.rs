//! # rbd-recognizer — the Constant/Keyword Recognizer
//!
//! Implements the recognizer component of the paper's Figure 1: it runs the
//! ontology-derived matching rules over plain record text and produces the
//! **Data-Record Table** — rows of `(descriptor, string, position)` ordered
//! by position, exactly the structure the paper describes. The table is the
//! interface between raw text and database population, and its
//! position-ordering is what lets the OM heuristic piggyback on recognition
//! at no extra cost (§4.5: partitioning the table at separator positions
//! yields per-record entry sets).
//!
//! Each rule's matches come from its own
//! [`Pattern::find_iter`](rbd_pattern::Pattern::find_iter), on the Pike VM
//! of `rbd-pattern`.
//!
//! ## Example
//!
//! ```
//! use rbd_ontology::domains;
//! use rbd_recognizer::Recognizer;
//!
//! let rec = Recognizer::new(&domains::obituaries()).unwrap();
//! let table = rec.recognize("Ann B. Smith died on May 1, 1998, age 90.");
//! let descriptors: Vec<&str> = table.entries().iter().map(|e| e.descriptor.as_str()).collect();
//! assert!(descriptors.contains(&"DeathDate"));
//! assert!(descriptors.contains(&"DeceasedName"));
//! assert!(descriptors.contains(&"Age"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rbd_limits::{Deadline, LimitExceeded};
use rbd_ontology::{MatchKind, MatchingRules, Ontology};
use rbd_pattern::PatternError;
use std::fmt;

/// One row of the Data-Record Table: `(descriptor, string, position)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// The object set the match belongs to (the paper's *descriptor*).
    pub descriptor: String,
    /// Keyword or constant match.
    pub kind: MatchKind,
    /// The matched string.
    pub value: String,
    /// Byte offset of the match in the recognized text.
    pub position: usize,
}

/// The Data-Record Table: recognizer output ordered by position.
#[derive(Debug, Clone, Default)]
pub struct DataRecordTable {
    entries: Vec<TableEntry>,
}

impl DataRecordTable {
    /// Builds a table from entries, restoring the canonical order.
    pub fn from_entries(mut entries: Vec<TableEntry>) -> Self {
        entries.sort_by(|a, b| {
            a.position
                .cmp(&b.position)
                .then_with(|| kind_order(a.kind).cmp(&kind_order(b.kind)))
                .then_with(|| a.descriptor.cmp(&b.descriptor))
        });
        DataRecordTable { entries }
    }

    /// The entries, ascending by position (ties: constants after keywords,
    /// then descriptor order — deterministic).
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was recognized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries belonging to one object set.
    pub fn for_descriptor<'a>(
        &'a self,
        descriptor: &'a str,
    ) -> impl Iterator<Item = &'a TableEntry> {
        self.entries
            .iter()
            .filter(move |e| e.descriptor == descriptor)
    }

    /// Partitions the table at the given ascending cut positions — the
    /// paper's "use the position of the separator tags … to partition the
    /// Data-Record Table into sets of entries in one-to-one correspondence
    /// with the records". Entries before the first cut form partition 0
    /// (the preamble); each cut starts a new partition.
    pub fn partition(&self, cuts: &[usize]) -> Vec<Vec<&TableEntry>> {
        debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must ascend");
        let mut parts: Vec<Vec<&TableEntry>> = vec![Vec::new(); cuts.len() + 1];
        for e in &self.entries {
            let idx = cuts.partition_point(|&c| c <= e.position);
            parts[idx].push(e);
        }
        parts
    }
}

impl fmt::Display for DataRecordTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<18} {:<9} {:>6}  value", "descriptor", "kind", "pos")?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<18} {:<9} {:>6}  {}",
                e.descriptor,
                match e.kind {
                    MatchKind::Keyword => "keyword",
                    MatchKind::Constant => "constant",
                },
                e.position,
                e.value
            )?;
        }
        Ok(())
    }
}

/// The Constant/Keyword Recognizer, bound to one ontology's rules.
///
/// Each rule runs its own [`Pattern::find_iter`](rbd_pattern::Pattern::find_iter);
/// the Pike VM behind it skips the characters a rule cannot begin with, so
/// a rule costs little where the text holds nothing it could match.
#[derive(Debug, Clone)]
pub struct Recognizer {
    rules: MatchingRules,
}

impl Recognizer {
    /// Compiles `ontology`'s matching rules.
    pub fn new(ontology: &Ontology) -> Result<Self, PatternError> {
        Ok(Recognizer {
            rules: ontology.matching_rules()?,
        })
    }

    /// The underlying rules.
    pub fn rules(&self) -> &MatchingRules {
        &self.rules
    }

    /// Runs every rule over `text` and assembles the Data-Record Table.
    pub fn recognize(&self, text: &str) -> DataRecordTable {
        let mut entries = Vec::new();
        for rule in self.rules.rules() {
            for m in rule.pattern.find_iter(text) {
                entries.push(TableEntry {
                    descriptor: rule.object_set.clone(),
                    kind: rule.kind,
                    value: m.as_str(text).to_owned(),
                    position: m.start,
                });
            }
        }
        DataRecordTable::from_entries(entries)
    }

    /// Governed form of [`Recognizer::recognize`], reporting to `sink`.
    ///
    /// Recognition is the recognizer's unit of work: the deadline is checked
    /// *before* it (an expired budget skips every rule and yields an empty
    /// table), never between rules, so a table is never missing one rule's
    /// matches; `max_text_bytes` caps how much text the rules scan (cut at
    /// a character boundary). Either degradation is reported in the
    /// result, never silent; the caller decides how to trace it.
    ///
    /// Recognition is timed as a `"recognize"` span and — when the sink is
    /// enabled — a [`Recognized`](rbd_trace::TraceEvent::Recognized) event
    /// records how many text bytes were actually scanned and how many
    /// table entries came out.
    pub fn recognize_governed(
        &self,
        text: &str,
        max_text_bytes: Option<usize>,
        deadline: &Deadline,
        sink: &dyn rbd_trace::TraceSink,
    ) -> GovernedRecognition {
        let span = rbd_trace::Span::start_if("recognize", sink);
        let governed = if deadline.is_expired() {
            GovernedRecognition {
                table: DataRecordTable::default(),
                truncation: None,
                skipped: Some(deadline.exceeded()),
            }
        } else {
            let (scanned, truncation) = match max_text_bytes {
                Some(cap) => rbd_limits::truncate_at_char_boundary(text, cap),
                None => (text, None),
            };
            GovernedRecognition {
                table: self.recognize(scanned),
                truncation,
                skipped: None,
            }
        };
        if let Some(span) = span {
            span.finish(sink);
        }
        if sink.enabled() {
            let scanned = match &governed.truncation {
                Some(t) => t.cap.min(text.len()),
                None if governed.skipped.is_some() => 0,
                None => text.len(),
            };
            sink.event(rbd_trace::TraceEvent::Recognized {
                text_bytes: scanned,
                entries: governed.table.len(),
            });
        }
        governed
    }
}

/// The outcome of a governed recognition pass: the (possibly partial)
/// Data-Record Table plus typed notices for whatever was not scanned.
#[derive(Debug, Clone, Default)]
pub struct GovernedRecognition {
    /// Entries recognized in the scanned portion of the text.
    pub table: DataRecordTable,
    /// Set when the text cap cut the scan short ([`rbd_limits::LimitKind::TextBytes`]):
    /// the table covers only the prefix.
    pub truncation: Option<LimitExceeded>,
    /// Set when the deadline had already expired and the scan was skipped
    /// entirely ([`rbd_limits::LimitKind::WallClock`]): the table is empty.
    pub skipped: Option<LimitExceeded>,
}

impl GovernedRecognition {
    /// `true` when the pass ran to completion over the full text.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.truncation.is_none() && self.skipped.is_none()
    }
}

fn kind_order(kind: MatchKind) -> u8 {
    match kind {
        MatchKind::Keyword => 0,
        MatchKind::Constant => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_ontology::domains;

    fn table(text: &str) -> DataRecordTable {
        Recognizer::new(&domains::obituaries())
            .unwrap()
            .recognize(text)
    }

    #[test]
    fn entries_sorted_by_position() {
        let t = table("Ann B. Smith died on May 1, 1998 and was born on June 2, 1920.");
        let positions: Vec<usize> = t.entries().iter().map(|e| e.position).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
        assert!(!t.is_empty());
    }

    #[test]
    fn keyword_and_constant_entries_coexist() {
        let t = table("Bob Lee Jones died on May 1, 1998.");
        let death: Vec<&TableEntry> = t.for_descriptor("DeathDate").collect();
        assert!(death.iter().any(|e| e.kind == MatchKind::Keyword));
        assert!(death.iter().any(|e| e.kind == MatchKind::Constant));
        // Keyword "died on" precedes the date constant.
        let kw = death.iter().find(|e| e.kind == MatchKind::Keyword).unwrap();
        let c = death
            .iter()
            .find(|e| e.kind == MatchKind::Constant)
            .unwrap();
        assert!(kw.position < c.position);
    }

    #[test]
    fn shared_date_pattern_matches_multiple_descriptors() {
        // One date string is claimed by DeathDate, BirthDate and
        // FuneralDate value rules alike — disambiguation is the instance
        // generator's job (keyword correlation).
        let t = table("x died on May 1, 1998 y");
        let date_claimants: Vec<&str> = t
            .entries()
            .iter()
            .filter(|e| e.kind == MatchKind::Constant && e.value == "May 1, 1998")
            .map(|e| e.descriptor.as_str())
            .collect();
        assert!(date_claimants.contains(&"DeathDate"));
        assert!(date_claimants.contains(&"BirthDate"));
    }

    #[test]
    fn partition_at_cut_positions() {
        let text = "Ann B. Smith died on May 1, 1998. ||| Bob C. Jones died on May 2, 1998.";
        let cut = text.find("|||").unwrap();
        let t = table(text);
        let parts = t.partition(&[cut]);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].iter().all(|e| e.position < cut));
        assert!(parts[1].iter().all(|e| e.position >= cut));
        assert!(parts[0].iter().any(|e| e.descriptor == "DeathDate"));
        assert!(parts[1].iter().any(|e| e.descriptor == "DeathDate"));
    }

    #[test]
    fn partition_with_no_cuts_is_single_set() {
        let t = table("Ann B. Smith died on May 1, 1998.");
        let parts = t.partition(&[]);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), t.len());
    }

    #[test]
    fn empty_text_empty_table() {
        let t = table("");
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn display_renders_rows() {
        let t = table("Ann B. Smith died on May 1, 1998.");
        let s = t.to_string();
        assert!(s.contains("descriptor"));
        assert!(s.contains("DeathDate"));
        assert!(s.contains("died on"));
    }

    #[test]
    fn governed_recognition_full_run_matches_ungoverned() {
        let rec = Recognizer::new(&domains::obituaries()).unwrap();
        let text = "Ann B. Smith died on May 1, 1998, age 90.";
        let g = rec.recognize_governed(text, None, &Deadline::unbounded(), &rbd_trace::NullSink);
        assert!(g.is_complete());
        assert_eq!(g.table.entries(), rec.recognize(text).entries());
    }

    #[test]
    fn governed_recognition_caps_text() {
        let rec = Recognizer::new(&domains::obituaries()).unwrap();
        let text = "Ann B. Smith died on May 1, 1998. Bob C. Jones died on May 2, 1998.";
        let cap = 34; // covers only the first sentence
        let g = rec.recognize_governed(
            text,
            Some(cap),
            &Deadline::unbounded(),
            &rbd_trace::NullSink,
        );
        let t = g.truncation.expect("cap cut the text");
        assert_eq!(t.limit, rbd_limits::LimitKind::TextBytes);
        assert_eq!(t.observed, text.len());
        assert!(g.skipped.is_none());
        // Table covers only the scanned prefix.
        assert!(g.table.entries().iter().all(|e| e.position < cap));
        assert!(!g.table.is_empty());
    }

    #[test]
    fn governed_recognition_skips_on_expired_deadline() {
        let rec = Recognizer::new(&domains::obituaries()).unwrap();
        let spent = Deadline::after(std::time::Duration::ZERO);
        let g = rec.recognize_governed(
            "Ann B. Smith died on May 1, 1998.",
            None,
            &spent,
            &rbd_trace::NullSink,
        );
        assert!(g.table.is_empty());
        let skipped = g.skipped.expect("scan was skipped");
        assert_eq!(skipped.limit, rbd_limits::LimitKind::WallClock);
    }

    #[test]
    fn car_ads_recognizer() {
        let rec = Recognizer::new(&rbd_ontology::domains::car_ads()).unwrap();
        let t =
            rec.recognize("1996 Honda Accord, teal, 40,000 miles, $8,900 obo, call 801-555-9999");
        for d in ["Year", "Make", "Model", "Price", "Phone", "Color"] {
            assert!(
                t.for_descriptor(d).count() >= 1,
                "missing descriptor {d}\n{t}"
            );
        }
    }
}
