//! Assumption checking — the paper's declared future work (§1):
//!
//! > "We assume that each Web document we process (1) has multiple records
//! > and (2) contains at least one record-separator tag. We note that it is
//! > an entirely different problem to check these assumptions … We leave
//! > these issues for future research."
//!
//! This module implements that check. It classifies a document before
//! record-boundary discovery is trusted, using the same machinery the
//! discovery algorithm already builds:
//!
//! * **structure**: the highest-fan-out subtree's fan-out and candidate
//!   tags — a multi-record page needs repeated child structure;
//! * **content** (when an ontology is available): the OM record-count
//!   estimate — a page about a single entity estimates ≈ 1.

use crate::extractor::{DiscoveryError, RecordExtractor};
use rbd_heuristics::SubtreeView;
use rbd_trace::NullSink;
use std::fmt;

/// Verdict on the paper's §1 assumptions for one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocumentClass {
    /// Both assumptions plausibly hold: run record-boundary discovery.
    MultipleRecords,
    /// The page looks like a single record (one entity of interest) —
    /// discovery would slice one record into fragments.
    SingleRecord,
    /// No repeated structure or recognizable content at all.
    NoRecords,
}

impl fmt::Display for DocumentClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DocumentClass::MultipleRecords => "multiple records",
            DocumentClass::SingleRecord => "single record",
            DocumentClass::NoRecords => "no records",
        })
    }
}

/// Evidence behind a [`DocumentClass`] verdict.
#[derive(Debug, Clone)]
pub struct AssumptionReport {
    /// The verdict.
    pub class: DocumentClass,
    /// Fan-out of the highest-fan-out subtree.
    pub max_fanout: usize,
    /// Number of candidate separator tags above the threshold.
    pub candidate_count: usize,
    /// OM's record-count estimate, when an ontology was configured and
    /// offered enough record-identifying fields.
    pub estimated_records: Option<f64>,
    /// Plain-text size of the record area in characters.
    pub subtree_text_len: usize,
}

/// Minimum fan-out for a page to plausibly hold a record *list*. A page
/// with two records and a heading already has ≥ 4 children under the
/// fan-out node in every layout the corpus or the paper exhibits.
pub const MIN_LIST_FANOUT: usize = 4;

/// OM estimates below this are treated as "about one entity".
pub const MIN_RECORD_ESTIMATE: f64 = 1.5;

impl RecordExtractor {
    /// Checks the paper's assumptions for `html` with the tree discovery
    /// would build (HTML or XML mode, under the hard limits) and the
    /// extractor's compiled ontology.
    ///
    /// Structure alone can prove a *negative* (no repeated children → not a
    /// record list). Content evidence, when available, can also catch
    /// single-entity pages that happen to be structurally busy (navigation
    /// chrome, one long article).
    ///
    /// A document over a hard limit (input bytes, tree nodes, nesting
    /// depth) is refused with [`DiscoveryError::Limit`], as discovery
    /// refuses it.
    pub fn check_assumptions(&self, html: &str) -> Result<AssumptionReport, DiscoveryError> {
        let tree = self.build_tree(html, &NullSink)?;
        let view = SubtreeView::from_tree(&tree, self.config().candidate_threshold);
        let max_fanout = tree.node(view.root()).fanout();
        let candidate_count = view.candidates().len();
        let subtree_text_len = view.text().chars().count();
        let estimated_records = self
            .om
            .as_ref()
            .and_then(|om| om.estimate_record_count(view.text()));

        let class = classify(
            max_fanout,
            candidate_count,
            estimated_records,
            subtree_text_len,
        );
        Ok(AssumptionReport {
            class,
            max_fanout,
            candidate_count,
            estimated_records,
            subtree_text_len,
        })
    }
}

fn classify(
    max_fanout: usize,
    candidate_count: usize,
    estimated_records: Option<f64>,
    subtree_text_len: usize,
) -> DocumentClass {
    if candidate_count == 0 || subtree_text_len == 0 {
        return DocumentClass::NoRecords;
    }
    // Content evidence dominates when present: an ontology estimate near
    // zero on a structurally busy page means the page is not about this
    // application at all; near one, it is a single record.
    if let Some(est) = estimated_records {
        if est < 0.5 {
            return DocumentClass::NoRecords;
        }
        if est < MIN_RECORD_ESTIMATE {
            return DocumentClass::SingleRecord;
        }
        if max_fanout >= MIN_LIST_FANOUT {
            return DocumentClass::MultipleRecords;
        }
        // Rich content but flat structure: treat as a single record — the
        // separator assumption fails without repeated children.
        return DocumentClass::SingleRecord;
    }
    // Structure only.
    if max_fanout >= MIN_LIST_FANOUT {
        DocumentClass::MultipleRecords
    } else {
        DocumentClass::SingleRecord
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtractorConfig, LimitKind, Limits};
    use rbd_ontology::domains;

    fn extractor() -> RecordExtractor {
        RecordExtractor::new(ExtractorConfig::default().with_ontology(domains::obituaries()))
            .unwrap()
    }

    fn multi_record_page() -> String {
        let mut d = String::from("<html><body><table><tr><td>");
        for (n, date) in [
            ("Ann B. Smith", "May 1, 1998"),
            ("Bob C. Jones", "May 2, 1998"),
            ("Cal D. Young", "May 3, 1998"),
        ] {
            d.push_str(&format!(
                "<hr><b>{n}</b><br> died on {date}, age 80. Born on June 2, 1920."
            ));
        }
        d.push_str("<hr></td></tr></table></body></html>");
        d
    }

    #[test]
    fn multi_record_page_passes() {
        let report = extractor().check_assumptions(&multi_record_page()).unwrap();
        assert_eq!(report.class, DocumentClass::MultipleRecords);
        assert!(report.max_fanout >= MIN_LIST_FANOUT);
        assert!(report.estimated_records.unwrap() >= 2.0);
    }

    #[test]
    fn single_obituary_detected() {
        let single = "<html><body><h1>In Memoriam</h1><p><b>Ann B. Smith</b> died on \
             May 1, 1998, age 80.</p><p>She was born on June 2, 1920 and is survived by \
             her family.</p><p>Funeral services will be held at 10:00 a.m.</p>\
             <p>Friends may call at the family home on Thursday evening.</p>\
             <p>Interment at Oak Hill Cemetery.</p></body></html>";
        let report = extractor().check_assumptions(single).unwrap();
        assert_eq!(report.class, DocumentClass::SingleRecord);
        assert!(report.estimated_records.unwrap() < MIN_RECORD_ESTIMATE);
    }

    #[test]
    fn off_topic_page_detected() {
        let off_topic = "<html><body><p>Welcome to our site.</p><p>Weather is fine.</p>\
             <p>Sports scores tonight.</p><p>Local news follows.</p>\
             <p>Community calendar below.</p></body></html>";
        let report = extractor().check_assumptions(off_topic).unwrap();
        assert_eq!(report.class, DocumentClass::NoRecords);
    }

    #[test]
    fn empty_and_flat_documents() {
        let report = extractor().check_assumptions("").unwrap();
        assert_eq!(report.class, DocumentClass::NoRecords);

        let flat = "<html><body>just one line of text</body></html>";
        let report = extractor().check_assumptions(flat).unwrap();
        // No ontology hits and no repeated structure.
        assert_ne!(report.class, DocumentClass::MultipleRecords);
    }

    #[test]
    fn structure_only_without_ontology() {
        let report = RecordExtractor::default()
            .check_assumptions(&multi_record_page())
            .unwrap();
        assert_eq!(report.class, DocumentClass::MultipleRecords);
        assert_eq!(report.estimated_records, None);
    }

    #[test]
    fn class_display() {
        assert_eq!(
            DocumentClass::MultipleRecords.to_string(),
            "multiple records"
        );
        assert_eq!(DocumentClass::SingleRecord.to_string(), "single record");
    }

    #[test]
    fn corpus_documents_all_classify_as_multiple() {
        use rbd_corpus::{generate_document, sites, Domain};
        let extractor = extractor();
        for style in sites::initial_sites(Domain::Obituaries) {
            let doc = generate_document(&style, Domain::Obituaries, 0, 1998);
            let report = extractor.check_assumptions(&doc.html).unwrap();
            assert_eq!(
                report.class,
                DocumentClass::MultipleRecords,
                "{} misclassified: {report:?}",
                style.site
            );
        }
    }

    #[test]
    fn check_refuses_input_over_the_hard_cap() {
        let extractor =
            RecordExtractor::new(ExtractorConfig::default().with_limits(Limits::strict())).unwrap();
        let cap = Limits::strict().max_input_bytes.unwrap();
        let page = multi_record_page().repeat(cap / multi_record_page().len() + 1);
        match extractor.check_assumptions(&page) {
            Err(DiscoveryError::Limit(e)) => assert_eq!(e.limit, LimitKind::InputBytes),
            other => panic!("expected the input-bytes limit, got {other:?}"),
        }
    }
}
