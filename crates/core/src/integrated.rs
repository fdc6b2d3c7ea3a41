//! The §4.5 integrated pipeline: recognition and boundary discovery share
//! one pass over the record area's plain text.
//!
//! The paper's cost argument for OM is exactly this integration:
//!
//! > "in the overall data-extraction process … we must run the regular
//! > expressions over all the plain text in the highest-fan-out subtree …
//! > if we integrate processes, we can run the regular-expression matching
//! > process before separating records at no additional cost. … Once we
//! > discover the separator tag, we can use the position of the separator
//! > tags in the document to partition the Data-Record Table into sets of
//! > entries that are in a one-to-one correspondence with the records."
//!
//! [`RecordExtractor::discover_and_recognize`](crate::RecordExtractor::discover_and_recognize)
//! implements that flow inside the one discovery body: the recognizer runs
//! once over the subtree text; the OM heuristic's record estimate is
//! derived from the resulting Data-Record Table (no second regex pass);
//! and the table is partitioned at the discovered separator's positions
//! (the cut offsets below) for downstream database population.

use crate::extractor::DiscoveryOutcome;
use rbd_recognizer::{DataRecordTable, TableEntry};

/// The result of integrated discovery + recognition.
#[derive(Debug, Clone)]
pub struct IntegratedExtraction {
    /// The discovery outcome (separator, consensus, rankings, tree).
    pub outcome: DiscoveryOutcome,
    /// Plain text of the highest-fan-out subtree — the recognizer ran over
    /// exactly this string.
    pub text: String,
    /// The Data-Record Table over [`IntegratedExtraction::text`].
    pub table: DataRecordTable,
    /// Byte offsets into `text` where the separator occurs (among the
    /// subtree root's children) — the partition cut points.
    pub cuts: Vec<usize>,
}

impl IntegratedExtraction {
    /// Partitions the table into per-record entry sets (partition 0 is the
    /// preamble before the first separator).
    pub fn partitions(&self) -> Vec<Vec<&TableEntry>> {
        self.table.partition(&self.cuts)
    }

    /// Per-record Data-Record Tables, preamble partition dropped — ready
    /// for `rbd_db::InstanceGenerator::populate`. Positions are rebased to
    /// each record's start.
    pub fn record_tables(&self) -> Vec<DataRecordTable> {
        let parts = self.partitions();
        parts
            .into_iter()
            .skip(1)
            .zip(&self.cuts)
            .map(|(entries, &cut)| {
                DataRecordTable::from_entries(
                    entries
                        .into_iter()
                        .map(|e| TableEntry {
                            descriptor: e.descriptor.clone(),
                            kind: e.kind,
                            value: e.value.clone(),
                            position: e.position - cut,
                        })
                        .collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ExtractorConfig;
    use crate::RecordExtractor;
    use rbd_ontology::domains;
    use rbd_recognizer::Recognizer;
    use rbd_trace::NullSink;

    fn page() -> String {
        let mut d = String::from("<html><body><table><tr><td><h1>Notices</h1>");
        for (n, date) in [
            ("Ann B. Smith", "May 1, 1998"),
            ("Bob C. Jones", "May 2, 1998"),
            ("Cal D. Young", "May 3, 1998"),
        ] {
            d.push_str(&format!(
                "<hr><b>{n}</b><br> died on {date}, age 80. Born on June 2, 1920. \
                 Funeral services will be held at 10:00 a.m."
            ));
        }
        d.push_str("<hr></td></tr></table></body></html>");
        d
    }

    fn extractor() -> RecordExtractor {
        RecordExtractor::new(ExtractorConfig::default().with_ontology(domains::obituaries()))
            .unwrap()
    }

    #[test]
    fn integrated_agrees_with_separate_path() {
        let ex = extractor();
        let rec = Recognizer::new(&domains::obituaries()).unwrap();
        let page = page();
        let separate = ex.discover(&page).unwrap();
        let integrated = ex.discover_and_recognize(&page, &rec, &NullSink).unwrap();
        assert_eq!(integrated.outcome.separator, separate.separator);
        assert_eq!(integrated.outcome.rankings.len(), separate.rankings.len());
        for (a, b) in integrated.outcome.rankings.iter().zip(&separate.rankings) {
            assert_eq!(a.to_paper_string(), b.to_paper_string());
        }
    }

    #[test]
    fn partitions_align_with_records() {
        let ex = extractor();
        let rec = Recognizer::new(&domains::obituaries()).unwrap();
        let integrated = ex.discover_and_recognize(&page(), &rec, &NullSink).unwrap();
        assert_eq!(integrated.cuts.len(), 4); // 3 records + trailing hr
        let parts = integrated.partitions();
        assert_eq!(parts.len(), 5);
        // Each record partition holds exactly one DeathDate keyword.
        for part in &parts[1..4] {
            let kw = part
                .iter()
                .filter(|e| {
                    e.descriptor == "DeathDate" && e.kind == rbd_ontology::MatchKind::Keyword
                })
                .count();
            assert_eq!(kw, 1, "{part:?}");
        }
        // Trailing partition (after the last hr) is empty.
        assert!(parts[4].is_empty());
    }

    #[test]
    fn record_tables_feed_the_instance_generator() {
        let ex = extractor();
        let rec = Recognizer::new(&domains::obituaries()).unwrap();
        let integrated = ex.discover_and_recognize(&page(), &rec, &NullSink).unwrap();
        let tables = integrated.record_tables();
        assert_eq!(tables.len(), 4); // includes the empty trailing chunk
        assert!(tables[0]
            .for_descriptor("DeceasedName")
            .any(|e| e.value == "Ann B. Smith"));
        // Rebased positions start at zero-ish.
        let first = tables[0].entries().first().unwrap();
        assert!(
            first.position < 40,
            "position {} not rebased",
            first.position
        );
    }
}
