//! OM — ontology matching (§4.5).
//!
//! Fields in one-to-one correspondence with (or functionally dependent on)
//! the entity of interest appear once per record. Counting their indicators
//! in the document's plain text estimates the number of records; the
//! candidate tag whose appearance count is closest to that estimate is
//! likely the separator.
//!
//! OM abstains when the ontology provides fewer than three
//! record-identifying fields.

use crate::ranking::{HeuristicKind, Ranking};
use crate::view::SubtreeView;
use crate::Heuristic;
use rbd_ontology::rules::{om_field_budget, MatchKind};
use rbd_ontology::{MatchingRules, Ontology};
use rbd_pattern::{Pattern, PatternError};

/// The ontology-matching heuristic, bound to one application ontology.
#[derive(Debug, Clone)]
pub struct OntologyMatching {
    ontology: Ontology,
    rules: MatchingRules,
    /// The budgeted record-identifying fields OM counts, best first; `None`
    /// when fewer than three fields are available and OM abstains.
    fields: Option<Vec<OmField>>,
}

/// One record-identifying field OM counts: its object set, the evidence
/// kind the selection chose for it (keywords preferred over values), and
/// the indices of its rules of that kind.
#[derive(Debug, Clone)]
struct OmField {
    object_set: String,
    kind: MatchKind,
    rules: Vec<usize>,
}

impl OntologyMatching {
    /// Compiles the matching rules of `ontology` and chooses the fields,
    /// and the rules of each, that OM counts.
    pub fn new(ontology: Ontology) -> Result<Self, PatternError> {
        let rules = ontology.matching_rules()?;
        let selected = ontology.record_identifying_fields();
        let fields = om_field_budget(&ontology, selected.len()).map(|budget| {
            selected
                .iter()
                .take(budget)
                .map(|f| {
                    let kind = if f.via_keywords {
                        MatchKind::Keyword
                    } else {
                        MatchKind::Constant
                    };
                    let object_set = f.object_set.name.clone();
                    OmField {
                        rules: rules
                            .rules()
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.object_set == object_set && r.kind == kind)
                            .map(|(i, _)| i)
                            .collect(),
                        object_set,
                        kind,
                    }
                })
                .collect()
        });
        Ok(OntologyMatching {
            ontology,
            rules,
            fields,
        })
    }

    /// The bound ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Every rule [`OntologyMatching::estimate_record_count`] counts,
    /// field by field; empty when OM abstains.
    pub fn counted_rules(&self) -> impl Iterator<Item = &Pattern> {
        self.fields
            .iter()
            .flatten()
            .flat_map(|field| self.field_rules(field))
    }

    /// The patterns of one field's rules.
    fn field_rules<'a>(&'a self, field: &'a OmField) -> impl Iterator<Item = &'a Pattern> {
        field
            .rules
            .iter()
            .filter_map(|&i| self.rules.rules().get(i))
            .map(|r| &r.pattern)
    }

    /// Estimates the number of records in `text`: the average occurrence
    /// count over the selected record-identifying fields. Returns `None`
    /// (OM abstains) when fewer than three fields are available.
    pub fn estimate_record_count(&self, text: &str) -> Option<f64> {
        self.average(|field| self.field_rules(field).map(|p| p.count_matches(text)).sum())
    }

    /// The same estimate from counts made elsewhere: `count(object_set,
    /// kind)` gives how often the selected field's evidence of the chosen
    /// kind occurs — the integrated pipeline counts the recognizer's
    /// Data-Record Table entries instead of scanning again (§4.5: "a
    /// single scan through the table allows us to obtain the counts we
    /// need"). `None` exactly when [`OntologyMatching::estimate_record_count`]
    /// is.
    pub fn estimate_from_counts(
        &self,
        mut count: impl FnMut(&str, MatchKind) -> usize,
    ) -> Option<f64> {
        self.average(|field| count(&field.object_set, field.kind))
    }

    /// The mean of `count` over the selected fields.
    fn average(&self, count: impl FnMut(&OmField) -> usize) -> Option<f64> {
        let counts: Vec<f64> = self
            .fields
            .as_ref()?
            .iter()
            .map(count)
            .map(|n| n as f64)
            .collect();
        debug_assert!(counts.len() >= 3);
        Some(counts.iter().sum::<f64>() / counts.len() as f64)
    }
}

/// Everything a governed OM pass decided, for the decision audit trail:
/// the ranking (if OM did not abstain), the record-count estimate behind
/// it, and the truncation notice when the text cap cut the scan.
#[derive(Debug, Clone, Default)]
pub struct GovernedOmRank {
    /// The ranking, `None` when OM abstained.
    pub ranking: Option<Ranking>,
    /// The record-count estimate the ranking was scored against; `None`
    /// exactly when OM abstained.
    pub estimate: Option<f64>,
    /// Set when `max_text_bytes` actually cut the scanned text.
    pub truncation: Option<rbd_limits::LimitExceeded>,
}

impl OntologyMatching {
    /// Governed form of [`Heuristic::rank`]: scans at most
    /// `max_text_bytes` of the view's plain text (cut at a character
    /// boundary). Returns the ranking — computed over the scanned prefix,
    /// the §5 "partial evidence" reading — plus the truncation notice when
    /// the cap actually cut something, so callers can report the
    /// degradation instead of silently ranking on less text.
    pub fn rank_governed(
        &self,
        view: &SubtreeView<'_>,
        max_text_bytes: Option<usize>,
    ) -> (Option<Ranking>, Option<rbd_limits::LimitExceeded>) {
        let detailed = self.rank_governed_detailed(view, max_text_bytes);
        (detailed.ranking, detailed.truncation)
    }

    /// Like [`OntologyMatching::rank_governed`] but also surfacing the
    /// record-count estimate, so a tracing caller can report the input
    /// behind OM's scores without scanning the text twice.
    pub fn rank_governed_detailed(
        &self,
        view: &SubtreeView<'_>,
        max_text_bytes: Option<usize>,
    ) -> GovernedOmRank {
        let (text, truncation) = match max_text_bytes {
            Some(cap) => rbd_limits::truncate_at_char_boundary(view.text(), cap),
            None => (view.text(), None),
        };
        let estimate = self.estimate_record_count(text);
        GovernedOmRank {
            ranking: estimate.map(|est| Self::rank_with_estimate(view, est)),
            estimate,
            truncation,
        }
    }

    /// The per-candidate occurrence counts OM's scores are measured
    /// against (the other input, the record-count estimate, comes from
    /// [`OntologyMatching::rank_governed_detailed`]).
    #[must_use]
    pub fn occurrence_inputs(view: &SubtreeView<'_>) -> Vec<(String, f64)> {
        view.candidates()
            .iter()
            .enumerate()
            .map(|(slot, c)| {
                let occurrences = view.occurrences(slot);
                (format!("occurrences:{}", c.name), occurrences as f64)
            })
            .collect()
    }

    /// Ranks candidates against an externally supplied record-count
    /// estimate — used by the integrated pipeline, where the estimate comes
    /// from the recognizer's Data-Record Table instead of a fresh scan
    /// (§4.5's amortization).
    pub fn rank_with_estimate(view: &SubtreeView<'_>, estimate: f64) -> Ranking {
        // "The number of appearances of each candidate tag" (§4.5) is read
        // as appearances anywhere in the highest-fan-out subtree — the same
        // basis SD and RP use — not merely among the root's immediate
        // children (which is the *candidate selection* basis of §3).
        let scores: Vec<(String, f64)> = view
            .candidates()
            .iter()
            .enumerate()
            .map(|(slot, c)| {
                let occurrences = view.occurrences(slot) as f64;
                (c.name.clone(), (occurrences - estimate).abs())
            })
            .collect();
        Ranking::from_scores(HeuristicKind::OM, scores, true)
    }
}

impl Heuristic for OntologyMatching {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::OM
    }

    fn rank(&self, view: &SubtreeView<'_>) -> Option<Ranking> {
        let estimate = self.estimate_record_count(view.text())?;
        Some(Self::rank_with_estimate(view, estimate))
    }

    fn score_inputs(&self, view: &SubtreeView<'_>) -> Vec<(String, f64)> {
        Self::occurrence_inputs(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::DEFAULT_CANDIDATE_THRESHOLD;
    use rbd_ontology::domains;
    use rbd_tagtree::TagTreeBuilder;

    fn obituary_doc() -> String {
        let mut d = String::from("<html><body><table><tr><td><h1>Funeral Notices</h1>");
        for (name, date) in [
            ("Lemar K. Adamson", "September 30, 1998"),
            ("Brian Fielding Frost", "September 30, 1998"),
            ("Leonard Kenneth Gunther", "September 30, 1998"),
        ] {
            d.push_str(&format!(
                "<hr><b>{name}</b><br>, age 85, died on {date}. He was born on January 5, 1913. \
                 Funeral services will be held at 11:00 a.m. at MEMORIAL CHAPEL. \
                 Interment at Holy Hope Cemetery. He is survived by his family.<br>"
            ));
        }
        d.push_str("<hr></td></tr></table></body></html>");
        d
    }

    #[test]
    fn estimates_three_records() {
        let om = OntologyMatching::new(domains::obituaries()).unwrap();
        let doc = obituary_doc();
        let tree = TagTreeBuilder::default().build(&doc);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let est = om.estimate_record_count(view.text()).unwrap();
        assert!(
            (est - 3.0).abs() < 1.0,
            "estimate {est} should be close to 3 records"
        );
    }

    #[test]
    fn ranks_separator_with_matching_count_first() {
        let om = OntologyMatching::new(domains::obituaries()).unwrap();
        let doc = obituary_doc();
        let tree = TagTreeBuilder::default().build(&doc);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        // hr appears 4 times (3 records + trailing), br 6, b 3.
        let r = om.rank(&view).unwrap();
        let hr = r.rank_of("hr").unwrap();
        let br = r.rank_of("br").unwrap();
        assert!(hr <= br, "hr ({hr}) should rank at or above br ({br})");
    }

    #[test]
    fn abstains_with_tiny_ontology() {
        use rbd_ontology::{Cardinality, ObjectSet, Ontology};
        let tiny = Ontology::new("tiny", "E")
            .with(ObjectSet::new("A", Cardinality::OneToOne).keyword("alpha"))
            .with(ObjectSet::new("B", Cardinality::Many).keyword("beta"));
        let om = OntologyMatching::new(tiny).unwrap();
        let tree = TagTreeBuilder::default().build("<td><hr>alpha<hr>alpha</td>");
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        assert!(om.rank(&view).is_none());
    }

    #[test]
    fn governed_rank_reports_truncation() {
        let om = OntologyMatching::new(domains::obituaries()).unwrap();
        let doc = obituary_doc();
        let tree = TagTreeBuilder::default().build(&doc);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        // Unbounded: identical to the plain rank, no notice.
        let (full, notice) = om.rank_governed(&view, None);
        assert!(notice.is_none());
        assert_eq!(full, om.rank(&view));
        // Capped well below the text length: still ranks (partial
        // evidence), but the truncation is reported.
        let (partial, notice) = om.rank_governed(&view, Some(64));
        assert!(partial.is_some());
        let notice = notice.expect("cap cut the text");
        assert_eq!(notice.limit, rbd_limits::LimitKind::TextBytes);
        assert_eq!(notice.cap, 64);
        assert_eq!(notice.observed, view.text().len());
        // A cap larger than the text changes nothing and reports nothing.
        let (_, none) = om.rank_governed(&view, Some(view.text().len()));
        assert!(none.is_none());
    }

    #[test]
    fn zero_matches_yield_zero_estimate() {
        let om = OntologyMatching::new(domains::obituaries()).unwrap();
        let est = om.estimate_record_count("nothing relevant here").unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn car_ads_estimate() {
        let om = OntologyMatching::new(domains::car_ads()).unwrap();
        let mut doc = String::from("<td>");
        for i in 0..4 {
            doc.push_str(&format!(
                "<p>1995 Ford Taurus, white, auto, 62,000 miles, $6,{i}00 obo, \
                 call (801) 555-123{i}</p>"
            ));
        }
        doc.push_str("</td>");
        let tree = TagTreeBuilder::default().build(&doc);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let est = om.estimate_record_count(view.text()).unwrap();
        assert!((est - 4.0).abs() <= 1.0, "estimate {est}");
        let r = om.rank(&view).unwrap();
        assert_eq!(r.best(), Some("p"));
    }
}
