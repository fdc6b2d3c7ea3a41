//! Extractor configuration.

use crate::limits::Limits;
use rbd_certainty::{CertaintyTable, HeuristicSet};
use rbd_heuristics::view::DEFAULT_CANDIDATE_THRESHOLD;
use rbd_ontology::Ontology;

/// Configuration of a [`crate::RecordExtractor`].
///
/// The defaults reproduce the paper's final system: a 10 % candidate
/// threshold, the ORSIH compound heuristic, and the published Table 4
/// certainty factors. Without an ontology the OM heuristic abstains and the
/// extractor runs RSIH-style on the remaining evidence — exactly how the
/// paper's combination degrades when a heuristic supplies no answer.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Child tags below this fraction of the subtree's tag count are
    /// irrelevant (§3; default 0.10).
    pub candidate_threshold: f64,
    /// Which heuristics participate in the consensus (default ORSIH).
    pub heuristic_set: HeuristicSet,
    /// Per-rank certainty factors (default: the paper's Table 4).
    pub certainty_table: CertaintyTable,
    /// Application ontology enabling the OM heuristic.
    pub ontology: Option<Ontology>,
    /// Tokenize as XML (case-sensitive names, CDATA) instead of HTML — the
    /// paper's footnote-1 portability claim.
    pub xml: bool,
    /// Resource limits governing each pass (default: generous caps that no
    /// paper-corpus document approaches; see [`Limits::strict`] for
    /// service-grade caps).
    pub limits: Limits,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig {
            candidate_threshold: DEFAULT_CANDIDATE_THRESHOLD,
            heuristic_set: HeuristicSet::ORSIH,
            certainty_table: CertaintyTable::paper_table4(),
            ontology: None,
            xml: false,
            limits: Limits::default(),
        }
    }
}

impl ExtractorConfig {
    /// Sets the application ontology (enables OM).
    pub fn with_ontology(mut self, ontology: Ontology) -> Self {
        self.ontology = Some(ontology);
        self
    }

    /// Sets the heuristic subset.
    pub fn with_heuristics(mut self, set: HeuristicSet) -> Self {
        self.heuristic_set = set;
        self
    }

    /// Sets the candidate threshold.
    pub fn with_candidate_threshold(mut self, threshold: f64) -> Self {
        self.candidate_threshold = threshold;
        self
    }

    /// Sets the certainty table (e.g. one freshly calibrated by
    /// `rbd-eval`).
    pub fn with_certainty_table(mut self, table: CertaintyTable) -> Self {
        self.certainty_table = table;
        self
    }

    /// Switches to XML tokenization.
    pub fn xml(mut self) -> Self {
        self.xml = true;
        self
    }

    /// Sets the resource limits (e.g. [`Limits::strict`] for untrusted
    /// input).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_ontology::domains;

    #[test]
    fn default_matches_paper() {
        let c = ExtractorConfig::default();
        assert_eq!(c.candidate_threshold, 0.10);
        assert_eq!(c.heuristic_set, HeuristicSet::ORSIH);
        assert!(c.ontology.is_none());
        assert_eq!(c.certainty_table, CertaintyTable::paper_table4());
        assert_eq!(c.limits, Limits::default());
        assert!(c.limits.time_budget.is_none());
    }

    #[test]
    fn with_limits_replaces_profile() {
        let c = ExtractorConfig::default().with_limits(Limits::strict());
        assert_eq!(c.limits, Limits::strict());
    }

    #[test]
    fn builder_chain() {
        let c = ExtractorConfig::default()
            .with_ontology(domains::car_ads())
            .with_heuristics("SI".parse().unwrap())
            .with_candidate_threshold(0.05);
        assert_eq!(c.ontology.as_ref().unwrap().name, "car-ad");
        assert_eq!(c.heuristic_set.to_string(), "SI");
        assert_eq!(c.candidate_threshold, 0.05);
    }
}
