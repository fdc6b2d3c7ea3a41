//! Quality ablations for the design choices the paper fixes by fiat:
//! the 10 % candidate threshold (§3), the highest-fan-out conjecture (§3),
//! and the use of all five heuristics rather than any subset (§5.3).
//!
//! Each ablation reports separator accuracy over the twenty test documents
//! (all four domains) so the effect of the choice is visible, not just its
//! cost. Timing counterparts live in `rbd-bench`'s `ablations` bench.

use rbd_certainty::{CertaintyTable, CompoundHeuristic, HeuristicSet};
use rbd_core::{DiscoveryError, ExtractorConfig};
use rbd_corpus::{test_corpus, Domain, GeneratedDoc};
use rbd_heuristics::om::OntologyMatching;
use rbd_heuristics::{
    ht::HighestCount, it::IdentifiableTags, rp::RepeatingPattern, sd::StandardDeviation, Heuristic,
    HeuristicKind, SubtreeView,
};
use rbd_json::{Json, ToJson};
use rbd_tagtree::TagTreeBuilder;
use std::fmt;

use crate::runner::HeuristicRunner;

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// The varied setting, rendered ("threshold 0.05", "subset ORSI", …).
    pub setting: String,
    /// Fraction of the 20 test documents whose separator was correctly and
    /// uniquely identified.
    pub accuracy: f64,
    /// Mean number of candidate tags per document under this setting.
    pub mean_candidates: f64,
}

/// The full ablation report.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Candidate-threshold sweep (§3's 10 % choice).
    pub threshold: Vec<AblationPoint>,
    /// Subtree selection: highest fan-out vs. document root.
    pub subtree: Vec<AblationPoint>,
    /// Leave-one-out heuristic subsets vs. full ORSIH.
    pub leave_one_out: Vec<AblationPoint>,
}

/// Runs all three ablations.
pub fn run_ablations(table: &CertaintyTable, seed: u64) -> Result<AblationReport, DiscoveryError> {
    let docs: Vec<GeneratedDoc> = Domain::ALL
        .into_iter()
        .flat_map(|d| test_corpus(d, seed))
        .collect();
    let score = |setting: &str, threshold: f64, subset: HeuristicSet| {
        let config = ExtractorConfig::default()
            .with_candidate_threshold(threshold)
            .with_heuristics(subset)
            .with_certainty_table(table.clone());
        let runner = HeuristicRunner::with_config(&config)?;
        Ok::<_, DiscoveryError>(extractor_point(setting.to_owned(), &runner, &docs))
    };

    let threshold = [0.01, 0.05, 0.10, 0.20, 0.30]
        .into_iter()
        .map(|t| score(&format!("threshold {t:.2}"), t, HeuristicSet::ORSIH))
        .collect::<Result<_, _>>()?;
    let subtree = vec![
        score("highest fan-out subtree (paper)", 0.10, HeuristicSet::ORSIH)?,
        document_root_point(table, &docs)?,
    ];
    let mut leave_one_out = vec![score("ORSIH (paper)", 0.10, HeuristicSet::ORSIH)?];
    for kind in HeuristicKind::ALL {
        let subset = HeuristicSet::of(HeuristicKind::ALL.into_iter().filter(|k| *k != kind));
        leave_one_out.push(score(&format!("{subset} (without {kind})"), 0.10, subset)?);
    }
    Ok(AblationReport {
        threshold,
        subtree,
        leave_one_out,
    })
}

/// Scores one extractor setting: a document counts when discovery's
/// consensus names its true separator as the unique winner.
fn extractor_point(
    setting: String,
    runner: &HeuristicRunner,
    docs: &[GeneratedDoc],
) -> AblationPoint {
    let mut hits = 0usize;
    let mut candidates_total = 0usize;
    for doc in docs {
        let Ok(outcome) = runner.extractor(doc.domain).discover(&doc.html) else {
            continue;
        };
        candidates_total += outcome.candidates.len();
        if outcome.consensus.unique_winner() == Some(doc.truth.separator.as_str()) {
            hits += 1;
        }
    }
    point(setting, hits, candidates_total, docs.len())
}

/// The ablated record-area choice: the view rooted at the document root —
/// the naive "records are at the top" assumption. No extractor setting
/// selects this subtree, so the view and the five heuristics are built
/// here.
fn document_root_point(
    table: &CertaintyTable,
    docs: &[GeneratedDoc],
) -> Result<AblationPoint, DiscoveryError> {
    let compound = CompoundHeuristic::new(HeuristicSet::ORSIH, table.clone());
    let (ht, it, sd, rp) = (
        HighestCount,
        IdentifiableTags,
        StandardDeviation,
        RepeatingPattern::default(),
    );
    let mut hits = 0usize;
    let mut candidates_total = 0usize;
    for domain in Domain::ALL {
        let om = OntologyMatching::new(domain.ontology())?;
        let heuristics: [&dyn Heuristic; 5] = [&om, &rp, &sd, &it, &ht];
        for doc in docs.iter().filter(|d| d.domain == domain) {
            let tree = TagTreeBuilder::default().build(&doc.html);
            let view = SubtreeView::for_subtree(&tree, tree.root(), 0.10);
            candidates_total += view.candidates().len();
            let rankings: Vec<_> = heuristics.iter().filter_map(|h| h.rank(&view)).collect();
            if compound.combine(&rankings).unique_winner() == Some(doc.truth.separator.as_str()) {
                hits += 1;
            }
        }
    }
    Ok(point(
        "document root (ablated)".to_owned(),
        hits,
        candidates_total,
        docs.len(),
    ))
}

fn point(setting: String, hits: usize, candidates_total: usize, docs: usize) -> AblationPoint {
    AblationPoint {
        setting,
        accuracy: hits as f64 / docs as f64,
        mean_candidates: candidates_total as f64 / docs as f64,
    }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let section = |f: &mut fmt::Formatter<'_>, title: &str, points: &[AblationPoint]| {
            writeln!(f, "{title}")?;
            for p in points {
                writeln!(
                    f,
                    "  {:<34} accuracy {:>5.1}%   mean candidates {:.1}",
                    p.setting,
                    p.accuracy * 100.0,
                    p.mean_candidates
                )?;
            }
            writeln!(f)
        };
        section(f, "Candidate-threshold sweep (§3: 10 %):", &self.threshold)?;
        section(
            f,
            "Record-area selection (§3: highest fan-out):",
            &self.subtree,
        )?;
        section(
            f,
            "Leave-one-out heuristic subsets (§5.3: ORSIH):",
            &self.leave_one_out,
        )
    }
}

impl ToJson for AblationPoint {
    fn to_json(&self) -> Json {
        Json::object([
            ("setting", self.setting.to_json()),
            ("accuracy", self.accuracy.to_json()),
            ("mean_candidates", self.mean_candidates.to_json()),
        ])
    }
}

impl ToJson for AblationReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("threshold", self.threshold.to_json()),
            ("subtree", self.subtree.to_json()),
            ("leave_one_out", self.leave_one_out.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    fn report() -> AblationReport {
        run_ablations(&CertaintyTable::paper_table4(), DEFAULT_SEED).unwrap()
    }

    #[test]
    fn paper_threshold_is_optimal_or_tied() {
        let r = report();
        let at = |s: &str| {
            r.threshold
                .iter()
                .find(|p| p.setting.contains(s))
                .unwrap()
                .accuracy
        };
        let paper = at("0.10");
        for other in ["0.20", "0.30"] {
            assert!(
                paper >= at(other),
                "threshold {other} beats the paper's 10%"
            );
        }
    }

    #[test]
    fn fanout_selection_beats_root() {
        let r = report();
        assert!(
            r.subtree[0].accuracy > r.subtree[1].accuracy,
            "fan-out {:.2} must beat root {:.2}",
            r.subtree[0].accuracy,
            r.subtree[1].accuracy
        );
    }

    #[test]
    fn full_orsih_at_least_ties_every_leave_one_out() {
        // On a 20-document sample, dropping one heuristic can win by a
        // single document through sampling luck; the paper's claim is
        // about the trend, so allow exactly that one-document slack.
        let one_doc = 1.0 / 20.0 + 1e-9;
        let r = report();
        let full = r.leave_one_out[0].accuracy;
        for p in &r.leave_one_out[1..] {
            assert!(
                full >= p.accuracy - one_doc,
                "{} ({:.2}) beats ORSIH ({full:.2}) by more than one document",
                p.setting,
                p.accuracy
            );
        }
    }

    #[test]
    fn report_renders() {
        let text = report().to_string();
        assert!(text.contains("threshold 0.10"));
        assert!(text.contains("ORSIH (paper)"));
        assert!(text.contains("without OM"));
    }
}
