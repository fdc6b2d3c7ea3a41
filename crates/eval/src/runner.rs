//! Per-document evaluation: run all five heuristics and record where the
//! ground-truth separator landed in each ranking.

use rbd_corpus::{Domain, GeneratedDoc};
use rbd_heuristics::om::OntologyMatching;
use rbd_heuristics::view::DEFAULT_CANDIDATE_THRESHOLD;
use rbd_heuristics::{
    ht::HighestCount, it::IdentifiableTags, rp::RepeatingPattern, sd::StandardDeviation, Heuristic,
    HeuristicKind, Ranking, SubtreeView,
};
use rbd_json::{Json, ToJson};
use rbd_ontology::domains;
use rbd_pattern::PatternError;
use rbd_pipeline::run_ordered;
use rbd_tagtree::TagTreeBuilder;
use std::sync::Arc;

/// Runs the five heuristics with the right ontology per domain; the OM
/// heuristics (one per domain) are compiled once and reused.
pub struct HeuristicRunner {
    om_obituaries: OntologyMatching,
    om_car_ads: OntologyMatching,
    om_job_ads: OntologyMatching,
    om_courses: OntologyMatching,
}

impl HeuristicRunner {
    /// Compiles the four domain ontologies.
    pub fn new() -> Result<Self, PatternError> {
        Ok(HeuristicRunner {
            om_obituaries: OntologyMatching::new(domains::obituaries())?,
            om_car_ads: OntologyMatching::new(domains::car_ads())?,
            om_job_ads: OntologyMatching::new(domains::job_ads())?,
            om_courses: OntologyMatching::new(domains::courses())?,
        })
    }

    /// The OM heuristic bound to `domain`'s ontology.
    pub fn om(&self, domain: Domain) -> &OntologyMatching {
        match domain {
            Domain::Obituaries => &self.om_obituaries,
            Domain::CarAds => &self.om_car_ads,
            Domain::JobAds => &self.om_job_ads,
            Domain::Courses => &self.om_courses,
        }
    }
}

/// The evaluation record of one document.
#[derive(Debug, Clone)]
pub struct DocEvaluation {
    /// Site name.
    pub site: String,
    /// Site URL.
    pub url: String,
    /// Ground-truth separator.
    pub truth: String,
    /// Rank the heuristic gave the true separator, in ORSIH order
    /// (`None` = abstained or did not rank the truth).
    pub ranks: [Option<usize>; 5],
    /// The rankings themselves (for compound-combination sweeps).
    pub rankings: Vec<Ranking>,
    /// Candidate-tag count (1 means the §3 single-candidate shortcut fired).
    pub candidate_count: usize,
}

impl DocEvaluation {
    /// Rank for a given heuristic kind.
    pub fn rank(&self, kind: HeuristicKind) -> Option<usize> {
        let idx = HeuristicKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        self.ranks[idx]
    }
}

/// Evaluates one generated document: builds the view, runs all heuristics,
/// and records the true separator's rank in each.
pub fn evaluate_document(runner: &HeuristicRunner, doc: &GeneratedDoc) -> DocEvaluation {
    let tree = TagTreeBuilder::default().build(&doc.html);
    let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
    let candidate_count = view.candidates().len();

    let truth = doc.truth.separator.as_str();
    if candidate_count <= 1 {
        // §3 shortcut: every heuristic would be skipped; model them as all
        // agreeing on the sole candidate.
        let rank = view
            .candidates()
            .first()
            .map(|c| if c.name == truth { 1 } else { 2 });
        return DocEvaluation {
            site: doc.site.to_owned(),
            url: doc.url.to_owned(),
            truth: truth.to_owned(),
            ranks: [rank; 5],
            rankings: synthetic_unanimous_rankings(
                view.candidates().first().map(|c| c.name.clone()),
            ),
            candidate_count,
        };
    }

    let om = runner.om(doc.domain);
    let ht = HighestCount;
    let it = IdentifiableTags::default();
    let sd = StandardDeviation;
    let rp = RepeatingPattern::default();
    let heuristics: [&dyn Heuristic; 5] = [om, &rp, &sd, &it, &ht];
    let rankings: Vec<Ranking> = heuristics.iter().filter_map(|h| h.rank(&view)).collect();

    let mut ranks = [None; 5];
    for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
        ranks[i] = rankings
            .iter()
            .find(|r| r.kind == kind)
            .and_then(|r| r.rank_of(truth));
    }

    DocEvaluation {
        site: doc.site.to_owned(),
        url: doc.url.to_owned(),
        truth: truth.to_owned(),
        ranks,
        rankings,
        candidate_count,
    }
}

/// Evaluates a corpus on `jobs` pipeline workers, returning evaluations in
/// input order — byte-identical to the serial sweep, since each document's
/// evaluation is independent and deterministic. `jobs <= 1` (or a corpus of
/// at most one document) falls back to the serial loop and spawns nothing,
/// so callers can thread a `--jobs` flag straight through.
pub fn evaluate_corpus_parallel(
    runner: &Arc<HeuristicRunner>,
    docs: &[GeneratedDoc],
    jobs: usize,
) -> Vec<DocEvaluation> {
    if jobs <= 1 || docs.len() <= 1 {
        return docs.iter().map(|d| evaluate_document(runner, d)).collect();
    }
    let worker_runner = Arc::clone(runner);
    let run = run_ordered(
        jobs,
        docs.iter().cloned(),
        move |doc: GeneratedDoc| evaluate_document(&worker_runner, &doc),
        Arc::new(rbd_trace::NullSink),
    );
    match run {
        // A panicked job is re-evaluated serially: the experiment result
        // never depends on pipeline health.
        Ok(run) => run
            .results
            .into_iter()
            .zip(docs)
            .map(|(done, doc)| {
                done.output
                    .unwrap_or_else(|_| evaluate_document(runner, doc))
            })
            .collect(),
        // A failed spawn degrades to the serial sweep rather than losing
        // the experiment.
        Err(_) => docs.iter().map(|d| evaluate_document(runner, d)).collect(),
    }
}

/// For single-candidate documents: unanimous rank-1 rankings so compound
/// sweeps behave as the shortcut dictates.
fn synthetic_unanimous_rankings(tag: Option<String>) -> Vec<Ranking> {
    let Some(tag) = tag else {
        return Vec::new();
    };
    HeuristicKind::ALL
        .into_iter()
        .map(|kind| Ranking::from_order(kind, vec![tag.clone()]))
        .collect()
}

impl ToJson for DocEvaluation {
    // `rankings` is working state for compound-combination sweeps, not
    // report output, and is deliberately omitted.
    fn to_json(&self) -> Json {
        Json::object([
            ("site", self.site.to_json()),
            ("url", self.url.to_json()),
            ("truth", self.truth.to_json()),
            ("ranks", self.ranks.to_json()),
            ("candidate_count", self.candidate_count.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_corpus::{generate_document, sites};

    #[test]
    fn evaluates_easy_obituary_site() {
        let runner = HeuristicRunner::new().unwrap();
        let style = &sites::initial_sites(Domain::Obituaries)[0]; // Salt Lake Tribune
        let doc = generate_document(style, Domain::Obituaries, 0, crate::DEFAULT_SEED);
        let eval = evaluate_document(&runner, &doc);
        assert_eq!(eval.truth, "hr");
        assert!(eval.candidate_count >= 2);
        // IT must rank hr first on an hr-separated page.
        assert_eq!(eval.rank(HeuristicKind::IT), Some(1));
        // Every heuristic that answered ranked the truth somewhere.
        for r in &eval.rankings {
            assert!(r.rank_of("hr").is_some(), "{:?} lost the separator", r.kind);
        }
    }

    #[test]
    fn all_four_domains_evaluate() {
        let runner = HeuristicRunner::new().unwrap();
        for d in Domain::ALL {
            for style in sites::test_sites(d) {
                let doc = generate_document(&style, d, 0, crate::DEFAULT_SEED);
                let eval = evaluate_document(&runner, &doc);
                assert!(
                    eval.candidate_count >= 1,
                    "{} ({d}) produced no candidates",
                    style.site
                );
            }
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let runner = Arc::new(HeuristicRunner::new().unwrap());
        let docs: Vec<GeneratedDoc> = Domain::ALL
            .into_iter()
            .flat_map(|d| {
                sites::test_sites(d)
                    .into_iter()
                    .map(move |style| generate_document(&style, d, 0, crate::DEFAULT_SEED))
            })
            .collect();
        let serial: Vec<DocEvaluation> =
            docs.iter().map(|d| evaluate_document(&runner, d)).collect();
        for jobs in [1, 3] {
            let parallel = evaluate_corpus_parallel(&runner, &docs, jobs);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.site, p.site, "jobs={jobs}: order not restored");
                assert_eq!(s.ranks, p.ranks, "jobs={jobs}: ranks diverge at {}", s.site);
                assert_eq!(s.candidate_count, p.candidate_count, "jobs={jobs}");
            }
        }
    }
}
