//! Per-document evaluation: run the shipped [`RecordExtractor`] under the
//! document's domain ontology and record where the ground-truth separator
//! landed in each heuristic's ranking.

use rbd_core::{DiscoveryError, ExtractorConfig, RecordExtractor};
use rbd_corpus::{Domain, GeneratedDoc};
use rbd_heuristics::{HeuristicKind, Ranking};
use rbd_json::{Json, ToJson};
use rbd_pipeline::run_ordered;

/// One [`RecordExtractor`] per domain, each under its domain's ontology so
/// OM votes. The extractors are compiled once; pipeline workers borrow
/// them.
#[derive(Debug, Clone)]
pub struct HeuristicRunner {
    extractors: [RecordExtractor; 4],
}

impl HeuristicRunner {
    /// The paper's configuration (`ExtractorConfig::default()`) for all
    /// four domains.
    pub fn new() -> Result<Self, DiscoveryError> {
        Self::with_config(&ExtractorConfig::default())
    }

    /// `config` plus each domain's ontology, compiled for all four domains.
    pub fn with_config(config: &ExtractorConfig) -> Result<Self, DiscoveryError> {
        let extractor =
            |domain: Domain| RecordExtractor::new(config.clone().with_ontology(domain.ontology()));
        Ok(HeuristicRunner {
            extractors: [
                extractor(Domain::Obituaries)?,
                extractor(Domain::CarAds)?,
                extractor(Domain::JobAds)?,
                extractor(Domain::Courses)?,
            ],
        })
    }

    /// The extractor bound to `domain`'s ontology.
    pub fn extractor(&self, domain: Domain) -> &RecordExtractor {
        let [obituaries, car_ads, job_ads, courses] = &self.extractors;
        match domain {
            Domain::Obituaries => obituaries,
            Domain::CarAds => car_ads,
            Domain::JobAds => job_ads,
            Domain::Courses => courses,
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

/// Evaluates one generated document: runs discovery and records the true
/// separator's rank in each heuristic's ranking.
pub fn evaluate_document(runner: &HeuristicRunner, doc: &GeneratedDoc) -> DocEvaluation {
    // A document discovery rejects (no tags, no candidates) has nothing to
    // rank: it counts as zero candidates.
    let (candidates, rankings) = match runner.extractor(doc.domain).discover(&doc.html) {
        Ok(outcome) => (outcome.candidates, outcome.rankings),
        Err(_) => (Vec::new(), Vec::new()),
    };
    let candidate_count = candidates.len();

    let truth = doc.truth.separator.as_str();
    if candidate_count <= 1 {
        // §3 shortcut: every heuristic would be skipped; model them as all
        // agreeing on the sole candidate.
        let sole = candidates.into_iter().next().map(|c| c.name);
        let rank = sole.as_ref().map(|name| if name == truth { 1 } else { 2 });
        return DocEvaluation {
            site: doc.site.to_owned(),
            url: doc.url.to_owned(),
            truth: truth.to_owned(),
            ranks: [rank; 5],
            rankings: synthetic_unanimous_rankings(sole),
            candidate_count,
        };
    }

    let ranks = HeuristicKind::ALL.map(|kind| {
        rankings
            .iter()
            .find(|r| r.kind == kind)
            .and_then(|r| r.rank_of(truth))
    });
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
/// input order. Each document's evaluation is independent and
/// deterministic, so the result does not depend on `jobs`. A panic inside
/// a job is re-raised here, as a serial loop would raise it.
pub fn evaluate_corpus(
    runner: &HeuristicRunner,
    docs: &[GeneratedDoc],
    jobs: usize,
) -> Vec<DocEvaluation> {
    let run = run_ordered(
        jobs,
        docs,
        |doc: &GeneratedDoc| evaluate_document(runner, doc),
        &rbd_trace::NullSink,
    );
    // rbd-lint: allow(panic) — an experiment has no partial result to return
    let run = run.unwrap_or_else(|e| panic!("evaluation pool failed: {e}"));
    run.results
        .into_iter()
        // rbd-lint: allow(panic) — re-raises the job's own panic on the caller
        .map(|done| done.output.unwrap_or_else(|e| panic!("{}", e.message)))
        .collect()
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
        let runner = HeuristicRunner::new().unwrap();
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
            let parallel = evaluate_corpus(&runner, &docs, jobs);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.site, p.site, "jobs={jobs}: order not restored");
                assert_eq!(s.ranks, p.ranks, "jobs={jobs}: ranks diverge at {}", s.site);
                assert_eq!(s.candidate_count, p.candidate_count, "jobs={jobs}");
            }
        }
    }
}
