//! The §6 test experiments: Tables 6–9 (per-site ranks in four application
//! areas) and Table 10 (overall success rates).

use crate::runner::{evaluate_corpus, DocEvaluation, HeuristicRunner};
use crate::sc;
use rbd_certainty::{CertaintyTable, CompoundHeuristic, HeuristicSet};
use rbd_corpus::{test_corpus, Domain};
use rbd_heuristics::HeuristicKind;
use rbd_json::{Json, ToJson};
use std::fmt;

/// One row of a Table 6–9 analogue: the ranks each heuristic (and the
/// compound, column "A") gave the correct separator at one site.
#[derive(Debug, Clone)]
pub struct TestSiteRow {
    /// Site name.
    pub site: String,
    /// Site URL.
    pub url: String,
    /// Ranks in ORSIH order (`None` = unranked).
    pub ranks: [Option<usize>; 5],
    /// The compound heuristic's rank of the correct separator (the paper's
    /// column "A").
    pub compound_rank: Option<usize>,
    /// `sc(D)` for the compound on this document.
    pub sc: f64,
}

/// One domain's test table.
#[derive(Debug, Clone)]
pub struct DomainTestSet {
    /// Domain name.
    pub domain: String,
    /// Paper table number (6, 7, 8 or 9).
    pub table_number: u8,
    /// Per-site rows.
    pub rows: Vec<TestSiteRow>,
}

/// The complete §6 report: all four test sets plus the Table-10 success
/// rates.
#[derive(Debug, Clone)]
pub struct TestSetReport {
    /// Tables 6–9.
    pub sets: Vec<DomainTestSet>,
    /// Success rates of each individual heuristic over the 20 documents
    /// (ORSIH order), as percentages.
    pub individual_success: [f64; 5],
    /// The compound heuristic's success rate.
    pub compound_success: f64,
}

/// Runs the four test sets with the given certainty table, evaluating
/// documents on `jobs` pipeline workers (the report does not depend on
/// `jobs`).
pub fn run_test_sets(
    runner: &HeuristicRunner,
    table: &CertaintyTable,
    seed: u64,
    jobs: usize,
) -> TestSetReport {
    let compound = CompoundHeuristic::new(HeuristicSet::ORSIH, table.clone());
    let mut sets = Vec::new();
    let mut individual_sc = [0.0f64; 5];
    let mut compound_sc = 0.0f64;
    let mut n_docs = 0usize;

    for (domain, table_number) in [
        (Domain::Obituaries, 6u8),
        (Domain::CarAds, 7),
        (Domain::JobAds, 8),
        (Domain::Courses, 9),
    ] {
        let docs = test_corpus(domain, seed);
        let mut rows = Vec::new();
        for eval in evaluate_corpus(runner, &docs, jobs) {
            let consensus = compound.combine(&eval.rankings);
            let doc_sc = sc(&consensus.winners, &eval.truth);
            compound_sc += doc_sc;
            for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
                // Individual success: Y/X over the heuristic's rank-1 tie
                // set, the single-heuristic analogue of sc(D).
                individual_sc[i] += individual_sc_of(&eval, kind);
            }
            n_docs += 1;
            rows.push(TestSiteRow {
                site: eval.site.clone(),
                url: eval.url.clone(),
                ranks: eval.ranks,
                compound_rank: consensus.rank_of(&eval.truth),
                sc: doc_sc,
            });
        }
        sets.push(DomainTestSet {
            domain: domain.to_string(),
            table_number,
            rows,
        });
    }

    let n = n_docs as f64;
    TestSetReport {
        sets,
        individual_success: individual_sc.map(|s| 100.0 * s / n),
        compound_success: 100.0 * compound_sc / n,
    }
}

/// A single heuristic's `sc(D)`: Y/X over its rank-1 tie set.
fn individual_sc_of(eval: &DocEvaluation, kind: HeuristicKind) -> f64 {
    let Some(ranking) = eval.rankings.iter().find(|r| r.kind == kind) else {
        return 0.0;
    };
    let top: Vec<String> = ranking
        .entries
        .iter()
        .filter(|e| e.rank == 1)
        .map(|e| e.tag.clone())
        .collect();
    sc(&top, &eval.truth)
}

impl fmt::Display for DomainTestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Test set (Table {} analogue) — {}",
            self.table_number, self.domain
        )?;
        writeln!(
            f,
            "{:<30} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}",
            "Site", "OM", "RP", "SD", "IT", "HT", "A"
        )?;
        for row in &self.rows {
            let cell = |r: Option<usize>| match r {
                Some(n) => n.to_string(),
                None => "-".to_owned(),
            };
            writeln!(
                f,
                "{:<30} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}",
                row.site,
                cell(row.ranks[0]),
                cell(row.ranks[1]),
                cell(row.ranks[2]),
                cell(row.ranks[3]),
                cell(row.ranks[4]),
                cell(row.compound_rank),
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for TestSetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for set in &self.sets {
            writeln!(f, "{set}")?;
        }
        writeln!(f, "Success rates (Table 10 analogue):")?;
        for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
            writeln!(
                f,
                "  {:<6} {:>6.1}%",
                kind.to_string(),
                self.individual_success[i]
            )?;
        }
        writeln!(f, "  {:<6} {:>6.1}%", "ORSIH", self.compound_success)?;
        Ok(())
    }
}

impl ToJson for TestSiteRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("site", self.site.to_json()),
            ("url", self.url.to_json()),
            ("ranks", self.ranks.to_json()),
            ("compound_rank", self.compound_rank.to_json()),
            ("sc", self.sc.to_json()),
        ])
    }
}

impl ToJson for DomainTestSet {
    fn to_json(&self) -> Json {
        Json::object([
            ("domain", self.domain.to_json()),
            ("table_number", self.table_number.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for TestSetReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("sets", self.sets.to_json()),
            ("individual_success", self.individual_success.to_json()),
            ("compound_success", self.compound_success.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;
    use rbd_certainty::CertaintyTable;

    #[test]
    fn four_sets_of_five_sites() {
        let runner = HeuristicRunner::new().unwrap();
        let report = run_test_sets(&runner, &CertaintyTable::paper_table4(), DEFAULT_SEED, 1);
        assert_eq!(report.sets.len(), 4);
        for set in &report.sets {
            assert_eq!(set.rows.len(), 5, "{}", set.domain);
        }
    }

    #[test]
    fn compound_beats_every_individual_heuristic() {
        let runner = HeuristicRunner::new().unwrap();
        let report = run_test_sets(&runner, &CertaintyTable::paper_table4(), DEFAULT_SEED, 1);
        for (i, s) in report.individual_success.iter().enumerate() {
            assert!(
                report.compound_success >= *s,
                "heuristic {i} ({s:.1}%) beats ORSIH ({:.1}%)",
                report.compound_success
            );
        }
    }

    #[test]
    fn report_renders() {
        let runner = HeuristicRunner::new().unwrap();
        let report = run_test_sets(&runner, &CertaintyTable::paper_table4(), DEFAULT_SEED, 1);
        let text = report.to_string();
        assert!(text.contains("Table 6 analogue"));
        assert!(text.contains("ORSIH"));
    }
}
