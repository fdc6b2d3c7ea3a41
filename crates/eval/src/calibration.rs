//! The initial experiments (§5.2): rank distributions (Tables 2 and 3) and
//! derived certainty factors (Table 4).

use crate::runner::{evaluate_corpus, DocEvaluation, HeuristicRunner};
use rbd_certainty::{CertaintyFactor, CertaintyTable};
use rbd_corpus::{initial_corpus, Domain};
use rbd_heuristics::HeuristicKind;
use rbd_json::{Json, ToJson};
use std::fmt;

/// Where the correct separator landed for one heuristic, as percentages of
/// documents: index 0 = rank 1, … index 3 = rank 4; `beyond` counts rank>4
/// or unranked/abstained documents.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankDistribution {
    /// Percentages for ranks 1–4.
    pub percent: [f64; 4],
    /// Percentage beyond rank 4 or unranked.
    pub beyond: f64,
}

impl RankDistribution {
    fn from_ranks(ranks: impl Iterator<Item = Option<usize>>, total: usize) -> Self {
        let mut counts = [0usize; 4];
        let mut beyond = 0usize;
        for rank in ranks {
            match rank {
                Some(r @ 1..=4) => counts[r - 1] += 1,
                _ => beyond += 1,
            }
        }
        let pct = |c: usize| 100.0 * c as f64 / total as f64;
        RankDistribution {
            percent: [
                pct(counts[0]),
                pct(counts[1]),
                pct(counts[2]),
                pct(counts[3]),
            ],
            beyond: pct(beyond),
        }
    }
}

/// One domain's calibration run: Table 2 (obituaries) or Table 3 (car ads).
#[derive(Debug, Clone)]
pub struct DomainCalibration {
    /// The calibration domain.
    pub domain: String,
    /// Distributions in ORSIH order.
    pub distributions: [RankDistribution; 5],
    /// Number of documents evaluated.
    pub documents: usize,
    /// Per-document evaluations (kept for the Table-5 combination sweep).
    pub evaluations: Vec<DocEvaluation>,
}

/// The complete calibration: both domains plus the averaged Table 4.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Table 2.
    pub obituaries: DomainCalibration,
    /// Table 3.
    pub car_ads: DomainCalibration,
    /// Table 4 percentages (averaged), ORSIH order × ranks 1–4.
    pub table4: [[f64; 4]; 5],
}

impl CalibrationReport {
    /// Builds a [`CertaintyTable`] from the measured Table 4.
    pub fn certainty_table(&self) -> CertaintyTable {
        let mut t = CertaintyTable::from_percentages([]);
        for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
            for rank in 1..=4 {
                t.set_factor(
                    kind,
                    rank,
                    CertaintyFactor::from_percent(self.table4[i][rank - 1]),
                );
            }
        }
        t
    }
}

/// Runs the initial experiments: 10 sites × 5 documents for each of the two
/// calibration domains, evaluated on `jobs` pipeline workers (the report
/// does not depend on `jobs`).
pub fn calibrate(runner: &HeuristicRunner, seed: u64, jobs: usize) -> CalibrationReport {
    let run_domain = |domain| {
        let evaluations = evaluate_corpus(runner, &initial_corpus(domain, seed), jobs);
        summarize_domain(domain, evaluations)
    };
    let obituaries = run_domain(Domain::Obituaries);
    let car_ads = run_domain(Domain::CarAds);
    let mut table4 = [[0.0; 4]; 5];
    for (i, row) in table4.iter_mut().enumerate() {
        for (r, cell) in row.iter_mut().enumerate() {
            *cell = (obituaries.distributions[i].percent[r] + car_ads.distributions[i].percent[r])
                / 2.0;
        }
    }
    CalibrationReport {
        obituaries,
        car_ads,
        table4,
    }
}

fn summarize_domain(domain: Domain, evaluations: Vec<DocEvaluation>) -> DomainCalibration {
    let total = evaluations.len();
    let mut distributions = [RankDistribution::default(); 5];
    for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
        distributions[i] =
            RankDistribution::from_ranks(evaluations.iter().map(|e| e.rank(kind)), total);
    }
    DomainCalibration {
        domain: domain.to_string(),
        distributions,
        documents: total,
        evaluations,
    }
}

impl fmt::Display for DomainCalibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Rank distribution — {} ({} documents)",
            self.domain, self.documents
        )?;
        writeln!(
            f,
            "{:<10} {:>7} {:>7} {:>7} {:>7} {:>8}",
            "Heuristic", "1", "2", "3", "4", ">4/none"
        )?;
        for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
            let d = &self.distributions[i];
            writeln!(
                f,
                "{:<10} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%",
                kind.to_string(),
                d.percent[0],
                d.percent[1],
                d.percent[2],
                d.percent[3],
                d.beyond
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.obituaries)?;
        writeln!(f, "{}", self.car_ads)?;
        writeln!(f, "Certainty factors (Table 4 analogue, averaged):")?;
        writeln!(
            f,
            "{:<10} {:>7} {:>7} {:>7} {:>7}",
            "Heuristic", "1", "2", "3", "4"
        )?;
        for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
            let row = self.table4[i];
            writeln!(
                f,
                "{:<10} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
                kind.to_string(),
                row[0],
                row[1],
                row[2],
                row[3]
            )?;
        }
        Ok(())
    }
}

impl ToJson for RankDistribution {
    fn to_json(&self) -> Json {
        Json::object([
            ("percent", self.percent.to_json()),
            ("beyond", self.beyond.to_json()),
        ])
    }
}

impl ToJson for DomainCalibration {
    // `evaluations` is working state for the combination sweep, not report
    // output, and is deliberately omitted.
    fn to_json(&self) -> Json {
        Json::object([
            ("domain", self.domain.to_json()),
            ("distributions", self.distributions.to_json()),
            ("documents", self.documents.to_json()),
        ])
    }
}

impl ToJson for CalibrationReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("obituaries", self.obituaries.to_json()),
            ("car_ads", self.car_ads.to_json()),
            ("table4", self.table4.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn calibration_covers_100_documents() {
        let runner = HeuristicRunner::new().unwrap();
        let report = calibrate(&runner, DEFAULT_SEED, 1);
        assert_eq!(report.obituaries.documents, 50);
        assert_eq!(report.car_ads.documents, 50);
    }

    #[test]
    fn distributions_sum_to_100() {
        let runner = HeuristicRunner::new().unwrap();
        let report = calibrate(&runner, DEFAULT_SEED, 1);
        for dc in [&report.obituaries, &report.car_ads] {
            for d in &dc.distributions {
                let sum: f64 = d.percent.iter().sum::<f64>() + d.beyond;
                assert!((sum - 100.0).abs() < 1e-9, "{sum}");
            }
        }
    }

    #[test]
    fn certainty_table_reflects_table4() {
        let runner = HeuristicRunner::new().unwrap();
        let report = calibrate(&runner, DEFAULT_SEED, 1);
        let t = report.certainty_table();
        let om_rank1 = t.factor(HeuristicKind::OM, 1).percent();
        assert!((om_rank1 - report.table4[0][0]).abs() < 1e-9);
    }
}
