//! The Table-5 sweep: success rates of all 26 compound-heuristic
//! combinations over the 100 calibration documents.

use crate::calibration::CalibrationReport;
use crate::sc;
use rbd_certainty::{CertaintyTable, CompoundHeuristic, HeuristicSet};
use rbd_json::{Json, ToJson};
use std::fmt;

/// One combination's success rate.
#[derive(Debug, Clone)]
pub struct CombinationResult {
    /// The combination in letter notation (`OR`, `RSIH`, …).
    pub combination: String,
    /// Mean `sc(D)` over all calibration documents, as a percentage.
    pub success_rate: f64,
}

/// The full Table-5 analogue.
#[derive(Debug, Clone)]
pub struct CombinationReport {
    /// All 26 combinations in the paper's order.
    pub results: Vec<CombinationResult>,
}

impl CombinationReport {
    /// The result for one combination.
    pub fn get(&self, combination: &str) -> Option<&CombinationResult> {
        self.results.iter().find(|r| r.combination == combination)
    }

    /// Combinations achieving the best success rate.
    pub fn best(&self) -> Vec<&CombinationResult> {
        let max = self
            .results
            .iter()
            .map(|r| r.success_rate)
            .fold(0.0, f64::max);
        self.results
            .iter()
            .filter(|r| (r.success_rate - max).abs() < 1e-9)
            .collect()
    }
}

/// Sweeps all 26 combinations using the given certainty table (normally
/// the one calibrated from the same documents, as the paper did).
pub fn combination_sweep(
    calibration: &CalibrationReport,
    table: &CertaintyTable,
) -> CombinationReport {
    let evaluations = calibration
        .obituaries
        .evaluations
        .iter()
        .chain(&calibration.car_ads.evaluations);
    let all: Vec<_> = evaluations.collect();

    let results = HeuristicSet::all_compound()
        .into_iter()
        .map(|set| {
            let compound = CompoundHeuristic::new(set, table.clone());
            let total: f64 = all
                .iter()
                .map(|e| {
                    let consensus = compound.combine(&e.rankings);
                    sc(&consensus.winners, &e.truth)
                })
                .sum();
            CombinationResult {
                combination: set.to_string(),
                success_rate: 100.0 * total / all.len() as f64,
            }
        })
        .collect();
    CombinationReport { results }
}

impl fmt::Display for CombinationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Success rates of all compound heuristics (Table 5 analogue)"
        )?;
        // Two columns of 13, like the paper.
        let half = self.results.len().div_ceil(2);
        for i in 0..half {
            let left = &self.results[i];
            write!(f, "{:<8} {:>7.2}%", left.combination, left.success_rate)?;
            if let Some(right) = self.results.get(half + i) {
                write!(
                    f,
                    "    {:<8} {:>7.2}%",
                    right.combination, right.success_rate
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl ToJson for CombinationResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("combination", self.combination.to_json()),
            ("success_rate", self.success_rate.to_json()),
        ])
    }
}

impl ToJson for CombinationReport {
    fn to_json(&self) -> Json {
        Json::object([("results", self.results.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrate;
    use crate::runner::HeuristicRunner;
    use crate::DEFAULT_SEED;

    #[test]
    fn sweep_covers_26_combinations_and_orsih_wins() {
        let runner = HeuristicRunner::new().unwrap();
        let cal = calibrate(&runner, DEFAULT_SEED, 1);
        let table = cal.certainty_table();
        let report = combination_sweep(&cal, &table);
        assert_eq!(report.results.len(), 26);
        let orsih = report.get("ORSIH").expect("ORSIH present");
        // The paper's headline: the all-five compound achieves (near-)100 %.
        assert!(
            orsih.success_rate >= 95.0,
            "ORSIH only reached {:.2}%",
            orsih.success_rate
        );
        // And it is among the best combinations.
        assert!(report
            .best()
            .iter()
            .any(|r| r.combination == "ORSIH" || r.success_rate <= orsih.success_rate + 1e-9));
    }
}
