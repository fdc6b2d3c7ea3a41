//! Multi-seed robustness: the reproduction must not be a single-corpus
//! accident. This module reruns the full calibrate-then-test experiment
//! across many seeds and summarizes the Table-10 quantities as
//! mean / min / max.

use crate::calibration::calibrate;
use crate::runner::HeuristicRunner;
use crate::testsets::run_test_sets;
use rbd_heuristics::HeuristicKind;
use rbd_json::{Json, ToJson};
use std::fmt;

/// Summary statistics for one success-rate series.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// Mean over seeds (percent).
    pub mean: f64,
    /// Minimum over seeds.
    pub min: f64,
    /// Maximum over seeds.
    pub max: f64,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        let n = values.len() as f64;
        Stat {
            mean: values.iter().sum::<f64>() / n,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// The multi-seed report: Table-10 statistics across seeds.
#[derive(Debug, Clone)]
pub struct SeedSweep {
    /// The seeds exercised.
    pub seeds: Vec<u64>,
    /// Per-heuristic success-rate statistics, ORSIH order.
    pub individual: [Stat; 5],
    /// Compound (ORSIH) success-rate statistics.
    pub compound: Stat,
    /// Number of seeds on which ORSIH scored a perfect 100 %.
    pub perfect_seeds: usize,
}

/// Runs the full experiment (fresh calibration + test sets) for each seed,
/// evaluating documents on `jobs` pipeline workers.
pub fn seed_sweep(runner: &HeuristicRunner, seeds: &[u64], jobs: usize) -> SeedSweep {
    let mut individual: [Vec<f64>; 5] = Default::default();
    let mut compound = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let calibration = calibrate(runner, seed, jobs);
        let table = calibration.certainty_table();
        let report = run_test_sets(runner, &table, seed, jobs);
        for (series, value) in individual.iter_mut().zip(report.individual_success) {
            series.push(value);
        }
        compound.push(report.compound_success);
    }
    let perfect_seeds = compound.iter().filter(|&&c| c >= 100.0 - 1e-9).count();
    SeedSweep {
        seeds: seeds.to_vec(),
        individual: [
            Stat::of(&individual[0]),
            Stat::of(&individual[1]),
            Stat::of(&individual[2]),
            Stat::of(&individual[3]),
            Stat::of(&individual[4]),
        ],
        compound: Stat::of(&compound),
        perfect_seeds,
    }
}

impl fmt::Display for SeedSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Robustness across {} seeds (Table-10 quantities, mean [min..max]):",
            self.seeds.len()
        )?;
        for (kind, stat) in HeuristicKind::ALL.into_iter().zip(self.individual) {
            writeln!(
                f,
                "  {:<6} {:>5.1}% [{:>5.1} .. {:>5.1}]",
                kind.to_string(),
                stat.mean,
                stat.min,
                stat.max
            )?;
        }
        writeln!(
            f,
            "  {:<6} {:>5.1}% [{:>5.1} .. {:>5.1}]  (perfect on {}/{} seeds)",
            "ORSIH",
            self.compound.mean,
            self.compound.min,
            self.compound.max,
            self.perfect_seeds,
            self.seeds.len()
        )
    }
}

impl ToJson for Stat {
    fn to_json(&self) -> Json {
        Json::object([
            ("mean", self.mean.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

impl ToJson for SeedSweep {
    fn to_json(&self) -> Json {
        Json::object([
            ("seeds", self.seeds.to_json()),
            ("individual", self.individual.to_json()),
            ("compound", self.compound.to_json()),
            ("perfect_seeds", self.perfect_seeds.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_holds_across_seeds() {
        let runner = HeuristicRunner::new().unwrap();
        let seeds: Vec<u64> = (0..5).map(|i| 1000 + i * 37).collect();
        let sweep = seed_sweep(&runner, &seeds, 1);
        assert_eq!(sweep.seeds.len(), 5);
        // The compound never dips below the strongest individual's floor by
        // much, and stays uniformly high.
        assert!(
            sweep.compound.min >= 90.0,
            "compound fell to {:.1}%",
            sweep.compound.min
        );
        // IT > HT on average (the paper's strongest/weakest ordering).
        assert!(sweep.individual[3].mean > sweep.individual[4].mean);
        // Most seeds are perfect.
        assert!(sweep.perfect_seeds * 2 >= sweep.seeds.len());
    }

    #[test]
    fn stat_of_computes_bounds() {
        let s = Stat::of(&[90.0, 95.0, 100.0]);
        assert!((s.mean - 95.0).abs() < 1e-9);
        assert_eq!(s.min, 90.0);
        assert_eq!(s.max, 100.0);
    }
}
