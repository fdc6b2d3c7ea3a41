//! Miniature run of the paper's evaluation: calibrate certainty factors on
//! the initial corpus, sweep the 26 compound heuristics, and score the four
//! test sets. The full regeneration lives in the `experiments` binary
//! (`cargo run -p rbd-eval --bin experiments -- --all`).
//!
//! ```sh
//! cargo run --example experiments_demo
//! ```

use rbd_eval::{calibrate, combination_sweep, run_test_sets, HeuristicRunner, DEFAULT_SEED};

fn main() {
    let runner = HeuristicRunner::new().expect("domain ontologies compile");

    println!("Calibrating on 100 synthetic documents (Tables 2–4)…\n");
    let calibration = calibrate(&runner, DEFAULT_SEED, 1);
    println!("{calibration}");

    let table = calibration.certainty_table();
    let combos = combination_sweep(&calibration, &table);
    let orsih = combos.get("ORSIH").expect("ORSIH swept");
    println!(
        "Best combinations: {:?} (ORSIH: {:.2}%)\n",
        combos
            .best()
            .iter()
            .map(|r| r.combination.as_str())
            .collect::<Vec<_>>(),
        orsih.success_rate
    );

    println!("Scoring the four test sets (Tables 6–10)…\n");
    let tests = run_test_sets(&runner, &table, DEFAULT_SEED, 1);
    println!("{tests}");
}
