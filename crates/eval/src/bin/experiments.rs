//! `experiments` — regenerate the paper's tables.
//!
//! ```text
//! experiments [--table N | --all] [--seed S] [--paper-cf] [--ablations]
//!             [--seeds N] [--extraction] [--jobs N] [--json]
//! ```
//!
//! * `--table N` prints the analogue of paper table N (1–10).
//! * `--all` (default) prints everything in order.
//! * `--seed S` sets the corpus seed (default [`DEFAULT_SEED`]).
//! * `--paper-cf` uses the paper's published Table 4 certainty factors for
//!   tables 5–10 instead of the freshly calibrated ones.
//! * `--ablations` additionally runs the design-choice ablations
//!   (threshold sweep, fan-out vs root, leave-one-out subsets).
//! * `--seeds N` reruns the whole experiment for N seeds and reports the
//!   Table-10 quantities as mean/min/max (robustness check).
//! * `--extraction` scores end-to-end extraction quality (the §2 context's
//!   recall/precision) against the corpus ground truth.
//! * `--jobs N` evaluates documents on N pipeline workers (default 1);
//!   the tables are identical for every N.
//! * `--json` emits machine-readable JSON instead of text tables.

#![forbid(unsafe_code)]

use rbd_certainty::CertaintyTable;
use rbd_corpus::{sites, Domain};
use rbd_eval::{
    calibrate, combination_sweep, extraction_quality, run_ablations, run_test_sets, seed_sweep,
    HeuristicRunner, DEFAULT_SEED,
};
use rbd_json::{Json, ToJson};
use std::process::ExitCode;

struct Args {
    table: Option<u8>,
    seed: u64,
    paper_cf: bool,
    json: bool,
    ablations: bool,
    sweep_seeds: Option<usize>,
    extraction: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        table: None,
        seed: DEFAULT_SEED,
        paper_cf: false,
        json: false,
        ablations: false,
        sweep_seeds: None,
        extraction: false,
        jobs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--table" => {
                let v = it.next().ok_or("--table needs a number")?;
                let n: u8 = v.parse().map_err(|_| format!("bad table number {v}"))?;
                if !(1..=10).contains(&n) {
                    return Err(format!("table {n} out of range 1-10"));
                }
                args.table = Some(n);
            }
            "--all" => args.table = None,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--paper-cf" => args.paper_cf = true,
            "--json" => args.json = true,
            "--ablations" => args.ablations = true,
            "--extraction" => args.extraction = true,
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a count")?;
                args.sweep_seeds = Some(v.parse().map_err(|_| format!("bad count {v}"))?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a worker count")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count {v}"))?;
                if n == 0 {
                    return Err("--jobs needs a positive worker count".to_owned());
                }
                args.jobs = n;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--table N | --all] [--seed S] [--paper-cf] \
                     [--ablations] [--seeds N] [--extraction] [--jobs N] [--json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn print_table1() {
    println!("On-line newspapers for initial experiments (Table 1 analogue)");
    println!("{:<28} URL", "On-line Newspaper");
    for s in sites::initial_sites(Domain::Obituaries) {
        println!("{:<28} {}", s.site, s.url);
    }
    println!();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let runner = match HeuristicRunner::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error compiling domain ontologies: {e}");
            return ExitCode::FAILURE;
        }
    };

    let want = |n: u8| args.table.is_none() || args.table == Some(n);

    if want(1) && !args.json {
        print_table1();
    }

    let needs_calibration =
        (2..=10).any(want) || args.ablations || args.sweep_seeds.is_some() || args.extraction;
    if !needs_calibration {
        return ExitCode::SUCCESS;
    }

    let calibration = calibrate(&runner, args.seed, args.jobs);
    let table: CertaintyTable = if args.paper_cf {
        CertaintyTable::paper_table4()
    } else {
        calibration.certainty_table()
    };

    if args.json {
        // One JSON object with everything requested.
        let combos = combination_sweep(&calibration, &table);
        let tests = run_test_sets(&runner, &table, args.seed, args.jobs);
        let ablations = if args.ablations {
            match run_ablations(&table, args.seed) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("ablation error: {e}");
                    None
                }
            }
        } else {
            None
        };
        // Serialization is total (rbd-json): no fallible path, no expect.
        let blob = Json::object([
            ("seed", args.seed.to_json()),
            ("paper_cf", args.paper_cf.to_json()),
            ("calibration", calibration.to_json()),
            ("combinations", combos.to_json()),
            ("test_sets", tests.to_json()),
            ("ablations", ablations.to_json()),
        ]);
        println!("{}", blob.to_pretty());
        return ExitCode::SUCCESS;
    }

    if want(2) {
        println!("{}", calibration.obituaries);
    }
    if want(3) {
        println!("{}", calibration.car_ads);
    }
    if want(4) {
        println!("Measured certainty factors (Table 4 analogue):");
        println!("{}", calibration.certainty_table());
        if args.paper_cf {
            println!("(--paper-cf: downstream tables use the paper's Table 4 instead)");
            println!("{}", CertaintyTable::paper_table4());
        }
    }
    if want(5) {
        println!("{}", combination_sweep(&calibration, &table));
    }
    if (6..=10).any(want) {
        let report = run_test_sets(&runner, &table, args.seed, args.jobs);
        for set in &report.sets {
            if want(set.table_number) {
                println!("{set}");
            }
        }
        if want(10) {
            println!("Success rates (Table 10 analogue):");
            let kinds = ["OM", "RP", "SD", "IT", "HT"];
            for (k, s) in kinds.iter().zip(report.individual_success) {
                println!("  {k:<6} {s:>6.1}%");
            }
            println!("  {:<6} {:>6.1}%", "ORSIH", report.compound_success);
        }
    }
    if args.ablations {
        println!();
        match run_ablations(&table, args.seed) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("ablation error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(n) = args.sweep_seeds {
        let seeds: Vec<u64> = (0..n as u64)
            .map(|i| args.seed.wrapping_add(i * 97))
            .collect();
        println!();
        println!("{}", seed_sweep(&runner, &seeds, args.jobs));
    }
    if args.extraction {
        println!();
        match extraction_quality(args.seed) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("extraction error: {e}");
                return ExitCode::FAILURE;
            }
        }
        for oov in [0.15, 0.30] {
            println!("\nWith out-of-lexicon noise (oov = {oov:.2}):");
            match rbd_eval::extraction_quality_with_oov(args.seed, oov) {
                Ok(report) => {
                    for d in &report.domains {
                        println!(
                            "  {:<34} recall {:>5.1}%  precision {:>5.1}%",
                            d.domain,
                            d.recall() * 100.0,
                            d.precision() * 100.0
                        );
                    }
                }
                Err(e) => {
                    eprintln!("extraction error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
