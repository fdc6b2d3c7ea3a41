//! Headline evaluation invariants: the reproduced experiments must show the
//! paper's qualitative results at the default seed *and* stay robust across
//! other seeds.

use rbd_certainty::CertaintyTable;
use rbd_eval::{calibrate, combination_sweep, run_test_sets, HeuristicRunner, DEFAULT_SEED};

#[test]
fn headline_orsih_is_100_percent_on_test_sets() {
    let runner = HeuristicRunner::new().unwrap();
    let calibration = calibrate(&runner, DEFAULT_SEED, 1);
    let table = calibration.certainty_table();
    let report = run_test_sets(&runner, &table, DEFAULT_SEED, 1);
    assert_eq!(
        report.compound_success, 100.0,
        "paper: ORSIH attains 100% accuracy on all twenty sites\n{report}"
    );
    // The compound rank column ("A") is 1 everywhere, as in Tables 6–9.
    for set in &report.sets {
        for row in &set.rows {
            assert_eq!(row.compound_rank, Some(1), "{}: {:?}", set.domain, row);
        }
    }
}

#[test]
fn individual_heuristic_ordering_matches_table_10() {
    // Paper Table 10: IT (95) > OM (80) > RP (75) > SD (65) > HT (45);
    // ORSIH 100. We assert the qualitative ordering: IT strongest,
    // HT weakest, compound above all.
    let runner = HeuristicRunner::new().unwrap();
    let report = run_test_sets(&runner, &CertaintyTable::paper_table4(), DEFAULT_SEED, 1);
    let [om, rp, sd, it, ht] = report.individual_success;
    assert!(it >= om && it >= rp && it >= sd && it >= ht, "IT strongest");
    assert!(ht <= om && ht <= rp && ht <= sd, "HT weakest");
    assert!(
        report.compound_success >= it,
        "compound beats best individual"
    );
}

#[test]
fn calibrated_factors_resemble_paper_table_4() {
    // Structure, not exact numbers: rank-1 mass dominates for every
    // heuristic, IT's rank-1 mass is the largest, HT's the smallest.
    let runner = HeuristicRunner::new().unwrap();
    let report = calibrate(&runner, DEFAULT_SEED, 1);
    let rank1: Vec<f64> = report.table4.iter().map(|row| row[0]).collect();
    for (i, &r1) in rank1.iter().enumerate() {
        let rest: f64 = report.table4[i][1..].iter().sum();
        assert!(
            r1 >= rest - 1e-9,
            "heuristic {i}: rank-1 {r1} < rest {rest}"
        );
    }
    let it = rank1[3];
    let ht = rank1[4];
    assert!(
        rank1.iter().all(|&r| it >= r),
        "IT has the best rank-1 rate"
    );
    assert!(
        rank1.iter().all(|&r| ht <= r),
        "HT has the worst rank-1 rate"
    );
}

#[test]
fn it_containing_combinations_dominate_table_5() {
    // Paper: "all the combinations that include IT have high success rates
    // (over 90%)".
    let runner = HeuristicRunner::new().unwrap();
    let calibration = calibrate(&runner, DEFAULT_SEED, 1);
    let table = calibration.certainty_table();
    let report = combination_sweep(&calibration, &table);
    for r in &report.results {
        if r.combination.contains('I') {
            assert!(
                r.success_rate >= 90.0,
                "{} only {:.2}%",
                r.combination,
                r.success_rate
            );
        }
    }
    // ORSIH is among the best.
    assert!(report.best().iter().any(|r| r.combination == "ORSIH"));
}

#[test]
fn results_hold_across_seeds() {
    // The reproduction must not be a single-seed accident: across several
    // seeds, ORSIH stays ≥ 95 % on the test sets and the IT-best/HT-worst
    // ordering persists.
    let runner = HeuristicRunner::new().unwrap();
    for seed in [7, 42, 2024] {
        let calibration = calibrate(&runner, seed, 1);
        let table = calibration.certainty_table();
        let report = run_test_sets(&runner, &table, seed, 1);
        assert!(
            report.compound_success >= 95.0,
            "seed {seed}: ORSIH fell to {:.1}%",
            report.compound_success
        );
        let [_, _, _, it, ht] = report.individual_success;
        assert!(it > ht, "seed {seed}: IT ({it}) not above HT ({ht})");
    }
}

#[test]
fn experiments_are_deterministic() {
    let runner = HeuristicRunner::new().unwrap();
    let a = calibrate(&runner, DEFAULT_SEED, 1);
    let b = calibrate(&runner, DEFAULT_SEED, 1);
    assert_eq!(a.table4, b.table4);
    let ta = a.certainty_table();
    let ra = run_test_sets(&runner, &ta, DEFAULT_SEED, 1);
    let rb = run_test_sets(&runner, &ta, DEFAULT_SEED, 1);
    assert_eq!(ra.individual_success, rb.individual_success);
    assert_eq!(ra.compound_success, rb.compound_success);
}

#[test]
fn boundary_discovery_is_immune_to_lexical_noise() {
    // The paper separates the structural problem (this paper) from the
    // lexical one (its companion papers). Out-of-lexicon noise that drops
    // extraction recall to real-world levels must leave the discovered
    // separators untouched — all heuristics except OM read structure only,
    // and OM's estimate degrades gracefully.
    use rbd_certainty::CompoundHeuristic;
    use rbd_corpus::{generate_document, sites, Domain};
    use rbd_eval::{evaluate_document, sc};

    let runner = HeuristicRunner::new().unwrap();
    let calibration = calibrate(&runner, DEFAULT_SEED, 1);
    let compound = CompoundHeuristic::new("ORSIH".parse().unwrap(), calibration.certainty_table());

    for domain in Domain::ALL {
        for mut style in sites::test_sites(domain) {
            style.oov = 0.30;
            let doc = generate_document(&style, domain, 0, DEFAULT_SEED);
            let eval = evaluate_document(&runner, &doc);
            let consensus = compound.combine(&eval.rankings);
            assert_eq!(
                sc(&consensus.winners, &eval.truth),
                1.0,
                "{} ({domain}) under noise: winners {:?}",
                style.site,
                consensus.winners
            );
        }
    }
}

/// FNV-1a over a stream of byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, json: &rbd_json::Json) {
        for b in json.to_compact().bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The experiment report's digest per seed: calibration (Tables 2–4), the
/// Table-5 sweep, and the test sets (Tables 6–10) and ablations under both
/// the calibrated table and the paper's Table 4.
const REPORT_DIGESTS: [(u64, u64); 3] = [
    (DEFAULT_SEED, 0xcd8c_3c19_539a_562c),
    (1000, 0x6d39_3a5a_2fc3_c022),
    (2024, 0x63ee_04fb_cb18_cd7a),
];

/// The digest of `extraction_quality(DEFAULT_SEED)`.
const EXTRACTION_DIGEST: u64 = 0x3476_689a_0b50_0fce;

#[test]
fn experiment_report_digest_is_pinned() {
    // Every cell of the reproduced tables, not just their shape: a change
    // meant to keep the tables byte-identical must leave these constants
    // as they are. The digests must not depend on the worker count.
    use rbd_eval::{extraction_quality, run_ablations};
    use rbd_json::ToJson;

    let runner = HeuristicRunner::new().unwrap();
    for jobs in [1, 2] {
        for (seed, pinned) in REPORT_DIGESTS {
            let mut h = Fnv::new();
            let calibration = calibrate(&runner, seed, jobs);
            let calibrated = calibration.certainty_table();
            h.write(&calibration.to_json());
            h.write(&combination_sweep(&calibration, &calibrated).to_json());
            for table in [calibrated, CertaintyTable::paper_table4()] {
                h.write(&run_test_sets(&runner, &table, seed, jobs).to_json());
                h.write(&run_ablations(&table, seed).unwrap().to_json());
            }
            assert_eq!(h.0, pinned, "seed {seed}, jobs {jobs}: {:#018x}", h.0);
        }
    }
    let mut h = Fnv::new();
    h.write(&extraction_quality(DEFAULT_SEED).unwrap().to_json());
    assert_eq!(h.0, EXTRACTION_DIGEST, "extraction: {:#018x}", h.0);
}
