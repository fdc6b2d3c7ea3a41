//! End-to-end Figure-1 pipeline tests: generated page → boundary discovery →
//! chunking → recognition → database population.

use rbd::prelude::*;
use rbd_corpus::{generate_document, sites, Domain};
use rbd_db::InstanceGenerator;
use rbd_ontology::domains;
use rbd_recognizer::Recognizer;

fn pipeline(domain: Domain, site_idx: usize, seed: u64) -> (usize, rbd_db::Database) {
    let ontology = domain.ontology();
    let style = &sites::initial_sites(domain)[site_idx];
    let doc = generate_document(style, domain, 0, seed);
    let extractor =
        RecordExtractor::new(ExtractorConfig::default().with_ontology(ontology.clone())).unwrap();
    let extraction = extractor.extract_records(&doc.html).unwrap();
    assert_eq!(
        extraction.outcome.separator, doc.truth.separator,
        "wrong separator on {} ({domain})",
        doc.site
    );
    let recognizer = Recognizer::new(&ontology).unwrap();
    let tables: Vec<_> = extraction
        .records
        .iter()
        .map(|r| recognizer.recognize(&r.text))
        .collect();
    let db = InstanceGenerator::new(&ontology).populate(&tables);
    (doc.truth.record_count, db)
}

#[test]
fn obituary_pipeline_populates_one_row_per_record() {
    let (n, db) = pipeline(Domain::Obituaries, 0, 1998);
    let deceased = db.table("Deceased").unwrap();
    assert_eq!(deceased.len(), n);
    // Every record has a recognized death date (the generator always emits
    // a "died on"/"passed away on" sentence).
    assert_eq!(deceased.project("DeathDate").len(), n);
    // Names are proper names, not "(unrecognized)".
    let unrecognized = deceased
        .project("DeceasedName")
        .iter()
        .filter(|v| **v == "(unrecognized)")
        .count();
    assert!(
        unrecognized * 5 <= n,
        "{unrecognized}/{n} names unrecognized"
    );
}

#[test]
fn car_pipeline_recognizes_core_fields() {
    let (n, db) = pipeline(Domain::CarAds, 0, 7);
    let cars = db.table("CarForSale").unwrap();
    assert_eq!(cars.len(), n);
    assert_eq!(cars.project("Year").len(), n);
    assert_eq!(cars.project("Make").len(), n);
    assert_eq!(cars.project("Price").len(), n);
    // Features satellite has multiple rows per ad on average.
    let features = db.table("CarForSale_Feature").unwrap();
    assert!(
        features.len() >= n,
        "{} features for {n} ads",
        features.len()
    );
}

#[test]
fn job_pipeline_recognizes_titles_and_skills() {
    let (n, db) = pipeline(Domain::JobAds, 0, 13);
    let jobs = db.table("JobOpening").unwrap();
    assert_eq!(jobs.len(), n);
    assert_eq!(jobs.project("JobTitle").len(), n);
    let skills = db.table("JobOpening_Skill").unwrap();
    assert!(skills.len() >= n);
}

#[test]
fn course_pipeline_recognizes_numbers() {
    let (n, db) = pipeline(Domain::Courses, 0, 21);
    let courses = db.table("Course").unwrap();
    assert_eq!(courses.len(), n);
    assert_eq!(courses.project("CourseNumber").len(), n);
}

#[test]
fn pipeline_works_across_many_sites_and_seeds() {
    for domain in Domain::ALL {
        for seed in [1, 2, 3] {
            for site_idx in 0..sites::initial_sites(domain).len().min(5) {
                let (n, db) = pipeline(domain, site_idx, seed);
                let entity = &db.scheme().entity_relation.clone();
                let rows = db.table(entity).unwrap().len();
                // Sites that emit separators only *between* records have no
                // cut point before record 1, which is then absorbed into
                // the page preamble — an inherent ambiguity of boundary
                // chunking the paper does not address. Tolerate exactly
                // that one record.
                assert!(
                    rows == n || rows + 1 == n,
                    "{domain} site {site_idx} seed {seed}: {rows} rows for {n} records"
                );
            }
        }
    }
}

#[test]
fn record_boundaries_partition_the_data_record_table() {
    // The paper's §4.5 integration argument: recognizing over the whole
    // subtree text then partitioning at separator positions must agree
    // with recognizing each record separately, for position-independent
    // counts like the per-record DeathDate keyword count.
    let ontology = domains::obituaries();
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    let doc = generate_document(style, Domain::Obituaries, 1, 55);
    let extractor =
        RecordExtractor::new(ExtractorConfig::default().with_ontology(ontology.clone())).unwrap();
    let extraction = extractor.extract_records(&doc.html).unwrap();
    let recognizer = Recognizer::new(&ontology).unwrap();

    // Whole-text recognition partitioned at record start offsets within the
    // concatenated record text.
    let mut full_text = String::new();
    let mut cuts = Vec::new();
    for r in &extraction.records {
        if !full_text.is_empty() {
            cuts.push(full_text.len());
        }
        full_text.push_str(&r.text);
        full_text.push('\n');
    }
    let table = recognizer.recognize(&full_text);
    let parts = table.partition(&cuts);
    assert_eq!(parts.len(), extraction.records.len());

    for (part, record) in parts.iter().zip(&extraction.records) {
        let whole = part.iter().filter(|e| e.descriptor == "DeathDate").count();
        let separate = recognizer
            .recognize(&record.text)
            .for_descriptor("DeathDate")
            .count();
        assert_eq!(whole, separate, "record: {}", record.text);
    }
}
