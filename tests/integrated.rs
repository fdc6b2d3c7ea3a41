//! The integrated (§4.5, one recognition pass) pipeline must agree with the
//! separate-passes pipeline on every corpus document, and its partitioned
//! Data-Record Table must populate the same database as per-record
//! recognition of the chunked records.

use rbd::core::{ExtractorConfig, RecordExtractor};
use rbd::db::InstanceGenerator;
use rbd::recognizer::Recognizer;
use rbd::trace::NullSink;
use rbd_corpus::{generate_document, sites, Domain};

#[test]
fn integrated_discovery_agrees_across_the_corpus() {
    for domain in Domain::ALL {
        let ontology = domain.ontology();
        let extractor =
            RecordExtractor::new(ExtractorConfig::default().with_ontology(ontology.clone()))
                .unwrap();
        let recognizer = Recognizer::new(&ontology).unwrap();
        for style in sites::initial_sites(domain)
            .iter()
            .chain(&sites::test_sites(domain))
        {
            let doc = generate_document(style, domain, 0, rbd_eval::DEFAULT_SEED);
            let separate = extractor.discover(&doc.html).unwrap();
            let integrated = extractor
                .discover_and_recognize(&doc.html, &recognizer, &NullSink)
                .unwrap();
            assert_eq!(
                integrated.outcome.separator, separate.separator,
                "{} ({domain})",
                style.site
            );
            for (a, b) in integrated.outcome.rankings.iter().zip(&separate.rankings) {
                assert_eq!(
                    a.to_paper_string(),
                    b.to_paper_string(),
                    "{} ({domain})",
                    style.site
                );
            }
        }
    }
}

#[test]
fn integrated_partitions_populate_like_per_record_recognition() {
    let domain = Domain::Obituaries;
    let ontology = domain.ontology();
    let extractor =
        RecordExtractor::new(ExtractorConfig::default().with_ontology(ontology.clone())).unwrap();
    let recognizer = Recognizer::new(&ontology).unwrap();
    let generator = InstanceGenerator::new(&ontology);

    let style = &sites::initial_sites(domain)[0];
    let doc = generate_document(style, domain, 0, rbd_eval::DEFAULT_SEED);

    // Path A: separate — chunk records, recognize each chunk.
    let extraction = extractor.extract_records(&doc.html).unwrap();
    let tables_a: Vec<_> = extraction
        .records
        .iter()
        .map(|r| recognizer.recognize(&r.text))
        .collect();
    let db_a = generator.populate(&tables_a);

    // Path B: integrated — one recognition, partitioned.
    let integrated = extractor
        .discover_and_recognize(&doc.html, &recognizer, &NullSink)
        .unwrap();
    let tables_b: Vec<_> = integrated
        .record_tables()
        .into_iter()
        .filter(|t| !t.is_empty())
        .collect();
    let db_b = generator.populate(&tables_b);

    // Same row counts and the same recognized death dates per record.
    let a = db_a.table("Deceased").unwrap();
    let b = db_b.table("Deceased").unwrap();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.project("DeathDate"), b.project("DeathDate"));
    assert_eq!(a.project("DeceasedName"), b.project("DeceasedName"));
}
