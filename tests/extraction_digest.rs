//! Pins the bytes every extraction encodes to.
//!
//! Serial, batched, served and cached results are compared through one
//! encoding, `extraction_response_json`. This suite folds that encoding of
//! every document of two fixed corpora into one FNV-1a hash each, so any
//! change to a separator, a record's offsets or its text, or the number of
//! degradation events shows as a changed digest. A change that is meant to
//! keep output byte-identical (a faster chunker, a cheaper view) must leave
//! both constants as they are; one that changes output on purpose updates
//! them and says why.

use rbd::core::{ExtractorConfig, RecordExtractor};
use rbd::corpus::adversarial::{generate_adversarial, AttackKind};
use rbd::corpus::{generate_document, sites, Domain};
use rbd::store::extraction_response_json;

/// The chaos suite's seed: the adversarial corpus here is the first
/// [`PER_KIND`] documents of each class of that suite's corpus.
const ADVERSARIAL_SEED: u64 = 0x0DD5_EED5_0DD5_EED5;

/// Documents per attack class, the same in debug and release builds so one
/// constant holds for both.
const PER_KIND: usize = 60;

/// The corpus seed the evaluation suites use (`rbd_eval::DEFAULT_SEED`).
const CORPUS_SEED: u64 = 1496;

/// FNV-1a over a stream of byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds one document's encoded extraction (or an error marker) into `h`.
fn fold(h: &mut Fnv, extractor: &RecordExtractor, html: &str) {
    match extractor.extract_records(html) {
        Ok(ex) => h.write(extraction_response_json(&ex).to_compact().as_bytes()),
        Err(_) => h.write(b"error"),
    }
    h.write(b"\n");
}

#[test]
fn adversarial_corpus_digest_is_pinned() {
    let extractor = RecordExtractor::new(ExtractorConfig::default()).expect("default config");
    let mut h = Fnv::new();
    for kind in AttackKind::ALL {
        for index in 0..PER_KIND {
            fold(
                &mut h,
                &extractor,
                &generate_adversarial(kind, index, ADVERSARIAL_SEED),
            );
        }
    }
    assert_eq!(format!("{:016x}", h.0), "4ede9ef3119101ed");
}

/// Two documents of every initial and test site of all four domains, each
/// under its domain's ontology (ORSIH, all five heuristics voting) and
/// under RSIH with no ontology.
#[test]
fn generated_corpus_digest_is_pinned() {
    let mut h = Fnv::new();
    for domain in Domain::ALL {
        let configs = [
            ExtractorConfig::default().with_ontology(domain.ontology()),
            ExtractorConfig::default(),
        ];
        for config in configs {
            let extractor = RecordExtractor::new(config).expect("valid config");
            for style in sites::initial_sites(domain)
                .iter()
                .chain(&sites::test_sites(domain))
            {
                for index in 0..2 {
                    let doc = generate_document(style, domain, index, CORPUS_SEED);
                    fold(&mut h, &extractor, &doc.html);
                }
            }
        }
    }
    assert_eq!(format!("{:016x}", h.0), "593ffa1211172546");
}
