//! Pins the Data-Record Tables the recognizer produces.
//!
//! Every rule's matches come from its own `Pattern::find_iter`, and the
//! Pike VM behind it skips characters that cannot begin a match. This suite
//! folds every table entry's descriptor, kind, value and position, over
//! the plain text of generated corpus pages and a set of edge texts, into
//! one FNV-1a hash each, so any change to what the rules match, where, or
//! in which order the table lists it shows as a changed digest. A change
//! that is meant to keep recognition identical (a faster matcher) must
//! leave both constants as they are.

use rbd_corpus::{generate_document, sites, Domain};
use rbd_ontology::MatchKind;
use rbd_recognizer::{DataRecordTable, Recognizer};

/// The corpus seed the evaluation suites use (`rbd_eval::DEFAULT_SEED`).
const CORPUS_SEED: u64 = 1496;

/// Texts at the edges of matching: empty, back-to-back and repeated
/// matches, non-ASCII neighbours, long runs of characters that begin no
/// rule, and keyword case variants.
const EDGE_TEXTS: [&str; 10] = [
    "",
    "died on",
    "died on died on died on",
    "May 1, 1998May 2, 1998",
    "ἄλφα β died on May 1, 1998 ω",
    "no matches whatsoever here",
    "DIED ON may 1, 1998; Died On June 2, 1999",
    "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!died on May 1, 1998!!!!!!!!!!!!",
    "\n\n\n\t\t\t      \u{a0}\u{a0}éééééééé 1998 $8,900 801-555-9999 ......",
    "age 90.age 91,age92 Age 93 1996 Honda Accord, teal, 40,000 miles",
];

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

/// Folds every entry of `table`, in table order, into `h`.
fn fold(h: &mut Fnv, table: &DataRecordTable) {
    for e in table.entries() {
        h.write(e.descriptor.as_bytes());
        h.write(match e.kind {
            MatchKind::Keyword => b"\0k\0",
            MatchKind::Constant => b"\0c\0",
        });
        h.write(e.value.as_bytes());
        h.write(format!("\0{}\n", e.position).as_bytes());
    }
    h.write(b"--\n");
}

/// Two documents of every initial and test site of all four domains, each
/// recognized under its domain's ontology.
#[test]
fn corpus_tables_digest_is_pinned() {
    let mut h = Fnv::new();
    for domain in Domain::ALL {
        let rec = Recognizer::new(&domain.ontology()).expect("built-in rules compile");
        for style in sites::initial_sites(domain)
            .iter()
            .chain(&sites::test_sites(domain))
        {
            for index in 0..2 {
                let doc = generate_document(style, domain, index, CORPUS_SEED);
                let text = rbd_html::tokenize(&doc.html).plain_text();
                fold(&mut h, &rec.recognize(&text));
            }
        }
    }
    assert_eq!(format!("{:016x}", h.0), "fc0f9c8f122cfeae");
}

/// Every edge text under all four ontologies.
#[test]
fn edge_text_tables_digest_is_pinned() {
    let mut h = Fnv::new();
    for domain in Domain::ALL {
        let rec = Recognizer::new(&domain.ontology()).expect("built-in rules compile");
        for text in EDGE_TEXTS {
            fold(&mut h, &rec.recognize(text));
        }
    }
    assert_eq!(format!("{:016x}", h.0), "99cbb98d43972e0a");
}

#[test]
fn table_estimate_matches_fresh_scan_estimate() {
    // §4.5 integration: counting record-identifying fields from the table
    // must agree with counting them by re-scanning the text.
    use rbd_heuristics::om::OntologyMatching;
    for domain in Domain::ALL {
        let ontology = domain.ontology();
        let rec = Recognizer::new(&ontology).unwrap();
        let om = OntologyMatching::new(ontology.clone()).unwrap();
        let style = &sites::test_sites(domain)[0];
        let doc = generate_document(style, domain, 0, 1998);
        let text = rbd_html::tokenize(&doc.html).plain_text();
        let table = rec.recognize(&text);
        let from_table = om.estimate_from_counts(|object_set, kind| {
            table
                .for_descriptor(object_set)
                .filter(|e| e.kind == kind)
                .count()
        });
        let from_scan = om.estimate_record_count(&text);
        assert_eq!(from_table, from_scan, "{domain}");
    }
}
