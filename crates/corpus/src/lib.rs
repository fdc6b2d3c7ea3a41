//! # rbd-corpus — synthetic web-document corpus
//!
//! The paper evaluates on live 1998 web pages from twenty U.S. newspaper and
//! university sites (its Tables 1 and 6–9). Those pages no longer exist, so
//! this crate substitutes a *generator*: for each of the paper's sites we
//! define a [`SiteStyle`] — a layout convention with a ground-truth record
//! separator, record templates, formatting-tag habits and HTML messiness —
//! and generate data-rich documents in the paper's four application domains
//! (obituaries, car ads, computer job ads, university courses).
//!
//! The substitution preserves what matters: the heuristics only observe tag
//! structure and plain text, and the style knobs control exactly the
//! statistics each heuristic keys on —
//!
//! * which tag separates records and whether it is on the IT priority list,
//! * how regular record sizes are (the SD signal),
//! * whether boundary tag patterns like `<hr><b>` exist (the RP signal),
//! * how many decorative tags compete on frequency (the HT confound),
//! * how densely ontology constants and keywords appear (the OM signal).
//!
//! Documents are deterministic in `(site, domain, document index, seed)`.
//!
//! ## Example
//!
//! ```
//! use rbd_corpus::{generate_document, sites, Domain};
//!
//! let style = &sites::initial_sites(Domain::Obituaries)[0];
//! let doc = generate_document(style, Domain::Obituaries, 0, 42);
//! assert!(doc.html.contains("<hr>"));
//! assert_eq!(doc.truth.separator, "hr");
//! assert!(doc.truth.record_count >= 2);
//! // Deterministic:
//! let again = generate_document(style, Domain::Obituaries, 0, 42);
//! assert_eq!(doc.html, again.html);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod compose;
pub mod content;
pub mod sites;
pub mod style;

use rbd_ontology::{domains, Ontology};
use rbd_prop::Rng;
use std::fmt;

pub use style::{InlineStyle, SeparatorStyle, SiteStyle, WrapKind};

/// The paper's four application domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Funeral notices (paper §2, Tables 2 and 6).
    Obituaries,
    /// Automobile classifieds (Tables 3 and 7).
    CarAds,
    /// Computer job advertisements (Table 8).
    JobAds,
    /// University course descriptions (Table 9).
    Courses,
}

impl Domain {
    /// All four domains in the paper's order.
    pub const ALL: [Domain; 4] = [
        Domain::Obituaries,
        Domain::CarAds,
        Domain::JobAds,
        Domain::Courses,
    ];

    /// The domain's built-in application ontology (`rbd_ontology::domains`).
    pub fn ontology(self) -> Ontology {
        match self {
            Domain::Obituaries => domains::obituaries(),
            Domain::CarAds => domains::car_ads(),
            Domain::JobAds => domains::job_ads(),
            Domain::Courses => domains::courses(),
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Domain::Obituaries => "obituaries",
            Domain::CarAds => "car advertisements",
            Domain::JobAds => "computer job advertisements",
            Domain::Courses => "university course descriptions",
        })
    }
}

/// What the generator knows about a document — the "manually located"
/// correct answer of the paper's methodology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// The correct record-separator tag.
    pub separator: String,
    /// Number of records in the document.
    pub record_count: usize,
    /// Per-record ground-truth fields, `(object set, value)`, in document
    /// order — the reference for extraction-quality scoring (the §2
    /// context's recall/precision numbers).
    pub records: Vec<Vec<(String, String)>>,
}

/// A generated document plus its provenance and ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedDoc {
    /// The HTML source.
    pub html: String,
    /// Ground truth for scoring.
    pub truth: GroundTruth,
    /// Site display name (paper Table 1 / 6–9 names).
    pub site: &'static str,
    /// Site URL as printed in the paper.
    pub url: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// Index of the document within its site (0-based).
    pub doc_index: usize,
}

/// Generates one document. Deterministic in all arguments.
pub fn generate_document(
    style: &SiteStyle,
    domain: Domain,
    doc_index: usize,
    seed: u64,
) -> GeneratedDoc {
    let mut rng = doc_rng(style, domain, doc_index, seed);
    let (html, record_count, records) = compose::compose(style, domain, &mut rng);
    GeneratedDoc {
        html,
        truth: GroundTruth {
            separator: style.separator.tag.to_owned(),
            record_count,
            records,
        },
        site: style.site,
        url: style.url,
        domain,
        doc_index,
    }
}

/// The initial-experiment corpus (§5.2): 5 documents from each of the ten
/// Table-1 sites, for the two calibration domains.
pub fn initial_corpus(domain: Domain, seed: u64) -> Vec<GeneratedDoc> {
    let mut docs = Vec::new();
    for style in sites::initial_sites(domain) {
        for i in 0..5 {
            docs.push(generate_document(&style, domain, i, seed));
        }
    }
    docs
}

/// A test-set corpus (§6): one document from each of the five per-domain
/// test sites (Tables 6–9).
pub fn test_corpus(domain: Domain, seed: u64) -> Vec<GeneratedDoc> {
    sites::test_sites(domain)
        .iter()
        .map(|style| generate_document(style, domain, 0, seed))
        .collect()
}

/// Derives a per-document RNG from the identifying tuple (an FNV-1a fold so
/// the streams of different documents are unrelated).
fn doc_rng(style: &SiteStyle, domain: Domain, doc_index: usize, seed: u64) -> Rng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(style.site.as_bytes());
    eat(style.url.as_bytes());
    eat(format!("{domain:?}").as_bytes());
    eat(&doc_index.to_le_bytes());
    eat(&seed.to_le_bytes());
    Rng::from_seed(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_corpus_is_100_documents_over_two_domains() {
        let obits = initial_corpus(Domain::Obituaries, 7);
        let cars = initial_corpus(Domain::CarAds, 7);
        assert_eq!(obits.len(), 50);
        assert_eq!(cars.len(), 50);
    }

    #[test]
    fn test_corpora_are_five_documents_each() {
        for d in Domain::ALL {
            assert_eq!(test_corpus(d, 7).len(), 5, "{d}");
        }
    }

    #[test]
    fn documents_are_deterministic_and_seed_sensitive() {
        let style = &sites::initial_sites(Domain::CarAds)[3];
        let a = generate_document(style, Domain::CarAds, 2, 1);
        let b = generate_document(style, Domain::CarAds, 2, 1);
        let c = generate_document(style, Domain::CarAds, 2, 2);
        assert_eq!(a.html, b.html);
        assert_ne!(a.html, c.html);
    }

    #[test]
    fn different_docs_from_same_site_differ() {
        let style = &sites::initial_sites(Domain::Obituaries)[0];
        let a = generate_document(style, Domain::Obituaries, 0, 1);
        let b = generate_document(style, Domain::Obituaries, 1, 1);
        assert_ne!(a.html, b.html);
    }

    #[test]
    fn truth_matches_style() {
        for d in Domain::ALL {
            for style in sites::test_sites(d) {
                let doc = generate_document(&style, d, 0, 99);
                assert_eq!(doc.truth.separator, style.separator.tag);
                let (lo, hi) = style.records;
                assert!((lo..=hi).contains(&doc.truth.record_count));
            }
        }
    }

    #[test]
    fn every_document_contains_its_separator() {
        for d in Domain::ALL {
            for style in sites::initial_sites(d).iter().chain(&sites::test_sites(d)) {
                let doc = generate_document(style, d, 0, 5);
                let open = format!("<{}", doc.truth.separator);
                let n = doc.html.matches(&open).count();
                // Between-record separators without leading/trailing rules
                // appear N−1 times for N records.
                assert!(
                    n + 1 >= doc.truth.record_count,
                    "{} ({d}): {n} separators for {} records",
                    style.site,
                    doc.truth.record_count
                );
            }
        }
    }
}
