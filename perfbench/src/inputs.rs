//! Workload inputs, all drawn from the corpus generator with the run's
//! seed: the same seed gives the same documents, byte for byte.

use rbd_core::ExtractorConfig;
use rbd_corpus::{generate_document, sites, Domain, SiteStyle};
use rbd_ontology::domains;

/// One input document, its domain, and the separator the generator used.
#[derive(Debug, Clone)]
pub struct Doc {
    pub domain: Domain,
    pub html: String,
    pub truth: String,
}

/// Every site style of all four domains: the initial-experiment sites
/// (obituaries and car ads only; the paper calibrates on those two) plus
/// every domain's test sites.
pub fn styles() -> Vec<(Domain, SiteStyle)> {
    let mut out = Vec::new();
    for domain in Domain::ALL {
        if matches!(domain, Domain::Obituaries | Domain::CarAds) {
            out.extend(
                sites::initial_sites(domain)
                    .into_iter()
                    .map(|s| (domain, s)),
            );
        }
        out.extend(sites::test_sites(domain).into_iter().map(|s| (domain, s)));
    }
    out
}

/// The same styles with `records` per page in `range` — large pages with
/// the same layout conventions.
pub fn enlarged(styles: &[(Domain, SiteStyle)], range: (usize, usize)) -> Vec<(Domain, SiteStyle)> {
    styles
        .iter()
        .map(|(domain, style)| {
            let mut big = style.clone();
            big.records = range;
            (*domain, big)
        })
        .collect()
}

/// The paper's configuration for `domain`: ORSIH with that domain's
/// ontology, so all five heuristics vote.
pub fn orsih_config(domain: Domain) -> ExtractorConfig {
    let ontology = match domain {
        Domain::Obituaries => domains::obituaries(),
        Domain::CarAds => domains::car_ads(),
        Domain::JobAds => domains::job_ads(),
        Domain::Courses => domains::courses(),
    };
    ExtractorConfig::default().with_ontology(ontology)
}

/// `count` documents taken round-robin over `styles` (style `k % n`,
/// document index `first + k / n`), so any prefix mixes every style.
pub fn docs(styles: &[(Domain, SiteStyle)], first: usize, count: usize, seed: u64) -> Vec<Doc> {
    (0..count)
        .map(|k| {
            let (domain, style) = &styles[k % styles.len()];
            let generated = generate_document(style, *domain, first + k / styles.len(), seed);
            Doc {
                domain: *domain,
                html: generated.html,
                truth: generated.truth.separator,
            }
        })
        .collect()
}
