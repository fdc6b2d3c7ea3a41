//! Extraction-quality scoring — the §2 context.
//!
//! The paper frames record-boundary discovery inside a full extraction
//! pipeline and cites its companion experiments: "recall ratios in the
//! range of 90% and precision ratios near 95% (except for names in
//! obituaries, which had precision ratios near 75%)". This module measures
//! the analogous quantities for this reproduction: run the complete
//! Figure-1 pipeline over generated documents and compare the populated
//! database against the corpus's per-record ground-truth fields.

use crate::runner::HeuristicRunner;
use rbd_core::{DiscoveryError, RecordExtractor};
use rbd_corpus::{Domain, GeneratedDoc};
use rbd_db::InstanceGenerator;
use rbd_json::{Json, ToJson};
use rbd_recognizer::Recognizer;
use std::collections::BTreeMap;
use std::fmt;

/// Recall/precision for one ontology field.
#[derive(Debug, Clone)]
pub struct FieldQuality {
    /// Object-set name.
    pub field: String,
    /// Ground-truth occurrences across all scored records.
    pub truth_count: usize,
    /// Non-NULL extracted values.
    pub extracted_count: usize,
    /// Extracted values equal to the ground truth.
    pub correct: usize,
}

impl FieldQuality {
    /// `correct / truth_count` (1.0 when nothing was there to find).
    pub fn recall(&self) -> f64 {
        if self.truth_count == 0 {
            1.0
        } else {
            self.correct as f64 / self.truth_count as f64
        }
    }

    /// `correct / extracted_count` (1.0 when nothing was extracted).
    pub fn precision(&self) -> f64 {
        if self.extracted_count == 0 {
            1.0
        } else {
            self.correct as f64 / self.extracted_count as f64
        }
    }
}

/// One domain's extraction-quality report.
#[derive(Debug, Clone)]
pub struct DomainExtraction {
    /// Domain name.
    pub domain: String,
    /// Records scored (after boundary alignment).
    pub records: usize,
    /// Per-field quality, in ontology order.
    pub fields: Vec<FieldQuality>,
}

impl DomainExtraction {
    /// Micro-averaged recall over all fields.
    pub fn recall(&self) -> f64 {
        let truth: usize = self.fields.iter().map(|f| f.truth_count).sum();
        let correct: usize = self.fields.iter().map(|f| f.correct).sum();
        if truth == 0 {
            1.0
        } else {
            correct as f64 / truth as f64
        }
    }

    /// Micro-averaged precision over all fields.
    pub fn precision(&self) -> f64 {
        let extracted: usize = self.fields.iter().map(|f| f.extracted_count).sum();
        let correct: usize = self.fields.iter().map(|f| f.correct).sum();
        if extracted == 0 {
            1.0
        } else {
            correct as f64 / extracted as f64
        }
    }
}

/// The full four-domain report.
#[derive(Debug, Clone)]
pub struct ExtractionReport {
    /// Per-domain quality.
    pub domains: Vec<DomainExtraction>,
}

/// Loose value equality: trimmed, case-insensitive, and accepting an
/// extracted value that contains (or is contained in) the truth — keyword
/// evidence like `"age 85"` vs a truth of `"age 85"` plus punctuation
/// variance should not count as a miss.
fn values_match(extracted: &str, truth: &str) -> bool {
    let e = extracted.trim().to_lowercase();
    let t = truth.trim().to_lowercase();
    e == t || e.contains(&t) || t.contains(&e)
}

/// Runs the pipeline over one document and accumulates per-field counts.
fn score_document(
    doc: &GeneratedDoc,
    extractor: &RecordExtractor,
    recognizer: &Recognizer,
    generator: &InstanceGenerator,
    tracked: &std::collections::BTreeSet<String>,
    acc: &mut BTreeMap<String, FieldQuality>,
) -> usize {
    let Ok(extraction) = extractor.extract_records(&doc.html) else {
        // A failed document counts every truth field as missed.
        for record in &doc.truth.records {
            for (field, _) in record {
                let q = acc.entry(field.clone()).or_insert_with(|| FieldQuality {
                    field: field.clone(),
                    truth_count: 0,
                    extracted_count: 0,
                    correct: 0,
                });
                q.truth_count += 1;
            }
        }
        return 0;
    };
    let tables: Vec<_> = extraction
        .records
        .iter()
        .map(|r| recognizer.recognize(&r.text))
        .collect();
    let db = generator.populate(&tables);
    let entity = db
        .table(&db.scheme().entity_relation.clone())
        .expect("entity");

    // Alignment: chunking may absorb the first record into the preamble
    // (between-only separators); rows then correspond to truth[offset..].
    let truth = &doc.truth.records;
    let offset = truth.len().saturating_sub(entity.len());
    if offset > 1 {
        // Discovery went wrong on this document; score everything missed.
        for record in truth {
            for (field, _) in record {
                let q = acc.entry(field.clone()).or_insert_with(|| FieldQuality {
                    field: field.clone(),
                    truth_count: 0,
                    extracted_count: 0,
                    correct: 0,
                });
                q.truth_count += 1;
            }
        }
        return 0;
    }

    let mut scored = 0;
    for (row_idx, record_truth) in truth.iter().skip(offset).enumerate() {
        scored += 1;
        // Truth side.
        for (field, value) in record_truth {
            let q = acc.entry(field.clone()).or_insert_with(|| FieldQuality {
                field: field.clone(),
                truth_count: 0,
                extracted_count: 0,
                correct: 0,
            });
            q.truth_count += 1;
            if let Some(extracted) = entity.get(row_idx, field) {
                if values_match(extracted, value) {
                    q.correct += 1;
                }
            }
        }
        // Extraction side: every non-NULL cell of a *tracked* field is a
        // prediction. Fields the corpus has no ground truth for (e.g. the
        // Experience keyword) cannot be scored either way.
        for column in &entity.relation().columns[1..] {
            if !tracked.contains(&column.name) {
                continue;
            }
            if let Some(extracted) = entity.get(row_idx, &column.name) {
                if extracted == "(unrecognized)" {
                    continue;
                }
                let q = acc
                    .entry(column.name.clone())
                    .or_insert_with(|| FieldQuality {
                        field: column.name.clone(),
                        truth_count: 0,
                        extracted_count: 0,
                        correct: 0,
                    });
                q.extracted_count += 1;
            }
        }
    }
    scored
}

/// Measures extraction quality over the four test corpora (clean corpus).
pub fn extraction_quality(seed: u64) -> Result<ExtractionReport, DiscoveryError> {
    extraction_quality_with_oov(seed, 0.0)
}

/// Measures extraction quality with out-of-lexicon noise injected at the
/// given per-record probability. Around `oov = 0.15` the recall drops to
/// the ~90 % the paper's companion experiments report on real prose, while
/// precision stays high — noise makes fields unrecognizable far more often
/// than it makes them mis-recognized.
pub fn extraction_quality_with_oov(
    seed: u64,
    oov: f64,
) -> Result<ExtractionReport, DiscoveryError> {
    let runner = HeuristicRunner::new()?;
    let mut report = ExtractionReport {
        domains: Vec::new(),
    };
    for domain in Domain::ALL {
        let ontology = domain.ontology();
        let extractor = runner.extractor(domain);
        let recognizer = Recognizer::new(&ontology)?;
        let generator = InstanceGenerator::new(&ontology);

        let docs: Vec<_> = rbd_corpus::sites::test_sites(domain)
            .into_iter()
            .map(|mut style| {
                style.oov = oov;
                rbd_corpus::generate_document(&style, domain, 0, seed)
            })
            .collect();
        let tracked: std::collections::BTreeSet<String> = docs
            .iter()
            .flat_map(|d| d.truth.records.iter())
            .flat_map(|r| r.iter().map(|(f, _)| f.clone()))
            .collect();
        let mut acc: BTreeMap<String, FieldQuality> = BTreeMap::new();
        let mut records = 0;
        for doc in &docs {
            records += score_document(doc, extractor, &recognizer, &generator, &tracked, &mut acc);
        }
        report.domains.push(DomainExtraction {
            domain: domain.to_string(),
            records,
            fields: acc.into_values().collect(),
        });
    }
    Ok(report)
}

impl fmt::Display for ExtractionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extraction quality (the §2 context: companion papers report \
             ~90% recall, ~95% precision):"
        )?;
        for d in &self.domains {
            writeln!(
                f,
                "\n{} — {} records; recall {:.1}%, precision {:.1}%",
                d.domain,
                d.records,
                d.recall() * 100.0,
                d.precision() * 100.0
            )?;
            for q in &d.fields {
                writeln!(
                    f,
                    "  {:<16} recall {:>5.1}%  precision {:>5.1}%  ({} truth / {} extracted)",
                    q.field,
                    q.recall() * 100.0,
                    q.precision() * 100.0,
                    q.truth_count,
                    q.extracted_count
                )?;
            }
        }
        Ok(())
    }
}

impl ToJson for FieldQuality {
    fn to_json(&self) -> Json {
        Json::object([
            ("field", self.field.to_json()),
            ("truth_count", self.truth_count.to_json()),
            ("extracted_count", self.extracted_count.to_json()),
            ("correct", self.correct.to_json()),
        ])
    }
}

impl ToJson for DomainExtraction {
    fn to_json(&self) -> Json {
        Json::object([
            ("domain", self.domain.to_json()),
            ("records", self.records.to_json()),
            ("fields", self.fields.to_json()),
        ])
    }
}

impl ToJson for ExtractionReport {
    fn to_json(&self) -> Json {
        Json::object([("domains", self.domains.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn quality_is_in_the_papers_ballpark() {
        let report = extraction_quality(DEFAULT_SEED).unwrap();
        assert_eq!(report.domains.len(), 4);
        for d in &report.domains {
            assert!(d.records > 0, "{} scored no records", d.domain);
            assert!(
                d.recall() >= 0.75,
                "{} recall {:.2} too low\n{report}",
                d.domain,
                d.recall()
            );
            assert!(
                d.precision() >= 0.80,
                "{} precision {:.2} too low\n{report}",
                d.domain,
                d.precision()
            );
        }
    }

    #[test]
    fn values_match_is_lenient_but_not_sloppy() {
        assert!(values_match("May 1, 1998", "may 1, 1998"));
        assert!(values_match(" age 85 ", "age 85"));
        assert!(values_match("Dr. Smith", "Smith"));
        assert!(!values_match("May 1, 1998", "May 2, 1998"));
        assert!(!values_match("Ford", "Honda"));
    }
}
