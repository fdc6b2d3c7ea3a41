//! The Record-Boundary Discovery Algorithm (§5.3) and record extraction.

use crate::chunk::{chunk_at_separators, Record};
use crate::config::ExtractorConfig;
use crate::integrated::IntegratedExtraction;
use crate::limits::{Deadline, DegradationEvent, DegradationStage, LimitExceeded, LimitKind};
use rbd_certainty::{CompoundHeuristic, Consensus};
use rbd_heuristics::om::OntologyMatching;
use rbd_heuristics::{
    ht::HighestCount, it::IdentifiableTags, rp::RepeatingPattern, sd::StandardDeviation, Heuristic,
    Ranking, SubtreeView,
};
use rbd_pattern::PatternError;
use rbd_recognizer::{DataRecordTable, GovernedRecognition, Recognizer};
use rbd_tagtree::{CandidateTag, NodeId, TagTree, TagTreeBuilder, TreeError};
use rbd_trace::{CandidateDecision, NullSink, Span, TraceEvent, TraceSink};
use std::fmt;

/// Records a degradation in both places that must see it: the trace sink
/// (as a [`TraceEvent::Degradation`], when tracing is on) and the
/// per-extraction report. All governed code paths in this crate go through
/// here so a degradation can never reach the report without reaching the
/// audit trail — the `observability` rule in `rbd-lint` enforces it.
fn note_degradation(
    degradation: &mut Vec<DegradationEvent>,
    sink: &dyn TraceSink,
    event: DegradationEvent,
) {
    if sink.enabled() {
        sink.event(TraceEvent::Degradation {
            stage: event.stage.to_string(),
            limit: event.cause.limit.name().to_owned(),
            cap: event.cause.cap as u64,
            observed: event.cause.observed as u64,
        });
    }
    degradation.push(event);
}

/// Builds the audit-trail event naming the winning highest-fan-out subtree
/// and its closest runner-up subtrees (top three by fan-out, ties broken
/// by tag name for deterministic traces).
fn subtree_chosen_event(tree: &TagTree, subtree: NodeId) -> TraceEvent {
    let chosen = tree.node(subtree);
    let mut runners_up: Vec<(String, usize)> = tree
        .ids()
        .filter(|&id| id != subtree)
        .map(|id| (tree.name(id).to_owned(), tree.node(id).fanout()))
        .filter(|(_, fanout)| *fanout > 0)
        .collect();
    runners_up.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    runners_up.truncate(3);
    TraceEvent::SubtreeChosen {
        tag: tree.name(subtree).to_owned(),
        fanout: chosen.fanout(),
        runners_up,
    }
}

/// Builds the audit-trail event recording every child tag of the chosen
/// subtree with its count, its share of the subtree's tag count, and
/// whether it cleared the candidate threshold (§3).
fn candidates_event(tree: &TagTree, subtree: NodeId, threshold: f64) -> TraceEvent {
    let total = tree.subtree_tag_count(subtree);
    let considered = tree
        .child_tag_counts(subtree)
        .into_iter()
        .map(|t| {
            let share = if total == 0 {
                0.0
            } else {
                t.count as f64 / total as f64
            };
            let passed = total > 0 && (t.count as f64) >= threshold * total as f64;
            CandidateDecision {
                tag: t.name,
                count: t.count,
                share,
                passed,
            }
        })
        .collect();
    TraceEvent::Candidates {
        threshold,
        considered,
    }
}

/// Errors from record-boundary discovery.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryError {
    /// The document has no tags at all — the paper's assumptions (multiple
    /// records, at least one separator tag) cannot hold.
    EmptyDocument,
    /// The highest-fan-out subtree has no candidate tags above the
    /// irrelevance threshold.
    NoCandidates,
    /// Every participating heuristic abstained or ranked nothing.
    NoConsensus,
    /// The configured ontology's data frames failed to compile.
    Pattern(PatternError),
    /// A hard resource limit tripped (input bytes, tree nodes, nesting
    /// depth) or the wall-clock budget expired before any heuristic could
    /// run — there is no partial answer to degrade to.
    Limit(LimitExceeded),
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryError::EmptyDocument => f.write_str("document contains no tags"),
            DiscoveryError::NoCandidates => {
                f.write_str("no candidate separator tags above the threshold")
            }
            DiscoveryError::NoConsensus => {
                f.write_str("all heuristics abstained; no consensus separator")
            }
            DiscoveryError::Pattern(e) => write!(f, "ontology pattern error: {e}"),
            DiscoveryError::Limit(e) => write!(f, "resource limit exceeded: {e}"),
        }
    }
}

impl std::error::Error for DiscoveryError {}

impl From<PatternError> for DiscoveryError {
    fn from(e: PatternError) -> Self {
        DiscoveryError::Pattern(e)
    }
}

/// The result of record-boundary discovery on one document.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// The consensus record-separator tag.
    pub separator: String,
    /// Compound scores for every candidate (empty when the single-candidate
    /// shortcut of §3 fired).
    pub consensus: Consensus,
    /// The individual heuristics' rankings (absent entries abstained).
    pub rankings: Vec<Ranking>,
    /// The candidate tags of the highest-fan-out subtree.
    pub candidates: Vec<CandidateTag>,
    /// Name of the highest-fan-out subtree's root tag.
    pub subtree_tag: String,
    /// Arena id of that subtree root within [`DiscoveryOutcome::tree`].
    pub subtree: NodeId,
    /// The document's tag tree (kept so callers can chunk or inspect).
    pub tree: TagTree,
    /// Degradations a governed pass applied (empty on a full-fidelity
    /// run): truncated candidate set, capped text scans, heuristics
    /// skipped by the wall clock. See [`crate::limits`].
    pub degradation: Vec<DegradationEvent>,
}

impl DiscoveryOutcome {
    /// Alternative separators, excluding the consensus winner. The paper
    /// notes "a Web document may have more than one record separator";
    /// callers that know the domain can accept a close runner-up (e.g.
    /// both `<hr>` and `<p>` bounding the same records).
    ///
    /// The order is deterministic: decreasing certainty, with ties broken
    /// by ascending tag name. (Diffable trace output and the golden-trace
    /// tests rely on this being stable across runs.)
    pub fn alternatives(&self) -> impl Iterator<Item = (&str, f64)> {
        let mut alts: Vec<(&str, f64)> = self
            .consensus
            .scored
            .iter()
            .filter(|s| s.tag != self.separator)
            .map(|s| (s.tag.as_str(), s.certainty.value()))
            .collect();
        alts.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        alts.into_iter()
    }
}

/// Discovery plus the chunked records.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The discovery outcome.
    pub outcome: DiscoveryOutcome,
    /// Text before the first separator (page headings etc.), if any.
    pub preamble: Option<Record>,
    /// The record chunks in document order.
    pub records: Vec<Record>,
    /// Degradations applied during discovery (mirrors
    /// [`DiscoveryOutcome::degradation`]); empty means the extraction ran
    /// at full fidelity.
    pub degradation: Vec<DegradationEvent>,
}

/// The record extractor: configured once, reused across documents.
#[derive(Debug, Clone)]
pub struct RecordExtractor {
    config: ExtractorConfig,
    pub(crate) om: Option<OntologyMatching>,
    compound: CompoundHeuristic,
}

impl Default for RecordExtractor {
    fn default() -> Self {
        Self::new(ExtractorConfig::default()).expect("default config has no ontology to fail")
    }
}

impl RecordExtractor {
    /// Builds an extractor, compiling the ontology's matching rules when
    /// one is configured.
    pub fn new(config: ExtractorConfig) -> Result<Self, DiscoveryError> {
        let om = config
            .ontology
            .clone()
            .map(OntologyMatching::new)
            .transpose()?;
        let compound = CompoundHeuristic::new(config.heuristic_set, config.certainty_table.clone());
        Ok(RecordExtractor {
            config,
            om,
            compound,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// The tag-tree builder configured for this extractor (HTML or XML).
    fn builder(&self) -> TagTreeBuilder {
        if self.config.xml {
            TagTreeBuilder::default().xml()
        } else {
            TagTreeBuilder::default()
        }
    }

    /// Builds the tag tree under the configured limits, tracing the
    /// tokenize and tree-build stages. Hard limit breaches surface as
    /// [`DiscoveryError::Limit`]; the theoretical-only construction errors
    /// degrade to "no tags" exactly as the infallible builder did.
    pub(crate) fn build_tree(
        &self,
        html: &str,
        sink: &dyn TraceSink,
    ) -> Result<TagTree, DiscoveryError> {
        match self
            .builder()
            .with_budget(self.config.limits.tree_budget())
            .try_build(html, sink)
        {
            Ok((tree, _)) => Ok(tree),
            Err(TreeError::Limit(e)) => Err(DiscoveryError::Limit(e)),
            Err(_) => Err(DiscoveryError::EmptyDocument),
        }
    }

    /// Applies the candidate-tag cap to a prepared view, reporting the
    /// truncation so dropped tags are never silently out of the running.
    fn cap_candidates(
        &self,
        view: &mut SubtreeView<'_>,
        degradation: &mut Vec<DegradationEvent>,
        sink: &dyn TraceSink,
    ) {
        if let Some(cap) = self.config.limits.max_candidate_tags {
            let before = view.cap_candidates(cap);
            if before > cap {
                note_degradation(
                    degradation,
                    sink,
                    DegradationEvent {
                        stage: DegradationStage::Candidates,
                        cause: LimitExceeded {
                            limit: LimitKind::CandidateTags,
                            cap,
                            observed: before,
                        },
                    },
                );
            }
        }
    }

    /// Runs the Record-Boundary Discovery Algorithm on `html` under the
    /// configured [`crate::limits::Limits`], untraced.
    pub fn discover(&self, html: &str) -> Result<DiscoveryOutcome, DiscoveryError> {
        self.discover_traced(html, &NullSink)
    }

    /// [`RecordExtractor::discover`] reporting to a [`TraceSink`]: stage
    /// spans, pipeline counters, and the full decision audit trail
    /// (subtree choice with runners-up, candidate census against the
    /// threshold, every heuristic's ranking with raw score inputs, the
    /// certainty combination, and any degradations).
    pub fn discover_traced(
        &self,
        html: &str,
        sink: &dyn TraceSink,
    ) -> Result<DiscoveryOutcome, DiscoveryError> {
        self.discover_with(html, None, sink)
            .map(|found| found.outcome)
    }

    /// Runs boundary discovery with recognition amortized into the same
    /// text pass (§4.5), reporting to `sink`. The recognizer runs once over
    /// the record area's text; the OM heuristic's estimate comes from the
    /// resulting Data-Record Table instead of a second regex pass, and the
    /// audit trail carries a [`Recognized`](TraceEvent::Recognized) event
    /// in place of OM's own scan. Every other step is
    /// [`RecordExtractor::discover_traced`]'s, so the separator agrees
    /// with it (property-tested in `tests/integrated.rs`).
    pub fn discover_and_recognize(
        &self,
        html: &str,
        recognizer: &Recognizer,
        sink: &dyn TraceSink,
    ) -> Result<IntegratedExtraction, DiscoveryError> {
        self.discover_with(html, Some(recognizer), sink)
    }

    /// The one discovery body behind every entry point. With a
    /// `recognizer`, the record area's text is recognized once before the
    /// §3 shortcut and OM ranks from the table's estimate; without one, OM
    /// scans the text itself and the returned text, table and cuts are
    /// empty.
    fn discover_with(
        &self,
        html: &str,
        recognizer: Option<&Recognizer>,
        sink: &dyn TraceSink,
    ) -> Result<IntegratedExtraction, DiscoveryError> {
        let deadline = self.config.limits.start_deadline();
        let mut degradation: Vec<DegradationEvent> = Vec::new();

        // Step 1: tag tree (Appendix A), under the hard caps.
        let tree = self.build_tree(html, sink)?;
        if tree.is_empty() {
            return Err(DiscoveryError::EmptyDocument);
        }
        // Step 2: highest-fan-out subtree. Step 3: candidate tags, capped.
        let mut view = SubtreeView::from_tree(&tree, self.config.candidate_threshold);
        let subtree = view.root();
        let subtree_tag = tree.name(subtree).to_owned();
        if sink.enabled() {
            sink.event(subtree_chosen_event(&tree, subtree));
            sink.event(candidates_event(
                &tree,
                subtree,
                self.config.candidate_threshold,
            ));
        }
        self.cap_candidates(&mut view, &mut degradation, sink);
        let candidates = view.candidates().to_vec();
        if candidates.is_empty() {
            return Err(DiscoveryError::NoCandidates);
        }

        // §4.5: one recognition pass over the record area, under the text
        // cap and the deadline.
        let mut text = String::new();
        let mut recognized: Option<GovernedRecognition> = None;
        if let Some(recognizer) = recognizer {
            text = view.text().to_owned();
            let governed = recognizer.recognize_governed(
                &text,
                self.config.limits.max_text_bytes,
                &deadline,
                sink,
            );
            for cause in [governed.truncation, governed.skipped]
                .into_iter()
                .flatten()
            {
                note_degradation(
                    &mut degradation,
                    sink,
                    DegradationEvent {
                        stage: DegradationStage::Recognizer,
                        cause,
                    },
                );
            }
            recognized = Some(governed);
        }

        let (separator, consensus, rankings) = if candidates.len() == 1 {
            // §3 shortcut: a single candidate *is* the separator.
            let separator = candidates[0].name.clone();
            if sink.enabled() {
                sink.event(TraceEvent::Shortcut {
                    separator: separator.clone(),
                });
            }
            let consensus = Consensus {
                scored: Vec::new(),
                winners: vec![separator.clone()],
            };
            (separator, consensus, Vec::new())
        } else {
            // Step 4: the five individual heuristics, governed by the
            // deadline and the text cap.
            let rankings = self.run_heuristics(
                &view,
                &deadline,
                recognized.as_ref(),
                &mut degradation,
                sink,
            );

            // Steps 5–6: Stanford certainty combination, argmax.
            let consensus = self.compound.combine(&rankings);
            if sink.enabled() {
                sink.event(TraceEvent::Consensus {
                    scored: consensus
                        .scored
                        .iter()
                        .map(|s| (s.tag.clone(), s.certainty.value()))
                        .collect(),
                    winners: consensus.winners.clone(),
                });
            }
            let out_of_time = degradation
                .iter()
                .any(|e| e.cause.limit == LimitKind::WallClock);
            let separator = match consensus.winners.first() {
                Some(w) => w.clone(),
                None if rankings.is_empty() && out_of_time => {
                    // Nothing ranked *because* the budget ran out: that is
                    // a resource failure, not the paper's "all abstained".
                    return Err(DiscoveryError::Limit(deadline.exceeded()));
                }
                None => return Err(DiscoveryError::NoConsensus),
            };
            (separator, consensus, rankings)
        };

        let (table, cuts) = match recognized {
            Some(governed) => (governed.table, view.child_tag_text_byte_offsets(&separator)),
            None => (DataRecordTable::default(), Vec::new()),
        };
        Ok(IntegratedExtraction {
            outcome: DiscoveryOutcome {
                separator,
                consensus,
                rankings,
                candidates,
                subtree_tag,
                subtree,
                tree,
                degradation,
            },
            text,
            table,
            cuts,
        })
    }

    /// The heuristic pass: OM first (from the recognizer's table when one
    /// ran, otherwise scanning at most the configured text-byte cap), then
    /// RP, SD, IT and HT. Each heuristic starts only while the deadline
    /// holds — a heuristic skipped by the budget abstains (the paper's §5
    /// degradation) and is reported, both in `degradation` and on the
    /// sink's audit trail.
    fn run_heuristics(
        &self,
        view: &SubtreeView<'_>,
        deadline: &Deadline,
        recognized: Option<&GovernedRecognition>,
        degradation: &mut Vec<DegradationEvent>,
        sink: &dyn TraceSink,
    ) -> Vec<Ranking> {
        let mut rankings: Vec<Ranking> = Vec::new();
        if let Some(om) = &self.om {
            rankings.extend(match recognized {
                Some(governed) => om_from_table(om, view, governed, deadline, degradation, sink),
                None => self.om_scan(om, view, deadline, degradation, sink),
            });
        }
        let ht = HighestCount;
        let it = IdentifiableTags;
        let sd = StandardDeviation;
        let rp = RepeatingPattern::default();
        let others: [&dyn Heuristic; 4] = [&rp, &sd, &it, &ht];
        let run = rbd_heuristics::run_all(&others, view, deadline, sink);
        for kind in run.skipped {
            note_degradation(
                degradation,
                sink,
                DegradationEvent {
                    stage: DegradationStage::Heuristic(kind),
                    cause: deadline.exceeded(),
                },
            );
        }
        rankings.extend(run.rankings);
        rankings
    }

    /// OM scanning the view's text itself, under the text cap, once the
    /// deadline allows it to start.
    fn om_scan(
        &self,
        om: &OntologyMatching,
        view: &SubtreeView<'_>,
        deadline: &Deadline,
        degradation: &mut Vec<DegradationEvent>,
        sink: &dyn TraceSink,
    ) -> Option<Ranking> {
        if deadline.is_expired() {
            note_degradation(
                degradation,
                sink,
                DegradationEvent {
                    stage: DegradationStage::Heuristic(om.kind()),
                    cause: deadline.exceeded(),
                },
            );
            return None;
        }
        let span = Span::start_if(rbd_heuristics::span_name(om.kind()), sink);
        let detailed = om.rank_governed_detailed(view, self.config.limits.max_text_bytes);
        if let Some(span) = span {
            span.finish(sink);
        }
        if detailed.ranking.is_none() {
            sink.add("extract_heuristic_abstentions", 1);
        }
        if sink.enabled() {
            // OM's scores compare each candidate's occurrence count to the
            // record-count estimate; surface both.
            let mut inputs = OntologyMatching::occurrence_inputs(view);
            if let Some(estimate) = detailed.estimate {
                inputs.insert(0, ("estimate".to_owned(), estimate));
            }
            sink.event(rbd_heuristics::heuristic_event(
                om.kind(),
                detailed.ranking.as_ref(),
                inputs,
            ));
        }
        if let Some(cause) = detailed.truncation {
            note_degradation(
                degradation,
                sink,
                DegradationEvent {
                    stage: DegradationStage::Heuristic(om.kind()),
                    cause,
                },
            );
        }
        detailed.ranking
    }

    /// Discovery followed by record chunking and markup cleaning, untraced.
    pub fn extract_records(&self, html: &str) -> Result<Extraction, DiscoveryError> {
        self.extract_records_traced(html, &NullSink)
    }

    /// [`RecordExtractor::extract_records`] reporting to a [`TraceSink`]:
    /// everything [`RecordExtractor::discover_traced`] emits, plus a
    /// `"chunk"` span, a [`Chunked`](TraceEvent::Chunked) event, and the
    /// `extract_docs` counter.
    pub fn extract_records_traced(
        &self,
        html: &str,
        sink: &dyn TraceSink,
    ) -> Result<Extraction, DiscoveryError> {
        let outcome = self.discover_traced(html, sink)?;
        let degradation = outcome.degradation.clone();
        let span = Span::start_if("chunk", sink);
        let (preamble, records) = chunk_at_separators(
            html,
            &outcome.tree,
            outcome.subtree,
            &outcome.separator,
            self.config.xml,
        );
        if let Some(span) = span {
            span.finish(sink);
        }
        sink.add("extract_docs", 1);
        if sink.enabled() {
            sink.event(TraceEvent::Chunked {
                separator: outcome.separator.clone(),
                records: records.len(),
                preamble: preamble.is_some(),
            });
        }
        Ok(Extraction {
            outcome,
            preamble,
            records,
            degradation,
        })
    }
}

/// OM ranked from the recognizer's Data-Record Table (§4.5): no second
/// text scan, so no OM span. Without an estimate OM abstains — for a
/// resource reason when the deadline skipped recognition, otherwise for
/// the paper's (too few record-identifying fields).
fn om_from_table(
    om: &OntologyMatching,
    view: &SubtreeView<'_>,
    governed: &GovernedRecognition,
    deadline: &Deadline,
    degradation: &mut Vec<DegradationEvent>,
    sink: &dyn TraceSink,
) -> Option<Ranking> {
    let estimate = om.estimate_from_counts(|object_set, kind| {
        governed
            .table
            .for_descriptor(object_set)
            .filter(|e| e.kind == kind)
            .count()
    });
    let Some(estimate) = estimate else {
        if governed.skipped.is_some() {
            note_degradation(
                degradation,
                sink,
                DegradationEvent {
                    stage: DegradationStage::Heuristic(om.kind()),
                    cause: deadline.exceeded(),
                },
            );
        } else {
            sink.add("extract_heuristic_abstentions", 1);
            if sink.enabled() {
                sink.event(rbd_heuristics::heuristic_event(om.kind(), None, Vec::new()));
            }
        }
        return None;
    };
    let ranking = OntologyMatching::rank_with_estimate(view, estimate);
    if sink.enabled() {
        let mut inputs = OntologyMatching::occurrence_inputs(view);
        inputs.insert(0, ("estimate".to_owned(), estimate));
        sink.event(rbd_heuristics::heuristic_event(
            om.kind(),
            Some(&ranking),
            inputs,
        ));
    }
    Some(ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_heuristics::HeuristicKind;
    use rbd_ontology::domains;

    fn obituary_page() -> String {
        let mut d = String::from(
            "<html><head><title>Classifieds</title></head><body bgcolor=\"#FFFFFF\">\
             <table><tr><td><h1 align=\"left\">Funeral Notices - </h1> October 1, 1998<hr>",
        );
        for (name, death, birth) in [
            (
                "Lemar K. Adamson",
                "September 30, 1998",
                "September 5, 1913",
            ),
            (
                "Brian Fielding Frost",
                "September 30, 1998",
                "April 4, 1957",
            ),
            (
                "Leonard Kenneth Gunther",
                "September 30, 1998",
                "March 2, 1920",
            ),
        ] {
            d.push_str(&format!(
                "<b>{name}</b><br> died on {death}. {name} was born on {birth} and is \
                 survived by family. Funeral services will be held at 11:00 a.m. at \
                 <b>MEMORIAL CHAPEL</b>. Interment at Holy Hope Cemetery.<br><hr>"
            ));
        }
        d.push_str("</td></tr></table>All material is copyrighted.</body></html>");
        d
    }

    #[test]
    fn discovers_hr_on_obituary_page() {
        let ex =
            RecordExtractor::new(ExtractorConfig::default().with_ontology(domains::obituaries()))
                .unwrap();
        let out = ex.discover(&obituary_page()).unwrap();
        assert_eq!(out.separator, "hr");
        assert_eq!(out.subtree_tag, "td");
        assert_eq!(out.rankings.len(), 5, "all five heuristics answered");
    }

    #[test]
    fn works_without_ontology() {
        let ex = RecordExtractor::default();
        let out = ex.discover(&obituary_page()).unwrap();
        assert_eq!(out.separator, "hr");
        assert!(out.rankings.iter().all(|r| r.kind != HeuristicKind::OM));
    }

    #[test]
    fn extracts_three_records() {
        let ex = RecordExtractor::default();
        let extraction = ex.extract_records(&obituary_page()).unwrap();
        assert_eq!(extraction.records.len(), 3);
        assert!(extraction
            .preamble
            .unwrap()
            .text
            .contains("Funeral Notices"));
        assert!(extraction.records[0].text.contains("Lemar K. Adamson"));
        assert!(extraction.records[2]
            .text
            .contains("Leonard Kenneth Gunther"));
        // Markup is gone.
        assert!(!extraction.records[0].text.contains('<'));
    }

    #[test]
    fn single_candidate_shortcut() {
        // Only `p` qualifies: the consensus is immediate and rankings are
        // skipped (§3).
        let src = "<td><p>a a a a</p><p>b b b b</p><p>c c c c</p></td>";
        let ex = RecordExtractor::default();
        let out = ex.discover(src).unwrap();
        assert_eq!(out.separator, "p");
        assert!(out.rankings.is_empty());
        assert!(out.consensus.scored.is_empty());
    }

    #[test]
    fn empty_document_error() {
        let ex = RecordExtractor::default();
        assert_eq!(
            ex.discover("no tags at all").unwrap_err(),
            DiscoveryError::EmptyDocument
        );
        assert_eq!(ex.discover("").unwrap_err(), DiscoveryError::EmptyDocument);
    }

    #[test]
    fn error_display() {
        let e = DiscoveryError::NoCandidates;
        assert!(e.to_string().contains("candidate"));
    }

    #[test]
    fn consensus_certainty_is_high_on_clean_page() {
        let ex = RecordExtractor::default();
        let out = ex.discover(&obituary_page()).unwrap();
        let top = &out.consensus.scored[0];
        assert_eq!(top.tag, "hr");
        assert!(top.certainty.percent() > 95.0, "{}", top.certainty);
    }

    #[test]
    fn default_limits_do_not_degrade_the_paper_page() {
        let ex =
            RecordExtractor::new(ExtractorConfig::default().with_ontology(domains::obituaries()))
                .unwrap();
        let out = ex.discover(&obituary_page()).unwrap();
        assert!(out.degradation.is_empty(), "{:?}", out.degradation);
        let extraction = ex.extract_records(&obituary_page()).unwrap();
        assert!(extraction.degradation.is_empty());
    }

    #[test]
    fn hard_limits_reject_structural_bombs() {
        use crate::limits::{LimitKind, Limits};
        let limits = Limits {
            max_tree_nodes: Some(64),
            ..Limits::default()
        };
        let ex =
            RecordExtractor::new(ExtractorConfig::default().with_limits(limits.clone())).unwrap();
        let bomb = "<b>".repeat(1_000);
        match ex.discover(&bomb) {
            Err(DiscoveryError::Limit(e)) => assert_eq!(e.limit, LimitKind::TreeNodes),
            other => panic!("expected node-limit error, got {other:?}"),
        }
        // The same extractor still handles the legitimate page.
        assert!(ex.discover(&obituary_page()).is_ok());
    }

    #[test]
    fn zero_time_budget_degrades_every_heuristic() {
        use crate::limits::{DegradationStage, LimitKind, Limits};
        let limits = Limits {
            time_budget: Some(std::time::Duration::ZERO),
            ..Limits::default()
        };
        let ex = RecordExtractor::new(
            ExtractorConfig::default()
                .with_ontology(domains::obituaries())
                .with_limits(limits),
        )
        .unwrap();
        // Every heuristic abstains, so there is no consensus to act on —
        // but the failure is typed as a resource limit, not NoConsensus.
        match ex.discover(&obituary_page()) {
            Err(DiscoveryError::Limit(e)) => assert_eq!(e.limit, LimitKind::WallClock),
            other => panic!("expected wall-clock limit error, got {other:?}"),
        }
        // The governed heuristic runner reports each skip individually.
        let tree = ex.builder().build(&obituary_page());
        let view = SubtreeView::from_tree(&tree, ex.config.candidate_threshold);
        let deadline = rbd_limits::Deadline::after(std::time::Duration::ZERO);
        let mut events = Vec::new();
        let rankings = ex.run_heuristics(&view, &deadline, None, &mut events, &NullSink);
        assert!(rankings.is_empty());
        assert_eq!(events.len(), 5, "{events:?}");
        assert!(events
            .iter()
            .all(|e| matches!(e.stage, DegradationStage::Heuristic(_))
                && e.cause.limit == LimitKind::WallClock));
    }

    #[test]
    fn text_cap_truncates_om_but_discovery_proceeds() {
        use crate::limits::{DegradationStage, LimitKind, Limits};
        let limits = Limits {
            max_text_bytes: Some(64),
            ..Limits::default()
        };
        let ex = RecordExtractor::new(
            ExtractorConfig::default()
                .with_ontology(domains::obituaries())
                .with_limits(limits),
        )
        .unwrap();
        let out = ex.discover(&obituary_page()).unwrap();
        assert_eq!(out.separator, "hr", "capped OM must not flip the winner");
        let om_events: Vec<_> = out
            .degradation
            .iter()
            .filter(|e| e.stage == DegradationStage::Heuristic(HeuristicKind::OM))
            .collect();
        assert_eq!(om_events.len(), 1, "{:?}", out.degradation);
        assert_eq!(om_events[0].cause.limit, LimitKind::TextBytes);
        assert_eq!(om_events[0].cause.cap, 64);
    }

    #[test]
    fn alternatives_sorted_by_certainty_then_tag() {
        let ex = RecordExtractor::default();
        let out = ex.discover(&obituary_page()).unwrap();
        let alts: Vec<(&str, f64)> = out.alternatives().collect();
        assert!(!alts.is_empty());
        for pair in alts.windows(2) {
            let ((tag_a, cert_a), (tag_b, cert_b)) = (&pair[0], &pair[1]);
            assert!(
                cert_a > cert_b || (cert_a == cert_b && tag_a < tag_b),
                "alternatives out of order: ({tag_a}, {cert_a}) before ({tag_b}, {cert_b})"
            );
        }
        assert!(
            alts.iter().all(|(tag, _)| *tag != out.separator),
            "the winner must be excluded"
        );
    }

    #[test]
    fn alternatives_break_certainty_ties_by_tag_name() {
        use rbd_certainty::{CertaintyFactor, ScoredTag};
        // A synthetic consensus with deliberate ties and shuffled input
        // order; alternatives() must emit a deterministic order anyway.
        let ex = RecordExtractor::default();
        let mut out = ex.discover(&obituary_page()).unwrap();
        out.separator = "hr".to_owned();
        out.consensus.scored = vec![
            ScoredTag {
                tag: "p".into(),
                certainty: CertaintyFactor::new(0.5),
            },
            ScoredTag {
                tag: "hr".into(),
                certainty: CertaintyFactor::new(0.9),
            },
            ScoredTag {
                tag: "b".into(),
                certainty: CertaintyFactor::new(0.5),
            },
            ScoredTag {
                tag: "br".into(),
                certainty: CertaintyFactor::new(0.7),
            },
        ];
        let alts: Vec<(&str, f64)> = out.alternatives().collect();
        let tags: Vec<&str> = alts.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec!["br", "b", "p"], "{alts:?}");
    }

    #[test]
    fn traced_discovery_emits_the_full_audit_trail() {
        use rbd_trace::MockSink;
        let ex =
            RecordExtractor::new(ExtractorConfig::default().with_ontology(domains::obituaries()))
                .unwrap();
        let sink = MockSink::new();
        let extraction = ex.extract_records_traced(&obituary_page(), &sink).unwrap();
        assert_eq!(extraction.records.len(), 3);

        let kinds: Vec<String> = sink.events().iter().map(|e| e.kind().to_owned()).collect();
        assert_eq!(
            kinds,
            vec![
                "tokenized",
                "tree_built",
                "subtree_chosen",
                "candidates",
                "heuristic", // OM
                "heuristic", // RP
                "heuristic", // SD
                "heuristic", // IT
                "heuristic", // HT
                "consensus",
                "chunked",
            ],
            "{kinds:?}"
        );
        // The audit trail names the winner and carries the raw inputs.
        let events = sink.events();
        match &events[2] {
            TraceEvent::SubtreeChosen { tag, fanout, .. } => {
                assert_eq!(tag, "td");
                assert!(*fanout > 0);
            }
            other => panic!("expected SubtreeChosen, got {other:?}"),
        }
        match &events[4] {
            TraceEvent::Heuristic { name, inputs, .. } => {
                assert_eq!(name, "OM");
                assert!(
                    inputs.iter().any(|(n, _)| n == "estimate"),
                    "OM must surface its estimate: {inputs:?}"
                );
            }
            other => panic!("expected OM heuristic event, got {other:?}"),
        }
        assert_eq!(sink.counter("extract_docs"), 1);
        assert!(sink.counter("extract_tags_scanned") > 0);
        assert!(
            sink.spans().iter().any(|s| s.name == "heuristic:OM"),
            "{:?}",
            sink.spans()
        );
    }

    #[test]
    fn disabled_sink_emits_no_events() {
        use rbd_trace::MockSink;
        let ex = RecordExtractor::default();
        let sink = MockSink::disabled();
        ex.extract_records_traced(&obituary_page(), &sink).unwrap();
        assert!(
            sink.events().is_empty(),
            "instrumentation must honor enabled(): {:?}",
            sink.events()
        );
        // Spans are gated too (Span::start_if never reads the clock for a
        // disabled sink); only already-at-hand counter increments flow.
        assert!(sink.spans().is_empty(), "{:?}", sink.spans());
        assert_eq!(sink.counter("extract_docs"), 1);
    }

    #[test]
    fn shortcut_is_traced() {
        use rbd_trace::MockSink;
        let src = "<td><p>a a a a</p><p>b b b b</p><p>c c c c</p></td>";
        let ex = RecordExtractor::default();
        let sink = MockSink::new();
        let out = ex.discover_traced(src, &sink).unwrap();
        assert_eq!(out.separator, "p");
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Shortcut { separator } if separator == "p")),
            "{:?}",
            sink.events()
        );
    }

    #[test]
    fn degradations_reach_the_audit_trail() {
        use crate::limits::Limits;
        use rbd_trace::MockSink;
        let limits = Limits {
            max_text_bytes: Some(64),
            ..Limits::default()
        };
        let ex = RecordExtractor::new(
            ExtractorConfig::default()
                .with_ontology(domains::obituaries())
                .with_limits(limits),
        )
        .unwrap();
        let sink = MockSink::new();
        let out = ex.discover_traced(&obituary_page(), &sink).unwrap();
        assert_eq!(out.degradation.len(), 1);
        let traced: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::Degradation { .. }))
            .collect();
        assert_eq!(traced.len(), 1, "every degradation must be traced");
        match &traced[0] {
            TraceEvent::Degradation { limit, cap, .. } => {
                assert_eq!(limit, "text-bytes");
                assert_eq!(*cap, 64);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn candidate_cap_reports_the_truncation() {
        use crate::limits::{DegradationStage, LimitKind, Limits};
        let limits = Limits {
            max_candidate_tags: Some(2),
            ..Limits::default()
        };
        let ex = RecordExtractor::new(ExtractorConfig::default().with_limits(limits)).unwrap();
        let out = ex.discover(&obituary_page()).unwrap();
        assert_eq!(out.candidates.len(), 2);
        let ev = out
            .degradation
            .iter()
            .find(|e| e.stage == DegradationStage::Candidates)
            .expect("candidate truncation must be reported");
        assert_eq!(ev.cause.limit, LimitKind::CandidateTags);
        assert_eq!(ev.cause.cap, 2);
        assert!(ev.cause.observed > 2);
    }
}
