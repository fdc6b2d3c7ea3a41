//! # rbd-heuristics — the five record-boundary heuristics (§4)
//!
//! Each heuristic independently ranks the candidate separator tags of a
//! document's highest-fan-out subtree:
//!
//! | Kind | Name | Signal |
//! |------|------|--------|
//! | [`ht::HighestCount`] | HT | appearance count, descending |
//! | [`it::IdentifiableTags`] | IT | a fixed priority list of known separator tags |
//! | [`sd::StandardDeviation`] | SD | regularity of plain-text interval sizes |
//! | [`rp::RepeatingPattern`] | RP | adjacent-tag pairs at record boundaries |
//! | [`om::OntologyMatching`] | OM | estimated record count from record-identifying fields |
//!
//! A heuristic may *abstain* (return `None`): RP when no qualifying tag pair
//! exists, OM when the ontology offers fewer than three record-identifying
//! fields. The compound heuristic in `rbd-certainty` combines whatever
//! rankings are produced.
//!
//! ## Example
//!
//! ```
//! use rbd_tagtree::TagTreeBuilder;
//! use rbd_heuristics::{SubtreeView, Heuristic, it::IdentifiableTags};
//!
//! let html = "<html><body><table><tr><td>\
//!   <hr><b>A</b><br> one <hr><b>B</b><br> two <hr><b>C</b><br> three \
//!   </td></tr></table></body></html>";
//! let tree = TagTreeBuilder::default().build(html);
//! let view = SubtreeView::from_tree(&tree, 0.10);
//! let ranking = IdentifiableTags.rank(&view).unwrap();
//! assert_eq!(ranking.best(), Some("hr")); // hr leads the separator-tag list
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ht;
pub mod it;
pub mod om;
pub mod ranking;
pub mod rp;
pub mod sd;
pub mod view;

pub use ranking::{HeuristicKind, RankEntry, Ranking};
pub use view::SubtreeView;

/// A record-boundary heuristic: ranks a view's candidate tags, or abstains.
pub trait Heuristic {
    /// Which of the paper's five heuristics this is.
    fn kind(&self) -> HeuristicKind;

    /// Ranks the candidate tags, best first. `None` means the heuristic
    /// abstains for this document (RP with no qualifying pairs, OM without
    /// enough record-identifying fields).
    fn rank(&self, view: &SubtreeView<'_>) -> Option<Ranking>;

    /// The named raw inputs behind this heuristic's scores, for the
    /// decision audit trail (e.g. HT's per-tag counts, IT's priority
    /// indices, RP's qualifying pair counts). Only called when a trace
    /// sink is enabled, so implementations may recompute cheap view
    /// queries; the default is no inputs.
    fn score_inputs(&self, view: &SubtreeView<'_>) -> Vec<(String, f64)> {
        let _ = view;
        Vec::new()
    }
}

/// The outcome of a heuristic run: the rankings that were produced plus
/// the heuristics that were skipped because the budget ran out before they
/// started.
#[derive(Debug, Clone, Default)]
pub struct GovernedRun {
    /// Rankings from the heuristics that ran and did not abstain.
    pub rankings: Vec<Ranking>,
    /// Heuristics skipped because the deadline had expired, in the order
    /// they would have run.
    pub skipped: Vec<HeuristicKind>,
}

/// Runs every heuristic in `heuristics` over `view` under a wall-clock
/// [`Deadline`](rbd_limits::Deadline), checking it between heuristics (one
/// heuristic = one unit of work, so overshoot is bounded by the longest
/// single heuristic). A skipped heuristic abstains — exactly like OM with
/// no ontology (§5) — and is reported in [`GovernedRun::skipped`] so
/// callers can tell a budget skip from a genuine abstention.
///
/// Each heuristic that runs is timed on `sink` as a `"heuristic:<KIND>"`
/// span and — when the sink is enabled — emits a
/// [`Heuristic`](rbd_trace::TraceEvent::Heuristic) event carrying its full
/// ranking and the raw [`score_inputs`](Heuristic::score_inputs) behind
/// it. Genuine abstentions bump the `extract_heuristic_abstentions`
/// counter; deadline skips produce no event here (the caller reports them
/// as degradations).
pub fn run_all(
    heuristics: &[&dyn Heuristic],
    view: &SubtreeView<'_>,
    deadline: &rbd_limits::Deadline,
    sink: &dyn rbd_trace::TraceSink,
) -> GovernedRun {
    let mut out = GovernedRun::default();
    for h in heuristics {
        if deadline.is_expired() {
            out.skipped.push(h.kind());
            continue;
        }
        let span = rbd_trace::Span::start_if(span_name(h.kind()), sink);
        let ranking = h.rank(view);
        if let Some(span) = span {
            span.finish(sink);
        }
        if ranking.is_none() {
            sink.add("extract_heuristic_abstentions", 1);
        }
        if sink.enabled() {
            sink.event(heuristic_event(
                h.kind(),
                ranking.as_ref(),
                h.score_inputs(view),
            ));
        }
        out.rankings.extend(ranking);
    }
    out
}

/// The fixed span name for one heuristic pass (`&'static` so spans stay
/// allocation-free).
#[must_use]
pub fn span_name(kind: HeuristicKind) -> &'static str {
    match kind {
        HeuristicKind::OM => "heuristic:OM",
        HeuristicKind::RP => "heuristic:RP",
        HeuristicKind::SD => "heuristic:SD",
        HeuristicKind::IT => "heuristic:IT",
        HeuristicKind::HT => "heuristic:HT",
    }
}

/// Builds the audit-trail event for one heuristic's outcome — shared by
/// [`run_all`] and the OM special case in `rbd-core`.
#[must_use]
pub fn heuristic_event(
    kind: HeuristicKind,
    ranking: Option<&Ranking>,
    inputs: Vec<(String, f64)>,
) -> rbd_trace::TraceEvent {
    rbd_trace::TraceEvent::Heuristic {
        name: kind.to_string(),
        abstained: ranking.is_none(),
        entries: ranking
            .map(|r| {
                r.entries
                    .iter()
                    .map(|e| rbd_trace::RankedEntry {
                        tag: e.tag.clone(),
                        rank: e.rank,
                        score: e.score,
                    })
                    .collect()
            })
            .unwrap_or_default(),
        inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_limits::Deadline;
    use rbd_tagtree::TagTreeBuilder;
    use rbd_trace::NullSink;

    #[test]
    fn run_all_collects_non_abstaining_rankings() {
        let tree = TagTreeBuilder::default()
            .build("<td><hr><b>A</b>x text<hr><b>B</b>y text<hr><b>C</b>z text<hr></td>");
        let view = SubtreeView::from_tree(&tree, view::DEFAULT_CANDIDATE_THRESHOLD);
        let ht = ht::HighestCount;
        let it = it::IdentifiableTags;
        let sd = sd::StandardDeviation;
        let rp = rp::RepeatingPattern::default();
        let hs: [&dyn Heuristic; 4] = [&rp, &sd, &it, &ht];
        let rankings = run_all(&hs, &view, &Deadline::unbounded(), &NullSink).rankings;
        assert_eq!(rankings.len(), 4, "none should abstain here");
        let kinds: Vec<HeuristicKind> = rankings.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                HeuristicKind::RP,
                HeuristicKind::SD,
                HeuristicKind::IT,
                HeuristicKind::HT
            ]
        );
    }

    #[test]
    fn governed_run_skips_everything_on_expired_deadline() {
        use std::time::Duration;
        let tree = TagTreeBuilder::default()
            .build("<td><hr><b>A</b>x text<hr><b>B</b>y text<hr><b>C</b>z text<hr></td>");
        let view = SubtreeView::from_tree(&tree, view::DEFAULT_CANDIDATE_THRESHOLD);
        let ht = ht::HighestCount;
        let it = it::IdentifiableTags;
        let hs: [&dyn Heuristic; 2] = [&it, &ht];

        let spent = Deadline::after(Duration::ZERO);
        let run = run_all(&hs, &view, &spent, &NullSink);
        assert!(run.rankings.is_empty());
        assert_eq!(run.skipped, vec![HeuristicKind::IT, HeuristicKind::HT]);

        // An unbounded deadline runs every heuristic exactly.
        let run = run_all(&hs, &view, &Deadline::unbounded(), &NullSink);
        assert!(run.skipped.is_empty());
        let direct: Vec<Ranking> = hs.iter().filter_map(|h| h.rank(&view)).collect();
        assert_eq!(run.rankings, direct);
    }

    #[test]
    fn run_all_skips_abstentions() {
        // No adjacent candidate pairs → RP abstains, the rest answer.
        let tree = TagTreeBuilder::default()
            .build("<td><hr>text<hr>text<hr>text<b>x</b>text<b>y</b>text</td>");
        let view = SubtreeView::from_tree(&tree, view::DEFAULT_CANDIDATE_THRESHOLD);
        let rp = rp::RepeatingPattern::default();
        let ht = ht::HighestCount;
        let hs: [&dyn Heuristic; 2] = [&rp, &ht];
        let rankings = run_all(&hs, &view, &Deadline::unbounded(), &NullSink).rankings;
        assert_eq!(rankings.len(), 1);
        assert_eq!(rankings[0].kind, HeuristicKind::HT);
    }
}
