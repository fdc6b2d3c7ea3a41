//! Resource governance: the [`Limits`] configuration and the degradation
//! report surfaced on every governed run.
//!
//! The paper's own semantics sketch how a resource-governed extractor
//! should degrade (§5): a heuristic that supplies no answer simply does
//! not participate, and the consensus proceeds on the remaining evidence.
//! [`Limits`] decides *when* that happens (caps and a wall-clock budget);
//! [`DegradationEvent`] records *that* it happened, so a caller can always
//! distinguish a full-fidelity answer from a degraded one.
//!
//! Two profiles matter in practice:
//!
//! - [`Limits::default`] — generous caps that no legitimate document in
//!   the paper's corpus approaches. Behavior is byte-identical to the
//!   historical unbudgeted extractor on such documents.
//! - [`Limits::strict`] — service-grade caps for extracting from
//!   arbitrary, possibly hostile web input.

use rbd_heuristics::HeuristicKind;
pub use rbd_limits::{Deadline, LimitExceeded, LimitKind};
use rbd_tagtree::TreeBudget;
use std::fmt;
use std::time::Duration;

/// Resource limits for one discovery pass. Every cap is optional; `None`
/// means unbounded.
///
/// Hard caps (input bytes, tree nodes, nesting depth) abort discovery with
/// [`DiscoveryError::Limit`](crate::DiscoveryError::Limit) — there is no
/// meaningful partial answer when the document structure itself is over
/// budget. Soft caps (candidate tags, text bytes, the wall clock) degrade:
/// the pass continues on reduced evidence and reports what was skipped via
/// [`DegradationEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Maximum document length in bytes (hard).
    pub max_input_bytes: Option<usize>,
    /// Maximum tag-tree arena size in nodes, including the synthetic root
    /// (hard).
    pub max_tree_nodes: Option<usize>,
    /// Maximum nesting depth of the tag tree (hard).
    pub max_nesting_depth: Option<usize>,
    /// Maximum candidate separator tags considered by the heuristics
    /// (soft: the overflow is dropped, keeping the highest appearance
    /// counts).
    pub max_candidate_tags: Option<usize>,
    /// Maximum plain-text bytes scanned by OM / the recognizer (soft: the
    /// scan covers a prefix).
    pub max_text_bytes: Option<usize>,
    /// Wall-clock budget for the pass, checked between units of work
    /// (soft: heuristics that have not started when it expires abstain).
    pub time_budget: Option<Duration>,
}

impl Default for Limits {
    /// Generous caps: far above anything the paper corpus produces, so the
    /// governed pipeline behaves byte-identically to the unbudgeted one on
    /// legitimate documents, while a runaway input still cannot grow
    /// unboundedly.
    fn default() -> Self {
        Limits {
            max_input_bytes: Some(64 * 1024 * 1024),
            max_tree_nodes: Some(4 * 1024 * 1024),
            max_nesting_depth: Some(65_536),
            max_candidate_tags: Some(4_096),
            max_text_bytes: Some(32 * 1024 * 1024),
            time_budget: None,
        }
    }
}

impl Limits {
    /// No caps at all — the historical unbudgeted behavior.
    #[must_use]
    pub fn unbounded() -> Self {
        Limits {
            max_input_bytes: None,
            max_tree_nodes: None,
            max_nesting_depth: None,
            max_candidate_tags: None,
            max_text_bytes: None,
            time_budget: None,
        }
    }

    /// Service-grade caps for arbitrary web input: 2 MiB of document,
    /// 65 536 tree nodes, depth 256, 32 candidates, 512 KiB of scanned
    /// text, and a 250 ms wall-clock budget.
    #[must_use]
    pub fn strict() -> Self {
        Limits {
            max_input_bytes: Some(2 * 1024 * 1024),
            max_tree_nodes: Some(65_536),
            max_nesting_depth: Some(256),
            max_candidate_tags: Some(32),
            max_text_bytes: Some(512 * 1024),
            time_budget: Some(Duration::from_millis(250)),
        }
    }

    /// The tag-tree builder budget these limits imply.
    #[must_use]
    pub fn tree_budget(&self) -> TreeBudget {
        TreeBudget {
            max_input_bytes: self.max_input_bytes,
            max_nodes: self.max_tree_nodes,
            max_depth: self.max_nesting_depth,
        }
    }

    /// Starts the wall-clock deadline for one pass.
    #[must_use]
    pub fn start_deadline(&self) -> Deadline {
        Deadline::from_budget(self.time_budget)
    }
}

/// Where in the pipeline a degradation happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationStage {
    /// The candidate set was truncated to the configured cap.
    Candidates,
    /// One heuristic was degraded: skipped outright (wall clock) or ranked
    /// over capped text (text bytes).
    Heuristic(HeuristicKind),
    /// The recognizer's pass was skipped (wall clock) or covered only a
    /// text prefix (text bytes).
    Recognizer,
}

impl fmt::Display for DegradationStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationStage::Candidates => f.write_str("candidate selection"),
            DegradationStage::Heuristic(kind) => write!(f, "heuristic {kind:?}"),
            DegradationStage::Recognizer => f.write_str("recognizer"),
        }
    }
}

/// One degradation that a governed pass applied instead of failing: which
/// stage was affected, and the structured limit breach that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The affected pipeline stage.
    pub stage: DegradationStage,
    /// The cap that tripped, with observed value.
    pub cause: LimitExceeded,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} degraded: {}", self.stage, self.cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_generous_strict_is_not() {
        let d = Limits::default();
        let s = Limits::strict();
        assert!(d.max_input_bytes.unwrap() > s.max_input_bytes.unwrap());
        assert!(d.max_tree_nodes.unwrap() > s.max_tree_nodes.unwrap());
        assert!(d.time_budget.is_none());
        assert!(s.time_budget.is_some());
        assert!(Limits::unbounded().max_input_bytes.is_none());
    }

    #[test]
    fn tree_budget_mirrors_limits() {
        let b = Limits::strict().tree_budget();
        assert_eq!(b.max_nodes, Some(65_536));
        assert_eq!(b.max_depth, Some(256));
        assert_eq!(b.max_input_bytes, Some(2 * 1024 * 1024));
    }

    #[test]
    fn degradation_event_display_names_stage_and_cause() {
        let e = DegradationEvent {
            stage: DegradationStage::Heuristic(HeuristicKind::OM),
            cause: LimitExceeded {
                limit: LimitKind::TextBytes,
                cap: 1024,
                observed: 2048,
            },
        };
        let s = e.to_string();
        assert!(s.contains("OM"), "{s}");
        assert!(s.contains("text-bytes"), "{s}");
    }
}
