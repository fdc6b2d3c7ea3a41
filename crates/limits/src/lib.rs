//! # rbd-limits — shared resource-governance primitives
//!
//! The substrate crates (`rbd-html`, `rbd-tagtree`, `rbd-heuristics`,
//! `rbd-recognizer`) each enforce a slice of the extractor's resource
//! budget, but none of them may depend on `rbd-core` where the user-facing
//! [`Limits`](https://docs.rs/) configuration lives. This crate holds the
//! three primitives they all share:
//!
//! - [`LimitKind`] — *which* budget tripped,
//! - [`LimitExceeded`] — a structured, typed error carrying the cap and the
//!   observed value, so a breach is never reported as a bare string or a
//!   silent truncation,
//! - [`Deadline`] — a cheap coarse-grained wall-clock budget checked
//!   *between* units of work (never mid-unit), so overshoot is bounded by
//!   one unit.
//!
//! The crate is deliberately dependency-free and tiny; everything heavier
//! (default caps, degradation reports, configuration plumbing) lives in
//! `rbd-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

/// The resource whose budget was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// Total bytes of input handed to the tokenizer.
    InputBytes,
    /// Nodes in the tag tree (one per surviving start tag, plus the root).
    TreeNodes,
    /// Depth of the open-element stack while building the tag tree.
    NestingDepth,
    /// Candidate separator tags considered by the heuristics.
    CandidateTags,
    /// Plain-text bytes scanned by ontology matching or the recognizer.
    TextBytes,
    /// Wall-clock budget for the whole discovery pass.
    WallClock,
}

impl LimitKind {
    /// Stable lower-case name, used in error messages and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::InputBytes => "input-bytes",
            LimitKind::TreeNodes => "tree-nodes",
            LimitKind::NestingDepth => "nesting-depth",
            LimitKind::CandidateTags => "candidate-tags",
            LimitKind::TextBytes => "text-bytes",
            LimitKind::WallClock => "wall-clock",
        }
    }

    /// Unit suffix for human-readable messages (`bytes`, `nodes`, ...).
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            LimitKind::InputBytes | LimitKind::TextBytes => "bytes",
            LimitKind::TreeNodes => "nodes",
            LimitKind::NestingDepth => "levels",
            LimitKind::CandidateTags => "tags",
            LimitKind::WallClock => "ms",
        }
    }
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A resource budget was exceeded.
///
/// `observed` is the value that tripped the check — for incremental checks
/// (node counts, stack depth) it is the count at the moment of the breach,
/// i.e. usually `cap + 1`, not the total the input would have produced had
/// it run unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitExceeded {
    /// Which budget tripped.
    pub limit: LimitKind,
    /// The configured cap.
    pub cap: usize,
    /// The observed value at the moment of the breach.
    pub observed: usize,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} limit exceeded: observed {} {} against a cap of {}",
            self.limit,
            self.observed,
            self.limit.unit(),
            self.cap
        )
    }
}

impl std::error::Error for LimitExceeded {}

/// A coarse-grained wall-clock budget.
///
/// A `Deadline` is checked *between* units of work (one heuristic, one
/// recognizer pass), never inside one, so a single [`is_expired`] call
/// costs one `Instant::now()` read (~tens of nanoseconds) and overshoot is
/// bounded by the longest single unit. Expiry is sticky: once observed,
/// every later check reports expired without reading the clock again.
///
/// [`is_expired`]: Deadline::is_expired
#[derive(Debug, Clone)]
pub struct Deadline {
    /// `None` means unbounded: `is_expired` is always `false`.
    at: Option<Instant>,
    start: Instant,
    budget: Duration,
    expired: Cell<bool>,
}

impl Deadline {
    /// A deadline that never expires.
    #[must_use]
    pub fn unbounded() -> Self {
        let now = Instant::now();
        Deadline {
            at: None,
            start: now,
            budget: Duration::ZERO,
            expired: Cell::new(false),
        }
    }

    /// A deadline `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        let now = Instant::now();
        Deadline {
            at: now.checked_add(budget),
            start: now,
            budget,
            expired: Cell::new(false),
        }
    }

    /// From an optional budget: `None` gives [`Deadline::unbounded`].
    #[must_use]
    pub fn from_budget(budget: Option<Duration>) -> Self {
        match budget {
            Some(b) => Deadline::after(b),
            None => Deadline::unbounded(),
        }
    }

    /// `true` when the budget is spent. Sticky: once expired, stays
    /// expired (and skips the clock read).
    #[must_use]
    pub fn is_expired(&self) -> bool {
        if self.expired.get() {
            return true;
        }
        match self.at {
            None => false,
            Some(at) => {
                let hit = Instant::now() >= at;
                if hit {
                    self.expired.set(true);
                }
                hit
            }
        }
    }

    /// `true` when this deadline can never expire.
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.at.is_none()
    }

    /// The configured budget in whole milliseconds (0 when unbounded).
    #[must_use]
    pub fn budget_ms(&self) -> usize {
        duration_ms(self.budget)
    }

    /// Whole milliseconds elapsed since the deadline was created.
    #[must_use]
    pub fn elapsed_ms(&self) -> usize {
        duration_ms(self.start.elapsed())
    }

    /// The structured error describing this deadline's expiry, for
    /// degradation reports: cap = budget, observed = elapsed, both in ms.
    #[must_use]
    pub fn exceeded(&self) -> LimitExceeded {
        LimitExceeded {
            limit: LimitKind::WallClock,
            cap: self.budget_ms(),
            observed: self.elapsed_ms(),
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::unbounded()
    }
}

/// Saturating conversion of a duration to whole milliseconds as `usize`.
fn duration_ms(d: Duration) -> usize {
    usize::try_from(d.as_millis()).unwrap_or(usize::MAX)
}

/// Truncates `text` to at most `max_bytes`, backing the cut up to a UTF-8
/// character boundary so the prefix is always valid.
///
/// Returns the prefix plus, when the text was actually cut, the
/// [`LimitExceeded`] describing the truncation ([`LimitKind::TextBytes`],
/// `observed` = the full length) — callers surface it as a degradation
/// event so a capped scan is never a *silent* truncation.
#[must_use]
pub fn truncate_at_char_boundary(text: &str, max_bytes: usize) -> (&str, Option<LimitExceeded>) {
    if text.len() <= max_bytes {
        return (text, None);
    }
    let mut end = max_bytes;
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    let prefix = text.get(..end).unwrap_or("");
    (
        prefix,
        Some(LimitExceeded {
            limit: LimitKind::TextBytes,
            cap: max_bytes,
            observed: text.len(),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_cap_and_observed() {
        let e = LimitExceeded {
            limit: LimitKind::TreeNodes,
            cap: 100,
            observed: 101,
        };
        let msg = e.to_string();
        assert!(msg.contains("tree-nodes"), "{msg}");
        assert!(msg.contains("101"), "{msg}");
        assert!(msg.contains("100"), "{msg}");
    }

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::unbounded();
        assert!(!d.is_expired());
        assert!(d.is_unbounded());
        assert_eq!(d.budget_ms(), 0);
    }

    #[test]
    fn zero_budget_expires_immediately_and_sticks() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.is_expired());
        assert!(d.is_expired(), "expiry is sticky");
        let e = d.exceeded();
        assert_eq!(e.limit, LimitKind::WallClock);
        assert_eq!(e.cap, 0);
    }

    #[test]
    fn generous_budget_does_not_expire_now() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.is_expired());
        assert_eq!(d.budget_ms(), 3_600_000);
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        // 'é' is two bytes; a cap landing mid-char must back up.
        let text = "aéb";
        let (prefix, cut) = truncate_at_char_boundary(text, 2);
        assert_eq!(prefix, "a");
        let cut = cut.expect("text was cut");
        assert_eq!(cut.limit, LimitKind::TextBytes);
        assert_eq!(cut.cap, 2);
        assert_eq!(cut.observed, 4);
        // Within budget: untouched, no notice.
        assert_eq!(truncate_at_char_boundary(text, 4), (text, None));
        // Zero cap on non-empty text: empty prefix, still reported.
        let (p, c) = truncate_at_char_boundary("x", 0);
        assert_eq!(p, "");
        assert!(c.is_some());
    }

    #[test]
    fn from_budget_maps_none_to_unbounded() {
        assert!(Deadline::from_budget(None).is_unbounded());
        assert!(!Deadline::from_budget(Some(Duration::from_secs(1))).is_unbounded());
    }
}
