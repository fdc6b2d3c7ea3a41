//! RP — repeating-tag pattern (§4.4).
//!
//! Record boundaries often show a consistent pattern of two or more adjacent
//! tags (`<hr><b>`, `<br><hr>` …). For every pair of candidate tags that
//! appears with no intervening plain text, RP compares the pair's count with
//! each member's own count: at a true boundary the counts nearly agree.
//! Candidates are ranked ascending on the absolute difference; a candidate
//! may appear via several pairs, in which case its best (smallest)
//! difference wins. If no pair qualifies, RP abstains.

use crate::ranking::{HeuristicKind, Ranking};
use crate::view::SubtreeView;
use crate::Heuristic;

/// Fraction of the lowest-count candidate a pair's count must exceed to be
/// considered (§4.4 uses 10 %).
pub const PAIR_COUNT_THRESHOLD: f64 = 0.10;

/// The repeating-tag-pattern heuristic.
#[derive(Debug, Clone, Copy)]
pub struct RepeatingPattern {
    /// Pair-count threshold as a fraction of the lowest-count candidate.
    pub threshold: f64,
}

impl Default for RepeatingPattern {
    fn default() -> Self {
        RepeatingPattern {
            threshold: PAIR_COUNT_THRESHOLD,
        }
    }
}

impl Heuristic for RepeatingPattern {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::RP
    }

    fn rank(&self, view: &SubtreeView<'_>) -> Option<Ranking> {
        if view.candidates().is_empty() {
            return None;
        }
        let min_count = self.pair_count_floor(view);

        // Each slot's best (smallest) difference, in first-noted order.
        let mut best: Vec<(usize, f64)> = Vec::new();
        let mut note = |slot: usize, diff: f64| match best.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, d)) => *d = d.min(diff),
            None => best.push((slot, diff)),
        };

        for pair in view.adjacent_pairs() {
            let count = pair.count as f64;
            if count <= min_count {
                continue;
            }
            note(
                pair.first,
                (count - view.occurrences(pair.first) as f64).abs(),
            );
            note(
                pair.second,
                (count - view.occurrences(pair.second) as f64).abs(),
            );
        }

        if best.is_empty() {
            return None; // §4.4: "the list may be empty … RP simply does not supply an answer"
        }
        let scores = best
            .into_iter()
            .filter_map(|(slot, diff)| Some((view.candidates().get(slot)?.name.clone(), diff)))
            .collect();
        Some(Ranking::from_scores(HeuristicKind::RP, scores, true))
    }

    fn score_inputs(&self, view: &SubtreeView<'_>) -> Vec<(String, f64)> {
        let min_count = self.pair_count_floor(view);
        let name = |slot: usize| view.candidates().get(slot).map_or("", |c| c.name.as_str());
        let mut inputs = vec![("pair_count_floor".to_owned(), min_count)];
        for pair in view.adjacent_pairs() {
            if (pair.count as f64) > min_count {
                inputs.push((
                    format!("pair:{}+{}", name(pair.first), name(pair.second)),
                    pair.count as f64,
                ));
            }
        }
        inputs
    }
}

impl RepeatingPattern {
    /// The count a pair must exceed: `threshold` times the lowest
    /// occurrence count among the candidates.
    fn pair_count_floor(&self, view: &SubtreeView<'_>) -> f64 {
        let lowest = (0..view.candidates().len())
            .map(|slot| view.occurrences(slot))
            .min()
            .unwrap_or(0);
        self.threshold * lowest as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::DEFAULT_CANDIDATE_THRESHOLD;
    use rbd_tagtree::TagTreeBuilder;

    fn view(src: &str) -> (rbd_tagtree::TagTree, f64) {
        (
            TagTreeBuilder::default().build(src),
            DEFAULT_CANDIDATE_THRESHOLD,
        )
    }

    #[test]
    fn boundary_pattern_ranks_separator_first() {
        // Every record boundary is `<br><hr>` and `<hr><b>`; `b` also
        // appears mid-record, so its count diverges from the pair count.
        let src = "<td>\
          <hr><b>A</b>text<b>X</b>more<br>\
          <hr><b>B</b>text<b>Y</b>more<br>\
          <hr><b>C</b>text<b>Z</b>more<br>\
          <hr></td>";
        let (tree, th) = view(src);
        let v = SubtreeView::from_tree(&tree, th);
        let r = RepeatingPattern::default().rank(&v).unwrap();
        // hr: pair <hr><b> count 3 vs count(hr)=4 → diff 1; pair <br><hr>
        // count 3 vs 4 → diff 1. b: diff |3-6|=3. br: |3-3|=0 → br first,
        // hr second, b third.
        assert_eq!(r.rank_of("br"), Some(1));
        assert_eq!(r.rank_of("hr"), Some(2));
        assert_eq!(r.rank_of("b"), Some(3));
    }

    #[test]
    fn abstains_without_adjacent_pairs() {
        let src = "<td><hr>text<hr>text<hr>text<b>x</b>text<b>y</b>text</td>";
        let (tree, th) = view(src);
        let v = SubtreeView::from_tree(&tree, th);
        // Every tag is followed by text → no pairs → abstain.
        assert!(RepeatingPattern::default().rank(&v).is_none());
    }

    #[test]
    fn rare_pairs_filtered_by_threshold() {
        // One accidental <b><br> adjacency among many records; pair count 1
        // vs lowest candidate count 4 → 1 <= 0.1*4 is false (1 > 0.4), so it
        // IS considered; tighten threshold to exclude it.
        let src = "<td>\
          <hr><b>A</b>x<br>y\
          <hr><b>B</b>x<br>y\
          <hr><b>C</b>x<br>y\
          <hr><b>D</b><br>z\
          </td>";
        let (tree, _) = view(src);
        let v = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let strict = RepeatingPattern { threshold: 0.5 };
        let r = strict.rank(&v).unwrap();
        // With threshold 0.5·min_count, the singleton <b><br> pair
        // (count 1 ≤ 0.5·4) is dropped, the <hr><b> pattern (count 4) stays.
        assert_eq!(r.rank_of("b"), Some(1));
        assert_eq!(r.rank_of("hr"), Some(1));
        assert!(r.rank_of("br").is_none());
    }

    #[test]
    fn perfect_boundary_pair_scores_zero() {
        let src = "<td><hr><p>a</p>x<hr><p>b</p>x<hr><p>c</p>x</td>";
        let (tree, th) = view(src);
        let v = SubtreeView::from_tree(&tree, th);
        let r = RepeatingPattern::default().rank(&v).unwrap();
        // <hr><p> count 3 = count(hr) = count(p) → both score 0, tie at 1.
        assert_eq!(r.rank_of("hr"), Some(1));
        assert_eq!(r.rank_of("p"), Some(1));
    }
}
