//! SD — standard deviation of separator intervals (§4.3).
//!
//! Records about the same kind of entity tend to be about the same size, so
//! the plain-text intervals between consecutive occurrences of the *true*
//! separator have a small standard deviation. SD ranks candidates by the
//! standard deviation of the character counts between their occurrences,
//! smallest first.

use crate::ranking::{HeuristicKind, Ranking};
use crate::view::SubtreeView;
use crate::Heuristic;

/// The standard-deviation heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardDeviation;

/// Population standard deviation of `values`, where `values` are the
/// intervals between consecutive occurrences of a candidate tag.
///
/// Fewer than two intervals (i.e. fewer than three occurrences of the tag)
/// yield infinity: regularity cannot be measured from a single interval, and
/// treating it as zero deviation would hand a twice-occurring decoration tag
/// a perfect score over the true separator.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt()
}

impl Heuristic for StandardDeviation {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::SD
    }

    fn rank(&self, view: &SubtreeView<'_>) -> Option<Ranking> {
        let scores: Vec<(String, f64)> = view
            .candidates()
            .iter()
            .zip(view.text_offsets())
            .map(|(c, offsets)| {
                let intervals: Vec<f64> =
                    offsets.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
                (c.name.clone(), std_dev(&intervals))
            })
            .collect();
        Some(Ranking::from_scores(HeuristicKind::SD, scores, true))
    }

    fn score_inputs(&self, view: &SubtreeView<'_>) -> Vec<(String, f64)> {
        view.candidates()
            .iter()
            .zip(view.text_offsets())
            .map(|(c, offsets)| {
                let intervals = offsets.len().saturating_sub(1);
                (format!("intervals:{}", c.name), intervals as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::DEFAULT_CANDIDATE_THRESHOLD;
    use rbd_tagtree::TagTreeBuilder;

    #[test]
    fn std_dev_basics() {
        assert_eq!(std_dev(&[]), f64::INFINITY);
        // One interval says nothing about regularity.
        assert_eq!(std_dev(&[5.0]), f64::INFINITY);
        assert_eq!(std_dev(&[2.0, 2.0, 2.0]), 0.0);
        let sd = std_dev(&[1.0, 3.0]);
        assert!((sd - 1.0).abs() < 1e-12);
    }

    #[test]
    fn twice_occurring_decoration_tag_does_not_beat_the_separator() {
        // Regression: `h4` appears exactly twice, giving a single interval.
        // Scoring that interval's "deviation" as 0.0 would rank `h4` above
        // `hr`, whose four genuinely regular — but not identical — intervals
        // have a small positive standard deviation.
        let src = "<td>\
            <hr>aaaaaaaaaaaaaaaaaaaa\
            <hr>aaaaaaaaaaaaaaaaaaaaa\
            <hr><h4>section</h4>aaaaaaaaaaaaa\
            <hr>aaaaaaaaaaaaaaaaaaaa<h4>other</h4>\
            <hr></td>";
        let tree = TagTreeBuilder::default().build(src);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let r = StandardDeviation.rank(&view).unwrap();
        assert_eq!(r.best(), Some("hr"));
        assert!(r.rank_of("h4").unwrap() > r.rank_of("hr").unwrap());
    }

    #[test]
    fn regular_separator_wins() {
        // hr intervals are perfectly regular; b intervals vary wildly.
        let src = "<td>\
            <hr><b>A</b>aaaaaaaaaaaaaaaaaaaaaaaaaa\
            <hr><b>Bxxxxxxxxxxxxxxxx</b>aaaaaaaaaa\
            <hr><b>C</b>aaaaaaaaaaaaaaaaaaaaaaaaaa\
            <hr></td>";
        let tree = TagTreeBuilder::default().build(src);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let r = StandardDeviation.rank(&view).unwrap();
        assert_eq!(r.best(), Some("hr"));
    }

    #[test]
    fn single_occurrence_ranks_last() {
        let src = "<td><hr>aaaa<hr>aaaa<hr>aaaa<p>once</p>\
                   <hr>aaaa<hr>aaaa<hr>aaaa</td>";
        let tree = TagTreeBuilder::default().build(src);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let r = StandardDeviation.rank(&view).unwrap();
        assert_eq!(r.best(), Some("hr"));
        let p_rank = r.rank_of("p").unwrap();
        let hr_rank = r.rank_of("hr").unwrap();
        assert!(p_rank > hr_rank);
    }

    #[test]
    fn intervals_measured_in_characters_not_bytes() {
        // Multibyte text must count characters (é is 2 bytes, 1 char).
        let src = "<td><hr>éé<hr>ab<hr>éé<hr></td>";
        let tree = TagTreeBuilder::default().build(src);
        let view = SubtreeView::from_tree(&tree, 0.0);
        let offsets = &view.text_offsets()[0];
        assert_eq!(view.candidates()[0].name, "hr");
        let intervals: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(intervals, vec![2, 2, 2]);
    }
}
