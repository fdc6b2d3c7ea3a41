//! IT — identifiable "separator" tags (§4.2).
//!
//! Both tool-generated and hand-written documents reuse a small set of tags
//! to separate records. The paper's authors surveyed one hundred documents
//! from ten sites and fixed this priority list:
//!
//! ```text
//! hr tr td a table p br h4 h1 strong b i
//! ```
//!
//! IT ranks candidates by their position in the list and *discards*
//! candidates not on it. It was the strongest individual heuristic in the
//! paper (Table 10: 95 %).

use crate::ranking::{HeuristicKind, Ranking};
use crate::view::SubtreeView;
use crate::Heuristic;

/// The paper's separator-tag priority list, best first.
pub const PAPER_SEPARATOR_LIST: &[&str] = &[
    "hr", "tr", "td", "a", "table", "p", "br", "h4", "h1", "strong", "b", "i",
];

/// The identifiable-separator-tags heuristic, over
/// [`PAPER_SEPARATOR_LIST`]. Stateless.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentifiableTags;

impl IdentifiableTags {
    /// The list's candidates with their 1-based priority, best first.
    fn listed<'v>(view: &'v SubtreeView<'_>) -> impl Iterator<Item = (usize, &'static str)> + 'v {
        PAPER_SEPARATOR_LIST
            .iter()
            .enumerate()
            .filter(|(_, tag)| view.slot(tag).is_some())
            .map(|(i, tag)| (i + 1, *tag))
    }
}

impl Heuristic for IdentifiableTags {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::IT
    }

    fn rank(&self, view: &SubtreeView<'_>) -> Option<Ranking> {
        let ordered = Self::listed(view).map(|(_, t)| t.to_owned()).collect();
        Some(Ranking::from_order(HeuristicKind::IT, ordered))
    }

    fn score_inputs(&self, view: &SubtreeView<'_>) -> Vec<(String, f64)> {
        Self::listed(view)
            .map(|(priority, t)| (format!("priority:{t}"), priority as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::DEFAULT_CANDIDATE_THRESHOLD;
    use rbd_tagtree::TagTreeBuilder;

    fn view_of(src: &str) -> (rbd_tagtree::TagTree, ()) {
        (TagTreeBuilder::default().build(src), ())
    }

    #[test]
    fn figure2_it_order() {
        let src = "<td><hr><b>A</b><br>x y z<hr><b>B</b><br>x y z<hr><b>C</b><br>x y z<hr></td>";
        let (tree, ()) = view_of(src);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let r = IdentifiableTags.rank(&view).unwrap();
        assert_eq!(r.to_paper_string(), "IT: [(hr, 1), (br, 2), (b, 3)]");
    }

    #[test]
    fn unknown_candidates_discarded() {
        let src = "<td><blink>a</blink><blink>b</blink><hr>c<hr>d</td>";
        let (tree, ()) = view_of(src);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let r = IdentifiableTags.rank(&view).unwrap();
        assert_eq!(r.rank_of("hr"), Some(1));
        assert_eq!(r.rank_of("blink"), None);
    }

    #[test]
    fn empty_when_no_candidate_listed() {
        let src =
            "<td><blink>a</blink><blink>b</blink><marquee>c</marquee><marquee>d</marquee></td>";
        let (tree, ()) = view_of(src);
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let r = IdentifiableTags.rank(&view).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn paper_list_is_twelve_long() {
        assert_eq!(PAPER_SEPARATOR_LIST.len(), 12);
        assert_eq!(PAPER_SEPARATOR_LIST[0], "hr");
        assert_eq!(PAPER_SEPARATOR_LIST[11], "i");
    }
}
