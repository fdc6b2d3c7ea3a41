//! The precomputed document view every heuristic consumes.

use rbd_tagtree::{CandidateTag, FlatEvent, NodeId, TagTree};

/// The paper's default irrelevance threshold: a child start-tag is a
/// candidate only if it accounts for at least 10 % of the tags in the
/// highest-fan-out subtree (§3).
pub const DEFAULT_CANDIDATE_THRESHOLD: f64 = 0.10;

/// A prepared view of one document's highest-fan-out subtree: the candidate
/// tags plus the flattened event sequence and plain text the heuristics
/// score against. Events and text borrow from the tree.
#[derive(Debug, Clone)]
pub struct SubtreeView<'t> {
    tree: &'t TagTree,
    root: NodeId,
    candidates: Vec<CandidateTag>,
    flat: Vec<FlatEvent<'t>>,
    text: &'t str,
}

impl<'t> SubtreeView<'t> {
    /// Builds the view for the highest-fan-out subtree of `tree`.
    pub fn from_tree(tree: &'t TagTree, threshold: f64) -> Self {
        let root = tree.highest_fanout();
        Self::for_subtree(tree, root, threshold)
    }

    /// Builds the view for an explicit subtree root (used by ablations).
    pub fn for_subtree(tree: &'t TagTree, root: NodeId, threshold: f64) -> Self {
        SubtreeView {
            tree,
            root,
            candidates: tree.candidate_tags(root, threshold),
            flat: tree.flatten(root),
            text: tree.subtree_text(root),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &'t TagTree {
        self.tree
    }

    /// The subtree root (normally the highest-fan-out node).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Candidate separator tags with their child-appearance counts.
    pub fn candidates(&self) -> &[CandidateTag] {
        &self.candidates
    }

    /// Truncates the candidate set to at most `max` tags, keeping the
    /// highest appearance counts (document order among the survivors is
    /// preserved; ties prefer earlier tags). Returns the count before
    /// truncation. Resource governance uses this so every heuristic sees
    /// the same capped set — an event the caller must report, since the
    /// dropped tags can no longer win the consensus.
    pub fn cap_candidates(&mut self, max: usize) -> usize {
        let before = self.candidates.len();
        if before <= max {
            return before;
        }
        // Rank indices by count descending; stable sort keeps earlier tags
        // ahead on ties.
        let mut by_count: Vec<usize> = (0..before).collect();
        by_count.sort_by_key(|&i| std::cmp::Reverse(self.candidates[i].count));
        by_count.truncate(max);
        by_count.sort_unstable(); // back to document order
        self.candidates = by_count
            .into_iter()
            .map(|i| self.candidates[i].clone())
            .collect();
        before
    }

    /// `true` if `tag` is one of the candidates.
    pub fn is_candidate(&self, tag: &str) -> bool {
        self.candidates.iter().any(|c| c.name == tag)
    }

    /// Child-appearance count of a candidate tag.
    pub fn candidate_count(&self, tag: &str) -> Option<usize> {
        self.candidates
            .iter()
            .find(|c| c.name == tag)
            .map(|c| c.count)
    }

    /// The flattened subtree events in document order.
    pub fn flat(&self) -> &[FlatEvent<'t>] {
        &self.flat
    }

    /// Concatenated plain text of the subtree — what OM's regular
    /// expressions run over.
    pub fn text(&self) -> &'t str {
        self.text
    }

    /// Positions (cumulative plain-text character offsets) of each
    /// occurrence of each candidate tag in the flattened view, in candidate
    /// order. Used by SD to measure the text intervals between identical
    /// tags. One walk serves every candidate, counting each text run's
    /// characters once.
    pub fn candidate_text_offsets(&self) -> Vec<Vec<usize>> {
        let mut offsets = vec![Vec::new(); self.candidates.len()];
        let mut cum = 0usize;
        for ev in &self.flat {
            match ev {
                FlatEvent::Tag { name, .. } => {
                    if let Some(i) = self.candidates.iter().position(|c| c.name == *name) {
                        if let Some(slot) = offsets.get_mut(i) {
                            slot.push(cum);
                        }
                    }
                }
                FlatEvent::Text { text } => cum += text.chars().count(),
            }
        }
        offsets
    }

    /// Byte offsets, into [`SubtreeView::text`], at which each occurrence
    /// of `tag` among the subtree root's *immediate children* falls. These
    /// are the cut positions for partitioning a Data-Record Table built
    /// over the subtree text (§4.5's integrated pipeline).
    pub fn child_tag_text_byte_offsets(&self, tag: &str) -> Vec<usize> {
        let mut offsets = Vec::new();
        let mut cum = 0usize;
        for ev in &self.flat {
            match ev {
                FlatEvent::Tag { name, depth, .. } => {
                    if *depth == 1 && *name == tag {
                        offsets.push(cum);
                    }
                }
                FlatEvent::Text { text } => cum += text.len(),
            }
        }
        offsets
    }

    /// Consecutive tag pairs in the flattened view with no intervening
    /// non-whitespace text, with occurrence counts. Only pairs whose both
    /// members are candidates are reported (the RP heuristic's input).
    pub fn adjacent_candidate_pairs(&self) -> Vec<(String, String, usize)> {
        let mut counts: Vec<(String, String, usize)> = Vec::new();
        let mut prev_tag: Option<&str> = None;
        for ev in &self.flat {
            match ev {
                FlatEvent::Tag { name, .. } => {
                    if let Some(a) = prev_tag {
                        if self.is_candidate(a) && self.is_candidate(name) {
                            match counts.iter_mut().find(|(x, y, _)| x == a && y == name) {
                                Some(entry) => entry.2 += 1,
                                None => counts.push((a.to_owned(), (*name).to_owned(), 1)),
                            }
                        }
                    }
                    prev_tag = Some(name);
                }
                FlatEvent::Text { text } => {
                    if !text.chars().all(char::is_whitespace) {
                        prev_tag = None;
                    }
                }
            }
        }
        counts
    }

    /// Total occurrence count of `tag` anywhere in the flattened subtree
    /// (not just among immediate children). RP compares pair counts against
    /// this basis.
    pub fn occurrence_count(&self, tag: &str) -> usize {
        self.flat
            .iter()
            .filter(|ev| matches!(ev, FlatEvent::Tag { name, .. } if *name == tag))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_tagtree::TagTreeBuilder;

    fn doc() -> &'static str {
        "<html><body><table><tr><td>\
         <hr><b>Ann</b><br> one two three \
         <hr><b>Bob</b><br> four five six \
         <hr><b>Cyd</b><br> seven eight nine \
         </td></tr></table></body></html>"
    }

    #[test]
    fn view_candidates() {
        let tree = TagTreeBuilder::default().build(doc());
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        assert_eq!(tree.name(view.root()), "td");
        let mut names: Vec<&str> = view.candidates().iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["b", "br", "hr"]);
        assert_eq!(view.candidate_count("hr"), Some(3));
        assert!(view.is_candidate("b"));
        assert!(!view.is_candidate("td"));
    }

    #[test]
    fn text_concatenation() {
        let tree = TagTreeBuilder::default().build(doc());
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        assert!(view.text().contains("one two three"));
        assert!(view.text().contains("Cyd"));
    }

    #[test]
    fn candidate_text_offsets_measure_intervals() {
        let tree = TagTreeBuilder::default().build(doc());
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let hr = view.candidates().iter().position(|c| c.name == "hr");
        let offsets = &view.candidate_text_offsets()[hr.unwrap()];
        assert_eq!(offsets.len(), 3);
        // Records are the same size, so intervals are equal.
        let i1 = offsets[1] - offsets[0];
        let i2 = offsets[2] - offsets[1];
        assert_eq!(i1, i2);
    }

    #[test]
    fn adjacent_pairs_skip_whitespace_but_not_text() {
        let tree = TagTreeBuilder::default()
            .build("<td><hr> <b>x</b>text<br><hr> <b>y</b>text<br><hr> <b>z</b>text<br></td>");
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let pairs = view.adjacent_candidate_pairs();
        // <hr><b> adjacent through whitespace; <b> to <br> blocked by text;
        // <br><hr> adjacent.
        assert!(pairs
            .iter()
            .any(|(a, b, n)| a == "hr" && b == "b" && *n == 3));
        assert!(pairs
            .iter()
            .any(|(a, b, n)| a == "br" && b == "hr" && *n == 2));
        assert!(!pairs.iter().any(|(a, b, _)| a == "b" && b == "br"));
    }

    #[test]
    fn child_tag_byte_offsets_index_the_text() {
        let tree = TagTreeBuilder::default().build("<td>pre<hr>alpha<hr>beta</td>");
        let view = SubtreeView::from_tree(&tree, 0.0);
        let cuts = view.child_tag_text_byte_offsets("hr");
        assert_eq!(cuts, vec![3, 8]); // after "pre", after "prealpha"
        let text = view.text();
        assert_eq!(&text[..cuts[0]], "pre");
        assert_eq!(&text[cuts[0]..cuts[1]], "alpha");
        assert_eq!(&text[cuts[1]..], "beta");
    }

    #[test]
    fn cap_candidates_keeps_top_counts_in_document_order() {
        let tree = TagTreeBuilder::default().build(doc());
        let mut view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        // hr=3, b=3, br=3 in document order hr, b, br. Capping to 2 keeps
        // the first two on the count tie.
        let before = view.cap_candidates(2);
        assert_eq!(before, 3);
        let names: Vec<&str> = view.candidates().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["hr", "b"]);
        assert!(!view.is_candidate("br"));
        // Capping above the length is a no-op.
        let mut view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        assert_eq!(view.cap_candidates(10), 3);
        assert_eq!(view.candidates().len(), 3);
    }

    #[test]
    fn occurrence_count_includes_nested() {
        let tree = TagTreeBuilder::default()
            .build("<td><p><b>x</b></p><b>y</b><b>z</b><p>q</p><p>r</p></td>");
        let view = SubtreeView::from_tree(&tree, 0.0);
        assert_eq!(view.occurrence_count("b"), 3);
        assert_eq!(view.candidate_count("b"), Some(2)); // children only
    }
}
