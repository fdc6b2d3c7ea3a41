//! The precomputed document view every heuristic consumes.
//!
//! One pass over the subtree's start tags ([`TagTree::descendant_tags`],
//! each an interned name and a text-arena offset) fills every
//! per-candidate table the structural heuristics read: the character
//! offset of each occurrence of each candidate (SD's intervals; their
//! number is the occurrence count RP and OM compare against) and the
//! adjacent candidate pairs with their counts (RP). The text between two
//! consecutive start tags is the arena slice between their offsets, so
//! the pass copies neither names nor text.

use rbd_tagtree::{CandidateTag, NodeId, TagTree};

/// The paper's default irrelevance threshold: a child start-tag is a
/// candidate only if it accounts for at least 10 % of the tags in the
/// highest-fan-out subtree (§3).
pub const DEFAULT_CANDIDATE_THRESHOLD: f64 = 0.10;

/// Two candidate tags whose start tags follow each other in the subtree
/// with only whitespace between them, and how often they do — RP's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjacentPair {
    /// Candidate slot of the first tag.
    pub first: usize,
    /// Candidate slot of the second tag.
    pub second: usize,
    /// Number of occurrences of the pair.
    pub count: usize,
}

/// A prepared view of one document's highest-fan-out subtree: the candidate
/// tags, the per-candidate tables the heuristics score, and the plain text
/// OM scans. A candidate's *slot* is its index in
/// [`SubtreeView::candidates`]; the tables are indexed by slot. The text
/// borrows from the tree.
#[derive(Debug, Clone)]
pub struct SubtreeView<'t> {
    tree: &'t TagTree,
    root: NodeId,
    candidates: Vec<CandidateTag>,
    /// Per slot: the character offset, into the subtree text, of each
    /// occurrence of the candidate anywhere in the subtree.
    offsets: Vec<Vec<usize>>,
    /// Adjacent candidate pairs in first-appearance order.
    pairs: Vec<AdjacentPair>,
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
        let candidates = tree.candidate_tags(root, threshold);
        let mut slot_of = vec![None; tree.symbols().len()];
        for (slot, c) in candidates.iter().enumerate() {
            if let Some(entry) = slot_of.get_mut(c.sym.index()) {
                *entry = Some(slot);
            }
        }
        let arena = tree.plain_text();
        let mut offsets = vec![Vec::new(); candidates.len()];
        let mut pairs: Vec<AdjacentPair> = Vec::new();
        // `chars` counts the subtree text before arena offset `counted`,
        // which advances to each candidate tag; `prev` is the previous
        // start tag's slot, `None` when that tag is no candidate. When it
        // is one, the text since `counted` is exactly the gap between the
        // two tags.
        let mut counted = tree.subtree_text_span(root).start;
        let mut chars = 0usize;
        let mut prev: Option<usize> = None;
        for (sym, at) in tree.descendant_tags(root) {
            let Some(slot) = slot_of.get(sym.index()).copied().flatten() else {
                prev = None;
                continue;
            };
            let gap = arena.get(counted..at).unwrap_or_default();
            chars += gap.chars().count();
            counted = at;
            if let Some(list) = offsets.get_mut(slot) {
                list.push(chars);
            }
            if let Some(first) = prev {
                if gap.chars().all(char::is_whitespace) {
                    match pairs
                        .iter_mut()
                        .find(|p| p.first == first && p.second == slot)
                    {
                        Some(pair) => pair.count += 1,
                        None => pairs.push(AdjacentPair {
                            first,
                            second: slot,
                            count: 1,
                        }),
                    }
                }
            }
            prev = Some(slot);
        }
        SubtreeView {
            tree,
            root,
            candidates,
            offsets,
            pairs,
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
    /// dropped tags can no longer win the consensus. The tables keep the
    /// survivors' rows; a pair with a dropped member goes.
    pub fn cap_candidates(&mut self, max: usize) -> usize {
        let before = self.candidates.len();
        if before <= max {
            return before;
        }
        // Rank slots by count descending; stable sort keeps earlier tags
        // ahead on ties.
        let mut kept: Vec<usize> = (0..before).collect();
        kept.sort_by_key(|&i| std::cmp::Reverse(self.candidates.get(i).map_or(0, |c| c.count)));
        kept.truncate(max);
        kept.sort_unstable(); // back to document order
        let renumber = |old: usize| kept.binary_search(&old).ok();
        self.candidates = kept
            .iter()
            .filter_map(|&old| self.candidates.get(old).cloned())
            .collect();
        self.offsets = kept
            .iter()
            .filter_map(|&old| self.offsets.get_mut(old).map(std::mem::take))
            .collect();
        self.pairs = self
            .pairs
            .iter()
            .filter_map(|p| {
                Some(AdjacentPair {
                    first: renumber(p.first)?,
                    second: renumber(p.second)?,
                    count: p.count,
                })
            })
            .collect();
        before
    }

    /// The slot of the candidate named `tag`, if `tag` is a candidate.
    pub fn slot(&self, tag: &str) -> Option<usize> {
        let sym = self.tree.symbols().lookup(tag)?;
        self.candidates.iter().position(|c| c.sym == sym)
    }

    /// Concatenated plain text of the subtree — what OM's regular
    /// expressions run over.
    pub fn text(&self) -> &'t str {
        self.text
    }

    /// Per candidate slot: the character offset, into
    /// [`SubtreeView::text`], of each occurrence of the candidate anywhere
    /// in the subtree, in document order. SD measures the intervals
    /// between them.
    pub fn text_offsets(&self) -> &[Vec<usize>] {
        &self.offsets
    }

    /// Occurrences of the candidate in `slot` anywhere in the subtree (not
    /// just among the root's immediate children) — the basis RP and OM
    /// compare counts against.
    pub fn occurrences(&self, slot: usize) -> usize {
        self.offsets.get(slot).map_or(0, Vec::len)
    }

    /// Consecutive candidate start tags with only whitespace between them,
    /// with occurrence counts, in first-appearance order: RP's input. A
    /// non-candidate tag between two candidates breaks the pair.
    pub fn adjacent_pairs(&self) -> &[AdjacentPair] {
        &self.pairs
    }

    /// Byte offsets, into [`SubtreeView::text`], at which each occurrence
    /// of `tag` among the subtree root's *immediate children* falls. These
    /// are the cut positions for partitioning a Data-Record Table built
    /// over the subtree text (§4.5's integrated pipeline), on the same
    /// basis as record chunking: each child's text-arena offset.
    pub fn child_tag_text_byte_offsets(&self, tag: &str) -> Vec<usize> {
        let base = self.tree.subtree_text_span(self.root).start;
        self.tree
            .children_named(self.root, tag)
            .into_iter()
            .map(|c| self.tree.subtree_text_span(c).start - base)
            .collect()
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
        let hr = view.slot("hr").unwrap();
        assert_eq!(view.candidates()[hr].count, 3);
        assert!(view.slot("b").is_some());
        assert_eq!(view.slot("td"), None);
        assert_eq!(view.slot("blink"), None); // never interned
    }

    #[test]
    fn text_concatenation() {
        let tree = TagTreeBuilder::default().build(doc());
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        assert!(view.text().contains("one two three"));
        assert!(view.text().contains("Cyd"));
    }

    #[test]
    fn text_offsets_measure_intervals() {
        let tree = TagTreeBuilder::default().build(doc());
        let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        let offsets = &view.text_offsets()[view.slot("hr").unwrap()];
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
        let name = |slot: usize| view.candidates()[slot].name.as_str();
        let pairs: Vec<(&str, &str, usize)> = view
            .adjacent_pairs()
            .iter()
            .map(|p| (name(p.first), name(p.second), p.count))
            .collect();
        // <hr><b> adjacent through whitespace; <b> to <br> blocked by text;
        // <br><hr> adjacent. First-appearance order.
        assert_eq!(pairs, vec![("hr", "b", 3), ("br", "hr", 2)]);
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
        assert_eq!(view.slot("br"), None);
        assert_eq!(view.text_offsets().len(), 2);
        assert_eq!(view.occurrences(1), 3);
        // Capping above the length is a no-op.
        let mut view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
        assert_eq!(view.cap_candidates(10), 3);
        assert_eq!(view.candidates().len(), 3);
    }

    #[test]
    fn occurrences_include_nested() {
        let tree = TagTreeBuilder::default()
            .build("<td><p><b>x</b></p><b>y</b><b>z</b><p>q</p><p>r</p></td>");
        let view = SubtreeView::from_tree(&tree, 0.0);
        let b = view.slot("b").unwrap();
        assert_eq!(view.occurrences(b), 3);
        assert_eq!(view.candidates()[b].count, 2); // children only
    }

    #[test]
    fn capping_drops_pairs_with_a_dropped_member() {
        // hr=3, b=3, i=1 children; <i> sits between <hr> and <b> once.
        let tree = TagTreeBuilder::default()
            .build("<td><hr><b>x</b>y<hr><i>z</i><b>w</b>v<hr><b>u</b>t</td>");
        let mut view = SubtreeView::from_tree(&tree, 0.0);
        let pairs = |view: &SubtreeView<'_>| -> Vec<(String, String, usize)> {
            view.adjacent_pairs()
                .iter()
                .map(|p| {
                    let c = view.candidates();
                    (c[p.first].name.clone(), c[p.second].name.clone(), p.count)
                })
                .collect()
        };
        let all = pairs(&view);
        assert_eq!(all.len(), 2);
        assert_eq!(view.cap_candidates(2), 3);
        let capped = pairs(&view);
        assert_eq!(capped, vec![("hr".to_owned(), "b".to_owned(), 2)]);
        // <i> still breaks the one <hr><i><b> run after capping.
        assert_eq!(view.occurrences(view.slot("hr").unwrap()), 3);
    }
}
