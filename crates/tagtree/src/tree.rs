//! The tag tree and its analysis operations (Section 3).
//!
//! Storage is allocation-light: nodes live in a flat arena, tag names are
//! interned [`Sym`]s resolved against the tree's [`SymbolTable`], and all
//! inner/trailing text lives in one shared `String` arena that nodes
//! reference by byte span — a node carries no heap strings of its own.
//!
//! The arena holds the document's plain text in document order, and every
//! node's spans are positioned even when empty: `inner` starts where the
//! arena stood at the node's start tag, `trailing` where it stood at its
//! end tag. A subtree's text is therefore one arena slice,
//! `[inner.start, trailing.start)`, and so is the text of any run of
//! sibling subtrees — which is how records are chunked and the heuristic
//! view is built without copying text.

use rbd_html::{Span, Sym, SymbolTable};
use rbd_limits::LimitExceeded;
use std::fmt;

/// Index of a node in a [`TagTree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The synthetic root node's id.
    pub const ROOT: NodeId = NodeId(0);

    /// Arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error from tag-tree construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// The document would produce more than `u32::MAX` nodes, overflowing
    /// the arena's `NodeId` space.
    TooManyNodes,
    /// A configured [`TreeBudget`] cap was exceeded (input bytes, arena
    /// nodes, or nesting depth). Unlike the error above this one is
    /// *routinely* reachable — it is how a governed build refuses a tag
    /// bomb instead of allocating it.
    Limit(LimitExceeded),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::TooManyNodes => {
                write!(f, "document exceeds the arena's u32 node capacity")
            }
            TreeError::Limit(e) => write!(f, "tree construction over budget: {e}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<LimitExceeded> for TreeError {
    fn from(e: LimitExceeded) -> Self {
        TreeError::Limit(e)
    }
}

/// A resource budget for one tag-tree build.
///
/// Every cap is `None` (unbounded) by default, which reproduces the
/// historical unbudgeted behavior exactly. Caps are enforced *during*
/// construction, before the offending allocation happens: a build that
/// would exceed a cap returns [`TreeError::Limit`] — it never returns a
/// silently truncated tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeBudget {
    /// Maximum source length in bytes (checked before tokenizing).
    pub max_input_bytes: Option<usize>,
    /// Maximum arena size in nodes, *including* the synthetic root.
    pub max_nodes: Option<usize>,
    /// Maximum nesting depth of open elements (the root sits at depth 0,
    /// its children at depth 1).
    pub max_depth: Option<usize>,
}

impl TreeBudget {
    /// A budget with no caps.
    #[must_use]
    pub fn unbounded() -> Self {
        TreeBudget::default()
    }
}

/// One node of the tag tree: the paper's `[G, I, O]` triple plus structure.
///
/// Text is stored as spans into the owning tree's shared text arena; use
/// [`TagTree::inner_text`] / [`TagTree::trailing_text`] to read it,
/// [`TagTree::subtree_text_span`] to address the whole subtree's text, and
/// [`TagTree::name`] to resolve the interned tag name.
#[derive(Debug, Clone)]
pub struct Node {
    /// Start-tag name `G`, interned (the synthetic root is named `#root`).
    pub name: Sym,
    /// Inner text `I` as a span of the tree's text arena: plain text between
    /// the start-tag and the next tag. Starts at the arena offset of the
    /// start-tag, even when empty.
    pub(crate) inner: Span,
    /// Trailing text `O` as a span of the tree's text arena: plain text
    /// between this node's end-tag and the next tag. Belongs to the parent's
    /// region but is recorded on this node, exactly as the paper's node form
    /// specifies. Starts at the arena offset of the end-tag, even when empty.
    pub(crate) trailing: Span,
    /// Children in document order.
    pub children: Vec<NodeId>,
    /// Parent node (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Byte span of the node's region in the source document: from the
    /// start of the start-tag to the end of the (possibly synthetic)
    /// end-tag.
    pub region: Span,
    /// Byte span of the start-tag itself.
    pub start_tag: Span,
}

impl Node {
    /// Number of immediate children — the node's *fan-out*.
    pub fn fanout(&self) -> usize {
        self.children.len()
    }
}

/// A start-tag that survived the 10 % filter among the children of the
/// highest-fan-out node — a potential record separator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateTag {
    /// Tag name.
    pub name: String,
    /// The name interned in the tree's [`SymbolTable`].
    pub sym: Sym,
    /// Number of appearances among the subtree root's immediate children.
    pub count: usize,
}

/// The tag tree of a document (paper Figure 2(b)), stored as an arena.
#[derive(Debug, Clone)]
pub struct TagTree {
    pub(crate) nodes: Vec<Node>,
    /// Shared text arena: every node's inner/trailing text is a span here.
    pub(crate) text: String,
    /// Interner the nodes' name [`Sym`]s resolve against.
    pub(crate) symbols: SymbolTable,
    /// Length of the source document in bytes (regions index into it).
    pub(crate) source_len: usize,
}

impl TagTree {
    pub(crate) fn new(
        nodes: Vec<Node>,
        text: String,
        symbols: SymbolTable,
        source_len: usize,
    ) -> Self {
        debug_assert!(!nodes.is_empty());
        TagTree {
            nodes,
            text,
            symbols,
            source_len,
        }
    }

    /// A tree holding only the synthetic root — what an empty document
    /// builds, and the fallback the infallible builder API degrades to.
    pub(crate) fn empty(source_len: usize) -> Self {
        let mut symbols = SymbolTable::new();
        let root = symbols.intern(ROOT_NAME);
        TagTree::new(
            vec![root_node(root, source_len)],
            String::new(),
            symbols,
            source_len,
        )
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        // NodeIds are only minted by this module's constructor, so an
        // in-tree id always indexes the arena; mixing ids across trees is a
        // caller bug worth failing loudly on.
        self.nodes
            .get(id.index())
            // rbd-lint: allow(panic) — ids are minted by this tree's constructor, always in-bounds
            .expect("NodeId does not belong to this TagTree")
    }

    /// The symbol table the nodes' name [`Sym`]s resolve against.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Resolved tag name of `id` (the synthetic root is `#root`).
    pub fn name(&self, id: NodeId) -> &str {
        self.symbols.resolve(self.node(id).name)
    }

    /// Inner text `I` of `id`: plain text between its start-tag and the
    /// next tag, entities decoded.
    pub fn inner_text(&self, id: NodeId) -> &str {
        self.node(id).inner.slice(&self.text)
    }

    /// Trailing text `O` of `id`: plain text between its end-tag and the
    /// next tag, entities decoded.
    pub fn trailing_text(&self, id: NodeId) -> &str {
        self.node(id).trailing.slice(&self.text)
    }

    /// Arena span of the subtree text of `id`: every inner and trailing run
    /// of its descendants plus its own inner text, in document order (its
    /// own trailing text belongs to its parent). The root's runs to the end
    /// of the arena.
    pub fn subtree_text_span(&self, id: NodeId) -> Span {
        let node = self.node(id);
        let end = if id == NodeId::ROOT {
            self.text.len()
        } else {
            node.trailing.start
        };
        Span::new(node.inner.start, end)
    }

    /// The whole text arena: the document's plain text, entities decoded,
    /// in document order. [`TagTree::subtree_text_span`] indexes into it.
    pub fn plain_text(&self) -> &str {
        &self.text
    }

    /// The synthetic root (named `#root`); its children are the document's
    /// top-level elements.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Total number of nodes including the synthetic root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has only the synthetic root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Length of the source document in bytes.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// All node ids in document (pre-) order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        #[allow(clippy::cast_possible_truncation)]
        // rbd-lint: allow(cast) — construction caps the arena at u32::MAX nodes (TooManyNodes)
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The node with the highest fan-out (most immediate children); ties go
    /// to the earliest node in document order. This is the paper's
    /// conjecture for where the records live.
    pub fn highest_fanout(&self) -> NodeId {
        let mut best = NodeId::ROOT;
        let mut best_fanout = self.node(best).fanout();
        for id in self.ids().skip(1) {
            let f = self.node(id).fanout();
            if f > best_fanout {
                best = id;
                best_fanout = f;
            }
        }
        best
    }

    /// Number of start-tags in the subtree rooted at `id`, excluding `id`
    /// itself — the paper's "total number of tags in the subtree rooted at
    /// N" used as the base of the 10 % irrelevance threshold: the length
    /// of the subtree's arena run.
    pub fn subtree_tag_count(&self, id: NodeId) -> usize {
        self.descendant_range(id).len()
    }

    /// Arena indices of the subtree rooted at `id`, excluding `id`. The
    /// builder pushes every node at its start tag, so a subtree is the
    /// contiguous run of ids after its root that ends at the root's
    /// last-child chain; finding it costs the subtree's depth, not its
    /// size.
    fn descendant_range(&self, id: NodeId) -> std::ops::Range<usize> {
        let mut last = id;
        while let Some(&c) = self.node(last).children.last() {
            last = c;
        }
        id.index() + 1..last.index() + 1
    }

    /// Appearance counts of each start-tag among the *immediate children*
    /// of `id`, in first-appearance order. Interned names make this an
    /// array bump per child rather than a string-compare scan.
    pub fn child_tag_counts(&self, id: NodeId) -> Vec<CandidateTag> {
        let mut counts = vec![0usize; self.symbols.len()];
        let mut order: Vec<Sym> = Vec::new();
        for &c in &self.node(id).children {
            let sym = self.node(c).name;
            if let Some(slot) = counts.get_mut(sym.index()) {
                if *slot == 0 {
                    order.push(sym);
                }
                *slot += 1;
            }
        }
        order
            .into_iter()
            .map(|sym| CandidateTag {
                name: self.symbols.resolve(sym).to_owned(),
                sym,
                count: counts.get(sym.index()).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Candidate separator tags of the subtree rooted at `id`: child
    /// start-tags whose appearance count is at least `threshold` (the paper
    /// uses 10 %) of the subtree's total tag count. Tags below the
    /// threshold are *irrelevant*.
    pub fn candidate_tags(&self, id: NodeId, threshold: f64) -> Vec<CandidateTag> {
        let total_tags = self.subtree_tag_count(id);
        if total_tags == 0 {
            // A leaf subtree (empty or all-comment document) has no child
            // tags and therefore no candidates. Returning early keeps the
            // answer out of float territory: `count >= threshold * 0.0`
            // would otherwise admit every tag of a hypothetical caller that
            // mixed ids across trees, and NaN comparisons are always false.
            return Vec::new();
        }
        let total = total_tags as f64;
        self.child_tag_counts(id)
            .into_iter()
            .filter(|t| (t.count as f64) >= threshold * total)
            .collect()
    }

    /// The start tags of the subtree rooted at `id`, excluding `id`'s own,
    /// in document order: each tag's interned name and the text-arena
    /// offset at which it stands, so the text between two consecutive
    /// tags is the arena slice between their offsets.
    ///
    /// The subtree is one run of the arena, so this walks a slice, not
    /// the tree.
    pub fn descendant_tags(&self, id: NodeId) -> impl Iterator<Item = (Sym, usize)> + '_ {
        self.nodes
            .get(self.descendant_range(id))
            .unwrap_or_default()
            .iter()
            .map(|n| (n.name, n.inner.start))
    }

    /// Concatenated plain text of the subtree rooted at `id`: a slice of
    /// the arena, no copy.
    pub fn subtree_text(&self, id: NodeId) -> &str {
        self.subtree_text_span(id).slice(&self.text)
    }

    /// Every occurrence of `tag` among the immediate children of `id`, in
    /// document order. These are the record-boundary cut points.
    pub fn children_named(&self, id: NodeId, tag: &str) -> Vec<NodeId> {
        // A name nobody interned can't name any node.
        let Some(sym) = self.symbols.lookup(tag) else {
            return Vec::new();
        };
        self.node(id)
            .children
            .iter()
            .copied()
            .filter(|&c| self.node(c).name == sym)
            .collect()
    }

    /// Renders the tree as an indented outline (for debugging and docs).
    pub fn outline(&self) -> String {
        // Iterative preorder: outline depth is bounded by the document's
        // nesting, never by the call stack.
        let mut s = String::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];
        while let Some((id, depth)) = stack.pop() {
            let node = self.node(id);
            for _ in 0..depth {
                s.push_str("  ");
            }
            s.push_str(self.symbols.resolve(node.name));
            s.push('\n');
            for &c in node.children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        s
    }
}

/// Name of the synthetic root. `#` is not a tag-name byte, so no document
/// tag can ever collide with it in the symbol table.
pub(crate) const ROOT_NAME: &str = "#root";

/// The synthetic root every tree starts from.
pub(crate) fn root_node(name: Sym, source_len: usize) -> Node {
    Node {
        name,
        inner: Span::new(0, 0),
        trailing: Span::new(0, 0),
        children: Vec::new(),
        parent: None,
        region: Span::new(0, source_len),
        start_tag: Span::new(0, 0),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{NodeId, TagTree};
    use crate::builder::TagTreeBuilder;

    fn build(src: &str) -> TagTree {
        TagTreeBuilder::default().build(src)
    }

    /// Node ids of the subtree rooted at `id`, in document order,
    /// including `id` itself, found by walking the children lists: the
    /// oracle for the arena-run reads (`subtree_tag_count`,
    /// `descendant_tags`).
    pub(crate) fn descendants(tree: &TagTree, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children reversed so they pop in document order.
            for &c in tree.node(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    #[test]
    fn figure2_tree_outline() {
        let src = "<html><head><title>Classifieds</title></head><body>\
            <table><tr><td>\
            <h1>Funeral Notices - </h1> October 1, 1998 <hr>\
            <b>Lemar K. Adamson</b><br> died on September 30, 1998. <b>MEMORIAL CHAPEL</b>, <br><hr>\
            Our beloved <b>Brian Fielding Frost</b>, <b>Howard Stake Center</b>, <b>Carrillo's Tucson Mortuary</b>, Holy Hope Cemetery<br>, <hr>\
            <b>Leonard Kenneth Gunther</b><br> passed away. <b>HEATHER MORTUARY</b>, at <b>HEATHER MORTUARY</b>, on Tuesday.<br><hr>\
            </td></tr></table>All material is copyrighted.</body></html>";
        let tree = build(src);
        let expected = "#root\n  html\n    head\n      title\n    body\n      table\n        tr\n          td\n            h1\n            hr\n            b\n            br\n            b\n            br\n            hr\n            b\n            b\n            b\n            br\n            hr\n            b\n            br\n            b\n            b\n            br\n            hr\n";
        assert_eq!(tree.outline(), expected);
    }

    #[test]
    fn figure2_fanout_and_candidates() {
        let src = "<html><head><title>C</title></head><body><table><tr><td>\
            <h1>F</h1> text <hr>\
            <b>A</b><br> xx <b>M</b> yy <br><hr>\
            <b>B</b> zz <b>H</b> <b>T</b> ww <br><hr>\
            <b>L</b><br> vv <b>H2</b> <b>H3</b> uu <br><hr>\
            </td></tr></table></body></html>";
        let tree = build(src);
        let hf = tree.highest_fanout();
        assert_eq!(tree.name(hf), "td");
        assert_eq!(tree.node(hf).fanout(), 18);
        assert_eq!(tree.subtree_tag_count(hf), 18);
        let cands = tree.candidate_tags(hf, 0.10);
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["hr", "b", "br"]);
        let by_name = |n: &str| cands.iter().find(|c| c.name == n).unwrap().count;
        assert_eq!(by_name("hr"), 4);
        assert_eq!(by_name("b"), 8);
        assert_eq!(by_name("br"), 5);
    }

    #[test]
    fn inner_and_trailing_text() {
        let tree = build("<td><b>name</b> died on <hr></td>");
        let td = tree.highest_fanout();
        assert_eq!(tree.name(td), "td");
        let b = tree.node(td).children[0];
        assert_eq!(tree.name(b), "b");
        assert_eq!(tree.inner_text(b), "name");
        assert_eq!(tree.trailing_text(b), " died on ");
    }

    #[test]
    fn nested_text_attachment() {
        let tree = build("<div>lead<p>para</p>tail</div>");
        let div = tree.node(tree.root()).children[0];
        assert_eq!(tree.inner_text(div), "lead");
        let p = tree.node(div).children[0];
        assert_eq!(tree.inner_text(p), "para");
        assert_eq!(tree.trailing_text(p), "tail");
    }

    #[test]
    fn entities_decode_into_the_arena() {
        let tree = build("<td><b>Smith &amp; Sons</b> of A&#110;n </td>");
        let td = tree.node(tree.root()).children[0];
        let b = tree.node(td).children[0];
        assert_eq!(tree.inner_text(b), "Smith & Sons");
        assert_eq!(tree.trailing_text(b), " of Ann ");
    }

    #[test]
    fn subtree_text_concatenates_in_order() {
        let tree = build("<div>a<p>b</p>c<p>d</p>e</div>");
        let div = tree.ids().find(|&i| tree.name(i) == "div").unwrap();
        assert_eq!(tree.subtree_text(div), "abcde");
    }

    #[test]
    fn descendant_tags_in_document_order() {
        let tree = build("<div><p>x<b>y</b></p><hr></div>");
        let div = tree.ids().find(|&i| tree.name(i) == "div").unwrap();
        let tags: Vec<(&str, usize)> = tree
            .descendant_tags(div)
            .map(|(sym, at)| (tree.symbols().resolve(sym), at))
            .collect();
        assert_eq!(tags, vec![("p", 0), ("b", 1), ("hr", 2)]);
        let leaf = tree.ids().find(|&i| tree.name(i) == "hr").unwrap();
        assert_eq!(tree.descendant_tags(leaf).count(), 0);
    }

    #[test]
    fn children_named_are_cut_points() {
        let src = "<td><hr>a<hr>b<hr>c</td>";
        let tree = build(src);
        let td = tree.ids().find(|&i| tree.name(i) == "td").unwrap();
        let cuts = tree.children_named(td, "hr");
        assert_eq!(cuts.len(), 3);
        for &c in &cuts {
            let p = tree.node(c).start_tag.start;
            assert_eq!(&src[p..p + 4], "<hr>");
        }
        // A tag name the document never used is no one's cut point.
        assert!(tree.children_named(td, "blink").is_empty());
    }

    #[test]
    fn empty_spans_are_positioned_in_the_arena() {
        // `b` has no inner text and `i` no trailing text, yet each span
        // sits where the arena stood at its tag, so subtree text is one
        // slice.
        let tree = build("<td>x<b></b>y<p>z<i>w</i></p>v</td>");
        let td = tree.node(tree.root()).children[0];
        let b = tree.node(td).children[0];
        let p = tree.node(td).children[1];
        let i = tree.node(p).children[0];
        assert_eq!(tree.subtree_text_span(b), super::Span::new(1, 1));
        assert_eq!(tree.subtree_text(p), "zw");
        assert_eq!(tree.subtree_text(i), "w");
        assert_eq!(tree.node(i).trailing, super::Span::new(4, 4));
        assert_eq!(tree.subtree_text(td), "xyzwv");
        assert_eq!(tree.subtree_text(tree.root()), tree.plain_text());
    }

    #[test]
    fn empty_document_tree() {
        let tree = build("");
        assert!(tree.is_empty());
        assert_eq!(tree.name(tree.root()), "#root");
        assert_eq!(tree.highest_fanout(), tree.root());
    }

    #[test]
    fn text_only_document_attaches_to_root() {
        let tree = build("hello");
        assert_eq!(tree.inner_text(tree.root()), "hello");
    }

    #[test]
    fn subtree_tag_count_agrees_with_the_children_walk() {
        // The arena-run length must agree with the walk over child lists
        // everywhere, and a leaf counts 0.
        let tree = build("<a><b><c>x</c></b><d></d></a><e>leaf</e>");
        for id in tree.ids() {
            assert_eq!(
                tree.subtree_tag_count(id),
                descendants(&tree, id).len() - 1,
                "mismatch at {id}"
            );
        }
        let leaf = tree.ids().find(|&i| tree.name(i) == "c").unwrap();
        assert_eq!(tree.subtree_tag_count(leaf), 0);
    }

    #[test]
    fn fanout_tie_goes_to_document_order() {
        // Both divs have fan-out 3 (more than their parent's 2); on the
        // tie, the first div in document order must win.
        let tree =
            build("<a><div><p>1</p><p>2</p><p>3</p></div><div><p>4</p><p>5</p><p>6</p></div></a>");
        let hf = tree.highest_fanout();
        let divs: Vec<_> = tree.ids().filter(|&i| tree.name(i) == "div").collect();
        assert_eq!(hf, divs[0]);
    }

    #[test]
    fn regions_nest() {
        let src = "<html><body><b>x</b></body></html>";
        let tree = build(src);
        let html = tree.node(tree.root()).children[0];
        let body = tree.node(html).children[0];
        let b = tree.node(body).children[0];
        assert!(tree.node(html).region.encloses(tree.node(body).region));
        assert!(tree.node(body).region.encloses(tree.node(b).region));
        assert_eq!(tree.node(b).region.slice(src), "<b>x</b>");
    }

    #[test]
    fn synthetic_region_ends_before_next_tag() {
        let src = "<td><br>text<hr></td>";
        let tree = build(src);
        let td = tree.ids().find(|&i| tree.name(i) == "td").unwrap();
        let br = tree.node(td).children[0];
        assert_eq!(tree.name(br), "br");
        assert_eq!(tree.node(br).region.slice(src), "<br>text");
    }

    #[test]
    fn leaf_subtree_has_no_candidates() {
        // A leaf node's subtree has zero tags; the 10 % threshold base is
        // zero and the candidate set must be empty by the early guard, not
        // by float comparison luck.
        let tree = build("<td>just text</td>");
        let td = tree.ids().find(|&i| tree.name(i) == "td").unwrap();
        assert_eq!(tree.subtree_tag_count(td), 0);
        assert!(tree.candidate_tags(td, 0.10).is_empty());
        // Zero threshold on a zero-tag subtree is the degenerate corner:
        // still no candidates, because there are no child tags at all.
        assert!(tree.candidate_tags(td, 0.0).is_empty());
    }

    #[test]
    fn all_comment_document_has_no_candidates() {
        let tree = build("<!-- a --><!-- b --><!-- c -->");
        assert!(tree.is_empty());
        assert!(tree.candidate_tags(tree.root(), 0.10).is_empty());
    }

    fn nested_divs(depth: usize) -> String {
        let mut doc = String::with_capacity(depth * 11 + 4);
        for _ in 0..depth {
            doc.push_str("<div>");
        }
        doc.push_str("core");
        for _ in 0..depth {
            doc.push_str("</div>");
        }
        doc
    }

    #[test]
    fn deep_descendant_tags_are_iterative() {
        // The last-child chain must survive nesting far beyond any call
        // stack; 100k levels would overflow a recursive walk in debug
        // builds.
        let depth = 100_000;
        let tree = build(&nested_divs(depth));
        assert_eq!(tree.len(), depth + 1);
        assert_eq!(tree.descendant_tags(tree.root()).count(), depth);
    }

    #[test]
    fn deep_outline_walks_whole_tree() {
        // Outline output is quadratic in depth (indentation), so this stays
        // modest; the walk itself is the same explicit-stack preorder.
        let depth = 4_000;
        let tree = build(&nested_divs(depth));
        assert_eq!(tree.outline().lines().count(), depth + 1);
    }

    #[test]
    fn node_budget_refuses_tag_bomb() {
        use crate::tree::TreeBudget;
        use rbd_limits::LimitKind;
        let bomb = "<b>".repeat(1000);
        let builder = TagTreeBuilder::default().with_budget(TreeBudget {
            max_nodes: Some(100),
            ..TreeBudget::default()
        });
        match builder.try_build(&bomb, &rbd_trace::NullSink) {
            Err(super::TreeError::Limit(e)) => {
                assert_eq!(e.limit, LimitKind::TreeNodes);
                assert_eq!(e.cap, 100);
                assert_eq!(e.observed, 101);
            }
            other => panic!("expected node-limit error, got {other:?}"),
        }
        // Exactly at the cap (99 start tags + root = 100 nodes) still builds.
        let (ok, _) = builder
            .try_build(&"<b>".repeat(99), &rbd_trace::NullSink)
            .unwrap();
        assert_eq!(ok.len(), 100);
    }

    #[test]
    fn depth_budget_refuses_nesting_tower() {
        use crate::tree::TreeBudget;
        use rbd_limits::LimitKind;
        // Explicitly closed nesting: an unclosed `<div>` tower would be
        // normalized into *siblings* (missing end-tags close at the next
        // tag), never reaching depth 2.
        let builder = TagTreeBuilder::default().with_budget(TreeBudget {
            max_depth: Some(16),
            ..TreeBudget::default()
        });
        match builder.try_build(&nested_divs(64), &rbd_trace::NullSink) {
            Err(super::TreeError::Limit(e)) => {
                assert_eq!(e.limit, LimitKind::NestingDepth);
                assert_eq!(e.cap, 16);
            }
            other => panic!("expected depth-limit error, got {other:?}"),
        }
        // Exactly at the cap still builds: 16 nested divs reach depth 16.
        assert!(builder
            .try_build(&nested_divs(16), &rbd_trace::NullSink)
            .is_ok());
        // Siblings don't accumulate depth.
        assert!(builder
            .try_build(&"<b></b>".repeat(500), &rbd_trace::NullSink)
            .is_ok());
    }

    #[test]
    fn input_budget_refuses_oversized_source() {
        use crate::tree::TreeBudget;
        use rbd_limits::LimitKind;
        let builder = TagTreeBuilder::default().with_budget(TreeBudget {
            max_input_bytes: Some(32),
            ..TreeBudget::default()
        });
        let doc = "<b>hello</b>".repeat(10);
        match builder.try_build(&doc, &rbd_trace::NullSink) {
            Err(super::TreeError::Limit(e)) => {
                assert_eq!(e.limit, LimitKind::InputBytes);
                assert_eq!(e.observed, doc.len());
            }
            other => panic!("expected input-limit error, got {other:?}"),
        }
        // The infallible API degrades to the empty tree instead.
        assert!(builder.build(&doc).is_empty());
    }

    #[test]
    fn descendants_in_document_order() {
        let tree = build("<a><b><c></c></b><d></d></a>");
        let a = tree.node(tree.root()).children[0];
        let names: Vec<_> = descendants(&tree, a)
            .into_iter()
            .map(|i| tree.name(i).to_owned())
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }
}
