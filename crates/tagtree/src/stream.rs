//! Appendix A in one streaming pass: normalization (steps 1–2) and tree
//! construction (step 3) while the tokenizer's tokens arrive.
//!
//! The paper inserts every missing end-tag into an updated copy of the
//! document and re-scans that copy to build the tree. A start-tag that
//! only recovery closes gets its end-tag at the paper's position `L`, just
//! before the next tag, so it never has children. That makes one pass
//! enough, with no token or event list:
//!
//! * each node is pushed at its start tag, with the open element on top of
//!   the stack as its *tentative* parent;
//! * text goes straight to the arena, into the inner or trailing span of
//!   the node the last tag opened or closed;
//! * when a real end-tag matches, every entry popped above the match is
//!   *recovered*: its region ends at its `L` (or at the end of the text
//!   after it, when no tag follows), and its trailing span is empty at the
//!   end of its inner text — where the inserted end-tag would stand;
//! * a final preorder link pass (`TreeSink::finish`) sets every node's
//!   parent to its nearest non-recovered tentative ancestor, its parent in
//!   the normalized document, and checks the depth cap on that final tree.
//!
//! Each stack entry counts its children in the final tree as they arrive
//! (a recovered entry hands its count to the entry below it), so every
//! `children` list is allocated at its exact size.

use crate::tree::{root_node, Node, NodeId, TagTree, TreeBudget, TreeError, ROOT_NAME};
use rbd_html::{EndTag, Span, StartTag, Sym, SymbolTable, Text, Token, TokenSink, WarningKind};
use rbd_limits::{LimitExceeded, LimitKind};

/// Counters describing what normalization did — useful for corpus quality
/// reporting and for asserting messiness-injection in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    /// Comments / doctypes / processing instructions discarded.
    pub comments_discarded: usize,
    /// End-tags with no corresponding start-tag discarded.
    pub orphan_end_tags: usize,
    /// Synthetic end-tags inserted.
    pub end_tags_inserted: usize,
    /// Start tags seen (= nodes the tree will have, minus the root).
    pub start_tags: usize,
}

/// A start-tag awaiting its end-tag: the paper's stack entry `[L, Sp]`.
#[derive(Clone, Copy)]
struct Open {
    name: Sym,
    /// Its node; `None` for start tags after the node cap tripped.
    node: Option<NodeId>,
    /// Where its region ends if recovery closes it: the end of the start
    /// tag, extended over the text that follows until a tag does.
    end: usize,
    /// A tag has followed the start tag, so `end` is the paper's `L`.
    sealed: bool,
    /// Its children in the normalized tree so far.
    kids: usize,
}

/// Where the next run of text belongs: a start tag directs it into its
/// node's inner span, an end tag into its node's trailing span.
#[derive(Clone, Copy)]
enum Attach {
    Inner(NodeId),
    Trailing(NodeId),
}

/// The tag-tree builder as a [`TokenSink`]: takes tokens in document
/// order and yields the tree at [`TreeSink::finish`].
pub(crate) struct TreeSink {
    budget: TreeBudget,
    source_len: usize,
    nodes: Vec<Node>,
    /// Whether each node was closed by recovery rather than its own
    /// end-tag.
    recovered: Vec<bool>,
    /// The text arena.
    text: String,
    /// The open start-tags above the root, which sits at the bottom. An
    /// end-tag never matches the root: any entry of its name lies above.
    stack: Vec<Open>,
    /// How many entries of each interned name `stack` holds, so an orphan
    /// end-tag is recognized without scanning the stack.
    open_count: Vec<usize>,
    attach: Attach,
    /// The node-cap error, once a start tag trips it. Scanning goes on
    /// without creating nodes, because a depth violation earlier in
    /// preorder — only known once the nodes before the cap are linked —
    /// takes precedence.
    tripped: Option<TreeError>,
    stats: NormalizeStats,
    /// Tokens, tags and warnings the tokenizer handed over, for the
    /// `Tokenized` trace event.
    pub(crate) tokens: usize,
    pub(crate) tags: usize,
    pub(crate) warnings: usize,
}

impl TreeSink {
    /// An empty tree over a source of `source_len` bytes, built under
    /// `budget`'s node and depth caps.
    pub(crate) fn new(budget: TreeBudget, source_len: usize) -> Self {
        TreeSink {
            budget,
            source_len,
            nodes: vec![root_node(Sym::default(), source_len)],
            recovered: vec![false],
            text: String::new(),
            stack: vec![Open {
                name: Sym::default(),
                node: Some(NodeId::ROOT),
                end: source_len,
                sealed: true,
                kids: 0,
            }],
            open_count: Vec::new(),
            attach: Attach::Inner(NodeId::ROOT),
            tripped: None,
            stats: NormalizeStats::default(),
            tokens: 0,
            tags: 0,
            warnings: 0,
        }
    }

    /// Takes the next token of the document.
    pub(crate) fn accept(&mut self, token: &Token<'_>) {
        self.tokens += 1;
        match token {
            Token::Comment(_) | Token::Doctype(_) | Token::ProcessingInstruction(_) => {
                self.stats.comments_discarded += 1;
            }
            Token::Text(t) => self.text(t),
            Token::Start(t) => {
                self.tags += 1;
                self.start(t);
            }
            Token::End(t) => {
                self.tags += 1;
                self.end(t);
            }
        }
    }

    fn text(&mut self, t: &Text<'_>) {
        if let Some(top) = self.stack.last_mut() {
            if !top.sealed {
                top.end = t.span.end;
            }
        }
        if self.tripped.is_some() {
            // The build fails; no node is left to take the text.
            return;
        }
        let start = self.text.len();
        self.text.push_str(&t.text());
        let end = self.text.len();
        let span = match self.attach {
            Attach::Inner(id) => self.nodes.get_mut(id.index()).map(|n| &mut n.inner),
            Attach::Trailing(id) => self.nodes.get_mut(id.index()).map(|n| &mut n.trailing),
        };
        if let Some(span) = span {
            extend_text_span(span, start, end);
        }
    }

    fn start(&mut self, t: &StartTag<'_>) {
        self.stats.start_tags += 1;
        self.seal(t.span.start);
        let node = self.push_node(t.name, t.span);
        if t.self_closing {
            // Its end-tag is the start tag's own `/>`: text that follows
            // is trailing.
            if let Some(id) = node {
                self.attach = Attach::Trailing(id);
            }
            return;
        }
        match self.open_count.get_mut(t.name.index()) {
            Some(n) => *n += 1,
            None => {
                self.open_count.resize(t.name.index(), 0);
                self.open_count.push(1);
            }
        }
        self.stack.push(Open {
            name: t.name,
            node,
            end: t.span.end,
            sealed: false,
            kids: 0,
        });
        if let Some(id) = node {
            self.attach = Attach::Inner(id);
        }
    }

    /// A tag at source position `at` follows the innermost open start-tag:
    /// if nothing sealed it yet, `at` is its `L`.
    fn seal(&mut self, at: usize) {
        if let Some(top) = self.stack.last_mut() {
            if !top.sealed {
                top.sealed = true;
                top.end = at;
            }
        }
    }

    /// Pushes the node of a start tag spanning `src` under the stack top,
    /// unless the node cap trips (checked before the push, so a tag bomb is
    /// refused at its cap, not after materializing).
    fn push_node(&mut self, name: Sym, src: Span) -> Option<NodeId> {
        if self.tripped.is_some() {
            return None;
        }
        if let Some(cap) = self.budget.max_nodes {
            if self.nodes.len() >= cap {
                self.tripped = Some(TreeError::Limit(LimitExceeded {
                    limit: LimitKind::TreeNodes,
                    cap,
                    observed: self.nodes.len() + 1,
                }));
                return None;
            }
        }
        let Ok(raw) = u32::try_from(self.nodes.len()) else {
            self.tripped = Some(TreeError::TooManyNodes);
            return None;
        };
        let parent = self.stack.last_mut().and_then(|top| {
            top.kids += 1;
            top.node
        });
        let here = Span::new(self.text.len(), self.text.len());
        self.nodes.push(Node {
            name,
            inner: here,
            trailing: here,
            children: Vec::new(),
            parent,
            region: src,
            start_tag: src,
        });
        self.recovered.push(false);
        Some(NodeId(raw))
    }

    fn end(&mut self, t: &EndTag) {
        // Find the matching start-tag on the stack, searching from the top
        // (paper: "Search for the corresponding start-tag of G in S"). An
        // orphan costs one count lookup; the scan for an open name is paid
        // for by the pops that follow it.
        let found = match self.open_count.get(t.name.index()) {
            None | Some(0) => None,
            Some(_) => self.stack.iter().rposition(|o| o.name == t.name),
        };
        let Some(pos) = found else {
            // Useless tag: an end-tag with no corresponding start-tag is
            // discarded.
            self.stats.orphan_end_tags += 1;
            return;
        };
        self.seal(t.span.start);
        while self.stack.len() > pos + 1 {
            if let Some(open) = self.stack.pop() {
                self.recover(open);
            }
        }
        let Some(open) = self.stack.pop() else {
            return;
        };
        self.forget(open.name);
        let Some(id) = open.node else {
            return;
        };
        let here = Span::new(self.text.len(), self.text.len());
        if let Some(n) = self.nodes.get_mut(id.index()) {
            n.region = Span::new(n.region.start, t.span.end);
            n.trailing = here;
            // rbd-lint: allow(budget) — the exact child count, bounded by the nodes the TreeBudget admits
            n.children = Vec::with_capacity(open.kids);
        }
        self.attach = Attach::Trailing(id);
    }

    /// Closes `open` by recovery: the paper's synthetic end-tag at its `L`,
    /// where no text separates it from the inner text before it. Its
    /// children so far move to the entry below.
    fn recover(&mut self, open: Open) {
        self.stats.end_tags_inserted += 1;
        self.forget(open.name);
        if let Some(below) = self.stack.last_mut() {
            below.kids += open.kids;
        }
        let Some(id) = open.node else {
            return;
        };
        if let Some(n) = self.nodes.get_mut(id.index()) {
            n.region = Span::new(n.region.start, open.end);
            n.trailing = Span::new(n.inner.end, n.inner.end);
        }
        if let Some(r) = self.recovered.get_mut(id.index()) {
            *r = true;
        }
    }

    fn forget(&mut self, name: Sym) {
        if let Some(n) = self.open_count.get_mut(name.index()) {
            *n = n.saturating_sub(1);
        }
    }

    /// Ends the document: every still-open start-tag closes by recovery,
    /// then the link pass hangs each node under its parent in the
    /// normalized document. `symbols` is the table the tokens' names
    /// resolve against; the tree keeps it, extended with the root's name.
    ///
    /// # Errors
    /// The first cap of the budget that trips in preorder: a node's depth
    /// in the final tree, or the node cap. [`TreeError::TooManyNodes`] past
    /// `u32::MAX` nodes.
    pub(crate) fn finish(
        mut self,
        mut symbols: SymbolTable,
    ) -> Result<(TagTree, NormalizeStats), TreeError> {
        while self.stack.len() > 1 {
            if let Some(open) = self.stack.pop() {
                self.recover(open);
            }
        }
        let root_kids = self.stack.first().map_or(0, |root| root.kids);
        let max_depth = self.budget.max_depth;
        if let (Some(e), None) = (self.tripped, max_depth) {
            return Err(e);
        }
        // Each node's depth in the final tree, when a cap needs it.
        let mut depth = vec![
            0;
            if max_depth.is_some() {
                self.nodes.len()
            } else {
                0
            }
        ];
        let link_children = self.tripped.is_none();
        if let Some(root) = self.nodes.first_mut() {
            root.name = symbols.intern(ROOT_NAME);
            if link_children {
                // rbd-lint: allow(budget) — the exact child count, bounded by the nodes the TreeBudget admits
                root.children = Vec::with_capacity(root_kids);
            }
        }
        for i in 1..self.nodes.len() {
            let (done, rest) = self.nodes.split_at_mut(i);
            let Some(node) = rest.first_mut() else {
                break;
            };
            let tentative = node.parent.unwrap_or(NodeId::ROOT);
            let parent = match self.recovered.get(tentative.index()) {
                Some(true) => done
                    .get(tentative.index())
                    .and_then(|n| n.parent)
                    .unwrap_or(NodeId::ROOT),
                _ => tentative,
            };
            node.parent = Some(parent);
            if let Some(cap) = max_depth {
                let d = depth.get(parent.index()).map_or(1, |d| d + 1);
                if d > cap {
                    return Err(TreeError::Limit(LimitExceeded {
                        limit: LimitKind::NestingDepth,
                        cap,
                        observed: d,
                    }));
                }
                if let Some(slot) = depth.get_mut(i) {
                    *slot = d;
                }
            }
            if link_children {
                if let Some(p) = done.get_mut(parent.index()) {
                    #[allow(clippy::cast_possible_truncation)]
                    // rbd-lint: allow(cast) — `i` indexes a node, and node ids fit u32 (TooManyNodes)
                    p.children.push(NodeId(i as u32));
                }
            }
        }
        if let Some(e) = self.tripped {
            return Err(e);
        }
        Ok((
            TagTree::new(self.nodes, self.text, symbols, self.source_len),
            self.stats,
        ))
    }
}

impl<'a> TokenSink<'a> for TreeSink {
    fn token(&mut self, token: Token<'a>) {
        self.accept(&token);
    }

    fn warning(&mut self, _: WarningKind, _: Span) {
        self.warnings += 1;
    }
}

/// Extends a text-arena span over a freshly appended `[start, end)` chunk.
///
/// Appends for one (node, inner/trailing) slot are always contiguous: the
/// slot is opened, empty, at the arena's end by its node's start or end
/// tag, and the attach target changes only at tags and never returns to an
/// earlier slot, so the span's `end` always equals the chunk's `start`.
fn extend_text_span(span: &mut Span, start: usize, end: usize) {
    debug_assert_eq!(span.end, start, "non-contiguous arena append");
    span.end = end;
}
