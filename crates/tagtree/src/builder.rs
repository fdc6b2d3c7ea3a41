//! Tag-tree builder: the public entry point for Appendix A — the
//! tokenizer hands its tokens straight to the streaming builder
//! ([`crate::stream`]), which normalizes (steps 1–2) and builds the tree
//! (step 3) as they arrive.

use crate::stream::{NormalizeStats, TreeSink};
use crate::tree::{TagTree, TreeBudget, TreeError};
use rbd_html::{TokenBudget, TokenStream, Tokenizer};
use rbd_trace::{NullSink, Span, TraceEvent, TraceSink};

/// Builds [`TagTree`]s from raw HTML.
///
/// The default builder is unbudgeted and reproduces the historical
/// behavior byte for byte; [`TagTreeBuilder::with_budget`] adds resource
/// caps for hostile input (enforced through the fallible
/// [`TagTreeBuilder::try_build`] — the infallible `build` degrades a
/// breached budget to an empty tree).
#[derive(Debug, Clone, Default)]
pub struct TagTreeBuilder {
    xml: bool,
    budget: TreeBudget,
}

impl TagTreeBuilder {
    /// Creates a builder with default (HTML) settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches to XML tokenization — the paper's footnote-1 claim that the
    /// approach "should carry over directly to other DTDs, such as XML".
    pub fn xml(mut self) -> Self {
        self.xml = true;
        self
    }

    /// Sets the resource budget enforced by the fallible build methods.
    pub fn with_budget(mut self, budget: TreeBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Parses `source` and builds its tag tree.
    ///
    /// Never fails: malformed HTML is repaired per Appendix A (missing
    /// end-tags inserted, comments and orphan end-tags discarded), and the
    /// errors of [`TagTreeBuilder::try_build`] degrade to a root-only tree.
    pub fn build(&self, source: &str) -> TagTree {
        self.try_build(source, &NullSink)
            .map_or_else(|_| TagTree::empty(source.len()), |(tree, _)| tree)
    }

    /// Fallible build under the configured budget, reporting to `sink`:
    /// the one streaming pass of tokenizer and builder is timed as a
    /// `"tokenize"` span, the final link pass as a `"tree_build"` span,
    /// and — when the sink is enabled — `Tokenized` and
    /// [`TreeBuilt`](TraceEvent::TreeBuilt) events record the token
    /// stream's shape, the node count, and what normalization repaired.
    /// Also returns those repairs.
    ///
    /// # Errors
    /// [`TreeError::Limit`] when a cap of the budget set via
    /// [`TagTreeBuilder::with_budget`] trips (an over-cap input is rejected
    /// before anything is scanned or traced). With the default (unbounded)
    /// budget the only reachable error is [`TreeError::TooManyNodes`] on
    /// documents with more than `u32::MAX` start-tags.
    pub fn try_build(
        &self,
        source: &str,
        sink: &dyn TraceSink,
    ) -> Result<(TagTree, NormalizeStats), TreeError> {
        TokenBudget {
            max_input_bytes: self.budget.max_input_bytes,
        }
        .check(source)?;
        let span = Span::start_if("tokenize", sink);
        let mut tree = TreeSink::new(self.budget, source.len());
        let tokenizer = if self.xml {
            Tokenizer::new_xml(source)
        } else {
            Tokenizer::new(source)
        };
        let symbols = tokenizer.feed(&mut tree);
        if let Some(span) = span {
            span.finish(sink);
        }
        if sink.enabled() {
            sink.add("extract_tags_scanned", tree.tags as u64);
            sink.event(TraceEvent::Tokenized {
                bytes: source.len(),
                tokens: tree.tokens,
                tags: tree.tags,
                warnings: tree.warnings,
            });
        }
        let span = Span::start_if("tree_build", sink);
        let built = tree.finish(symbols);
        if let Some(span) = span {
            span.finish(sink);
        }
        if sink.enabled() {
            if let Ok((tree, stats)) = &built {
                sink.event(TraceEvent::TreeBuilt {
                    nodes: tree.len(),
                    end_tags_inserted: stats.end_tags_inserted,
                    orphan_end_tags: stats.orphan_end_tags,
                });
            }
        }
        built
    }

    /// Builds from an existing token stream by replaying it into the same
    /// streaming builder [`TagTreeBuilder::try_build`] feeds live (lets
    /// callers time tokenizing and building apart). Uninstrumented, and
    /// the input byte cap is the caller's to check: only the tree caps
    /// apply here.
    ///
    /// # Errors
    /// As [`TagTreeBuilder::try_build`], less the input byte cap.
    pub fn try_build_from_tokens(
        &self,
        source_len: usize,
        tokens: &TokenStream,
    ) -> Result<(TagTree, NormalizeStats), TreeError> {
        let mut tree = TreeSink::new(self.budget, source_len);
        for token in &tokens.tokens {
            tree.accept(token);
        }
        tree.finish(tokens.symbols.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_stats_agree() {
        let b = TagTreeBuilder::new();
        let src = "<td><br>a<hr>b</td>";
        let (tree, stats) = b.try_build(src, &NullSink).unwrap();
        assert_eq!(stats.end_tags_inserted, 2);
        assert_eq!(tree.len(), b.build(src).len());
    }

    #[test]
    fn tolerates_garbage() {
        let b = TagTreeBuilder::new();
        for src in [
            "",
            "<",
            "<><><>",
            "</only><ends></here>",
            "<!-- nothing -->",
            "<a <b <c",
            "&&&&",
        ] {
            let tree = b.build(src);
            // Must not panic, and the synthetic root always exists.
            assert_eq!(tree.name(tree.root()), "#root", "source {src:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tree::tests::descendants;
    use crate::tree::{NodeId, TagTree};
    use rbd_prop::{check, gen, prop_assert, prop_assert_eq, Gen};

    /// A small grammar of messy HTML fragments.
    fn arb_fragment() -> Gen<String> {
        let tag = || Gen::select(vec!["b", "i", "hr", "br", "td", "tr", "p", "h1"]);
        let piece = Gen::one_of(vec![
            tag().map(|t| format!("<{t}>")),
            tag().map(|t| format!("</{t}>")),
            gen::string_from("abcdefghijklmnopqrstuvwxyz ", 0..=12),
            Gen::just("<!-- c -->".to_owned()),
            Gen::just("&amp;".to_owned()),
        ]);
        gen::concat(piece, 0..=40)
    }

    /// Building never panics and the tree is internally consistent:
    /// parent/child links agree and regions nest.
    #[test]
    fn builder_total_and_consistent() {
        check("builder_total_and_consistent", &arb_fragment(), |src| {
            let tree = TagTreeBuilder::new().build(src);
            for id in tree.ids() {
                let node = tree.node(id);
                for &c in &node.children {
                    prop_assert_eq!(tree.node(c).parent, Some(id));
                    prop_assert!(
                        node.region.encloses(tree.node(c).region),
                        "child region escapes parent: {} !>= {}",
                        node.region,
                        tree.node(c).region
                    );
                }
            }
            Ok(())
        });
    }

    /// Every start tag in the source yields exactly one node.
    #[test]
    fn node_count_matches_start_tags() {
        check("node_count_matches_start_tags", &arb_fragment(), |src| {
            let (tree, stats) = TagTreeBuilder::new()
                .try_build(src, &NullSink)
                .map_err(|e| e.to_string())?;
            prop_assert_eq!(tree.len(), stats.start_tags + 1);
            Ok(())
        });
    }

    /// The subtree text of the root equals the document's plain text.
    #[test]
    fn text_preserved() {
        check("text_preserved", &arb_fragment(), |src| {
            let tree = TagTreeBuilder::new().build(src);
            let tokens = rbd_html::tokenize(src);
            prop_assert_eq!(tree.subtree_text(tree.root()), tokens.plain_text());
            Ok(())
        });
    }

    /// The text of the subtree rooted at `id` read node by node: the
    /// root's inner text, then each descendant's inner text on entry and
    /// trailing text on exit, in document order.
    fn text_by_nodes(tree: &TagTree, id: NodeId) -> String {
        enum Walk {
            Enter(NodeId),
            Exit(NodeId),
        }
        let mut out = String::from(tree.inner_text(id));
        let mut stack: Vec<Walk> = tree
            .node(id)
            .children
            .iter()
            .rev()
            .map(|&c| Walk::Enter(c))
            .collect();
        while let Some(item) = stack.pop() {
            match item {
                Walk::Enter(n) => {
                    out.push_str(tree.inner_text(n));
                    stack.push(Walk::Exit(n));
                    stack.extend(tree.node(n).children.iter().rev().map(|&c| Walk::Enter(c)));
                }
                Walk::Exit(n) => out.push_str(tree.trailing_text(n)),
            }
        }
        out
    }

    /// The arena invariants chunking and the heuristic view rely on: every
    /// node's subtree text is the one arena slice `[inner.start,
    /// trailing.start)` (to the arena's end for the root), equal to its
    /// nodes' inner and trailing texts in document order; node spans never
    /// run backwards in preorder; and the subtree of `id` is exactly the
    /// arena ids `id+1 ..= id + subtree_tag_count(id)`, which
    /// `descendant_tags` reads with each one's name and arena offset.
    #[test]
    fn subtree_text_is_one_arena_slice() {
        check("subtree_text_is_one_arena_slice", &arb_fragment(), |src| {
            let tree = TagTreeBuilder::new().build(src);
            let arena = tree.plain_text().len();
            let mut last_start = 0;
            for id in tree.ids() {
                prop_assert_eq!(tree.subtree_text(id), text_by_nodes(&tree, id));
                let below = descendants(&tree, id);
                let range: Vec<NodeId> = tree
                    .ids()
                    .skip(id.index())
                    .take(tree.subtree_tag_count(id) + 1)
                    .collect();
                prop_assert_eq!(&below, &range);
                let tags: Vec<_> = tree.descendant_tags(id).collect();
                let expected: Vec<_> = below
                    .iter()
                    .skip(1)
                    .map(|&n| (tree.node(n).name, tree.node(n).inner.start))
                    .collect();
                prop_assert_eq!(tags, expected);
                let node = tree.node(id);
                prop_assert!(
                    last_start <= node.inner.start,
                    "{id} starts at {} before its predecessor's {last_start}",
                    node.inner.start
                );
                prop_assert!(node.inner.start <= node.inner.end);
                if id != tree.root() {
                    prop_assert!(
                        node.inner.end <= node.trailing.start
                            && node.trailing.start <= node.trailing.end
                            && node.trailing.end <= arena,
                        "{id}: inner {} trailing {} arena {arena}",
                        node.inner,
                        node.trailing
                    );
                }
                last_start = node.inner.start;
            }
            Ok(())
        });
    }
}
