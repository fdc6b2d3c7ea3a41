//! The two-pass Appendix A builder the streaming pass replaced, kept as a
//! differential oracle.
//!
//! Pass one normalizes the token stream into a *balanced* event list:
//! every start-tag gets exactly one matching end-tag, comments and orphan
//! end-tags are discarded, and synthetic end-tags are spliced in at the
//! paper's position `L` (just before the first tag that follows the
//! unclosed start-tag). Pass two replays the events into a tree, checking
//! the node and depth caps at each start in document order.
//!
//! Shared by the integration tests that compare the shipped builder with
//! it (`stream_oracle.rs`, `reference.rs`, `malformed.rs`); not every test
//! uses every item.

#![allow(dead_code)]

use rbd_html::{decode_entities, Span, Sym, SymbolTable, Token, TokenBudget, TokenStream};
use rbd_html::{tokenize, tokenize_xml};
use rbd_limits::{LimitExceeded, LimitKind};
use rbd_prop::{gen, Gen};
use rbd_tagtree::{NodeId, NormalizeStats, TagTree, TreeBudget, TreeError};
use std::borrow::Cow;

/// One event of the normalized, balanced document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag. `src` covers the tag in the original source.
    Start { name: Sym, src: Span },
    /// An end tag, real or synthesized. A synthetic end-tag's `src` is the
    /// empty span at the paper's `L` (or at the end of the text after its
    /// start-tag, when no tag follows).
    End {
        name: Sym,
        src: Span,
        synthetic: bool,
    },
    /// A run of plain text, borrowed raw from the source.
    Text {
        raw: &'a str,
        decode: bool,
        src: Span,
    },
}

impl<'a> Event<'a> {
    /// Decoded text for text events; `None` for tags.
    pub fn text(&self) -> Option<Cow<'a, str>> {
        match self {
            Event::Text { raw, decode, .. } => Some(if *decode {
                decode_entities(raw)
            } else {
                Cow::Borrowed(*raw)
            }),
            Event::Start { .. } | Event::End { .. } => None,
        }
    }
}

/// A start-tag awaiting its end-tag: the paper's stack entry `[L, Sp]`.
#[derive(Clone, Copy)]
struct Open {
    name: Sym,
    /// The paper's `L`: `(event index, source position)` of the first tag
    /// event after this start-tag. `None` until such a tag is pushed.
    next_tag: Option<(usize, usize)>,
    /// Source position where the region would end if it closed right now.
    text_end: usize,
}

/// Normalization over a token stream (Appendix A steps 1–2). Also returns
/// what it repaired and the deepest its open-tag stack grew.
pub fn normalize_tokens<'a>(tokens: &TokenStream<'a>) -> (Vec<Event<'a>>, NormalizeStats, usize) {
    let mut stats = NormalizeStats::default();
    let mut events: Vec<Event<'a>> = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let mut deepest = 0;
    // Pending synthetic end-tags keyed by the index (into `events`) of the
    // event they must precede; indices ≥ `events.len()` at splice time
    // append.
    let mut pending: Vec<(usize, Event<'a>)> = Vec::new();

    // Records the paper's `L` for the innermost open tag when a new tag
    // event arrives at `(idx, src_pos)`.
    fn note_tag(stack: &mut [Open], idx: usize, src_pos: usize) {
        if let Some(top) = stack.last_mut() {
            if top.next_tag.is_none() {
                top.next_tag = Some((idx, src_pos));
            }
        }
    }

    for tok in &tokens.tokens {
        match tok {
            Token::Comment(_) | Token::Doctype(_) | Token::ProcessingInstruction(_) => {
                stats.comments_discarded += 1;
            }
            Token::Text(t) => {
                if let Some(top) = stack.last_mut() {
                    if top.next_tag.is_none() {
                        top.text_end = t.span.end;
                    }
                }
                events.push(Event::Text {
                    raw: t.raw,
                    decode: t.decode,
                    src: t.span,
                });
            }
            Token::Start(t) => {
                stats.start_tags += 1;
                note_tag(&mut stack, events.len(), t.span.start);
                events.push(Event::Start {
                    name: t.name,
                    src: t.span,
                });
                if t.self_closing {
                    events.push(Event::End {
                        name: t.name,
                        src: Span::new(t.span.end, t.span.end),
                        synthetic: false,
                    });
                } else {
                    stack.push(Open {
                        name: t.name,
                        next_tag: None,
                        text_end: t.span.end,
                    });
                    deepest = deepest.max(stack.len());
                }
            }
            Token::End(t) => match stack.iter().rposition(|o| o.name == t.name) {
                // Useless tag: an end-tag with no corresponding start-tag
                // is discarded.
                None => stats.orphan_end_tags += 1,
                Some(pos) => {
                    note_tag(&mut stack, events.len(), t.span.start);
                    // Pop every tag above the match; each gets a synthetic
                    // end-tag at its own `L`. The final pop is the match.
                    while let Some(open) = stack.pop() {
                        if stack.len() <= pos {
                            events.push(Event::End {
                                name: t.name,
                                src: t.span,
                                synthetic: false,
                            });
                            break;
                        }
                        stats.end_tags_inserted += 1;
                        schedule_close(events.len(), &mut pending, open);
                    }
                }
            },
        }
    }
    // EOF: every still-open tag gets a synthetic end-tag at its `L` (or at
    // EOF when nothing follows it).
    while let Some(open) = stack.pop() {
        stats.end_tags_inserted += 1;
        schedule_close(events.len(), &mut pending, open);
    }
    (splice(events, pending), stats, deepest)
}

/// Schedules a synthetic end-tag for an unclosed start-tag at its `L`, or
/// at the current frontier when no tag followed it.
fn schedule_close<'a>(frontier: usize, pending: &mut Vec<(usize, Event<'a>)>, open: Open) {
    let (anchor, pos) = open.next_tag.unwrap_or((frontier, open.text_end));
    pending.push((
        anchor,
        Event::End {
            name: open.name,
            src: Span::new(pos, pos),
            synthetic: true,
        },
    ));
}

/// Splices pending insertions into the event list: each `(anchor, ev)`
/// goes immediately *before* `events[anchor]`, anchors at or past the end
/// append, and equal anchors keep insertion order (inner tags first).
fn splice<'a>(events: Vec<Event<'a>>, mut pending: Vec<(usize, Event<'a>)>) -> Vec<Event<'a>> {
    pending.sort_by_key(|(a, _)| *a);
    let mut out = Vec::with_capacity(events.len() + pending.len());
    let mut queue = pending.into_iter().peekable();
    for (i, ev) in events.into_iter().enumerate() {
        while let Some((_, inserted)) = queue.next_if(|&(anchor, _)| anchor == i) {
            out.push(inserted);
        }
        out.push(ev);
    }
    out.extend(queue.map(|(_, inserted)| inserted));
    out
}

/// Whether every `Start` has a matching `End` in proper nesting order.
pub fn is_balanced(events: &[Event<'_>]) -> bool {
    let mut stack: Vec<Sym> = Vec::new();
    for ev in events {
        match ev {
            Event::Start { name, .. } => stack.push(*name),
            Event::End { name, .. } => {
                if stack.pop() != Some(*name) {
                    return false;
                }
            }
            Event::Text { .. } => {}
        }
    }
    stack.is_empty()
}

/// Renders events as markup, a synthetic end-tag marked `*`.
pub fn render(events: &[Event<'_>], symbols: &SymbolTable) -> String {
    let mut s = String::new();
    for ev in events {
        match ev {
            Event::Start { name, .. } => {
                s.push('<');
                s.push_str(symbols.resolve(*name));
                s.push('>');
            }
            Event::End {
                name, synthetic, ..
            } => {
                s.push_str("</");
                s.push_str(symbols.resolve(*name));
                if *synthetic {
                    s.push('*');
                }
                s.push('>');
            }
            Event::Text { .. } => s.push_str(&ev.text().unwrap_or_default()),
        }
    }
    s
}

/// One node as the tests compare it: every field of the shipped `Node`,
/// with ids as arena indices and the text spans in the text arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatNode {
    pub name: String,
    pub sym: Sym,
    pub inner: Span,
    pub trailing: Span,
    pub children: Vec<usize>,
    pub parent: Option<usize>,
    pub region: Span,
    pub start_tag: Span,
}

/// A whole tree as the tests compare it: nodes in arena order and the text
/// arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTree {
    pub nodes: Vec<FlatNode>,
    pub text: String,
}

/// Reads a shipped tree through its public API. A node's inner span starts
/// its subtree's text span and its trailing span starts where that ends
/// (the root has no trailing text), so both are recovered exactly.
pub fn flatten(tree: &TagTree) -> FlatTree {
    let nodes = tree
        .ids()
        .map(|id| {
            let node = tree.node(id);
            let subtree = tree.subtree_text_span(id);
            let inner = Span::new(subtree.start, subtree.start + tree.inner_text(id).len());
            let trailing = if id == tree.root() {
                Span::new(0, 0)
            } else {
                Span::new(subtree.end, subtree.end + tree.trailing_text(id).len())
            };
            FlatNode {
                name: tree.name(id).to_owned(),
                sym: node.name,
                inner,
                trailing,
                children: node.children.iter().map(|c| c.index()).collect(),
                parent: node.parent.map(NodeId::index),
                region: node.region,
                start_tag: node.start_tag,
            }
        })
        .collect();
    FlatTree {
        nodes,
        text: tree.plain_text().to_owned(),
    }
}

/// Replays normalized events into a tree (Appendix A step 3), checking the
/// budget's node cap, then its depth cap, at each start in document order,
/// before the node is created. `symbols` must already hold `#root`.
///
/// # Panics
/// On an unbalanced event list: normalization never yields one.
pub fn tree_from_events(
    events: &[Event<'_>],
    source_len: usize,
    budget: &TreeBudget,
    symbols: &SymbolTable,
) -> Result<FlatTree, TreeError> {
    let root_sym = symbols
        .lookup("#root")
        .expect("the root's name is interned");
    let mut nodes = vec![FlatNode {
        name: "#root".to_owned(),
        sym: root_sym,
        inner: Span::new(0, 0),
        trailing: Span::new(0, 0),
        children: Vec::new(),
        parent: None,
        region: Span::new(0, source_len),
        start_tag: Span::new(0, 0),
    }];
    let mut text = String::new();
    let mut stack: Vec<usize> = vec![0];
    // Start(x) directs following text into x's inner span, End(x) into
    // x's trailing span.
    let mut attach = (0, true);
    for ev in events {
        match ev {
            Event::Start { name, src } => {
                let parent = *stack.last().expect("balanced: the root stays open");
                if let Some(cap) = budget.max_nodes {
                    if nodes.len() >= cap {
                        return Err(TreeError::Limit(LimitExceeded {
                            limit: LimitKind::TreeNodes,
                            cap,
                            observed: nodes.len() + 1,
                        }));
                    }
                }
                if let Some(cap) = budget.max_depth {
                    // The new node would sit at depth == stack.len().
                    if stack.len() > cap {
                        return Err(TreeError::Limit(LimitExceeded {
                            limit: LimitKind::NestingDepth,
                            cap,
                            observed: stack.len(),
                        }));
                    }
                }
                let id = nodes.len();
                let here = Span::new(text.len(), text.len());
                nodes.push(FlatNode {
                    name: symbols.resolve(*name).to_owned(),
                    sym: *name,
                    inner: here,
                    trailing: here,
                    children: Vec::new(),
                    parent: Some(parent),
                    region: *src,
                    start_tag: *src,
                });
                nodes[parent].children.push(id);
                stack.push(id);
                attach = (id, true);
            }
            Event::End { src, .. } => {
                let id = stack.pop().expect("balanced: every End has a Start");
                assert_ne!(id, 0, "balanced: the root has no End");
                let n = &mut nodes[id];
                n.region = Span::new(n.region.start, src.end);
                n.trailing = Span::new(text.len(), text.len());
                attach = (id, false);
            }
            Event::Text { .. } => {
                let start = text.len();
                text.push_str(&ev.text().unwrap_or_default());
                let n = &mut nodes[attach.0];
                let span = if attach.1 {
                    &mut n.inner
                } else {
                    &mut n.trailing
                };
                assert_eq!(span.end, start, "non-contiguous arena append");
                span.end = text.len();
            }
        }
    }
    assert_eq!(stack, [0], "balanced: only the root is left open");
    Ok(FlatTree { nodes, text })
}

/// The two-pass build of `source`: tokenize, check the input cap,
/// normalize, replay. What `TagTreeBuilder::try_build` must return.
pub fn build(
    source: &str,
    xml: bool,
    budget: &TreeBudget,
) -> Result<(FlatTree, NormalizeStats), TreeError> {
    TokenBudget {
        max_input_bytes: budget.max_input_bytes,
    }
    .check(source)?;
    let tokens = if xml {
        tokenize_xml(source)
    } else {
        tokenize(source)
    };
    build_from_tokens(source.len(), &tokens, budget)
}

/// The two-pass build of an existing token stream.
pub fn build_from_tokens(
    source_len: usize,
    tokens: &TokenStream<'_>,
    budget: &TreeBudget,
) -> Result<(FlatTree, NormalizeStats), TreeError> {
    let (events, stats, _) = normalize_tokens(tokens);
    assert!(is_balanced(&events), "normalization must balance");
    let mut symbols = tokens.symbols.clone();
    symbols.intern("#root");
    Ok((
        tree_from_events(&events, source_len, budget, &symbols)?,
        stats,
    ))
}

/// Random tag soup: tags that deepen the stack and never close, bursts of
/// end tags that are mostly orphans against it, self-closing tags,
/// comments, entities and text.
pub fn arb_soup() -> Gen<String> {
    let tag = || Gen::select(vec!["b", "i", "hr", "br", "td", "tr", "p", "div", "li"]);
    let burst =
        |pieces: Vec<&'static str>| Gen::vec(Gen::select(pieces), 5..=40).map(|v| v.concat());
    let piece = Gen::one_of(vec![
        tag().map(|t| format!("<{t}>")),
        tag().map(|t| format!("</{t}>")),
        gen::string_from("abcdefghijklmnopqrstuvwxyz ", 0..=10),
        Gen::just("<br/>".to_owned()),
        Gen::just("<!-- c -->".to_owned()),
        Gen::just("&amp;".to_owned()),
        burst(vec!["<br>x", "<hr>", "<b>", "<p>y"]),
        burst(vec!["</u>", "</em>", "</i>", "</b>", "</font>"]),
    ]);
    gen::concat(piece, 0..=60)
}
