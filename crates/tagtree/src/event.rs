//! Normalization pass: Appendix A, steps 1–2.
//!
//! Turns the raw token stream into a *balanced* event stream in which every
//! start-tag has exactly one matching end-tag, comments and orphan end-tags
//! are discarded, and synthetic end-tags sit at the paper's position `L`
//! (just before the first tag that follows the unclosed start-tag).
//!
//! The paper materializes an updated copy of the document and re-scans it;
//! we keep the equivalent event list in memory. The stack-plus-table bookkeeping
//! is the same: each pushed start-tag remembers "the location of the next tag
//! in `D`" so a later recovery pop knows where its end-tag belongs.
//!
//! Events are zero-copy: tag names are interned [`Sym`]s (matching the
//! stack search in step 2 is an integer compare) and text events borrow
//! their raw source slice, deferring entity decoding to the tree builder's
//! single arena append.

use rbd_html::{decode_entities, Span, Sym, SymbolTable, Token, TokenStream, Tokenizer};
use std::borrow::Cow;

/// One event of the normalized, balanced document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag. `src` covers the tag in the original source.
    Start {
        /// Interned tag name (lower-cased by the tokenizer).
        name: Sym,
        /// Byte span of the start tag in the source document.
        src: Span,
    },
    /// An end tag, real or synthesized.
    End {
        /// Interned tag name (lower-cased by the tokenizer).
        name: Sym,
        /// Byte span of the end tag in the source. For a synthetic end-tag
        /// this is the empty span at the paper's position `L` (the start of
        /// the tag that follows the unclosed start-tag).
        src: Span,
        /// `true` if this end-tag was inserted by normalization.
        synthetic: bool,
    },
    /// A run of plain text, borrowed raw from the source.
    Text {
        /// Raw source slice (entities not yet decoded).
        raw: &'a str,
        /// Whether the run may contain character references to decode.
        decode: bool,
        /// Byte span in the source.
        src: Span,
    },
}

impl<'a> Event<'a> {
    /// Tag name for start/end events.
    pub fn name(&self) -> Option<Sym> {
        match self {
            Event::Start { name, .. } | Event::End { name, .. } => Some(*name),
            Event::Text { .. } => None,
        }
    }

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
/// `next_tag` is the paper's `L` — the location of the first tag that
/// follows this start-tag — recorded incrementally so recovery pops are
/// `O(1)` (the paper achieves the same with its table of linked lists).
#[derive(Clone, Copy)]
struct Open {
    name: Sym,
    /// The paper's `L`: `(event index, source position)` of the first tag
    /// event after this start-tag. `None` until such a tag is pushed.
    next_tag: Option<(usize, usize)>,
    /// Source position where the region would end if it closed right now:
    /// just past the start tag, extended over immediately-following text.
    text_end: usize,
}

/// Normalizes `source` into a balanced event stream (Appendix A steps 1–2),
/// returning the events, what normalization did, and the symbol table the
/// events' [`Sym`]s resolve against.
///
/// Never fails: arbitrarily malformed HTML yields a well-nested event list.
pub fn normalize(source: &str) -> (Vec<Event<'_>>, NormalizeStats, SymbolTable) {
    let tokens = Tokenizer::new(source).run();
    let (events, stats) = normalize_tokens(&tokens);
    (events, stats, tokens.symbols)
}

/// Normalization over an already-tokenized stream. Events resolve against
/// the stream's own `symbols` table.
pub fn normalize_tokens<'a>(tokens: &TokenStream<'a>) -> (Vec<Event<'a>>, NormalizeStats) {
    let mut stats = NormalizeStats::default();
    // rbd-lint: allow(budget) — proportional to the token stream, which the TokenBudget caps
    let mut events: Vec<Event<'a>> = Vec::with_capacity(tokens.tokens.len() + 16);
    let mut stack: Vec<Open> = Vec::new();
    // How many entries of each interned name `stack` holds, so an orphan
    // end-tag is recognized without scanning the stack. A `Sym` out of the
    // table's range has no count and falls back to the scan.
    let mut open_count: Vec<usize> = vec![0; tokens.symbols.len()];
    // Pending synthetic end-tags keyed by the index (into `events`) of the
    // event they must precede; indices ≥ `events.len()` at splice time append.
    let mut pending: Vec<(usize, Event<'a>)> = Vec::new();

    // Records the paper's `L` for the innermost open tag when a new tag
    // event arrives at `(idx, src_pos)`. Only the stack top can still lack
    // its `L`: deeper entries saw a tag (their child's start) already.
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
                let idx = events.len();
                note_tag(&mut stack, idx, t.span.start);
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
                    if let Some(n) = open_count.get_mut(t.name.index()) {
                        *n += 1;
                    }
                    stack.push(Open {
                        name: t.name,
                        next_tag: None,
                        text_end: t.span.end,
                    });
                }
            }
            Token::End(t) => {
                // Find the matching start-tag on the stack, searching from
                // the top (paper: "Search for the corresponding start-tag of
                // G in S"). Interned names make this an integer scan, and
                // an orphan costs one count lookup; the scan for an open
                // name is paid for by the pops that follow it.
                let found = match open_count.get(t.name.index()) {
                    Some(0) => None,
                    _ => stack.iter().rposition(|o| o.name == t.name),
                };
                match found {
                    None => {
                        // Useless tag: an end-tag with no corresponding
                        // start-tag is discarded.
                        stats.orphan_end_tags += 1;
                    }
                    Some(pos) => {
                        note_tag(&mut stack, events.len(), t.span.start);
                        // Pop every tag above the match; each gets a
                        // synthetic end-tag at its own `L`. The final pop
                        // (down to `pos`) is the match itself, which gets
                        // the real end-tag.
                        while let Some(open) = stack.pop() {
                            if let Some(n) = open_count.get_mut(open.name.index()) {
                                *n -= 1;
                            }
                            if stack.len() <= pos {
                                debug_assert_eq!(open.name, t.name);
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
                }
            }
        }
    }

    // EOF: every still-open tag gets a synthetic end-tag at its `L` (or at
    // EOF when nothing follows it).
    while let Some(open) = stack.pop() {
        stats.end_tags_inserted += 1;
        schedule_close(events.len(), &mut pending, open);
    }

    (splice(events, pending), stats)
}

/// Schedules a synthetic end-tag for an unclosed start-tag. It is inserted
/// at the paper's `L` — just before the first tag that followed the
/// start-tag — or at the current frontier (`events.len()`) when no tag
/// followed, so the region covers exactly the start-tag and its trailing
/// text.
fn schedule_close<'a>(frontier: usize, pending: &mut Vec<(usize, Event<'a>)>, open: Open) {
    let (anchor, pos) = match open.next_tag {
        Some((idx, p)) => (idx, p),
        None => (frontier, open.text_end),
    };
    pending.push((
        anchor,
        Event::End {
            name: open.name,
            src: Span::new(pos, pos),
            synthetic: true,
        },
    ));
}

/// Splices pending insertions into the event list. Each pending entry
/// `(anchor, ev)` inserts `ev` immediately *before* `events[anchor]`;
/// anchors at or past the end append. At equal anchors, insertion order is
/// preserved — pops happen innermost-first, which yields correct nesting.
fn splice<'a>(events: Vec<Event<'a>>, mut pending: Vec<(usize, Event<'a>)>) -> Vec<Event<'a>> {
    if pending.is_empty() {
        return events;
    }
    // Stable sort by anchor; entries pushed earlier (inner tags) must come
    // first at the same anchor to preserve nesting.
    pending.sort_by_key(|(a, _)| *a);
    // rbd-lint: allow(budget) — bounded by the event stream already built under the TreeBudget
    let mut out = Vec::with_capacity(events.len() + pending.len());
    let mut queue = pending.into_iter().peekable();
    for (i, ev) in events.into_iter().enumerate() {
        while let Some((_, inserted)) = queue.next_if(|&(anchor, _)| anchor == i) {
            out.push(inserted);
        }
        out.push(ev);
    }
    // EOF insertions.
    out.extend(queue.map(|(_, inserted)| inserted));
    out
}

/// Checks that an event stream is balanced: every `Start` has a matching
/// `End` in proper nesting order. Used by tests and debug assertions.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn render(events: &[Event<'_>], symbols: &SymbolTable) -> String {
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

    #[test]
    fn already_balanced_passes_through() {
        let (ev, stats, syms) = normalize("<html><body>x</body></html>");
        assert_eq!(render(&ev, &syms), "<html><body>x</body></html>");
        assert!(is_balanced(&ev));
        assert_eq!(stats.end_tags_inserted, 0);
        assert_eq!(stats.orphan_end_tags, 0);
    }

    #[test]
    fn void_tag_closed_before_next_tag() {
        let (ev, stats, syms) = normalize("<td><br>text<hr>more</td>");
        assert_eq!(render(&ev, &syms), "<td><br>text</br*><hr>more</hr*></td>");
        assert!(is_balanced(&ev));
        assert_eq!(stats.end_tags_inserted, 2);
    }

    #[test]
    fn region_of_unclosed_tag_is_start_plus_text() {
        // `<b>` unclosed: when `</td>` arrives, `</b>` goes before the tag
        // following `<b>` — i.e. before `<i>` — so `<i>` is b's sibling.
        let (ev, _, syms) = normalize("<td><b>bold<i>it</i></td>");
        assert_eq!(render(&ev, &syms), "<td><b>bold</b*><i>it</i></td>");
        assert!(is_balanced(&ev));
    }

    #[test]
    fn orphan_end_tag_discarded() {
        let (ev, stats, syms) = normalize("<p>a</b>b</p>");
        assert_eq!(render(&ev, &syms), "<p>ab</p>");
        assert_eq!(stats.orphan_end_tags, 1);
    }

    #[test]
    fn comments_discarded() {
        let (ev, stats, syms) = normalize("<p><!-- hi -->a</p>");
        assert_eq!(render(&ev, &syms), "<p>a</p>");
        assert_eq!(stats.comments_discarded, 1);
    }

    #[test]
    fn unclosed_at_eof() {
        // Section 3: a region without an end-tag ends just before the next
        // tag — so an unclosed `<html>` region covers only itself, and
        // `<body>` becomes its sibling, not its child.
        let (ev, stats, syms) = normalize("<html><body>text");
        assert_eq!(render(&ev, &syms), "<html></html*><body>text</body*>");
        assert!(is_balanced(&ev));
        assert_eq!(stats.end_tags_inserted, 2);
    }

    #[test]
    fn eof_close_respects_anchor() {
        // `<b>` is followed by `<i>`: even at EOF-recovery, `</b>` belongs
        // before `<i>`, not at the end.
        let (ev, _, syms) = normalize("<b>x<i>y");
        assert_eq!(render(&ev, &syms), "<b>x</b*><i>y</i*>");
        assert!(is_balanced(&ev));
    }

    #[test]
    fn self_closing_immediately_balanced() {
        let (ev, _, syms) = normalize("<p><br/>x</p>");
        assert_eq!(render(&ev, &syms), "<p><br></br>x</p>");
        assert!(is_balanced(&ev));
    }

    #[test]
    fn interleaved_misnesting_recovers() {
        // <b><i></b></i>: at </b>, i is popped with a synthetic end before
        // … the next tag after <i> is </b> itself; then </i> is an orphan.
        let (ev, stats, syms) = normalize("<b>x<i>y</b>z</i>w");
        assert_eq!(render(&ev, &syms), "<b>x<i>y</i*></b>zw");
        assert!(is_balanced(&ev));
        assert_eq!(stats.orphan_end_tags, 1);
        assert_eq!(stats.end_tags_inserted, 1);
    }

    #[test]
    fn figure2_shape() {
        // Condensed Figure 2: hr/b/br under td must all become td's direct
        // children.
        let src = "<table><tr><td><h1>F</h1> Oct\
                   <hr><b>L</b><br> died.\
                   <hr><b>B</b><br> passed.\
                   <hr></td></tr></table>";
        let (ev, _, syms) = normalize(src);
        assert!(is_balanced(&ev));
        assert_eq!(
            render(&ev, &syms),
            "<table><tr><td><h1>F</h1> Oct<hr></hr*><b>L</b><br> died.</br*>\
             <hr></hr*><b>B</b><br> passed.</br*><hr></hr*></td></tr></table>"
        );
    }

    #[test]
    fn repeated_same_tag_unclosed() {
        let (ev, _, syms) = normalize("<ul><li>a<li>b<li>c</ul>");
        assert_eq!(
            render(&ev, &syms),
            "<ul><li>a</li*><li>b</li*><li>c</li*></ul>"
        );
        assert!(is_balanced(&ev));
    }

    #[test]
    fn empty_document() {
        let (ev, stats, _) = normalize("");
        assert!(ev.is_empty());
        assert_eq!(stats, NormalizeStats::default());
    }

    #[test]
    fn text_only_document() {
        let (ev, _, syms) = normalize("just words");
        assert_eq!(render(&ev, &syms), "just words");
    }

    #[test]
    fn stats_count_start_tags() {
        let (_, stats, _) = normalize("<a><b></b></a><c/>");
        assert_eq!(stats.start_tags, 3);
    }
}
