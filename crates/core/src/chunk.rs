//! Record chunking: splitting the document at the discovered separator and
//! cleaning markup from each chunk (the Record Extractor's output is
//! "individual record-size chunks, cleaned by removing markup-language
//! tags", §2).
//!
//! Nothing is re-tokenized. The tag tree's text arena already holds the
//! document's plain text in document order, and a run of sibling subtrees
//! owns one contiguous slice of it, so a record's text is the arena slice
//! from its separator child's text offset to the next one's, with its
//! whitespace squeezed.

use rbd_html::squeeze_whitespace;
use rbd_tagtree::{NodeId, TagTree};

/// One extracted record: its byte range in the source document plus its
/// cleaned text. The record's markup is `&source[start..end]`, separator
/// tag included at the front; it is not copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Markup-free plain text, entities decoded, whitespace squeezed.
    pub text: String,
    /// Byte offset of the chunk start in the source document.
    pub start: usize,
    /// Byte offset one past the chunk end.
    pub end: usize,
}

/// Splits the highest-fan-out subtree of `tree` at each occurrence of
/// `separator` among its children.
///
/// The text before the first separator (typically a page heading) becomes
/// the *preamble*, returned separately. Chunks whose cleaned text is empty
/// (e.g. between a trailing separator and the subtree end) are dropped —
/// they contain no record.
///
/// Record text comes from `tree`'s text arena, so `tree` must have been
/// built from `source`, in the mode `xml` names; neither is read again.
pub fn chunk_at_separators(
    source: &str,
    tree: &TagTree,
    subtree: NodeId,
    separator: &str,
    _xml: bool,
) -> (Option<Record>, Vec<Record>) {
    debug_assert_eq!(source.len(), tree.source_len(), "tree of another source");
    let region = tree.node(subtree).region;
    let whole = tree.subtree_text_span(subtree);
    let cuts = tree.children_named(subtree, separator);
    // (source offset, arena offset) of every chunk boundary: the subtree's
    // start, each separator child's start tag, the subtree's end.
    let mut bounds = Vec::with_capacity(cuts.len() + 2);
    bounds.push((region.start, whole.start));
    bounds.extend(cuts.iter().map(|&c| {
        (
            tree.node(c).start_tag.start,
            tree.subtree_text_span(c).start,
        )
    }));
    bounds.push((region.end, whole.end));

    let text = tree.plain_text();
    let mut chunks = bounds.windows(2).map(|w| match *w {
        [(start, from), (end, to)] => make_record(text.get(from..to).unwrap_or(""), start, end),
        _ => None,
    });
    // Without a separator occurrence the whole subtree is one record.
    let preamble = if cuts.is_empty() {
        None
    } else {
        chunks.next().flatten()
    };
    (preamble, chunks.flatten().collect())
}

/// The record over `source[start..end]` whose plain text is `text`;
/// `None` when no text remains after squeezing.
fn make_record(text: &str, start: usize, end: usize) -> Option<Record> {
    let text = squeeze_whitespace(text);
    (!text.is_empty()).then_some(Record { text, start, end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_tagtree::TagTreeBuilder;

    fn split(src: &str, sep: &str) -> (Option<Record>, Vec<Record>) {
        let tree = TagTreeBuilder::default().build(src);
        let subtree = tree.highest_fanout();
        chunk_at_separators(src, &tree, subtree, sep, false)
    }

    #[test]
    fn three_records_with_preamble_and_trailing_separator() {
        let src = "<td><h1>Notices</h1> Oct 1 \
                   <hr><b>A</b> died.\
                   <hr><b>B</b> died.\
                   <hr><b>C</b> died.\
                   <hr></td>";
        let (preamble, records) = split(src, "hr");
        assert_eq!(preamble.unwrap().text, "Notices Oct 1");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].text, "A died.");
        assert_eq!(records[2].text, "C died.");
    }

    #[test]
    fn records_carry_source_offsets() {
        let src = "<td><hr>alpha<hr>beta</td>";
        let (_, records) = split(src, "hr");
        assert_eq!(records.len(), 2);
        for r in &records {
            assert!(src[r.start..r.end].contains(&r.text));
            assert!(src[r.start..r.end].starts_with("<hr>"));
        }
    }

    #[test]
    fn no_preamble_when_document_starts_with_separator() {
        let src = "<td><hr>alpha<hr>beta</td>";
        let (preamble, _) = split(src, "hr");
        assert!(preamble.is_none());
    }

    #[test]
    fn separator_absent_yields_single_record() {
        let src = "<td><p>only one block of text</p><p>x</p></td>";
        let (preamble, records) = split(src, "hr");
        assert!(preamble.is_none());
        assert_eq!(records.len(), 1);
        assert!(records[0].text.contains("only one block"));
    }

    #[test]
    fn markup_cleaned_and_entities_decoded() {
        let src = "<td><hr><b>Smith &amp; Sons</b>, est. 1898<hr><i>x</i>y</td>";
        let (_, records) = split(src, "hr");
        assert_eq!(records[0].text, "Smith & Sons, est. 1898");
    }

    #[test]
    fn nested_separator_occurrences_do_not_cut() {
        // An `hr` nested deeper than the subtree's children is not a cut
        // point: boundaries are between the subtree root's children.
        let src = "<td><hr>top<div><hr>nested</div><hr>tail</td>";
        let (_, records) = split(src, "hr");
        assert_eq!(records.len(), 2);
        assert!(records[0].text.contains("nested"));
    }
}
