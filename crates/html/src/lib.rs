//! # rbd-html — a from-scratch HTML tokenizer
//!
//! This crate is the lowest substrate of the record-boundary discovery
//! pipeline (Embley, Jiang & Ng, SIGMOD 1999). It turns raw HTML bytes into a
//! stream of [`Token`]s: start-tags (with parsed attributes), end-tags,
//! comments, doctype declarations, and plain text with character references
//! decoded.
//!
//! The tokenizer is deliberately forgiving — 1990s web documents are full of
//! unclosed tags, stray `>` characters, unquoted attribute values and bogus
//! comments — and never fails on malformed input. Errors that a strict parser
//! would raise are instead recorded as [`Warning`]s alongside the token
//! stream, so callers can still observe document quality.
//!
//! What this crate intentionally does *not* do:
//!
//! * build a DOM — tree construction is the job of `rbd-tagtree`, which
//!   implements the paper's Appendix A algorithm over this token stream;
//! * enforce HTML5 parsing-spec state-machine details — the paper predates
//!   HTML5 and its algorithm only needs tag/text segmentation.
//!
//! The crate has one entry point per dialect — [`tokenize`] and
//! [`tokenize_xml`] — and no governed or traced variants: the caller
//! checks untrusted input against a [`TokenBudget`] first, and the
//! tag-tree builder (`rbd-tagtree`'s `TagTreeBuilder::try_build`) does
//! both that check and the `tokenize` span and event of the audit trail.
//! Both entry points collect into a [`TokenStream`]; [`Tokenizer::feed`]
//! hands each token and warning to any [`TokenSink`] as it is scanned
//! instead, which is how the tag-tree builder builds while the tokens
//! arrive, with no token vector in between.
//!
//! Tokens are zero-copy views of the source: tag names are interned
//! [`Sym`]s resolved against the stream's [`SymbolTable`], and text tokens
//! borrow their raw slice, decoding character references lazily.
//!
//! Two text-layer transforms sit beside the tokenizer: [`decode_entities`]
//! decodes character references, and [`squeeze_whitespace`] collapses
//! whitespace runs in extracted record text to single spaces.
//!
//! ## Example
//!
//! ```
//! use rbd_html::{tokenize, Token};
//!
//! let tokens = tokenize("<b>Brian &amp; Field</b><hr>");
//! assert_eq!(tokens.tokens.len(), 4);
//! assert!(tokens.tokens[0].is_start(&tokens.symbols, "b"));
//! assert!(matches!(&tokens.tokens[1], Token::Text(t) if t.text() == "Brian & Field"));
//! assert!(tokens.tokens[2].is_end(&tokens.symbols, "b"));
//! assert!(tokens.tokens[3].is_start(&tokens.symbols, "hr"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entities;
pub mod intern;
mod scan;
pub mod span;
mod squeeze;
pub mod token;
pub mod tokenizer;

pub use entities::decode_entities;
pub use intern::{Sym, SymbolTable};
pub use span::Span;
pub use squeeze::squeeze_whitespace;
pub use token::{Attribute, EndTag, StartTag, Text, Token};
pub use tokenizer::{
    tokenize, tokenize_xml, TokenBudget, TokenSink, TokenStream, Tokenizer, Warning, WarningKind,
};

/// Returns `true` for elements whose content is raw text (no nested markup):
/// the tokenizer treats everything until the matching end tag as text.
pub fn is_raw_text_element(name: &str) -> bool {
    matches!(name, "script" | "style" | "xmp" | "textarea" | "title")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_text_elements() {
        assert!(is_raw_text_element("script"));
        assert!(is_raw_text_element("style"));
        assert!(!is_raw_text_element("div"));
    }
}
