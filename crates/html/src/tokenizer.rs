//! The HTML tokenizer proper.
//!
//! A hand-written, single-pass, byte-oriented scanner. It is `O(n)` in the
//! document length — the property the paper's overall complexity argument
//! rests on — and allocation-light: delimiter scanning runs eight bytes at
//! a time (see `scan`), tag names are interned into a per-document
//! [`SymbolTable`], and text tokens borrow the source, deferring entity
//! decoding until someone asks.

use crate::entities::decode_entities;
use crate::intern::{Sym, SymbolTable};
use crate::is_raw_text_element;
use crate::scan::{find_byte, find_sub, scan_text_run};
use crate::span::Span;
use crate::token::{Attribute, EndTag, StartTag, Text, Token};
use rbd_limits::{LimitExceeded, LimitKind};
use std::borrow::Cow;

/// A non-fatal oddity observed while tokenizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warning {
    /// What went wrong.
    pub kind: WarningKind,
    /// Where in the source it was observed.
    pub span: Span,
}

/// Classification of tokenizer warnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarningKind {
    /// `<` appeared but no plausible tag followed; treated as text.
    StrayLessThan,
    /// A tag was still open at end of input; the partial tag was dropped.
    UnterminatedTag,
    /// A comment was still open at end of input.
    UnterminatedComment,
    /// A raw-text element (e.g. `<script>`) was never closed.
    UnterminatedRawText,
    /// An attribute value's closing quote was missing.
    UnterminatedAttributeValue,
}

/// The output of [`tokenize`]: the token stream plus any warnings, and the
/// symbol table that tag-name [`Sym`]s resolve against.
#[derive(Debug, Clone, Default)]
pub struct TokenStream<'a> {
    /// Tokens in document order.
    pub tokens: Vec<Token<'a>>,
    /// Non-fatal parse oddities, in document order.
    pub warnings: Vec<Warning>,
    /// Interned tag names for this document.
    pub symbols: SymbolTable,
}

impl<'a> TokenStream<'a> {
    /// Iterates over only the start/end tag tokens.
    pub fn tags(&self) -> impl Iterator<Item = &Token<'a>> {
        self.tokens
            .iter()
            .filter(|t| matches!(t, Token::Start(_) | Token::End(_)))
    }

    /// Concatenated plain text of the document, entities decoded.
    pub fn plain_text(&self) -> String {
        let mut out = String::new();
        for t in &self.tokens {
            if let Token::Text(t) = t {
                out.push_str(&t.text());
            }
        }
        out
    }

    /// Serializes the whole stream back to markup (see [`Token::render`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tokens {
            t.render_into(&self.symbols, &mut out);
        }
        out
    }
}

/// Where a [`Tokenizer`] delivers its output: every token and every
/// warning, each in document order. A [`TokenStream`] is the sink that
/// keeps them all; the tag-tree builder is one that builds as they arrive.
pub trait TokenSink<'a> {
    /// Takes the next token.
    fn token(&mut self, token: Token<'a>);
    /// Takes the next warning: what went wrong, and where.
    fn warning(&mut self, kind: WarningKind, span: Span);
}

impl<'a> TokenSink<'a> for TokenStream<'a> {
    fn token(&mut self, token: Token<'a>) {
        self.tokens.push(token);
    }

    fn warning(&mut self, kind: WarningKind, span: Span) {
        self.warnings.push(Warning { kind, span });
    }
}

/// Tokenizes an HTML document. Never fails; malformed constructs degrade to
/// text and produce [`Warning`]s.
pub fn tokenize(source: &str) -> TokenStream<'_> {
    Tokenizer::new(source).run()
}

/// Tokenizes an XML document (case-sensitive names, CDATA, no raw-text
/// elements). Equally forgiving of malformed input.
pub fn tokenize_xml(source: &str) -> TokenStream<'_> {
    Tokenizer::new_xml(source).run()
}

/// A resource budget for one tokenizer run.
///
/// The scanner is a single pass whose token stream, warnings and decoded
/// text are all proportional to the input, so the input-byte cap bounds
/// every allocation the run can make. The cap is enforced *before* the
/// scan starts: a document over budget is rejected whole, never silently
/// truncated (cutting at an arbitrary byte would manufacture tags and
/// text the document does not contain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenBudget {
    /// Maximum input length in bytes; `None` is unbounded.
    pub max_input_bytes: Option<usize>,
}

impl TokenBudget {
    /// A budget capping the input at `max_input_bytes`.
    #[must_use]
    pub fn with_max_input_bytes(max_input_bytes: usize) -> Self {
        TokenBudget {
            max_input_bytes: Some(max_input_bytes),
        }
    }

    /// Checks `source` against the budget without scanning it.
    ///
    /// # Errors
    /// [`LimitExceeded`] with [`LimitKind::InputBytes`] when the source is
    /// longer than the cap.
    pub fn check(&self, source: &str) -> Result<(), LimitExceeded> {
        match self.max_input_bytes {
            Some(cap) if source.len() > cap => Err(LimitExceeded {
                limit: LimitKind::InputBytes,
                cap,
                observed: source.len(),
            }),
            _ => Ok(()),
        }
    }
}

/// Streaming tokenizer over a borrowed source document.
///
/// Most callers want the convenience function [`tokenize`]; the struct form
/// exists so a caller can hand the tokens to its own [`TokenSink`] as they
/// are scanned ([`Tokenizer::feed`]) instead of collecting them.
pub struct Tokenizer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Interned tag names seen so far.
    symbols: SymbolTable,
    /// When `Some(name)`, we are inside a raw-text element and scan for its
    /// end tag only.
    raw_text: Option<Sym>,
    /// Reused buffer for lower-casing mixed-case tag names before interning.
    scratch: String,
    /// XML mode: tag names keep their case, `<![CDATA[…]]>` sections become
    /// text, and no element is raw-text. The paper's footnote 1 claims the
    /// approach "should carry over directly to other document type
    /// definitions, such as XML" — this mode is that claim, implemented.
    xml: bool,
}

impl<'a> Tokenizer<'a> {
    /// Creates an HTML tokenizer over `source`.
    pub fn new(source: &'a str) -> Self {
        Tokenizer {
            src: source,
            bytes: source.as_bytes(),
            pos: 0,
            symbols: SymbolTable::new(),
            raw_text: None,
            scratch: String::new(),
            xml: false,
        }
    }

    /// Creates an XML tokenizer: case-sensitive names, CDATA sections, no
    /// raw-text elements.
    pub fn new_xml(source: &'a str) -> Self {
        Tokenizer {
            xml: true,
            ..Tokenizer::new(source)
        }
    }

    /// Runs the tokenizer to completion, collecting every token.
    pub fn run(self) -> TokenStream<'a> {
        let mut out = TokenStream::default();
        out.symbols = self.feed(&mut out);
        out
    }

    /// Runs the tokenizer to completion, handing each token and warning to
    /// `sink` as it is scanned. Returns the symbol table the tokens' tag
    /// names resolve against.
    pub fn feed<S: TokenSink<'a>>(mut self, sink: &mut S) -> SymbolTable {
        while let Some(b) = self.byte(self.pos) {
            if let Some(sym) = self.raw_text.take() {
                self.scan_raw_text(sym, sink);
                continue;
            }
            if b == b'<' {
                self.scan_markup(sink);
            } else {
                self.scan_text(sink);
            }
        }
        self.symbols
    }

    /// The byte at `i`, or `None` past the end. The panic-free accessor
    /// every scanning loop is built on.
    fn byte(&self, i: usize) -> Option<u8> {
        self.bytes.get(i).copied()
    }

    /// Slices `src[start..end]`, returning `""` when the range is out of
    /// bounds or splits a UTF-8 character. Scanner positions only ever rest
    /// on ASCII delimiters, so the fallback is unreachable in practice —
    /// but the parsing hot path must not be able to panic on any input.
    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.src.get(start..end).unwrap_or("")
    }

    /// Slices `src[start..]` with the same total semantics as `slice`.
    fn slice_from(&self, start: usize) -> &'a str {
        self.src.get(start..).unwrap_or("")
    }

    /// Consumes plain text up to the next `<` (or EOF) and emits a Text
    /// token unless the run is entirely empty. One fused SWAR pass finds
    /// the boundary and learns whether the run needs entity decoding.
    fn scan_text<S: TokenSink<'a>>(&mut self, sink: &mut S) {
        let start = self.pos;
        let (end, has_amp) = scan_text_run(self.bytes, start);
        self.pos = end;
        self.emit_text(start, end, has_amp, sink);
    }

    fn emit_text<S: TokenSink<'a>>(
        &mut self,
        start: usize,
        end: usize,
        decode: bool,
        sink: &mut S,
    ) {
        if start == end {
            return;
        }
        sink.token(Token::Text(Text {
            raw: self.slice(start, end),
            decode,
            span: Span::new(start, end),
        }));
    }

    /// Dispatches on the character after `<`.
    fn scan_markup<S: TokenSink<'a>>(&mut self, sink: &mut S) {
        let start = self.pos;
        debug_assert_eq!(self.byte(start), Some(b'<'));
        match self.byte(start + 1) {
            Some(b'!') => self.scan_declaration(start, sink),
            Some(b'?') => self.scan_processing_instruction(start, sink),
            Some(b'/') => self.scan_end_tag(start, sink),
            Some(c) if c.is_ascii_alphabetic() => self.scan_start_tag(start, sink),
            _ => {
                // `<` followed by junk: emit the `<` as text, keep going.
                sink.warning(WarningKind::StrayLessThan, Span::new(start, start + 1));
                self.pos = start + 1;
                self.emit_text(start, start + 1, false, sink);
            }
        }
    }

    /// `<!-- … -->`, `<!DOCTYPE …>`, `<![CDATA[…]]>` (XML mode), or any
    /// other `<!…>` construct.
    fn scan_declaration<S: TokenSink<'a>>(&mut self, start: usize, sink: &mut S) {
        if self.xml && self.slice_from(start).starts_with("<![CDATA[") {
            let body_start = start + 9;
            match find_sub(self.bytes, b"]]>", body_start) {
                Some(end) => {
                    sink.token(Token::Text(Text {
                        raw: self.slice(body_start, end),
                        decode: false,
                        span: Span::new(start, end + 3),
                    }));
                    self.pos = end + 3;
                }
                None => {
                    let span = Span::new(start, self.bytes.len());
                    sink.warning(WarningKind::UnterminatedComment, span);
                    sink.token(Token::Text(Text {
                        raw: self.slice_from(body_start),
                        decode: false,
                        span,
                    }));
                    self.pos = self.bytes.len();
                }
            }
            return;
        }
        if self.slice_from(start).starts_with("<!--") {
            match find_sub(self.bytes, b"-->", start + 4) {
                Some(end) => {
                    let span = Span::new(start, end + 3);
                    sink.token(Token::Comment(span));
                    self.pos = end + 3;
                }
                None => {
                    let span = Span::new(start, self.bytes.len());
                    sink.warning(WarningKind::UnterminatedComment, span);
                    sink.token(Token::Comment(span));
                    self.pos = self.bytes.len();
                }
            }
            return;
        }
        // <!DOCTYPE …> or a bogus <! …> comment — scan to `>`.
        let end = find_byte(self.bytes, b'>', start + 2).unwrap_or(self.bytes.len());
        let close = (end < self.bytes.len()) as usize;
        let span = Span::new(start, end + close);
        if close == 0 {
            sink.warning(WarningKind::UnterminatedComment, span);
        }
        let body = self.slice(start + 2, end);
        // `get(..7)` rather than slicing: the body may hold multibyte text
        // and a "doctype" prefix is ASCII, so a non-boundary cut means "no".
        if body
            .get(..7)
            .is_some_and(|p| p.eq_ignore_ascii_case("doctype"))
        {
            sink.token(Token::Doctype(span));
        } else {
            // The paper treats every `<!…` tag as a comment to discard.
            sink.token(Token::Comment(span));
        }
        self.pos = end + close;
    }

    fn scan_processing_instruction<S: TokenSink<'a>>(&mut self, start: usize, sink: &mut S) {
        let end = find_byte(self.bytes, b'>', start + 2).unwrap_or(self.bytes.len());
        let close = (end < self.bytes.len()) as usize;
        let span = Span::new(start, end + close);
        if close == 0 {
            sink.warning(WarningKind::UnterminatedTag, span);
        }
        sink.token(Token::ProcessingInstruction(span));
        self.pos = end + close;
    }

    fn scan_end_tag<S: TokenSink<'a>>(&mut self, start: usize, sink: &mut S) {
        // `</` then name then optional junk then `>`.
        let name_start = start + 2;
        let mut i = name_start;
        while self.byte(i).is_some_and(is_name_byte) {
            i += 1;
        }
        if i == name_start {
            // `</>` or `</ …`: treat as stray text.
            sink.warning(WarningKind::StrayLessThan, Span::new(start, start + 2));
            self.pos = start + 1;
            self.emit_text(start, start + 1, false, sink);
            return;
        }
        let name = self.tag_name(name_start, i);
        let end = find_byte(self.bytes, b'>', i).unwrap_or(self.bytes.len());
        let close = (end < self.bytes.len()) as usize;
        let span = Span::new(start, end + close);
        if close == 0 {
            sink.warning(WarningKind::UnterminatedTag, span);
        }
        sink.token(Token::End(EndTag { name, span }));
        self.pos = end + close;
    }

    fn scan_start_tag<S: TokenSink<'a>>(&mut self, start: usize, sink: &mut S) {
        let name_start = start + 1;
        let mut i = name_start;
        while self.byte(i).is_some_and(is_name_byte) {
            i += 1;
        }
        let name = self.tag_name(name_start, i);
        let (attrs, self_closing, after) = self.scan_attributes(i, sink);
        let span = Span::new(start, after);
        let last = after.checked_sub(1).and_then(|k| self.byte(k));
        if after == self.bytes.len() && last != Some(b'>') {
            sink.warning(WarningKind::UnterminatedTag, span);
        }
        if !self_closing && !self.xml && is_raw_text_element(self.symbols.resolve(name)) {
            self.raw_text = Some(name);
        }
        sink.token(Token::Start(StartTag {
            name,
            attrs,
            self_closing,
            span,
        }));
        self.pos = after;
    }

    /// Interns the tag name at `src[start..end]`. HTML mode lower-cases
    /// first (through a reused scratch buffer, so an already-lower-case
    /// name — the common case — never allocates); XML is case-sensitive.
    fn tag_name(&mut self, start: usize, end: usize) -> Sym {
        let raw = self.slice(start, end);
        if self.xml || !raw.bytes().any(|b| b.is_ascii_uppercase()) {
            return self.symbols.intern(raw);
        }
        self.scratch.clear();
        self.scratch.push_str(raw);
        self.scratch.make_ascii_lowercase();
        self.symbols.intern(&self.scratch)
    }

    /// Parses the attribute list starting at `i` (just after the tag name).
    /// Returns `(attrs, self_closing, position after '>')`.
    fn scan_attributes<S: TokenSink<'a>>(
        &mut self,
        mut i: usize,
        sink: &mut S,
    ) -> (Vec<Attribute<'a>>, bool, usize) {
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            // Skip whitespace.
            while self.byte(i).is_some_and(|b| b.is_ascii_whitespace()) {
                i += 1;
            }
            match self.byte(i) {
                None => return (attrs, self_closing, i),
                Some(b'>') => return (attrs, self_closing, i + 1),
                Some(b'/') => {
                    // Self-closing only if `/>`; a lone `/` is skipped.
                    if self.byte(i + 1) == Some(b'>') {
                        self_closing = true;
                        return (attrs, self_closing, i + 2);
                    }
                    i += 1;
                }
                Some(_) => {
                    let (attr, next) = self.scan_one_attribute(i, sink);
                    if let Some(a) = attr {
                        attrs.push(a);
                    }
                    // Guarantee progress even on pathological input.
                    i = next.max(i + 1);
                }
            }
        }
    }

    /// Parses a single `name`, `name=value`, `name="value"` or `name='value'`
    /// attribute starting at non-whitespace position `i`.
    fn scan_one_attribute<S: TokenSink<'a>>(
        &mut self,
        mut i: usize,
        sink: &mut S,
    ) -> (Option<Attribute<'a>>, usize) {
        let name_start = i;
        while self
            .byte(i)
            .is_some_and(|b| !matches!(b, b'=' | b'>' | b'/') && !b.is_ascii_whitespace())
        {
            i += 1;
        }
        if i == name_start {
            return (None, i + 1);
        }
        let raw_name = self.slice(name_start, i);
        let name: Cow<'a, str> = if raw_name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(raw_name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(raw_name)
        };
        // Skip whitespace around `=`.
        let mut j = i;
        while self.byte(j).is_some_and(|b| b.is_ascii_whitespace()) {
            j += 1;
        }
        if self.byte(j) != Some(b'=') {
            return (Some(Attribute { name, value: None }), i);
        }
        j += 1;
        while self.byte(j).is_some_and(|b| b.is_ascii_whitespace()) {
            j += 1;
        }
        match self.byte(j) {
            Some(q) if q == b'"' || q == b'\'' => {
                let val_start = j + 1;
                match find_byte(self.bytes, q, val_start) {
                    Some(end) => {
                        let value = decode_entities(self.slice(val_start, end));
                        (
                            Some(Attribute {
                                name,
                                value: Some(value),
                            }),
                            end + 1,
                        )
                    }
                    None => {
                        sink.warning(
                            WarningKind::UnterminatedAttributeValue,
                            Span::new(val_start, self.bytes.len()),
                        );
                        let value = decode_entities(self.slice_from(val_start));
                        (
                            Some(Attribute {
                                name,
                                value: Some(value),
                            }),
                            self.bytes.len(),
                        )
                    }
                }
            }
            _ => {
                // Unquoted value: up to whitespace or '>'.
                let val_start = j;
                let mut k = j;
                while self
                    .byte(k)
                    .is_some_and(|b| b != b'>' && !b.is_ascii_whitespace())
                {
                    k += 1;
                }
                let value = decode_entities(self.slice(val_start, k));
                (
                    Some(Attribute {
                        name,
                        value: Some(value),
                    }),
                    k,
                )
            }
        }
    }

    /// Inside `<script>`/`<style>`/…: everything until the end tag of the
    /// element named `sym` is one text token; no entity decoding (raw
    /// text).
    ///
    /// The closing-tag probe compares exactly the name's length in bytes
    /// case-insensitively — the old implementation lower-cased the entire
    /// remaining document on every `<` inside the raw text, which was
    /// quadratic on script-heavy pages.
    fn scan_raw_text<S: TokenSink<'a>>(&mut self, sym: Sym, sink: &mut S) {
        let name = self.symbols.resolve(sym);
        let start = self.pos;
        let mut i = start;
        let closing_at = loop {
            match find_byte(self.bytes, b'<', i) {
                None => break None,
                Some(lt) => {
                    if self.byte(lt + 1) == Some(b'/')
                        && self
                            .slice(lt + 2, lt + 2 + name.len())
                            .eq_ignore_ascii_case(name)
                    {
                        break Some(lt);
                    }
                    i = lt + 1;
                }
            }
        };
        match closing_at {
            Some(lt) => {
                if lt > start {
                    sink.token(Token::Text(Text {
                        raw: self.slice(start, lt),
                        decode: false,
                        span: Span::new(start, lt),
                    }));
                }
                self.pos = lt;
                // The `</name …>` itself is scanned as a normal end tag.
            }
            None => {
                let span = Span::new(start, self.bytes.len());
                sink.warning(WarningKind::UnterminatedRawText, span);
                if !span.is_empty() {
                    sink.token(Token::Text(Text {
                        raw: self.slice_from(start),
                        decode: false,
                        span,
                    }));
                }
                self.pos = self.bytes.len();
            }
        }
    }
}

/// `true` for bytes permitted in tag/attribute names.
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ts: &TokenStream<'_>) -> Vec<String> {
        ts.tokens
            .iter()
            .map(|t| match t {
                Token::Start(s) => format!("<{}>", ts.symbols.resolve(s.name)),
                Token::End(e) => format!("</{}>", ts.symbols.resolve(e.name)),
                Token::Text(t) => format!("'{}'", t.text()),
                Token::Comment(_) => "<!--->".into(),
                Token::Doctype(_) => "<!DOCTYPE>".into(),
                Token::ProcessingInstruction(_) => "<?>".into(),
            })
            .collect()
    }

    #[test]
    fn simple_document() {
        let ts = tokenize("<html><body>hi</body></html>");
        assert_eq!(
            names(&ts),
            vec!["<html>", "<body>", "'hi'", "</body>", "</html>"]
        );
        assert!(ts.warnings.is_empty());
    }

    #[test]
    fn attributes_quoted_unquoted_bare() {
        let ts = tokenize(r##"<body bgcolor="#FFFFFF" border=1 noshade>"##);
        let Token::Start(t) = &ts.tokens[0] else {
            panic!()
        };
        assert_eq!(t.attr("bgcolor"), Some("#FFFFFF"));
        assert_eq!(t.attr("border"), Some("1"));
        assert_eq!(
            t.attrs.iter().find(|a| a.name == "noshade").unwrap().value,
            None
        );
    }

    #[test]
    fn single_quoted_attribute() {
        let ts = tokenize("<a href='x.html'>y</a>");
        let Token::Start(t) = &ts.tokens[0] else {
            panic!()
        };
        assert_eq!(t.attr("href"), Some("x.html"));
    }

    #[test]
    fn attribute_entity_decoding() {
        let ts = tokenize(r#"<a title="fish &amp; chips">"#);
        let Token::Start(t) = &ts.tokens[0] else {
            panic!()
        };
        assert_eq!(t.attr("title"), Some("fish & chips"));
    }

    #[test]
    fn attribute_without_entities_borrows() {
        let ts = tokenize(r#"<a href="plain.html" Class="x">"#);
        let Token::Start(t) = &ts.tokens[0] else {
            panic!()
        };
        // Lower-case name + entity-free value: both borrow the source.
        assert!(matches!(&ts.tokens[0], Token::Start(_)));
        let href = t.attrs.iter().find(|a| a.name == "href").unwrap();
        assert!(matches!(href.name, Cow::Borrowed(_)));
        assert!(matches!(href.value, Some(Cow::Borrowed(_))));
        // Mixed-case name must be lower-cased (and therefore owned).
        let class = t.attrs.iter().find(|a| a.name == "class").unwrap();
        assert!(matches!(class.name, Cow::Owned(_)));
    }

    #[test]
    fn tag_names_lowercased() {
        let ts = tokenize("<TABLE><TR><TD>x</TD></TR></TABLE>");
        assert_eq!(
            names(&ts),
            vec!["<table>", "<tr>", "<td>", "'x'", "</td>", "</tr>", "</table>"]
        );
    }

    #[test]
    fn mixed_case_names_intern_to_one_symbol() {
        let ts = tokenize("<TD></td><Td>");
        let syms: Vec<_> = ts.tags().filter_map(Token::tag_sym).collect();
        assert_eq!(syms.len(), 3);
        assert!(syms.iter().all(|&s| s == syms[0]));
        assert_eq!(ts.symbols.resolve(syms[0]), "td");
    }

    #[test]
    fn comments_and_doctype() {
        let ts = tokenize("<!DOCTYPE html><!-- hidden --><p>x</p>");
        assert!(matches!(ts.tokens[0], Token::Doctype(_)));
        assert!(matches!(ts.tokens[1], Token::Comment(_)));
        assert!(ts.tokens[2].is_start(&ts.symbols, "p"));
    }

    #[test]
    fn comment_containing_tags() {
        let ts = tokenize("<!-- <b>not real</b> --><i>x</i>");
        assert!(matches!(ts.tokens[0], Token::Comment(_)));
        assert!(ts.tokens[1].is_start(&ts.symbols, "i"));
    }

    #[test]
    fn bang_tag_without_dashes_is_comment() {
        let ts = tokenize("<!WEIRD thing><p>x");
        assert!(matches!(ts.tokens[0], Token::Comment(_)));
        assert!(ts.tokens[1].is_start(&ts.symbols, "p"));
    }

    #[test]
    fn self_closing() {
        let ts = tokenize("<br/><hr />");
        let Token::Start(b) = &ts.tokens[0] else {
            panic!()
        };
        assert!(b.self_closing);
        let Token::Start(h) = &ts.tokens[1] else {
            panic!()
        };
        assert_eq!(ts.symbols.resolve(h.name), "hr");
        assert!(h.self_closing);
    }

    #[test]
    fn stray_less_than_becomes_text() {
        let ts = tokenize("1 < 2 <b>x</b>");
        assert!(ts
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::StrayLessThan));
        let text = ts.plain_text();
        assert!(text.contains("1 < 2"), "{text:?}");
    }

    #[test]
    fn entity_decoding_in_text() {
        let ts = tokenize("<p>Smith &amp; Sons&nbsp;Inc.</p>");
        assert_eq!(ts.plain_text(), "Smith & Sons\u{A0}Inc.");
    }

    #[test]
    fn entity_free_text_borrows_the_source() {
        let ts = tokenize("<p>plain run</p>");
        let Token::Text(t) = &ts.tokens[1] else {
            panic!()
        };
        assert!(!t.decode);
        assert!(matches!(t.text(), Cow::Borrowed(_)));
    }

    #[test]
    fn raw_text_script_not_parsed() {
        let ts = tokenize("<script>if (a<b) { x(\"<td>\"); }</script><p>y");
        assert!(ts.tokens[0].is_start(&ts.symbols, "script"));
        let Token::Text(t) = &ts.tokens[1] else {
            panic!("{:?}", ts.tokens)
        };
        assert!(t.text().contains("<td>"));
        assert!(ts.tokens[2].is_end(&ts.symbols, "script"));
        assert!(ts.tokens[3].is_start(&ts.symbols, "p"));
    }

    #[test]
    fn raw_text_title() {
        let ts = tokenize("<title>A < B</title><body>");
        let Token::Text(t) = &ts.tokens[1] else {
            panic!()
        };
        assert_eq!(t.text(), "A < B");
    }

    #[test]
    fn raw_text_entities_stay_raw() {
        let ts = tokenize("<script>a &amp;&amp; b</script>");
        let Token::Text(t) = &ts.tokens[1] else {
            panic!()
        };
        assert_eq!(t.text(), "a &amp;&amp; b");
    }

    #[test]
    fn mixed_case_raw_text_closes() {
        let ts = tokenize("<SCRIPT>x</ScRiPt><p>y");
        assert!(ts.tokens[2].is_end(&ts.symbols, "script"));
        assert!(ts.tokens[3].is_start(&ts.symbols, "p"));
    }

    #[test]
    fn unterminated_raw_text_warns() {
        let ts = tokenize("<style>body { }");
        assert!(ts
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::UnterminatedRawText));
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let ts = tokenize("<p>x<b");
        assert!(ts
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::UnterminatedTag));
    }

    #[test]
    fn unterminated_comment_at_eof() {
        let ts = tokenize("<p>x<!-- never closed");
        assert!(ts
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::UnterminatedComment));
    }

    #[test]
    fn unterminated_attribute_value() {
        let ts = tokenize("<a href=\"x.html<p>oops");
        assert!(ts
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::UnterminatedAttributeValue));
    }

    #[test]
    fn end_tag_with_junk() {
        let ts = tokenize("<b>x</b extra>y");
        assert!(ts.tokens[2].is_end(&ts.symbols, "b"));
        let Token::Text(t) = &ts.tokens[3] else {
            panic!()
        };
        assert_eq!(t.text(), "y");
    }

    #[test]
    fn spans_cover_source() {
        let src = "<b>xy</b>";
        let ts = tokenize(src);
        assert_eq!(ts.tokens[0].span(), Span::new(0, 3));
        assert_eq!(ts.tokens[1].span(), Span::new(3, 5));
        assert_eq!(ts.tokens[2].span(), Span::new(5, 9));
    }

    #[test]
    fn processing_instruction() {
        let ts = tokenize("<?xml version=\"1.0\"?><p>x");
        assert!(matches!(ts.tokens[0], Token::ProcessingInstruction(_)));
    }

    #[test]
    fn empty_input() {
        let ts = tokenize("");
        assert!(ts.tokens.is_empty());
        assert!(ts.warnings.is_empty());
    }

    #[test]
    fn only_text() {
        let ts = tokenize("no markup at all");
        assert_eq!(ts.tokens.len(), 1);
        assert_eq!(ts.plain_text(), "no markup at all");
    }

    #[test]
    fn paper_figure2_prefix() {
        let src = "<html><head><title>Classifieds</title></head>\n<body bgcolor=\"#FFFFFF\">";
        let ts = tokenize(src);
        let tags: Vec<_> = ts.tags().map(|t| t.render(&ts.symbols)).collect();
        assert_eq!(
            tags,
            vec![
                "<html>",
                "<head>",
                "<title>",
                "</title>",
                "</head>",
                "<body bgcolor=\"#FFFFFF\">"
            ]
        );
    }

    #[test]
    fn slash_inside_unquoted_value_not_self_closing() {
        let ts = tokenize("<a href=a/b>x</a>");
        let Token::Start(t) = &ts.tokens[0] else {
            panic!()
        };
        assert_eq!(t.attr("href"), Some("a/b"));
        assert!(!t.self_closing);
    }

    #[test]
    fn equals_with_spaces() {
        let ts = tokenize("<h1 align = \"left\">T</h1>");
        let Token::Start(t) = &ts.tokens[0] else {
            panic!()
        };
        assert_eq!(t.attr("align"), Some("left"));
    }
}
