//! # rbd-json — minimal in-tree JSON
//!
//! The evaluation harness emits machine-readable reports (`experiments
//! --json`, the bench harness's `BENCH_*.json`). This crate provides the
//! small JSON surface those need — a value type, an escaping-correct
//! serializer, and a [`ToJson`] conversion trait — with no external
//! dependencies, so the workspace builds and tests fully offline (see
//! DESIGN.md, "Hermetic build").
//!
//! Serialization is total — every [`Json`] value renders to a valid JSON
//! document, so there is no fallible path and no `expect` at call sites
//! (non-finite floats serialize as `null`, exactly as `serde_json` did).
//! A small recursive-descent parser ([`Json::parse`]) covers the read side:
//! the bench-regression gate reads its committed baseline back, and round-
//! tripping `parse(render(v)) == v` is property-tested. Parsing is fallible
//! but panic-free, with an explicit nesting-depth cap against adversarial
//! input.
//!
//! Object members keep their insertion order, which keeps report output
//! stable across runs and easy to diff.
//!
//! ## Example
//!
//! ```
//! use rbd_json::{Json, ToJson};
//!
//! let report = Json::object([
//!     ("seed", 1998u64.to_json()),
//!     ("rates", vec![97.5, 100.0].to_json()),
//!     ("note", "record-boundary \"analogue\"".to_json()),
//! ]);
//! assert_eq!(
//!     report.to_string(),
//!     r#"{"seed":1998,"rates":[97.5,100],"note":"record-boundary \"analogue\""}"#
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON value.
///
/// Numbers are split into three variants so integer report fields (counts,
/// seeds) serialize exactly, without a round trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (seeds are full-range `u64`).
    UInt(u64),
    /// A floating-point number; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Parses a JSON document.
    ///
    /// Accepts exactly one top-level value surrounded by optional
    /// whitespace. Numbers parse into the narrowest variant that holds them
    /// losslessly ([`Json::Int`] / [`Json::UInt`], falling back to
    /// [`Json::Float`]), so integer fields round-trip exactly.
    ///
    /// # Errors
    /// Returns [`ParseError`] (with a byte offset) on malformed input,
    /// trailing garbage, or nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks up an object member by key; `None` on missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice if it is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements if it is a [`Json::Array`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact rendering (no whitespace), written straight into one
    /// `String`. `Display` (and so `to_string()`) renders the same bytes.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        push_compact(&mut out, self);
        out
    }

    /// Pretty rendering with two-space indentation, one member per line —
    /// the layout `serde_json::to_string_pretty` produced, so downstream
    /// diffs of `experiments --json` output stay quiet.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Object(members) if !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    push_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
            // Scalars, "[]" and "{}" render identically in both modes.
            other => push_compact(out, other),
        }
    }
}

/// A JSON parse failure: what went wrong and the byte offset where the
/// parser stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Maximum nesting depth [`Json::parse`] accepts — a recursion bound, not a
/// practical limitation (bench reports nest three levels deep).
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit` (an ASCII keyword like `true`) or fails.
    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume `{`
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume opening `"`
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the unescaped run in one slice operation.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None)
                && self.peek().is_some_and(|b| b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must pair with `\uDC00`–`\uDFFF`.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("unpaired surrogate escape"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate escape"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("invalid escape character")),
        }
        Ok(())
    }

    /// Reads exactly four hex digits as a code unit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| self.err("expected four hex digits"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("expected four hex digits"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digits in number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            // Prefer exact integer variants; huge magnitudes fall through
            // to f64 exactly as serde_json's arbitrary-precision-off mode.
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn push_compact(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => {
            // rbd-lint: allow(swallowed-error) — fmt::Write into a String is infallible
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Json::UInt(n) => {
            // rbd-lint: allow(swallowed-error) — fmt::Write into a String is infallible
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Json::Float(x) => push_float(out, *x),
        Json::Str(s) => push_escaped(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_compact(out, item);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_escaped(out, key);
                out.push(':');
                push_compact(out, item);
            }
            out.push('}');
        }
    }
}

/// JSON has no lexeme for NaN or the infinities; `null` is the established
/// lossy encoding (`serde_json`'s default for `f64::NAN`).
fn push_float(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest-roundtrip formatting emits `1` for `1.0`, which
        // is a valid JSON number.
        // rbd-lint: allow(swallowed-error) — fmt::Write into a String is infallible
        let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
    } else {
        out.push_str("null");
    }
}

/// Escapes `s` into `out` as a JSON string literal, including the
/// surrounding quotes. `"` and `\` get their short escapes, control
/// characters below U+0020 get `\b` `\t` `\n` `\f` `\r` or `\u00XX`, and
/// everything else — including non-ASCII — passes through as raw UTF-8
/// (RFC 8259 §7 permits unescaped code points above U+001F other than
/// `"` and `\`).
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{08}' => out.push_str("\\b"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\u{0C}' => out.push_str("\\f"),
            '\r' => out.push_str("\\r"),
            c if c < '\u{20}' => {
                // rbd-lint: allow(swallowed-error) — fmt::Write into a String is infallible
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Conversion into a [`Json`] value. The in-tree analogue of deriving
/// `serde::Serialize`: report types implement this by hand, which keeps
/// the field list explicit and the serialization infallible.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_tojson_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i64::from(*self))
            }
        }
    )*};
}
impl_tojson_signed!(i8, i16, i32, i64, u8, u16, u32);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for isize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Bool(false).to_string(), "false");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::UInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::Float(2.5).to_string(), "2.5");
        assert_eq!(Json::Float(100.0).to_string(), "100");
    }

    #[test]
    fn nonfinite_floats_are_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let obj = Json::object([
            ("z", Json::Int(1)),
            ("a", Json::Int(2)),
            ("m", Json::Int(3)),
        ]);
        assert_eq!(obj.to_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn nested_structures_render_compactly() {
        let v = Json::object([(
            "rows",
            Json::array([Json::array([Json::Int(1), Json::Null]), Json::Bool(false)]),
        )]);
        assert_eq!(v.to_string(), r#"{"rows":[[1,null],false]}"#);
    }

    #[test]
    fn pretty_matches_serde_json_layout() {
        let v = Json::object([
            ("seed", Json::UInt(1998)),
            ("sets", Json::array([Json::Int(6), Json::Int(7)])),
            ("empty_obj", Json::object::<String>([])),
            ("empty_arr", Json::array([])),
        ]);
        let expected = "{\n  \"seed\": 1998,\n  \"sets\": [\n    6,\n    7\n  ],\n  \"empty_obj\": {},\n  \"empty_arr\": []\n}";
        assert_eq!(v.to_pretty(), expected);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-1.5e-2").unwrap(), Json::Float(-0.015));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse(r#""hi there""#).unwrap(),
            Json::Str("hi there".into())
        );
    }

    #[test]
    fn parse_structures() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::object::<String>([]));
        assert_eq!(
            Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap(),
            Json::object([
                (
                    "a",
                    Json::array([Json::UInt(1), Json::object([("b", Json::Null)])])
                ),
                ("c", Json::Str("x".into())),
            ])
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\/d\n\t\u0041""#).unwrap(),
            Json::Str("a\"b\\c/d\n\tA".into())
        );
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(
            Json::parse(r#""\uD834\uDD1E""#).unwrap(),
            Json::Str("\u{1D11E}".into())
        );
        // Raw non-ASCII passes through.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "nul",
            "01x",
            "1.",
            "1e",
            "-",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\uD834\"",
            "\"\\uDD1E\"",
            "1 2",
            "[1] trailing",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn parse_round_trips_bench_report_shape() {
        let report = Json::object([
            ("bench", "hotpath".to_json()),
            (
                "results",
                Json::array([Json::object([
                    ("group", "tokenize_tree".to_json()),
                    ("name", "256KiB".to_json()),
                    ("median_ns", 1_234_567.89.to_json()),
                    ("throughput_mib_s", 223.4.to_json()),
                ])]),
            ),
        ]);
        for rendered in [report.to_string(), report.to_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), report);
        }
        // A whole-number float renders as `223`, which parses back as the
        // exact-integer variant — numerically identical, which is all the
        // bench gate (an `as_f64` consumer) relies on.
        let parsed = Json::parse(&Json::Float(223.0).to_string()).unwrap();
        assert_eq!(parsed, Json::UInt(223));
        assert_eq!(parsed.as_f64(), Some(223.0));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"xs": [1, -2, 2.5], "s": "str"}"#).unwrap();
        let xs = v.get("xs").and_then(Json::as_array).unwrap();
        let nums: Vec<f64> = xs.iter().filter_map(Json::as_f64).collect();
        assert_eq!(nums, [1.0, -2.0, 2.5]);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("str"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("xs"), None);
        assert_eq!(Json::Bool(true).as_f64(), None);
    }

    #[test]
    fn tojson_primitives() {
        assert_eq!(17usize.to_json(), Json::UInt(17));
        assert_eq!((-4i32).to_json(), Json::Int(-4));
        assert_eq!(1.5f64.to_json(), Json::Float(1.5));
        assert_eq!("x".to_json(), Json::Str("x".into()));
        assert_eq!(Option::<usize>::None.to_json(), Json::Null);
        assert_eq!(Some(3usize).to_json(), Json::UInt(3));
        assert_eq!([1u32, 2].to_json().to_string(), "[1,2]");
        assert_eq!(vec!["a", "b"].to_json().to_string(), r#"["a","b"]"#);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rbd_prop::{check, gen, prop_assert_eq, Gen};

    /// Arbitrary JSON values built without floats (whose shortest-roundtrip
    /// rendering is exact anyway, but keeping the generator integral makes
    /// the equality assertion unconditional).
    fn arb_json(depth: u32) -> Gen<Json> {
        let scalar = Gen::one_of(vec![
            Gen::just(Json::Null),
            Gen::just(Json::Bool(true)),
            Gen::just(Json::Bool(false)),
            gen::string_from("0123456789", 1..=6).map(|s| match s.parse::<u64>() {
                Ok(n) => Json::UInt(n),
                Err(_) => Json::Null,
            }),
            gen::unicode_string(0..=8).map(Json::Str),
        ]);
        if depth == 0 {
            return scalar;
        }
        let inner = arb_json(depth - 1);
        let arr = Gen::new({
            let inner = inner.clone();
            move |rng| {
                let n = rng.random_range(0..=3usize);
                Json::Array((0..n).map(|_| inner.generate(rng)).collect())
            }
        });
        let key = gen::string_from("abc\"\\\u{1}é", 0..=4);
        let obj = Gen::new(move |rng| {
            let n = rng.random_range(0..=3usize);
            Json::Object(
                (0..n)
                    .map(|_| (key.generate(rng), inner.generate(rng)))
                    .collect(),
            )
        });
        Gen::one_of(vec![scalar, arr, obj])
    }

    /// Every serialized value parses back to the identical value, in both
    /// compact and pretty layouts.
    #[test]
    fn parse_inverts_render() {
        check("parse_inverts_render", &arb_json(3), |v: &Json| {
            prop_assert_eq!(&Json::parse(&v.to_string()).map_err(|e| e.to_string())?, v);
            prop_assert_eq!(&Json::parse(&v.to_pretty()).map_err(|e| e.to_string())?, v);
            Ok(())
        });
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parse_total_over_noise() {
        check(
            "parse_total_over_noise",
            &gen::unicode_string(0..=64),
            |s: &String| {
                let _ = Json::parse(s);
                Ok(())
            },
        );
    }
}
