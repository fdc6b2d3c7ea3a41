//! Whitespace squeezing for extracted record text.
//!
//! Record text is mostly prose that is already squeezed: printable ASCII
//! words with one space between them. The squeeze finds the end of each
//! such run eight bytes at a time and copies the run whole; a scalar step
//! classifies only the bytes the word scan stops at.

use crate::scan::find_run_break;

/// Collapses runs of whitespace to single spaces and trims the ends —
/// record text is sentence-like prose for downstream recognizers.
/// Whitespace is `char::is_whitespace`, so the output equals the
/// `split_whitespace` words joined by one space.
///
/// ```
/// use rbd_html::squeeze_whitespace;
///
/// assert_eq!(squeeze_whitespace("  Ann B.\n\t Smith\u{a0} died. "), "Ann B. Smith died.");
/// ```
pub fn squeeze_whitespace(s: &str) -> String {
    // rbd-lint: allow(budget) — the output is never longer than the input
    let mut out = String::with_capacity(s.len());
    let mut at = skip_whitespace(s, 0);
    while at < s.len() {
        let end = run_end(s, at);
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(s.get(at..end).unwrap_or_default());
        at = skip_whitespace(s, end);
    }
    out
}

/// End of the squeezed run that starts at `at`: the first whitespace char
/// that is not a lone `' '` between two non-whitespace chars, or the end.
fn run_end(s: &str, mut at: usize) -> usize {
    loop {
        at = find_run_break(s.as_bytes(), at);
        match char_class(s, at) {
            None => return at,
            Some((len, false)) => at += len,
            Some((_, true)) => {
                let lone_space = s.as_bytes().get(at) == Some(&b' ')
                    && matches!(char_class(s, at + 1), Some((_, false)));
                if !lone_space {
                    return at;
                }
                at += 1;
            }
        }
    }
}

/// The offset of the first non-whitespace char at or after `at`, or the end.
fn skip_whitespace(s: &str, mut at: usize) -> usize {
    while let Some((len, true)) = char_class(s, at) {
        at += len;
    }
    at
}

/// Byte length of the char at `at` and whether it is whitespace; `None` at
/// the end. The ASCII set is the ASCII part of `char::is_whitespace`, which
/// includes `\x0b`, unlike `u8::is_ascii_whitespace`.
fn char_class(s: &str, at: usize) -> Option<(usize, bool)> {
    let &b = s.as_bytes().get(at)?;
    if b.is_ascii() {
        return Some((1, matches!(b, b' ' | b'\t'..=b'\r')));
    }
    // `at` is always a char boundary; the one-byte fallback keeps every
    // caller making progress if it were not.
    let c = s.get(at..).and_then(|rest| rest.chars().next());
    Some(c.map_or((1, false), |c| (c.len_utf8(), c.is_whitespace())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_prop::{check, gen, prop_assert_eq, Gen};

    /// The reference squeeze: one `char` at a time.
    fn squeeze_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut in_ws = true;
        for c in s.chars() {
            if c.is_whitespace() {
                if !in_ws {
                    out.push(' ');
                    in_ws = true;
                }
            } else {
                out.push(c);
                in_ws = false;
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out
    }

    /// Every `White_Space` code point.
    const WHITE_SPACE: &str = "\t\n\x0b\x0c\r \u{85}\u{a0}\u{1680}\u{2000}\u{2001}\u{2002}\
        \u{2003}\u{2004}\u{2005}\u{2006}\u{2007}\u{2008}\u{2009}\u{200a}\u{2028}\u{2029}\
        \u{202f}\u{205f}\u{3000}";

    /// Near misses: control chars and format chars that are not whitespace.
    const NEAR_MISSES: &str = "\x1c\x1d\x1e\x1f\x01\x7f\u{180e}\u{200b}\u{feff}é€😀";

    /// Mostly letters and single spaces, plain runs long enough to straddle
    /// eight-byte words, with every whitespace code point and the near
    /// misses mixed in.
    #[test]
    fn squeeze_whitespace_equals_the_char_reference() {
        let every_space = format!("{WHITE_SPACE}{NEAR_MISSES}");
        let piece = Gen::weighted(vec![
            (6, gen::string_from("abcdefgh", 1..=9)),
            (4, Gen::just(" ".to_owned())),
            (4, gen::string_from("abcdefgh ", 9..=40)),
            (3, gen::string_from(&every_space, 1..=3)),
        ]);
        assert!(WHITE_SPACE.chars().all(char::is_whitespace));
        assert!(!NEAR_MISSES.chars().any(char::is_whitespace));
        check(
            "squeeze_whitespace_equals_the_char_reference",
            &gen::concat(piece, 0..=40),
            |s| {
                prop_assert_eq!(squeeze_whitespace(s), squeeze_reference(s));
                Ok(())
            },
        );
    }

    #[test]
    fn squeeze_whitespace_behaviour() {
        assert_eq!(squeeze_whitespace("  a\n\t b  c "), "a b c");
        assert_eq!(squeeze_whitespace(""), "");
        assert_eq!(squeeze_whitespace(" \n\t "), "");
        // Unicode whitespace squeezes too.
        assert_eq!(squeeze_whitespace("a\u{a0}\u{3000} b\u{2028}"), "a b");
    }

    #[test]
    fn squeeze_whitespace_regressions() {
        // A space in the top lane of a word, then U+00A0 in the next word.
        assert_eq!(squeeze_whitespace("abcdefg \u{a0}hij"), "abcdefg hij");
        // A space in the top lane, then a word: the run continues.
        assert_eq!(squeeze_whitespace("abcdefg hijklmno"), "abcdefg hijklmno");
        // A multi-byte char split across two words.
        assert_eq!(squeeze_whitespace("abcdefgé hi\u{3000}"), "abcdefgé hi");
        assert_eq!(squeeze_whitespace("abcdef 😀 x"), "abcdef 😀 x");
        // `\x0b` between words is whitespace; `\x1f` and `\x7f` are not.
        assert_eq!(squeeze_whitespace("ab\x0bcd"), "ab cd");
        assert_eq!(squeeze_whitespace("ab \x1f cd\x7f"), "ab \x1f cd\x7f");
        // A space before a near miss stays a lone space.
        assert_eq!(squeeze_whitespace("ab \u{200b}c"), "ab \u{200b}c");
    }

    /// Every pair of chars from the two alphabets and a letter, at every
    /// offset across two words.
    #[test]
    fn squeeze_whitespace_every_pair_at_every_lane() {
        let chars: Vec<char> = format!("{WHITE_SPACE}{NEAR_MISSES}x").chars().collect();
        for &a in &chars {
            for &b in &chars {
                for pad in 0..17 {
                    let s = format!("{}{a}{b}yz", "w".repeat(pad));
                    assert_eq!(squeeze_whitespace(&s), squeeze_reference(&s), "{s:?}");
                }
            }
        }
    }
}
