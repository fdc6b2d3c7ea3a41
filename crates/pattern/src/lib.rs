//! # rbd-pattern — a lightweight regular-expression engine
//!
//! The paper's ontology "data frames" describe constants and keywords with
//! regular expressions ("We check for the existence of a keyword or constant
//! value by matching a regular expression with the plain text…", §4.5).
//! The reproduction's permitted dependency set does not include the `regex`
//! crate, so this crate implements the required engine from scratch:
//!
//! * a recursive-descent **parser** ([`ast`]) for a practical subset of
//!   regex syntax: literals, `.`, character classes, escapes
//!   (`\d \w \s \b` …), alternation, grouping, greedy/lazy quantifiers
//!   (`* + ? {m,n}`), and anchors (`^ $ \b \B`);
//! * a **Thompson NFA compiler** ([`program`]);
//! * a **Pike-style virtual machine** ([`vm`]) giving guaranteed
//!   `O(len · program)` matching with *leftmost-longest* semantics — no
//!   catastrophic backtracking regardless of the pattern. While no thread
//!   is live it skips the characters no match can begin with, so the
//!   recognizer's per-rule `find_iter` scans cost little where a rule has
//!   nothing to match;
//! * a **determinized counter** behind [`Pattern::count_matches`], the only
//!   call the OM heuristic makes: built on first use, it counts matches in
//!   at most one table lookup per byte and skips runs of bytes that keep it
//!   idle. Programs that can match the empty
//!   string or exceed a fixed state cap stay on the Pike VM, which is also
//!   the counter's test oracle.
//!
//! ## Example
//!
//! ```
//! use rbd_pattern::Pattern;
//!
//! let date = Pattern::new(r"[A-Z][a-z]+ \d{1,2}, \d{4}").unwrap();
//! let text = "Brian Frost died on September 30, 1998, at home.";
//! let m = date.find(text).unwrap();
//! assert_eq!(m.as_str(text), "September 30, 1998");
//! assert_eq!(date.find_iter(text).count(), 1);
//!
//! let kw = Pattern::case_insensitive(r"\b(died|passed away)\b").unwrap();
//! assert!(kw.is_match("Our beloved friend PASSED AWAY on Tuesday"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod dfa;
pub mod program;
pub mod vm;

use std::fmt;
use std::sync::OnceLock;

pub use ast::{parse, Ast, ClassSet};
pub use program::{compile, Inst, Program};

/// A successful match: byte offsets into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

impl Match {
    /// The matched substring of `haystack`.
    pub fn as_str<'h>(&self, haystack: &'h str) -> &'h str {
        &haystack[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for an empty match.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Errors produced while parsing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the pattern where the problem was detected.
    pub position: usize,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for PatternError {}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Pattern {
    program: Program,
    source: String,
    /// The determinized counter behind [`Pattern::count_matches`], built on
    /// first use; `None` when the program does not determinize. Boxed so
    /// that an unused table costs a `Pattern` one pointer.
    dfa: OnceLock<Option<Box<dfa::Dfa>>>,
}

impl Pattern {
    /// Compiles `pattern` (case-sensitive).
    pub fn new(pattern: &str) -> Result<Self, PatternError> {
        Self::with_case(pattern, false)
    }

    /// Compiles `pattern` with ASCII case-insensitive matching.
    pub fn case_insensitive(pattern: &str) -> Result<Self, PatternError> {
        Self::with_case(pattern, true)
    }

    fn with_case(pattern: &str, ci: bool) -> Result<Self, PatternError> {
        let ast = ast::parse(pattern)?;
        let program = program::compile(&ast, ci);
        Ok(Pattern {
            program,
            source: pattern.to_owned(),
            dfa: OnceLock::new(),
        })
    }

    /// The original pattern text.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// `true` if the pattern matches anywhere in `haystack`.
    pub fn is_match(&self, haystack: &str) -> bool {
        vm::search(&self.program, haystack, 0).is_some()
    }

    /// Leftmost-longest match in `haystack`, if any.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        vm::search(&self.program, haystack, 0)
    }

    /// Leftmost-longest match at or after byte offset `from`.
    pub fn find_at(&self, haystack: &str, from: usize) -> Option<Match> {
        vm::search(&self.program, haystack, from)
    }

    /// Iterator over non-overlapping matches, left to right.
    pub fn find_iter<'p, 'h>(&'p self, haystack: &'h str) -> Matches<'p, 'h> {
        Matches {
            pattern: self,
            haystack,
            at: 0,
        }
    }

    /// Number of non-overlapping matches — the count the OM heuristic needs.
    /// Always equals `self.find_iter(haystack).count()`, but runs on a DFA
    /// (built on the first call) when [`Pattern::counts_with_dfa`] holds.
    pub fn count_matches(&self, haystack: &str) -> usize {
        match self.dfa() {
            Some(dfa) => dfa.count(haystack),
            None => self.find_iter(haystack).count(),
        }
    }

    /// `true` if [`Pattern::count_matches`] runs on a DFA rather than the
    /// Pike VM, building the DFA if this is the first use. It is `false`
    /// for a pattern that can match the empty string or whose DFA would
    /// exceed the state cap.
    pub fn counts_with_dfa(&self) -> bool {
        self.dfa().is_some()
    }

    fn dfa(&self) -> Option<&dfa::Dfa> {
        self.dfa
            .get_or_init(|| dfa::Dfa::build(&self.program).map(Box::new))
            .as_deref()
    }
}

/// Iterator over non-overlapping matches.
pub struct Matches<'p, 'h> {
    pattern: &'p Pattern,
    haystack: &'h str,
    at: usize,
}

impl Iterator for Matches<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        if self.at > self.haystack.len() {
            return None;
        }
        let m = vm::search(&self.pattern.program, self.haystack, self.at)?;
        // Advance past the match; for empty matches step one character so
        // the iterator always terminates.
        self.at = if m.is_empty() {
            next_char_boundary(self.haystack, m.end)
        } else {
            m.end
        };
        Some(m)
    }
}

fn next_char_boundary(s: &str, at: usize) -> usize {
    if at >= s.len() {
        return s.len() + 1;
    }
    let mut i = at + 1;
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all<'h>(p: &str, hay: &'h str) -> Vec<&'h str> {
        Pattern::new(p)
            .unwrap()
            .find_iter(hay)
            .map(|m| m.as_str(hay))
            .collect()
    }

    #[test]
    fn literal_match() {
        let p = Pattern::new("died on").unwrap();
        assert!(p.is_match("he died on Tuesday"));
        assert!(!p.is_match("he is alive"));
        let m = p.find("he died on Tuesday").unwrap();
        assert_eq!(m.as_str("he died on Tuesday"), "died on");
        assert_eq!(m.start, 3);
    }

    #[test]
    fn dot_and_classes() {
        assert_eq!(all("a.c", "abc axc a\nc"), vec!["abc", "axc"]); // `.` excludes \n
        assert_eq!(all("[0-9]+", "a1 22 b333"), vec!["1", "22", "333"]);
        assert_eq!(all("[^ ]+", "ab cd"), vec!["ab", "cd"]);
    }

    #[test]
    fn escapes() {
        assert_eq!(
            all(r"\d{2,4}", "7 19 1998 12345"),
            vec!["19", "1998", "1234"]
        );
        assert_eq!(all(r"\w+", "a_b c!"), vec!["a_b", "c"]);
        assert_eq!(all(r"\s+", "a  b\tc"), vec!["  ", "\t"]);
        assert_eq!(all(r"\$\d+", "$100 and $5"), vec!["$100", "$5"]);
    }

    #[test]
    fn alternation_and_groups() {
        assert_eq!(
            all("(died|passed away) on", "x died on y passed away on z"),
            vec!["died on", "passed away on"]
        );
    }

    #[test]
    fn quantifiers() {
        assert_eq!(all("ab*c", "ac abc abbbc"), vec!["ac", "abc", "abbbc"]);
        assert_eq!(all("ab+c", "ac abc abbbc"), vec!["abc", "abbbc"]);
        assert_eq!(all("ab?c", "ac abc abbc"), vec!["ac", "abc"]);
        assert_eq!(all("a{3}", "aa aaa aaaa"), vec!["aaa", "aaa"]);
        assert_eq!(all("a{2,}", "a aa aaaa"), vec!["aa", "aaaa"]);
    }

    #[test]
    fn leftmost_longest() {
        // Alternation picks the longest match at the leftmost position.
        let p = Pattern::new("a|ab").unwrap();
        let m = p.find("ab").unwrap();
        assert_eq!(m.end, 2, "leftmost-longest semantics");
    }

    #[test]
    fn anchors() {
        assert!(Pattern::new("^abc").unwrap().is_match("abcdef"));
        assert!(!Pattern::new("^abc").unwrap().is_match("xabc"));
        assert!(Pattern::new("def$").unwrap().is_match("abcdef"));
        assert!(!Pattern::new("def$").unwrap().is_match("defx"));
        assert!(Pattern::new("^$").unwrap().is_match(""));
    }

    #[test]
    fn word_boundaries() {
        let p = Pattern::new(r"\bcat\b").unwrap();
        assert!(p.is_match("a cat sat"));
        assert!(p.is_match("cat"));
        assert!(!p.is_match("concatenate"));
        assert!(!p.is_match("cats"));
        let nb = Pattern::new(r"\Bcat").unwrap();
        assert!(nb.is_match("concat"));
        assert!(!nb.is_match("a cat"));
    }

    #[test]
    fn case_insensitive() {
        let p = Pattern::case_insensitive("memorial chapel").unwrap();
        assert!(p.is_match("at the MEMORIAL CHAPEL today"));
        assert!(p.is_match("Memorial Chapel"));
        let cs = Pattern::new("memorial chapel").unwrap();
        assert!(!cs.is_match("MEMORIAL CHAPEL"));
    }

    #[test]
    fn case_insensitive_classes() {
        let p = Pattern::case_insensitive("[a-z]+").unwrap();
        assert_eq!(p.find("XYZ").unwrap().len(), 3);
    }

    #[test]
    fn find_iter_nonoverlapping() {
        assert_eq!(all("aa", "aaaa"), vec!["aa", "aa"]);
    }

    #[test]
    fn empty_match_terminates() {
        let p = Pattern::new("x*").unwrap();
        let n = p.find_iter("abc").count();
        assert_eq!(n, 4); // empty match at each position incl. end
    }

    #[test]
    fn count_matches_keywords() {
        let text = "A died on 1/1. B died on 2/2. C passed away on 3/3.";
        let p = Pattern::new("died on|passed away on").unwrap();
        assert_eq!(p.count_matches(text), 3);
    }

    #[test]
    fn parse_errors() {
        assert!(Pattern::new("(unclosed").is_err());
        assert!(Pattern::new("[unclosed").is_err());
        assert!(Pattern::new("*dangling").is_err());
        assert!(Pattern::new("a{5,2}").is_err());
        assert!(Pattern::new(r"trailing\").is_err());
    }

    #[test]
    fn unicode_haystack() {
        let p = Pattern::new("é+").unwrap();
        let hay = "café établé";
        let m = p.find(hay).unwrap();
        assert_eq!(m.as_str(hay), "é");
    }

    #[test]
    fn find_at_offsets() {
        let p = Pattern::new("a").unwrap();
        let hay = "a..a";
        assert_eq!(p.find_at(hay, 1).unwrap().start, 3);
        assert!(p.find_at(hay, 4).is_none());
    }

    #[test]
    fn lazy_quantifier() {
        let p = Pattern::new("<.+?>").unwrap();
        let hay = "<a><b>";
        // Leftmost-longest engine note: laziness affects thread priority,
        // but the longest match at the leftmost start still wins; `.` can
        // cross `>` so the full string matches.
        let m = p.find(hay).unwrap();
        assert_eq!(m.start, 0);
    }

    #[test]
    fn realistic_price_pattern() {
        let p = Pattern::new(r"\$[0-9][0-9,]*").unwrap();
        let hay = "asking $12,500 obo or $900";
        assert_eq!(
            p.find_iter(hay).map(|m| m.as_str(hay)).collect::<Vec<_>>(),
            vec!["$12,500", "$900"]
        );
    }

    #[test]
    fn realistic_phone_pattern() {
        let p = Pattern::new(r"\(?\d{3}\)?[- ]\d{3}-\d{4}").unwrap();
        assert!(p.is_match("call (801) 555-1234 today"));
        assert!(p.is_match("call 801-555-1234 today"));
    }
}
