//! One-pass multi-pattern matching.
//!
//! The recognizer runs dozens of keyword/constant rules over the same plain
//! text. Running each pattern's Pike VM separately re-scans the text once
//! per rule; [`MultiPattern`] compiles all rules into a single NFA whose
//! `Match` instructions carry a pattern index, and one scan reports, for
//! every pattern, the same matches the individual engines would find.
//!
//! This realizes the paper's §4.5 integration argument: "we can run the
//! regular-expression matching process before separating records at no
//! additional cost" — one pass over the text serves every rule (and, via
//! `rbd-core`'s integrated pipeline, the OM heuristic too).

use crate::ast::parse;
use crate::program::{compile, Inst, Program};
use crate::{Match, PatternError};

/// A set of patterns compiled for simultaneous matching.
#[derive(Debug, Clone)]
pub struct MultiPattern {
    /// One program per pattern, merged: `programs[i]` retains its own
    /// instruction array; the scanner runs them in lock-step sharing the
    /// haystack traversal.
    programs: Vec<Program>,
    /// Per-program first-character prefilter: a fresh start thread at some
    /// position can only survive if the current character is in this set.
    /// Lets the lock-step scanner skip idle programs at most positions.
    first_chars: Vec<FirstChars>,
}

/// Conservative approximation of the characters a program can begin with.
#[derive(Debug, Clone)]
struct FirstChars {
    /// ASCII bitmap.
    ascii: [bool; 128],
    /// `true` if any non-ASCII character may begin a match, or the pattern
    /// can match without consuming (then the prefilter must not skip).
    any: bool,
}

impl FirstChars {
    fn of(prog: &Program) -> Self {
        let mut fc = FirstChars {
            ascii: [false; 128],
            any: false,
        };
        // Closure from pc 0 ignoring assertions (conservative: an assertion
        // is treated as passable).
        let mut seen = vec![false; prog.len()];
        let mut stack = vec![0usize];
        while let Some(pc) = stack.pop() {
            if seen[pc] {
                continue;
            }
            seen[pc] = true;
            match &prog.insts[pc] {
                Inst::Jmp(t) => stack.push(*t),
                Inst::Split(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Inst::Assert(_) => stack.push(pc + 1),
                Inst::Char(c) => {
                    if (*c as u32) < 128 {
                        fc.ascii[*c as usize] = true;
                    } else {
                        fc.any = true;
                    }
                }
                Inst::Class(set) => {
                    for b in 0u8..128 {
                        if set.contains(b as char) {
                            fc.ascii[b as usize] = true;
                        }
                    }
                    // Negated or wide classes may admit non-ASCII.
                    if set.negated || set.ranges.iter().any(|&(_, hi)| (hi as u32) >= 128) {
                        fc.any = true;
                    }
                }
                Inst::AnyChar => fc.any = true,
                // The program can match empty: never skip.
                Inst::Match => fc.any = true,
            }
        }
        fc
    }

    #[inline]
    fn admits(&self, c: Option<char>) -> bool {
        match c {
            None => true, // EOF step must run (zero-width matches)
            Some(c) => self.any || ((c as u32) < 128 && self.ascii[c as usize]),
        }
    }
}

/// A match attributed to one of the patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiMatch {
    /// Index of the pattern (order of [`MultiPattern::new`] input).
    pub pattern: usize,
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

impl MultiMatch {
    /// The matched substring.
    pub fn as_str<'h>(&self, haystack: &'h str) -> &'h str {
        &haystack[self.start..self.end]
    }

    /// As a plain [`Match`].
    pub fn to_match(self) -> Match {
        Match {
            start: self.start,
            end: self.end,
        }
    }
}

/// Per-pattern scanning state for the lock-step pass.
struct Scan {
    /// Dense thread list for the current position: `(pc, start_byte)`.
    threads: Vec<(usize, usize)>,
    /// Spare buffer for the next position's thread list, empty between
    /// steps.
    next: Vec<(usize, usize)>,
    /// Dedup for the closure phase, keyed by `(pc, start)`: two threads at
    /// the same program counter with different starts must both live — the
    /// earlier one may be killed by the non-overlap rule after its match
    /// resolves, at which point the later one takes over (dedup by `pc`
    /// alone would shadow it away). Implemented as per-pc generation marks
    /// plus a small per-pc list of starts: the list rarely holds more than
    /// one element, so a linear probe beats hashing by a wide margin.
    seen: DedupTable,
    /// Next byte offset at which a new match may start (non-overlap rule).
    min_start: usize,
    /// Unresolved candidate matches: start → longest end seen so far. A
    /// candidate resolves (moves to `done`) once no live thread with an
    /// equal-or-earlier start could still produce a longer or earlier
    /// match — the pointwise leftmost-longest rule.
    candidates: std::collections::BTreeMap<usize, usize>,
    /// Completed matches in order.
    done: Vec<(usize, usize)>,
}

impl Scan {
    fn new(prog_len: usize) -> Self {
        Scan {
            threads: Vec::new(),
            next: Vec::new(),
            seen: DedupTable::new(prog_len),
            min_start: 0,
            candidates: std::collections::BTreeMap::new(),
            done: Vec::new(),
        }
    }

    /// Resolves every candidate no live thread can still affect.
    fn resolve(&mut self) {
        while let Some((&s, &e)) = self.candidates.first_key_value() {
            // A thread with start ≤ s may still yield an earlier or longer
            // match; the candidate must wait.
            if self.threads.iter().any(|&(_, ts)| ts <= s) {
                break;
            }
            self.candidates.remove(&s);
            if s < self.min_start {
                continue; // swallowed by a previously resolved match
            }
            self.done.push((s, e));
            self.min_start = if e > s { e } else { e + 1 };
            // Candidates and threads inside the consumed span are dead.
            let min = self.min_start;
            self.candidates.retain(|&cs, _| cs >= min);
            self.threads.retain(|&(_, ts)| ts >= min);
        }
    }
}

/// Generation-marked `(pc, start)` dedup table (see [`Scan::seen`]).
struct DedupTable {
    generation: u32,
    marks: Vec<u32>,
    starts: Vec<Vec<usize>>,
    /// Scratch stack for [`add_closure`]'s walk; empty between calls.
    stack: Vec<usize>,
}

impl DedupTable {
    fn new(len: usize) -> Self {
        DedupTable {
            generation: 0,
            marks: vec![0; len],
            starts: vec![Vec::new(); len],
            stack: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.generation += 1;
    }

    /// Returns `true` if `(pc, start)` was not yet present this generation.
    fn insert(&mut self, pc: usize, start: usize) -> bool {
        if self.marks[pc] != self.generation {
            self.marks[pc] = self.generation;
            self.starts[pc].clear();
            self.starts[pc].push(start);
            return true;
        }
        if self.starts[pc].contains(&start) {
            return false;
        }
        self.starts[pc].push(start);
        true
    }
}

impl MultiPattern {
    /// Compiles `patterns`; each entry is `(source, case_insensitive)`.
    pub fn new<'a>(
        patterns: impl IntoIterator<Item = (&'a str, bool)>,
    ) -> Result<Self, PatternError> {
        let programs = patterns
            .into_iter()
            .map(|(src, ci)| Ok(compile(&parse(src)?, ci)))
            .collect::<Result<Vec<_>, PatternError>>()?;
        let first_chars = programs.iter().map(FirstChars::of).collect();
        Ok(MultiPattern {
            programs,
            first_chars,
        })
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// `true` when no patterns were compiled.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Finds, in one pass over `haystack`, every pattern's non-overlapping
    /// leftmost-longest matches — byte-for-byte what
    /// `Pattern::find_iter` yields per pattern. Results are ordered by
    /// `(pattern, start)`.
    pub fn find_all(&self, haystack: &str) -> Vec<MultiMatch> {
        let mut scans: Vec<Scan> = self.programs.iter().map(|p| Scan::new(p.len())).collect();

        let hay_len = haystack.len();
        let mut chars = haystack.char_indices().peekable();
        let mut prev: Option<char> = None;
        let mut byte = 0usize;

        loop {
            let cur: Option<char> = chars.peek().map(|&(_, c)| c);
            let lookahead: Option<char> =
                cur.and_then(|c| haystack[byte + c.len_utf8()..].chars().next());

            for ((prog, fc), scan) in self.programs.iter().zip(&self.first_chars).zip(&mut scans) {
                // Fast path: nothing live, nothing pending, and the current
                // character cannot begin a match — the step is a no-op.
                if scan.threads.is_empty() && scan.candidates.is_empty() && !fc.admits(cur) {
                    continue;
                }
                step_program(prog, scan, byte, hay_len, prev, cur, lookahead);
            }

            match chars.next() {
                None => break,
                Some((_, c)) => {
                    prev = Some(c);
                    byte += c.len_utf8();
                }
            }
        }

        // Final flush: with no live threads every candidate resolves, and a
        // pattern that matches empty at end-of-input contributes the final
        // zero-width match `find_iter` reports there.
        let mut out = Vec::new();
        for (i, (prog, scan)) in self.programs.iter().zip(&mut scans).enumerate() {
            scan.threads.clear();
            scan.resolve();
            if scan.min_start <= hay_len && nullable_at(prog, hay_len, prev, hay_len) {
                scan.done.push((hay_len, hay_len));
            }
            out.extend(scan.done.iter().map(|&(start, end)| MultiMatch {
                pattern: i,
                start,
                end,
            }));
        }
        out
    }

    /// Per-pattern match counts from one pass.
    pub fn count_all(&self, haystack: &str) -> Vec<usize> {
        let mut counts = vec![0usize; self.programs.len()];
        for m in self.find_all(haystack) {
            counts[m.pattern] += 1;
        }
        counts
    }
}

/// Advances one pattern's scan by one input position (mirrors
/// `vm::search`'s inner loop, extended with candidate resolution for the
/// non-overlapping multi-match semantics).
#[allow(clippy::too_many_arguments)]
fn step_program(
    prog: &Program,
    scan: &mut Scan,
    byte: usize,
    hay_len: usize,
    prev: Option<char>,
    cur: Option<char>,
    lookahead: Option<char>,
) {
    // Inject a fresh start whenever the non-overlap rule permits one here.
    // Injection continues even while candidates are unresolved: a
    // sequential `find_iter` rescans the window after each match, which a
    // single pass cannot; threads whose start lands inside a resolved
    // match are dropped at resolution time instead.
    let mut current = std::mem::take(&mut scan.threads);
    if byte >= scan.min_start {
        scan.seen.clear();
        for &(pc, start) in &current {
            scan.seen.insert(pc, start);
        }
        add_closure(
            prog,
            &mut current,
            &mut scan.seen,
            0,
            byte,
            (byte, hay_len, prev, cur),
        );
    }

    let mut next = std::mem::take(&mut scan.next);
    scan.seen.clear();
    let nctx = cur.map(|c| (byte + c.len_utf8(), hay_len, Some(c), lookahead));

    let mut i = 0;
    while i < current.len() {
        let (pc, start) = current[i];
        i += 1;
        match &prog.insts[pc] {
            Inst::Match => {
                if start >= scan.min_start {
                    let e = scan.candidates.entry(start).or_insert(byte);
                    *e = (*e).max(byte);
                }
            }
            Inst::Char(c) => {
                if cur == Some(*c) {
                    let ctx = nctx.expect("cur is Some");
                    add_closure(prog, &mut next, &mut scan.seen, pc + 1, start, ctx);
                }
            }
            Inst::AnyChar => {
                if cur.is_some_and(|c| c != '\n') {
                    let ctx = nctx.expect("cur is Some");
                    add_closure(prog, &mut next, &mut scan.seen, pc + 1, start, ctx);
                }
            }
            Inst::Class(set) => {
                if cur.is_some_and(|c| set.contains(c)) {
                    let ctx = nctx.expect("cur is Some");
                    add_closure(prog, &mut next, &mut scan.seen, pc + 1, start, ctx);
                }
            }
            Inst::Jmp(_) | Inst::Split(_, _) | Inst::Assert(_) => {
                unreachable!("epsilon instructions never enter the dense list")
            }
        }
    }

    scan.threads = next;
    current.clear();
    scan.next = current;
    scan.resolve();
}

/// Epsilon-closure insertion shared by injection and stepping. Dedup is by
/// `(pc, start)` — see [`Scan::seen`].
fn add_closure(
    prog: &Program,
    list: &mut Vec<(usize, usize)>,
    seen: &mut DedupTable,
    pc: usize,
    start: usize,
    ctx: (usize, usize, Option<char>, Option<char>),
) {
    use crate::program::Assertion;
    let holds = |a: Assertion| match a {
        Assertion::Start => ctx.0 == 0,
        Assertion::End => ctx.0 == ctx.1,
        Assertion::WordBoundary => is_word(ctx.2) != is_word(ctx.3),
        Assertion::NotWordBoundary => is_word(ctx.2) == is_word(ctx.3),
    };
    seen.stack.push(pc);
    while let Some(pc) = seen.stack.pop() {
        if !seen.insert(pc, start) {
            continue;
        }
        match &prog.insts[pc] {
            Inst::Jmp(t) => seen.stack.push(*t),
            Inst::Split(a, b) => {
                seen.stack.push(*b);
                seen.stack.push(*a);
            }
            Inst::Assert(k) => {
                if holds(*k) {
                    seen.stack.push(pc + 1);
                }
            }
            _ => list.push((pc, start)),
        }
    }
}

/// `true` when `prog` accepts the empty string at end-of-input (position
/// `at`, preceded by `prev`).
fn nullable_at(prog: &Program, at: usize, prev: Option<char>, hay_len: usize) -> bool {
    let mut list: Vec<(usize, usize)> = Vec::new();
    let mut seen = DedupTable::new(prog.len());
    seen.clear();
    add_closure(prog, &mut list, &mut seen, 0, at, (at, hay_len, prev, None));
    list.iter()
        .any(|&(pc, _)| matches!(prog.insts[pc], Inst::Match))
}

fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pattern;

    /// Reference: each pattern run individually.
    fn reference(patterns: &[(&str, bool)], hay: &str) -> Vec<MultiMatch> {
        let mut out = Vec::new();
        for (i, (src, ci)) in patterns.iter().enumerate() {
            let p = if *ci {
                Pattern::case_insensitive(src).unwrap()
            } else {
                Pattern::new(src).unwrap()
            };
            for m in p.find_iter(hay) {
                out.push(MultiMatch {
                    pattern: i,
                    start: m.start,
                    end: m.end,
                });
            }
        }
        out
    }

    fn check(patterns: &[(&str, bool)], hay: &str) {
        let mp = MultiPattern::new(patterns.iter().copied()).unwrap();
        assert_eq!(
            mp.find_all(hay),
            reference(patterns, hay),
            "patterns {patterns:?} on {hay:?}"
        );
    }

    #[test]
    fn agrees_with_individual_engines() {
        check(&[("died on", false), ("ab", false)], "x died on y abab");
        check(&[("a+", false), ("ab", false)], "aaab aab");
        check(&[(r"\d{2}", false), (r"\d+", false)], "1 22 333 4444");
        check(&[("x", false)], "");
        check(&[("", false)], "ab");
        check(
            &[("MEMORIAL", true), (r"[A-Z][a-z]+", false)],
            "at the memorial Chapel on Monday",
        );
        check(
            &[(r"\bcat\b", false), ("cat", false)],
            "concatenate the cat",
        );
    }

    #[test]
    fn counts_match_reference() {
        let patterns = [("died on|passed away", true), (r"\d{4}", false)];
        let hay = "A died on May 1, 1998. B PASSED AWAY June 2, 1997.";
        let mp = MultiPattern::new(patterns.iter().copied()).unwrap();
        assert_eq!(mp.count_all(hay), vec![2, 2]);
    }

    #[test]
    fn empty_pattern_set() {
        let mp = MultiPattern::new(std::iter::empty()).unwrap();
        assert!(mp.is_empty());
        assert!(mp.find_all("anything").is_empty());
    }

    #[test]
    fn bad_pattern_propagates() {
        assert!(MultiPattern::new([("(unclosed", false)]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Pattern;
    use rbd_prop::{check_cases, gen, prop_assert_eq, prop_assume, Gen};

    fn arb_pattern() -> Gen<String> {
        let atom = Gen::select(vec!["a", "b", "c", ".", "[ab]", r"\d", r"\w"]).map(String::from);
        let unit = atom
            .zip(Gen::select(vec!["", "*", "+", "?"]))
            .map(|(a, q)| format!("{a}{q}"));
        gen::concat(unit, 1..=3)
    }

    /// The property behind `equivalent_to_individual_runs`, shared with the
    /// named regression cases below.
    fn matches_individual_runs(pats: &[String], hay: &str) -> Result<(), String> {
        // Shrinking can leave an invalid pattern fragment; skip those.
        prop_assume!(pats.iter().all(|p| Pattern::new(p).is_ok()));
        let specs: Vec<(&str, bool)> = pats.iter().map(|p| (p.as_str(), false)).collect();
        let mp = MultiPattern::new(specs.iter().copied()).expect("patterns compile");
        let got = mp.find_all(hay);
        let mut expected = Vec::new();
        for (i, p) in pats.iter().enumerate() {
            let engine = Pattern::new(p).expect("patterns compile");
            for m in engine.find_iter(hay) {
                expected.push(MultiMatch {
                    pattern: i,
                    start: m.start,
                    end: m.end,
                });
            }
        }
        prop_assert_eq!(got, expected, "patterns {pats:?} on {hay:?}");
        Ok(())
    }

    /// One-pass multi matching equals per-pattern `find_iter`.
    #[test]
    fn equivalent_to_individual_runs() {
        let inputs = Gen::vec(arb_pattern(), 1..=3).zip(gen::string_from("abc01 ", 0..=16));
        check_cases(
            "equivalent_to_individual_runs",
            256,
            &inputs,
            |(pats, hay)| matches_individual_runs(pats, hay),
        );
    }

    /// Regressions distilled from historical proptest runs (the former
    /// `proptest-regressions/multi.txt` cases), kept as explicit tests.
    #[test]
    fn regression_star_only_pattern() {
        // shrinks to: pats = ["a*"], hay = "a"
        matches_individual_runs(&["a*".to_owned()], "a").unwrap();
    }

    #[test]
    fn regression_star_dot_optional_overlap() {
        // shrinks to: pats = ["b*.?."], hay = " 000c00  "
        matches_individual_runs(&["b*.?.".to_owned()], " 000c00  ").unwrap();
    }
}
