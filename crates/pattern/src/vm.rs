//! Pike-style NFA virtual machine.
//!
//! Runs a compiled [`Program`] over a haystack in `O(len · insts)` time with
//! no backtracking. Matching semantics are **leftmost-longest**: among all
//! matches, the one starting earliest wins, and among those, the longest.

use crate::program::{Assertion, Inst, Program};
use crate::Match;

/// A live NFA thread: program counter plus the byte offset where its match
/// attempt began.
#[derive(Debug, Clone, Copy)]
struct Thread {
    pc: usize,
    start: usize,
}

/// Dense thread list with generation-marked dedup by program counter.
struct ThreadList {
    dense: Vec<Thread>,
    mark: Vec<u32>,
    generation: u32,
    /// Scratch stack for [`add_thread`]'s closure walk; empty between calls.
    stack: Vec<usize>,
}

impl ThreadList {
    fn new(len: usize) -> Self {
        ThreadList {
            dense: Vec::with_capacity(len),
            mark: vec![0; len],
            generation: 0,
            stack: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.generation += 1;
    }

    fn seen(&mut self, pc: usize) -> bool {
        if self.mark[pc] == self.generation {
            true
        } else {
            self.mark[pc] = self.generation;
            false
        }
    }
}

/// Zero-width context at a position: the characters on either side.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    /// Absolute byte offset in the haystack.
    byte: usize,
    /// Total haystack length in bytes.
    hay_len: usize,
    prev: Option<char>,
    next: Option<char>,
}

impl Ctx {
    fn holds(&self, a: Assertion) -> bool {
        match a {
            Assertion::Start => self.byte == 0,
            Assertion::End => self.byte == self.hay_len,
            Assertion::WordBoundary => is_word(self.prev) != is_word(self.next),
            Assertion::NotWordBoundary => is_word(self.prev) == is_word(self.next),
        }
    }
}

fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Adds `pc`'s epsilon closure to `list` in priority order.
fn add_thread(list: &mut ThreadList, prog: &Program, pc: usize, start: usize, ctx: Ctx) {
    // Explicit stack; `Split(a, b)` pushes `b` first so `a` pops (and is
    // therefore added) first, preserving thread priority.
    list.stack.push(pc);
    while let Some(pc) = list.stack.pop() {
        if list.seen(pc) {
            continue;
        }
        match &prog.insts[pc] {
            Inst::Jmp(t) => list.stack.push(*t),
            Inst::Split(a, b) => {
                list.stack.push(*b);
                list.stack.push(*a);
            }
            Inst::Assert(k) => {
                if ctx.holds(*k) {
                    list.stack.push(pc + 1);
                }
            }
            Inst::Char(_) | Inst::AnyChar | Inst::Class(_) | Inst::Match => {
                list.dense.push(Thread { pc, start });
            }
        }
    }
}

/// Searches `haystack` for the leftmost-longest match at or after byte
/// offset `from`.
///
/// # Panics
/// Panics if `from` is not a character boundary of `haystack`.
pub fn search(prog: &Program, haystack: &str, from: usize) -> Option<Match> {
    assert!(
        haystack.is_char_boundary(from.min(haystack.len())),
        "`from` must lie on a character boundary"
    );
    if from > haystack.len() {
        return None;
    }
    let hay_len = haystack.len();
    let prev_of_from = haystack[..from].chars().next_back();

    let mut clist = ThreadList::new(prog.len());
    let mut nlist = ThreadList::new(prog.len());
    clist.clear();
    nlist.clear();

    let mut best: Option<Match> = None;
    let mut chars = haystack[from..].chars().peekable();
    let mut prev = prev_of_from;
    let mut byte = from;
    // A `^`-anchored program starts threads at one position only.
    let first_chars = (!prog.anchored_start).then(|| prog.first_chars());

    loop {
        // With no thread live and no match pending, the next match can only
        // begin at a character the program admits first: skip to it.
        if let Some(fc) = first_chars.filter(|_| clist.dense.is_empty() && best.is_none()) {
            let skip = fc.skippable(&haystack[byte..]);
            if skip > 0 {
                byte += skip;
                prev = haystack[..byte].chars().next_back();
                chars = haystack[byte..].chars().peekable();
                // Dedup marks set by a closure at the position skipped from
                // must not drop threads here.
                clist.clear();
            }
        }
        let cur: Option<char> = chars.peek().copied();
        // The character after `cur`, for the successor position's context.
        let lookahead: Option<char> =
            cur.and_then(|c| haystack[byte + c.len_utf8()..].chars().next());
        let ctx = Ctx {
            byte,
            hay_len,
            prev,
            next: cur,
        };
        let nctx = cur.map(|c| Ctx {
            byte: byte + c.len_utf8(),
            hay_len,
            prev: cur,
            next: lookahead,
        });

        // Inject a fresh start thread unless a match already pins the
        // leftmost start (or the pattern is start-anchored and we're past
        // the only valid start).
        let inject = best.is_none() && (!prog.anchored_start || byte == 0 || byte == from);
        if inject {
            add_thread(&mut clist, prog, 0, byte, ctx);
        }

        // Process current threads in priority order.
        let mut i = 0;
        while i < clist.dense.len() {
            let th = clist.dense[i];
            i += 1;
            match &prog.insts[th.pc] {
                Inst::Match => {
                    let cand = Match {
                        start: th.start,
                        end: byte,
                    };
                    best = Some(match best {
                        None => cand,
                        Some(b)
                            if cand.start < b.start
                                || (cand.start == b.start && cand.end > b.end) =>
                        {
                            cand
                        }
                        Some(b) => b,
                    });
                }
                Inst::Char(c) => {
                    if cur == Some(*c) {
                        let nctx = nctx.expect("cur is Some");
                        add_thread(&mut nlist, prog, th.pc + 1, th.start, nctx);
                    }
                }
                Inst::AnyChar => {
                    if cur.is_some_and(|c| c != '\n') {
                        let nctx = nctx.expect("cur is Some");
                        add_thread(&mut nlist, prog, th.pc + 1, th.start, nctx);
                    }
                }
                Inst::Class(set) => {
                    if cur.is_some_and(|c| set.contains(c)) {
                        let nctx = nctx.expect("cur is Some");
                        add_thread(&mut nlist, prog, th.pc + 1, th.start, nctx);
                    }
                }
                Inst::Jmp(_) | Inst::Split(_, _) | Inst::Assert(_) => {
                    unreachable!("epsilon instructions never enter the dense list")
                }
            }
        }

        // Advance one character.
        match chars.next() {
            None => break,
            Some(c) => {
                prev = Some(c);
                byte += c.len_utf8();
            }
        }
        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();

        if clist.dense.is_empty() && best.is_some() {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::program::compile;

    fn m(p: &str, hay: &str) -> Option<(usize, usize)> {
        let prog = compile(&parse(p).unwrap(), false);
        search(&prog, hay, 0).map(|m| (m.start, m.end))
    }

    #[test]
    fn simple_scan() {
        assert_eq!(m("bc", "abcd"), Some((1, 3)));
        assert_eq!(m("xyz", "abcd"), None);
    }

    #[test]
    fn leftmost_wins_over_longer_later() {
        assert_eq!(m("ab|cdef", "abcdef"), Some((0, 2)));
    }

    #[test]
    fn longest_at_same_start() {
        assert_eq!(m("a|ab|abc", "abc"), Some((0, 3)));
    }

    #[test]
    fn greedy_star_takes_all() {
        assert_eq!(m("a*", "aaa"), Some((0, 3)));
    }

    #[test]
    fn empty_pattern_matches_empty_at_zero() {
        assert_eq!(m("", "abc"), Some((0, 0)));
        assert_eq!(m("", ""), Some((0, 0)));
    }

    #[test]
    fn anchored_fast_path() {
        let prog = compile(&parse("^b").unwrap(), false);
        assert!(search(&prog, "abc", 0).is_none());
        // from>0 still honours ^ = absolute position 0.
        assert!(search(&prog, "bbc", 1).is_none());
        assert!(search(&prog, "bbc", 0).is_some());
    }

    #[test]
    fn end_anchor() {
        assert_eq!(m("c$", "abc"), Some((2, 3)));
        assert_eq!(m("b$", "abc"), None);
    }

    #[test]
    fn word_boundary_with_from_offset() {
        let prog = compile(&parse(r"\bbat").unwrap(), false);
        // At offset 4 of "wombat bat", prev char is 'b' → not a boundary.
        let hay = "wombat bat";
        let m = search(&prog, hay, 3);
        assert_eq!(m.map(|m| m.start), Some(7));
    }

    #[test]
    fn no_catastrophic_backtracking() {
        // The classic exponential killer for backtrackers finishes instantly
        // on a Pike VM.
        let p = "a*a*a*a*a*a*a*a*a*b";
        let hay = "a".repeat(64);
        assert_eq!(m(p, &hay), None);
    }

    #[test]
    fn multibyte_spans() {
        let r = m("é", "café").unwrap();
        assert_eq!(&"café"[r.0..r.1], "é");
    }
}
