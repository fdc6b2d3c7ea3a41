//! Thompson NFA compilation.

use std::sync::OnceLock;

use crate::ast::{Ast, ClassSet};

/// One NFA instruction. Program counters are indices into
/// [`Program::insts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Match a single literal character, then advance.
    Char(char),
    /// Match any character except `\n`, then advance.
    AnyChar,
    /// Match any character in the class, then advance.
    Class(ClassSet),
    /// Try `a` first (higher priority), then `b`.
    Split(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Zero-width assertion.
    Assert(Assertion),
    /// Successful match.
    Match,
}

/// Zero-width assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assertion {
    /// `^` — at offset 0.
    Start,
    /// `$` — at end of haystack.
    End,
    /// `\b`.
    WordBoundary,
    /// `\B`.
    NotWordBoundary,
}

/// A compiled NFA program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction list; entry point is instruction 0.
    pub insts: Vec<Inst>,
    /// `true` if compiled for ASCII case-insensitive matching.
    pub case_insensitive: bool,
    /// `true` if the pattern starts with `^` (enables a search fast path).
    pub anchored_start: bool,
    /// The characters a match can begin with, built on the first VM search
    /// (see [`Program::first_chars`]).
    first_chars: OnceLock<FirstChars>,
}

impl Program {
    /// Number of instructions (the VM's per-position work bound).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program is empty (never happens for valid patterns —
    /// even `""` compiles to a `Match`).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The characters a match can begin with, built on first use: the VM
    /// skips the others while no thread is live.
    pub(crate) fn first_chars(&self) -> &FirstChars {
        self.first_chars.get_or_init(|| FirstChars::of(self))
    }
}

/// Conservative approximation of the characters a program can begin with.
#[derive(Debug, Clone)]
pub(crate) struct FirstChars {
    /// ASCII bitmap: bit `b` is set when byte `b` may begin a match.
    ascii: u128,
    /// `true` if any non-ASCII character may begin a match, or the pattern
    /// can match without consuming (then nothing may be skipped).
    any: bool,
}

impl FirstChars {
    fn of(prog: &Program) -> Self {
        let mut fc = FirstChars {
            ascii: 0,
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
                    if c.is_ascii() {
                        fc.ascii |= 1 << *c as u32;
                    } else {
                        fc.any = true;
                    }
                }
                Inst::Class(set) => {
                    for b in 0u8..128 {
                        if set.contains(char::from(b)) {
                            fc.ascii |= 1 << b;
                        }
                    }
                    // Negated or wide classes may admit non-ASCII.
                    if set.negated || set.ranges.iter().any(|&(_, hi)| !hi.is_ascii()) {
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

    /// Length in bytes of the longest prefix of `rest` whose characters
    /// cannot begin a match. When only ASCII characters can, a match
    /// begins at an admitted ASCII byte, so the scan runs over bytes.
    pub(crate) fn skippable(&self, rest: &str) -> usize {
        if self.any {
            return 0;
        }
        rest.bytes()
            .position(|b| b.is_ascii() && self.ascii >> b & 1 == 1)
            .unwrap_or(rest.len())
    }
}

/// Compiles an [`Ast`] into a [`Program`]. When `case_insensitive` is set,
/// literal characters and classes are ASCII-case-folded at compile time.
pub fn compile(ast: &Ast, case_insensitive: bool) -> Program {
    let mut c = Compiler {
        insts: Vec::new(),
        ci: case_insensitive,
    };
    c.emit(ast);
    c.insts.push(Inst::Match);
    let anchored_start = starts_anchored(ast);
    Program {
        insts: c.insts,
        case_insensitive,
        anchored_start,
        first_chars: OnceLock::new(),
    }
}

fn starts_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::StartAnchor => true,
        Ast::Concat(items) => items.first().is_some_and(starts_anchored),
        Ast::Alternate(arms) => arms.iter().all(starts_anchored),
        _ => false,
    }
}

struct Compiler {
    insts: Vec<Inst>,
    ci: bool,
}

impl Compiler {
    fn emit(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => {
                if self.ci && c.is_ascii_alphabetic() {
                    let mut set = ClassSet::new();
                    set.push_char(c.to_ascii_lowercase());
                    set.push_char(c.to_ascii_uppercase());
                    self.insts.push(Inst::Class(set));
                } else {
                    self.insts.push(Inst::Char(*c));
                }
            }
            Ast::AnyChar => self.insts.push(Inst::AnyChar),
            Ast::Class(set) => {
                let mut set = set.clone();
                if self.ci {
                    set.case_fold();
                }
                self.insts.push(Inst::Class(set));
            }
            Ast::Concat(items) => {
                for item in items {
                    self.emit(item);
                }
            }
            Ast::Alternate(arms) => self.emit_alternate(arms),
            Ast::Repeat {
                inner,
                min,
                max,
                greedy,
            } => self.emit_repeat(inner, *min, *max, *greedy),
            Ast::StartAnchor => self.insts.push(Inst::Assert(Assertion::Start)),
            Ast::EndAnchor => self.insts.push(Inst::Assert(Assertion::End)),
            Ast::WordBoundary => self.insts.push(Inst::Assert(Assertion::WordBoundary)),
            Ast::NotWordBoundary => self.insts.push(Inst::Assert(Assertion::NotWordBoundary)),
        }
    }

    /// `a|b|c` compiles to a chain of splits; each arm jumps to the common
    /// exit.
    fn emit_alternate(&mut self, arms: &[Ast]) {
        let mut jmp_exits = Vec::new();
        let mut last_split: Option<usize> = None;
        for (i, arm) in arms.iter().enumerate() {
            if let Some(s) = last_split.take() {
                let here = self.insts.len();
                self.patch_split_second(s, here);
            }
            if i + 1 < arms.len() {
                let s = self.insts.len();
                self.insts.push(Inst::Split(s + 1, 0)); // second patched later
                last_split = Some(s);
            }
            self.emit(arm);
            if i + 1 < arms.len() {
                let j = self.insts.len();
                self.insts.push(Inst::Jmp(0)); // patched to exit
                jmp_exits.push(j);
            }
        }
        let exit = self.insts.len();
        for j in jmp_exits {
            self.insts[j] = Inst::Jmp(exit);
        }
    }

    fn patch_split_second(&mut self, at: usize, target: usize) {
        if let Inst::Split(a, _) = self.insts[at] {
            self.insts[at] = Inst::Split(a, target);
        } else {
            unreachable!("patch target is always a Split");
        }
    }

    /// Repetition via expansion + the classic star/quest loops.
    fn emit_repeat(&mut self, inner: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory prefix: `min` copies.
        for _ in 0..min {
            self.emit(inner);
        }
        match max {
            None => {
                // `inner*` (or `inner+` with the prefix above):
                //   L: split(body, exit)   [greedy]
                //      body…
                //      jmp L
                //   exit:
                let l = self.insts.len();
                self.insts.push(Inst::Split(0, 0));
                self.emit(inner);
                self.insts.push(Inst::Jmp(l));
                let exit = self.insts.len();
                self.insts[l] = if greedy {
                    Inst::Split(l + 1, exit)
                } else {
                    Inst::Split(exit, l + 1)
                };
            }
            Some(max) => {
                // `(max - min)` optional copies, each guarded by a split to
                // the common exit.
                let optional = (max - min) as usize;
                let mut splits = Vec::with_capacity(optional);
                for _ in 0..optional {
                    let s = self.insts.len();
                    self.insts.push(Inst::Split(0, 0));
                    splits.push(s);
                    self.emit(inner);
                }
                let exit = self.insts.len();
                for s in splits {
                    self.insts[s] = if greedy {
                        Inst::Split(s + 1, exit)
                    } else {
                        Inst::Split(exit, s + 1)
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    fn prog(p: &str) -> Program {
        compile(&parse(p).unwrap(), false)
    }

    #[test]
    fn empty_pattern_is_just_match() {
        assert_eq!(prog("").insts, vec![Inst::Match]);
    }

    #[test]
    fn literal_chain() {
        let p = prog("ab");
        assert_eq!(p.insts, vec![Inst::Char('a'), Inst::Char('b'), Inst::Match]);
    }

    #[test]
    fn star_loop_shape() {
        let p = prog("a*");
        assert_eq!(
            p.insts,
            vec![
                Inst::Split(1, 3),
                Inst::Char('a'),
                Inst::Jmp(0),
                Inst::Match
            ]
        );
    }

    #[test]
    fn lazy_star_swaps_priorities() {
        let p = prog("a*?");
        assert_eq!(p.insts[0], Inst::Split(3, 1));
    }

    #[test]
    fn plus_is_one_then_star() {
        let p = prog("a+");
        assert_eq!(p.insts[0], Inst::Char('a'));
        assert!(matches!(p.insts[1], Inst::Split(2, 4)));
    }

    #[test]
    fn bounded_repeat_expansion() {
        let p = prog("a{2,4}");
        // 2 mandatory chars + 2 guarded optionals + match
        let chars = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Char('a')))
            .count();
        assert_eq!(chars, 4);
        let splits = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Split(_, _)))
            .count();
        assert_eq!(splits, 2);
    }

    #[test]
    fn alternation_structure_matches() {
        let p = prog("a|b|c");
        // Must contain 2 splits and 2 jumps to a common exit.
        let splits = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Split(_, _)))
            .count();
        assert_eq!(splits, 2);
    }

    #[test]
    fn ci_literal_becomes_class() {
        let p = compile(&parse("a").unwrap(), true);
        let Inst::Class(set) = &p.insts[0] else {
            panic!()
        };
        assert!(set.contains('a') && set.contains('A'));
    }

    #[test]
    fn ci_nonalpha_stays_char() {
        let p = compile(&parse("5").unwrap(), true);
        assert_eq!(p.insts[0], Inst::Char('5'));
    }

    #[test]
    fn anchored_start_detection() {
        assert!(prog("^abc").anchored_start);
        assert!(prog("^a|^b").anchored_start);
        assert!(!prog("abc").anchored_start);
        assert!(!prog("^a|b").anchored_start);
    }
}
