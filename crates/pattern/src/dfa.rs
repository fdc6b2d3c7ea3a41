//! Determinized match counting.
//!
//! [`Dfa`] answers one question — how many matches would
//! `Pattern::find_iter` yield? — in at most one table lookup per byte, by
//! precomputing every thread list the Pike VM ([`crate::vm`]) can reach.
//!
//! A state is the VM's ordered thread list at one position, before its
//! ε-closure: NFA program counters grouped by the position their thread
//! started at, earliest group first (RE2's "Mark" separator in
//! longest-match mode). A set of program counters alone is not enough:
//! `ab|bcd|c` on `abcd` must find `ab` and then `c`, but a set-based DFA
//! sees one match ending at 4. Each state also carries flags: a match has
//! been seen (no new start threads), the previous character is a word
//! character (for `\b`/`\B`), and the scan is at offset 0 (for `^`). The
//! closure runs during a transition, once the next character's class is
//! known, because `\b` depends on it. A match in group `g` drops every
//! later group: those threads started later and cannot win. The scan stops
//! at the empty state; the last match position seen is the match's end,
//! and the next search resumes there, exactly like the VM's iterator.
//!
//! The count loop steps over bytes. An ASCII byte maps through a
//! 128-entry class table; only a byte of `0x80` or more decodes a char.
//! Table entries are row offsets (state id times class count), so a step
//! is one add and one load, and scan flags are read by row. In an idle
//! start state (after a non-word or a word char, not at offset 0) the loop
//! runs over bytes of a 256-entry `skip` table with no transition lookup. The
//! table is read off the DFA itself: an ASCII byte is skippable when both
//! idle start rows send it to the idle start state of its own word class
//! with no flag raised. That is exact, `\b`/`\B` included: after a run,
//! the state is the one its last byte leads to.
//!
//! The whole table is built at once, on first use. A program that needs
//! more than [`MAX_STATES`] states, or that can match the empty string
//! (counting those needs match starts), gets no table and stays on the VM.

use crate::program::{Assertion, Inst, Program};
use std::collections::HashMap;
use std::fmt;

/// Most states one table may hold.
const MAX_STATES: usize = 4096;

// State-key flags (`key[0]`).
/// A match has been seen: no new start threads are injected.
const MATCHED: u32 = 1;
/// The previous character is a word character.
const PREV_WORD: u32 = 2;
/// The scan is at offset 0.
const AT_START: u32 = 4;
/// A match ended just before the character that led to this state.
const MATCH_BEFORE: u32 = 8;

// Per-state scan flags (`Dfa::flags`).
/// A match ended just before the character that led to this state.
const SCAN_MATCH: u8 = 1;
/// No thread is left and a match was seen: the search is over.
const SCAN_DEAD: u8 = 2;
/// The program matches at end-of-input from this state.
const SCAN_EOI: u8 = 4;
/// An idle start state (after a non-word or a word char): the scan may
/// run over the bytes of `Dfa::skip`.
const SCAN_IDLE: u8 = 8;

/// Ends one group of program counters in a state key.
const SEP: u32 = u32::MAX;

/// The row a failed table lookup leads to. No row lives there, so its
/// flags read as [`SCAN_DEAD`] and the scan stops.
const NO_ROW: usize = usize::MAX;

/// A determinized counter for one [`Program`].
///
/// A state is addressed by its row: its id times the class count, the
/// offset of its first entry in `trans`.
#[derive(Clone)]
pub(crate) struct Dfa {
    classes: Classes,
    /// `trans[row + k]`: the row of the state after class `k`.
    trans: Vec<u32>,
    /// Scan flags by row; zero at every offset that starts no row.
    flags: Vec<u8>,
    /// Start rows: at offset 0, after a non-word char, after a word char.
    start: [u32; 3],
    /// `skip[b]`: ASCII byte `b` takes both idle start states to the idle
    /// start state of `b`'s word class with no flag raised, so a scan in
    /// an idle start state can pass over it without a table lookup.
    skip: [bool; 256],
}

impl fmt::Debug for Dfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dfa")
            .field("states", &(self.trans.len() / self.classes.len()))
            .field("classes", &self.classes.len())
            .finish()
    }
}

impl Dfa {
    /// Builds the table for `prog`, or `None` when the program can match
    /// the empty string or needs more than [`MAX_STATES`] states.
    pub(crate) fn build(prog: &Program) -> Option<Dfa> {
        if can_match_empty(prog) {
            return None;
        }
        let classes = Classes::build(prog);
        let mut b = Builder {
            prog,
            classes: &classes,
            marks: vec![0; prog.len()],
            generation: 0,
            stack: Vec::new(),
            keys: Vec::new(),
            index: HashMap::new(),
        };
        let start = [
            b.intern(vec![AT_START])?,
            b.intern(vec![0])?,
            b.intern(vec![if classes.uses_word { PREV_WORD } else { 0 }])?,
        ];
        let n = classes.len();
        let mut trans = Vec::new();
        let mut flags = Vec::new();
        let mut dense = Vec::new();
        let mut s = 0;
        while s < b.keys.len() {
            // Each key is read once, here; `index` keeps its own copy.
            let key = std::mem::take(&mut b.keys[s]);
            let mut f = 0;
            if key[0] & MATCH_BEFORE != 0 {
                f |= SCAN_MATCH;
            }
            if key[0] & MATCHED != 0 && key.len() == 1 {
                // Dead: the scan stops on entry, so this row is never read.
                f |= SCAN_DEAD;
                trans.extend(std::iter::repeat_n(to_u32(s), n));
            } else {
                b.closure(&key, None, &mut dense);
                let is_match =
                    |&pc: &u32| pc != SEP && matches!(prog.insts[pc as usize], Inst::Match);
                if dense.iter().any(is_match) {
                    f |= SCAN_EOI;
                }
                for k in 0..n {
                    let next = b.step(&key, k, &mut dense);
                    trans.push(b.intern(next)?);
                }
            }
            flags.push(f);
            flags.extend(std::iter::repeat_n(0, n - 1));
            s += 1;
        }
        // State ids become rows.
        for t in &mut trans {
            *t = to_u32(*t as usize * n);
        }
        let start = start.map(|s| to_u32(s as usize * n));
        let [_, after_plain, after_word] = start.map(|row| row as usize);
        let lands = |row: usize, k: u32, home: usize| {
            trans
                .get(row + k as usize)
                .is_some_and(|&t| t as usize == home)
        };
        let skip = std::array::from_fn(|b| {
            classes.ascii.get(b).is_some_and(|&k| {
                let home = if u8::try_from(b).is_ok_and(|b| is_word(char::from(b))) {
                    after_word
                } else {
                    after_plain
                };
                lands(after_plain, k, home)
                    && lands(after_word, k, home)
                    && flags.get(home) == Some(&0)
            })
        });
        for row in [after_plain, after_word] {
            if let Some(f) = flags.get_mut(row) {
                *f |= SCAN_IDLE;
            }
        }
        Some(Dfa {
            classes,
            trans,
            flags,
            start,
            skip,
        })
    }

    /// Number of non-overlapping leftmost-longest matches in `haystack`;
    /// equals `Pattern::find_iter(haystack).count()`.
    ///
    /// Steps over bytes: an ASCII byte is its own char, and only a byte
    /// of `0x80` or more decodes one. In an idle start state the scan
    /// runs over `skip` bytes with no table lookup; the state after such
    /// a run is the one its last byte leads to from either idle row.
    pub(crate) fn count(&self, haystack: &str) -> usize {
        let bytes = haystack.as_bytes();
        let [at_start, after_plain, after_word] = self.start.map(|row| row as usize);
        let mut count = 0;
        let mut from = 0;
        loop {
            let mut row = if from == 0 {
                at_start
            } else if haystack
                .get(..from)
                .and_then(|h| h.chars().next_back())
                .is_some_and(is_word)
            {
                after_word
            } else {
                after_plain
            };
            let mut end = None;
            let mut i = from;
            while let Some(&b) = bytes.get(i) {
                let (next, width) = if b < 0x80 {
                    (self.step_ascii(row, b), 1)
                } else {
                    // Not a char boundary (never reached: the scan moves
                    // by whole chars) reads as dead.
                    self.classes
                        .at(haystack, i)
                        .map_or((NO_ROW, 1), |(k, w)| (self.next(row, k), w))
                };
                row = next;
                let f = self.flags.get(row).copied().unwrap_or(SCAN_DEAD);
                if f != 0 {
                    if f & SCAN_MATCH != 0 {
                        end = Some(i);
                    }
                    if f & SCAN_DEAD != 0 {
                        break;
                    }
                    if f & SCAN_IDLE != 0 {
                        i += width;
                        // Both idle rows send each skipped byte to the
                        // same row, so the last one alone sets the state.
                        if let Some(last) = self.skip_run(bytes, &mut i) {
                            row = self.step_ascii(row, last);
                        }
                        continue;
                    }
                }
                i += width;
            }
            if self.flags.get(row).is_some_and(|f| f & SCAN_EOI != 0) {
                end = Some(haystack.len());
            }
            match end {
                Some(e) => {
                    count += 1;
                    from = e;
                }
                None => return count,
            }
        }
    }

    /// The row after class `k` from `row`; [`NO_ROW`] past the table.
    #[inline]
    fn next(&self, row: usize, k: usize) -> usize {
        self.trans.get(row + k).map_or(NO_ROW, |&r| r as usize)
    }

    /// The row after ASCII byte `b` from `row`.
    #[inline]
    fn step_ascii(&self, row: usize, b: u8) -> usize {
        self.classes
            .ascii
            .get(usize::from(b))
            .map_or(NO_ROW, |&k| self.next(row, k as usize))
    }

    /// Advances `i` over the run of `skip` bytes it starts at; the run's
    /// last byte, if it is not empty.
    #[inline]
    fn skip_run(&self, bytes: &[u8], i: &mut usize) -> Option<u8> {
        let mut last = None;
        while let Some(&b) = bytes.get(*i) {
            if self.skip.get(usize::from(b)) != Some(&true) {
                break;
            }
            last = Some(b);
            *i += 1;
        }
        last
    }
}

/// The character alphabet: chars no instruction (and, when the program
/// uses `\b`/`\B`, no word test) can tell apart share a class.
#[derive(Clone)]
struct Classes {
    /// Class of each ASCII char.
    ascii: [u32; 128],
    /// Sorted starts of the non-ASCII intervals; interval `i` runs up to
    /// `starts[i + 1]`. `starts[0]` is `0x80`.
    starts: Vec<u32>,
    /// Per interval: the class of its non-word chars, then of its word
    /// chars (the same class unless the program uses `\b`/`\B`).
    interval: Vec<[u32; 2]>,
    /// A member of each class, to test instructions against.
    rep: Vec<char>,
    /// Whether each class holds word chars (always `false` unless
    /// `uses_word`).
    word: Vec<bool>,
    /// The program has a `\b` or `\B`.
    uses_word: bool,
}

impl Classes {
    fn build(prog: &Program) -> Classes {
        let uses_word = prog.insts.iter().any(|i| {
            matches!(
                i,
                Inst::Assert(Assertion::WordBoundary | Assertion::NotWordBoundary)
            )
        });
        let mut cuts = vec![0x80u32];
        for inst in &prog.insts {
            match inst {
                Inst::Char(c) if u32::from(*c) >= 0x80 => {
                    cuts.extend([u32::from(*c), u32::from(*c) + 1]);
                }
                Inst::Class(set) => {
                    for &(lo, hi) in &set.ranges {
                        if u32::from(hi) >= 0x80 {
                            cuts.extend([u32::from(lo).max(0x80), u32::from(hi) + 1]);
                        }
                    }
                }
                _ => {}
            }
        }
        cuts.retain(|&c| c <= u32::from(char::MAX));
        cuts.sort_unstable();
        cuts.dedup();

        let mut classes = Classes {
            ascii: [0; 128],
            starts: cuts,
            interval: Vec::new(),
            rep: Vec::new(),
            word: Vec::new(),
            uses_word,
        };
        let mut ids: HashMap<(Vec<bool>, bool), u32> = HashMap::new();
        let mut id_of = |c: char, word: bool, classes: &mut Classes| -> u32 {
            let sig: Vec<bool> = prog.insts.iter().map(|i| accepts(i, c)).collect();
            *ids.entry((sig, word)).or_insert_with(|| {
                classes.rep.push(c);
                classes.word.push(word);
                to_u32(classes.rep.len() - 1)
            })
        };
        for b in 0u8..128 {
            let c = char::from(b);
            classes.ascii[usize::from(b)] = id_of(c, uses_word && is_word(c), &mut classes);
        }
        for i in 0..classes.starts.len() {
            let lo = classes.starts[i];
            let hi = classes.starts.get(i + 1).copied().unwrap_or(0x11_0000);
            // Skip over the surrogate gap; an interval inside it holds no
            // char and its class is never looked up.
            let rep = (lo..hi).find_map(char::from_u32).unwrap_or('\u{80}');
            let plain = id_of(rep, false, &mut classes);
            let word = if uses_word {
                id_of(rep, true, &mut classes)
            } else {
                plain
            };
            classes.interval.push([plain, word]);
        }
        classes
    }

    /// Number of classes.
    fn len(&self) -> usize {
        self.rep.len()
    }

    /// The class and UTF-8 width of the char at byte `i` of `haystack`;
    /// `None` if `i` is not a char boundary.
    fn at(&self, haystack: &str, i: usize) -> Option<(usize, usize)> {
        let c = haystack.get(i..)?.chars().next()?;
        Some((self.of(c), c.len_utf8()))
    }

    /// The class of `c`.
    #[inline]
    fn of(&self, c: char) -> usize {
        let u = u32::from(c);
        if u < 128 {
            self.ascii[u as usize] as usize
        } else {
            let i = self.starts.partition_point(|&s| s <= u) - 1;
            self.interval[i][usize::from(self.uses_word && is_word(c))] as usize
        }
    }
}

/// Subset construction state.
struct Builder<'a> {
    prog: &'a Program,
    classes: &'a Classes,
    /// Generation marks for the closure's dedup, by program counter.
    marks: Vec<u32>,
    generation: u32,
    stack: Vec<usize>,
    /// State keys by id: flags, then each group's program counters and a
    /// `SEP`. A key is taken out once its row of the table is built.
    keys: Vec<Vec<u32>>,
    index: HashMap<Vec<u32>, u32>,
}

impl Builder<'_> {
    /// The id of `key`, adding it as a new state if unseen; `None` past
    /// the cap.
    fn intern(&mut self, key: Vec<u32>) -> Option<u32> {
        if let Some(&id) = self.index.get(&key) {
            return Some(id);
        }
        if self.keys.len() == MAX_STATES {
            return None;
        }
        let id = to_u32(self.keys.len());
        self.keys.push(key.clone());
        self.index.insert(key, id);
        Some(id)
    }

    /// The ε-closure of every group of `key`, then of a fresh start thread
    /// unless a match was seen, in the VM's priority order and with its
    /// dedup: a program counter an earlier group reached is skipped. Writes
    /// each group's char-consuming and `Match` instructions to `out`, each
    /// group ended by `SEP`. `next` is the class of the next char, `None`
    /// at end-of-input.
    fn closure(&mut self, key: &[u32], next: Option<usize>, out: &mut Vec<u32>) {
        let flags = key[0];
        let prev_word = flags & PREV_WORD != 0;
        let next_word = next.is_some_and(|k| self.classes.word[k]);
        let holds = |a: Assertion| match a {
            Assertion::Start => flags & AT_START != 0,
            Assertion::End => next.is_none(),
            Assertion::WordBoundary => prev_word != next_word,
            Assertion::NotWordBoundary => prev_word == next_word,
        };
        self.generation += 1;
        out.clear();
        let inject = (flags & MATCHED == 0).then_some(0);
        let groups = key[1..].split(|&pc| pc == SEP).filter(|g| !g.is_empty());
        for roots in groups.chain(inject.as_ref().map(std::slice::from_ref)) {
            for &root in roots.iter().rev() {
                self.stack.push(root as usize);
            }
            while let Some(pc) = self.stack.pop() {
                if self.marks[pc] == self.generation {
                    continue;
                }
                self.marks[pc] = self.generation;
                match &self.prog.insts[pc] {
                    Inst::Jmp(t) => self.stack.push(*t),
                    Inst::Split(a, b) => {
                        self.stack.push(*b);
                        self.stack.push(*a);
                    }
                    Inst::Assert(k) => {
                        if holds(*k) {
                            self.stack.push(pc + 1);
                        }
                    }
                    Inst::Char(_) | Inst::AnyChar | Inst::Class(_) | Inst::Match => {
                        out.push(to_u32(pc));
                    }
                }
            }
            out.push(SEP);
        }
    }

    /// The key of the state reached from `key` on a char of class `k`.
    fn step(&mut self, key: &[u32], k: usize, dense: &mut Vec<u32>) -> Vec<u32> {
        self.closure(key, Some(k), dense);
        let c = self.classes.rep[k];
        let mut match_here = false;
        let mut next = vec![0];
        // Kernel program counters already placed in an earlier group are
        // dropped: the closure would skip them anyway.
        self.generation += 1;
        for group in dense.split(|&pc| pc == SEP) {
            let at = next.len();
            let mut group_matched = false;
            for &pc in group {
                let inst = &self.prog.insts[pc as usize];
                if matches!(inst, Inst::Match) {
                    group_matched = true;
                } else if accepts(inst, c) && self.marks[pc as usize + 1] != self.generation {
                    self.marks[pc as usize + 1] = self.generation;
                    next.push(pc + 1);
                }
            }
            next[at..].sort_unstable();
            if next.len() > at {
                next.push(SEP);
            }
            if group_matched {
                // Later groups started later and cannot win.
                match_here = true;
                break;
            }
        }
        let matched = key[0] & MATCHED != 0 || match_here;
        next[0] = (if matched { MATCHED } else { 0 })
            | (if match_here { MATCH_BEFORE } else { 0 })
            | (if self.classes.word[k] { PREV_WORD } else { 0 });
        next
    }
}

/// `true` if `inst` consumes `c`.
fn accepts(inst: &Inst, c: char) -> bool {
    match inst {
        Inst::Char(x) => *x == c,
        Inst::AnyChar => c != '\n',
        Inst::Class(set) => set.contains(c),
        _ => false,
    }
}

/// `true` if `Match` is reachable from the entry without consuming a
/// char, treating every assertion as passable.
fn can_match_empty(prog: &Program) -> bool {
    let mut seen = vec![false; prog.len()];
    let mut stack = vec![0];
    while let Some(pc) = stack.pop() {
        if std::mem::replace(&mut seen[pc], true) {
            continue;
        }
        match &prog.insts[pc] {
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split(a, b) => stack.extend([*a, *b]),
            Inst::Assert(_) => stack.push(pc + 1),
            Inst::Match => return true,
            Inst::Char(_) | Inst::AnyChar | Inst::Class(_) => {}
        }
    }
    false
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("program counters and state ids fit in u32")
}
