//! Differential testing: the Pike VM against a naive backtracking reference
//! interpreter over the same AST, and the DFA counter against the Pike VM.
//! On small random patterns and haystacks, `is_match` must agree exactly;
//! leftmost-longest `find` spans and the whole `find_iter` sequence are
//! checked against the reference's exhaustive enumeration; `count_matches`
//! must equal `find_iter().count()`, also on haystacks of long runs the
//! counter's byte loop skips.

use rbd_pattern::ast::{parse, Ast, ClassSet};
use rbd_pattern::Pattern;
use rbd_prop::{check_cases, gen, prop_assert_eq, prop_assume, shrink, Gen};

/// Naive matcher: can `ast` match some prefix of `chars[pos..]`? Returns
/// every end position (exhaustive, exponential — fine for tiny inputs).
fn match_ends(ast: &Ast, chars: &[char], pos: usize, total: usize) -> Vec<usize> {
    match ast {
        Ast::Empty => vec![pos],
        Ast::Literal(c) => {
            if chars.get(pos) == Some(c) {
                vec![pos + 1]
            } else {
                vec![]
            }
        }
        Ast::AnyChar => {
            if chars.get(pos).is_some_and(|&c| c != '\n') {
                vec![pos + 1]
            } else {
                vec![]
            }
        }
        Ast::Class(set) => {
            if chars.get(pos).is_some_and(|&c| set.contains(c)) {
                vec![pos + 1]
            } else {
                vec![]
            }
        }
        Ast::Concat(items) => {
            let mut ends = vec![pos];
            for item in items {
                let mut next = Vec::new();
                for &e in &ends {
                    next.extend(match_ends(item, chars, e, total));
                }
                next.sort_unstable();
                next.dedup();
                if next.is_empty() {
                    return vec![];
                }
                ends = next;
            }
            ends
        }
        Ast::Alternate(arms) => {
            let mut ends: Vec<usize> = arms
                .iter()
                .flat_map(|a| match_ends(a, chars, pos, total))
                .collect();
            ends.sort_unstable();
            ends.dedup();
            ends
        }
        Ast::Repeat {
            inner, min, max, ..
        } => {
            // Breadth-first expansion with a visited set; greediness does
            // not matter for the set of reachable ends. Past `min`, an
            // iteration that consumes nothing can be dropped from a path,
            // so `min + total + 1` layers reach every end.
            let layers = *min + u32::try_from(total + 1).expect("tiny haystacks");
            let max = max.unwrap_or(u32::MAX).min(layers);
            let mut layer = vec![pos];
            let mut all: Vec<(u32, usize)> = vec![(0, pos)];
            for depth in 1..=max {
                let mut next = Vec::new();
                for &e in &layer {
                    for e2 in match_ends(inner, chars, e, total) {
                        if !next.contains(&e2) {
                            next.push(e2);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                for &e in &next {
                    all.push((depth, e));
                }
                if next == layer {
                    break; // empty-width fixpoint
                }
                layer = next;
            }
            let mut ends: Vec<usize> = all
                .into_iter()
                .filter(|(d, _)| *d >= *min)
                .map(|(_, e)| e)
                .collect();
            if *min == 0 {
                ends.push(pos);
            }
            ends.sort_unstable();
            ends.dedup();
            ends
        }
        Ast::StartAnchor => {
            if pos == 0 {
                vec![pos]
            } else {
                vec![]
            }
        }
        Ast::EndAnchor => {
            if pos == total {
                vec![pos]
            } else {
                vec![]
            }
        }
        Ast::WordBoundary | Ast::NotWordBoundary => {
            let is_word = |c: Option<&char>| c.is_some_and(|c| c.is_alphanumeric() || *c == '_');
            let prev = if pos == 0 { None } else { chars.get(pos - 1) };
            let next = chars.get(pos);
            let boundary = is_word(prev) != is_word(next);
            let want = matches!(ast, Ast::WordBoundary);
            if boundary == want {
                vec![pos]
            } else {
                vec![]
            }
        }
    }
}

/// The AST a case-insensitive compilation matches: ASCII letters become
/// two-case classes and classes gain the other case, as `program::compile`
/// folds them.
fn fold_case(ast: &Ast) -> Ast {
    match ast {
        Ast::Literal(c) if c.is_ascii_alphabetic() => {
            let mut set = ClassSet::new();
            set.push_char(c.to_ascii_lowercase());
            set.push_char(c.to_ascii_uppercase());
            Ast::Class(set)
        }
        Ast::Class(set) => {
            let mut set = set.clone();
            set.case_fold();
            Ast::Class(set)
        }
        Ast::Concat(items) => Ast::Concat(items.iter().map(fold_case).collect()),
        Ast::Alternate(arms) => Ast::Alternate(arms.iter().map(fold_case).collect()),
        Ast::Repeat {
            inner,
            min,
            max,
            greedy,
        } => Ast::Repeat {
            inner: Box::new(fold_case(inner)),
            min: *min,
            max: *max,
            greedy: *greedy,
        },
        other => other.clone(),
    }
}

/// Compiles `pattern` with the engine, and parses the AST the reference
/// should run for it; `None` for a pattern shrinking left invalid.
fn compile_both(pattern: &str, ci: bool) -> Option<(Pattern, Ast)> {
    let ast = parse(pattern).ok()?;
    let engine = if ci {
        Pattern::case_insensitive(pattern)
    } else {
        Pattern::new(pattern)
    }
    .expect("parsed patterns compile");
    Some((engine, if ci { fold_case(&ast) } else { ast }))
}

/// Byte offset of every char index of `chars`, plus the end.
fn byte_offsets(chars: &[char]) -> Vec<usize> {
    let mut byte_of = Vec::with_capacity(chars.len() + 1);
    let mut b = 0;
    for c in chars {
        byte_of.push(b);
        b += c.len_utf8();
    }
    byte_of.push(b);
    byte_of
}

/// Reference leftmost-longest search at or after char index `from`, in
/// char indices; anchors and word boundaries see the whole haystack.
fn reference_find_from(ast: &Ast, chars: &[char], from: usize) -> Option<(usize, usize)> {
    (from..=chars.len()).find_map(|start| {
        let ends = match_ends(ast, chars, start, chars.len());
        ends.into_iter().max().map(|end| (start, end))
    })
}

/// Reference leftmost-longest search.
fn reference_find(ast: &Ast, haystack: &str) -> Option<(usize, usize)> {
    let chars: Vec<char> = haystack.chars().collect();
    let byte_of = byte_offsets(&chars);
    reference_find_from(ast, &chars, 0).map(|(s, e)| (byte_of[s], byte_of[e]))
}

/// Reference non-overlapping iteration: repeated [`reference_find_from`]
/// calls, resuming at each match's end, one char further after an empty
/// match.
fn reference_find_all(ast: &Ast, haystack: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = haystack.chars().collect();
    let byte_of = byte_offsets(&chars);
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((s, e)) = reference_find_from(ast, &chars, at) {
        out.push((byte_of[s], byte_of[e]));
        at = if e > s { e } else { e + 1 };
    }
    out
}

/// A small pattern grammar that stays within the reference matcher's reach:
/// literals (one non-ASCII), classes, anchors, word boundaries, and greedy
/// and lazy quantifiers.
///
/// Shrinking removes characters from the rendered pattern, which can leave
/// an invalid pattern (e.g. a leading quantifier) — the properties guard
/// with `prop_assume!` so such candidates are skipped, not failed.
fn arb_pattern() -> Gen<String> {
    let atom = Gen::one_of(vec![
        Gen::select(vec!["a", "b", "c", "x", "A", "é", "."]).map(String::from),
        Gen::select(vec!["[ab]", "[^a]", "[a-cé]", r"\d", r"\w", r"\s"]).map(String::from),
    ]);
    let unit = atom
        .zip(Gen::select(vec![
            "", "", "*", "+", "?", "{2}", "{1,3}", "*?", "+?", "??",
        ]))
        .map(|(a, q)| format!("{a}{q}"));
    let anchor = Gen::select(vec!["^", "$", r"\b", r"\B"]).map(String::from);
    gen::concat(Gen::weighted(vec![(4, unit), (1, anchor)]), 1..=4)
}

fn arb_alt_pattern() -> Gen<String> {
    let alt = Gen::new(|rng| rng.random_bool(0.5));
    gen::zip3(arb_pattern(), arb_pattern(), alt)
        .map(|(a, b, alt)| {
            if alt {
                format!("{a}|{b}")
            } else {
                format!("({a})({b})")
            }
        })
        .with_shrink(|s: &String| shrink::string(s))
}

/// Whether to compile case-insensitively; shrinks toward case-sensitive.
fn arb_ci() -> Gen<bool> {
    Gen::select(vec![false, true])
}

fn haystack_gen(max: usize) -> Gen<String> {
    gen::string_from("abcxAB01 _é\u{a0}\n", 0..=max)
}

/// Haystacks of long runs of characters most patterns cannot begin with
/// (word and non-word, ASCII and not, line breaks), between short pieces
/// that do begin matches: the runs the Pike VM skips.
fn run_haystack_gen() -> Gen<String> {
    let run = Gen::select(vec!["z", "Z", "-", " ", "\n", "é", "\u{a0}"])
        .zip(gen::int_in(1usize..=12))
        .map(|(c, n)| c.repeat(n));
    let piece = gen::string_from("abcxAB01 _é\u{a0}\n", 1..=3);
    gen::concat(Gen::weighted(vec![(1, run), (1, piece)]), 0..=5)
}

#[test]
fn is_match_agrees_with_reference() {
    let inputs = gen::zip3(arb_alt_pattern(), haystack_gen(10), arb_ci());
    check_cases(
        "is_match_agrees_with_reference",
        256,
        &inputs,
        |(pattern, haystack, ci)| {
            let both = compile_both(pattern, *ci);
            prop_assume!(both.is_some()); // shrunk patterns may be invalid
            let (engine, ast) = both.expect("checked");
            let expected = reference_find(&ast, haystack).is_some();
            prop_assert_eq!(
                engine.is_match(haystack),
                expected,
                "pattern {pattern} (ci {ci}) on {haystack:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn find_span_agrees_with_reference() {
    let inputs = gen::zip3(arb_pattern(), haystack_gen(10), arb_ci());
    check_cases(
        "find_span_agrees_with_reference",
        256,
        &inputs,
        |(pattern, haystack, ci)| {
            let both = compile_both(pattern, *ci);
            prop_assume!(both.is_some());
            let (engine, ast) = both.expect("checked");
            let expected = reference_find(&ast, haystack);
            let got = engine.find(haystack).map(|m| (m.start, m.end));
            prop_assert_eq!(got, expected, "pattern {pattern} (ci {ci}) on {haystack:?}");
            Ok(())
        },
    );
}

/// Every span `find_iter` yields equals the reference's repeated search.
fn find_iter_agrees(pattern: &str, haystack: &str, ci: bool) -> Result<(), String> {
    let both = compile_both(pattern, ci);
    prop_assume!(both.is_some());
    let (engine, ast) = both.expect("checked");
    let got: Vec<(usize, usize)> = engine
        .find_iter(haystack)
        .map(|m| (m.start, m.end))
        .collect();
    prop_assert_eq!(
        got,
        reference_find_all(&ast, haystack),
        "pattern {pattern} (ci {ci}) on {haystack:?}"
    );
    Ok(())
}

#[test]
fn find_iter_agrees_with_reference() {
    let inputs = gen::zip3(arb_pattern(), run_haystack_gen(), arb_ci());
    check_cases(
        "find_iter_agrees_with_reference",
        512,
        &inputs,
        |(pattern, haystack, ci)| find_iter_agrees(pattern, haystack, *ci),
    );
}

/// Word boundaries, `$` and case folding after runs no match can begin
/// with: the VM skips each run and must still see its last char.
#[test]
fn find_iter_after_idle_runs() {
    let hays = [
        "zzzzzzzzab zzzz-----a",
        "------aB---\n\n\nb",
        "ééééééa éééb",
        "ZZZZZZZZZZZZ\u{a0}\u{a0}ab",
        "            \na",
    ];
    for pattern in [
        r"\ba", r"\Ba", r"[ab]+\b", r"\B[ab]", r"a$", r"b$", r"[ab]\b.", r"A\b",
    ] {
        for hay in hays {
            for ci in [false, true] {
                find_iter_agrees(pattern, hay, ci).unwrap();
            }
        }
    }
}

/// `count_matches` runs on the DFA wherever the pattern determinizes; the
/// Pike VM behind `find_iter` is its oracle.
fn count_agrees_with_vm(pattern: &str, haystack: &str, ci: bool) -> Result<(), String> {
    let both = compile_both(pattern, ci);
    prop_assume!(both.is_some());
    let (engine, _) = both.expect("checked");
    prop_assert_eq!(
        engine.count_matches(haystack),
        engine.find_iter(haystack).count(),
        "pattern {pattern} (ci {ci}, dfa {}) on {haystack:?}",
        engine.counts_with_dfa()
    );
    Ok(())
}

#[test]
fn count_matches_equals_find_iter_count() {
    let inputs = gen::zip3(arb_alt_pattern(), haystack_gen(24), arb_ci());
    check_cases(
        "count_matches_equals_find_iter_count",
        2048,
        &inputs,
        |(pattern, haystack, ci)| count_agrees_with_vm(pattern, haystack, *ci),
    );
}

/// Haystacks of runs up to 40 long of characters most patterns cannot
/// begin with, including a line separator, between short pieces: the
/// runs the DFA's count loop passes over in an idle start state.
fn long_run_haystack_gen() -> Gen<String> {
    let run = Gen::select(vec![
        "z", "Z", "-", " ", "\n", "_", "0", "é", "\u{a0}", "\u{2028}",
    ])
    .zip(gen::int_in(1usize..=40))
    .map(|(c, n)| c.repeat(n));
    let piece = gen::string_from("abcxAB01 _é\u{a0}\n", 1..=3);
    gen::concat(Gen::weighted(vec![(1, run), (1, piece)]), 0..=5)
}

#[test]
fn count_matches_equals_find_iter_count_on_long_runs() {
    let inputs = gen::zip3(arb_alt_pattern(), long_run_haystack_gen(), arb_ci());
    check_cases(
        "count_matches_equals_find_iter_count_on_long_runs",
        1024,
        &inputs,
        |(pattern, haystack, ci)| count_agrees_with_vm(pattern, haystack, *ci),
    );
}

/// The count loop passes over bytes that keep an idle start state idle,
/// then lands in the state the run's last byte leads to. Each pattern
/// determinizes, so its count runs on that loop; it must equal the VM's
/// `find_iter` count and the backtracking reference's.
#[test]
fn count_after_idle_runs() {
    let hays = [
        // `\b`/`\B` after a run ending in a word char, then a non-word one.
        "zzzzzzzzzzzzab",
        "zzzzzzzz----ab",
        "--------zzzzab",
        // Multi-byte chars inside a run: a word char, `\s`, a line
        // separator.
        "zzzzzézzzzzab zzzzz\u{a0}zzzzzab",
        "-----\u{a0}-----a ----\u{2028}----b",
        "zzzz\u{2028}ab\u{2028}zzzzzzzzzzzzzz\u{2028}",
        "éééééééa----ééééb",
        // A match at offset 0, and one ending at end-of-input.
        "ab--------------------------ab",
        "a zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzb",
        // Restarts right after a match inside a run.
        "zzzzabzzzzabzzzzabab----ab----",
        "----ab----ab\nab\nzzzzzzzzzzzz",
    ];
    let patterns = [
        "ab",
        "a",
        r"\ba",
        r"\Ba",
        r"[ab]+\b",
        r"\B[ab]",
        r"\bab\b",
        r"b$",
        r"[ab]+$",
        r"^a",
        r"a\s?b",
        r"[a-cé]+",
        r"a|b\B",
    ];
    for pattern in patterns {
        for ci in [false, true] {
            let (engine, ast) = compile_both(pattern, ci).expect("valid pattern");
            assert!(
                engine.counts_with_dfa(),
                "{pattern} (ci {ci}) stays on the VM"
            );
            for hay in hays {
                count_agrees_with_vm(pattern, hay, ci).unwrap();
                assert_eq!(
                    engine.count_matches(hay),
                    reference_find_all(&ast, hay).len(),
                    "pattern {pattern} (ci {ci}) on {hay:?}"
                );
            }
        }
    }
}

/// After a run of word chars the scan must resume in the start state of a
/// word char: `\B` holds before the `a` of `zzzzzza`, `\b` does not.
#[test]
fn regression_count_start_state_after_skipped_run() {
    for (pattern, expected) in [(r"\Ba", 1), (r"\ba", 0), (r"\B[ab]", 1), (r"[ab]\b", 1)] {
        for ci in [false, true] {
            let p = if ci {
                Pattern::case_insensitive(pattern)
            } else {
                Pattern::new(pattern)
            }
            .unwrap();
            assert!(p.counts_with_dfa());
            assert_eq!(
                p.count_matches("zzzzzzzza"),
                expected,
                "{pattern} (ci {ci})"
            );
            count_agrees_with_vm(pattern, "zzzzzzzza", ci).unwrap();
        }
    }
}

/// A set-based DFA sees one match `abcd`-wide; the VM's leftmost-longest
/// iteration finds `ab`, then `c`.
#[test]
fn regression_count_keeps_thread_priority() {
    assert!(Pattern::new("ab|bcd|c").unwrap().counts_with_dfa());
    assert_eq!(Pattern::new("ab|bcd|c").unwrap().count_matches("abcd"), 2);
    count_agrees_with_vm("ab|bcd|c", "abcd", false).unwrap();
}

/// A `\b` after a run of chars that start nothing: a scan that skips such
/// chars must still know the previous char's word class.
#[test]
fn regression_count_word_boundary_after_idle_run() {
    let p = Pattern::new(r"[ab]?\b[ab]+").unwrap();
    assert!(p.counts_with_dfa());
    assert_eq!(p.count_matches("Aac\naB"), 1);
    count_agrees_with_vm(r"[ab]?\b[ab]+", "Aac\naB", false).unwrap();
}

/// The VM skips `Aac\n` at the start (only `a` or `b` can begin a match)
/// and must clear the closure marks left at position 0: `\b` holds before
/// the second line's `a`, not after its `a`.
#[test]
fn regression_find_iter_word_boundary_after_idle_run() {
    let p = Pattern::new(r"[ab]?\b[ab]+").unwrap();
    let spans: Vec<(usize, usize)> = p.find_iter("Aac\naB").map(|m| (m.start, m.end)).collect();
    assert_eq!(spans, [(4, 5)]);
    find_iter_agrees(r"[ab]?\b[ab]+", "Aac\naB", false).unwrap();
}
