//! Differential test of the heuristic view against the flat-event
//! computation it replaced.
//!
//! `SubtreeView` fills SD's offsets, RP's adjacent pairs and the
//! occurrence counts in one pass over the subtree's start tags, reading
//! text as arena slices between tag offsets. The reference below instead
//! rebuilds the subtree as a flat list of tag and text events through the
//! tree's public node API (`children`, `inner_text`, `trailing_text`) and
//! runs the old per-heuristic scans over it by string compare. Both must
//! agree exactly: on every domain's initial and test corpora at two seeds,
//! on the adversarial corpus, and on random tag soup, for uncapped and
//! capped views.

use rbd_corpus::adversarial::{generate_adversarial, AttackKind};
use rbd_corpus::{initial_corpus, test_corpus, Domain};
use rbd_heuristics::rp::RepeatingPattern;
use rbd_heuristics::sd::{std_dev, StandardDeviation};
use rbd_heuristics::view::DEFAULT_CANDIDATE_THRESHOLD;
use rbd_heuristics::{Heuristic, HeuristicKind, Ranking, SubtreeView};
use rbd_prop::{check_cases, gen, Gen};
use rbd_tagtree::{NodeId, TagTree, TagTreeBuilder};

/// One event of the flattened subtree.
enum Flat<'t> {
    /// A start tag, with its depth below the subtree root (children = 1).
    Tag(&'t str, usize),
    /// A non-empty run of plain text.
    Text(&'t str),
}

/// The subtree of `id` in document order: every descendant start tag plus
/// every inner and trailing text run; the root's own tag is left out, its
/// inner text is not.
fn flatten(tree: &TagTree, id: NodeId) -> Vec<Flat<'_>> {
    enum Walk {
        Enter(NodeId, usize),
        Exit(NodeId),
    }
    let mut out = vec![Flat::Text(tree.inner_text(id))];
    let mut stack: Vec<Walk> = tree
        .node(id)
        .children
        .iter()
        .rev()
        .map(|&c| Walk::Enter(c, 1))
        .collect();
    while let Some(item) = stack.pop() {
        match item {
            Walk::Enter(n, depth) => {
                out.push(Flat::Tag(tree.name(n), depth));
                out.push(Flat::Text(tree.inner_text(n)));
                stack.push(Walk::Exit(n));
                stack.extend(
                    tree.node(n)
                        .children
                        .iter()
                        .rev()
                        .map(|&c| Walk::Enter(c, depth + 1)),
                );
            }
            Walk::Exit(n) => out.push(Flat::Text(tree.trailing_text(n))),
        }
    }
    out.retain(|ev| !matches!(ev, Flat::Text("")));
    out
}

/// The old string-keyed scans over the flat events, for the view's
/// candidate names.
struct Reference {
    /// Per candidate: cumulative character offsets of its occurrences.
    offsets: Vec<Vec<usize>>,
    /// Per candidate: occurrences anywhere in the subtree.
    occurrences: Vec<usize>,
    /// Adjacent candidate pairs by name, in first-appearance order.
    pairs: Vec<(String, String, usize)>,
}

fn reference(view: &SubtreeView<'_>) -> Reference {
    let flat = flatten(view.tree(), view.root());
    let names: Vec<&str> = view.candidates().iter().map(|c| c.name.as_str()).collect();
    let is_candidate = |tag: &str| names.contains(&tag);

    let mut offsets = vec![Vec::new(); names.len()];
    let mut cum = 0usize;
    for ev in &flat {
        match ev {
            Flat::Tag(name, _) => {
                if let Some(i) = names.iter().position(|n| n == name) {
                    offsets[i].push(cum);
                }
            }
            Flat::Text(text) => cum += text.chars().count(),
        }
    }

    let occurrences = names
        .iter()
        .map(|tag| {
            flat.iter()
                .filter(|ev| matches!(ev, Flat::Tag(name, _) if name == tag))
                .count()
        })
        .collect();

    let mut pairs: Vec<(String, String, usize)> = Vec::new();
    let mut prev: Option<&str> = None;
    for ev in &flat {
        match ev {
            Flat::Tag(name, _) => {
                if let Some(a) = prev {
                    if is_candidate(a) && is_candidate(name) {
                        match pairs.iter_mut().find(|(x, y, _)| x == a && y == name) {
                            Some(entry) => entry.2 += 1,
                            None => pairs.push((a.to_owned(), (*name).to_owned(), 1)),
                        }
                    }
                }
                prev = Some(name);
            }
            Flat::Text(text) => {
                if !text.chars().all(char::is_whitespace) {
                    prev = None;
                }
            }
        }
    }
    Reference {
        offsets,
        occurrences,
        pairs,
    }
}

/// Byte offsets into the subtree text of the root's children, with their
/// names, in document order.
fn reference_child_offsets(flat: &[Flat<'_>]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut cum = 0usize;
    for ev in flat {
        match ev {
            Flat::Tag(name, 1) => out.push(((*name).to_owned(), cum)),
            Flat::Tag(..) => {}
            Flat::Text(text) => cum += text.len(),
        }
    }
    out
}

/// The old RP ranking, by name.
fn reference_rp(view: &SubtreeView<'_>, reference: &Reference) -> Option<Ranking> {
    let names: Vec<&str> = view.candidates().iter().map(|c| c.name.as_str()).collect();
    let occurrences = |tag: &str| {
        names
            .iter()
            .position(|n| *n == tag)
            .map_or(0, |i| reference.occurrences[i])
    };
    let lowest = reference.occurrences.iter().copied().min()? as f64;
    let min_count = RepeatingPattern::default().threshold * lowest;
    let mut best: Vec<(String, f64)> = Vec::new();
    let mut note = |tag: &str, diff: f64| match best.iter_mut().find(|(t, _)| t == tag) {
        Some((_, d)) => *d = d.min(diff),
        None => best.push((tag.to_owned(), diff)),
    };
    for (a, b, n) in &reference.pairs {
        let n = *n as f64;
        if n <= min_count {
            continue;
        }
        note(a, (n - occurrences(a) as f64).abs());
        note(b, (n - occurrences(b) as f64).abs());
    }
    (!best.is_empty()).then(|| Ranking::from_scores(HeuristicKind::RP, best, true))
}

/// A ranking's entries with scores as bits, so equal means bit-identical.
fn bits(ranking: Option<Ranking>) -> Option<Vec<(String, usize, u64)>> {
    ranking.map(|r| {
        r.entries
            .into_iter()
            .map(|e| (e.tag, e.rank, e.score.to_bits()))
            .collect()
    })
}

/// Asserts that `view` equals the reference on every table and every
/// score derived from them.
fn assert_view_matches(view: &SubtreeView<'_>, what: &str) {
    let reference = reference(view);
    let name = |slot: usize| view.candidates()[slot].name.clone();

    assert_eq!(
        view.text_offsets(),
        &reference.offsets[..],
        "{what}: SD offsets"
    );
    let occurrences: Vec<usize> = (0..view.candidates().len())
        .map(|slot| view.occurrences(slot))
        .collect();
    assert_eq!(occurrences, reference.occurrences, "{what}: occurrences");
    let pairs: Vec<(String, String, usize)> = view
        .adjacent_pairs()
        .iter()
        .map(|p| (name(p.first), name(p.second), p.count))
        .collect();
    assert_eq!(pairs, reference.pairs, "{what}: RP pairs");

    let sd_scores = view
        .candidates()
        .iter()
        .zip(&reference.offsets)
        .map(|(c, offsets)| {
            let intervals: Vec<f64> = offsets.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            (c.name.clone(), std_dev(&intervals))
        })
        .collect();
    assert_eq!(
        bits(StandardDeviation.rank(view)),
        bits(Some(Ranking::from_scores(
            HeuristicKind::SD,
            sd_scores,
            true
        ))),
        "{what}: SD scores"
    );
    assert_eq!(
        bits(RepeatingPattern::default().rank(view)),
        bits(reference_rp(view, &reference)),
        "{what}: RP ranking"
    );

    let children = reference_child_offsets(&flatten(view.tree(), view.root()));
    let mut tags: Vec<&str> = children.iter().map(|(tag, _)| tag.as_str()).collect();
    tags.sort_unstable();
    tags.dedup();
    for tag in tags {
        let expected: Vec<usize> = children
            .iter()
            .filter(|(t, _)| t == tag)
            .map(|&(_, at)| at)
            .collect();
        assert_eq!(
            view.child_tag_text_byte_offsets(tag),
            expected,
            "{what}: child byte offsets of <{tag}>"
        );
    }
}

/// Checks the uncapped and the capped view of `html` at both thresholds.
fn check_document(html: &str, what: &str) {
    let tree = TagTreeBuilder::default().build(html);
    for threshold in [DEFAULT_CANDIDATE_THRESHOLD, 0.0] {
        let mut view = SubtreeView::from_tree(&tree, threshold);
        assert_view_matches(&view, &format!("{what} at {threshold}"));
        view.cap_candidates(2);
        assert_view_matches(&view, &format!("{what} at {threshold}, capped"));
    }
}

#[test]
fn view_equals_reference_on_domain_corpora() {
    for domain in Domain::ALL {
        for seed in [1998, 1496] {
            let docs = initial_corpus(domain, seed)
                .into_iter()
                .chain(test_corpus(domain, seed));
            for (i, doc) in docs.enumerate() {
                check_document(&doc.html, &format!("{domain} seed {seed} doc {i}"));
            }
        }
    }
}

#[test]
fn view_equals_reference_on_adversarial_corpus() {
    const PER_KIND: usize = 12;
    for kind in AttackKind::ALL {
        for index in 0..PER_KIND {
            let html = generate_adversarial(kind, index, 0x0DD5_EED5_0DD5_EED5);
            check_document(&html, &format!("{kind:?} {index}"));
        }
    }
}

/// Tag soup over a few tags, with unclosed and orphan tags, entities,
/// multi-byte letters and the non-ASCII whitespace `char::is_whitespace`
/// accepts.
fn tag_soup() -> Gen<String> {
    let tag = || Gen::select(vec!["b", "i", "hr", "br", "td", "p", "a"]);
    let piece = Gen::one_of(vec![
        tag().map(|t| format!("<{t}>")),
        tag().map(|t| format!("</{t}>")),
        gen::string_from("ab é€😀 \n\t\u{a0}\u{2028}", 0..=6),
        Gen::select(vec!["&nbsp;", "&amp;", "<!-- c -->", " ", "\u{a0}"]).map(str::to_owned),
    ]);
    gen::concat(piece, 0..=60)
}

#[test]
fn view_equals_reference_on_tag_soup() {
    check_cases(
        "view_equals_reference_on_tag_soup",
        512,
        &tag_soup(),
        |src| {
            let outcome = std::panic::catch_unwind(|| check_document(src, "tag soup"));
            outcome.map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "view differs from the reference".to_owned())
            })
        },
    );
}

/// The named pairs of `html`'s view at the default threshold.
fn pairs_of(html: &str) -> Vec<(String, String, usize)> {
    let tree = TagTreeBuilder::default().build(html);
    let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
    assert_view_matches(&view, html);
    let name = |slot: usize| view.candidates()[slot].name.clone();
    view.adjacent_pairs()
        .iter()
        .map(|p| (name(p.first), name(p.second), p.count))
        .collect()
}

#[test]
fn non_ascii_whitespace_between_tags_keeps_the_pair() {
    // U+00A0 (also what `&nbsp;` decodes to) and U+2028 are whitespace
    // to `char::is_whitespace`, so `<hr>` and `<b>` stay adjacent.
    let pairs =
        pairs_of("<td><hr>\u{a0}<b>x</b>one<hr>\u{2028}<b>y</b>two<hr>&nbsp;<b>z</b>three</td>");
    assert_eq!(pairs, vec![("hr".to_owned(), "b".to_owned(), 3)]);
}

#[test]
fn multibyte_text_counts_characters_in_sd_intervals() {
    // Each record holds 4 characters but 4, 8, 8 and 16 bytes.
    let tree = TagTreeBuilder::default().build("<td><hr>abcd<hr>éüöä<hr>€€ab<hr>😀😀😀😀<hr></td>");
    let view = SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD);
    assert_view_matches(&view, "multi-byte intervals");
    let hr = view.slot("hr").expect("hr is a candidate");
    assert_eq!(view.text_offsets()[hr], vec![0, 4, 8, 12, 16]);
    let sd = StandardDeviation.rank(&view).expect("SD ranks");
    assert_eq!(sd.entries[0].score.to_bits(), 0f64.to_bits());
}

#[test]
fn non_candidate_tag_between_candidates_breaks_the_pair() {
    // `<i>` is one child in 11, below the 10 % threshold, yet it is a tag:
    // `<hr><i></i><b>` is no `<hr><b>` pair.
    let pairs = pairs_of(
        "<td><hr><b>a</b>x<hr><b>b</b>y<hr><i></i><b>c</b>z<hr><b>d</b>w<hr><b>e</b>v</td>",
    );
    assert_eq!(pairs, vec![("hr".to_owned(), "b".to_owned(), 4)]);
}
