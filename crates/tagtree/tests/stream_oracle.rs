//! Differential test of the streaming tag-tree builder against the
//! two-pass oracle it replaced (`oracle/mod.rs`): normalize the whole
//! token stream into a balanced event list, then replay it into a tree.
//!
//! Both drivers of the shipped builder — `try_build`, which tokenizes
//! straight into it, and `try_build_from_tokens`, which replays a token
//! stream — must equal the oracle node for node (name, parent, children,
//! region, start tag, inner and trailing spans), in the text arena, in
//! the normalization counts, and in every budget error (kind, cap,
//! observed), over the generated corpora, the adversarial classes, random
//! tag soup in HTML and XML, and four budgets.

mod oracle;

use oracle::{arb_soup, flatten, normalize_tokens, render, FlatTree};
use rbd_corpus::adversarial::{generate_adversarial, AttackKind};
use rbd_corpus::{generate_document, initial_corpus, sites, test_corpus, Domain};
use rbd_html::{tokenize, tokenize_xml};
use rbd_limits::LimitKind;
use rbd_prop::{check_cases, prop_assert_eq};
use rbd_tagtree::{NormalizeStats, TagTreeBuilder, TreeBudget, TreeError};
use rbd_trace::{CollectingSink, NullSink, TraceEvent};

/// The budgets every input is built under: none, the caps of
/// `rbd_core::Limits::default()` and `Limits::strict()`, and caps small
/// enough that corpus pages trip them.
fn budgets() -> [(&'static str, TreeBudget); 4] {
    [
        ("unbounded", TreeBudget::unbounded()),
        (
            "default",
            TreeBudget {
                max_input_bytes: Some(64 * 1024 * 1024),
                max_nodes: Some(4 * 1024 * 1024),
                max_depth: Some(65_536),
            },
        ),
        ("strict", strict()),
        (
            "tiny",
            TreeBudget {
                max_input_bytes: Some(16 * 1024),
                max_nodes: Some(120),
                max_depth: Some(7),
            },
        ),
    ]
}

/// The tree caps of `rbd_core::Limits::strict()`.
fn strict() -> TreeBudget {
    TreeBudget {
        max_input_bytes: Some(2 * 1024 * 1024),
        max_nodes: Some(65_536),
        max_depth: Some(256),
    }
}

type Built = Result<(FlatTree, NormalizeStats), TreeError>;

fn shipped(source: &str, xml: bool, budget: TreeBudget) -> Built {
    let builder = TagTreeBuilder::new().with_budget(budget);
    let builder = if xml { builder.xml() } else { builder };
    builder
        .try_build(source, &NullSink)
        .map(|(tree, stats)| (flatten(&tree), stats))
}

fn replayed(source: &str, xml: bool, budget: TreeBudget) -> Built {
    let tokens = if xml {
        tokenize_xml(source)
    } else {
        tokenize(source)
    };
    TagTreeBuilder::new()
        .with_budget(budget)
        .try_build_from_tokens(source.len(), &tokens)
        .map(|(tree, stats)| (flatten(&tree), stats))
}

/// Compares both drivers with the oracle under one budget; returns the
/// oracle's result.
fn agree(label: &str, source: &str, xml: bool, budget: TreeBudget) -> Built {
    let expected = oracle::build(source, xml, &budget);
    assert_eq!(shipped(source, xml, budget), expected, "{label}: try_build");
    if budget.max_input_bytes.is_none_or(|cap| source.len() <= cap) {
        assert_eq!(
            replayed(source, xml, budget),
            expected,
            "{label}: try_build_from_tokens"
        );
    }
    expected
}

/// Compares under every budget, in HTML and in XML.
fn agree_everywhere(label: &str, source: &str) {
    for xml in [false, true] {
        for (name, budget) in budgets() {
            let _ = agree(&format!("{label} xml {xml} {name}"), source, xml, budget);
        }
    }
}

fn err_of(built: &Built) -> Option<(LimitKind, usize, usize)> {
    match built {
        Err(TreeError::Limit(e)) => Some((e.limit, e.cap, e.observed)),
        Err(TreeError::TooManyNodes) | Ok(_) => None,
    }
}

#[test]
fn generated_corpora_build_like_the_oracle() {
    for seed in [1998, 1496] {
        for domain in Domain::ALL {
            for doc in initial_corpus(domain, seed)
                .into_iter()
                .chain(test_corpus(domain, seed))
            {
                let label = format!("{} #{} seed {seed}", doc.site, doc.doc_index);
                agree_everywhere(&label, &doc.html);
            }
        }
    }
}

#[test]
fn adversarial_corpus_builds_like_the_oracle() {
    const SEED: u64 = 0x0DD5_EED5_0DD5_EED5;
    for kind in AttackKind::ALL {
        for index in 0..12 {
            let doc = generate_adversarial(kind, index, SEED);
            agree_everywhere(&format!("{kind:?}#{index}"), &doc);
        }
    }
}

/// How many soups each dialect checks: the debug run (part of the
/// ordinary workspace test pass) stays fast, the release run covers more.
const SOUPS: u32 = if cfg!(debug_assertions) { 400 } else { 4_000 };

#[test]
fn random_soup_builds_like_the_oracle() {
    for xml in [false, true] {
        check_cases(
            "random_soup_builds_like_the_oracle",
            SOUPS,
            &arb_soup(),
            |src| {
                for (name, budget) in budgets() {
                    let tiny_depth = TreeBudget {
                        max_depth: Some(2),
                        ..TreeBudget::unbounded()
                    };
                    let tiny_nodes = TreeBudget {
                        max_nodes: Some(8),
                        ..TreeBudget::unbounded()
                    };
                    for budget in [budget, tiny_depth, tiny_nodes] {
                        let expected = oracle::build(src, xml, &budget);
                        prop_assert_eq!(
                            shipped(src, xml, budget),
                            expected.clone(),
                            "{name} xml {xml}: {src:?}"
                        );
                        prop_assert_eq!(replayed(src, xml, budget), expected, "{name}: {src:?}");
                    }
                }
                Ok(())
            },
        );
    }
}

#[test]
fn named_regressions_build_like_the_oracle() {
    for src in [
        "",
        "plain text",
        "<b>x</b>",
        // A `<br>` chain recovered at `</td>`: each `<br>` is a leaf whose
        // region ends at the next tag, every one a child of `td`.
        "<table><tr><td><br>a<br>b<br>c<br>d</td></tr></table>",
        "<td><br>text<hr>more</td>",
        // Unclosed at EOF: `<html>` covers only itself.
        "<html><body>text",
        // Misnesting: `</b>` recovers `<i>`, then `</i>` is an orphan.
        "<b>x<i>y</b>z</i>w",
        "<b>x<i>y",
        "<td><b>bold<i>it</i></td>",
        "<ul><li>a<li>b<li>c</ul>",
        "<p><br/>x</p>",
        "<x><x><x></x>",
        "<a><b></parent>",
        "<b>x<!-- c -->y<i>",
        "<b>x<!-- c -->",
        "<td><b>a &amp; b</b> c &lt; d<br>e&nbsp;f</td>",
        "<p>a</b>b</p>",
        "<table><tr><td><hr><b></td>text</b></table>trailing",
    ] {
        agree_everywhere(&format!("{src:?}"), src);
    }
}

/// Normalization inserts the paper's end-tags where Appendix A puts them;
/// the shipped tree equals the tree these events build.
#[test]
fn oracle_events_place_end_tags_at_l() {
    for (src, balanced, inserted, orphans) in [
        (
            "<html><body>x</body></html>",
            "<html><body>x</body></html>",
            0,
            0,
        ),
        (
            "<td><br>text<hr>more</td>",
            "<td><br>text</br*><hr>more</hr*></td>",
            2,
            0,
        ),
        (
            "<td><b>bold<i>it</i></td>",
            "<td><b>bold</b*><i>it</i></td>",
            1,
            0,
        ),
        ("<p>a</b>b</p>", "<p>ab</p>", 0, 1),
        ("<p><!-- hi -->a</p>", "<p>a</p>", 0, 0),
        ("<html><body>text", "<html></html*><body>text</body*>", 2, 0),
        ("<b>x<i>y", "<b>x</b*><i>y</i*>", 2, 0),
        ("<p><br/>x</p>", "<p><br></br>x</p>", 0, 0),
        ("<b>x<i>y</b>z</i>w", "<b>x<i>y</i*></b>zw", 1, 1),
        (
            "<ul><li>a<li>b<li>c</ul>",
            "<ul><li>a</li*><li>b</li*><li>c</li*></ul>",
            3,
            0,
        ),
        ("just words", "just words", 0, 0),
    ] {
        let tokens = tokenize(src);
        let (events, stats, _) = normalize_tokens(&tokens);
        assert_eq!(render(&events, &tokens.symbols), balanced, "{src:?}");
        assert_eq!(
            (stats.end_tags_inserted, stats.orphan_end_tags),
            (inserted, orphans),
            "{src:?}"
        );
        let (_, shipped_stats) = TagTreeBuilder::new().try_build(src, &NullSink).unwrap();
        assert_eq!(shipped_stats, stats, "{src:?}");
        let _ = agree(src, src, false, TreeBudget::unbounded());
    }
}

/// The budget is checked in preorder on the final tree: a node too deep
/// before the node cap is reached wins over the node cap, and a node too
/// deep after it does not.
#[test]
fn a_depth_error_before_the_node_cap_wins() {
    let budget = TreeBudget {
        max_nodes: Some(6),
        max_depth: Some(2),
        ..TreeBudget::unbounded()
    };
    // The third node sits at depth 3; the node cap trips at the sixth.
    let deep_first = "<a><b><c></c></b></a><p><p><p><p><p>";
    let built = agree("deep first", deep_first, false, budget);
    assert_eq!(err_of(&built), Some((LimitKind::NestingDepth, 2, 3)));
    // The deep node comes after the node cap.
    let deep_last = "<p><p><p><p><p><p><a><b><c></c></b></a>";
    let built = agree("deep last", deep_last, false, budget);
    assert_eq!(err_of(&built), Some((LimitKind::TreeNodes, 6, 7)));
    // A node that is deep only on the open-tag stack: `</a>` recovers
    // every `<p>`, so the `<b>` after them sits at depth 2, and the node
    // cap trips first.
    let shallow = "<a><p><p><p><p></a><b><c>";
    let built = agree("shallow", shallow, false, budget);
    assert_eq!(err_of(&built), Some((LimitKind::TreeNodes, 6, 7)));
    // Whether an early node is too deep can be settled only after the
    // node cap: `</b></a>` close `<b>` and `<a>` for real, so `<c>` sits
    // at depth 3; without them, recovery closes each of `<a>` and `<b>`
    // before the next tag, and `<c>` sits at depth 1.
    let settled_late = "<a><b><c><p><p><p><p></b></a>";
    let built = agree("settled late", settled_late, false, budget);
    assert_eq!(err_of(&built), Some((LimitKind::NestingDepth, 2, 3)));
    let never_settled = "<a><b><c><p><p><p><p>";
    let built = agree("never settled", never_settled, false, budget);
    assert_eq!(err_of(&built), Some((LimitKind::TreeNodes, 6, 7)));
}

/// A large listing page whose unclosed `<br>`/`<hr>`/`<b>` tags pile up
/// thousands deep on the open-tag stack builds under the strict 256-depth
/// cap, because depth is checked on the final tree.
#[test]
fn enlarged_page_builds_under_the_strict_depth_cap() {
    // The Seattle Times style: its open-tag stack grows fastest per record.
    let mut style = sites::initial_sites(Domain::Obituaries)[4].clone();
    style.records = (600, 650);
    let page = generate_document(&style, Domain::Obituaries, 0, 1998).html;
    let (_, _, deepest) = normalize_tokens(&tokenize(&page));
    assert!(deepest > 1_000, "the open-tag stack reaches {deepest}");
    let built = agree("enlarged page", &page, false, strict());
    let (tree, _) = built.expect("builds under the strict caps");
    assert!(tree.nodes.len() > 2_000, "{} nodes", tree.nodes.len());
}

/// The `Tokenized` event carries what the tokenizer produced, counted as
/// the tokens stream into the builder.
#[test]
fn tokenized_event_counts_the_token_stream() {
    let docs = [
        "<!DOCTYPE html><html><body><p a=\"x>y</p>1 < 2 <b>x</b></i><!-- c",
        "<title>T</title><script>if (a<b) {}</script><p>x",
    ];
    for doc in docs {
        let tokens = tokenize(doc);
        let sink = CollectingSink::new();
        TagTreeBuilder::new().try_build(doc, &sink).unwrap();
        let tokenized = sink.events().into_iter().find_map(|e| match e {
            TraceEvent::Tokenized {
                bytes,
                tokens,
                tags,
                warnings,
            } => Some((bytes, tokens, tags, warnings)),
            _ => None,
        });
        assert_eq!(
            tokenized,
            Some((
                doc.len(),
                tokens.tokens.len(),
                tokens.tags().count(),
                tokens.warnings.len()
            )),
            "{doc:?}"
        );
    }
}
