//! Regression property tests: arbitrarily malformed HTML must never panic
//! anywhere in the streaming tokenize → tree-build pass, and the resulting
//! tree must be well-formed (parent/child links agree, regions nest, node
//! count matches the start-tag count) and equal the two-pass oracle's.
//!
//! These complement the builder's inline property tests with generators
//! biased toward the specific malformations the panic-freedom audit
//! targets: orphan end-tags, unterminated comments, truncated entities,
//! and misclosed tag nesting.

mod oracle;

use rbd_prop::{check, gen, Gen};
use rbd_tagtree::{TagTreeBuilder, TreeBudget};
use rbd_trace::NullSink;

/// Checks every structural invariant the tree promises, panicking (and thus
/// failing the property — the runner catches and minimizes panics) if any
/// is violated.
fn assert_well_formed(src: &str) {
    let (tree, stats) = TagTreeBuilder::new()
        .try_build(src, &NullSink)
        .expect("unbudgeted builds always succeed");
    assert_eq!(
        Ok((oracle::flatten(&tree), stats)),
        oracle::build(src, false, &TreeBudget::unbounded()),
        "streaming build differs from the oracle for {src:?}"
    );
    assert_eq!(
        tree.len(),
        stats.start_tags + 1,
        "node count != start tags + root for {src:?}"
    );
    assert_eq!(tree.name(tree.root()), "#root");
    for id in tree.ids() {
        let node = tree.node(id);
        for &c in &node.children {
            assert_eq!(tree.node(c).parent, Some(id), "parent link for {src:?}");
            assert!(
                node.region.encloses(tree.node(c).region),
                "child region escapes parent for {src:?}"
            );
        }
        // Span::slice is total: out-of-bounds or non-boundary spans yield "".
        let _ = node.region.slice(src);
        let _ = node.start_tag.slice(src);
    }
    // The infallible API agrees with the fallible one on real documents.
    assert_eq!(TagTreeBuilder::new().build(src).len(), tree.len());
}

fn well_formed(src: &str) -> Result<(), String> {
    assert_well_formed(src);
    Ok(())
}

/// Tag names the generators draw from — the paper's own repertoire.
fn arb_tag() -> Gen<&'static str> {
    Gen::select(vec![
        "b", "i", "hr", "br", "td", "tr", "p", "h1", "table", "ul", "li",
    ])
}

fn lowercase_text() -> Gen<String> {
    gen::string_from("abcdefghijklmnopqrstuvwxyz ", 0..=8)
}

/// Documents saturated with end-tags that have no matching start-tag.
fn arb_orphan_ends() -> Gen<String> {
    let piece = Gen::weighted(vec![
        (3, arb_tag().map(|t| format!("</{t}>"))),
        (1, arb_tag().map(|t| format!("<{t}>"))),
        (1, lowercase_text()),
    ]);
    gen::concat(piece, 0..=30)
}

/// Documents whose comments, CDATA and declarations are cut off mid-way.
fn arb_unterminated_comments() -> Gen<String> {
    let piece = Gen::one_of(vec![
        Gen::just("<!-- open".to_owned()),
        Gen::just("<!--".to_owned()),
        Gen::just("-->".to_owned()),
        Gen::just("<![CDATA[ stuck".to_owned()),
        Gen::just("<!DOCTYPE html".to_owned()),
        Gen::just("<?pi never closed".to_owned()),
        arb_tag().map(|t| format!("<{t}>")),
        lowercase_text(),
    ]);
    gen::concat(piece, 0..=30)
}

/// Documents full of truncated and invalid character references.
fn arb_truncated_entities() -> Gen<String> {
    let piece = Gen::one_of(vec![
        Gen::just("&".to_owned()),
        Gen::just("&#".to_owned()),
        Gen::just("&#x".to_owned()),
        Gen::just("&amp".to_owned()),
        Gen::just("&#xD800;".to_owned()),
        Gen::just("&bogus;".to_owned()),
        Gen::just("&#99999999;".to_owned()),
        arb_entity_fragment(),
        arb_tag().map(|t| format!("<{t}>")),
        lowercase_text(),
    ]);
    gen::concat(piece, 0..=30)
}

/// Random partial character references: `&#?x?[0-9A-Fa-f]{0,4};?`.
fn arb_entity_fragment() -> Gen<String> {
    let digits = gen::string_from("0123456789ABCDEFabcdef", 0..=4);
    Gen::new({
        let digits = digits;
        move |rng| {
            let mut s = String::from("&");
            if rng.random_bool(0.5) {
                s.push('#');
            }
            if rng.random_bool(0.5) {
                s.push('x');
            }
            s.push_str(&digits.generate(rng));
            if rng.random_bool(0.5) {
                s.push(';');
            }
            s
        }
    })
}

/// Well-formed-looking tags closed in the wrong order (`<b><i></b></i>`) or
/// truncated mid-tag.
fn arb_misclosed_nesting() -> Gen<String> {
    let piece = Gen::weighted(vec![
        (2, arb_tag().map(|t| format!("<{t}>"))),
        (2, arb_tag().map(|t| format!("</{t}>"))),
        (1, arb_tag().map(|t| format!("<{t} attr=\"unterminated"))),
        (1, arb_tag().map(|t| format!("<{t}"))),
        (1, lowercase_text()),
    ]);
    gen::concat(piece, 0..=40)
}

/// Arbitrary UTF-8 — the harshest generator; no HTML structure at all.
fn arb_noise() -> Gen<String> {
    gen::unicode_string(0..=64)
}

#[test]
fn orphan_end_tags_never_panic() {
    check("orphan_end_tags_never_panic", &arb_orphan_ends(), |s| {
        well_formed(s)
    });
}

#[test]
fn unterminated_comments_never_panic() {
    check(
        "unterminated_comments_never_panic",
        &arb_unterminated_comments(),
        |s| well_formed(s),
    );
}

#[test]
fn truncated_entities_never_panic() {
    check(
        "truncated_entities_never_panic",
        &arb_truncated_entities(),
        |s| well_formed(s),
    );
}

#[test]
fn misclosed_nesting_never_panics() {
    check(
        "misclosed_nesting_never_panics",
        &arb_misclosed_nesting(),
        |s| well_formed(s),
    );
}

#[test]
fn arbitrary_text_never_panics() {
    check("arbitrary_text_never_panics", &arb_noise(), |s| {
        well_formed(s)
    });
}

/// Entity decoding itself is total over arbitrary strings.
#[test]
fn decode_entities_total() {
    check("decode_entities_total", &arb_noise(), |src: &String| {
        let _ = rbd_html::decode_entities(src);
        Ok(())
    });
}

/// The XML tokenizer is total too (footnote-1 mode).
#[test]
fn xml_mode_never_panics() {
    check(
        "xml_mode_never_panics",
        &arb_misclosed_nesting(),
        |src: &String| {
            let _ = rbd_html::tokenize_xml(src);
            let _ = TagTreeBuilder::new().xml().build(src);
            Ok(())
        },
    );
}

/// Deterministic regressions distilled from the generators — kept as plain
/// tests so they run on every `cargo test` regardless of the generators.
#[test]
fn known_nasty_inputs() {
    for src in [
        "</b></b></b>",
        "<!-- never closed",
        "<![CDATA[ stuck",
        "&#xD800;&#&amp&",
        "<b><i></b></i>",
        "<a href=\"unterminated",
        "<b",
        "</",
        "<",
        "<3",
        "<!",
        "\u{0}\u{0}<p>\u{0}",
        "<table><tr><td><hr><b></td>text</b></table>trailing",
    ] {
        assert_well_formed(src);
    }
}
