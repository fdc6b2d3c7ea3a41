//! Equivalence testing of the tag-tree builder against an independent,
//! deliberately naive reference implementation of Appendix A.
//!
//! The shipped builder normalizes and builds in one streaming pass with
//! O(1) bookkeeping per tag; the reference below materializes the
//! normalized document, re-scanning and `Vec::insert`ing at every recovery
//! pop (quadratic, but indisputably the algorithm as written), then
//! replays it into a tree. Property tests check that both build the same
//! tree — names, links, inner and trailing text — on arbitrary tag soup.

mod oracle;

use oracle::arb_soup;
use rbd_html::{tokenize, Token};
use rbd_prop::{check_cases, prop_assert, prop_assert_eq};
use rbd_tagtree::{NodeId, TagTree, TagTreeBuilder};
use std::time::{Duration, Instant};

/// Reference event: name + start/end/text discriminator, no spans.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RefEvent {
    Start(String),
    End(String),
    Text(String),
}

/// The reference normalizer: literal Appendix A with immediate insertion.
fn normalize_reference(source: &str) -> Vec<RefEvent> {
    let tokens = tokenize(source);
    let mut events: Vec<RefEvent> = Vec::new();
    // Stack of (tag name, index of its Start event in `events`).
    let mut stack: Vec<(String, usize)> = Vec::new();

    // Index where a synthetic end for the start at `start_idx` belongs:
    // just before the first tag event after it, else at the end.
    fn anchor(events: &[RefEvent], start_idx: usize) -> usize {
        for (i, ev) in events.iter().enumerate().skip(start_idx + 1) {
            if matches!(ev, RefEvent::Start(_) | RefEvent::End(_)) {
                return i;
            }
        }
        events.len()
    }

    for tok in &tokens.tokens {
        let name = tok
            .tag_name(&tokens.symbols)
            .map(str::to_owned)
            .unwrap_or_default();
        match tok {
            Token::Comment(_) | Token::Doctype(_) | Token::ProcessingInstruction(_) => {}
            Token::Text(t) => events.push(RefEvent::Text(t.text().into_owned())),
            Token::Start(t) => {
                events.push(RefEvent::Start(name.clone()));
                if t.self_closing {
                    events.push(RefEvent::End(name));
                } else {
                    stack.push((name, events.len() - 1));
                }
            }
            Token::End(_) => {
                let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) else {
                    continue; // orphan end tag: discard
                };
                while stack.len() > pos + 1 {
                    let (popped, start_idx) = stack.pop().expect("len > pos+1");
                    let at = anchor(&events, start_idx);
                    events.insert(at, RefEvent::End(popped));
                    // Insertion may shift indices recorded on the stack;
                    // fix up any start index at or after the insertion.
                    for (_, idx) in stack.iter_mut() {
                        if *idx >= at {
                            *idx += 1;
                        }
                    }
                }
                stack.pop();
                events.push(RefEvent::End(name));
            }
        }
    }
    while let Some((name, start_idx)) = stack.pop() {
        let at = anchor(&events, start_idx);
        events.insert(at, RefEvent::End(name));
        for (_, idx) in stack.iter_mut() {
            if *idx >= at {
                *idx += 1;
            }
        }
    }
    events
}

/// A node as the reference events determine it: name, links and text.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefNode {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    inner: String,
    trailing: String,
}

/// Appendix A step 3 over the reference events: each `Start` opens a
/// child of the innermost open node, text after a `Start` is its inner
/// text and text after an `End` its trailing text.
fn replay(events: &[RefEvent]) -> Vec<RefNode> {
    let mut nodes = vec![RefNode {
        name: "#root".to_owned(),
        parent: None,
        children: Vec::new(),
        inner: String::new(),
        trailing: String::new(),
    }];
    let mut stack = vec![0];
    let mut attach = (0, true);
    for ev in events {
        match ev {
            RefEvent::Start(name) => {
                let parent = *stack.last().expect("the root stays open");
                let id = nodes.len();
                nodes.push(RefNode {
                    name: name.clone(),
                    parent: Some(parent),
                    children: Vec::new(),
                    inner: String::new(),
                    trailing: String::new(),
                });
                nodes[parent].children.push(id);
                stack.push(id);
                attach = (id, true);
            }
            RefEvent::End(_) => {
                let id = stack.pop().expect("balanced");
                attach = (id, false);
            }
            RefEvent::Text(text) => {
                let node = &mut nodes[attach.0];
                if attach.1 {
                    node.inner.push_str(text);
                } else {
                    node.trailing.push_str(text);
                }
            }
        }
    }
    nodes
}

/// The shipped tree, read as [`RefNode`]s.
fn nodes_of(tree: &TagTree) -> Vec<RefNode> {
    tree.ids()
        .map(|id| {
            let node = tree.node(id);
            RefNode {
                name: tree.name(id).to_owned(),
                parent: node.parent.map(NodeId::index),
                children: node.children.iter().map(|c| c.index()).collect(),
                inner: tree.inner_text(id).to_owned(),
                trailing: tree.trailing_text(id).to_owned(),
            }
        })
        .collect()
}

fn production(source: &str) -> Vec<RefNode> {
    nodes_of(&TagTreeBuilder::default().build(source))
}

fn assert_equivalent(source: &str) {
    let got = production(source);
    let expected = replay(&normalize_reference(source));
    assert_eq!(got, expected, "source: {source:?}");
}

#[test]
fn hand_picked_cases() {
    for src in [
        "",
        "plain text",
        "<b>x</b>",
        "<td><br>text<hr>more</td>",
        "<td><b>bold<i>it</i></td>",
        "<ul><li>a<li>b<li>c</ul>",
        "<b>x<i>y</b>z</i>w",
        "<html><body>text",
        "<b>x<i>y",
        "<a><b></parent>",
        "<table><tr><td><h1>F</h1><hr><b>L</b><br> died.<hr></td></tr></table>",
        "<p><br/>x</p>",
        "<x><x><x></x>",
    ] {
        assert_equivalent(src);
    }
    assert_equivalent(&orphan_storm(200));
}

/// `<br>` never closes, so the stack grows one entry per `<br>x`; then
/// every `</i>` is an orphan end-tag against that full stack. The leading
/// `<i>` opens and closes first, so `i` has been on the stack before.
fn orphan_storm(n: usize) -> String {
    format!("<td><i>x</i>{}{}</td>", "<br>x".repeat(n), "</i>".repeat(n))
}

/// The storm's same-size control: `<i>x` opens instead of orphaning.
fn orphan_storm_control(n: usize) -> String {
    format!("<td><i>x</i>{}{}</td>", "<br>x".repeat(n), "<i>x".repeat(n))
}

/// The fastest of five tree builds of `source`.
fn best_build_time(source: &str) -> Duration {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let tree = TagTreeBuilder::default().build(source);
            let took = started.elapsed();
            assert!(tree.len() > 1);
            took
        })
        .min()
        .unwrap_or_default()
}

/// An orphan end-tag costs O(1), not a scan of the open-tag stack: 40k
/// orphans against a 40k-deep stack build within 4× of the control.
#[test]
fn orphan_storm_builds_in_linear_time() {
    let n = 40_000;
    let storm = best_build_time(&orphan_storm(n));
    let control = best_build_time(&orphan_storm_control(n));
    assert!(
        storm <= control * 4,
        "orphan storm {storm:?} vs control {control:?}"
    );
}

/// The O(n) streaming builder and the literal quadratic reference build
/// the same tree on arbitrary tag soup.
#[test]
fn equivalent_on_random_soup() {
    check_cases("equivalent_on_random_soup", 512, &arb_soup(), |src| {
        let got = production(src);
        let expected = replay(&normalize_reference(src));
        prop_assert_eq!(got, expected, "source: {src:?}");
        Ok(())
    });
}

/// The reference itself always produces balanced output (sanity check
/// on the oracle).
#[test]
fn reference_balances() {
    check_cases("reference_balances", 512, &arb_soup(), |src| {
        let events = normalize_reference(src);
        let mut stack = Vec::new();
        for ev in &events {
            match ev {
                RefEvent::Start(n) => stack.push(n.clone()),
                RefEvent::End(n) => {
                    let popped = stack.pop();
                    prop_assert_eq!(popped.as_deref(), Some(n.as_str()));
                }
                RefEvent::Text(_) => {}
            }
        }
        prop_assert!(stack.is_empty());
        Ok(())
    });
}
