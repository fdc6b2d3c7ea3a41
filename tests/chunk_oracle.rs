//! Differential oracle for record chunking.
//!
//! `chunk_at_separators` slices each record's text out of the tag tree's
//! text arena. The oracle shares none of that: it re-tokenizes each
//! record's byte range of the source from scratch, joins the plain text of
//! its text tokens and squeezes the whitespace one `char` at a time. Both must agree on the
//! preamble and on every record's `start`, `end` and `text`, for the
//! separator discovery picks and for every other child tag of the
//! record-bearing subtree, over the generated corpus, the adversarial
//! corpus under default and strict limits, generated pages, and XML.

use rbd::core::{chunk_at_separators, ExtractorConfig, Limits, Record, RecordExtractor};
use rbd::corpus::adversarial::{generate_adversarial, AttackKind};
use rbd::corpus::{initial_corpus, test_corpus, Domain};
use rbd::html::{tokenize, tokenize_xml};
use rbd::tagtree::{NodeId, TagTree, TagTreeBuilder};
use rbd_prop::{check, gen, prop_assert_eq, Gen};

/// What the response encoder reads of a record.
type Chunk = (usize, usize, String);

/// Preamble and records as comparable tuples.
type Chunks = (Option<Chunk>, Vec<Chunk>);

fn chunk(r: &Record) -> Chunk {
    (r.start, r.end, r.text.clone())
}

fn chunks(preamble: Option<&Record>, records: &[Record]) -> Chunks {
    (preamble.map(chunk), records.iter().map(chunk).collect())
}

/// The re-tokenizing record builder: tokenize `source[start..end]` afresh,
/// keep the plain text, squeeze its whitespace; `None` when no text is
/// left.
fn oracle_record(source: &str, start: usize, end: usize, xml: bool) -> Option<Chunk> {
    if start >= end {
        return None;
    }
    let html = &source[start..end];
    let stream = if xml {
        tokenize_xml(html)
    } else {
        tokenize(html)
    };
    let text = squeeze_whitespace(&stream.plain_text());
    (!text.is_empty()).then_some((start, end, text))
}

/// Collapses whitespace runs to one space and trims both ends, one `char`
/// at a time.
fn squeeze_whitespace(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_ws = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// The oracle for `chunk_at_separators`: cut the subtree's source region
/// at the start tag of each child named `separator`.
fn oracle(source: &str, tree: &TagTree, subtree: NodeId, separator: &str, xml: bool) -> Chunks {
    let node = tree.node(subtree);
    let region = node.region;
    let cuts: Vec<usize> = node
        .children
        .iter()
        .filter(|&&c| tree.name(c) == separator)
        .map(|&c| tree.node(c).start_tag.start)
        .collect();
    let Some(&first) = cuts.first() else {
        let only = oracle_record(source, region.start, region.end, xml);
        return (None, only.into_iter().collect());
    };
    let preamble = oracle_record(source, region.start, first, xml);
    let records = cuts
        .iter()
        .enumerate()
        .filter_map(|(i, &cut)| {
            let end = cuts.get(i + 1).copied().unwrap_or(region.end);
            oracle_record(source, cut, end, xml)
        })
        .collect();
    (preamble, records)
}

/// Compares the chunker with the oracle on `subtree` for every child tag
/// name plus one name no child has.
fn sweep(label: &str, source: &str, tree: &TagTree, subtree: NodeId, xml: bool) {
    let mut names: Vec<String> = tree
        .child_tag_counts(subtree)
        .into_iter()
        .map(|c| c.name)
        .collect();
    names.push("no-such-tag".to_owned());
    for name in &names {
        let (preamble, records) = chunk_at_separators(source, tree, subtree, name, xml);
        assert_eq!(
            chunks(preamble.as_ref(), &records),
            oracle(source, tree, subtree, name, xml),
            "{label}: separator {name:?}"
        );
    }
}

/// Extracts `source` and checks the records against the oracle, then, if
/// `sweep_all`, every other child tag of the discovered subtree. Returns
/// whether the document extracted at all.
fn check_extraction(
    label: &str,
    extractor: &RecordExtractor,
    source: &str,
    xml: bool,
    sweep_all: bool,
) -> bool {
    let Ok(ex) = extractor.extract_records(source) else {
        return false;
    };
    let out = &ex.outcome;
    assert_eq!(
        chunks(ex.preamble.as_ref(), &ex.records),
        oracle(source, &out.tree, out.subtree, &out.separator, xml),
        "{label}: discovered separator {:?}",
        out.separator
    );
    if sweep_all {
        sweep(label, source, &out.tree, out.subtree, xml);
    }
    true
}

/// The adversarial corpus: `per_kind` documents of every attack class.
fn adversarial(per_kind: usize) -> Vec<(String, String)> {
    const SEED: u64 = 0x0DD5_EED5_0DD5_EED5;
    let mut docs = Vec::new();
    for kind in AttackKind::ALL {
        for index in 0..per_kind {
            docs.push((
                format!("{kind:?}#{index}"),
                generate_adversarial(kind, index, SEED),
            ));
        }
    }
    docs
}

/// Documents per attack class. The release run (CI) covers 150 of each;
/// the debug run, part of the ordinary workspace test pass, checks the
/// first 20 of the same corpus to stay fast.
const PER_KIND: usize = if cfg!(debug_assertions) { 20 } else { 150 };

#[test]
fn generated_corpus_chunks_equal_the_oracle() {
    for seed in [1496, 1497] {
        for domain in Domain::ALL {
            for xml in [false, true] {
                let mut config = ExtractorConfig::default().with_ontology(domain.ontology());
                if xml {
                    config = config.xml();
                }
                let extractor = RecordExtractor::new(config).expect("valid config");
                for doc in initial_corpus(domain, seed)
                    .into_iter()
                    .chain(test_corpus(domain, seed))
                {
                    let label = format!("{} #{} seed {seed} xml {xml}", doc.site, doc.doc_index);
                    assert!(
                        check_extraction(&label, &extractor, &doc.html, xml, true),
                        "{label}: extraction failed"
                    );
                }
            }
        }
    }
}

#[test]
fn adversarial_corpus_chunks_equal_the_oracle() {
    let docs = adversarial(PER_KIND);
    // A tree that builds under strict limits is the tree the default
    // limits build, so the strict arm checks only what discovery picked.
    let configs = [
        ("default", ExtractorConfig::default(), true),
        (
            "strict",
            ExtractorConfig::default().with_limits(Limits::strict()),
            false,
        ),
        ("default xml", ExtractorConfig::default().xml(), true),
    ];
    for (name, config, sweep_all) in configs {
        let xml = config.xml;
        let extractor = RecordExtractor::new(config).expect("valid config");
        let extracted = docs
            .iter()
            .filter(|(label, html)| {
                check_extraction(&format!("{label} {name}"), &extractor, html, xml, sweep_all)
            })
            .count();
        // Most attack documents still carry a record area; a sweep that
        // extracted nothing would prove nothing.
        assert!(
            extracted * 2 > docs.len(),
            "{name}: only {extracted} of {} documents extracted",
            docs.len()
        );
    }
}

#[test]
fn cdata_feed_chunks_equal_the_oracle() {
    let feed = "<?xml version=\"1.0\"?>\n<feed>\n  <title>Notices &amp; more</title>\n\
        <Item><name><![CDATA[Ann <b>Smith</b> & Co]]></name> died  May 1.</Item>\n\
        <Item><name>Bob &lt;Jones&gt;</name><![CDATA[  ]]> died\tMay 2.</Item>\n\
        <Item><![CDATA[]]><name>Cal</name> died May 3.<![CDATA[ x < y ]]></Item>\n\
        <Item><name>Dee</name> died May 4. <![CDATA[ unterminated\n</feed>";
    let tree = TagTreeBuilder::default().xml().build(feed);
    for id in tree.ids() {
        sweep(&format!("feed node {id}"), feed, &tree, id, true);
    }
    let extractor = RecordExtractor::new(ExtractorConfig::default().xml()).expect("xml config");
    assert!(check_extraction("feed", &extractor, feed, true, true));
}

/// Messy pages with repeated record shapes: separators, nested markup,
/// entities, comments, raw-text elements, CDATA and Unicode whitespace.
fn arb_page() -> Gen<String> {
    let piece = Gen::one_of(vec![
        Gen::select(vec![
            "<hr>",
            "<br>",
            "<p>",
            "</p>",
            "<b>",
            "</b>",
            "<td>",
            "</td>",
            "<tr>",
            "</tr>",
            "<i>",
            "</i>",
            "<div>",
            "</div>",
            "<br/>",
            "<Hr >",
            "<p class='a>b'>",
        ])
        .map(str::to_owned),
        gen::string_from("abcxyz  \t\n\u{a0}\u{3000}é", 0..=10),
        Gen::select(vec![
            "&amp;",
            "&lt;",
            "&#160;",
            "&nbsp;",
            "&#x20;",
            "&bogus;",
            "&",
            "<!-- c <hr> -->",
            "<![CDATA[ <hr> ]]>",
            "<script>a<hr>b</script>",
            "<title>t<b>u</title>",
            "<",
            "</",
            "<!doctype html>",
        ])
        .map(str::to_owned),
    ]);
    gen::concat(piece, 0..=60).map(|body| format!("<html><body><td>{body}</td></body></html>"))
}

#[test]
fn generated_pages_chunk_equal_the_oracle() {
    check(
        "generated_pages_chunk_equal_the_oracle",
        &arb_page(),
        |src| {
            for xml in [false, true] {
                let builder = if xml {
                    TagTreeBuilder::default().xml()
                } else {
                    TagTreeBuilder::default()
                };
                let tree = builder.build(src);
                for subtree in [tree.highest_fanout(), tree.root()] {
                    for name in tree
                        .child_tag_counts(subtree)
                        .iter()
                        .map(|c| c.name.as_str())
                    {
                        let (preamble, records) =
                            chunk_at_separators(src, &tree, subtree, name, xml);
                        prop_assert_eq!(
                            chunks(preamble.as_ref(), &records),
                            oracle(src, &tree, subtree, name, xml)
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
