//! The paper's footnote 1: "We have done all our work with HTML documents,
//! but most of this work should carry over directly to other document type
//! definitions (DTDs), such as XML." This test suite is that claim,
//! exercised: record-boundary discovery over XML feeds.

use rbd::core::{ExtractorConfig, RecordExtractor};
use rbd::heuristics::Ranking;
use rbd::html::{tokenize_xml, Token};
use rbd::ontology::domains;
use rbd::recognizer::Recognizer;
use rbd::tagtree::TagTreeBuilder;
use rbd::trace::NullSink;

const FEED: &str = r#"<?xml version="1.0"?>
<classifieds>
  <header>Autos for sale, October 1998</header>
  <Ad><year>1995</year> Ford Taurus, white, 62,000 miles. <price>$6,500</price> obo. Call (801) 555-1234.</Ad>
  <Ad><year>1996</year> Honda Accord, teal, 40,000 miles. <price>$8,900</price>. Call (801) 555-2222.</Ad>
  <Ad><year>1997</year> Dodge Neon, red, 31,000 miles. <price>$7,100</price> obo. Call (801) 555-3333.</Ad>
  <Ad><year>1993</year> Toyota Corolla, blue, 98,000 miles. <price>$3,400</price>. Call (801) 555-4444.</Ad>
</classifieds>"#;

#[test]
fn xml_tokenizer_preserves_case_and_cdata() {
    let ts = tokenize_xml("<Ad><![CDATA[1 < 2 & <b>not markup</b>]]></Ad>");
    assert!(ts.tokens[0].is_start(&ts.symbols, "Ad"), "case preserved");
    let Token::Text(t) = &ts.tokens[1] else {
        panic!("CDATA must become text: {:?}", ts.tokens)
    };
    assert_eq!(t.text(), "1 < 2 & <b>not markup</b>");
    assert!(ts.tokens[2].is_end(&ts.symbols, "Ad"));
}

#[test]
fn xml_mode_has_no_raw_text_elements() {
    // In HTML, <title> swallows markup; in XML it nests normally.
    let ts = tokenize_xml("<title><item>x</item></title>");
    assert!(ts.tokens[1].is_start(&ts.symbols, "item"));
}

#[test]
fn tag_tree_builds_from_xml() {
    let tree = TagTreeBuilder::default().xml().build(FEED);
    let fanout = tree.highest_fanout();
    assert_eq!(tree.name(fanout), "classifieds");
    // The repeated element is the fan-out node's dominant child.
    let counts = tree.child_tag_counts(fanout);
    let ad = counts.iter().find(|c| c.name == "Ad").expect("Ad children");
    assert_eq!(ad.count, 4);
}

#[test]
fn discovery_finds_the_record_element_in_xml() {
    // The structural heuristics (HT, SD, RP) carry over unchanged; IT's
    // HTML-specific tag list simply finds no candidates and contributes
    // nothing — exactly how the compound degrades by design.
    let tree = TagTreeBuilder::default().xml().build(FEED);

    // HTML-mode lower-cases `Ad`; XML-mode preserves it — both find the
    // same structural separator.
    let html_mode = RecordExtractor::new(ExtractorConfig::default()).unwrap();
    assert_eq!(html_mode.discover(FEED).unwrap().separator, "ad");

    let xml_mode = RecordExtractor::new(ExtractorConfig::default().xml()).unwrap();
    assert_eq!(xml_mode.discover(FEED).unwrap().separator, "Ad");

    let cands = tree.candidate_tags(tree.highest_fanout(), 0.10);
    assert!(cands.iter().any(|c| c.name == "Ad"));
}

#[test]
fn xml_extraction_preserves_cdata_content() {
    let feed = r#"<feed>
      <entry>first record body</entry>
      <entry><![CDATA[second record with < and & intact]]></entry>
      <entry>third record body</entry>
    </feed>"#;
    let extractor = RecordExtractor::new(ExtractorConfig::default().xml()).unwrap();
    let extraction = extractor.extract_records(feed).unwrap();
    assert_eq!(extraction.outcome.separator, "entry");
    assert_eq!(extraction.records.len(), 3);
    assert_eq!(
        extraction.records[1].text,
        "second record with < and & intact"
    );
}

#[test]
fn xml_records_chunk_cleanly() {
    let extractor = RecordExtractor::new(ExtractorConfig::default()).unwrap();
    let extraction = extractor.extract_records(FEED).unwrap();
    assert_eq!(extraction.records.len(), 4);
    assert!(extraction.records[1].text.contains("Honda Accord"));
    assert!(extraction.preamble.unwrap().text.contains("Autos for sale"));
}

#[test]
fn integrated_discovery_honours_xml_mode() {
    // The §4.5 integrated path must build the tree exactly as `discover`
    // does — in XML mode the record element keeps its case.
    let ontology = domains::car_ads();
    let extractor = RecordExtractor::new(
        ExtractorConfig::default()
            .xml()
            .with_ontology(ontology.clone()),
    )
    .unwrap();
    let recognizer = Recognizer::new(&ontology).unwrap();
    let separate = extractor.discover(FEED).unwrap();
    let integrated = extractor
        .discover_and_recognize(FEED, &recognizer, &NullSink)
        .unwrap();
    assert_eq!(separate.separator, "Ad");
    assert_eq!(integrated.outcome.separator, separate.separator);
    assert_eq!(integrated.outcome.subtree_tag, separate.subtree_tag);
    assert_eq!(integrated.outcome.subtree, separate.subtree);
    let paper = |rankings: &[Ranking]| -> Vec<String> {
        rankings.iter().map(Ranking::to_paper_string).collect()
    };
    assert_eq!(
        paper(&integrated.outcome.rankings),
        paper(&separate.rankings)
    );
}
