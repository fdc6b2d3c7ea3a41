//! Byte-level truncation robustness: documents cut off at arbitrary byte
//! offsets — including mid-way through a multi-byte UTF-8 sequence — must
//! tokenize without ever emitting a span that splits a `char` boundary.
//!
//! The truncated inputs come from the corpus crate's fault-injection
//! generators, which lossily re-decode the byte prefix: the tokenizer only
//! ever sees valid `&str`, but its input now ends in a replacement
//! character at an unpredictable position, and every slicing decision
//! downstream relies on spans staying on boundaries.

use rbd_corpus::adversarial::{mutate_bytes, truncate_bytes, valid_seed_document};
use rbd_html::{tokenize, Token, TokenBudget};
use rbd_prop::{check_cases, prop_assert, Gen, Rng};

const SEED_DOCS: usize = 8;

/// Asserts every span of every token lands on char boundaries of `source`
/// and that text tokens decode to what their span covers (entity decoding
/// aside, the decoded text never exceeds the span's raw length bound for
/// plain runs).
fn assert_span_discipline(source: &str) -> Result<(), String> {
    let stream = tokenize(source);
    for token in &stream.tokens {
        let span = token.span();
        prop_assert!(
            span.end <= source.len(),
            "span {span:?} out of bounds for len {}",
            source.len()
        );
        prop_assert!(
            source.is_char_boundary(span.start) && source.is_char_boundary(span.end),
            "span {span:?} splits a char boundary"
        );
        // Slicing is the real proof: &str indexing panics off-boundary.
        let raw = &source[span.start..span.end];
        if let Token::Text(t) = token {
            let text = t.text();
            prop_assert!(
                text.is_char_boundary(text.len()),
                "decoded text not a valid string"
            );
            // A text token's raw slice contains no tag-opening '<' except
            // possibly a stray one re-classified as text.
            prop_assert!(
                !raw.is_empty() || text.is_empty(),
                "empty span with non-empty text"
            );
        }
    }
    Ok(())
}

#[test]
fn truncated_corpus_documents_never_split_char_boundaries() {
    // Every byte prefix of a few corpus documents, lossily decoded. The
    // documents are small enough to sweep *all* offsets, not a sample.
    for doc_index in 0..SEED_DOCS {
        let doc = valid_seed_document(doc_index, 0xC0FFEE);
        let step = (doc.len() / 400).max(1);
        for cut in (0..doc.len()).step_by(step) {
            let prefix = String::from_utf8_lossy(&doc.as_bytes()[..cut]).into_owned();
            assert_span_discipline(&prefix).unwrap_or_else(|e| {
                panic!("doc {doc_index} cut at byte {cut}: {e}");
            });
        }
    }
}

#[test]
fn multibyte_heavy_document_survives_every_cut() {
    // Dense 2-, 3- and 4-byte sequences: every second byte offset is inside
    // a character.
    let doc =
        "<td><p>caf\u{e9} \u{4e16}\u{754c} \u{1f480}</p><hr>\u{3053}\u{3093}<hr>\u{2603}</td>"
            .repeat(20);
    for cut in 0..doc.len() {
        let prefix = String::from_utf8_lossy(&doc.as_bytes()[..cut]).into_owned();
        assert_span_discipline(&prefix).unwrap_or_else(|e| {
            panic!("cut at byte {cut}: {e}");
        });
    }
}

#[test]
fn random_truncation_and_mutation_property() {
    let gen = Gen::new(move |rng: &mut Rng| {
        let doc = valid_seed_document(rng.random_range(0usize..16), 0xC0FFEE);
        if rng.random_bool(0.5) {
            truncate_bytes(&doc, rng)
        } else {
            let edits = rng.random_range(1usize..48);
            mutate_bytes(&doc, edits, rng)
        }
    });
    check_cases("truncation-span-discipline", 300, &gen, |doc: &String| {
        assert_span_discipline(doc)
    });
}

#[test]
fn budget_check_is_exact_at_the_boundary() {
    let doc = "x".repeat(100);
    let budget = TokenBudget::with_max_input_bytes(100);
    budget.check(&doc).expect("exactly at cap is within budget");
    assert_eq!(tokenize(&doc).plain_text(), doc);
    let over = "x".repeat(101);
    let err = budget.check(&over).unwrap_err();
    assert_eq!(err.cap, 100);
    assert_eq!(err.observed, 101);
}
