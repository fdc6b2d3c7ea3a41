//! OM counts record-identifying fields with `Pattern::count_matches`, which
//! runs on a DFA when the rule determinizes and on the Pike VM otherwise.
//! Every shipped rule OM may count must take the DFA, so a pattern edit
//! cannot silently send OM back to the slow path, and the DFA's counts must
//! equal the VM's on the view text OM actually scans, and on non-ASCII
//! versions of it.

use rbd::heuristics::view::DEFAULT_CANDIDATE_THRESHOLD;
use rbd::heuristics::SubtreeView;
use rbd::ontology::rules::MatchKind;
use rbd::ontology::{domains, parse_ontology, Ontology};
use rbd::tagtree::TagTreeBuilder;
use rbd_corpus::{generate_document, sites, Domain};

/// The built-in ontologies, then every `ontologies/*.ont` file.
fn shipped_ontologies() -> Vec<Ontology> {
    let mut all = domains::all();
    let mut files: Vec<_> = std::fs::read_dir("ontologies")
        .expect("ontologies/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ont"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable .ont");
        all.push(parse_ontology(&src).unwrap_or_else(|e| panic!("{}: {e:?}", path.display())));
    }
    all
}

/// `(object set, rule source, pattern)` for every rule OM may count: the
/// rules of each record-identifying field, of the evidence kind chosen
/// for it.
fn om_rules(ontology: &Ontology) -> Vec<(String, String, rbd::pattern::Pattern)> {
    let rules = ontology.matching_rules().expect("rules compile");
    let mut out = Vec::new();
    for field in ontology.record_identifying_fields() {
        let kind = if field.via_keywords {
            MatchKind::Keyword
        } else {
            MatchKind::Constant
        };
        for rule in rules.rules_for(&field.object_set.name) {
            if rule.kind == kind {
                out.push((
                    rule.object_set.clone(),
                    rule.pattern.as_str().to_owned(),
                    rule.pattern.clone(),
                ));
            }
        }
    }
    out
}

/// The view text OM scans for each initial and test site of `domain`.
fn view_texts(domain: Domain, seed: u64) -> Vec<String> {
    sites::initial_sites(domain)
        .iter()
        .chain(&sites::test_sites(domain))
        .map(|style| {
            let doc = generate_document(style, domain, 0, seed);
            let tree = TagTreeBuilder::default().build(&doc.html);
            SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD)
                .text()
                .to_owned()
        })
        .collect()
}

/// Non-ASCII versions of a view text, so the count loop decodes
/// multi-byte chars and meets them inside the runs it skips: accented
/// vowels, no-break spaces and line separators in place of some ASCII
/// chars; an accented name after each sentence; every other space an
/// `é`, a word char that glues words together, so `\b` no longer holds
/// between them.
fn non_ascii_variants(text: &str) -> [String; 3] {
    let mut spaces = 0;
    let glued = text
        .chars()
        .map(|c| match c {
            ' ' => {
                spaces += 1;
                if spaces % 2 == 0 {
                    'é'
                } else {
                    c
                }
            }
            _ => c,
        })
        .collect();
    let swapped = text
        .chars()
        .enumerate()
        .map(|(i, c)| match c {
            'e' if i % 2 == 0 => 'é',
            'o' => 'ö',
            ' ' if i % 5 == 0 => '\u{a0}',
            '\n' => '\u{2028}',
            _ => c,
        })
        .collect();
    [swapped, text.replace(". ", ". José Núñez\u{2028}"), glued]
}

#[test]
fn every_om_rule_determinizes() {
    let mut checked = 0;
    for ontology in shipped_ontologies() {
        for (set, source, pattern) in om_rules(&ontology) {
            assert!(
                pattern.counts_with_dfa(),
                "{}: {set} rule {source:?} stays on the Pike VM",
                ontology.name
            );
            checked += 1;
        }
    }
    assert!(checked >= 3 * 9, "only {checked} OM rules found");
}

#[test]
fn dfa_counts_equal_vm_counts_on_corpus_views() {
    let ontologies = shipped_ontologies();
    let seeds = [
        rbd_eval::DEFAULT_SEED,
        rbd_eval::DEFAULT_SEED + 1,
        rbd_eval::DEFAULT_SEED + 2,
    ];
    for seed in seeds {
        for domain in Domain::ALL {
            let name = domain.ontology().name;
            let mut texts = view_texts(domain, seed);
            let variants: Vec<String> = texts.iter().flat_map(|t| non_ascii_variants(t)).collect();
            texts.extend(variants);
            // The domain's own ontology, built in and from its file, plus
            // ontologies with no corpus domain (the rental example).
            let builtin: Vec<String> = domains::all().into_iter().map(|o| o.name).collect();
            for ontology in ontologies
                .iter()
                .filter(|o| o.name == name || !builtin.contains(&o.name))
            {
                for (set, source, pattern) in om_rules(ontology) {
                    for text in &texts {
                        assert_eq!(
                            pattern.count_matches(text),
                            pattern.find_iter(text).count(),
                            "{} {set} rule {source:?}, {domain} seed {seed}",
                            ontology.name
                        );
                    }
                }
            }
        }
    }
}
