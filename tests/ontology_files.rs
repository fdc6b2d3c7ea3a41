//! The shipped `.ont` files — the four built-in domains, compiled into
//! `rbd::ontology::domains`, plus the rental example — must parse, validate
//! and compile: they are the artifacts a user edits to add a domain without
//! touching Rust.

use rbd::ontology::{domains, lexicon, parse_ontology, MatchKind};

fn load(name: &str) -> String {
    std::fs::read_to_string(format!("ontologies/{name}.ont"))
        .unwrap_or_else(|e| panic!("ontologies/{name}.ont: {e}"))
}

/// Every constant-recognized built-in field whose values come from a
/// lexicon: `(domain, field, lexicon, shape)`, where `shape` is how the
/// corpus generator writes each word (`{}` stands for the word).
const LEXICON_FIELDS: &[(&str, &str, &[&str], &str)] = &[
    ("obituary", "DeathDate", lexicon::MONTHS, "{} 30, 1998"),
    ("obituary", "BirthDate", lexicon::MONTHS, "{} 7, 1921"),
    ("obituary", "FuneralDate", lexicon::MONTHS, "{} 4, 1998"),
    ("obituary", "Mortuary", lexicon::MORTUARIES, "{}"),
    ("obituary", "Interment", lexicon::CEMETERIES, "{}"),
    ("car-ad", "Make", lexicon::CAR_MAKES, "{}"),
    ("car-ad", "Model", lexicon::CAR_MODELS, "{}"),
    ("car-ad", "Color", lexicon::COLORS, "{}"),
    ("car-ad", "Feature", lexicon::CAR_FEATURES, "{}"),
    ("job-ad", "JobTitle", lexicon::JOB_TITLES, "{}"),
    ("job-ad", "Company", lexicon::COMPANIES, "{}"),
    ("job-ad", "Location", lexicon::CITIES, "{}"),
    ("job-ad", "Skill", lexicon::SKILLS, "{}"),
    ("course", "CourseNumber", lexicon::DEPT_CODES, "{} 452"),
    ("course", "CourseTitle", lexicon::COURSE_TITLES, "{}"),
    ("course", "Instructor", lexicon::INSTRUCTORS, "Dr. {}"),
];

/// A built-in rule that misses a lexicon word, or matches only a shorter
/// prefix of it ("Grand" of "Grand Am"), loses that field on every
/// generated record carrying the word.
#[test]
fn shipped_rules_match_every_lexicon_word_whole() {
    for &(domain, field, words, shape) in LEXICON_FIELDS {
        let ontology = domains::all()
            .into_iter()
            .find(|o| o.name == domain)
            .unwrap_or_else(|| panic!("no built-in `{domain}`"));
        let rules = ontology.matching_rules().expect(domain);
        let constants: Vec<_> = rules
            .rules_for(field)
            .filter(|r| r.kind == MatchKind::Constant)
            .collect();
        assert!(!constants.is_empty(), "{domain}.{field} has no value rule");
        for word in words {
            let value = shape.replace("{}", word);
            let found: Vec<&str> = constants
                .iter()
                .filter_map(|r| r.pattern.find(&value).map(|m| m.as_str(&value)))
                .collect();
            assert!(
                found.contains(&value.as_str()),
                "{domain}.{field} must match {value:?} whole, found {found:?}"
            );
        }
    }
}

#[test]
fn rental_example_file_parses_and_compiles() {
    let rental = parse_ontology(&load("rental")).expect("rental.ont");
    assert!(rental.validate().is_empty());
    assert!(rental.record_identifying_fields().len() >= 3);
    rental.matching_rules().expect("rules compile");
}
