//! A small declarative text format for application ontologies.
//!
//! The paper treats the application ontology as an input artifact an analyst
//! writes once per domain ("When we change applications … we change the
//! ontology, and everything else remains the same"). This module gives that
//! artifact a concrete syntax so new domains can be added without writing
//! Rust. The four built-in domains are themselves the shipped
//! `ontologies/*.ont` files in this format, compiled into
//! [`crate::domains`]; `--ontology-file` loads any other file at run time:
//!
//! ```text
//! ontology obituary entity Deceased
//!
//! object DeathDate one-to-one type date {
//!     keyword "died on|passed away( on)?"
//!     value   "(January|February) [0-9]{1,2}, [0-9]{4}"
//! }
//!
//! object Relative many {
//!     keyword "survived by"
//! }
//! ```
//!
//! Grammar (line-oriented, `#` comments):
//!
//! ```text
//! file    := header decl*
//! header  := 'ontology' NAME 'entity' NAME
//! decl    := 'object' NAME card ('type' TYPE)? ('non-lexical')? '{' rule* '}'
//! card    := 'one-to-one' | 'functional' | 'many'
//! rule    := ('keyword' | 'value') STRING
//! ```

use crate::model::{Cardinality, ObjectSet, Ontology, ValueType};
use std::fmt;

/// A parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

/// Parses the ontology DSL.
pub fn parse_ontology(input: &str) -> Result<Ontology, DslError> {
    let mut parser = DslParser::new(input);
    parser.parse()
}

struct DslParser<'a> {
    lines: Vec<(usize, &'a str)>,
    at: usize,
}

impl<'a> DslParser<'a> {
    fn new(input: &'a str) -> Self {
        let lines = input
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, strip_comment(l).trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        DslParser { lines, at: 0 }
    }

    fn error(&self, line: usize, message: impl Into<String>) -> DslError {
        DslError {
            line,
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.lines.get(self.at).copied();
        if l.is_some() {
            self.at += 1;
        }
        l
    }

    fn parse(&mut self) -> Result<Ontology, DslError> {
        let (line, header) = self
            .next_line()
            .ok_or_else(|| self.error(1, "empty ontology file"))?;
        let words: Vec<&str> = header.split_whitespace().collect();
        if words.len() != 4 || words[0] != "ontology" || words[2] != "entity" {
            return Err(self.error(line, "expected `ontology <name> entity <name>`"));
        }
        let mut ontology = Ontology::new(words[1], words[3]);
        while let Some((line, decl)) = self.next_line() {
            if !decl.starts_with("object") {
                return Err(self.error(line, "expected `object …`"));
            }
            let set = self.object_decl(line, decl)?;
            ontology = ontology.with(set);
        }
        Ok(ontology)
    }

    fn object_decl(&mut self, line: usize, decl: &str) -> Result<ObjectSet, DslError> {
        // `object NAME card [type T] [non-lexical] {`
        let body = decl.trim_end_matches('{').trim();
        let mut words = body.split_whitespace();
        let _object = words.next();
        let name = words
            .next()
            .ok_or_else(|| self.error(line, "object needs a name"))?;
        let card = match words.next() {
            Some("one-to-one") => Cardinality::OneToOne,
            Some("functional") => Cardinality::Functional,
            Some("many") => Cardinality::Many,
            other => return Err(self.error(line, format!("expected cardinality, found {other:?}"))),
        };
        let mut set = ObjectSet::new(name, card);
        while let Some(word) = words.next() {
            match word {
                "type" => {
                    let t = words
                        .next()
                        .ok_or_else(|| self.error(line, "`type` needs a value"))?;
                    set = set
                        .value_type(parse_type(t).ok_or_else(|| {
                            self.error(line, format!("unknown value type `{t}`"))
                        })?);
                }
                "non-lexical" => set = set.non_lexical(),
                other => {
                    return Err(self.error(line, format!("unexpected word `{other}`")));
                }
            }
        }
        if !decl.ends_with('{') {
            return Err(self.error(line, "object declaration must end with `{`"));
        }
        // Body: keyword/value lines until `}`.
        loop {
            let (line, rule) = self
                .next_line()
                .ok_or_else(|| self.error(line, "unterminated object body"))?;
            if rule == "}" {
                break;
            }
            let (kind, rest) = rule
                .split_once(char::is_whitespace)
                .ok_or_else(|| self.error(line, "expected `keyword \"…\"` or `value \"…\"`"))?;
            let pattern = unquote(rest.trim())
                .ok_or_else(|| self.error(line, "pattern must be double-quoted"))?;
            match kind {
                "keyword" => set = set.keyword(pattern),
                "value" => set = set.value(pattern),
                other => {
                    return Err(self.error(line, format!("unknown rule kind `{other}`")));
                }
            }
        }
        Ok(set)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> Option<String> {
    let s = s.strip_prefix('"')?;
    let s = s.strip_suffix('"')?;
    Some(s.to_owned())
}

fn parse_type(t: &str) -> Option<ValueType> {
    Some(match t {
        "date" => ValueType::Date,
        "time" => ValueType::Time,
        "money" => ValueType::Money,
        "phone" => ValueType::Phone,
        "email" => ValueType::Email,
        "year" => ValueType::Year,
        "number" => ValueType::Number,
        "proper-name" => ValueType::ProperName,
        "text" => ValueType::Text,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Obituary ontology, miniature version.
ontology obituary entity Deceased

object Name one-to-one type proper-name {
    value "[A-Z][a-z]+ [A-Z][a-z]+"
}

object DeathDate one-to-one type date {
    keyword "died on|passed away"          # the indicator phrases
    value "[A-Z][a-z]+ [0-9]{1,2}, [0-9]{4}"
}

object Relative many {
    keyword "survived by"
}
"#;

    #[test]
    fn parses_sample() {
        let o = parse_ontology(SAMPLE).unwrap();
        assert_eq!(o.name, "obituary");
        assert_eq!(o.entity, "Deceased");
        assert_eq!(o.len(), 3);
        let dd = o.object_set("DeathDate").unwrap();
        assert_eq!(dd.cardinality, Cardinality::OneToOne);
        assert_eq!(dd.data_frame.value_type, Some(ValueType::Date));
        assert_eq!(dd.data_frame.keywords.len(), 1);
        assert!(o.validate().is_empty());
    }

    #[test]
    fn comments_respect_strings() {
        let src = "ontology t entity E\nobject X many {\n keyword \"a#b\"\n}\n";
        let o = parse_ontology(src).unwrap();
        assert_eq!(o.object_set("X").unwrap().data_frame.keywords[0], "a#b");
    }

    #[test]
    fn error_cases() {
        assert!(parse_ontology("").is_err());
        assert!(parse_ontology("ontology x\n").is_err());
        assert!(parse_ontology("ontology t entity E\nobject X many {\n").is_err());
        assert!(parse_ontology("ontology t entity E\nobject X sideways {\n}\n").is_err());
        assert!(
            parse_ontology("ontology t entity E\nobject X many {\nkeyword unquoted\n}\n").is_err()
        );
        assert!(parse_ontology("ontology t entity E\nobject X many type bogus {\n}\n").is_err());
        assert!(parse_ontology("ontology t entity E\nrandom line\n").is_err());
    }

    #[test]
    fn error_lines_are_1_based() {
        let err = parse_ontology("ontology t entity E\nobject X sideways {\n}\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn non_lexical_flag() {
        let src = "ontology t entity E\nobject X functional non-lexical {\n}\n";
        let o = parse_ontology(src).unwrap();
        assert!(!o.object_set("X").unwrap().lexical);
    }
}
