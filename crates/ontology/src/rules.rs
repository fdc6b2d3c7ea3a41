//! Matching-rule compilation and record-identifying field selection (§4.5).

use crate::model::{Cardinality, ObjectSet, Ontology, ValueType};
use rbd_pattern::{Pattern, PatternError};

/// Whether a rule recognizes a context keyword or a constant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Keyword indicator ("died on").
    Keyword,
    /// Constant value ("September 30, 1998").
    Constant,
}

/// One compiled recognizer rule.
#[derive(Debug, Clone)]
pub struct MatchRule {
    /// Name of the object set the rule belongs to.
    pub object_set: String,
    /// Keyword or constant.
    pub kind: MatchKind,
    /// Compiled, case-insensitive pattern.
    pub pattern: Pattern,
}

/// The compiled constant/keyword matching rules of an ontology — one output
/// of the paper's Ontology Parser.
#[derive(Debug, Clone)]
pub struct MatchingRules {
    rules: Vec<MatchRule>,
}

impl MatchingRules {
    /// Compiles all data frames of `ontology`. Keyword patterns are
    /// compiled case-insensitively (period documents mix "Died" / "died" /
    /// "DIED"); value patterns case-sensitively (case is significant in
    /// e.g. proper-name patterns).
    pub fn compile(ontology: &Ontology) -> Result<Self, PatternError> {
        let mut rules = Vec::new();
        for set in &ontology.object_sets {
            for kw in &set.data_frame.keywords {
                rules.push(MatchRule {
                    object_set: set.name.clone(),
                    kind: MatchKind::Keyword,
                    pattern: Pattern::case_insensitive(kw)?,
                });
            }
            for vp in &set.data_frame.value_patterns {
                rules.push(MatchRule {
                    object_set: set.name.clone(),
                    kind: MatchKind::Constant,
                    pattern: Pattern::new(vp)?,
                });
            }
        }
        Ok(MatchingRules { rules })
    }

    /// All rules.
    pub fn rules(&self) -> &[MatchRule] {
        &self.rules
    }

    /// Rules belonging to one object set.
    pub fn rules_for<'a>(&'a self, object_set: &'a str) -> impl Iterator<Item = &'a MatchRule> {
        self.rules
            .iter()
            .filter(move |r| r.object_set == object_set)
    }
}

/// A record-identifying field chosen per §4.5, with the evidence kind the
/// OM heuristic should count.
#[derive(Debug, Clone, Copy)]
pub struct RecordIdentifyingField<'a> {
    /// The underlying object set.
    pub object_set: &'a ObjectSet,
    /// `true` when the field is indicated by keywords (preferred), `false`
    /// when only its constant values identify it.
    pub via_keywords: bool,
}

/// Selects and orders record-identifying fields exactly as §4.5 prescribes:
///
/// 1. Candidates are object sets in one-to-one correspondence with the
///    entity, or functionally dependent on it.
/// 2. Order best-to-worst: one-to-one before functional; within each group,
///    keyword-indicated fields before value-identified fields.
/// 3. Value-identified fields whose value type is shared with another
///    candidate (e.g. the several date fields of an obituary) are excluded —
///    the value pattern alone cannot tell the fields apart.
/// 4. The *caller* (the OM heuristic) keeps at least 3 and at most
///    `max(3, ⌈20 % · |object sets|⌉)` of the returned list, abstaining if
///    fewer than 3 exist.
pub fn select_record_identifying_fields(ontology: &Ontology) -> Vec<RecordIdentifyingField<'_>> {
    let candidates: Vec<&ObjectSet> = ontology
        .object_sets
        .iter()
        .filter(|s| {
            s.lexical
                && matches!(
                    s.cardinality,
                    Cardinality::OneToOne | Cardinality::Functional
                )
        })
        .collect();

    // Value types used by more than one candidate are ambiguous for
    // value-based identification.
    let shared_type = |vt: ValueType| {
        candidates
            .iter()
            .filter(|s| s.data_frame.value_type == Some(vt))
            .count()
            > 1
    };

    let mut fields: Vec<(usize, RecordIdentifyingField<'_>)> = Vec::new();
    for set in &candidates {
        let has_kw = set.data_frame.has_keywords();
        let usable_values =
            set.data_frame.has_values() && !set.data_frame.value_type.is_some_and(shared_type);
        if !has_kw && !usable_values {
            continue;
        }
        // Rank: one-to-one+keywords (0) < one-to-one+values (1)
        //       < functional+keywords (2) < functional+values (3).
        let group = match set.cardinality {
            Cardinality::OneToOne => 0,
            Cardinality::Functional => 2,
            Cardinality::Many => unreachable!("filtered above"),
        };
        let rank = group + if has_kw { 0 } else { 1 };
        fields.push((
            rank,
            RecordIdentifyingField {
                object_set: set,
                via_keywords: has_kw,
            },
        ));
    }
    fields.sort_by_key(|(rank, _)| *rank);
    fields.into_iter().map(|(_, f)| f).collect()
}

/// §4.5's bound on how many of the best fields OM may use: at least 3, at
/// most 20 % of the ontology's object sets (but never fewer than the
/// minimum). Returns `None` when fewer than 3 fields are available — the OM
/// heuristic must then abstain.
pub fn om_field_budget(ontology: &Ontology, available: usize) -> Option<usize> {
    const MIN_FIELDS: usize = 3;
    if available < MIN_FIELDS {
        return None;
    }
    // `ceil` of a small non-negative product: the cast back is lossless.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let twenty_percent = (ontology.len() as f64 * 0.20).ceil() as usize;
    Some(twenty_percent.clamp(MIN_FIELDS, available))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{Ontology, ValueType};

    /// Non-overlapping matches of `object_set`'s rules of one kind, summed —
    /// what OM counts for a field.
    pub(crate) fn count(
        rules: &MatchingRules,
        object_set: &str,
        kind: MatchKind,
        text: &str,
    ) -> usize {
        rules
            .rules_for(object_set)
            .filter(|r| r.kind == kind)
            .map(|r| r.pattern.count_matches(text))
            .sum()
    }

    fn ontology() -> Ontology {
        Ontology::new("t", "E")
            .with(
                ObjectSet::new("Name", Cardinality::OneToOne)
                    .value("[A-Z][a-z]+ [A-Z][a-z]+")
                    .value_type(ValueType::ProperName),
            )
            .with(
                ObjectSet::new("DeathDate", Cardinality::OneToOne)
                    .keyword("died on|passed away")
                    .value(r"[A-Z][a-z]+ \d{1,2}, \d{4}")
                    .value_type(ValueType::Date),
            )
            .with(
                ObjectSet::new("BirthDate", Cardinality::Functional)
                    .keyword("born on")
                    .value(r"[A-Z][a-z]+ \d{1,2}, \d{4}")
                    .value_type(ValueType::Date),
            )
            .with(
                ObjectSet::new("FuneralDate", Cardinality::Functional)
                    .value(r"[A-Z][a-z]+ \d{1,2}, \d{4}")
                    .value_type(ValueType::Date),
            )
            .with(ObjectSet::new("Relative", Cardinality::Many).keyword("survived by"))
    }

    #[test]
    fn selection_order_and_exclusions() {
        let o = ontology();
        let fields = select_record_identifying_fields(&o);
        let names: Vec<&str> = fields.iter().map(|f| f.object_set.name.as_str()).collect();
        // DeathDate (1:1 + keywords) first, then Name (1:1, values only),
        // then BirthDate (functional + keywords). FuneralDate is excluded:
        // value-only with a shared value type (Date). Relative is excluded:
        // many-valued.
        assert_eq!(names, vec!["DeathDate", "Name", "BirthDate"]);
        assert!(fields[0].via_keywords);
        assert!(!fields[1].via_keywords);
    }

    #[test]
    fn shared_type_keyword_fields_survive() {
        // BirthDate shares the Date type but has keywords, so it stays.
        let o = ontology();
        let fields = select_record_identifying_fields(&o);
        assert!(fields
            .iter()
            .any(|f| f.object_set.name == "BirthDate" && f.via_keywords));
    }

    #[test]
    fn budget_rules() {
        let o = ontology(); // 5 object sets → 20% = 1 → clamped to 3
        assert_eq!(om_field_budget(&o, 3), Some(3));
        assert_eq!(om_field_budget(&o, 2), None);
        // Large ontology: 40 sets → 8 fields allowed.
        let mut big = Ontology::new("big", "E");
        for i in 0..40 {
            big = big.with(ObjectSet::new(format!("S{i}"), Cardinality::Many).keyword("x"));
        }
        assert_eq!(om_field_budget(&big, 20), Some(8));
        assert_eq!(om_field_budget(&big, 5), Some(5));
    }

    #[test]
    fn compile_and_count() {
        let o = ontology();
        let rules = o.matching_rules().unwrap();
        let text = "Ann Smith died on May 1, 1998. Bob Jones passed away May 2, 1998. \
                    Carl Young died on May 3, 1998.";
        assert_eq!(count(&rules, "DeathDate", MatchKind::Keyword, text), 3);
        // Name counts constants (no keywords defined).
        assert!(count(&rules, "Name", MatchKind::Constant, text) >= 3);
        // Unknown set: zero.
        assert_eq!(count(&rules, "Nope", MatchKind::Keyword, text), 0);
        assert_eq!(count(&rules, "Nope", MatchKind::Constant, text), 0);
    }

    #[test]
    fn keyword_rules_are_case_insensitive() {
        let o = ontology();
        let rules = o.matching_rules().unwrap();
        assert_eq!(
            count(&rules, "DeathDate", MatchKind::Keyword, "HE DIED ON MONDAY"),
            1
        );
    }

    #[test]
    fn bad_pattern_surfaces_error() {
        let o = Ontology::new("t", "E")
            .with(ObjectSet::new("X", Cardinality::OneToOne).keyword("(unclosed"));
        assert!(o.matching_rules().is_err());
    }

    #[test]
    fn rules_for_filters_by_set() {
        let o = ontology();
        let rules = o.matching_rules().unwrap();
        assert_eq!(rules.rules_for("DeathDate").count(), 2);
        assert_eq!(rules.rules_for("Relative").count(), 1);
    }
}
