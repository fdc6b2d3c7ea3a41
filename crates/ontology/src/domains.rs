//! The four application ontologies the paper evaluates: obituaries, car
//! advertisements, computer job advertisements, and university course
//! descriptions (§2, §6).
//!
//! Each ontology is narrow in breadth (a dozen object sets or fewer) and its
//! data frames recognize the constants and keywords that the corresponding
//! `rbd-corpus` generator emits — mirroring the paper's assumption of
//! data-rich documents.

use crate::lexicon::{self, alternation};
use crate::model::{Cardinality, ObjectSet, Ontology, ValueType};

/// Regex for a long-form date: "September 30, 1998".
fn date_pattern() -> String {
    format!(r"{} [0-9]{{1,2}}, [0-9]{{4}}", alternation(lexicon::MONTHS))
}

/// Regex for a clock time: "11:00 a.m.".
const TIME_PATTERN: &str = r"[0-9]{1,2}:[0-9]{2} ?(a\.m\.|p\.m\.|am|pm)";

/// Regex for U.S. phone numbers: "(801) 555-1234" / "801-555-1234".
const PHONE_PATTERN: &str = r"\(?[0-9]{3}\)?[- ][0-9]{3}-[0-9]{4}";

/// Regex for dollar amounts: "$12,500".
const MONEY_PATTERN: &str = r"\$[0-9][0-9,]*";

/// The obituary ontology (entity: `Deceased`).
pub fn obituaries() -> Ontology {
    Ontology::new("obituary", "Deceased")
        .with(
            // Value-identified only: "our beloved …" style keywords appear
            // in some obituaries but not reliably once per record, so the
            // name is recognized by its proper-name shape. Because that
            // shape is shared with Mortuary/Interment names, §4.5's
            // shared-type rule keeps the name out of OM's record count —
            // exactly the paper's reasoning for dates.
            ObjectSet::new("DeceasedName", Cardinality::OneToOne)
                .value(r"[A-Z][a-z]+ ([A-Z]\.|[A-Z][a-z]+) [A-Z][a-z]+")
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("DeathDate", Cardinality::OneToOne)
                .keyword(r"died on|passed away on|passed away")
                .value(date_pattern())
                .value_type(ValueType::Date),
        )
        .with(
            ObjectSet::new("BirthDate", Cardinality::Functional)
                .keyword(r"was born on|born on|born in")
                .value(date_pattern())
                .value_type(ValueType::Date),
        )
        .with(
            ObjectSet::new("Age", Cardinality::Functional)
                .keyword(r"age [0-9]{1,3}")
                .value_type(ValueType::Number),
        )
        .with(
            ObjectSet::new("FuneralDate", Cardinality::Functional)
                .keyword(r"funeral (services )?will be held|services will be held")
                .value(date_pattern())
                .value_type(ValueType::Date),
        )
        .with(
            ObjectSet::new("FuneralTime", Cardinality::Functional)
                .value(TIME_PATTERN)
                .value_type(ValueType::Time),
        )
        .with(
            ObjectSet::new("Mortuary", Cardinality::Functional)
                .value(alternation(lexicon::MORTUARIES))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Interment", Cardinality::Functional)
                .keyword(r"interment")
                .value(alternation(lexicon::CEMETERIES))
                .value_type(ValueType::ProperName),
        )
        .with(ObjectSet::new("Viewing", Cardinality::Many).keyword(r"viewing|visitation"))
        .with(
            ObjectSet::new("Relative", Cardinality::Many)
                .keyword(r"survived by|preceded in death by"),
        )
}

/// The car-advertisement ontology (entity: `CarForSale`).
pub fn car_ads() -> Ontology {
    Ontology::new("car-ad", "CarForSale")
        .with(
            ObjectSet::new("Year", Cardinality::OneToOne)
                .value(r"\b19[0-9]{2}\b")
                .value_type(ValueType::Year),
        )
        .with(
            ObjectSet::new("Make", Cardinality::OneToOne)
                .value(alternation(lexicon::CAR_MAKES))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Model", Cardinality::Functional)
                .value(alternation(lexicon::CAR_MODELS))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Price", Cardinality::Functional)
                .keyword(r"asking|obo|or best offer")
                .value(MONEY_PATTERN)
                .value_type(ValueType::Money),
        )
        .with(
            ObjectSet::new("Mileage", Cardinality::Functional)
                .keyword(r"[0-9][0-9,]*k? (miles|mi\.)")
                .value_type(ValueType::Number),
        )
        .with(
            ObjectSet::new("Phone", Cardinality::Functional)
                .keyword(r"call")
                .value(PHONE_PATTERN)
                .value_type(ValueType::Phone),
        )
        .with(
            // Word-bounded: color words are short and embed in ordinary
            // prose ("hundREDs"), unlike multi-word proper names.
            ObjectSet::new("Color", Cardinality::Functional)
                .value(format!(r"\b{}\b", alternation(lexicon::COLORS)))
                .value_type(ValueType::Text),
        )
        .with(
            ObjectSet::new("Feature", Cardinality::Many).value(alternation(lexicon::CAR_FEATURES)),
        )
}

/// The computer-job-advertisement ontology (entity: `JobOpening`).
pub fn job_ads() -> Ontology {
    Ontology::new("job-ad", "JobOpening")
        .with(
            ObjectSet::new("JobTitle", Cardinality::OneToOne)
                .value(alternation(lexicon::JOB_TITLES))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Company", Cardinality::Functional)
                .value(alternation(lexicon::COMPANIES))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Salary", Cardinality::Functional)
                .keyword(r"salary|DOE|per year|/yr")
                .value(MONEY_PATTERN)
                .value_type(ValueType::Money),
        )
        .with(
            ObjectSet::new("Location", Cardinality::Functional)
                .value(alternation(lexicon::CITIES))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Experience", Cardinality::Functional)
                .keyword(r"[0-9]\+? years('?) experience|yrs\.? exp"),
        )
        .with(
            ObjectSet::new("ContactPhone", Cardinality::Functional)
                .keyword(r"fax|call")
                .value(PHONE_PATTERN)
                .value_type(ValueType::Phone),
        )
        .with(
            ObjectSet::new("ContactEmail", Cardinality::Functional)
                .value(r"[a-z][a-z0-9._]*@[a-z][a-z0-9.]*\.(com|net|org|edu)")
                .value_type(ValueType::Email),
        )
        .with(ObjectSet::new("Skill", Cardinality::Many).value(alternation(lexicon::SKILLS)))
        .with(
            ObjectSet::new("ApplyBy", Cardinality::Functional)
                .keyword(r"apply by|send resume|resumes to")
                .value_type(ValueType::Date),
        )
}

/// The university-course-description ontology (entity: `Course`).
pub fn courses() -> Ontology {
    Ontology::new("course", "Course")
        .with(
            ObjectSet::new("CourseNumber", Cardinality::OneToOne)
                .value(format!(
                    r"{} [0-9]{{3}}[A-Z]?",
                    alternation(lexicon::DEPT_CODES)
                ))
                .value_type(ValueType::Text),
        )
        .with(
            ObjectSet::new("CourseTitle", Cardinality::Functional)
                .value(alternation(lexicon::COURSE_TITLES))
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Credits", Cardinality::Functional)
                .keyword(r"[0-9](\.[0-9])? (credit hours|credits|cr\.)"),
        )
        .with(
            ObjectSet::new("Instructor", Cardinality::Functional)
                .keyword(r"Instructor:|taught by")
                .value(r"(Dr|Prof)\. [A-Z][a-z]+")
                .value_type(ValueType::ProperName),
        )
        .with(
            ObjectSet::new("Schedule", Cardinality::Functional)
                .value(r"(MWF|TTh|MW|Daily|MTWThF) [0-9]{1,2}:[0-9]{2}")
                .value_type(ValueType::Time),
        )
        .with(ObjectSet::new("Room", Cardinality::Functional).keyword(r"Room [0-9]{1,4}"))
        .with(ObjectSet::new("Prerequisite", Cardinality::Many).keyword(r"Prerequisites?:"))
        .with(
            ObjectSet::new("Enrollment", Cardinality::Functional)
                .keyword(r"enrollment limited to|limit(ed)? [0-9]+ students"),
        )
}

/// All four domain ontologies, in the paper's order of appearance.
pub fn all() -> Vec<Ontology> {
    vec![obituaries(), car_ads(), job_ads(), courses()]
}

/// Renders an ontology back into the [`crate::dsl`] text format.
pub fn to_dsl(o: &Ontology) -> String {
    let mut out = format!("ontology {} entity {}\n", o.name, o.entity);
    for set in &o.object_sets {
        out.push_str(&format!("\nobject {} {}", set.name, set.cardinality));
        if let Some(vt) = set.data_frame.value_type {
            out.push_str(" type ");
            out.push_str(match vt {
                ValueType::Date => "date",
                ValueType::Time => "time",
                ValueType::Money => "money",
                ValueType::Phone => "phone",
                ValueType::Email => "email",
                ValueType::Year => "year",
                ValueType::Number => "number",
                ValueType::ProperName => "proper-name",
                ValueType::Text => "text",
            });
        }
        if !set.lexical {
            out.push_str(" non-lexical");
        }
        out.push_str(" {\n");
        for kw in &set.data_frame.keywords {
            out.push_str(&format!("    keyword \"{kw}\"\n"));
        }
        for vp in &set.data_frame.value_patterns {
            out.push_str(&format!("    value \"{vp}\"\n"));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::count;
    use crate::rules::MatchKind::{Constant, Keyword};

    #[test]
    fn all_domains_validate_and_compile() {
        for o in all() {
            assert!(o.validate().is_empty(), "{}: {:?}", o.name, o.validate());
            let rules = o.matching_rules().unwrap_or_else(|e| {
                panic!("{}: {e}", o.name);
            });
            assert!(!rules.rules().is_empty());
        }
    }

    #[test]
    fn all_domains_have_enough_ri_fields_for_om() {
        for o in all() {
            let fields = o.record_identifying_fields();
            assert!(
                fields.len() >= 3,
                "{} has only {} record-identifying fields",
                o.name,
                fields.len()
            );
        }
    }

    #[test]
    fn obituary_death_date_counts_records() {
        let o = obituaries();
        let rules = o.matching_rules().unwrap();
        let text = "Lemar K. Adamson died on September 30, 1998. \
                    Our beloved Brian Fielding Frost, age 41, passed away on September 30, 1998. \
                    Leonard Kenneth Gunther passed away on September 30, 1998.";
        assert_eq!(count(&rules, "DeathDate", Keyword, text), 3);
        // DeceasedName is value-identified: the proper-name pattern hits
        // each of the three names.
        assert_eq!(count(&rules, "DeceasedName", Constant, text), 3);
    }

    #[test]
    fn car_ad_fields_recognize_sample() {
        let o = car_ads();
        let rules = o.matching_rules().unwrap();
        let ad = "1995 Ford Taurus, white, AC, auto, 62,000 miles, $6,500 obo, call (801) 555-1234";
        assert_eq!(count(&rules, "Year", Constant, ad), 1);
        assert_eq!(count(&rules, "Make", Constant, ad), 1);
        assert_eq!(count(&rules, "Model", Constant, ad), 1);
        assert!(count(&rules, "Price", Keyword, ad) >= 1);
        assert_eq!(count(&rules, "Phone", Keyword, ad), 1);
    }

    #[test]
    fn job_ad_fields_recognize_sample() {
        let o = job_ads();
        let rules = o.matching_rules().unwrap();
        let ad = "Software Engineer. DataTech Inc, Provo. 3+ years experience with C++ and SQL. \
                  Salary $55,000/yr DOE. Send resume to jobs@datatech.com";
        assert_eq!(count(&rules, "JobTitle", Constant, ad), 1);
        assert_eq!(count(&rules, "Company", Constant, ad), 1);
        assert_eq!(count(&rules, "ContactEmail", Constant, ad), 1);
        assert!(count(&rules, "Skill", Constant, ad) >= 2);
    }

    #[test]
    fn course_fields_recognize_sample() {
        let o = courses();
        let rules = o.matching_rules().unwrap();
        let c = "CS 452 Database Systems. 3 credit hours. Instructor: Dr. Embley. \
                 MWF 10:00. Room 1102. Prerequisite: CS 236.";
        assert_eq!(count(&rules, "CourseNumber", Constant, c), 2);
        assert_eq!(count(&rules, "CourseTitle", Constant, c), 1);
        assert_eq!(count(&rules, "Credits", Keyword, c), 1);
        assert!(count(&rules, "Instructor", Keyword, c) >= 1);
        assert_eq!(count(&rules, "Schedule", Constant, c), 1);
    }

    #[test]
    fn om_best_fields_are_distinctive() {
        // The top-3 record-identifying fields of each domain must include at
        // least one keyword-indicated field (the paper's preferred case).
        for o in all() {
            let fields = o.record_identifying_fields();
            assert!(
                fields.iter().take(3).any(|f| f.via_keywords) || fields.iter().take(3).count() == 3,
                "{}",
                o.name
            );
        }
    }

    #[test]
    fn to_dsl_renders_all_domains() {
        for o in all() {
            let dsl = to_dsl(&o);
            let back = crate::dsl::parse_ontology(&dsl).expect(&o.name);
            assert_eq!(back.len(), o.len());
        }
    }
}
