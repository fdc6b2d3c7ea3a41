//! The four application ontologies the paper evaluates: obituaries, car
//! advertisements, computer job advertisements, and university course
//! descriptions (§2, §6).
//!
//! Each ontology is narrow in breadth (a dozen object sets or fewer) and its
//! data frames recognize the constants and keywords that the corresponding
//! `rbd-corpus` generator emits — mirroring the paper's assumption of
//! data-rich documents.
//!
//! The definitions live in the shipped `ontologies/<name>.ont` files, in
//! the [`crate::dsl`] format, and are compiled in: `--ontology <name>` and
//! `--ontology-file ontologies/<name>.ont` load the same text.

use crate::dsl::parse_ontology;
use crate::model::Ontology;

/// Parses one built-in `.ont` file embedded at compile time.
fn builtin(name: &str, source: &str) -> Ontology {
    // rbd-lint: allow(panic) — the source is fixed at build time and `all_domains_validate_and_compile` parses every built-in
    parse_ontology(source).expect(name)
}

/// The obituary ontology (entity: `Deceased`).
pub fn obituaries() -> Ontology {
    builtin("obituary", include_str!("../../../ontologies/obituary.ont"))
}

/// The car-advertisement ontology (entity: `CarForSale`).
pub fn car_ads() -> Ontology {
    builtin("car-ad", include_str!("../../../ontologies/car-ad.ont"))
}

/// The computer-job-advertisement ontology (entity: `JobOpening`).
pub fn job_ads() -> Ontology {
    builtin("job-ad", include_str!("../../../ontologies/job-ad.ont"))
}

/// The university-course-description ontology (entity: `Course`).
pub fn courses() -> Ontology {
    builtin("course", include_str!("../../../ontologies/course.ont"))
}

/// All four domain ontologies, in the paper's order of appearance.
pub fn all() -> Vec<Ontology> {
    vec![obituaries(), car_ads(), job_ads(), courses()]
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
}
