//! Shared lexicons — the "Lexicons" input of the paper's Figure 1.
//!
//! Data frames may recognize closed word lists (automobile makes, month
//! names, …). The corpus generator (`rbd-corpus`) draws document content
//! from these lists, and the built-in `ontologies/*.ont` files spell the
//! same words out as alternations — `tests/ontology_files.rs` checks that
//! each shipped rule matches every word whole — which is exactly the
//! situation the paper assumes: data-rich documents whose constants the
//! ontology can recognize.

/// Month names.
pub const MONTHS: &[&str] = &[
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

/// Common U.S. given names (period-appropriate).
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Nancy",
    "Daniel",
    "Lisa",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Donald",
    "Sandra",
    "Mark",
    "Ashley",
    "Paul",
    "Kimberly",
    "Steven",
    "Emily",
    "Andrew",
    "Donna",
    "Kenneth",
    "Michelle",
    "Lemar",
    "Brian",
    "Leonard",
    "Howard",
];

/// Common U.S. surnames.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Adamson",
    "Frost",
    "Gunther",
    "Embley",
    "Fielding",
];

/// Automobile makes (late-1990s market).
pub const CAR_MAKES: &[&str] = &[
    "Ford",
    "Chevrolet",
    "Toyota",
    "Honda",
    "Dodge",
    "Nissan",
    "Jeep",
    "Pontiac",
    "Buick",
    "Oldsmobile",
    "Mercury",
    "Chrysler",
    "Plymouth",
    "Subaru",
    "Mazda",
    "Volkswagen",
    "Volvo",
    "Saturn",
    "GMC",
    "Cadillac",
];

/// Automobile models.
pub const CAR_MODELS: &[&str] = &[
    "Taurus",
    "Escort",
    "Mustang",
    "Explorer",
    "Ranger",
    "Cavalier",
    "Corsica",
    "Lumina",
    "Camaro",
    "Blazer",
    "Corolla",
    "Camry",
    "Celica",
    "Accord",
    "Civic",
    "Prelude",
    "Neon",
    "Caravan",
    "Intrepid",
    "Sentra",
    "Altima",
    "Maxima",
    "Cherokee",
    "Wrangler",
    "Grand Am",
    "Bonneville",
    "LeSabre",
    "Regal",
    "Cutlass",
    "Sable",
    "Legacy",
    "Impreza",
    "Protege",
    "Jetta",
    "Passat",
];

/// Car colors.
pub const COLORS: &[&str] = &[
    "white", "black", "red", "blue", "green", "silver", "gold", "maroon", "teal", "tan",
    "burgundy", "gray",
];

/// Car feature phrases.
pub const CAR_FEATURES: &[&str] = &[
    "AC",
    "auto",
    "5-speed",
    "power windows",
    "power locks",
    "cruise",
    "tilt",
    "AM/FM cassette",
    "CD player",
    "sunroof",
    "leather",
    "alloy wheels",
    "new tires",
    "one owner",
    "low miles",
    "runs great",
    "must sell",
];

/// U.S. cities used for locations.
pub const CITIES: &[&str] = &[
    "Salt Lake City",
    "Tucson",
    "Houston",
    "San Francisco",
    "Seattle",
    "Cincinnati",
    "New Bedford",
    "Detroit",
    "Bridgeport",
    "Atlanta",
    "Provo",
    "Denver",
    "Dallas",
    "Indianapolis",
    "Los Angeles",
    "Baltimore",
    "Knoxville",
    "Lincoln",
    "Reno",
    "Sioux City",
];

/// Computer job titles (1998 vintage).
pub const JOB_TITLES: &[&str] = &[
    "Software Engineer",
    "Programmer Analyst",
    "Systems Analyst",
    "Database Administrator",
    "Network Administrator",
    "Web Developer",
    "C++ Programmer",
    "Java Developer",
    "Technical Support Specialist",
    "Systems Administrator",
    "QA Engineer",
    "Project Manager",
    "Help Desk Technician",
    "Data Architect",
    "Unix Administrator",
];

/// Technical skills.
pub const SKILLS: &[&str] = &[
    "C++",
    "Java",
    "SQL",
    "Oracle",
    "Visual Basic",
    "Unix",
    "Windows NT",
    "HTML",
    "Perl",
    "COBOL",
    "PowerBuilder",
    "Sybase",
    "Informix",
    "TCP/IP",
    "Novell NetWare",
    "Delphi",
    "CGI",
    "JavaScript",
];

/// Employer names.
pub const COMPANIES: &[&str] = &[
    "DataTech Inc",
    "InfoSystems Corp",
    "MicroWare LLC",
    "NetSolutions Inc",
    "CompuServe Corp",
    "TeleData Systems",
    "Pinnacle Software",
    "Summit Computing",
    "Wasatch Technologies",
    "Frontier Data Corp",
    "Apex Consulting",
    "Meridian Systems",
    "Evergreen Software",
    "Cascade Solutions",
    "Redstone Computing",
];

/// University department codes.
pub const DEPT_CODES: &[&str] = &[
    "CS", "MATH", "PHYS", "CHEM", "BIOL", "ENGL", "HIST", "ECON", "PSYCH", "PHIL", "STAT", "EE",
    "ME", "ACC", "MUS",
];

/// Course title stems.
pub const COURSE_TITLES: &[&str] = &[
    "Introduction to Programming",
    "Data Structures",
    "Algorithms",
    "Operating Systems",
    "Database Systems",
    "Computer Networks",
    "Software Engineering",
    "Discrete Mathematics",
    "Linear Algebra",
    "Calculus",
    "Organic Chemistry",
    "Modern Physics",
    "World History",
    "Microeconomics",
    "Cognitive Psychology",
    "Symbolic Logic",
    "Numerical Methods",
    "Compiler Construction",
    "Artificial Intelligence",
    "Computer Graphics",
];

/// Instructor surname pool (reuses [`LAST_NAMES`]).
pub const INSTRUCTORS: &[&str] = LAST_NAMES;

/// Mortuary / funeral-home names.
pub const MORTUARIES: &[&str] = &[
    "MEMORIAL CHAPEL",
    "HEATHER MORTUARY",
    "Carrillo's Tucson Mortuary",
    "Wasatch Lawn Mortuary",
    "Sunset Funeral Home",
    "Evans and Sons Mortuary",
    "Pioneer Valley Funeral Home",
    "Lakeview Memorial Chapel",
    "Holy Cross Mortuary",
    "Riverside Funeral Home",
];

/// Cemetery names.
pub const CEMETERIES: &[&str] = &[
    "Holy Hope Cemetery",
    "Mount Olivet Cemetery",
    "Evergreen Memorial Park",
    "Wasatch Lawn Cemetery",
    "Pleasant Grove Cemetery",
    "Oak Hill Cemetery",
    "Riverside Memorial Park",
    "Saint Mary Cemetery",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicons_nonempty_and_unique() {
        for (name, lex) in [
            ("MONTHS", MONTHS),
            ("FIRST_NAMES", FIRST_NAMES),
            ("LAST_NAMES", LAST_NAMES),
            ("CAR_MAKES", CAR_MAKES),
            ("CAR_MODELS", CAR_MODELS),
            ("CITIES", CITIES),
            ("JOB_TITLES", JOB_TITLES),
            ("SKILLS", SKILLS),
            ("COMPANIES", COMPANIES),
            ("DEPT_CODES", DEPT_CODES),
            ("COURSE_TITLES", COURSE_TITLES),
            ("MORTUARIES", MORTUARIES),
            ("CEMETERIES", CEMETERIES),
        ] {
            assert!(!lex.is_empty(), "{name} empty");
            let mut sorted: Vec<&str> = lex.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), lex.len(), "{name} has duplicates");
        }
    }
}
