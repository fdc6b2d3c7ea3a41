//! The rule catalog.
//!
//! Every rule runs over the typed token stream ([`crate::tokens::Model`])
//! built from the masked source of [`crate::source::analyze`], so
//! occurrences inside strings and comments never count, and identifiers
//! that merely *contain* a rule keyword (`try_unwrap_or`, `unwrap_budget`)
//! can never match — tokens compare whole, not by substring. Findings on
//! lines inside `#[cfg(test)]` items are dropped for the panic-freedom and
//! structural-concurrency rules — tests may unwrap and deadlock-race
//! freely — and a justified `// rbd-lint: allow(<rule>) — <why>` directive
//! suppresses any rule on its target line.

use crate::source::{is_ident_byte, Analysis};
use crate::tokens::{Model, TokenKind};
use std::fmt;
use std::path::{Path, PathBuf};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unwrap()`, `expect(`, `panic!`, `unreachable!`, `todo!` and slice
    /// indexing `[...]` in non-test code.
    Panic,
    /// Narrowing `as u8` / `as u16` / `as u32` casts.
    Cast,
    /// `_ =>` arms in `match`es over the crate-local `Token`/`Event` enums.
    WildcardMatch,
    /// Crate roots must carry `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// An `rbd-lint` allow directive that is malformed or lacks its
    /// justification string.
    BadAllow,
    /// Hot-path growth without governance: a `with_capacity(` allocation or
    /// a self-recursive function in `crates/html`/`crates/tagtree` whose
    /// enclosing function never names a budget, limit, or cap.
    Budget,
    /// A `DegradationEvent` constructed in a function that never touches a
    /// trace sink — the degradation would be recorded in the result but
    /// silently dropped from the audit trail.
    Observability,
    /// Raw thread spawns (`thread::spawn`, `thread::Builder`) outside
    /// `crates/pipeline` — the worker pool must own every thread — and
    /// unbounded channel constructs (`mpsc::channel`) anywhere: a queue
    /// without a capacity is a memory limit waiting to be discovered in
    /// production.
    Concurrency,
    /// A second `Mutex`/`RwLock` acquired while another lock's guard is
    /// live in the same function, with no declared canonical order
    /// (`// rbd-lint: lock-order(a < b)`) covering the pair — the static
    /// shape of an ABBA deadlock.
    LockOrder,
    /// A live lock guard spanning a blocking call: a `Condvar::wait` on a
    /// different lock, a channel `send`/`recv`, a `JoinHandle::join`, or a
    /// `thread::sleep`.
    GuardAcrossBlocking,
    /// `let _ = call(...)` or a trailing `.ok();` discarding a `Result` in
    /// non-test library code with no adjacent trace emission.
    SwallowedError,
    /// A string literal registered as a counter/histogram name
    /// (`.add("…", n)` / `.observe("…", v)`) that is not snake_case over
    /// `[a-z0-9_]` with a `serve_`/`pipeline_`/`extract_`/`trace_`/`store_`
    /// subsystem prefix — the metric namespace dashboards scrape must stay
    /// uniform.
    MetricName,
    /// In persistence code (any path with a `store` component): a function
    /// that writes to a file (`.write(` / `.write_all(`) without also
    /// naming `sync_all` or `sync_data` in its body. An unsynced write on
    /// the commit path is a torn-tail crash window — the data can be
    /// acknowledged, then lost or half-written when power drops before the
    /// kernel flushes.
    StoreDurability,
}

impl Rule {
    /// The name used in `allow(...)` directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Cast => "cast",
            Rule::WildcardMatch => "wildcard-match",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::BadAllow => "bad-allow",
            Rule::Budget => "budget",
            Rule::Observability => "observability",
            Rule::Concurrency => "concurrency",
            Rule::LockOrder => "lock-order",
            Rule::GuardAcrossBlocking => "guard-across-blocking",
            Rule::SwallowedError => "swallowed-error",
            Rule::MetricName => "metric-name",
            Rule::StoreDurability => "store-durability",
        }
    }

    /// All rules an allow directive may name.
    pub fn all() -> [Rule; 12] {
        [
            Rule::Panic,
            Rule::Cast,
            Rule::WildcardMatch,
            Rule::ForbidUnsafe,
            Rule::Budget,
            Rule::Observability,
            Rule::Concurrency,
            Rule::LockOrder,
            Rule::GuardAcrossBlocking,
            Rule::SwallowedError,
            Rule::MetricName,
            Rule::StoreDurability,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but does not fail the run.
    Warn,
    /// Fails the run.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Enforcement tier of the crate a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The parsing hot path (`crates/html`, `crates/tagtree`): panic-freedom
    /// rules at deny.
    Hot,
    /// Every other library crate: panic-freedom rules at warn.
    Library,
}

impl Tier {
    /// Severity of `rule` under this tier.
    pub fn severity(self, rule: Rule) -> Severity {
        match (rule, self) {
            // Structural rules hold everywhere. Observability is among
            // them: a silently dropped degradation is wrong in any crate.
            // So is concurrency: a stray thread or an unbounded queue
            // undermines the pool's guarantees no matter which crate
            // spawned it. The flow rules join them: a potential deadlock,
            // a guard held across a blocking call, or a swallowed error is
            // a correctness bug wherever it lives, not a style preference.
            (
                Rule::ForbidUnsafe
                | Rule::BadAllow
                | Rule::Observability
                | Rule::Concurrency
                | Rule::LockOrder
                | Rule::GuardAcrossBlocking
                | Rule::SwallowedError
                | Rule::MetricName
                | Rule::StoreDurability,
                _,
            ) => Severity::Deny,
            (_, Tier::Hot) => Severity::Deny,
            (_, Tier::Library) => Severity::Warn,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Deny or warn under the file's tier.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.file.display(),
            self.line,
            self.severity,
            self.rule,
            self.message
        )
    }
}

/// A justified allow directive, surfaced in reports so waivers stay
/// auditable instead of silently eating findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JustifiedAllow {
    /// File the directive is in.
    pub file: PathBuf,
    /// 1-based line of the directive comment.
    pub line: usize,
    /// Rule names the directive waives.
    pub rules: Vec<String>,
    /// The stated justification.
    pub justification: String,
}

/// Findings plus the justification inventory for one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived exemptions, sorted by file order then line.
    pub findings: Vec<Finding>,
    /// Every well-formed, justified allow directive encountered.
    pub justified: Vec<JustifiedAllow>,
}

/// Runs every rule over one file. `is_crate_root` enables the
/// `forbid-unsafe` check (crate roots: `lib.rs`, `main.rs`, `bin/*.rs`).
pub fn lint_source(path: &Path, source: &str, tier: Tier, is_crate_root: bool) -> Vec<Finding> {
    lint_source_report(path, source, tier, is_crate_root).findings
}

/// [`lint_source`], keeping the justified-allow inventory alongside the
/// findings.
pub fn lint_source_report(path: &Path, source: &str, tier: Tier, is_crate_root: bool) -> Report {
    let analysis = crate::source::analyze(source);
    let model = Model::build(&analysis.masked);
    let mut findings = Vec::new();

    check_panic(path, &analysis, &model, tier, &mut findings);
    check_cast(path, &analysis, &model, tier, &mut findings);
    check_wildcard_match(path, &analysis, &model, tier, &mut findings);
    if is_crate_root {
        check_forbid_unsafe(path, &analysis, &mut findings);
    }
    check_budget(path, &analysis, &model, tier, &mut findings);
    check_observability(path, &analysis, &model, &mut findings);
    check_concurrency(path, &analysis, &model, &mut findings);
    check_metric_name(path, &analysis, &model, source, &mut findings);
    check_store_durability(path, &analysis, &model, &mut findings);
    crate::flow::check_flow(path, &analysis, &model, tier, &mut findings);
    check_allow_directives(path, &analysis, &mut findings);

    // Apply test exemption (every rule except bad-allow) and allow
    // directives.
    findings.retain(|f| {
        if f.rule == Rule::BadAllow {
            return true;
        }
        let test_exempt = matches!(
            f.rule,
            Rule::Panic
                | Rule::Cast
                | Rule::WildcardMatch
                | Rule::Budget
                | Rule::Observability
                | Rule::Concurrency
                | Rule::LockOrder
                | Rule::GuardAcrossBlocking
                | Rule::SwallowedError
                | Rule::MetricName
                | Rule::StoreDurability
        ) && analysis.is_test_line(f.line);
        !test_exempt && !analysis.is_allowed(f.rule.name(), f.line)
    });
    findings.sort_by_key(|f| f.line);

    let justified = analysis
        .allows
        .iter()
        .filter(|a| !a.justification.is_empty())
        .map(|a| JustifiedAllow {
            file: path.to_path_buf(),
            line: a.line,
            rules: a.rules.clone(),
            justification: a.justification.clone(),
        })
        .collect();
    Report {
        findings,
        justified,
    }
}

pub(crate) fn push(
    findings: &mut Vec<Finding>,
    path: &Path,
    line: usize,
    rule: Rule,
    severity: Severity,
    message: String,
) {
    findings.push(Finding {
        file: path.to_path_buf(),
        line,
        rule,
        severity,
        message,
    });
}

/// All occurrences of `needle` in `masked` (raw substring positions; pair
/// with a boundary check at the call site).
pub(crate) fn occurrences<'a>(
    masked: &'a str,
    needle: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || {
        let rel = masked.get(from..)?.find(needle)?;
        let at = from + rel;
        from = at + 1;
        Some(at)
    })
}

fn check_panic(path: &Path, a: &Analysis, m: &Model<'_>, tier: Tier, findings: &mut Vec<Finding>) {
    let severity = tier.severity(Rule::Panic);
    for i in 0..m.len() {
        // `.unwrap()` / `.expect(..)` — token-exact, so `.unwrap_or(..)`,
        // `.expect_err(..)`, and identifiers like `try_unwrap_or` never
        // match, while `.unwrap ()` with stray whitespace still does.
        if m.is_punct(i, ".") {
            if m.is_ident(i + 1, "unwrap") && m.is_punct(i + 2, "(") && m.is_punct(i + 3, ")") {
                push(
                    findings,
                    path,
                    a.line_of(m.start(i + 1)),
                    Rule::Panic,
                    severity,
                    "`.unwrap()` can panic".to_owned(),
                );
            }
            if m.is_ident(i + 1, "expect") && m.is_punct(i + 2, "(") {
                push(
                    findings,
                    path,
                    a.line_of(m.start(i + 1)),
                    Rule::Panic,
                    severity,
                    "`.expect` can panic".to_owned(),
                );
            }
        }
        if m.kind(i) == Some(TokenKind::Ident)
            && matches!(
                m.text(i),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && m.is_punct(i + 1, "!")
        {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Panic,
                severity,
                format!("`{}!` in non-test code", m.text(i)),
            );
        }
    }
    check_indexing(path, a, m, severity, findings);
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, the array patterns of
/// `let [a, b] = ..` and `for [a, b] in ..`, …).
fn is_non_indexing_keyword(word: &str) -> bool {
    matches!(
        word,
        "return"
            | "break"
            | "else"
            | "let"
            | "for"
            | "in"
            | "if"
            | "match"
            | "mut"
            | "ref"
            | "move"
            | "const"
            | "static"
            | "as"
            | "dyn"
            | "impl"
            | "where"
            | "yield"
            | "box"
    )
}

fn check_indexing(
    path: &Path,
    a: &Analysis,
    m: &Model<'_>,
    severity: Severity,
    findings: &mut Vec<Finding>,
) {
    for i in 0..m.len() {
        if !m.is_punct(i, "[") {
            continue;
        }
        let indexes = match i.checked_sub(1).and_then(|p| m.kind(p)) {
            Some(TokenKind::Ident) => {
                let p = i - 1;
                let word = m.text(p);
                if i.checked_sub(2).is_some_and(|q| m.is_punct(q, ".")) {
                    // `.await[...]` indexes even though `await` is a keyword.
                    true
                } else {
                    !is_non_indexing_keyword(word)
                }
            }
            // `f(..)[i]`, `v[0][1]`, `x?[i]` index; a lifetime (`&'a [u8]`),
            // `&`, `!` (macro bang, as in `vec![..]`), `{`, `->`, `,`, `=`
            // and friends introduce array types/literals instead.
            Some(TokenKind::Punct) => {
                let p = i - 1;
                m.is_punct(p, ")") || m.is_punct(p, "]") || m.is_punct(p, "?")
            }
            _ => false,
        };
        if indexes {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Panic,
                severity,
                "slice/array indexing `[...]` can panic; use `.get(..)`".to_owned(),
            );
        }
    }
}

fn check_cast(path: &Path, a: &Analysis, m: &Model<'_>, tier: Tier, findings: &mut Vec<Finding>) {
    let severity = tier.severity(Rule::Cast);
    for i in 0..m.len() {
        if !m.is_ident(i, "as") {
            continue;
        }
        if m.kind(i + 1) != Some(TokenKind::Ident) {
            continue;
        }
        let target = m.text(i + 1);
        if matches!(target, "u8" | "u16" | "u32") {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Cast,
                severity,
                format!(
                    "narrowing `as {target}` cast can silently truncate byte offsets; \
                     use `{target}::try_from`"
                ),
            );
        }
    }
}

fn check_wildcard_match(
    path: &Path,
    a: &Analysis,
    m: &Model<'_>,
    tier: Tier,
    findings: &mut Vec<Finding>,
) {
    let severity = tier.severity(Rule::WildcardMatch);
    for i in 0..m.len() {
        if !m.is_ident(i, "match") {
            continue;
        }
        // Opening brace of the match block: the first `{` after the
        // scrutinee with intervening `(..)`/`[..]` groups skipped whole.
        let Some(open) = scan_to_block_open(m, i + 1) else {
            continue;
        };
        let Some(close) = m.blocks.close_of(open) else {
            continue;
        };
        let over_guarded_enum = (i + 1..open).any(|k| guarded_enum_ident(m, k))
            || depth1_positions(m, open, close)
                .iter()
                .any(|&k| guarded_enum_ident(m, k) && m.is_punct(k + 1, "::"));
        if !over_guarded_enum {
            continue;
        }
        for &k in &depth1_positions(m, open, close) {
            if !m.is_ident(k, "_") {
                continue;
            }
            if m.is_punct(k + 1, "=>") || m.is_punct(k + 1, "|") || m.is_ident(k + 1, "if") {
                push(
                    findings,
                    path,
                    a.line_of(m.start(k)),
                    Rule::WildcardMatch,
                    severity,
                    "wildcard `_ =>` arm in a match over Token/Event swallows new \
                     variants; enumerate them"
                        .to_owned(),
                );
            }
        }
    }
}

/// `true` when token `k` is exactly the `Token` or `Event` identifier.
fn guarded_enum_ident(m: &Model<'_>, k: usize) -> bool {
    m.is_ident(k, "Token") || m.is_ident(k, "Event")
}

/// First `{` at group depth 0 scanning from `from`; `None` when a `;`
/// intervenes (a `match` in a signature-less position).
fn scan_to_block_open(m: &Model<'_>, from: usize) -> Option<usize> {
    let mut j = from;
    while j < m.len() {
        if m.is_punct(j, "(") || m.is_punct(j, "[") {
            j = m.blocks.close_of(j)? + 1;
            continue;
        }
        if m.is_punct(j, "{") {
            return Some(j);
        }
        if m.is_punct(j, ";") {
            return None;
        }
        j += 1;
    }
    None
}

/// Token indices strictly between `open` and `close` at nesting depth 1:
/// nested `{..}`/`(..)`/`[..]` groups are skipped whole.
fn depth1_positions(m: &Model<'_>, open: usize, close: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        if m.is_punct(j, "{") || m.is_punct(j, "(") || m.is_punct(j, "[") {
            out.push(j);
            j = m.blocks.close_of(j).map(|c| c + 1).unwrap_or(close);
            continue;
        }
        out.push(j);
        j += 1;
    }
    out
}

// Runs on the masked source so a doc comment *mentioning* the attribute
// cannot satisfy the check.
fn check_forbid_unsafe(path: &Path, a: &Analysis, findings: &mut Vec<Finding>) {
    let compact: String = a.masked.split_whitespace().collect();
    if !compact.contains("#![forbid(unsafe_code)]") {
        push(
            findings,
            path,
            1,
            Rule::ForbidUnsafe,
            Severity::Deny,
            "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        );
    }
}

/// Identifiers whose presence in the enclosing function marks growth as
/// governed: the function either takes a budget, checks a limit, or caps
/// its input before allocating.
fn mentions_budget_check(body: &str) -> bool {
    ["budget", "limit", "cap", "deadline"].iter().any(|w| {
        occurrences(body, w).any(|at| {
            // Prefix match is intentional — `budget`, `limits`, `capacity`
            // all count; only a preceding identifier byte (as in `recap`)
            // disqualifies, so `with_capacity` itself never self-certifies.
            let bytes = body.as_bytes();
            at.checked_sub(1)
                .and_then(|i| bytes.get(i))
                .is_none_or(|&b| !is_ident_byte(b))
        })
    })
}

/// Hot-path growth governance: every `with_capacity(` allocation and every
/// self-recursive function in a hot-tier file must sit in a function that
/// names a budget/limit/cap/deadline, or carry a justified `allow(budget)`.
/// Library-tier files are exempt — the rule encodes a contract specific to
/// the tokenizer/tree-builder hot path, where input is attacker-controlled
/// and growth must be provably bounded.
fn check_budget(path: &Path, a: &Analysis, m: &Model<'_>, tier: Tier, findings: &mut Vec<Finding>) {
    if tier != Tier::Hot {
        return;
    }
    for i in 0..m.len() {
        if !(m.is_ident(i, "with_capacity") && m.is_punct(i + 1, "(")) {
            continue;
        }
        let governed = m
            .enclosing_fn(i)
            .is_some_and(|f| mentions_budget_check(m.body_text(f)));
        if !governed {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Budget,
                Severity::Deny,
                "hot-path `with_capacity` without a budget check in the enclosing \
                 function; cap the size or justify with allow(budget)"
                    .to_owned(),
            );
        }
    }

    for f in &m.fns {
        if mentions_budget_check(m.body_text(f)) {
            continue;
        }
        // Direct self-call `name(` — not a method or associated call on
        // some other type (`.name(`, `::name(`) and not a nested `fn`
        // definition — the classic unbounded recursive-descent shape.
        let recursive = (f.body_open + 1..f.body_close).any(|k| {
            m.is_ident(k, &f.name)
                && m.is_punct(k + 1, "(")
                && k.checked_sub(1).is_none_or(|p| {
                    !m.is_punct(p, ".") && !m.is_punct(p, "::") && !m.is_ident(p, "fn")
                })
        });
        if recursive {
            push(
                findings,
                path,
                a.line_of(m.start(f.fn_tok)),
                Rule::Budget,
                Severity::Deny,
                format!(
                    "hot-path function `{}` recurses without a depth budget; \
                     convert to an explicit stack or justify with allow(budget)",
                    f.name
                ),
            );
        }
    }
}

/// `true` if the function body names a sink. The match is on a snake_case
/// segment boundary — `sink`, `sinks`, `active_sink()`, `with_sink`, and a
/// `sink:` field all count; only a `sink` embedded mid-segment (as in
/// `heatsink`) disqualifies.
fn mentions_sink(body: &str) -> bool {
    occurrences(body, "sink").any(|at| {
        let bytes = body.as_bytes();
        at.checked_sub(1)
            .and_then(|i| bytes.get(i))
            .is_none_or(|&b| !b.is_ascii_alphanumeric())
    })
}

/// Degradation events must reach the audit trail: any function that
/// constructs a `DegradationEvent` (the name followed by a brace — struct
/// literal) must also touch a trace sink, normally by routing the event
/// through `note_degradation(&mut degradation, sink, …)`. A function that
/// only pushes the event into its result silently drops it from the trace,
/// which is exactly the class of bug the audit trail exists to prevent.
/// Constructions outside any function (the type's own definition,
/// `impl` headers) are structural, not emissions, and are skipped.
fn check_observability(path: &Path, a: &Analysis, m: &Model<'_>, findings: &mut Vec<Finding>) {
    for i in 0..m.len() {
        if !(m.is_ident(i, "DegradationEvent") && m.is_punct(i + 1, "{")) {
            continue;
        }
        let Some(f) = m.enclosing_fn(i) else {
            continue;
        };
        if !mentions_sink(m.body_text(f)) {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Observability,
                Severity::Deny,
                "`DegradationEvent` constructed here but the enclosing function never \
                 touches a trace sink; emit it to the active sink (e.g. via \
                 `note_degradation`) or justify with allow(observability)"
                    .to_owned(),
            );
        }
    }
}

/// Thread and channel discipline. Threads may only be spawned inside
/// `crates/pipeline` (any path with a `pipeline` component), scoped
/// (`thread::scope`) or not — the pipeline owns every worker, so shutdown,
/// panic isolation, and metrics aggregation have exactly one
/// implementation. Unbounded `mpsc::channel` constructs are
/// denied *everywhere*, the pipeline crate included: its whole design is
/// bounded queues (`mpsc::sync_channel` and the pipeline's own `Bounded`
/// pass).
///
/// The network tier (any path with a `serve` component) carries one more
/// obligation: a function that accepts a connection (`.accept(`) must also
/// call `set_read_timeout` *and* `set_write_timeout` before the stream
/// leaves its hands. A `TcpStream` without deadlines is a slowloris
/// foothold — one byte-dribbling client per worker wedges the pool forever.
///
/// Test code is exempt, and a justified `allow(concurrency)` escapes.
fn check_concurrency(path: &Path, a: &Analysis, m: &Model<'_>, findings: &mut Vec<Finding>) {
    let in_pipeline = path.components().any(|c| c.as_os_str() == "pipeline");
    if path.components().any(|c| c.as_os_str() == "serve") {
        check_accept_timeouts(path, a, m, findings);
    }
    for i in 0..m.len() {
        if !m.is_punct(i + 1, "::") {
            continue;
        }
        if !in_pipeline
            && m.is_ident(i, "thread")
            && (m.is_ident(i + 2, "spawn")
                || m.is_ident(i + 2, "Builder")
                || m.is_ident(i + 2, "scope"))
        {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Concurrency,
                Severity::Deny,
                format!(
                    "raw `thread::{}` outside `crates/pipeline`; route concurrency \
                     through the rbd-pipeline worker pool",
                    m.text(i + 2)
                ),
            );
        }
        if m.is_ident(i, "mpsc") && m.is_ident(i + 2, "channel") {
            push(
                findings,
                path,
                a.line_of(m.start(i)),
                Rule::Concurrency,
                Severity::Deny,
                "unbounded `mpsc::channel` can grow without limit under load; use a \
                 bounded queue (`mpsc::sync_channel`) or the rbd-pipeline worker pool"
                    .to_owned(),
            );
        }
    }
}

/// The serve-tier half of the concurrency rule: every function that calls
/// `.accept(` must also name `set_read_timeout` and `set_write_timeout` in
/// its body. Matching is token-exact, so `accept` as a free function or an
/// identifier like `acceptable` never counts, and the timeout calls may sit
/// in any position (directly on the stream, through a helper the function
/// also defines, behind `?`).
fn check_accept_timeouts(path: &Path, a: &Analysis, m: &Model<'_>, findings: &mut Vec<Finding>) {
    for f in &m.fns {
        let body = f.body_open + 1..f.body_close;
        let accept_at = body.clone().find(|&k| {
            m.is_ident(k, "accept")
                && m.is_punct(k + 1, "(")
                && k.checked_sub(1).is_some_and(|p| m.is_punct(p, "."))
        });
        let Some(accept_at) = accept_at else {
            continue;
        };
        let has_read = body.clone().any(|k| m.is_ident(k, "set_read_timeout"));
        let has_write = body.clone().any(|k| m.is_ident(k, "set_write_timeout"));
        if !(has_read && has_write) {
            push(
                findings,
                path,
                a.line_of(m.start(accept_at)),
                Rule::Concurrency,
                Severity::Deny,
                format!(
                    "`{}` accepts a connection but never arms both socket deadlines; \
                     call `set_read_timeout` and `set_write_timeout` in the same \
                     function (slowloris defense) or justify with allow(concurrency)",
                    f.name
                ),
            );
        }
    }
}

/// The prefixes that partition the metric namespace by subsystem.
const METRIC_PREFIXES: [&str; 5] = ["serve_", "pipeline_", "extract_", "trace_", "store_"];

/// Metric-name hygiene: a string literal registered as a counter or
/// histogram — the first argument of an `.add(` or `.observe(` call —
/// must be snake_case over `[a-z0-9_]` and start with a subsystem prefix
/// ([`METRIC_PREFIXES`]). Names that flow in through variables (span
/// names recorded via `span.name`) are out of scope by construction: the
/// rule only fires on a literal in argument position.
///
/// The token model is built over the masked source (string interiors
/// blanked), but masking preserves byte offsets, so the literal's actual
/// text is read from the raw source at the token's span.
fn check_metric_name(
    path: &Path,
    a: &Analysis,
    m: &Model<'_>,
    source: &str,
    findings: &mut Vec<Finding>,
) {
    for i in 0..m.len() {
        if !m.is_punct(i, ".") {
            continue;
        }
        if !(m.is_ident(i + 1, "add") || m.is_ident(i + 1, "observe")) || !m.is_punct(i + 2, "(") {
            continue;
        }
        if m.kind(i + 3) != Some(TokenKind::Literal) {
            continue;
        }
        let Some(raw) = source.get(m.start(i + 3)..m.end(i + 3)) else {
            continue;
        };
        // Only plain string literals name metrics; numeric literals
        // (`checked_add(1)`, `duration.add(…)`) are arithmetic, not
        // registration.
        let Some(name) = raw
            .strip_prefix('"')
            .and_then(|rest| rest.strip_suffix('"'))
        else {
            continue;
        };
        let prefixed = METRIC_PREFIXES.iter().any(|p| name.starts_with(p));
        let snake = !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
        if !(prefixed && snake) {
            push(
                findings,
                path,
                a.line_of(m.start(i + 3)),
                Rule::MetricName,
                Severity::Deny,
                format!(
                    "metric name {raw} must be snake_case over [a-z0-9_] with a \
                     `serve_`/`pipeline_`/`extract_`/`trace_`/`store_` prefix; \
                     dashboards and alerts depend on one uniform namespace"
                ),
            );
        }
    }
}

/// Durability discipline for persistence code: in any file whose path has a
/// `store` component, a function that performs a file write (`.write(` or
/// `.write_all(` as a method call) must also name `sync_all` or `sync_data`
/// somewhere in its body — directly or through the helper it delegates to.
/// A write the kernel has buffered but not flushed is a torn-tail crash
/// window: the caller sees `Ok`, the bytes evaporate on power loss. The
/// store crate satisfies this by routing every write through one
/// `write_and_sync` helper; the rule keeps future writes on that path.
fn check_store_durability(path: &Path, a: &Analysis, m: &Model<'_>, findings: &mut Vec<Finding>) {
    if !path.components().any(|c| c.as_os_str() == "store") {
        return;
    }
    for f in &m.fns {
        let body = f.body_open + 1..f.body_close;
        let write_at = body.clone().find(|&k| {
            (m.is_ident(k, "write_all") || m.is_ident(k, "write"))
                && m.is_punct(k + 1, "(")
                && k.checked_sub(1).is_some_and(|p| m.is_punct(p, "."))
                // `.write(true)` / `.write(false)` is an `OpenOptions` mode
                // flag, not a data write.
                && !((m.is_ident(k + 2, "true") || m.is_ident(k + 2, "false"))
                    && m.is_punct(k + 3, ")"))
        });
        let Some(write_at) = write_at else {
            continue;
        };
        let synced = body
            .clone()
            .any(|k| m.is_ident(k, "sync_all") || m.is_ident(k, "sync_data"));
        if !synced {
            push(
                findings,
                path,
                a.line_of(m.start(write_at)),
                Rule::StoreDurability,
                Severity::Deny,
                format!(
                    "`{}` writes to a file but never calls `sync_all`/`sync_data`; \
                     an unsynced write is lost on crash after the caller saw Ok — \
                     route the write through the store's write-and-sync helper or \
                     justify with allow(store-durability)",
                    f.name
                ),
            );
        }
    }
}

fn check_allow_directives(path: &Path, a: &Analysis, findings: &mut Vec<Finding>) {
    for &line in &a.malformed_allows {
        push(
            findings,
            path,
            line,
            Rule::BadAllow,
            Severity::Deny,
            "malformed rbd-lint directive; expected `rbd-lint: allow(<rule>) — \
             <justification>` or `rbd-lint: lock-order(a < b)`"
                .to_owned(),
        );
    }
    let known: Vec<&str> = Rule::all().iter().map(|r| r.name()).collect();
    for d in &a.allows {
        if d.justification.is_empty() {
            push(
                findings,
                path,
                d.line,
                Rule::BadAllow,
                Severity::Deny,
                "allow directive requires a justification string after the rule list".to_owned(),
            );
        }
        for r in &d.rules {
            if !known.contains(&r.as_str()) {
                push(
                    findings,
                    path,
                    d.line,
                    Rule::BadAllow,
                    Severity::Deny,
                    format!("unknown rule `{r}` in allow directive"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, Tier::Hot, false)
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- panic rule: trigger direction ---

    #[test]
    fn unwrap_flagged() {
        let f = lint("fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
    }

    #[test]
    fn expect_flagged() {
        let f = lint("fn f(x: Option<u8>) -> u8 { x.expect(\"msg\") }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
    }

    #[test]
    fn panic_macros_flagged() {
        for src in [
            "fn f() { panic!(\"boom\"); }\n",
            "fn f() { unreachable!(); }\n",
            "fn f() { todo!(); }\n",
            "fn f() { unimplemented!(); }\n",
        ] {
            let f = lint(src);
            assert_eq!(rules_of(&f), vec![Rule::Panic], "{src}");
        }
    }

    #[test]
    fn indexing_flagged() {
        let f = lint("fn f(v: &[u8]) -> u8 { v[0] }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
        let f = lint("fn f(s: &str) -> &str { &s[1..3] }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
    }

    #[test]
    fn array_patterns_not_flagged() {
        assert!(lint("fn f(x: [u8; 2]) -> u8 { let [a, b] = x; a + b }\n").is_empty());
        assert!(lint(
            "fn f(p: &[[u8; 2]]) -> u8 { let mut s = 0; for [a, b] in p { s += a + b; } s }\n"
        )
        .is_empty());
        // A real index beside the pattern is still caught.
        let f = lint("fn f(x: [u8; 2]) -> u8 { let [a, _b] = x; a + x[0] }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
    }

    #[test]
    fn unwrap_or_is_fine() {
        assert!(lint("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n").is_empty());
        assert!(lint("fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n").is_empty());
    }

    #[test]
    fn array_types_and_literals_not_flagged() {
        assert!(lint("fn f() -> [u8; 2] { [1, 2] }\n").is_empty());
        assert!(lint("struct S<'a> { bytes: &'a [u8] }\n").is_empty());
        assert!(lint("fn f(x: &'static [u8]) -> usize { x.len() }\n").is_empty());
        assert!(lint("static T: &[(&str, u8)] = &[(\"a\", 1)];\n").is_empty());
        assert!(lint("fn f() { let _v = vec![1, 2, 3]; }\n").is_empty());
        assert!(
            lint("fn f(x: bool) -> Vec<u8> { if x { return [1].to_vec(); } vec![] }\n").is_empty()
        );
    }

    #[test]
    fn needles_in_strings_and_comments_ignored() {
        assert!(lint("// a comment about .unwrap() and panic!\nfn f() {}\n").is_empty());
        assert!(lint("fn f() -> &'static str { \"don't panic![0]\" }\n").is_empty());
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    // --- panic rule: former substring false positives, pinned ---

    #[test]
    fn identifiers_containing_rule_keywords_never_match() {
        for src in [
            // `try_unwrap_or` / `unwrap_budget` contain `unwrap`; token
            // matching sees one identifier, not a substring.
            "fn f(x: M) -> u8 { x.try_unwrap_or(0) }\n",
            "fn f(b: &Limits) -> usize { b.unwrap_budget }\n",
            "fn f(x: R) -> u8 { x.expect_err_or(0) }\n",
            // A field or fn named exactly `unwrap`-adjacent but not a call.
            "fn unwrap_all(xs: &[u8]) -> usize { xs.len() }\n",
        ] {
            assert!(lint(src).is_empty(), "{src} -> {:?}", lint(src));
        }
    }

    #[test]
    fn unwrap_with_whitespace_before_parens_is_caught() {
        // The old substring needle `.unwrap()` missed `.unwrap ()`; the
        // token stream does not care about spaces.
        let f = lint("fn f(x: Option<u8>) -> u8 { x.unwrap () }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
        let f = lint("fn f(x: Option<u8>) -> u8 { x.unwrap\n        () }\n");
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
    }

    #[test]
    fn macro_lookalike_identifiers_not_flagged() {
        assert!(lint("fn f() { my_panic_handler(); }\n").is_empty());
        assert!(lint("fn f(todo_list: &[u8]) -> usize { todo_list.len() }\n").is_empty());
    }

    // --- panic rule: allow-escape direction ---

    #[test]
    fn justified_allow_suppresses_panic() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // rbd-lint: allow(panic) — loop guard proves the index in bounds\n    v[0]\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn unjustified_allow_is_bad_allow_and_does_not_suppress() {
        let src = "fn f(v: &[u8]) -> u8 {\n    v[0] // rbd-lint: allow(panic)\n}\n";
        let f = lint(src);
        assert!(f.iter().any(|x| x.rule == Rule::Panic), "{f:?}");
        assert!(f.iter().any(|x| x.rule == Rule::BadAllow), "{f:?}");
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // rbd-lint: allow(cast) — wrong rule named here\n    v[0]\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::Panic]);
    }

    // --- cast rule ---

    #[test]
    fn narrowing_casts_flagged() {
        for target in ["u8", "u16", "u32"] {
            let src = format!("fn f(n: usize) -> {target} {{ n as {target} }}\n");
            let f = lint(&src);
            assert_eq!(rules_of(&f), vec![Rule::Cast], "{src}");
        }
    }

    #[test]
    fn widening_casts_not_flagged() {
        assert!(lint("fn f(n: u8) -> usize { n as usize }\n").is_empty());
        assert!(lint("fn f(n: u32) -> u64 { n as u64 }\n").is_empty());
        assert!(lint("fn f(n: u8) -> char { n as char }\n").is_empty());
    }

    #[test]
    fn ident_containing_as_not_flagged() {
        // `alias`, `has_u8` — the `as` inside an identifier is not the
        // cast keyword.
        assert!(lint("fn f(alias: u64, has_u8: bool) -> u64 { alias }\n").is_empty());
    }

    #[test]
    fn justified_allow_suppresses_cast() {
        let src = "fn f(n: usize) -> u32 {\n    // rbd-lint: allow(cast) — n is checked against u32::MAX by the caller\n    n as u32\n}\n";
        assert!(lint(src).is_empty());
    }

    // --- wildcard-match rule ---

    #[test]
    fn wildcard_over_token_flagged() {
        let src = "fn f(t: &Token) -> u8 {\n    match t {\n        Token::Start(_) => 1,\n        _ => 0,\n    }\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::WildcardMatch]);
    }

    #[test]
    fn wildcard_over_event_flagged() {
        let src = "fn f(e: &Event) -> u8 {\n    match e {\n        Event::Text { .. } => 1,\n        _ => 0,\n    }\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::WildcardMatch]);
    }

    #[test]
    fn exhaustive_token_match_not_flagged() {
        let src = "fn f(t: &Token) -> u8 {\n    match t {\n        Token::Start(_) => 1,\n        Token::End(_) => 2,\n    }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn wildcard_over_other_enum_not_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    match x {\n        Some(v) => v,\n        _ => 0,\n    }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn tokenkind_is_not_token() {
        // `TokenKind` is a different identifier; a wildcard over it is not
        // a wildcard over `Token`.
        let src = "fn f(k: TokenKind) -> u8 {\n    match k {\n        TokenKind::Ident => 1,\n        _ => 0,\n    }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn nested_binding_underscore_not_flagged() {
        let src = "fn f(t: &Token) -> u8 {\n    match t {\n        Token::Start(_) => 1,\n        Token::End(_) => 2,\n        Token::Text(_) => 3,\n    }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_wildcard() {
        let src = "fn f(t: &Token) -> u8 {\n    match t {\n        Token::Start(_) => 1,\n        // rbd-lint: allow(wildcard-match) — forward compatibility shim for external callers\n        _ => 0,\n    }\n}\n";
        assert!(lint(src).is_empty());
    }

    // --- forbid-unsafe rule ---

    #[test]
    fn missing_forbid_unsafe_flagged_on_crate_root() {
        let f = lint_source(Path::new("lib.rs"), "pub fn f() {}\n", Tier::Library, true);
        assert_eq!(rules_of(&f), vec![Rule::ForbidUnsafe]);
        assert_eq!(f.first().map(|x| x.severity), Some(Severity::Deny));
    }

    #[test]
    fn present_forbid_unsafe_passes() {
        let f = lint_source(
            Path::new("lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            Tier::Library,
            true,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn non_root_files_skip_forbid_check() {
        let f = lint_source(
            Path::new("helper.rs"),
            "pub fn f() {}\n",
            Tier::Library,
            false,
        );
        assert!(f.is_empty());
    }

    // --- severity tiers ---

    #[test]
    fn hot_tier_denies_library_tier_warns() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let hot = lint_source(Path::new("a.rs"), src, Tier::Hot, false);
        let lib = lint_source(Path::new("a.rs"), src, Tier::Library, false);
        assert_eq!(hot.first().map(|f| f.severity), Some(Severity::Deny));
        assert_eq!(lib.first().map(|f| f.severity), Some(Severity::Warn));
    }

    #[test]
    fn flow_rules_deny_in_every_tier() {
        for rule in [
            Rule::LockOrder,
            Rule::GuardAcrossBlocking,
            Rule::SwallowedError,
        ] {
            assert_eq!(Tier::Hot.severity(rule), Severity::Deny);
            assert_eq!(Tier::Library.severity(rule), Severity::Deny);
        }
    }

    #[test]
    fn unknown_rule_in_allow_reported() {
        let src = "fn f() {} // rbd-lint: allow(bogus) — justification present\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::BadAllow]);
    }

    #[test]
    fn new_rule_names_accepted_in_allows() {
        let src = "fn f() {} // rbd-lint: allow(lock-order, guard-across-blocking, swallowed-error, store-durability) — names resolve\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    // --- report surface ---

    #[test]
    fn report_collects_justified_allows() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // rbd-lint: allow(panic) — index proven in bounds by loop guard\n    v[0]\n}\n";
        let r = lint_source_report(Path::new("a.rs"), src, Tier::Hot, false);
        assert!(r.findings.is_empty());
        assert_eq!(r.justified.len(), 1);
        assert_eq!(
            r.justified.first().map(|j| j.rules.clone()),
            Some(vec!["panic".to_owned()])
        );
    }

    // --- budget rule ---

    #[test]
    fn ungoverned_with_capacity_flagged_in_hot_tier() {
        let src = "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::Budget]);
        assert_eq!(f.first().map(|x| x.severity), Some(Severity::Deny));
    }

    #[test]
    fn budget_identifier_in_function_governs_allocation() {
        for src in [
            "fn f(n: usize, budget: usize) -> Vec<u8> { Vec::with_capacity(n.min(budget)) }\n",
            "fn f(n: usize, limit: usize) -> Vec<u8> { Vec::with_capacity(n.min(limit)) }\n",
            "fn f(n: usize, cap: usize) -> Vec<u8> { Vec::with_capacity(n.min(cap)) }\n",
        ] {
            assert!(lint(src).is_empty(), "{src}");
        }
    }

    #[test]
    fn with_capacity_does_not_self_certify_via_cap_prefix() {
        // The `cap` inside `with_capacity` itself must not count as
        // governance.
        let src = "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
        assert!(!lint(src).is_empty());
    }

    #[test]
    fn self_recursion_flagged_without_depth_budget() {
        let src =
            "fn walk(d: usize) -> usize {\n    if d == 0 { return 0; }\n    walk(d - 1) + 1\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::Budget]);
    }

    #[test]
    fn self_recursion_with_budget_not_flagged() {
        let src = "fn walk(d: usize, budget: usize) -> usize {\n    if d >= budget { return 0; }\n    walk(d + 1, budget) + 1\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn method_and_associated_calls_are_not_recursion() {
        // `Other::new(...)` and `self.len()` inside `fn new`/`fn len` are
        // calls to *different* items, not self-recursion.
        let src = "fn new(n: usize) -> Vec<u8> { Other::new(n).collect() }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        let src = "fn len(v: &[u8]) -> usize { v.len() }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn budget_rule_is_hot_tier_only() {
        let src = "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
        let lib = lint_source(Path::new("a.rs"), src, Tier::Library, false);
        assert!(lib.is_empty(), "{lib:?}");
    }

    #[test]
    fn budget_rule_exempts_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n}\n";
        assert!(lint(src).is_empty());
    }

    // --- observability rule ---

    #[test]
    fn degradation_without_sink_flagged() {
        let src = "fn f(events: &mut Vec<DegradationEvent>) {\n    events.push(DegradationEvent { stage, cause });\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::Observability]);
        assert_eq!(f.first().map(|x| x.severity), Some(Severity::Deny));
    }

    #[test]
    fn degradation_routed_to_sink_passes() {
        for src in [
            "fn f(events: &mut Vec<DegradationEvent>, sink: &dyn TraceSink) {\n    note_degradation(events, sink, DegradationEvent { stage, cause });\n}\n",
            "fn f(&self, events: &mut Vec<DegradationEvent>) {\n    note_degradation(events, self.active_sink(), DegradationEvent { stage, cause });\n}\n",
        ] {
            assert!(lint(src).is_empty(), "{src}");
        }
    }

    #[test]
    fn observability_denies_in_library_tier_too() {
        let src = "fn f(v: &mut Vec<DegradationEvent>) {\n    v.push(DegradationEvent { stage, cause });\n}\n";
        let f = lint_source(Path::new("a.rs"), src, Tier::Library, false);
        assert_eq!(f.first().map(|x| x.severity), Some(Severity::Deny));
    }

    #[test]
    fn struct_definition_and_impl_header_not_flagged() {
        let src = "pub struct DegradationEvent {\n    pub stage: u8,\n}\n\nimpl fmt::Display for DegradationEvent {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n        write!(f, \"{}\", self.stage)\n    }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn degradation_type_mention_without_construction_not_flagged() {
        let src = "fn f(events: Vec<DegradationEvent>) -> usize { events.len() }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn embedded_sink_identifier_does_not_certify() {
        // `heatsink` contains "sink" only mid-segment, with no snake_case
        // boundary before it.
        let src = "fn f(v: &mut Vec<DegradationEvent>) {\n    heatsink();\n    v.push(DegradationEvent { stage, cause });\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::Observability]);
    }

    #[test]
    fn snake_case_sink_segment_certifies() {
        let src = "fn f(v: &mut Vec<DegradationEvent>) {\n    emit(self.active_sink(), DegradationEvent { stage, cause });\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn observability_exempts_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    fn mk() -> DegradationEvent { DegradationEvent { stage, cause } }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_observability() {
        let src = "fn f(v: &mut Vec<DegradationEvent>) {\n    // rbd-lint: allow(observability) — caller re-emits the whole vec to its sink\n    v.push(DegradationEvent { stage, cause });\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_budget() {
        let src = "fn f(n: usize) -> Vec<u8> {\n    // rbd-lint: allow(budget) — n is the token count, capped upstream\n    Vec::with_capacity(n)\n}\n";
        assert!(lint(src).is_empty());
    }

    // --- concurrency rule ---

    #[test]
    fn raw_thread_spawn_flagged() {
        let src = "fn f() {\n    std::thread::spawn(|| ());\n}\n";
        let findings = lint(src);
        assert_eq!(rules_of(&findings), vec![Rule::Concurrency]);
        assert_eq!(findings.first().map(|f| f.severity), Some(Severity::Deny));
    }

    #[test]
    fn thread_builder_flagged() {
        let src = "fn f() {\n    let b = std::thread::Builder::new();\n}\n";
        assert_eq!(rules_of(&lint(src)), vec![Rule::Concurrency]);
    }

    #[test]
    fn unbounded_mpsc_channel_flagged() {
        let src = "fn f() {\n    let (tx, rx) = std::sync::mpsc::channel::<u64>();\n}\n";
        assert_eq!(rules_of(&lint(src)), vec![Rule::Concurrency]);
    }

    #[test]
    fn bounded_sync_channel_is_clean() {
        let src = "fn f() {\n    let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(8);\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn spawn_inside_pipeline_crate_is_exempt() {
        let src = "fn f() {\n    std::thread::spawn(|| ());\n}\n";
        let findings = lint_source(
            Path::new("crates/pipeline/src/pool.rs"),
            src,
            Tier::Library,
            false,
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn unbounded_channel_denied_even_inside_pipeline() {
        let src = "fn f() {\n    let (tx, rx) = std::sync::mpsc::channel::<u64>();\n}\n";
        let findings = lint_source(
            Path::new("crates/pipeline/src/pool.rs"),
            src,
            Tier::Library,
            false,
        );
        assert_eq!(rules_of(&findings), vec![Rule::Concurrency]);
    }

    #[test]
    fn spawn_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_concurrency() {
        let src = "fn f() {\n    // rbd-lint: allow(concurrency) — one-shot watchdog, joined before return\n    std::thread::spawn(|| ());\n}\n";
        assert!(lint(src).is_empty());
    }

    // --- concurrency rule: serve tier (accept without socket deadlines) ---

    fn lint_serve(src: &str) -> Vec<Finding> {
        lint_source(
            Path::new("crates/serve/src/server.rs"),
            src,
            Tier::Library,
            false,
        )
    }

    #[test]
    fn accept_without_timeouts_flagged_in_serve() {
        let src = "fn f(l: &std::net::TcpListener) {\n    let (s, _) = l.accept().unwrap();\n    drop(s);\n}\n";
        let findings = lint_serve(src);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Concurrency && f.severity == Severity::Deny),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("set_read_timeout")),
            "{findings:?}"
        );
    }

    #[test]
    fn accept_with_one_timeout_still_flagged() {
        let src = "fn f(l: &std::net::TcpListener) {\n    let (s, _) = l.accept().expect(\"x\");\n    s.set_read_timeout(None).expect(\"x\");\n}\n";
        assert!(
            lint_serve(src).iter().any(|f| f.rule == Rule::Concurrency),
            "one deadline is not enough"
        );
    }

    #[test]
    fn accept_with_both_timeouts_is_clean() {
        let src = "fn f(l: &std::net::TcpListener) -> std::io::Result<()> {\n    let (s, _) = l.accept()?;\n    s.set_read_timeout(None)?;\n    s.set_write_timeout(None)?;\n    Ok(())\n}\n";
        let findings = lint_serve(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::Concurrency),
            "{findings:?}"
        );
    }

    #[test]
    fn accept_rule_only_applies_under_serve_paths() {
        let src = "fn f(l: &std::net::TcpListener) -> std::io::Result<()> {\n    let (s, _) = l.accept()?;\n    drop(s);\n    Ok(())\n}\n";
        let findings = lint_source(
            Path::new("crates/eval/src/fetch.rs"),
            src,
            Tier::Library,
            false,
        );
        assert!(
            !findings.iter().any(|f| f.rule == Rule::Concurrency),
            "{findings:?}"
        );
    }

    #[test]
    fn acceptable_identifier_does_not_trip_accept_rule() {
        let src = "fn f(x: &T) {\n    x.acceptable();\n    accept(1);\n}\n";
        let findings = lint_serve(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::Concurrency),
            "{findings:?}"
        );
    }

    // --- metric-name rule ---

    #[test]
    fn unprefixed_metric_name_flagged() {
        let src = "fn f(sink: &dyn TraceSink) {\n    sink.add(\"docs_extracted\", 1);\n}\n";
        let f = lint(src);
        assert_eq!(rules_of(&f), vec![Rule::MetricName]);
        assert_eq!(f.first().map(|x| x.severity), Some(Severity::Deny));
        assert!(
            f.first()
                .is_some_and(|x| x.message.contains("docs_extracted")),
            "{f:?}"
        );
    }

    #[test]
    fn non_snake_case_metric_name_flagged() {
        for src in [
            "fn f(r: &Registry) {\n    r.observe(\"serve:latency\", 5);\n}\n",
            "fn f(r: &Registry) {\n    r.add(\"serve_Requests\", 1);\n}\n",
            "fn f(r: &Registry) {\n    r.add(\"serve_requests-ok\", 1);\n}\n",
        ] {
            let f = lint(src);
            assert_eq!(rules_of(&f), vec![Rule::MetricName], "{src}");
        }
    }

    #[test]
    fn prefixed_snake_case_metric_names_pass() {
        for src in [
            "fn f(s: &dyn TraceSink) {\n    s.add(\"serve_requests_ok\", 1);\n}\n",
            "fn f(s: &dyn TraceSink) {\n    s.add(\"pipeline_queue_wait\", 1);\n}\n",
            "fn f(r: &Registry) {\n    r.observe(\"extract_tags_scanned\", 42);\n}\n",
            "fn f(r: &Registry) {\n    r.add(\"trace_events_dropped\", 1);\n}\n",
        ] {
            assert!(lint(src).is_empty(), "{src} -> {:?}", lint(src));
        }
    }

    #[test]
    fn non_literal_and_non_string_arguments_are_out_of_scope() {
        for src in [
            // Span names flow through a variable; the callee owns hygiene.
            "fn f(r: &Registry, span: Span) {\n    r.observe(span.name, span.nanos);\n}\n",
            // Arithmetic `.add(` with a numeric literal is not registration.
            "fn f(n: u64) -> Option<u64> {\n    n.checked_add(1)\n}\n",
        ] {
            assert!(lint(src).is_empty(), "{src} -> {:?}", lint(src));
        }
    }

    #[test]
    fn metric_name_rule_exempts_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { sink.add(\"whatever\", 1); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_metric_name() {
        let src = "fn f(s: &dyn TraceSink) {\n    // rbd-lint: allow(metric-name) — legacy dashboard key, renamed in the next major\n    s.add(\"docs_extracted\", 1);\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn metric_name_denies_in_library_tier_too() {
        let src = "fn f(s: &dyn TraceSink) {\n    s.add(\"bad\", 1);\n}\n";
        let f = lint_source(Path::new("a.rs"), src, Tier::Library, false);
        assert_eq!(
            f.first().map(|x| (x.rule, x.severity)),
            Some((Rule::MetricName, Severity::Deny))
        );
    }

    #[test]
    fn store_prefixed_metric_names_pass() {
        let src = "fn f(s: &dyn TraceSink) {\n    s.add(\"store_cache_hits\", 1);\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    // --- store-durability rule ---

    fn lint_store(src: &str) -> Vec<Finding> {
        lint_source(
            Path::new("crates/store/src/log.rs"),
            src,
            Tier::Library,
            false,
        )
    }

    #[test]
    fn unsynced_write_flagged_in_store_paths() {
        let src = "fn f(file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {\n    use std::io::Write;\n    file.write_all(buf)?;\n    Ok(())\n}\n";
        let findings = lint_store(src);
        assert_eq!(rules_of(&findings), vec![Rule::StoreDurability]);
        assert_eq!(findings.first().map(|x| x.severity), Some(Severity::Deny));
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("sync_all") && f.message.contains("`f`")),
            "{findings:?}"
        );
    }

    #[test]
    fn bare_write_without_sync_also_flagged() {
        let src = "fn f(file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<usize> {\n    use std::io::Write;\n    file.write(buf)\n}\n";
        assert_eq!(rules_of(&lint_store(src)), vec![Rule::StoreDurability]);
    }

    #[test]
    fn write_followed_by_sync_is_clean() {
        let src = "fn f(file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {\n    use std::io::Write;\n    file.write_all(buf)?;\n    file.sync_data()?;\n    Ok(())\n}\n";
        let findings = lint_store(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StoreDurability),
            "{findings:?}"
        );
    }

    #[test]
    fn delegating_to_a_sync_helper_is_clean() {
        // Callers that route bytes through the store's centralized
        // write-and-sync helper never touch `.write(` themselves, so the
        // rule sees only the helper — which names the sync call.
        let src = "fn commit(s: &mut Store, buf: &[u8]) -> std::io::Result<()> {\n    s.write_and_sync(0, buf)\n}\n";
        let findings = lint_store(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StoreDurability),
            "{findings:?}"
        );
    }

    #[test]
    fn open_options_write_flag_is_not_a_data_write() {
        let src = "fn f(p: &std::path::Path) -> std::io::Result<std::fs::File> {\n    std::fs::OpenOptions::new().read(true).write(true).create(true).open(p)\n}\n";
        let findings = lint_store(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StoreDurability),
            "{findings:?}"
        );
    }

    #[test]
    fn store_durability_only_applies_under_store_paths() {
        let src = "fn f(file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {\n    use std::io::Write;\n    file.write_all(buf)?;\n    Ok(())\n}\n";
        let findings = lint_source(
            Path::new("crates/trace/src/export.rs"),
            src,
            Tier::Library,
            false,
        );
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StoreDurability),
            "{findings:?}"
        );
    }

    #[test]
    fn store_durability_exempts_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        use std::io::Write;\n        let mut f = std::fs::File::create(\"x\").unwrap();\n        f.write_all(b\"y\").unwrap();\n    }\n}\n";
        let findings = lint_store(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StoreDurability),
            "{findings:?}"
        );
    }

    #[test]
    fn justified_allow_suppresses_store_durability() {
        let src = "fn f(file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {\n    use std::io::Write;\n    // rbd-lint: allow(store-durability) — scratch temp file, synced by the caller on rename\n    file.write_all(buf)?;\n    Ok(())\n}\n";
        let findings = lint_store(src);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StoreDurability),
            "{findings:?}"
        );
    }
}
