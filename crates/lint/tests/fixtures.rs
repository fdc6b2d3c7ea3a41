//! Every violation fixture must produce at least one deny-severity finding
//! for its rule, and every clean fixture must produce none — the acceptance
//! contract of `rbd-lint`.

use rbd_lint::{has_deny, lint_path, Rule};
use std::path::PathBuf;

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

fn assert_denies(rel: &str, rule: Rule) {
    let findings = lint_path(&fixture(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"));
    assert!(
        has_deny(&findings),
        "{rel} should produce deny findings, got {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "{rel} should trigger `{rule}`, got {findings:?}"
    );
}

#[test]
fn unwrap_fixture_denies() {
    assert_denies("violations/unwrap.rs", Rule::Panic);
}

#[test]
fn expect_fixture_denies() {
    assert_denies("violations/expect.rs", Rule::Panic);
}

#[test]
fn panic_macro_fixture_denies() {
    assert_denies("violations/panic_macro.rs", Rule::Panic);
}

#[test]
fn indexing_fixture_denies() {
    assert_denies("violations/indexing.rs", Rule::Panic);
}

#[test]
fn cast_fixture_denies() {
    assert_denies("violations/cast.rs", Rule::Cast);
}

#[test]
fn wildcard_fixture_denies() {
    assert_denies("violations/wildcard_match.rs", Rule::WildcardMatch);
}

#[test]
fn bad_allow_fixture_denies_and_does_not_suppress() {
    assert_denies("violations/bad_allow.rs", Rule::BadAllow);
    assert_denies("violations/bad_allow.rs", Rule::Panic);
}

#[test]
fn missing_forbid_unsafe_fixture_denies() {
    assert_denies("violations/missing_forbid_unsafe", Rule::ForbidUnsafe);
}

#[test]
fn allowed_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/allowed.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn test_only_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/test_only.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn compliant_crate_root_is_clean() {
    let findings = lint_path(&fixture("clean/forbidden")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

/// The workspace must pass its own linter: zero deny findings from the repo
/// this test compiles inside. This is the same check CI runs via
/// `cargo run -p rbd-lint`.
#[test]
fn workspace_is_deny_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf();
    let findings = rbd_lint::lint_workspace(&root).expect("workspace readable");
    let denies: Vec<_> = findings
        .iter()
        .filter(|f| f.severity == rbd_lint::Severity::Deny)
        .collect();
    assert!(denies.is_empty(), "deny findings: {denies:#?}");
}

/// The in-tree dependency replacements (`rbd-json`, `rbd-prop`) are
/// workspace members like any other: the linter must classify and scan
/// them, and their sources must lint cleanly at library tier.
#[test]
fn in_tree_harness_crates_are_scanned() {
    use rbd_lint::{lint_crate_src, tier_of, Tier};

    assert_eq!(tier_of("json"), Tier::Library);
    assert_eq!(tier_of("prop"), Tier::Library);

    let crates_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("lint crate lives under crates/")
        .to_path_buf();
    for name in ["json", "prop"] {
        let src = crates_dir.join(name).join("src");
        assert!(src.is_dir(), "crates/{name}/src must exist");
        let findings = lint_crate_src(&src, tier_of(name)).expect("sources readable");
        assert!(
            !rbd_lint::has_deny(&findings),
            "crates/{name} has deny findings: {findings:#?}"
        );
    }
}

#[test]
fn degradation_drop_fixture_denies() {
    assert_denies("violations/degradation_drop.rs", Rule::Observability);
}

#[test]
fn degradation_emitted_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/degradation_emitted.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn concurrency_fixture_denies_spawn_and_unbounded_channel() {
    assert_denies("violations/concurrency.rs", Rule::Concurrency);
    let findings = lint_path(&fixture("violations/concurrency.rs")).expect("fixture readable");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::Concurrency)
        .collect();
    assert_eq!(hits.len(), 2, "spawn + unbounded channel: {hits:?}");
}

#[test]
fn scoped_spawn_fixture_denies() {
    assert_denies("violations/scoped_spawn.rs", Rule::Concurrency);
}

#[test]
fn pipeline_scoped_workers_fixture_is_clean() {
    let findings =
        lint_path(&fixture("clean/pipeline/scoped_workers.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn bounded_concurrency_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/concurrency_bounded.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn serve_accept_without_timeouts_fixture_denies() {
    assert_denies("violations/serve/accept_no_timeout.rs", Rule::Concurrency);
}

#[test]
fn serve_accept_with_timeouts_fixture_is_clean() {
    let findings =
        lint_path(&fixture("clean/serve/accept_with_timeouts.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn budget_fixture_denies_allocation_and_recursion() {
    assert_denies("violations/budget.rs", Rule::Budget);
    let findings = lint_path(&fixture("violations/budget.rs")).expect("fixture readable");
    let budget: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Budget).collect();
    assert_eq!(budget.len(), 2, "allocation + recursion: {budget:?}");
}

#[test]
fn lock_order_fixture_denies() {
    assert_denies("violations/lock_order.rs", Rule::LockOrder);
}

#[test]
fn declared_lock_order_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/lock_order_declared.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn guard_blocking_fixture_denies_send_recv_and_join() {
    assert_denies("violations/guard_blocking.rs", Rule::GuardAcrossBlocking);
    let findings = lint_path(&fixture("violations/guard_blocking.rs")).expect("fixture readable");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::GuardAcrossBlocking)
        .collect();
    assert_eq!(hits.len(), 3, "send + recv + join under guard: {hits:?}");
}

#[test]
fn guard_released_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/guard_released.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn swallowed_error_fixture_denies_both_patterns() {
    assert_denies("violations/swallowed_error.rs", Rule::SwallowedError);
    let findings = lint_path(&fixture("violations/swallowed_error.rs")).expect("fixture readable");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SwallowedError)
        .collect();
    assert_eq!(hits.len(), 2, "`let _ =` + trailing `.ok();`: {hits:?}");
}

#[test]
fn error_traced_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/error_traced.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn metric_name_fixture_denies_each_bad_literal() {
    assert_denies("violations/metric_name.rs", Rule::MetricName);
    let findings = lint_path(&fixture("violations/metric_name.rs")).expect("fixture readable");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::MetricName)
        .collect();
    assert_eq!(hits.len(), 3, "unprefixed + colon + CamelCase: {hits:?}");
}

#[test]
fn metric_name_prefixed_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/metric_name.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn store_unsynced_commit_fixture_denies() {
    assert_denies("violations/store/unsynced_commit.rs", Rule::StoreDurability);
}

#[test]
fn store_synced_commit_fixture_is_clean() {
    let findings = lint_path(&fixture("clean/store/synced_commit.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:?}");
}

/// The linter passes over itself at the strict tier — the same check CI
/// runs as the `lint-self` job.
#[test]
fn lint_crate_is_deny_clean_at_strict_tier() {
    let findings = lint_path(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src"))
        .expect("lint sources readable");
    assert!(
        !has_deny(&findings),
        "rbd-lint fails its own strict tier: {findings:#?}"
    );
}
