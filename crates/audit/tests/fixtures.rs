//! Fixture-driven self-tests for the audit pass: the `bad` tree trips
//! every rule exactly where expected, the `good` tree (the clean twins
//! of the same snippets) is silent, and `audit:allow` suppressions are
//! honored only when used and well-formed.

use std::path::{Path, PathBuf};

use vne_audit::rules::Severity;
use vne_audit::{audit_tree, Report};

fn fixture(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

fn rules_hit(report: &Report, file: &str) -> Vec<&'static str> {
    report
        .findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| f.rule)
        .collect()
}

#[test]
fn bad_tree_trips_every_rule() {
    let report = audit_tree(&fixture("bad")).unwrap();
    assert!(!report.clean());

    // One assertion per rule, pinned to the snippet that trips it.
    assert_eq!(
        rules_hit(&report, "crates/sim/src/metrics.rs"),
        vec!["D1", "D3"]
    );
    assert_eq!(
        rules_hit(&report, "crates/sim/src/engine.rs"),
        vec!["D5", "D2", "D6"]
    );
    assert_eq!(rules_hit(&report, "crates/serve/src/server.rs"), vec!["D4"]);
    // A custom-hasher map is still a hash collection.
    assert_eq!(rules_hit(&report, "crates/sim/src/roster.rs"), vec!["D1"]);
    assert_eq!(
        rules_hit(&report, "crates/sim/src/allows.rs"),
        vec!["A1", "A1", "A2"]
    );

    // Severities: everything is an error except the unused allow.
    for f in &report.findings {
        let expected = if f.rule == "A2" {
            Severity::Warn
        } else {
            Severity::Error
        };
        assert_eq!(f.severity, expected, "{f:?}");
    }
}

#[test]
fn good_tree_is_clean_with_one_used_allow() {
    let report = audit_tree(&fixture("good")).unwrap();
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.findings.is_empty());
    // The D2 suppression in metrics.rs is used, so it is counted as
    // suppressed rather than reported as unused (A2).
    assert_eq!(report.suppressed, 1);
}

#[test]
fn bad_findings_line_numbers_are_exact() {
    let report = audit_tree(&fixture("bad")).unwrap();
    let at = |rule: &str| {
        report
            .findings
            .iter()
            .find(|f| f.rule == rule)
            .map(|f| (f.file.as_str(), f.line))
            .unwrap()
    };
    assert_eq!(at("D1"), ("crates/sim/src/metrics.rs", 14));
    assert_eq!(at("D3"), ("crates/sim/src/metrics.rs", 15));
    assert_eq!(at("D2"), ("crates/sim/src/engine.rs", 13));
    assert_eq!(at("D6"), ("crates/sim/src/engine.rs", 14));
    assert_eq!(at("D4"), ("crates/serve/src/server.rs", 4));
    let roster_d1: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "D1" && f.file == "crates/sim/src/roster.rs")
        .map(|f| f.line)
        .collect();
    assert_eq!(roster_d1, vec![16]);
}

/// The real tree stays clean: the same invocation CI gates on. Kept as
/// a test so `cargo test` alone catches a regression introduced
/// together with its violation.
#[test]
fn workspace_tree_is_clean() {
    // crates/audit/../.. = the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    // Only run when the full workspace layout is present (packaged
    // sources may ship the crate alone).
    if !root.join("Cargo.toml").exists() || !root.join("crates/sim/src").exists() {
        return;
    }
    let report = audit_tree(&root).unwrap();
    let unsuppressed: Vec<_> = report.findings.iter().collect();
    assert!(unsuppressed.is_empty(), "{unsuppressed:#?}");
}
