//! Meta-test: the workspace passes its own static-analysis suite.
//!
//! This keeps `cargo test` equivalent to the CI tidy gate — a
//! violation introduced anywhere in the tree fails the test with the
//! same `file:line:col` diagnostics `gvc-tidy` prints. Since tidy v2
//! the run covers the workspace semantic rules (determinism
//! confinement over the call graph, lane isolation,
//! unordered-iteration dataflow) alongside the per-file rules, and
//! the suppression budget is asserted to stay visible: every
//! suppressed site must carry a justification and be counted.

use gvc_tidy::runner::RuleSet;
use gvc_tidy::{run, Violation};
use std::path::Path;

#[test]
fn workspace_is_tidy_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rules = RuleSet::v2();
    let report = run(root, &rules).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan ({} files) — did the walk roots move?",
        report.files_scanned
    );
    assert_eq!(report.rules_run, rules.len());
    // All three v2 semantic rules must actually have run (a registry
    // regression would silently drop workspace coverage).
    for sem in ["determinism-confinement", "lane-isolation", "unordered-iteration-v2"] {
        assert!(
            report.timings.iter().any(|t| t.name == sem),
            "semantic rule `{sem}` missing from the run"
        );
    }
    let rendered: Vec<String> = report.violations.iter().map(Violation::render_human).collect();
    assert!(
        report.clean(),
        "gvc-tidy found {} violation(s):\n{}",
        report.violations.len(),
        rendered.join("\n")
    );
    // Suppressed sites are recorded, not dropped: the workspace
    // carries a small, justified suppression budget and every entry
    // is visible to the audit surface.
    assert!(
        !report.suppressed.is_empty(),
        "expected the known justified suppressions to be recorded"
    );
    for v in &report.suppressed {
        assert!(!v.path.is_empty() && v.line > 0, "suppressed site without a span: {v:?}");
    }
}
