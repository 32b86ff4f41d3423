//! Meta-test: the workspace passes gvc-tidy's lexical rules.
//!
//! A violation of a kept rule introduced anywhere in the tree fails
//! `cargo test` with the same `file:line:col` diagnostics `gvc-tidy`
//! prints. The rules clippy holds (panics, output, host clocks, lane
//! state) are gated by CI's blocking `cargo clippy --workspace
//! --all-targets -- -D warnings`, not by this test.

use gvc_tidy::{default_rules, run, Violation};
use std::path::Path;

#[test]
fn workspace_is_tidy_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names: Vec<&str> = default_rules().iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        ["literal-index", "ordered-iteration", "hygiene", "trace-kind-naming"],
        "the kept rule set changed"
    );
    let report = run(root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan ({} files) — did the walk roots move?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(Violation::render_human).collect();
    assert!(
        report.clean(),
        "gvc-tidy found {} violation(s):\n{}",
        report.violations.len(),
        rendered.join("\n")
    );
    // Suppressed sites are recorded, not dropped: the one justified
    // suppression (a forwarding span name in gvc-telemetry) stays
    // visible to the audit surface.
    let suppressed: Vec<(&str, &str)> =
        report.suppressed.iter().map(|v| (v.rule, v.path.as_str())).collect();
    assert_eq!(suppressed, [("trace-kind-naming", "crates/telemetry/src/span.rs")]);
}
