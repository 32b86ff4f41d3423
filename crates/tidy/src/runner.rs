//! Walks the workspace, applies every rule, and collects violations.
//!
//! The walk covers `crates/`, `src/`, `tests/`, and `examples/`,
//! skipping `target/`, `vendor/` (third-party shims), `fixtures/`
//! directories (they contain violations on purpose), and anything
//! hidden. Paths are sorted so output and counters are deterministic.
//!
//! v2 runs two rule classes over the same parsed files: per-file
//! rules ([`crate::rules::Rule`]) and workspace rules
//! ([`crate::semrules::WorkspaceRule`]), the latter against the item
//! graph built once per run. Suppressed violations are *recorded*,
//! not dropped, so the suppression budget is auditable
//! (`tidy_suppressions_total{rule}`, `--format json`). Per-rule
//! wall time is measured through `gvc_telemetry::Stopwatch` — the
//! analyzer itself is host tooling, but it still routes its clock
//! through the one crate allowed to own one.

use crate::diag::Violation;
use crate::lexer::SourceFile;
use crate::rules::{default_rules, Rule};
use crate::semrules::{default_workspace_rules, Workspace, WorkspaceRule};
use gvc_telemetry::Stopwatch;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Scan scope at the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];
/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// The full rule registry for one run: per-file rules plus
/// workspace (semantic) rules.
pub struct RuleSet {
    /// Per-file lexical rules.
    pub file_rules: Vec<Box<dyn Rule>>,
    /// Whole-workspace semantic rules.
    pub workspace_rules: Vec<Box<dyn WorkspaceRule>>,
}

impl RuleSet {
    /// The default v2 registry: every file rule and every workspace
    /// rule.
    pub fn v2() -> RuleSet {
        RuleSet { file_rules: default_rules(), workspace_rules: default_workspace_rules() }
    }

    /// Total number of registered rules.
    pub fn len(&self) -> usize {
        self.file_rules.len() + self.workspace_rules.len()
    }

    /// True when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wall time spent in one rule (or analysis phase) across the run.
#[derive(Debug, Clone)]
pub struct RuleTiming {
    /// Rule name, or a synthetic phase name (`parse`, `item-graph`).
    pub name: String,
    /// Wall seconds across all files.
    pub seconds: f64,
    /// Violations produced (before suppression accounting).
    pub found: usize,
}

/// Outcome of a tidy run.
#[derive(Debug, Default)]
pub struct TidyReport {
    /// Every unsuppressed violation, in path/line order.
    pub violations: Vec<Violation>,
    /// Violations silenced by a justified suppression comment —
    /// recorded so the suppression budget stays auditable.
    pub suppressed: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of rules applied.
    pub rules_run: usize,
    /// Per-rule wall time, in registry order (plus synthetic
    /// `parse` / `item-graph` phases first).
    pub timings: Vec<RuleTiming>,
}

impl TidyReport {
    /// True when the tree is clean.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count per rule name, sorted by rule.
    pub fn by_rule(&self) -> Vec<(&'static str, usize)> {
        count_by_rule(&self.violations)
    }

    /// Suppressed-site count per rule name, sorted by rule.
    pub fn suppressed_by_rule(&self) -> Vec<(&'static str, usize)> {
        count_by_rule(&self.suppressed)
    }
}

fn count_by_rule(vs: &[Violation]) -> Vec<(&'static str, usize)> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for v in vs {
        *counts.entry(v.rule).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Collects every scannable `.rs` file under `root`, sorted,
/// workspace-relative.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs `rules` over every file under `root`.
pub fn run(root: &Path, rules: &RuleSet) -> io::Result<TidyReport> {
    let sw = Stopwatch::start();
    let paths = collect_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let content = fs::read_to_string(path)?;
        files.push(SourceFile::parse(&rel, &content));
    }
    let parse_s = sw.elapsed_s();
    Ok(run_parsed(files, rules, parse_s))
}

/// Runs `rules` over in-memory `(rel_path, content)` sources — the
/// entry point for engine tests and the perf suite.
pub fn run_sources(sources: &[(&str, &str)], rules: &RuleSet) -> TidyReport {
    let sw = Stopwatch::start();
    let files: Vec<SourceFile> = sources.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    let parse_s = sw.elapsed_s();
    run_parsed(files, rules, parse_s)
}

fn run_parsed(files: Vec<SourceFile>, rules: &RuleSet, parse_s: f64) -> TidyReport {
    let mut report =
        TidyReport { rules_run: rules.len(), files_scanned: files.len(), ..TidyReport::default() };
    report.timings.push(RuleTiming { name: "parse".to_string(), seconds: parse_s, found: 0 });

    // Item graph, built once for all workspace rules.
    let sw = Stopwatch::start();
    let ws = Workspace::build(files);
    report.timings.push(RuleTiming {
        name: "item-graph".to_string(),
        seconds: sw.elapsed_s(),
        found: 0,
    });

    // Per-file rules.
    for rule in &rules.file_rules {
        let sw = Stopwatch::start();
        let mut found = 0usize;
        for file in &ws.files {
            if rule.allowlisted(file) {
                continue;
            }
            for v in rule.check(file) {
                found += 1;
                route(v, file, rule.name(), &mut report);
            }
        }
        report.timings.push(RuleTiming {
            name: rule.name().to_string(),
            seconds: sw.elapsed_s(),
            found,
        });
    }

    // Workspace rules: violations route back to their file for
    // suppression handling.
    let by_path: BTreeMap<&str, usize> =
        ws.files.iter().enumerate().map(|(i, f)| (f.rel_path.as_str(), i)).collect();
    for rule in &rules.workspace_rules {
        let sw = Stopwatch::start();
        let vs = rule.check(&ws);
        let found = vs.len();
        for v in vs {
            match by_path.get(v.path.as_str()) {
                Some(&i) => route(v, &ws.files[i], rule.name(), &mut report),
                None => report.violations.push(v),
            }
        }
        report.timings.push(RuleTiming {
            name: rule.name().to_string(),
            seconds: sw.elapsed_s(),
            found,
        });
    }

    // Suppressions without a justification are themselves findings.
    for file in &ws.files {
        for s in &file.suppressions {
            if !s.justified {
                report.violations.push(Violation {
                    rule: "lint-suppression",
                    path: file.rel_path.clone(),
                    line: s.line,
                    col: 0,
                    message: format!(
                        "suppression of `{}` without a justification; write \
                         `// gvc-lint: allow({}) — <why this cannot fail>`",
                        s.rule, s.rule
                    ),
                    snippet: file
                        .raw
                        .get(s.line - 1)
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                });
            }
        }
    }

    let key = |v: &Violation| (v.path.clone(), v.line, v.col, v.rule);
    report.violations.sort_by_key(key);
    report.suppressed.sort_by_key(key);
    report
}

/// Sends one violation to the open or suppressed list, depending on
/// the owning file's suppression comments.
fn route(v: Violation, file: &SourceFile, rule: &str, report: &mut TidyReport) {
    if file.is_suppressed(rule, v.line) {
        report.suppressed.push(v);
    } else {
        report.violations.push(v);
    }
}

/// Applies every per-file rule to one prepared file (exposed for
/// tests). Suppressed violations are dropped here; use [`run`] /
/// [`run_sources`] for the auditable path.
pub fn check_file(file: &SourceFile, rules: &[Box<dyn Rule>], out: &mut Vec<Violation>) {
    for rule in rules {
        if rule.allowlisted(file) {
            continue;
        }
        for v in rule.check(file) {
            if !file.is_suppressed(rule.name(), v.line) {
                out.push(v);
            }
        }
    }
    for s in &file.suppressions {
        if !s.justified {
            out.push(Violation {
                rule: "lint-suppression",
                path: file.rel_path.clone(),
                line: s.line,
                col: 0,
                message: format!(
                    "suppression of `{}` without a justification; write \
                     `// gvc-lint: allow({}) — <why this cannot fail>`",
                    s.rule, s.rule
                ),
                snippet: file.raw.get(s.line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::default_rules;

    #[test]
    fn suppressed_violation_is_dropped() {
        let src = "fn f() {\n    // gvc-lint: allow(no-panic-in-lib) — invariant: list is never empty\n    a.unwrap();\n}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let mut out = Vec::new();
        check_file(&f, &default_rules(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unjustified_suppression_still_reports() {
        let src = "fn f() {\n    a.unwrap(); // gvc-lint: allow(no-panic-in-lib)\n}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let mut out = Vec::new();
        check_file(&f, &default_rules(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "lint-suppression");
    }

    #[test]
    fn report_counts_by_rule() {
        let src = "fn f() { a.unwrap(); let t = Instant::now(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let mut report = TidyReport::default();
        check_file(&f, &default_rules(), &mut report.violations);
        let by = report.by_rule();
        assert_eq!(by, vec![("determinism", 1), ("no-panic-in-lib", 1)]);
    }

    #[test]
    fn run_sources_records_suppressed_sites() {
        let src = "fn f() {\n    // gvc-lint: allow(no-panic-in-lib) — invariant: list is never empty\n    a.unwrap();\n}\n";
        let report = run_sources(&[("crates/core/src/x.rs", src)], &RuleSet::v2());
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.suppressed_by_rule(), vec![("no-panic-in-lib", 1)]);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].line, 3);
    }

    #[test]
    fn run_sources_times_every_rule() {
        let report = run_sources(&[("crates/core/src/x.rs", "fn f() {}\n")], &RuleSet::v2());
        let names: Vec<&str> = report.timings.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"parse"));
        assert!(names.contains(&"item-graph"));
        assert!(names.contains(&"determinism-confinement"));
        assert!(names.contains(&"no-panic-in-lib"));
        assert_eq!(report.rules_run + 2, report.timings.len());
    }
}
