//! Walks the workspace, applies every rule, and collects violations.
//!
//! The walk covers `crates/`, `src/`, `tests/`, and `examples/`,
//! skipping `target/`, `vendor/` (third-party shims), `fixtures/`
//! directories (they contain violations on purpose), and anything
//! hidden. Paths are sorted so output is deterministic. Suppressed
//! violations are *recorded*, not dropped, so the suppression budget
//! stays auditable.

use crate::diag::Violation;
use crate::lexer::SourceFile;
use crate::rules::{default_rules, Rule};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Scan scope at the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];
/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

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
}

impl TidyReport {
    /// True when the tree is clean.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count per rule name, sorted by rule.
    pub fn by_rule(&self) -> Vec<(&'static str, usize)> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Collects every scannable `.rs` file under `root`, sorted.
fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
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

/// Runs every rule over every file under `root`.
pub fn run(root: &Path) -> io::Result<TidyReport> {
    let mut sources = Vec::new();
    for path in collect_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    let refs: Vec<(&str, &str)> = sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(run_sources(&refs))
}

/// Runs every rule over in-memory `(rel_path, content)` sources.
pub fn run_sources(sources: &[(&str, &str)]) -> TidyReport {
    let rules = default_rules();
    let mut report = TidyReport { files_scanned: sources.len(), ..TidyReport::default() };
    for (path, content) in sources {
        check_file(&SourceFile::parse(path, content), &rules, &mut report);
    }
    let key = |v: &Violation| (v.path.clone(), v.line, v.col, v.rule);
    report.violations.sort_by_key(key);
    report.suppressed.sort_by_key(key);
    report
}

/// Applies `rules` to one file, routing each finding to the open or
/// suppressed list. A suppression comment that names no rule in the
/// registry, or carries no justification, is itself a finding.
fn check_file(file: &SourceFile, rules: &[Box<dyn Rule>], report: &mut TidyReport) {
    for rule in rules {
        for v in rule.check(file) {
            if file.is_suppressed(rule.name(), v.line) {
                report.suppressed.push(v);
            } else {
                report.violations.push(v);
            }
        }
    }
    for s in &file.suppressions {
        let problem = if !rules.iter().any(|r| r.name() == s.rule) {
            "names no gvc-tidy rule; clippy lints take \
             `#[expect(clippy::<lint>, reason = \"...\")]`"
        } else if !s.justified {
            "carries no justification; write \
             `// gvc-lint: allow(<rule>) — <why this cannot fail>`"
        } else {
            continue;
        };
        report.violations.push(Violation {
            rule: "lint-suppression",
            path: file.rel_path.clone(),
            line: s.line,
            col: 0,
            message: format!("suppression of `{}` {problem}", s.rule),
            snippet: file.raw.get(s.line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUPPRESSED: &str = "fn f(xs: &[u8]) -> u8 {\n    // gvc-lint: allow(literal-index) — invariant: list is never empty\n    xs[0]\n}\n";

    #[test]
    fn suppressed_violation_is_dropped() {
        let report = run_sources(&[("crates/core/src/x.rs", SUPPRESSED)]);
        assert!(report.clean(), "{:?}", report.violations);
    }

    #[test]
    fn unjustified_suppression_still_reports() {
        let src = "fn f(xs: &[u8]) -> u8 {\n    xs[0] // gvc-lint: allow(literal-index)\n}\n";
        let report = run_sources(&[("crates/core/src/x.rs", src)]);
        assert_eq!(report.by_rule(), vec![("lint-suppression", 1)], "{:?}", report.violations);
        assert!(report.violations[0].message.contains("justification"));
    }

    #[test]
    fn suppression_of_an_unknown_rule_reports() {
        let src =
            "// gvc-lint: allow(no-panic-in-lib) — a rule clippy now holds instead\nfn f() {}\n";
        let report = run_sources(&[("crates/core/src/x.rs", src)]);
        assert_eq!(report.by_rule(), vec![("lint-suppression", 1)]);
        assert!(report.violations[0].message.contains("names no gvc-tidy rule"));
    }

    #[test]
    fn report_counts_by_rule() {
        let src = "fn f(xs: &[u8]) -> HashMap<u8, u8> { xs[0]; xs[1] }\n";
        let report = run_sources(&[("crates/core/src/x.rs", src)]);
        assert_eq!(report.by_rule(), vec![("literal-index", 2), ("ordered-iteration", 1)]);
    }

    #[test]
    fn run_sources_records_suppressed_sites() {
        let report = run_sources(&[("crates/core/src/x.rs", SUPPRESSED)]);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, "literal-index");
        assert_eq!(report.suppressed[0].line, 3);
    }
}
