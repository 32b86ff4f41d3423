//! Diagnostics: one violation per finding, rendered as a
//! `file:line:col` line.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired (registry name, e.g. `literal-index`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the offending token (0 = whole line).
    pub col: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Violation {
    /// `path:line:col: [rule] message` plus the snippet.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        let _ =
            write!(s, "{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.rule, self.message);
        if !self.snippet.is_empty() {
            let _ = write!(s, "\n    | {}", self.snippet);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_has_location_and_rule() {
        let v = Violation {
            rule: "literal-index",
            path: "crates/stats/src/summary.rs".into(),
            line: 38,
            col: 9,
            message: "literal slice index can panic".into(),
            snippet: "let a = xs[0];".into(),
        };
        let h = v.render_human();
        assert!(h.starts_with("crates/stats/src/summary.rs:38:9: [literal-index]"));
        assert!(h.contains("xs[0]"));
    }
}
