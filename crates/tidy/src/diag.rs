//! Diagnostics: one violation per finding, renderable as a human
//! `file:line:col` line or as a JSON object for machine consumers.

use gvc_telemetry::json::Quoted;
use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired (registry name, e.g. `no-panic-in-lib`).
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

    /// One JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"snippet\":{}}}",
            Quoted(self.rule),
            Quoted(&self.path),
            self.line,
            self.col,
            Quoted(&self.message),
            Quoted(&self.snippet)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_has_location_and_rule() {
        let v = Violation {
            rule: "no-panic-in-lib",
            path: "crates/stats/src/summary.rs".into(),
            line: 38,
            col: 9,
            message: "forbidden `.expect(`".into(),
            snippet: "x.expect(\"boom\")".into(),
        };
        let h = v.render_human();
        assert!(h.starts_with("crates/stats/src/summary.rs:38:9: [no-panic-in-lib]"));
        assert!(h.contains("x.expect"));
    }

    #[test]
    fn json_rendering_escapes() {
        let v = Violation {
            rule: "hygiene",
            path: "a\\b.rs".into(),
            line: 1,
            col: 0,
            message: "tab \"here\"".into(),
            snippet: "\tx".into(),
        };
        let j = v.render_json();
        assert!(j.contains("\"path\":\"a\\\\b.rs\""));
        assert!(j.contains("\\\"here\\\""));
        assert!(j.contains("\\tx"));
    }
}
