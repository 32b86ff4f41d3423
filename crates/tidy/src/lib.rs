//! `gvc-tidy`: the workspace's own static-analysis pass.
//!
//! A rust-`tidy`-style, dependency-free lint engine: a small
//! comment/string/char-literal-aware scanner ([`lexer`]), a rule
//! registry with per-rule file allowlists and inline suppressions
//! ([`rules`]), and human + JSON diagnostics with `file:line:col`
//! spans ([`diag`]). Since v2 the engine is workspace-aware: an item
//! graph with lexical name resolution and a call-graph-lite
//! ([`graph`], [`resolve`]) feeds interprocedural rules
//! ([`semrules`]) that prove determinism confinement, lane isolation,
//! and unordered-iteration flow across crate boundaries. The [`runner`] walks the workspace and applies
//! every rule; the `gvc-tidy` binary wires that to an exit code, the
//! telemetry registry (`tidy_*` counters), and CI.
//!
//! See `docs/static-analysis.md` for the rule catalog, the rationale
//! behind each rule, the suppression syntax, and how to add a rule.

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod runner;
pub mod semrules;

pub use diag::Violation;
pub use graph::ItemGraph;
pub use lexer::SourceFile;
pub use rules::{default_rules, Rule};
pub use runner::{run, run_sources, RuleSet, TidyReport};
pub use semrules::{default_workspace_rules, Workspace, WorkspaceRule};
