//! `gvc-tidy`: the workspace's lexical lint pass.
//!
//! Clippy and the compiler hold panic-freedom, host determinism and
//! lane isolation (`clippy.toml`, `[workspace.lints]` and each library
//! crate's root `#![deny]` block). This crate keeps the four checks
//! they cannot express — literal slice indexing, ordered iteration,
//! hygiene and trace-kind naming ([`rules`]) — over a
//! comment/string/char-literal-aware masked view of each file
//! ([`lexer`]). The [`runner`] walks the workspace and applies every
//! rule with the inline suppression comments; findings render as
//! `file:line:col` diagnostics ([`diag`]).
//!
//! See `docs/static-analysis.md` for where each rule lives and the
//! suppression syntax.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod runner;

pub use diag::Violation;
pub use lexer::SourceFile;
pub use rules::{default_rules, Rule};
pub use runner::{run, run_sources, TidyReport};
