//! The `gvc-tidy` binary: run the workspace's lexical lint pass.
//!
//! ```text
//! gvc-tidy [--root <path>] [--list-rules]
//! ```
//!
//! Exit code 0 when the tree is clean, 1 on violations, 2 on usage or
//! I/O errors.

use gvc_tidy::{default_rules, runner};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gvc-tidy [--root <path>] [--list-rules]";

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// `cargo run -p gvc-tidy`, else the current directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map_or_else(|| PathBuf::from("."), PathBuf::from)
}

fn main() -> ExitCode {
    let mut root = workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in default_rules() {
                    println!("{:<20} {}", r.name(), r.description());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}; {USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match runner::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gvc-tidy: scanning {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for v in &report.violations {
        println!("{}", v.render_human());
    }
    eprintln!(
        "gvc-tidy: {} file(s), {} rule(s), {} violation(s), {} suppressed",
        report.files_scanned,
        default_rules().len(),
        report.violations.len(),
        report.suppressed.len()
    );
    for (rule, n) in report.by_rule() {
        eprintln!("  {rule}: {n}");
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
