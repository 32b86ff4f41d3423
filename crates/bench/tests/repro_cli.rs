//! The `repro` binary's argument handling: a mistyped flag or id must
//! fail loudly instead of silently running something else.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

#[test]
fn unknown_flag_is_refused_with_the_usage_line() {
    let out = repro(&["--ful", "all"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--ful`"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn unknown_id_exits_2_and_names_it() {
    let out = repro(&["table1", "table99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("table99"), "{err}");
    // The id is refused before any dataset is built or table printed.
    assert!(!err.contains("generating scenarios"), "{err}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn list_prints_every_id() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let listed: Vec<String> =
        String::from_utf8_lossy(&out.stdout).lines().map(str::to_owned).collect();
    assert_eq!(listed, gvc_bench::EXPERIMENT_IDS);
}
