//! End-to-end lint-engine tests over the fixture corpus.
//!
//! Each file under `tests/fixtures/` carries known violations (the
//! runner's workspace walk skips `fixtures/` directories, so they
//! never pollute a real scan). Tests parse them under synthetic
//! workspace-relative paths so rule scoping behaves exactly as
//! in-tree, then assert the precise `(rule, line)` findings. For the
//! fixtures whose findings clippy or the compiler now hold, the tests
//! assert that gvc-tidy reports nothing and that the home of each
//! finding line (see `homes/mod.rs`) holds.

mod homes;

use gvc_tidy::{run_sources, Violation};

fn check(rel_path: &str, src: &str) -> Vec<Violation> {
    run_sources(&[(rel_path, src)]).violations
}

fn found(vs: &[Violation]) -> Vec<(&'static str, usize)> {
    vs.iter().map(|v| (v.rule, v.line)).collect()
}

const PANIC_FIXTURE: &str = include_str!("fixtures/panic_paths.rs");
const NONDET_FIXTURE: &str = include_str!("fixtures/nondeterminism.rs");
const STDOUT_FIXTURE: &str = include_str!("fixtures/stdout.rs");
const UNORDERED_FIXTURE: &str = include_str!("fixtures/unordered_render.rs");
const HYGIENE_FIXTURE: &str = include_str!("fixtures/hygiene.rs");
const SUPPRESSION_FIXTURE: &str = include_str!("fixtures/suppressions.rs");
const MASKED_FIXTURE: &str = include_str!("fixtures/masked_tokens.rs");
const TRACE_KINDS_FIXTURE: &str = include_str!("fixtures/trace_kinds.rs");

#[test]
fn panic_fixture_exact_findings() {
    // The other panic paths of this fixture are clippy's now; the
    // literal index is the one clippy cannot single out.
    let vs = check("crates/core/src/panic_paths.rs", PANIC_FIXTURE);
    assert_eq!(found(&vs), vec![("literal-index", 13)], "{vs:#?}");
    assert!(vs[0].message.contains("literal slice index"));
    assert_eq!(vs[0].col, 16);
}

#[test]
fn panic_fixture_out_of_scope_paths_are_clean() {
    // Binary crates and `src/bin/` targets own their failure modes.
    assert!(check("crates/cli/src/panic_paths.rs", PANIC_FIXTURE).is_empty());
    assert!(check("crates/core/src/bin/panic_paths.rs", PANIC_FIXTURE).is_empty());
}

#[test]
fn nondeterminism_fixture_exact_findings() {
    let vs = check("crates/net/src/nondeterminism.rs", NONDET_FIXTURE);
    assert!(vs.is_empty(), "host reads are clippy's and the compiler's now: {vs:#?}");
    // Instant::now (4), SystemTime::now (5): clippy.toml's
    // disallowed-methods; thread_rng (11), from_entropy (12) and
    // rand::random (13): not defined by the vendored rand.
    homes::assert_fixture_rows("nondeterminism.rs", &[4, 5, 11, 12, 13]);
    // The telemetry spine alone may read the real world; the CLI may
    // not call a sink directly either.
    assert!(!homes::denied_in("crates/telemetry/src/nondeterminism.rs", "disallowed_methods"));
    assert!(homes::denied_in("crates/cli/src/nondeterminism.rs", "disallowed_methods"));
}

#[test]
fn stdout_fixture_exact_findings() {
    let vs = check("crates/logs/src/stdout.rs", STDOUT_FIXTURE);
    assert!(vs.is_empty(), "terminal output is clippy's now: {vs:#?}");
    // println! (4), print! (5): print_stdout; eprintln! (6),
    // eprint! (7): print_stderr; dbg! (8): dbg_macro.
    homes::assert_fixture_rows("stdout.rs", &[4, 5, 6, 7, 8]);
    // The CLI binary owns its output.
    assert!(!homes::denied_in("crates/cli/src/stdout.rs", "print_stdout"));
}

#[test]
fn unordered_fixture_fires_only_in_presentation_files() {
    let vs = check("crates/core/src/tables.rs", UNORDERED_FIXTURE);
    assert_eq!(
        found(&vs),
        vec![
            ("ordered-iteration", 3),
            ("ordered-iteration", 4),
            ("ordered-iteration", 6), // HashMap in the signature
            ("ordered-iteration", 6), // HashSet in the signature
        ],
        "{vs:#?}"
    );
    // The same content is fine in a non-rendering file: it takes
    // unordered collections but returns none.
    assert!(check("crates/core/src/sweep.rs", UNORDERED_FIXTURE).is_empty());
}

#[test]
fn hygiene_fixture_exact_findings() {
    let vs = check("tests/hygiene_fixture.rs", HYGIENE_FIXTURE);
    assert_eq!(
        found(&vs),
        vec![
            ("hygiene", 4),  // tab indent
            ("hygiene", 5),  // trailing whitespace
            ("hygiene", 9),  // task marker without an issue ref
            ("hygiene", 10), // second marker flavour, same problem
        ],
        "{vs:#?}"
    );
    assert_eq!(vs[0].col, 1, "tab is the first character");
    assert!(vs[2].message.contains("issue reference"));
}

#[test]
fn suppression_fixture_semantics() {
    // Every suppression in this fixture names a rule clippy now
    // holds, so each one silences nothing and is reported; the
    // unjustified one would be reported even for a kept rule.
    let vs = check("crates/core/src/suppressions.rs", SUPPRESSION_FIXTURE);
    assert_eq!(
        found(&vs),
        vec![("lint-suppression", 4), ("lint-suppression", 9), ("lint-suppression", 13)],
        "{vs:#?}"
    );
    assert!(vs.iter().all(|v| v.message.contains("names no gvc-tidy rule")), "{vs:#?}");
    // Renamed to a kept rule, the justified suppression is accepted.
    let kept = SUPPRESSION_FIXTURE.replace("no-panic-in-lib", "hygiene");
    let vs = check("crates/core/src/suppressions.rs", &kept);
    let lines: Vec<usize> = vs.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![9, 13], "{vs:#?}");
    assert!(vs[0].message.contains("justification"), "{vs:#?}");
}

#[test]
fn trace_kinds_fixture_exact_findings() {
    let vs = check("crates/gridftp/src/trace_kinds.rs", TRACE_KINDS_FIXTURE);
    assert_eq!(
        found(&vs),
        vec![
            ("trace-kind-naming", 5), // uppercase segments
            ("trace-kind-naming", 6), // single segment
            ("trace-kind-naming", 9), // name is not a string literal
        ],
        "{vs:#?}"
    );
    assert!(vs[0].message.contains("dot-namespaced"));
    assert!(vs[2].message.contains("string literal"));
    // The well-formed sites (including the rustfmt-wrapped call whose
    // literal sits a few lines below the token) stay silent.
    assert!(vs.iter().all(|v| v.line != 4 && v.line != 7 && v.line != 10));
}

#[test]
fn masked_fixture_is_clean() {
    let vs = check("crates/core/src/masked_tokens.rs", MASKED_FIXTURE);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn diagnostics_render_with_fixture_locations() {
    let vs = check("crates/core/src/panic_paths.rs", PANIC_FIXTURE);
    let human = vs[0].render_human();
    assert!(human.starts_with("crates/core/src/panic_paths.rs:13:16:"), "{human}");
    assert!(human.contains("[literal-index]"));
    assert!(human.contains("_ => xs[0],"));
}
