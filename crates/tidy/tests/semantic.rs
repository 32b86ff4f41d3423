//! End-to-end tests for the v2 workspace rules over the semantic
//! fixture corpus.
//!
//! Fixtures live under `tests/fixtures/sem/` (the runner's workspace
//! walk skips `fixtures/` directories, so they never pollute a real
//! scan) and are parsed here under synthetic workspace-relative paths
//! so crate scoping behaves exactly as in-tree. Each test asserts the
//! precise `(rule, path, line)` findings — semantic rules must be
//! exact, not merely non-empty.

use gvc_tidy::{default_workspace_rules, run_sources, RuleSet, Violation, Workspace};

const SINK: &str = include_str!("fixtures/sem/confinement_sink.rs");
const MID: &str = include_str!("fixtures/sem/confinement_mid.rs");
const ENTRY: &str = include_str!("fixtures/sem/confinement_entry.rs");
const LANE_SHARED: &str = include_str!("fixtures/sem/lane_shared_state.rs");
const LANE_SEND: &str = include_str!("fixtures/sem/lane_send_boundary.rs");
const UNORDERED_PRODUCER: &str = include_str!("fixtures/sem/unordered_producer.rs");
const UNORDERED_CONSUMER: &str = include_str!("fixtures/sem/unordered_consumer.rs");

/// The full corpus under its synthetic in-tree paths.
fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/net/src/clock.rs", SINK),
        ("crates/core/src/mid.rs", MID),
        ("crates/gridftp/src/entry.rs", ENTRY),
        ("crates/engine/src/shared.rs", LANE_SHARED),
        ("crates/engine/src/lanes.rs", LANE_SEND),
        ("crates/hntes/src/pairs.rs", UNORDERED_PRODUCER),
        ("crates/cli/src/report.rs", UNORDERED_CONSUMER),
    ]
}

/// Runs one workspace rule by name over the corpus, returning sorted
/// `(path, line)` findings.
fn check_ws(rule_name: &str) -> Vec<(String, usize)> {
    let ws = Workspace::from_sources(&corpus());
    let rule = default_workspace_rules()
        .into_iter()
        .find(|r| r.name() == rule_name)
        .unwrap_or_else(|| panic!("no workspace rule named {rule_name}"));
    let mut out: Vec<(String, usize)> =
        rule.check(&ws).into_iter().map(|v| (v.path, v.line)).collect();
    out.sort();
    out
}

fn at(path: &str, line: usize) -> (String, usize) {
    (path.to_string(), line)
}

#[test]
fn confinement_flags_instant_now_two_hops_out() {
    // The acceptance case: `Instant::now()` sits in crates/net, and
    // both the one-hop wrapper (crates/core) and the two-hop entry
    // point (crates/gridftp) are flagged at the call site that
    // imports the taint — neither file mentions a clock token.
    let vs = check_ws("determinism-confinement");
    assert_eq!(
        vs,
        vec![at("crates/core/src/mid.rs", 9), at("crates/gridftp/src/entry.rs", 9)],
        "{vs:?}"
    );
}

#[test]
fn confinement_message_carries_the_call_chain() {
    let ws = Workspace::from_sources(&corpus());
    let rule = default_workspace_rules()
        .into_iter()
        .find(|r| r.name() == "determinism-confinement")
        .unwrap();
    let vs = rule.check(&ws);
    let entry = vs.iter().find(|v| v.path == "crates/gridftp/src/entry.rs").unwrap();
    assert!(entry.message.contains("Instant::now"), "{}", entry.message);
    assert!(
        entry.message.contains("entry::schedule_seed -> mid::sample_window -> clock::raw_stamp_us"),
        "{}",
        entry.message
    );
}

#[test]
fn lane_isolation_flags_shared_state_tokens() {
    let vs = check_ws("lane-isolation");
    let shared: Vec<&(String, usize)> =
        vs.iter().filter(|(p, _)| p == "crates/engine/src/shared.rs").collect();
    // use AtomicUsize (4), use Mutex (5), the static's type and
    // initializer (8, twice), the locked field (12), static mut (16).
    assert_eq!(
        shared.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
        vec![4, 5, 8, 8, 12, 16],
        "{vs:?}"
    );
}

#[test]
fn lane_isolation_follows_send_hazards_through_nested_fields() {
    let vs = check_ws("lane-isolation");
    let send: Vec<&(String, usize)> =
        vs.iter().filter(|(p, _)| p == "crates/engine/src/lanes.rs").collect();
    // `fan_out(outer: Outer)` spawns lanes; `Outer` carries an `Rc`
    // directly (13) and a `RefCell` one struct deeper (7).
    assert_eq!(send.iter().map(|(_, l)| *l).collect::<Vec<_>>(), vec![7, 13], "{vs:?}");
}

#[test]
fn unordered_v2_tracks_returns_through_let_bindings() {
    // `pairs` (bound line 8, iterated line 9) and `weights` (bound
    // line 12, `.keys()` line 13) both come from gvc-hntes fns whose
    // return types name unordered collections; the consumer file
    // itself never mentions HashMap/HashSet, so v1 ordered-iteration
    // cannot see this.
    let vs = check_ws("unordered-iteration-v2");
    assert_eq!(vs, vec![at("crates/cli/src/report.rs", 9), at("crates/cli/src/report.rs", 13)]);
}

#[test]
fn full_engine_run_combines_v1_and_v2_findings() {
    let report = run_sources(&corpus(), &RuleSet::v2());
    let mut by_rule: Vec<(&str, &str, usize)> =
        report.violations.iter().map(|v| (v.rule, v.path.as_str(), v.line)).collect();
    by_rule.sort();
    assert_eq!(
        by_rule,
        vec![
            // v1 catches the sink line itself; v2 catches the wrappers.
            ("determinism", "crates/net/src/clock.rs", 7),
            ("determinism-confinement", "crates/core/src/mid.rs", 9),
            ("determinism-confinement", "crates/gridftp/src/entry.rs", 9),
            ("lane-isolation", "crates/engine/src/lanes.rs", 7),
            ("lane-isolation", "crates/engine/src/lanes.rs", 13),
            ("lane-isolation", "crates/engine/src/shared.rs", 4),
            ("lane-isolation", "crates/engine/src/shared.rs", 5),
            ("lane-isolation", "crates/engine/src/shared.rs", 8),
            ("lane-isolation", "crates/engine/src/shared.rs", 8),
            ("lane-isolation", "crates/engine/src/shared.rs", 12),
            ("lane-isolation", "crates/engine/src/shared.rs", 16),
            ("unordered-iteration-v2", "crates/cli/src/report.rs", 9),
            ("unordered-iteration-v2", "crates/cli/src/report.rs", 13),
        ],
        "{:#?}",
        report.violations
    );
    assert!(report.suppressed.is_empty());
    assert_eq!(report.files_scanned, corpus().len());
}

#[test]
fn suppressed_semantic_findings_are_recorded_not_dropped() {
    // Suppressing the lane finding at the use site silences it but
    // keeps the site in the report's suppressed list for auditing.
    let patched = LANE_SHARED.replace(
        "use std::sync::Mutex;",
        "// gvc-lint: allow(lane-isolation) — fixture exercising the suppression audit path\n\
         use std::sync::Mutex;",
    );
    let sources = vec![("crates/engine/src/shared.rs", patched.as_str())];
    let report = run_sources(&sources, &RuleSet::v2());
    let suppressed: Vec<(&str, usize)> = report
        .suppressed
        .iter()
        .filter(|v| v.rule == "lane-isolation")
        .map(|v| (v.path.as_str(), v.line))
        .collect();
    // The use-Mutex line moved to 6 under the inserted comment.
    assert_eq!(suppressed, vec![("crates/engine/src/shared.rs", 6)], "{:#?}", report.suppressed);
    let still: Vec<usize> =
        report.violations.iter().filter(|v| v.rule == "lane-isolation").map(|v| v.line).collect();
    assert_eq!(still, vec![4, 9, 9, 13, 17], "{:#?}", report.violations);
}

#[test]
fn workspace_rule_allowlists_exempt_whole_files() {
    use gvc_tidy::semrules::LaneIsolation;
    use gvc_tidy::WorkspaceRule;
    let ws = Workspace::from_sources(&[("crates/engine/src/shared.rs", LANE_SHARED)]);
    let rule = LaneIsolation::new(vec!["shared.rs".to_string()]);
    let vs: Vec<Violation> = rule.check(&ws);
    assert!(vs.is_empty(), "{vs:#?}");
}
