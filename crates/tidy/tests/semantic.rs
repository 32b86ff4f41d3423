//! The semantic fixture corpus under `tests/fixtures/sem/`.
//!
//! These fixtures once fed gvc-tidy's call-graph rules
//! (`determinism-confinement`, `lane-isolation`,
//! `unordered-iteration-v2`). Those rules are gone: clippy.toml, the
//! compiler and the kept `ordered-iteration` rule hold each finding
//! now. Each test pins the exact finding lines of its fixtures and
//! checks that the home of every one of them holds (see
//! `homes/mod.rs`); the full-engine test pins what gvc-tidy itself
//! still reports on the corpus.

mod homes;

use gvc_tidy::run_sources;

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

#[test]
fn confinement_flags_instant_now_two_hops_out() {
    // `Instant::now()` sits in crates/net (line 7); the one-hop
    // wrapper (crates/core) and the two-hop entry point
    // (crates/gridftp) were flagged at line 9. The sink is denied in
    // every crate but gvc-telemetry, so no wrapper can reach one.
    homes::assert_fixture_rows("sem/confinement_sink.rs", &[7]);
    homes::assert_fixture_rows("sem/confinement_mid.rs", &[9]);
    homes::assert_fixture_rows("sem/confinement_entry.rs", &[9]);
}

#[test]
fn lane_isolation_flags_shared_state_tokens() {
    // use AtomicUsize (4), use Mutex (5), the static's type and
    // initializer (8, twice), the locked field (12): disallowed-types
    // in the lane crate; static mut (16): `unsafe_code`.
    homes::assert_fixture_rows("sem/lane_shared_state.rs", &[4, 5, 8, 8, 12, 16]);
    assert!(homes::denied_in("crates/engine/src/shared.rs", "disallowed_types"));
    // Outside the lane crates the lock types stay allowed.
    assert!(!homes::denied_in("crates/cli/src/shared.rs", "disallowed_types"));
}

#[test]
fn lane_isolation_follows_send_hazards_through_nested_fields() {
    // `fan_out(outer: Outer)` spawns lanes; `Outer` carries an `Rc`
    // directly (13) and a `RefCell` one struct deeper (7). The `Send`
    // bound on `Scope::spawn` refuses both, however deep the field.
    homes::assert_fixture_rows("sem/lane_send_boundary.rs", &[7, 13]);
}

#[test]
fn unordered_v2_tracks_returns_through_let_bindings() {
    // `pairs` (iterated line 9) and `weights` (`.keys()` line 13)
    // come from gvc-hntes fns whose return types name unordered
    // collections. The consumer never mentions HashMap/HashSet; the
    // kept rule refuses the returns at the producer (7, 12) instead.
    homes::assert_fixture_rows("sem/unordered_consumer.rs", &[9, 13]);
    let report = run_sources(&[("crates/hntes/src/pairs.rs", UNORDERED_PRODUCER)]);
    let at: Vec<(&str, usize)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(at, vec![("ordered-iteration", 7), ("ordered-iteration", 12)], "{report:#?}");
    let report = run_sources(&[("crates/cli/src/report.rs", UNORDERED_CONSUMER)]);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn full_engine_run_combines_v1_and_v2_findings() {
    let report = run_sources(&corpus());
    let mut by_rule: Vec<(&str, &str, usize)> =
        report.violations.iter().map(|v| (v.rule, v.path.as_str(), v.line)).collect();
    by_rule.sort_unstable();
    assert_eq!(
        by_rule,
        vec![
            ("ordered-iteration", "crates/hntes/src/pairs.rs", 7),
            ("ordered-iteration", "crates/hntes/src/pairs.rs", 12),
        ],
        "{:#?}",
        report.violations
    );
    assert!(report.suppressed.is_empty());
    assert_eq!(report.files_scanned, corpus().len());
    // The thirteen findings the call-graph engine reported on this
    // corpus, each at its home.
    let mut rows = 0;
    for (file, lines) in [
        ("sem/confinement_sink.rs", &[7][..]),
        ("sem/confinement_mid.rs", &[9]),
        ("sem/confinement_entry.rs", &[9]),
        ("sem/lane_send_boundary.rs", &[7, 13]),
        ("sem/lane_shared_state.rs", &[4, 5, 8, 8, 12, 16]),
        ("sem/unordered_consumer.rs", &[9, 13]),
        ("sem/unordered_producer.rs", &[]),
    ] {
        homes::assert_fixture_rows(file, lines);
        rows += lines.len();
    }
    assert_eq!(rows, 13);
}
