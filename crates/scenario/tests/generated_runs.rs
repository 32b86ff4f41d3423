//! Whole-system invariants over generated scenarios. Specs of shapes
//! 1–3 (study, graph and chain topologies; steady, bursty and
//! flash-crowd arrivals; with and without a fault plan) run through
//! [`run_scenario`] traced, with `[expect]` cleared. Every run must
//! replay byte for byte, pass the checks `gvc trace check` runs, and
//! leave no reservation open.

mod common;

use std::sync::Arc;

use common::build_spec;
use gvc_scenario::spec::ExpectSpec;
use gvc_scenario::{run_scenario, ScenarioOutcome, ScenarioSpec};
use gvc_telemetry::{check, BufferSink, CheckConfig, TraceModel, Tracer};
use proptest::prelude::*;

/// One traced run: its outcome and its trace as JSONL.
fn traced_run(spec: &ScenarioSpec) -> Result<(ScenarioOutcome, String), TestCaseError> {
    let sink = Arc::new(BufferSink::new());
    let outcome = run_scenario(spec, &Tracer::to_sink(sink.clone())).map_err(|e| {
        TestCaseError::fail(format!("{e}\n--- spec ---\n{}", spec.to_spec_string()))
    })?;
    let trace = sink.take().iter().map(|ev| ev.to_json() + "\n").collect();
    Ok((outcome, trace))
}

/// The value of a `key value` stats line, if the run printed one.
fn stat(stats: &str, key: &str) -> Option<u64> {
    stats.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
}

proptest! {
    // Two runs per case: 32 cases take about 3–4 s in a debug build
    // on two cores.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_scenarios_replay_check_clean_and_close_every_reservation(
        shape in 1u32..4,
        seed in 0u64..1_000_000_000,
        scale_raw in 0.01f64..9.9,
        sessions in 1u32..60,
        horizon_s in 600.0f64..500_000.0,
        median_mb in 1.0f64..2_000.0,
        mean_extra_mb in 0.5f64..4_000.0,
        vc_fraction in 0.0f64..1.0,
        concurrency in 1u32..9,
        with_faults in proptest::bool::ANY,
    ) {
        let mut spec = build_spec(
            shape, seed, scale_raw, sessions, horizon_s, median_mb,
            mean_extra_mb, vc_fraction, concurrency, with_faults, 0, 0,
        );
        spec.expect = ExpectSpec::default();
        let (a, trace_a) = traced_run(&spec)?;
        let (b, trace_b) = traced_run(&spec)?;
        prop_assert_eq!(&a.report_json, &b.report_json);
        prop_assert_eq!(&a.stats_text, &b.stats_text);
        prop_assert_eq!(&a.timeline_json, &b.timeline_json);
        prop_assert_eq!(&trace_a, &trace_b);
        prop_assert!(a.violations.is_empty(), "{:?}", a.violations);

        let model = TraceModel::from_text(&trace_a)
            .map_err(|e| TestCaseError::fail(format!("trace does not parse: {e}")))?;
        let report = check(&model, &CheckConfig { max_setup_share: 1.0 });
        prop_assert!(report.clean(), "trace check: {:?}", report.violations);

        prop_assert_eq!(stat(&a.stats_text, "open_reservations"), Some(0), "{}", a.stats_text);
        if let Some(open) = stat(&a.stats_text, "interdomain_open_after") {
            prop_assert_eq!(open, 0, "{}", a.stats_text);
        }
    }
}
