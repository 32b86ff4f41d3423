//! The deterministic resilience harness: drives the GridFTP driver
//! through seeded fault plans via the public facade and asserts the
//! *exact* fault/recovery event sequences the run emits, that the
//! same seed reproduces the trace byte for byte, and that no fault
//! plan — scheduled, probabilistic, or preemptive — ever leaks an
//! IDC reservation.
//!
//! Determinism contract: every trace line is a pure function of
//! `(driver seed, fault plan, workload)` except `kernel.event`
//! records, whose `wall_us` field is a real wall-clock profiling
//! sample; those are filtered out before byte comparison (the CLI's
//! `run.manifest` preamble carries a wall-clock stamp too, but it is
//! only emitted by `gvc`, not by the driver).

use gridftp_vc::faults::{FaultPlan, RecoveryPolicy};
use gridftp_vc::gridftp::driver::DriverOutput;
use gridftp_vc::gridftp::VcRequestSpec;
use gridftp_vc::prelude::*;
use gridftp_vc::telemetry::{BufferSink, Telemetry, TraceEvent};
use proptest::prelude::*;
use std::sync::Arc;

/// One circuit-backed SLAC→BNL session of `jobs` 512 MB transfers
/// under `plan`, traced into an in-memory buffer.
fn run_traced(
    seed: u64,
    jobs: usize,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> (DriverOutput, Vec<TraceEvent>) {
    let topo = study_topology();
    let sim = NetworkSim::new(topo.graph.clone(), seed as i64);
    let idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
    let sink = Arc::new(BufferSink::new());
    let ctx = Telemetry::with_sink(sink.clone());
    let mut d = Driver::new(sim, seed)
        .with_idc(idc)
        .with_telemetry(&ctx)
        .with_faults(plan)
        .with_recovery(policy);
    let src = d.register_cluster("dtn.slac", topo.dtn(Site::Slac), ServerCaps::default(), 2);
    let dst = d.register_cluster("dtn.bnl", topo.dtn(Site::Bnl), ServerCaps::default(), 2);
    let bulk = vec![TransferJob { size_bytes: 512 << 20, ..TransferJob::default() }; jobs];
    let spec = SessionSpec::sequential(bulk, 1.0).with_vc(VcRequestSpec {
        rate_bps: 1e9,
        max_duration_s: 7200.0,
        wait_for_circuit: true,
    });
    d.schedule_session(SimTime::ZERO, src, dst, spec);
    let out = d.run(SimTime::from_secs(500_000));
    ctx.tracer.flush();
    (out, sink.take())
}

/// The fault/recovery storyline of a trace, in emission order.
fn storyline(events: &[TraceEvent]) -> Vec<&'static str> {
    events
        .iter()
        .map(|e| e.kind)
        .filter(|k| k.starts_with("fault.") || k.starts_with("recovery."))
        .collect()
}

/// Renders a trace as JSONL with the non-deterministic parts removed:
/// `kernel.event` records carry real wall-clock handler timings.
fn deterministic_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for e in events.iter().filter(|e| e.kind != "kernel.event") {
        s.push_str(&e.to_json());
        s.push('\n');
    }
    s
}

fn field_u64(e: &TraceEvent, key: &str) -> Option<u64> {
    use gridftp_vc::telemetry::Value;
    e.fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        Value::U64(x) => Some(*x),
        Value::I64(x) => u64::try_from(*x).ok(),
        _ => None,
    })
}

fn field_str<'a>(e: &'a TraceEvent, key: &str) -> Option<&'a str> {
    use gridftp_vc::telemetry::Value;
    e.fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        Value::Str(x) => Some(x.as_str()),
        _ => None,
    })
}

#[test]
fn two_injected_failures_yield_the_exact_retry_storyline() {
    let plan = FaultPlan { seed: 11, fail_first_provisions: 2, ..FaultPlan::default() };
    let (out, events) = run_traced(7, 3, plan, RecoveryPolicy::default());

    assert_eq!(
        storyline(&events),
        vec![
            "fault.injected",
            "recovery.retry",
            "fault.injected",
            "recovery.retry",
            "recovery.established",
        ],
    );

    // The payloads tell the same story: two signalling failures on
    // attempts 1 and 2, success on attempt 3.
    let faults: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "fault.injected").collect();
    for (i, f) in faults.iter().enumerate() {
        assert_eq!(field_str(f, "fault"), Some("signalling_failure"));
        assert_eq!(field_u64(f, "attempt"), Some(i as u64 + 1));
    }
    let retries: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "recovery.retry").collect();
    for r in &retries {
        assert_eq!(field_str(r, "reason"), Some("signalling_failure"));
    }
    let established = events.iter().find(|e| e.kind == "recovery.established").unwrap();
    assert_eq!(field_u64(established, "attempts"), Some(3));

    let r = out.resilience.expect("recovery attached");
    assert_eq!((r.vc_established, r.retries, r.fallbacks), (1, 2, 0));
    assert!((r.session_success_rate() - 1.0).abs() < 1e-12);
    assert_eq!(out.open_reservations, Some(0));
    assert_eq!(out.log.len(), 3);
}

#[test]
fn exhausted_retries_fall_back_to_routed_ip() {
    let plan = FaultPlan { seed: 3, fail_first_provisions: 100, ..FaultPlan::default() };
    let (out, events) = run_traced(7, 2, plan, RecoveryPolicy::default());

    // Default budget: 3 retries, then the fallback decision. Every
    // attempt's failure is injected and visible.
    assert_eq!(
        storyline(&events),
        vec![
            "fault.injected",
            "recovery.retry",
            "fault.injected",
            "recovery.retry",
            "fault.injected",
            "recovery.retry",
            "fault.injected",
            "recovery.fallback",
        ],
    );

    let r = out.resilience.expect("recovery attached");
    assert_eq!((r.vc_established, r.retries, r.fallbacks), (0, 3, 1));
    assert!((r.session_success_rate() - 0.0).abs() < 1e-12);
    // The session still moved its files over the routed path, and
    // every failed attempt's reservation was torn down.
    assert_eq!(out.log.len(), 2);
    assert_eq!(out.open_reservations, Some(0));
}

#[test]
fn preemption_tears_down_the_circuit_and_the_session_finishes() {
    let plan = FaultPlan { seed: 5, preempt_after_s: Some(5.0), ..FaultPlan::default() };
    let (out, events) = run_traced(7, 2, plan, RecoveryPolicy::default());

    // A clean first establishment is silent (recovery.established is
    // only emitted when recovery actually happened), so the whole
    // storyline is the mid-reservation preemption.
    assert_eq!(storyline(&events), vec!["fault.injected"]);
    let preempt = events.iter().rfind(|e| e.kind == "fault.injected").unwrap();
    assert_eq!(field_str(preempt, "fault"), Some("preemption"));

    let r = out.resilience.expect("recovery attached");
    assert_eq!(r.preemptions, 1);
    assert_eq!(out.log.len(), 2, "transfers survive losing the circuit");
    assert_eq!(out.open_reservations, Some(0));
}

#[test]
fn same_seed_reproduces_the_trace_byte_for_byte() {
    let plan = || FaultPlan {
        seed: 11,
        fail_first_provisions: 1,
        server_restart_p: 0.5,
        ..FaultPlan::default()
    };
    let (_, a) = run_traced(7, 3, plan(), RecoveryPolicy::default());
    let (_, b) = run_traced(7, 3, plan(), RecoveryPolicy::default());
    let ja = deterministic_jsonl(&a);
    assert!(!ja.is_empty());
    assert_eq!(ja, deterministic_jsonl(&b));

    // A different plan seed perturbs the backoff jitter, so the
    // storyline survives but the bytes differ.
    let (_, c) = run_traced(7, 3, FaultPlan { seed: 12, ..plan() }, RecoveryPolicy::default());
    assert_eq!(storyline(&a), storyline(&c));
    assert_ne!(ja, deterministic_jsonl(&c));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No fault plan leaks a reservation: whatever mix of scheduled
    /// failures, probabilistic failures/timeouts, preemption, flaps
    /// and restarts a run suffers, every admitted reservation is
    /// released by the end — and the run replays identically.
    #[test]
    fn arbitrary_fault_plans_leak_nothing_and_replay_identically(
        driver_seed in 0u64..1_000,
        plan_seed in 0u64..1_000,
        fail_first in 0u32..4,
        provision_p in 0.0f64..0.5,
        timeout_p in 0.0f64..0.3,
        restart_p in 0.0f64..0.5,
        preempt_s in 1.0f64..600.0,
        with_preempt in proptest::bool::ANY,
        flap in proptest::bool::ANY,
    ) {
        let preempt = with_preempt.then_some(preempt_s);
        let plan = || FaultPlan {
            seed: plan_seed,
            fail_first_provisions: fail_first,
            provision_failure_p: provision_p,
            setup_timeout_p: timeout_p,
            server_restart_p: restart_p,
            preempt_after_s: preempt,
            link_flaps: if flap {
                // A real backbone link, degraded mid-run.
                FaultPlan::parse("flap=denv-cr->kans-cr@40+30*0.2")
                    .map(|p| p.link_flaps)
                    .unwrap_or_default()
            } else {
                Vec::new()
            },
        };
        let (out, ev) = run_traced(driver_seed, 2, plan(), RecoveryPolicy::default());
        prop_assert_eq!(out.open_reservations, Some(0));
        prop_assert_eq!(out.log.len(), 2);

        let (out2, ev2) = run_traced(driver_seed, 2, plan(), RecoveryPolicy::default());
        prop_assert_eq!(out2.open_reservations, Some(0));
        prop_assert_eq!(deterministic_jsonl(&ev), deterministic_jsonl(&ev2));
    }
}
