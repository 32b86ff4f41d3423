//! The deterministic resilience harness: drives the GridFTP driver
//! through seeded fault plans via the public facade and asserts the
//! *exact* fault/recovery storylines the run traces (`fault.injected`
//! events and the `vc.attempt` spans' outcomes), that the
//! same seed reproduces the trace byte for byte, and that no fault
//! plan — scheduled, probabilistic, or preemptive — ever leaks an
//! IDC reservation.
//!
//! Determinism contract: every trace line is a pure function of
//! `(driver seed, fault plan, workload)`, so traces are compared
//! whole. (The CLI's `run.manifest` preamble carries a wall-clock
//! stamp, but only `gvc` emits it, not the driver.)

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
    let spec = SessionSpec::sequential(bulk, 1.0)
        .with_vc(VcRequestSpec { rate_bps: 1e9, max_duration_s: 7200.0 });
    d.schedule_session(SimTime::ZERO, src, dst, spec);
    let out = d.run(SimTime::from_secs(500_000));
    ctx.tracer.flush();
    (out, sink.take())
}

/// The fault/recovery storyline of a trace, in emission order: each
/// injected fault, and each `vc.attempt` span's end as
/// `attempt <n> <outcome>`, followed by the failed attempt's reason.
fn storyline(events: &[TraceEvent]) -> Vec<String> {
    let mut attempts = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            "fault.injected" => out.push("fault.injected".to_string()),
            "span.start" if field_str(e, "name") == Some("vc.attempt") => {
                attempts.insert(field_u64(e, "span"), field_u64(e, "attempt").unwrap());
            }
            "span.end" => {
                if let Some(n) = attempts.get(&field_u64(e, "span")) {
                    let outcome = field_str(e, "outcome").unwrap();
                    let reason = field_str(e, "reason").map_or(String::new(), |r| format!(" {r}"));
                    out.push(format!("attempt {n} {outcome}{reason}"));
                }
            }
            _ => {}
        }
    }
    out
}

/// `(start, end)` of every span named `name`, in start order.
fn intervals(events: &[TraceEvent], name: &str) -> Vec<(i64, i64)> {
    let mut open = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        if e.kind == "span.start" && field_str(e, "name") == Some(name) {
            open.insert(field_u64(e, "span"), out.len());
            out.push((e.t_us, i64::MIN));
        } else if e.kind == "span.end" {
            if let Some(&i) = open.get(&field_u64(e, "span")) {
                out[i].1 = e.t_us;
            }
        }
    }
    out
}

/// Renders a trace as JSONL, every record included.
fn jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
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
            "attempt 1 retry signalling_failure",
            "fault.injected",
            "attempt 2 retry signalling_failure",
            "attempt 3 established",
        ],
    );

    // The payloads tell the same story: two signalling failures on
    // attempts 1 and 2, success on attempt 3.
    let faults: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "fault.injected").collect();
    for (i, f) in faults.iter().enumerate() {
        assert_eq!(field_str(f, "fault"), Some("signalling_failure"));
        assert_eq!(field_u64(f, "attempt"), Some(i as u64 + 1));
    }
    // The circuit was pursued for the two backoff windows: the last
    // attempt starts when the second one ends.
    let setup = intervals(&events, "session.vc_setup");
    let attempts = intervals(&events, "vc.attempt");
    let backoffs = intervals(&events, "vc.backoff");
    assert_eq!((setup.len(), attempts.len(), backoffs.len()), (1, 3, 2));
    let waited = attempts[2].0 - setup[0].0;
    assert_eq!(waited, backoffs.iter().map(|(a, b)| b - a).sum::<i64>());
    assert!(waited > 0);

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
            "attempt 1 retry signalling_failure",
            "fault.injected",
            "attempt 2 retry signalling_failure",
            "fault.injected",
            "attempt 3 retry signalling_failure",
            "fault.injected",
            "attempt 4 fallback_ip signalling_failure",
        ],
    );
    assert_eq!(intervals(&events, "session.fallback").len(), 1);

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

    // The first attempt establishes cleanly, so the rest of the
    // storyline is the mid-reservation preemption.
    assert_eq!(storyline(&events), vec!["attempt 1 established", "fault.injected"]);
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
    let ja = jsonl(&a);
    assert!(!ja.is_empty());
    assert_eq!(ja, jsonl(&b));

    // A different plan seed perturbs the backoff jitter, so the
    // storyline survives but the bytes differ.
    let (_, c) = run_traced(7, 3, FaultPlan { seed: 12, ..plan() }, RecoveryPolicy::default());
    assert_eq!(storyline(&a), storyline(&c));
    assert_ne!(ja, jsonl(&c));
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
        prop_assert_eq!(jsonl(&ev), jsonl(&ev2));
    }
}
