//! Executes a parsed scenario against the full simulation stack.
//!
//! Paper profiles delegate to the `gvc-workload` generators (which
//! register their own clusters on the study topology); synthetic
//! profiles build the spec's topology, register its clusters, and
//! drive the event kernel with faults and telemetry attached. Either
//! way the outcome is byte-identical per seed, so its canonical
//! serialization can be held as a golden.

use std::sync::Arc;

use gvc_core::{feasibility_report, FeasibilityReport, ResilienceSummary};
use gvc_engine::SimTime;
use gvc_faults::FaultPlan;
use gvc_gridftp::driver::Driver;
use gvc_gridftp::ServerCaps;
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, InterDomainController, SetupDelayModel};
use gvc_telemetry::json::Number;
use gvc_telemetry::{BufferSink, CheckConfig, Telemetry, TimelineHandle, DEFAULT_WIDTH_US};
use gvc_workload::{builtin_generator, EPOCH_FEB_2012_US};

use crate::spec::{PaperProfile, ScenarioSpec, WorkloadSpec};
use crate::topo::build;
use crate::workload::synth_sessions;
use crate::{golden, ScenarioError};

/// Drain-out slack past the workload horizon so in-flight sessions
/// finish before the kernel stops (one simulated week).
const DRAIN_SLACK_S: f64 = 604_800.0;

/// Everything one scenario run produces.
pub struct ScenarioOutcome {
    /// The full feasibility analysis.
    pub report: FeasibilityReport,
    /// Canonical golden JSON of `report`.
    pub report_json: String,
    /// Headline stats, one `key value` per line (the second golden).
    pub stats_text: String,
    /// Canonical sim-time flight-recorder JSON (the third golden);
    /// `None` for paper profiles, which sample a calibrated generator
    /// instead of driving the simulation.
    pub timeline_json: Option<String>,
    /// Expectation-bound and trace-check violations (empty = pass).
    pub violations: Vec<String>,
}

/// Runs a scenario.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioOutcome, ScenarioError> {
    match &spec.workload {
        WorkloadSpec::Paper { profile, scale } => run_paper(spec, *profile, *scale),
        WorkloadSpec::Synthetic(_) => run_synthetic(spec),
    }
}

fn run_paper(
    spec: &ScenarioSpec,
    profile: PaperProfile,
    scale: f64,
) -> Result<ScenarioOutcome, ScenarioError> {
    let name = match profile {
        PaperProfile::NcarNics => "ncar",
        PaperProfile::SlacBnl => "slac",
        PaperProfile::NerscAnl => "anl",
        PaperProfile::NerscOrnl => "ornl",
    };
    let Some(generator) = builtin_generator(name) else {
        return Err(ScenarioError::Run(format!("generator {name:?} not registered")));
    };
    let log = (generator.generate)(spec.seed, scale);
    let report = feasibility_report(&log);
    let mut stats = String::new();
    stats.push_str(&format!("scenario {}\n", spec.name));
    stats.push_str(&format!("transfers {}\n", report.n_transfers));
    stats.push_str(&format!("degenerate {}\n", report.degenerate_records));
    push_headline(&mut stats, &report);
    let violations = eval_expect(spec, &report, None);
    let report_json = golden::report_json(&report);
    Ok(ScenarioOutcome { report, report_json, stats_text: stats, timeline_json: None, violations })
}

fn push_headline(stats: &mut String, report: &FeasibilityReport) {
    match report.headline() {
        Some((ps, pt)) => {
            stats.push_str(&format!("headline_pct_sessions {}\n", Number(ps)));
            stats.push_str(&format!("headline_pct_transfers {}\n", Number(pt)));
        }
        None => stats.push_str("headline none\n"),
    }
}

fn run_synthetic(spec: &ScenarioSpec) -> Result<ScenarioOutcome, ScenarioError> {
    let WorkloadSpec::Synthetic(wl) = &spec.workload else {
        return Err(ScenarioError::Run("synthetic runner wants a synthetic workload".into()));
    };
    let built = build(spec)?;

    let sink = Arc::new(BufferSink::new());
    // The flight recorder aggregates purely in sim time, so its JSON
    // is as deterministic as the report and rides along as a third
    // golden for synthetic scenarios.
    let timeline = TimelineHandle::new(DEFAULT_WIDTH_US);
    let telemetry = Telemetry::with_sink(sink.clone()).with_timeline(timeline.clone());

    let idc = Idc::new(built.graph.clone(), SetupDelayModel::one_minute());
    let sim = NetworkSim::new(built.graph, EPOCH_FEB_2012_US);
    let mut driver = Driver::new(sim, spec.seed).with_idc(idc).with_telemetry(&telemetry);
    if let Some(plan) = &spec.fault_plan {
        let plan =
            FaultPlan::parse(plan).map_err(|e| ScenarioError::Run(format!("fault plan: {e}")))?;
        driver = driver.with_faults(plan);
    }

    let mut cluster_ids = std::collections::BTreeMap::new();
    for c in &spec.clusters {
        let Some(&node) = built.attach.get(&c.name) else {
            return Err(ScenarioError::Run(format!("cluster {:?} has no attachment", c.name)));
        };
        let caps = ServerCaps {
            nic_bps: c.nic_gbps * 1e9,
            disk_read_bps: c.disk_read_gbps * 1e9,
            disk_write_bps: c.disk_write_gbps * 1e9,
            node_cap_bps: c.node_cap_gbps * 1e9,
            ..ServerCaps::default()
        };
        let id = driver.register_cluster(&c.name, node, caps, c.servers);
        cluster_ids.insert(c.name.clone(), id);
    }
    let (Some(&src), Some(&dst)) = (cluster_ids.get(&wl.src), cluster_ids.get(&wl.dst)) else {
        return Err(ScenarioError::Run("workload src/dst cluster not registered".into()));
    };

    for s in synth_sessions(spec.seed, wl)? {
        driver.schedule_session(SimTime::from_secs_f64(s.at_s), src, dst, s.spec);
    }

    let limit = SimTime::from_secs_f64(wl.horizon_s + DRAIN_SLACK_S);
    let result = driver.run(limit);
    result.sim.record_timeline(&timeline);

    let mut report = feasibility_report(&result.log);
    if let Some(r) = &result.resilience {
        report = report.with_resilience(ResilienceSummary {
            vc_requested: r.vc_requested,
            vc_established: r.vc_established,
            faults_injected: r.faults_injected,
            retries: r.retries,
            fallbacks: r.fallbacks,
            mean_recovery_latency_s: r.mean_recovery_latency_s,
        });
    }

    let mut stats = String::new();
    stats.push_str(&format!("scenario {}\n", spec.name));
    stats.push_str(&format!("transfers {}\n", report.n_transfers));
    stats.push_str(&format!("degenerate {}\n", report.degenerate_records));
    push_headline(&mut stats, &report);
    if let Some(idc) = &result.idc_stats {
        stats.push_str(&format!("idc_admitted {}\n", idc.admitted));
        stats.push_str(&format!("idc_blocked {}\n", idc.blocked));
    }
    if let Some(r) = &result.resilience {
        stats.push_str(&format!("resilience_requested {}\n", r.vc_requested));
        stats.push_str(&format!("resilience_established {}\n", r.vc_established));
        stats.push_str(&format!("resilience_faults {}\n", r.faults_injected));
        stats.push_str(&format!("resilience_retries {}\n", r.retries));
        stats.push_str(&format!("resilience_fallbacks {}\n", r.fallbacks));
        stats.push_str(&format!("resilience_preemptions {}\n", r.preemptions));
    }
    if let Some(open) = result.open_reservations {
        stats.push_str(&format!("open_reservations {open}\n"));
    }

    // Chain topologies additionally exercise the interdomain
    // controller over per-domain IDC views of the same network: a
    // short deterministic storyline of end-to-end circuits, torn down
    // cleanly (leaks show up in the golden as open_after > 0).
    if !built.chain_domains.is_empty() {
        let mut controller = InterDomainController::new(built.chain_domains);
        let rate = wl.vc_rate_gbps * 1e9;
        let mut established = 0u32;
        let mut blocked = 0u32;
        for k in 0..3u32 {
            let now = SimTime::from_secs_f64(f64::from(k) * 3_600.0);
            let start = SimTime::from_secs_f64(f64::from(k) * 3_600.0 + 120.0);
            let end = SimTime::from_secs_f64(f64::from(k) * 3_600.0 + 1_920.0);
            match controller.create_circuit("src-dtn", "dst-dtn", rate, start, end, now) {
                Ok(circuit) => {
                    established += 1;
                    controller.teardown(&circuit, end);
                }
                Err(_) => blocked += 1,
            }
        }
        stats.push_str(&format!("interdomain_requested {}\n", established + blocked));
        stats.push_str(&format!("interdomain_established {established}\n"));
        stats.push_str(&format!("interdomain_blocked {blocked}\n"));
        stats.push_str(&format!("interdomain_open_after {}\n", controller.open_reservations()));
    }

    // Trace bound: only checked when the spec sets a budget, so
    // benign heavy-setup scenarios don't trip the default.
    let mut trace_violations = Vec::new();
    if let Some(max_share) = spec.expect.max_setup_share {
        let events = sink.take();
        let mut text = String::new();
        for e in &events {
            text.push_str(&e.to_json());
            text.push('\n');
        }
        let model = gvc_telemetry::TraceModel::from_text(&text)
            .map_err(|e| ScenarioError::Run(format!("trace parse: {e}")))?;
        let check = gvc_telemetry::check(&model, &CheckConfig { max_setup_share: max_share });
        for v in check.violations {
            trace_violations.push(format!("trace: {v}"));
        }
    }

    let mut violations =
        eval_expect(spec, &report, result.resilience.as_ref().map(|r| r.preemptions));
    if let Some(open) = result.open_reservations {
        if let Some(want) = spec.expect.open_reservations {
            if open as u64 != want {
                violations.push(format!("open_reservations: expected {want}, got {open}"));
            }
        }
    } else if spec.expect.open_reservations.is_some() {
        violations.push("open_reservations expected but run reported none".to_string());
    }
    violations.extend(trace_violations);

    let report_json = golden::report_json(&report);
    Ok(ScenarioOutcome {
        report,
        report_json,
        stats_text: stats,
        timeline_json: Some(timeline.to_json()),
        violations,
    })
}

/// Evaluates the expectation bounds common to both runner paths.
/// `open_reservations` is handled by the synthetic path (the paper
/// generators have no IDC attached).
fn eval_expect(
    spec: &ScenarioSpec,
    report: &FeasibilityReport,
    preemptions: Option<u64>,
) -> Vec<String> {
    let e = &spec.expect;
    let mut out = Vec::new();
    let n = report.n_transfers as u64;
    if let Some(min) = e.min_transfers {
        if n < min {
            out.push(format!("min_transfers: expected >= {min}, got {n}"));
        }
    }
    if let Some(max) = e.max_transfers {
        if n > max {
            out.push(format!("max_transfers: expected <= {max}, got {n}"));
        }
    }
    if let Some(min_pct) = e.min_suitable_sessions_pct {
        match report.headline() {
            Some((ps, _)) if ps >= min_pct => {}
            Some((ps, _)) => out.push(format!(
                "min_suitable_sessions_pct: expected >= {min_pct}, got {}",
                Number(ps)
            )),
            None => out.push("min_suitable_sessions_pct: no headline cell".to_string()),
        }
    }
    let storyline: [(&str, Option<u64>, Option<u64>); 6] = [
        ("vc_requested", e.vc_requested, report.resilience.map(|r| r.vc_requested)),
        ("vc_established", e.vc_established, report.resilience.map(|r| r.vc_established)),
        ("faults_injected", e.faults_injected, report.resilience.map(|r| r.faults_injected)),
        ("retries", e.retries, report.resilience.map(|r| r.retries)),
        ("fallbacks", e.fallbacks, report.resilience.map(|r| r.fallbacks)),
        ("preemptions", e.preemptions, preemptions),
    ];
    for (name, want, got) in storyline {
        let Some(want) = want else { continue };
        match got {
            Some(got) if got == want => {}
            Some(got) => out.push(format!("{name}: expected {want}, got {got}")),
            None => out.push(format!("{name}: expected {want}, but run has no resilience data")),
        }
    }
    out
}
