//! Simulation layers: the `vc-contention` scenario replica and the
//! ORNL background re-drive behind `paper-repro`'s `net`/`engine`
//! numbers. Both attach a telemetry context to the simulation `Driver`
//! and read the counters the program registers.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gvc_core::{feasibility_report, ResilienceSummary};
use gvc_engine::SimTime;
use gvc_faults::FaultPlan;
use gvc_gridftp::driver::{Driver, DriverOutput, Shards};
use gvc_gridftp::ServerCaps;
use gvc_net::background::{generate_background, BackgroundConfig};
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, SetupDelayModel};
use gvc_scenario::spec::WorkloadSpec;
use gvc_scenario::{golden, topo, workload, ScenarioSpec};
use gvc_telemetry::{
    BufferSink, Histogram, Telemetry, TimelineHandle, TraceEvent, TraceSink, Value,
    DEFAULT_WIDTH_US,
};
use gvc_topology::{study_topology, Site};
use gvc_workload::{EPOCH_FEB_2012_US, EPOCH_SEP_2010_US};

use crate::{Metrics, Trace};

/// Handler classes reported one by one.
const REPORTED_CLASSES: [&str; 5] =
    ["start_session", "launch_next", "retry_vc", "link_flap", "inject_background"];

/// Every class `sim_event_handle_seconds` is labelled with.
const ALL_CLASSES: [&str; 7] = [
    "start_session",
    "launch_next",
    "inject_background",
    "resize_cluster",
    "retry_vc",
    "preempt_vc",
    "link_flap",
];

/// The scenario runner's drain-out slack past the workload horizon.
const DRAIN_SLACK_S: f64 = 604_800.0;

/// Trace sink keeping, in memory, the event count and the flow count of
/// every `net.fairshare` solve.
#[derive(Default)]
struct LayerSink {
    events: AtomicU64,
    solve_flows: Mutex<Vec<u64>>,
    /// Every event, when the replayed program buffers them all too (the
    /// scenario runner traces into a `BufferSink`), so the traced pass
    /// pays the same tracing cost.
    retained: Option<BufferSink>,
}

impl TraceSink for LayerSink {
    fn emit(&self, ev: &TraceEvent) {
        // Relaxed: a statistic, publishing no other data.
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(buf) = &self.retained {
            buf.emit(ev);
        }
        if ev.kind == "net.fairshare" {
            if let Some((_, Value::U64(n))) = ev.fields.iter().find(|(k, _)| *k == "flows") {
                self.solve_flows.lock().expect("sink lock poisoned").push(*n);
            }
        }
    }
}

/// Reads the `Driver`, kernel, solver, IDC and recovery counters of one
/// run, given the wall time the benchmark measured around the drive.
fn driver_layers(
    m: &mut Metrics,
    ctx: &Telemetry,
    sink: &LayerSink,
    out: &DriverOutput,
    drive_s: f64,
) {
    let reg = &ctx.registry;
    let count = |name: &str| reg.counter(name, &[]).get() as f64;
    let mut handled_s = 0.0;
    for class in ALL_CLASSES {
        let h = reg.histogram("sim_event_handle_seconds", &[("class", class)], Histogram::timing);
        handled_s += h.sum();
        // A class with no events keeps its metrics unset, so they read
        // like every idle layer's.
        if REPORTED_CLASSES.contains(&class) && h.count() > 0 {
            m.add(&format!("gridftp.handle_s.{class}"), h.sum());
            m.add(&format!("gridftp.handle_n.{class}"), h.count() as f64);
        }
    }
    let events = count("sim_events_dispatched_total");
    let completions = count("net_flows_completed_total");
    m.set("engine.events_dispatched", events);
    m.set("engine.queue_depth_hwm", reg.gauge("sim_event_queue_depth_hwm", &[]).get() as f64);
    m.set("engine.us_per_event", drive_s * 1e6 / (events + completions).max(1.0));

    let recomputes = count("net_fairshare_recomputations_total");
    let loop_s = drive_s - handled_s;
    m.set("net.recomputes", recomputes);
    m.set("net.flows_started", count("net_flows_started_total"));
    m.set("net.loop_s", loop_s);
    m.set("net.us_per_solve", loop_s * 1e6 / recomputes.max(1.0));
    let flows = sink.solve_flows.lock().expect("sink lock poisoned");
    let total: u64 = flows.iter().sum();
    m.set("net.flows_per_solve.mean", total as f64 / (flows.len() as f64).max(1.0));
    m.set("net.flows_per_solve.max", flows.iter().copied().max().unwrap_or(0) as f64);

    let requests = count("idc_requests_total");
    let admitted = count("idc_admitted_total");
    let blocked: f64 = ["invalid_request", "no_feasible_path"]
        .iter()
        .map(|r| reg.counter("idc_blocked_total", &[("reason", r)]).get() as f64)
        .sum();
    m.set("oscars.requests", requests);
    m.set("oscars.admitted", admitted);
    m.set("oscars.blocked", blocked);
    m.set("oscars.admit_ratio", if requests > 0.0 { admitted / requests } else { 0.0 });

    let retries = count("recovery_retries_total");
    let vc_sessions = out.resilience.map_or(0, |r| r.vc_requested) as f64;
    m.set("faults.injected", out.resilience.map_or(0, |r| r.faults_injected) as f64);
    m.set("faults.retries", retries);
    m.set("faults.fallbacks", count("fallback_ip_total"));
    m.set("faults.retry_ratio", if vc_sessions > 0.0 { retries / vc_sessions } else { 0.0 });

    m.set("telemetry.trace_events", sink.events.load(Ordering::Relaxed) as f64);
}

/// Re-drives the study topology's 30-day background traffic the way
/// the ORNL generator schedules it (`gvc_workload::nersc_ornl`), with
/// telemetry attached, for `paper-repro`'s `net` and `engine` numbers.
pub fn redrive_ornl_background(trace: &mut Trace, m: &mut Metrics, seed: u64) {
    let topo = study_topology();
    let mut sim = NetworkSim::new(topo.graph.clone(), EPOCH_SEP_2010_US);
    let monitored = [
        topo.nersc_ornl_snmp_links(Site::Nersc, Site::Ornl),
        topo.nersc_ornl_snmp_links(Site::Ornl, Site::Nersc),
        topo.campus_links_outbound(Site::Nersc),
        topo.campus_links_inbound(Site::Ornl),
    ];
    for l in monitored.iter().flatten() {
        sim.monitor_link(*l);
    }
    let sink = Arc::new(LayerSink::default());
    let ctx = Telemetry::with_sink(sink.clone());
    let mut driver = Driver::new(sim, seed).with_telemetry(&ctx);
    let caps = ServerCaps {
        node_cap_bps: 2.4e9,
        disk_read_bps: 2.8e9,
        disk_write_bps: 2.2e9,
        nic_bps: 10e9,
        ..ServerCaps::default()
    };
    driver.register_cluster("dtn01.nersc.gov", topo.dtn(Site::Nersc), caps, 2);
    driver.register_cluster("dtn.ccs.ornl.gov", topo.dtn(Site::Ornl), caps, 2);
    let horizon = SimTime::from_secs_f64(30.0 * 86_400.0);
    let bg = BackgroundConfig {
        mean_interarrival_s: 6.0,
        median_size_bytes: 3e6,
        mean_size_bytes: 30e6,
        rate_cap_bps: 250e6,
        ..BackgroundConfig::default()
    };
    driver.schedule_background(generate_background(&topo.graph, &bg, horizon, seed));
    let started = Instant::now();
    let out = trace.span("gridftp.drive_s", |_| driver.run(horizon));
    driver_layers(m, &ctx, &sink, &out, started.elapsed().as_secs_f64());
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays `gvc scenario run` on a synthetic spec through the same
/// public calls the scenario runner makes, writing the report and
/// timeline it renders to `out` so they can be held against the
/// program's own output. Returns the traced wall time.
pub fn run_scenario(
    trace: &mut Trace,
    m: &mut Metrics,
    spec_path: &Path,
    out: &Path,
) -> Result<f64, String> {
    let started = Instant::now();
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = trace.span("scenario.parse_s", |_| ScenarioSpec::parse(&text)).map_err(err)?;
    let WorkloadSpec::Synthetic(wl) = &spec.workload else {
        return Err("vc-contention wants a synthetic workload".into());
    };
    let (built, sessions) = trace.span("scenario.synth_s", |_| {
        Ok::<_, String>((
            topo::build(&spec).map_err(err)?,
            workload::synth_sessions(spec.seed, wl).map_err(err)?,
        ))
    })?;

    let sink = Arc::new(LayerSink { retained: Some(BufferSink::new()), ..LayerSink::default() });
    let timeline = TimelineHandle::new(DEFAULT_WIDTH_US);
    let ctx = Telemetry::with_sink(sink.clone()).with_timeline(timeline.clone());
    let idc = Idc::new(built.graph.clone(), SetupDelayModel::one_minute());
    let sim = NetworkSim::new(built.graph, EPOCH_FEB_2012_US);
    let mut driver = Driver::new(sim, spec.seed).with_idc(idc).with_telemetry(&ctx);
    if let Some(plan) = &spec.fault_plan {
        driver = driver.with_faults(FaultPlan::parse(plan).map_err(err)?);
    }
    let mut clusters = BTreeMap::new();
    for c in &spec.clusters {
        let node =
            *built.attach.get(&c.name).ok_or_else(|| format!("cluster {:?} unattached", c.name))?;
        let caps = ServerCaps {
            nic_bps: c.nic_gbps * 1e9,
            disk_read_bps: c.disk_read_gbps * 1e9,
            disk_write_bps: c.disk_write_gbps * 1e9,
            node_cap_bps: c.node_cap_gbps * 1e9,
            ..ServerCaps::default()
        };
        clusters.insert(c.name.clone(), driver.register_cluster(&c.name, node, caps, c.servers));
    }
    let (Some(&src), Some(&dst)) = (clusters.get(&wl.src), clusters.get(&wl.dst)) else {
        return Err("workload src/dst cluster not registered".into());
    };
    for s in sessions {
        driver.schedule_session(SimTime::from_secs_f64(s.at_s), src, dst, s.spec);
    }
    let limit = SimTime::from_secs_f64(wl.horizon_s + DRAIN_SLACK_S);
    let drive_started = Instant::now();
    let result = trace.span("gridftp.drive_s", |_| driver.run_sharded(limit, Shards::Auto));
    let drive_s = drive_started.elapsed().as_secs_f64();

    let report = trace.span("core.feasibility_s", |_| {
        let report = feasibility_report(&result.log);
        match &result.resilience {
            Some(r) => report.with_resilience(ResilienceSummary {
                vc_requested: r.vc_requested,
                vc_established: r.vc_established,
                faults_injected: r.faults_injected,
                retries: r.retries,
                fallbacks: r.fallbacks,
                mean_recovery_latency_s: r.mean_recovery_latency_s,
            }),
            None => report,
        }
    });
    let (report_json, timeline_json) = trace.span("telemetry.render_s", |_| {
        result.sim.record_timeline(&timeline);
        (golden::report_json(&report), timeline.to_json())
    });
    let traced_wall_s = started.elapsed().as_secs_f64();

    driver_layers(m, &ctx, &sink, &result, drive_s);
    m.set("gridftp.transfers", result.log.len() as f64);
    m.set("telemetry.timeline_bytes", timeline_json.len() as f64);
    let g60 = report.gap_rows.iter().find(|r| r.gap_s == 60.0);
    m.set("core.sessions", g60.map_or(0, |r| r.sessions) as f64);
    for (name, body) in [("report.json", &report_json), ("timeline.json", &timeline_json)] {
        let path = out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let open = result.open_reservations.unwrap_or(0);
    std::fs::write(out.join("open_reservations"), format!("{open}\n")).map_err(err)?;
    Ok(traced_wall_s)
}
