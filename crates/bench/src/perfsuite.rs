//! The standard host-performance workload matrix behind
//! `gvc perf snapshot`.
//!
//! One definition of each hot-path workload (kernel schedule/pop,
//! session-sweep grid, trace parsing, session grouping, fair-share
//! solves, IDC admission, a scenario run), each
//! timed into one `BENCH_<suite>.json`. All timing goes through
//! [`gvc_telemetry::perf::measure_throughput`] — the bench crate
//! itself is held to clippy's `disallowed_methods` clock ban and never
//! reads a clock directly.

use gvc_core::sweep::SessionStore;
use gvc_engine::{EventQueue, SimTime};
use gvc_logs::{Dataset, TransferRecord, TransferType};
use gvc_net::fairshare::FairShareSolver;
use gvc_net::FlowDemand;
use gvc_oscars::{Idc, ReservationRequest, SetupDelayModel};
use gvc_scenario::{run_scenario, ScenarioSpec};
use gvc_telemetry::perf::{measure_throughput, median, BenchMetric, PerfSnapshot};
use gvc_telemetry::{parse_trace, SpanId, Telemetry, TimelineHandle, Tracer};
use gvc_topology::{study_topology, Site};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// The snapshot names `gvc perf snapshot` produces, in emission order.
pub const SNAPSHOT_NAMES: &[&str] = &["kernel", "sweep", "analysis", "scenario", "net", "idc"];

/// The committed `esnet-backbone` scenario spec, embedded so the
/// snapshot measures exactly the workload the golden corpus gates
/// (full driver + faults + telemetry + timeline stack end to end).
const ESNET_BACKBONE_SCN: &str = include_str!("../../../scenarios/esnet-backbone.scn");

/// The paper-sized sweep grid (Table III gaps × Table IV delays).
const GAPS_S: [f64; 8] = [0.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0];
/// Setup delays swept per gap.
const DELAYS_S: [f64; 4] = [60.0, 5.0, 1.0, 0.05];
/// Circuit-worthiness overhead factor used across the suite.
const FACTOR: f64 = 10.0;

/// Flow counts of the `net` suite's fair-share problems: one transfer
/// alone, a SLAC-like busy instant (5 flows per solve on average),
/// and a congested one.
const NET_SOLVE_FLOWS: [usize; 3] = [1, 5, 12];

/// The largest suite size at `scale = 1.0`: the kernel suite's events
/// and the sweep suite's records.
const LARGEST_BASE: usize = 200_000;

/// The largest scale at which no suite exceeds `u32::MAX` items.
pub fn max_scale() -> f64 {
    f64::from(u32::MAX) / LARGEST_BASE as f64
}

/// Scales a base workload size, clamped to stay meaningful.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(16)
}

/// Kernel hot path: schedule `n` pseudo-randomly timed events, pop
/// them all. Returns the number of events processed.
fn kernel_schedule_pop(n: usize) -> u64 {
    let mut q = EventQueue::<u64>::new();
    for i in 0..n as u64 {
        // Pseudo-random but fixed schedule times.
        let t = (i * 2_654_435_761) % 1_000_000;
        q.schedule(SimTime::from_secs(t), i);
    }
    let mut acc = 0u64;
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    std::hint::black_box(acc);
    n as u64
}

/// A synthetic log of `n` transfers across `pairs` server pairs, with
/// enough spread in inter-arrival (and hence boundary gaps) that every
/// grid gap changes the session structure.
fn synth_sweep_log(n: usize, pairs: usize) -> Dataset {
    let recs: Vec<TransferRecord> = (0..n)
        .map(|i| {
            let pair = i % pairs;
            // Pair-local arrivals: spacing cycles through 1 s .. ~40 min.
            let k = (i / pairs) as i64;
            let spacing = 1 + (i as i64 * 2_654_435_761 % 2_400);
            let start = k * spacing * 1_000_000 + pair as i64;
            TransferRecord::simple(
                TransferType::Retr,
                ((i * 37) % 4000) as u64 * 1_000_000 + 1,
                start,
                5_000_000 + ((i * 13) % 100) as i64 * 100_000,
                "server",
                Some(&format!("peer-{pair}")),
            )
        })
        .collect();
    Dataset::from_records(recs)
}

/// The full grid through the sweep engine (store build included, so
/// the measurement covers the engine's whole cost).
fn engine_grid(ds: &Dataset) -> usize {
    let sweep = SessionStore::from_dataset(ds).sweep(&GAPS_S, &DELAYS_S, FACTOR);
    sweep.cells.len() + sweep.gap_rows.len()
}

/// A synthetic log of steady arrivals across `pairs` server pairs.
fn synth_analysis_log(n: usize, pairs: usize) -> Dataset {
    let recs: Vec<TransferRecord> = (0..n)
        .map(|i| {
            let start = (i as i64) * 8_000_000;
            TransferRecord::simple(
                TransferType::Retr,
                ((i * 37) % 1000) as u64 * 1_000_000 + 1,
                start,
                5_000_000 + ((i * 13) % 100) as i64 * 100_000,
                "server",
                Some(&format!("peer-{}", i % pairs)),
            )
        })
        .collect();
    Dataset::from_records(recs)
}

/// A deterministic JSONL trace of `lines` records shaped like a
/// `gvc simulate --trace` stream: `session.transfer` spans, each an
/// opening and a closing record.
fn synth_trace_jsonl(lines: usize) -> String {
    let mut out = String::with_capacity(lines * 96);
    for i in 0..lines {
        let (k, span) = (i / 2, i / 2 + 2);
        if i % 2 == 0 {
            let _ = writeln!(
                out,
                "{{\"t_us\":{t_us},\"kind\":\"span.start\",\"span\":{span},\"parent\":1,\
                 \"name\":\"session.transfer\",\"tag\":{k},\"session\":{sess},\
                 \"bytes\":{bytes},\"streams\":4,\"stripes\":1}}",
                t_us = k as u64 * 2500,
                sess = k % 500,
                bytes = 5_000_000 + (k % 100) * 100_000,
            );
        } else {
            let _ = writeln!(
                out,
                "{{\"t_us\":{t_us},\"kind\":\"span.end\",\"span\":{span},\
                 \"duration_s\":{dur},\"mbps\":{mbps},\"lossy\":false,\"failed\":false}}",
                t_us = k as u64 * 2500 + 1250,
                dur = 1.5 + (k % 7) as f64 * 0.25,
                mbps = 80.0 + (k % 40) as f64,
            );
        }
    }
    out
}

/// Parses `text` with the offline trace parser, returning the line
/// count processed.
fn parse_trace_lines(text: &str) -> u64 {
    parse_trace(text).map_or(0, |records| records.len() as u64)
}

/// A fair-share problem shaped like the ones the fluid simulator
/// solves: `nflows` transfers between study-topology DTNs, each
/// crossing its routed links plus both clusters' aggregate resources
/// and a disk resource (about 13 constraints), with distinct rate caps
/// and a circuit guarantee on every fourth flow. Returns the capacity
/// table (links, then three resources per site) and the flows, whose
/// constraint lists are sorted and duplicate-free.
fn net_solve_problem(nflows: usize) -> (Vec<f64>, Vec<FlowDemand>) {
    const PAIRS: [(Site, Site); 4] = [
        (Site::Nersc, Site::Ornl),
        (Site::Slac, Site::Bnl),
        (Site::Ncar, Site::Nics),
        (Site::Anl, Site::Nersc),
    ];
    let topo = study_topology();
    let n_links = topo.graph.link_count();
    let mut capacities: Vec<f64> = topo.graph.links().iter().map(|l| l.capacity_bps).collect();
    // Per site: aggregate, disk read, disk write.
    for i in 0..Site::ALL.len() {
        let servers = (1 + i % 3) as f64;
        capacities.extend([2.4e9 * servers, 2.8e9 * servers, 2.2e9 * servers]);
    }
    let flows = (0..nflows)
        .map(|i| {
            let (a, b) = PAIRS[i % PAIRS.len()];
            let (sa, sb) = (n_links + 3 * a as usize, n_links + 3 * b as usize);
            let mut constraints: Vec<usize> =
                topo.path(a, b).links.iter().map(|l| l.0 as usize).collect();
            constraints.extend([sa, sb, if i % 2 == 0 { sa + 1 } else { sb + 2 }]);
            constraints.sort_unstable();
            constraints.dedup();
            FlowDemand {
                constraints,
                min_rate_bps: if i % 4 == 3 { 1e9 } else { 0.0 },
                max_rate_bps: 0.6e9 + i as f64 * 0.37e9,
            }
        })
        .collect();
    (capacities, flows)
}

/// Solves `problem` (from [`net_solve_problem`]) `solves` times on one
/// warm workspace, as the simulator does at each arrival or departure.
/// Returns `solves`.
fn net_solve(
    solver: &mut FairShareSolver,
    problem: &(Vec<f64>, Vec<FlowDemand>),
    solves: u64,
) -> u64 {
    let (capacities, flows) = problem;
    for _ in 0..solves {
        solver.clear();
        for f in flows {
            solver.push_flow(&f.constraints, f.min_rate_bps, f.max_rate_bps);
        }
        std::hint::black_box(solver.solve(capacities));
    }
    solves
}

/// IDC admission as the driver drives it, on the study topology with
/// a flight recorder attached (as the scenario runner attaches one):
/// `cycles` requests for a 1 Gbps, one-hour circuit at `now`, each
/// provisioned at once, with the oldest circuit torn down at `now`
/// once eight are open. `now` advances 10 s per cycle, so windows
/// overlap and the run's history grows with `cycles`. Returns the
/// number of reservations admitted.
fn idc_admit_teardown(cycles: usize) -> u64 {
    const OPEN: usize = 8;
    const PAIRS: [(Site, Site); 4] = [
        (Site::Nersc, Site::Ornl),
        (Site::Slac, Site::Bnl),
        (Site::Ncar, Site::Nics),
        (Site::Anl, Site::Nersc),
    ];
    let topo = study_topology();
    let mut idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
    idc.set_telemetry(&Telemetry::metrics_only().with_timeline(TimelineHandle::new(30_000_000)));
    let mut open = VecDeque::with_capacity(OPEN + 1);
    for k in 0..cycles {
        let now = SimTime::from_secs(k as u64 * 10);
        let (a, b) = PAIRS[k % PAIRS.len()];
        let req = ReservationRequest {
            src: topo.dtn(a),
            dst: topo.dtn(b),
            rate_bps: 1e9,
            start: now,
            end: SimTime::from_secs(k as u64 * 10 + 3_600),
        };
        if let Ok(id) = idc.create_reservation(req) {
            let _ = idc.provision(id, now, SpanId::NONE);
            open.push_back(id);
        }
        if open.len() > OPEN {
            if let Some(id) = open.pop_front() {
                let _ = idc.teardown(id, now);
            }
        }
    }
    idc.stats().admitted
}

/// One full scenario run through the corpus runner (spec topology,
/// synthetic workload, faults, telemetry, flight recorder, golden
/// serialization); returns the number of transfers produced, 0 on a
/// run error (snapshot values then read as an obvious regression).
fn scenario_transfers(spec: &ScenarioSpec) -> u64 {
    run_scenario(spec, Tracer::disabled_ref()).map_or(0, |o| {
        std::hint::black_box(o.report_json.len() + o.timeline_json.map_or(0, |t| t.len()));
        o.report.n_transfers as u64
    })
}

fn throughput_metric(id: &str, unit: &str, items: u64, samples: Vec<f64>) -> BenchMetric {
    BenchMetric {
        id: id.to_string(),
        unit: unit.to_string(),
        higher_is_better: true,
        items,
        value: median(&samples),
        samples,
    }
}

/// Runs the named snapshot's workloads `reps` times each (median-of-N)
/// at `scale` × the standard sizes. `None` for an unknown name.
///
/// Standard sizes at `scale = 1.0`: kernel 200k events, sweep 200k
/// records × the 8×4 grid, analysis 50k trace lines + 100k records,
/// scenario one full `esnet-backbone` corpus run (scale-independent),
/// net 20k fair-share solves at each of 1, 5 and 12 study-topology
/// flows, idc 20k admit/provision/teardown cycles.
pub fn run_snapshot(name: &str, reps: u64, scale: f64) -> Option<PerfSnapshot> {
    let mut snap = PerfSnapshot::new(name, reps);
    match name {
        "kernel" => {
            let n = scaled(LARGEST_BASE, scale);
            let (items, rates) = measure_throughput(reps, || kernel_schedule_pop(n));
            snap.metrics.push(throughput_metric(
                "kernel.schedule_pop.events_per_sec",
                "events/sec",
                items,
                rates,
            ));
        }
        "sweep" => {
            let n = scaled(LARGEST_BASE, scale);
            let ds = synth_sweep_log(n, 64);
            let (items, rates) = measure_throughput(reps, || {
                std::hint::black_box(engine_grid(&ds));
                n as u64
            });
            snap.metrics.push(throughput_metric(
                "sweep.engine_grid.records_per_sec",
                "records/sec",
                items,
                rates,
            ));
        }
        "analysis" => {
            let lines = scaled(50_000, scale);
            let text = synth_trace_jsonl(lines);
            let (items, rates) = measure_throughput(reps, || parse_trace_lines(&text));
            snap.metrics.push(throughput_metric(
                "analysis.parse_trace.lines_per_sec",
                "lines/sec",
                items,
                rates,
            ));
            let n = scaled(100_000, scale);
            let ds = synth_analysis_log(n, 20);
            let (items, rates) = measure_throughput(reps, || {
                std::hint::black_box(SessionStore::from_dataset(&ds).sessions_at(60.0));
                n as u64
            });
            snap.metrics.push(throughput_metric(
                "analysis.sessions_at.records_per_sec",
                "records/sec",
                items,
                rates,
            ));
        }
        "scenario" => {
            // `scale` is ignored: the workload is the committed
            // esnet-backbone spec byte-for-byte, so the metric tracks
            // the cost of the run the golden gate re-executes on
            // every PR.
            let spec = ScenarioSpec::parse(ESNET_BACKBONE_SCN).ok()?;
            let (items, rates) = measure_throughput(reps, || scenario_transfers(&spec));
            snap.metrics.push(throughput_metric(
                "scenario.run.transfers_per_sec",
                "transfers/sec",
                items,
                rates,
            ));
        }
        "net" => {
            let solves = scaled(20_000, scale) as u64;
            let mut solver = FairShareSolver::new();
            for nflows in NET_SOLVE_FLOWS {
                let problem = net_solve_problem(nflows);
                let (items, rates) =
                    measure_throughput(reps, || net_solve(&mut solver, &problem, solves));
                snap.metrics.push(throughput_metric(
                    &format!("net.solve.flows_{nflows}.solves_per_sec"),
                    "solves/sec",
                    items,
                    rates,
                ));
            }
        }
        "idc" => {
            let cycles = scaled(20_000, scale);
            let (items, rates) = measure_throughput(reps, || idc_admit_teardown(cycles));
            snap.metrics.push(throughput_metric(
                "idc.admit_teardown.reservations_per_sec",
                "reservations/sec",
                items,
                rates,
            ));
        }
        _ => return None,
    }
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_snapshot_name_is_none() {
        assert!(run_snapshot("nope", 1, 0.01).is_none());
    }

    #[test]
    fn every_snapshot_runs_small_and_round_trips() {
        for &name in SNAPSHOT_NAMES {
            let snap = run_snapshot(name, 2, 0.01).expect(name);
            assert_eq!(snap.name, name);
            assert_eq!(snap.reps, 2);
            assert!(!snap.metrics.is_empty(), "{name}");
            for m in &snap.metrics {
                assert!(m.value > 0.0, "{name}/{}", m.id);
                assert_eq!(m.samples.len(), 2, "{name}/{}", m.id);
                assert!(m.higher_is_better);
            }
            let back = PerfSnapshot::parse(&snap.to_json()).expect("parse");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn net_problems_have_the_simulated_shape() {
        for nflows in NET_SOLVE_FLOWS {
            let (capacities, flows) = net_solve_problem(nflows);
            assert_eq!(flows.len(), nflows);
            for f in &flows {
                assert!((11..=15).contains(&f.constraints.len()), "{}", f.constraints.len());
                assert!(f.constraints.windows(2).all(|w| w[0] < w[1]));
                assert!(f.constraints.iter().all(|&c| c < capacities.len()));
            }
            let mut solver = FairShareSolver::new();
            assert_eq!(net_solve(&mut solver, &(capacities.clone(), flows.clone()), 3), 3);
            let cons: Vec<gvc_net::CapacityConstraint> = capacities
                .iter()
                .map(|&c| gvc_net::CapacityConstraint { capacity_bps: c })
                .collect();
            assert_eq!(solver.solve(&capacities), gvc_net::max_min_allocation(&cons, &flows));
        }
    }

    #[test]
    fn idc_workload_admits_every_cycle() {
        // Eight 1 G circuits never fill a 10 G link, so nothing blocks.
        assert_eq!(idc_admit_teardown(500), 500);
    }

    #[test]
    fn kernel_workload_processes_all_events() {
        assert_eq!(kernel_schedule_pop(1000), 1000);
    }

    #[test]
    fn trace_workload_parses_every_line() {
        let text = synth_trace_jsonl(500);
        assert_eq!(parse_trace_lines(&text), 500);
    }
}
