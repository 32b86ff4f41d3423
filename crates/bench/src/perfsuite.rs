//! The standard host-performance workload matrix behind
//! `gvc perf snapshot` and the criterion benches.
//!
//! One definition of each hot-path workload (kernel schedule/pop,
//! session-sweep grid, trace parsing, session grouping) shared by
//! both measurement layers, so criterion's `Melem/s` lines and the
//! `BENCH_*.json` snapshots never disagree about what a number means.
//! All timing goes through [`gvc_telemetry::perf::measure_throughput`]
//! — the bench crate itself is held to the determinism lint and never
//! reads a clock directly.

use gvc_core::sweep::SessionStore;
use gvc_engine::{EventQueue, SimTime};
use gvc_logs::{Dataset, TransferRecord, TransferType};
use gvc_net::fairshare::FairShareSolver;
use gvc_net::FlowDemand;
use gvc_scenario::{run_scenario, ScenarioSpec};
use gvc_telemetry::parse_trace;
use gvc_telemetry::perf::{measure_throughput, median, BenchMetric, PerfSnapshot};
use gvc_tidy::{run_sources, RuleSet};
use gvc_topology::{study_topology, Site};
use std::fmt::Write as _;

/// The snapshot names `gvc perf snapshot` produces, in emission order.
pub const SNAPSHOT_NAMES: &[&str] = &["kernel", "sweep", "analysis", "tidy", "scenario", "net"];

/// The committed `esnet-backbone` scenario spec, embedded so the
/// snapshot measures exactly the workload the golden corpus gates
/// (full driver + faults + telemetry + timeline stack end to end).
pub const ESNET_BACKBONE_SCN: &str = include_str!("../../../scenarios/esnet-backbone.scn");

/// The paper-sized sweep grid (Table III gaps × Table IV delays).
pub const GAPS_S: [f64; 8] = [0.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0];
/// Setup delays swept per gap.
pub const DELAYS_S: [f64; 4] = [60.0, 5.0, 1.0, 0.05];
/// Circuit-worthiness overhead factor used across the suite.
pub const FACTOR: f64 = 10.0;

/// Flow counts of the `net` suite's fair-share problems: one transfer
/// alone, a SLAC-like busy instant (5 flows per solve on average),
/// and a congested one.
pub const NET_SOLVE_FLOWS: [usize; 3] = [1, 5, 12];

/// Scales a base workload size, clamped to stay meaningful.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(16)
}

/// Kernel hot path: schedule `n` pseudo-randomly timed events, pop
/// them all. Returns the number of events processed. Identical to the
/// `event_queue/schedule_pop_*` criterion workload.
pub fn kernel_schedule_pop(n: usize) -> u64 {
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
/// grid gap changes the session structure. Identical to the criterion
/// sweep bench's generator.
pub fn synth_sweep_log(n: usize, pairs: usize) -> Dataset {
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
pub fn engine_grid(ds: &Dataset) -> usize {
    let sweep = SessionStore::from_dataset(ds).sweep(&GAPS_S, &DELAYS_S, FACTOR);
    sweep.cells.len() + sweep.gap_rows.len()
}

/// A synthetic log shaped like the analysis benches' input: steady
/// arrivals across `pairs` server pairs.
pub fn synth_analysis_log(n: usize, pairs: usize) -> Dataset {
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
/// `gvc simulate --trace` stream.
pub fn synth_trace_jsonl(lines: usize) -> String {
    let mut out = String::with_capacity(lines * 96);
    for i in 0..lines {
        let t_us = i as u64 * 1250;
        let _ = writeln!(
            out,
            "{{\"t_us\":{t_us},\"kind\":\"transfer.complete\",\"tag\":{tag},\"session\":{sess},\
             \"bytes\":{bytes},\"duration_s\":{dur},\"mbps\":{mbps},\"streams\":4,\
             \"lossy\":false,\"failed\":false}}",
            tag = i,
            sess = i % 500,
            bytes = 5_000_000 + (i % 100) * 100_000,
            dur = 1.5 + (i % 7) as f64 * 0.25,
            mbps = 80.0 + (i % 40) as f64,
        );
    }
    out
}

/// Parses `text` with the offline trace parser, returning the line
/// count processed.
pub fn parse_trace_lines(text: &str) -> u64 {
    parse_trace(text).map_or(0, |records| records.len() as u64)
}

/// A fair-share problem shaped like the ones the fluid simulator
/// solves: `nflows` transfers between study-topology DTNs, each
/// crossing its routed links plus both clusters' aggregate resources
/// and a disk resource (about 13 constraints), with distinct rate caps
/// and a circuit guarantee on every fourth flow. Returns the capacity
/// table (links, then three resources per site) and the flows, whose
/// constraint lists are sorted and duplicate-free.
pub fn net_solve_problem(nflows: usize) -> (Vec<f64>, Vec<FlowDemand>) {
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
pub fn net_solve(
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

/// One full scenario run through the corpus runner (spec topology,
/// synthetic workload, faults, telemetry, flight recorder, golden
/// serialization); returns the number of transfers produced, 0 on a
/// run error (snapshot values then read as an obvious regression).
pub fn scenario_transfers(spec: &ScenarioSpec) -> u64 {
    run_scenario(spec).map_or(0, |o| {
        std::hint::black_box(o.report_json.len() + o.timeline_json.map_or(0, |t| t.len()));
        o.report.n_transfers as u64
    })
}

/// A deterministic synthetic workspace for the lint-engine snapshot:
/// `files` sources spread across the lib crates, each with doc'd fns,
/// a struct, and a cross-crate `use` chain (`helper_{i-1}` called from
/// file `i`), so parsing, the item graph, call resolution, and all
/// four workspace rules run over a realistic shape. Pure arithmetic
/// content — a scan of the corpus is violation-free, so the metric
/// measures clean-path analysis cost.
pub fn synth_tidy_corpus(files: usize) -> Vec<(String, String)> {
    const CRATES: &[&str] = &["core", "engine", "net", "gridftp", "logs", "stats"];
    let mut out = Vec::with_capacity(files);
    for i in 0..files {
        let krate = CRATES[i % CRATES.len()];
        let mut src = String::with_capacity(4096);
        let _ = writeln!(src, "//! Synthetic lint workload file {i}.");
        let _ = writeln!(src, "use std::collections::BTreeMap;");
        if i > 0 {
            let prev = CRATES[(i - 1) % CRATES.len()];
            let _ = writeln!(src, "use gvc_{prev}::synth_{p}::helper_{p};", p = i - 1);
        }
        for f in 0..8u32 {
            let _ = writeln!(src, "/// Deterministic mixer {f}.");
            let _ = writeln!(src, "pub fn mix_{i}_{f}(x: u64, y: u64) -> u64 {{");
            let _ = writeln!(src, "    let acc = x.wrapping_mul(2_654_435_761).rotate_left({f});");
            let _ = writeln!(src, "    let fold = acc ^ y.wrapping_add({i});");
            if i > 0 && f == 0 {
                let _ = writeln!(src, "    let seed = helper_{}(fold);", i - 1);
                let _ = writeln!(src, "    seed.wrapping_add(fold)");
            } else {
                let _ = writeln!(src, "    fold.rotate_right(9)");
            }
            let _ = writeln!(src, "}}");
        }
        let _ = writeln!(src, "/// Chain entry for the next file's mixer.");
        let _ = writeln!(src, "pub fn helper_{i}(x: u64) -> u64 {{");
        let _ = writeln!(src, "    mix_{i}_0(x, {i})");
        let _ = writeln!(src, "}}");
        let _ = writeln!(src, "/// Synthetic record type {i}.");
        let _ = writeln!(src, "pub struct Rec{i} {{");
        let _ = writeln!(src, "    pub key: u64,");
        let _ = writeln!(src, "    pub hist: BTreeMap<u64, u64>,");
        let _ = writeln!(src, "}}");
        out.push((format!("crates/{krate}/src/synth_{i}.rs"), src));
    }
    out
}

/// Full v2 lint pass (parse → item graph → every rule) over the
/// corpus; returns the number of source lines analyzed.
pub fn tidy_analyze(sources: &[(String, String)]) -> u64 {
    let refs: Vec<(&str, &str)> = sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    let report = run_sources(&refs, &RuleSet::v2());
    std::hint::black_box(report.violations.len() + report.suppressed.len());
    sources.iter().map(|(_, s)| s.lines().count() as u64).sum()
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
/// tidy 120 synthetic source files through the full v2 engine,
/// scenario one full `esnet-backbone` corpus run (scale-independent),
/// net 20k fair-share solves at each of 1, 5 and 12 study-topology
/// flows.
pub fn run_snapshot(name: &str, reps: u64, scale: f64) -> Option<PerfSnapshot> {
    let mut snap = PerfSnapshot::new(name, reps);
    match name {
        "kernel" => {
            let n = scaled(200_000, scale);
            let (items, rates) = measure_throughput(reps, || kernel_schedule_pop(n));
            snap.metrics.push(throughput_metric(
                "kernel.schedule_pop.events_per_sec",
                "events/sec",
                items,
                rates,
            ));
        }
        "sweep" => {
            let n = scaled(200_000, scale);
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
        "tidy" => {
            let files = scaled(120, scale);
            let sources = synth_tidy_corpus(files);
            let (items, rates) = measure_throughput(reps, || tidy_analyze(&sources));
            snap.metrics.push(throughput_metric(
                "tidy.analyze.lines_per_sec",
                "lines/sec",
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
    fn tidy_corpus_is_deterministic_and_scans_clean() {
        let a = synth_tidy_corpus(12);
        let b = synth_tidy_corpus(12);
        assert_eq!(a, b, "corpus generation must be deterministic");
        let refs: Vec<(&str, &str)> = a.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        let report = run_sources(&refs, &RuleSet::v2());
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(tidy_analyze(&a), a.iter().map(|(_, s)| s.lines().count() as u64).sum());
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
    fn kernel_workload_processes_all_events() {
        assert_eq!(kernel_schedule_pop(1000), 1000);
    }

    #[test]
    fn trace_workload_parses_every_line() {
        let text = synth_trace_jsonl(500);
        assert_eq!(parse_trace_lines(&text), 500);
    }
}
