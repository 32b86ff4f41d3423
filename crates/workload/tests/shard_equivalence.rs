//! Shard-count invariance at the analysis layer.
//!
//! The kernel-level suites pin logs, traces, and metrics; this suite
//! closes the loop the paper's tables actually depend on: the
//! [`gvc_core::feasibility_report`] computed from a sharded run must
//! be identical — row for row, cell for cell — no matter how many
//! lanes ran in parallel. A workload-shaped scenario (stochastic
//! session scripts over hub-local disjoint pairs, so the partition
//! genuinely splits) is run at several shard counts and the reports
//! compared on every field except the wall-clock manifest stamp.

use gvc_core::{feasibility_report, FeasibilityReport, ResilienceSummary};
use gvc_engine::SimTime;
use gvc_faults::FaultPlan;
use gvc_gridftp::driver::DriverOutput;
use gvc_gridftp::{Driver, ServerCaps, SessionSpec, Shards, TransferJob, VcRequestSpec};
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, SetupDelayModel};
use gvc_stats::dist::{Distribution, LogNormal};
use gvc_stats::rng::component_rng;
use gvc_topology::{study_topology, Site};
use proptest::prelude::*;
use rand::Rng;

/// Hub-local pairs: each stays inside one hub's site fan, so the lane
/// partition splits them (unlike the study pairs, which all cross the
/// shared backbone and collapse into a single lane).
const DISJOINT_PAIRS: [(Site, Site); 3] =
    [(Site::Nersc, Site::Slac), (Site::Ornl, Site::Nics), (Site::Anl, Site::Bnl)];

struct Scenario {
    seed: u64,
    sessions_per_pair: usize,
    vc_on_first_pair: bool,
    faults: FaultPlan,
}

/// The scenario's driver, scheduled and ready to run.
fn scenario_driver(sc: &Scenario) -> Driver {
    let topo = study_topology();
    let mut driver = Driver::new(NetworkSim::new(topo.graph.clone(), 0), sc.seed);
    if sc.vc_on_first_pair {
        driver = driver.with_idc(Idc::new(topo.graph.clone(), SetupDelayModel::one_minute()));
    }
    driver = driver.with_faults(sc.faults.clone());
    for (i, &(a, b)) in DISJOINT_PAIRS.iter().enumerate() {
        let src =
            driver.register_cluster(&format!("src{i}"), topo.dtn(a), ServerCaps::default(), 2);
        let dst =
            driver.register_cluster(&format!("dst{i}"), topo.dtn(b), ServerCaps::default(), 2);
        let mut rng = component_rng(sc.seed, &format!("workload/pair-{i}"));
        let sizes = LogNormal::from_median_mean(200e6, 900e6).expect("valid calibration");
        for s in 0..sc.sessions_per_pair {
            let start_s = rng.gen::<f64>() * 4_000.0;
            let n = 1 + (rng.gen::<f64>() * 4.0) as usize;
            let jobs: Vec<TransferJob> = (0..n)
                .map(|_| TransferJob {
                    size_bytes: (sizes.sample(&mut rng) as u64).clamp(1_000_000, 8_000_000_000),
                    ..TransferJob::default()
                })
                .collect();
            let mut spec = SessionSpec::sequential(jobs, rng.gen::<f64>() * 5.0);
            if sc.vc_on_first_pair && i == 0 && s == 0 {
                spec = spec.with_vc(VcRequestSpec {
                    rate_bps: 1e9,
                    max_duration_s: 3600.0,
                    wait_for_circuit: true,
                });
            }
            driver.schedule_session(SimTime::from_secs_f64(start_s), src, dst, spec);
        }
    }
    driver
}

fn limit() -> SimTime {
    SimTime::from_secs(2_000_000)
}

fn run_scenario(sc: &Scenario, shards: Shards) -> DriverOutput {
    scenario_driver(sc).run_sharded(limit(), shards)
}

/// Report from a run, resilience folded in when the run produced one
/// — the same wiring the CLI uses.
fn report_of(out: &DriverOutput) -> FeasibilityReport {
    let report = feasibility_report(&out.log);
    match &out.resilience {
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
}

/// Everything in a report except the wall-clock manifest stamp,
/// canonicalized through Debug (SessionTable has no PartialEq).
fn canon(r: &FeasibilityReport) -> String {
    format!(
        "n={} table={:?} gaps={:?} suit={:?} degenerate={} resilience={:?}",
        r.n_transfers,
        r.session_table_g1,
        r.gap_rows,
        r.suitability,
        r.degenerate_records,
        r.resilience,
    )
}

#[test]
fn feasibility_report_invariant_under_shard_count() {
    let sc = Scenario {
        seed: 71,
        sessions_per_pair: 6,
        vc_on_first_pair: true,
        faults: FaultPlan { fail_first_provisions: 1, ..FaultPlan::default() },
    };
    let one = run_scenario(&sc, Shards::Fixed(1));
    let three = run_scenario(&sc, Shards::Fixed(3));
    let auto = run_scenario(&sc, Shards::Auto);
    let base = canon(&report_of(&one));
    assert!(one.log.len() >= 18, "workload produced {} transfers", one.log.len());
    assert_eq!(base, canon(&report_of(&three)), "reports diverge at 3 shards");
    assert_eq!(base, canon(&report_of(&auto)), "reports diverge at auto shards");
    let r = report_of(&one);
    assert_eq!(r.n_transfers, one.log.len());
    assert!(r.session_table_g1.is_some(), "non-empty dataset summarizes");
    assert!(!r.gap_rows.is_empty() && !r.suitability.is_empty(), "paper grids populated");
    let res = r.resilience.expect("faulted VC run carries a resilience summary");
    assert_eq!(res.vc_requested, 1);
    assert!(res.faults_injected >= 1);
}

/// `Driver::run` is the one-worker sharded run, on a workload that
/// genuinely splits into lanes as much as on a single-lane one.
#[test]
fn run_is_the_one_shard_sharded_run() {
    let sc = Scenario {
        seed: 71,
        sessions_per_pair: 6,
        vc_on_first_pair: true,
        faults: FaultPlan { fail_first_provisions: 1, ..FaultPlan::default() },
    };
    let driver = scenario_driver(&sc);
    assert!(driver.lane_count() > 1, "the disjoint pairs must split into lanes");
    let run = driver.run(limit());
    let sharded = run_scenario(&sc, Shards::Fixed(1));
    assert_eq!(run.log, sharded.log);
    assert_eq!(run.tstat.transfers, sharded.tstat.transfers);
    assert_eq!(run.resilience, sharded.resilience);
    assert_eq!(run.idc_stats, sharded.idc_stats);
    assert_eq!(run.open_reservations, sharded.open_reservations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form over workload shape and fault plan: shard counts
    /// 1, 2, and N yield the same analysis report.
    #[test]
    fn prop_report_invariant_under_shard_count(
        seed in 0u64..1_000,
        sessions_per_pair in 1usize..4,
        vc in proptest::bool::ANY,
        fail_first in 0u32..3,
        restart_p in 0.0f64..0.3,
    ) {
        let sc = Scenario {
            seed,
            sessions_per_pair,
            vc_on_first_pair: vc,
            faults: FaultPlan {
                fail_first_provisions: fail_first,
                server_restart_p: restart_p,
                ..FaultPlan::default()
            },
        };
        let one = canon(&report_of(&run_scenario(&sc, Shards::Fixed(1))));
        let two = canon(&report_of(&run_scenario(&sc, Shards::Fixed(2))));
        let many = canon(&report_of(&run_scenario(&sc, Shards::Fixed(11))));
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &many);
    }
}
