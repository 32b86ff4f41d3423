//! End-to-end integration: topology → fluid simulation → GridFTP
//! driver → usage log → serialization → session analysis → VC
//! feasibility, all through the public facade.

use gridftp_vc::core::sessions::group_sessions;
use gridftp_vc::gridftp::session::VcRequestSpec;
use gridftp_vc::logs::{parse_dataset, write_dataset};
use gridftp_vc::prelude::*;

/// One sequential session of `n` files between NERSC and ORNL.
fn run_session(n: usize, vc: Option<VcRequestSpec>) -> gridftp_vc::gridftp::driver::DriverOutput {
    let topo = study_topology();
    let sim = NetworkSim::new(topo.graph.clone(), 1_283_299_200_000_000);
    let mut driver = Driver::new(sim, 99);
    if vc.is_some() {
        driver = driver.with_idc(Idc::new(topo.graph.clone(), SetupDelayModel::one_minute()));
    }
    let a = driver.register_cluster("a.example", topo.dtn(Site::Nersc), ServerCaps::default(), 2);
    let b = driver.register_cluster("b.example", topo.dtn(Site::Ornl), ServerCaps::default(), 2);
    let jobs = vec![TransferJob { size_bytes: 2 << 30, ..TransferJob::default() }; n];
    let mut spec = SessionSpec::sequential(jobs, 3.0);
    if let Some(v) = vc {
        spec = spec.with_vc(v);
    }
    driver.schedule_session(SimTime::from_secs(10), a, b, spec);
    driver.run(SimTime::from_secs(1_000_000))
}

#[test]
fn pipeline_produces_one_session_with_expected_structure() {
    let out = run_session(6, None);
    assert_eq!(out.log.len(), 6);

    // Every record is complete and physically sane.
    for r in out.log.records() {
        assert_eq!(r.size_bytes, 2 << 30);
        assert!(r.duration_us > 0);
        let tp = r.throughput_mbps();
        assert!(tp > 10.0 && tp < 10_000.0, "throughput {tp}");
        assert!(r.remote.is_some());
    }

    // The 3-second inter-transfer gap keeps them in one session at
    // g = 1 min and six sessions at g = 0.
    let g1 = group_sessions(&out.log, 60.0);
    assert_eq!(g1.sessions.len(), 1);
    assert_eq!(g1.sessions[0].len(), 6);
    let g0 = group_sessions(&out.log, 0.0);
    assert_eq!(g0.sessions.len(), 6);
}

#[test]
fn log_round_trips_through_text_serialization() {
    let out = run_session(4, None);
    let mut buf = Vec::new();
    write_dataset(&mut buf, &out.log).expect("serialize");
    let parsed = parse_dataset(&buf[..]).expect("parse back");
    assert_eq!(parsed, out.log);

    // Analyses agree on both copies.
    let a = gridftp_vc::core::feasibility_report(&out.log);
    let b = gridftp_vc::core::feasibility_report(&parsed);
    assert_eq!(a.n_transfers, b.n_transfers);
    assert_eq!(a.headline(), b.headline());
}

#[test]
fn vc_session_defers_start_and_is_admitted() {
    let vc = VcRequestSpec { rate_bps: 3e9, max_duration_s: 3600.0 };
    let out = run_session(3, Some(vc));
    assert_eq!(out.log.len(), 3);
    let stats = out.idc_stats.expect("idc attached");
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.blocked, 0);
    // Session scheduled at t=10 s; 1-minute setup pushes the first
    // start past t=70 s (epoch offset is in unix µs).
    let first = out.log.records()[0].start_unix_us - 1_283_299_200_000_000;
    assert!(first >= 70_000_000, "first start {first}");
}

#[test]
fn anonymized_copy_cannot_be_sessionized() {
    let out = run_session(5, None);
    let anon = gridftp_vc::logs::anonymize::anonymize_dataset(
        &out.log,
        gridftp_vc::logs::anonymize::AnonymizePolicy::Drop,
    );
    let grouping = group_sessions(&anon, 60.0);
    assert_eq!(grouping.sessions.len(), 0);
    assert_eq!(grouping.ungroupable, 5);
    // The pseudonym policy keeps the structure.
    let pseud = gridftp_vc::logs::anonymize::anonymize_dataset(
        &out.log,
        gridftp_vc::logs::anonymize::AnonymizePolicy::Pseudonym,
    );
    assert_eq!(group_sessions(&pseud, 60.0).sessions.len(), 1);
}

#[test]
fn snmp_counters_match_transferred_bytes() {
    let topo = study_topology();
    let path = topo.path(Site::Nersc, Site::Ornl);
    let watch = path.links[3];
    let mut sim = NetworkSim::new(topo.graph.clone(), 0);
    sim.monitor_link(watch);
    let mut driver = Driver::new(sim, 5);
    let a = driver.register_cluster("a", topo.dtn(Site::Nersc), ServerCaps::default(), 1);
    let b = driver.register_cluster("b", topo.dtn(Site::Ornl), ServerCaps::default(), 1);
    let total: u64 = 3 * (1u64 << 30);
    driver.schedule_session(
        SimTime::ZERO,
        a,
        b,
        SessionSpec::sequential(
            vec![TransferJob { size_bytes: 1 << 30, ..TransferJob::default() }; 3],
            1.0,
        ),
    );
    let out = driver.run(SimTime::from_secs(100_000));
    let series = out.sim.snmp().series(watch).expect("monitored");
    let counted = series.total_bytes() as f64;
    assert!(
        (counted - total as f64).abs() / (total as f64) < 0.001,
        "SNMP counted {counted}, transferred {total}"
    );
}
