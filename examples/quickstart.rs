//! Quickstart: move files between two GridFTP clusters over the study
//! topology, with and without a dynamic virtual circuit, and print
//! what the usage log records.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gridftp_vc::gridftp::session::VcRequestSpec;
use gridftp_vc::prelude::*;

fn main() {
    // 1. The wide-area plant: ESnet-like backbone with the seven
    //    study sites attached at 10 Gbps.
    let topo = study_topology();
    let path = topo.path(Site::Slac, Site::Bnl);
    println!("SLAC->BNL path: {}", path.describe(&topo.graph));
    println!(
        "  {} hops, RTT {:.1} ms, bottleneck {:.0} Gbps",
        path.hops(),
        path.rtt_s(&topo.graph) * 1e3,
        path.bottleneck_bps(&topo.graph) / 1e9
    );

    // 2. A fluid network simulation plus the OSCARS circuit scheduler
    //    (deployed ESnet model: 1-minute batched setup).
    let sim = NetworkSim::new(topo.graph.clone(), 0);
    let idc = Idc::new(topo.graph.clone(), SetupDelayModel::esnet_deployed());
    let mut driver = Driver::new(sim, 7).with_idc(idc);

    let slac = driver.register_cluster(
        "dtn.slac.stanford.edu",
        topo.dtn(Site::Slac),
        ServerCaps::default(),
        2,
    );
    let bnl = driver.register_cluster("dtn.bnl.gov", topo.dtn(Site::Bnl), ServerCaps::default(), 2);

    // 3. A best-effort session: four 8 GB files, back to back.
    let jobs = vec![TransferJob { size_bytes: 8 << 30, ..TransferJob::default() }; 4];
    driver.schedule_session(SimTime::ZERO, slac, bnl, SessionSpec::sequential(jobs.clone(), 2.0));

    // 4. The same session an hour later, protected by a 4 Gbps
    //    dynamic circuit for its whole lifetime.
    driver.schedule_session(
        SimTime::from_secs(3600),
        slac,
        bnl,
        SessionSpec::sequential(jobs, 2.0)
            .with_vc(VcRequestSpec { rate_bps: 4e9, max_duration_s: 1800.0 }),
    );

    // 5. Run and inspect the usage log (the record set of paper §II).
    let out = driver.run(SimTime::from_secs(86_400));
    println!("\nusage log ({} transfers):", out.log.len());
    for r in out.log.records() {
        println!(
            "  {} {:>6.1} MB in {:>6.1} s -> {:>8.1} Mbps ({} streams, start {})",
            r.transfer_type.token(),
            r.size_bytes as f64 / 1e6,
            r.duration_s(),
            r.throughput_mbps(),
            r.num_streams,
            r.start_civil().iso8601(),
        );
    }
    if let Some(stats) = out.idc_stats {
        println!(
            "\ncircuit scheduler: {} requests, {} admitted, blocking probability {:.2}",
            stats.requests,
            stats.admitted,
            stats.blocking_probability()
        );
    }

    // 6. Paper-style analysis: group into sessions, check VC
    //    suitability under the deployed 1-minute setup delay.
    let report = gridftp_vc::core::feasibility_report(&out.log);
    let (pct_sessions, pct_transfers) = report.headline().expect("transfers ran");
    println!(
        "VC-suitable at g = 1 min, setup 1 min: {pct_sessions:.0}% of sessions ({pct_transfers:.0}% of transfers)"
    );
}
