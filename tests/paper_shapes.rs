//! The paper's five findings, asserted qualitatively on synthetic
//! datasets small enough for CI. These are the "shape" checks of the
//! reproduction: who wins, which orderings hold, where correlations
//! land.

use gridftp_vc::core::snmp_corr::{router_correlation_directional, CorrelationKind};
use gridftp_vc::core::stream_analysis::{stream_analysis_full, StreamAnalysis};
use gridftp_vc::core::tables::{endpoint_type_table, EndpointCategory};
use gridftp_vc::logs::TransferType;
use gridftp_vc::workload::nersc_anl::{self, NerscAnlConfig};
use gridftp_vc::workload::nersc_ornl::{self, NerscOrnlConfig};
use gridftp_vc::workload::{ablations, ncar_nics, slac_bnl};

/// Finding (i): sessions are long enough to amortize VC setup — most
/// *transfers* live inside suitable sessions even when many sessions
/// are small.
#[test]
fn finding_i_transfers_mostly_vc_suitable() {
    let ds = ncar_nics::generate(ncar_nics::NcarNicsConfig { seed: 1, scale: 0.12 });
    let report = gridftp_vc::core::feasibility_report(&ds);
    let (pct_sessions, pct_transfers) = report.headline().expect("non-empty");
    assert!(
        pct_transfers > 70.0,
        "expected most transfers in suitable sessions, got {pct_transfers:.1}%"
    );
    assert!(pct_sessions > 10.0, "got {pct_sessions:.1}%");
    // The 50 ms hardware setup admits (weakly) more than 1 min.
    let slow = report.cell(60.0, 60.0).unwrap().pct_sessions();
    let fast = report.cell(60.0, 0.05).unwrap().pct_sessions();
    assert!(fast >= slow);
}

/// Finding (ii): transfers reach a significant fraction of the
/// 10 Gbps links (observed multi-Gbps peaks).
#[test]
fn finding_ii_alpha_flows_reach_multi_gbps() {
    let ds = slac_bnl::generate(slac_bnl::SlacBnlConfig { seed: 2, scale: 0.004 });
    let pts = gridftp_vc::core::scatter::throughput_vs_size(&ds);
    let peak = gridftp_vc::core::scatter::peak(&pts).expect("non-empty");
    assert!(peak.throughput_mbps > 1_500.0, "peak only {:.0} Mbps", peak.throughput_mbps);
}

/// Finding (iii): 8 streams beat 1 stream for small files; for large
/// files they tie (rare loss).
#[test]
fn finding_iii_streams_matter_only_for_small_files() {
    let ds = slac_bnl::generate(slac_bnl::SlacBnlConfig { seed: 3, scale: 0.01 });
    let a = stream_analysis_full(&ds);
    let small_1 = StreamAnalysis::regime_median(&a.one_stream, 0.0, 100e6).expect("data");
    let small_8 = StreamAnalysis::regime_median(&a.eight_streams, 0.0, 100e6).expect("data");
    assert!(small_8 > 1.3 * small_1, "small files: 8-stream {small_8:.0} vs 1-stream {small_1:.0}");
    let large_1 = StreamAnalysis::regime_median(&a.one_stream, 1e9, 4.3e9);
    let large_8 = StreamAnalysis::regime_median(&a.eight_streams, 1e9, 4.3e9);
    if let (Some(l1), Some(l8)) = (large_1, large_8) {
        let ratio = l8 / l1;
        assert!(
            (0.6..=1.7).contains(&ratio),
            "large files should tie, got ratio {ratio:.2} ({l8:.0} vs {l1:.0})"
        );
    }
}

/// Finding (iv): GridFTP bytes track total SNMP bytes (science flows
/// dominate), and do not track other-flow bytes.
#[test]
fn finding_iv_science_flows_dominate_backbone_counters() {
    let out = nersc_ornl::generate(NerscOrnlConfig { seed: 4, n_transfers: 40, background: 1.0 });
    for i in 0..out.snmp_fwd.len() {
        let total = router_correlation_directional(
            &out.log,
            &out.snmp_fwd[i],
            &out.snmp_rev[i],
            |r| r.transfer_type == TransferType::Retr,
            CorrelationKind::TotalBytes,
        )
        .overall
        .expect("defined");
        let other = router_correlation_directional(
            &out.log,
            &out.snmp_fwd[i],
            &out.snmp_rev[i],
            |r| r.transfer_type == TransferType::Retr,
            CorrelationKind::OtherFlows,
        )
        .overall
        .expect("defined");
        assert!(total > 0.6, "rt{}: total corr {total:.2}", i + 1);
        assert!(other.abs() < 0.5, "rt{}: other corr {other:.2}", i + 1);
        assert!(total > other.abs());
    }
}

/// Finding (v): server-side competition — disk writes bottleneck
/// (Fig. 1 ordering) and concurrency at the server predicts throughput
/// (Fig. 8's positive correlation).
#[test]
fn finding_v_server_resources_drive_variance() {
    let ds = nersc_anl::generate(NerscAnlConfig {
        seed: 4,
        scale: 0.5,
        production_sessions_per_day: 160.0,
        horizon_days: 8.0,
    });
    let tests = nersc_anl::test_transfers(&ds);
    let rows = endpoint_type_table(&tests);
    assert_eq!(rows.len(), 4);
    let median = |c: EndpointCategory| {
        rows.iter().find(|r| r.category == c).expect("category present").throughput_mbps.median
    };
    assert!(median(EndpointCategory::MemDisk) < median(EndpointCategory::MemMem));
    assert!(median(EndpointCategory::DiskDisk) < median(EndpointCategory::DiskMem));

    let targets = nersc_anl::mem_mem_tests(&ds);
    let server_log = ds.filter(|r| &*r.server == "dtn01.nersc.gov");
    let analysis = gridftp_vc::core::concurrency::prediction_analysis(&server_log, &targets, None);
    let rho = analysis.rho.expect("defined");
    assert!(rho > 0.2, "Eq. 2 prediction rho {rho:.2}");
}

/// §I positive #1, quantified by the ablation: rate-guaranteed VCs cut
/// the throughput IQR under congestion.
#[test]
fn ablation_vc_cuts_variance() {
    let r = ablations::vc_variance_experiment(11, 18, 8e9);
    assert!(r.iqr_reduction() > 0.2, "IQR reduction {:.2}", r.iqr_reduction());
}
