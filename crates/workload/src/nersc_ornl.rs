//! The NERSC–ORNL scenario: 145 × 32 GB test transfers (Sep 2010).
//!
//! §VI-B/§VII-C facts reproduced in shape:
//!
//! * administration-run test transfers of [32, 33) GB, 1 stripe,
//!   8 streams, started at 2 AM or 8 AM daily, both STOR and RETR;
//! * substantial throughput variance (IQR ~700 Mbps against a median
//!   near 1.5 Gbps) despite a fixed path;
//! * SNMP 30-second byte counts on 5 of the 7 routers, in both
//!   directions;
//! * backbone links lightly loaded: background traffic well under
//!   half capacity, GridFTP dominating the counters during transfers.
//!
//! Background arrivals stop a day after the last test starts, or at
//! the end of the simulated month if that is earlier. Every ORNL
//! analysis reads the SNMP series only in the bins that overlap a
//! logged test, and the drive is causal, so later background would
//! move no byte that is read; it would only cost time. At the quick
//! repro's 60 tests the background ends on day 16.3 with 235 729 of
//! the month's 432 407 arrivals. At the paper's 145 the tests run past
//! the month, so the whole month is driven.

use crate::EPOCH_SEP_2010_US;
use gvc_engine::{SimSpan, SimTime};
use gvc_gridftp::driver::Driver;
use gvc_gridftp::{ServerCaps, TransferJob};
use gvc_logs::{Dataset, EndpointKind, SnmpSeries, TransferType};
use gvc_net::background::{generate_background, BackgroundConfig};
use gvc_net::NetworkSim;
use gvc_stats::rng::component_rng;
use gvc_topology::{study_topology, LinkId, Site};
use rand::Rng;

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct NerscOrnlConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of 32 GB test transfers (paper: 145).
    pub n_transfers: usize,
    /// Background-traffic intensity multiplier (1.0 = lightly loaded
    /// links as in the study).
    pub background: f64,
}

impl Default for NerscOrnlConfig {
    fn default() -> NerscOrnlConfig {
        NerscOrnlConfig { seed: 2010, n_transfers: 145, background: 1.0 }
    }
}

/// Scenario output: the log plus the SNMP series of the five
/// monitored egress interfaces in each direction.
pub struct NerscOrnlOutput {
    /// The 32 GB transfer log.
    pub log: Dataset,
    /// Monitored interfaces, NERSC→ORNL direction (rt1…rt5).
    pub snmp_fwd: Vec<SnmpSeries>,
    /// Monitored interfaces, ORNL→NERSC direction.
    pub snmp_rev: Vec<SnmpSeries>,
    /// Campus-internal links at NERSC, outbound (dtn→sw, sw→pe) —
    /// §VIII's future-work measurement.
    pub campus_nersc_out: Vec<SnmpSeries>,
    /// Campus-internal links at ORNL, inbound (pe→sw, sw→dtn).
    pub campus_ornl_in: Vec<SnmpSeries>,
}

/// Generates the scenario.
pub fn generate(cfg: NerscOrnlConfig) -> NerscOrnlOutput {
    let topo = study_topology();
    let fwd_links: Vec<LinkId> = topo.nersc_ornl_snmp_links(Site::Nersc, Site::Ornl);
    let rev_links: Vec<LinkId> = topo.nersc_ornl_snmp_links(Site::Ornl, Site::Nersc);

    let campus_nersc = topo.campus_links_outbound(Site::Nersc);
    let campus_ornl = topo.campus_links_inbound(Site::Ornl);
    let mut sim = NetworkSim::new(topo.graph.clone(), EPOCH_SEP_2010_US);
    for &l in fwd_links.iter().chain(&rev_links).chain(&campus_nersc).chain(&campus_ornl) {
        sim.monitor_link(l);
    }
    let mut driver = Driver::new(sim, cfg.seed);

    let caps = ServerCaps {
        node_cap_bps: 2.4e9,
        disk_read_bps: 2.8e9,
        disk_write_bps: 2.2e9,
        nic_bps: 10e9,
        ..ServerCaps::default()
    };
    let nersc = driver.register_cluster("dtn01.nersc.gov", topo.dtn(Site::Nersc), caps, 2);
    let ornl = driver.register_cluster("dtn.ccs.ornl.gov", topo.dtn(Site::Ornl), caps, 2);

    let tests = test_schedule(&cfg);
    let horizon = SimTime::from_secs(HORIZON_S);
    // Light background load on the whole backbone, scheduled before
    // the tests so that FIFO ties keep their order.
    if cfg.background > 0.0 {
        // Calibrated to the study's regime: backbone links carry
        // little besides the science flows (Table XII's near-zero
        // other-flow correlations need the noise to be genuinely
        // small relative to a 32 GB transfer).
        let bg_cfg = BackgroundConfig {
            mean_interarrival_s: 6.0 / cfg.background,
            median_size_bytes: 3e6,
            mean_size_bytes: 30e6,
            rate_cap_bps: 250e6,
            ..BackgroundConfig::default()
        };
        let end = background_end(&tests);
        driver.schedule_background(generate_background(&topo.graph, &bg_cfg, end, cfg.seed));
    }
    for t in tests {
        // STOR at NERSC = data flows ORNL -> NERSC.
        let (src, dst) =
            if t.job.logged_as == TransferType::Store { (ornl, nersc) } else { (nersc, ornl) };
        driver.schedule_transfer(t.start, src, dst, t.job);
    }

    let out = driver.run(horizon);
    let snmp = out.sim.snmp();
    let collect = |links: &[LinkId]| -> Vec<SnmpSeries> {
        links.iter().filter_map(|l| snmp.series(*l).cloned()).collect()
    };
    NerscOrnlOutput {
        snmp_fwd: collect(&fwd_links),
        snmp_rev: collect(&rev_links),
        campus_nersc_out: collect(&campus_nersc),
        campus_ornl_in: collect(&campus_ornl),
        log: out.log,
    }
}

/// The simulated month, seconds: the drive stops here.
const HORIZON_S: u64 = 30 * 86_400;

/// How long background traffic runs past the last test start,
/// seconds: far longer than a 32 GB test takes.
const BACKGROUND_TAIL_S: i64 = 86_400;

/// One scheduled 32 GB test transfer.
struct TestTransfer {
    start: SimTime,
    job: TransferJob,
}

/// Test transfers: daily 2 AM and 8 AM slots, STOR and RETR drawn at
/// random, until `n_transfers` are placed. Drawn from the tests' own
/// RNG stream, so the schedule does not depend on the background.
fn test_schedule(cfg: &NerscOrnlConfig) -> Vec<TestTransfer> {
    let mut rng = component_rng(cfg.seed, "ornl-tests");
    let mut out = Vec::with_capacity(cfg.n_transfers);
    let mut day = 0u64;
    while out.len() < cfg.n_transfers {
        for &hour in &[2.0f64, 8.0] {
            if out.len() >= cfg.n_transfers {
                break;
            }
            // 1-3 test transfers per slot, seconds apart.
            let per_slot = 1 + (rng.gen::<f64>() * 3.0) as usize;
            for k in 0..per_slot {
                if out.len() >= cfg.n_transfers {
                    break;
                }
                let start_s = day as f64 * 86_400.0 + hour * 3600.0 + k as f64 * 600.0;
                let store = rng.gen::<bool>();
                let job = TransferJob {
                    // "32 GB" test payloads vary a few percent run to
                    // run (tool framing, restart markers); byte-exact
                    // constant sizes would make every Pearson
                    // correlation over them degenerate (see
                    // EXPERIMENTS.md).
                    size_bytes: (30.0e9 + rng.gen::<f64>() * 4.0e9) as u64,
                    streams: 8,
                    stripes: 1,
                    tcp_buffer_bytes: 4 << 20,
                    block_size_bytes: 1 << 20,
                    src_kind: EndpointKind::Disk,
                    dst_kind: EndpointKind::Disk,
                    logged_as: if store { TransferType::Store } else { TransferType::Retr },
                };
                out.push(TestTransfer { start: SimTime::from_secs_f64(start_s), job });
            }
        }
        day += 1;
    }
    out
}

/// Where background arrivals stop: a day after the last test start,
/// or the end of the simulated month if that is earlier.
fn background_end(tests: &[TestTransfer]) -> SimTime {
    let last_start = tests.iter().map(|t| t.start).max().unwrap_or(SimTime::ZERO);
    (last_start + SimSpan::from_secs(BACKGROUND_TAIL_S)).min(SimTime::from_secs(HORIZON_S))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_core::snmp_attr::link_load_bps;
    use gvc_core::snmp_corr::{router_correlation_directional, CorrelationKind};

    fn small() -> NerscOrnlOutput {
        generate(NerscOrnlConfig { seed: 4, n_transfers: 30, background: 1.0 })
    }

    #[test]
    fn transfer_population() {
        let out = small();
        assert_eq!(out.log.len(), 30);
        for r in out.log.records() {
            assert!((30_000_000_000..34_000_000_000).contains(&r.size_bytes));
            assert_eq!(r.num_streams, 8);
            assert_eq!(r.num_stripes, 1);
        }
        // Both directions present.
        assert!(!out.log.filter_type(TransferType::Store).is_empty());
        assert!(!out.log.filter_type(TransferType::Retr).is_empty());
    }

    #[test]
    fn starts_cluster_at_2am_and_8am() {
        let out = small();
        for r in out.log.records() {
            let h = r.start_civil().hour;
            assert!(h == 2 || h == 8, "start hour {h}");
        }
    }

    #[test]
    fn five_interfaces_each_direction_with_bytes() {
        let out = small();
        assert_eq!(out.snmp_fwd.len(), 5);
        assert_eq!(out.snmp_rev.len(), 5);
        // RETR transfers load the forward direction.
        assert!(out.snmp_fwd.iter().all(|s| s.total_bytes() > 0));
    }

    #[test]
    fn gridftp_dominates_the_counters() {
        let out = small();
        let retr = out.log.filter_type(TransferType::Retr);
        let fwd = &out.snmp_fwd[2];
        let c =
            router_correlation_directional(&retr, fwd, fwd, |_| true, CorrelationKind::TotalBytes);
        assert!(c.overall.unwrap() > 0.5, "{:?}", c.overall);
    }

    #[test]
    fn links_lightly_loaded() {
        let out = small();
        // Average load during each RETR transfer stays under 6 Gbps on
        // the 10 G links (paper: max just over half capacity).
        for r in out.log.filter_type(TransferType::Retr).records() {
            let load = link_load_bps(&out.snmp_fwd[0], r.start_unix_us, r.end_unix_us());
            assert!(load < 6e9, "load {load}");
        }
    }

    #[test]
    fn campus_links_carry_the_science_bytes_without_background() {
        let out = small();
        // The NERSC outbound campus links carry every RETR byte plus
        // nothing else (background traffic runs router-to-router).
        let retr_bytes: u64 =
            out.log.filter_type(TransferType::Retr).records().iter().map(|r| r.size_bytes).sum();
        for s in &out.campus_nersc_out {
            let counted = s.total_bytes() as f64;
            assert!(
                (counted - retr_bytes as f64).abs() / (retr_bytes as f64) < 0.01,
                "{}: counted {} vs {}",
                s.interface,
                counted,
                retr_bytes
            );
        }
    }

    /// The experiments read each series only in the 30 s bins that
    /// overlap a logged test. Every such bin closes by the background's
    /// end, so stopping the background there moves no byte they read.
    #[test]
    fn every_read_bin_closes_before_the_background_ends() {
        // The quick repro's 60, the corpus spec's 29 (scale 0.2) and
        // the paper's 145, all at the repro seed.
        for n_transfers in [60, 29, 145] {
            let cfg = NerscOrnlConfig { seed: 2010, n_transfers, background: 1.0 };
            let end = background_end(&test_schedule(&cfg));
            let end_us = EPOCH_SEP_2010_US + end.micros() as i64;
            let out = generate(cfg);
            assert!(!out.log.is_empty());
            let series = &out.snmp_fwd[0];
            let width = series.bin_width_us;
            for r in out.log.records() {
                let last_bin = (r.end_unix_us() - series.origin_us) / width;
                let closes_us = series.origin_us + (last_bin + 1) * width;
                assert!(
                    closes_us <= end_us,
                    "{n_transfers} tests: bin closing at {closes_us} read past {end_us}"
                );
            }
        }
    }

    #[test]
    fn throughput_varies_despite_fixed_path() {
        let out = generate(NerscOrnlConfig { seed: 9, n_transfers: 60, background: 1.0 });
        let s = gvc_stats::Summary::of(&out.log.throughputs_mbps()).unwrap();
        assert!(s.iqr() > 100.0, "IQR {} too small", s.iqr());
        assert!(s.max < 10_000.0);
    }
}
