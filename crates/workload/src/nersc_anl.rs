//! The NERSC–ANL scenario: 334 typed test transfers (Mar–Apr 2012).
//!
//! §VI-B/§VII-D facts reproduced in shape:
//!
//! * four endpoint categories with the paper's counts — 84 mem-mem,
//!   78 mem-disk, 87 disk-mem, 85 disk-disk;
//! * ANL→NERSC direction, so NERSC disk *writes* bottleneck mem-disk
//!   and disk-disk below the other two (Fig. 1 / Table VI);
//! * coefficient of variation ~30-36 % in every category, highest for
//!   mem-mem;
//! * the NERSC server concurrently serves production transfers, so
//!   test-transfer throughput degrades with server concurrency
//!   (Figs. 7–8, Eq. 2, ρ ≈ 0.6).

use crate::EPOCH_MAR_2012_US;
use gvc_engine::SimTime;
use gvc_gridftp::driver::Driver;
use gvc_gridftp::{ServerCaps, SessionSpec, TransferJob};
use gvc_logs::{Dataset, EndpointKind, TransferType};
use gvc_net::NetworkSim;
use gvc_stats::dist::{Distribution, LogNormal};
use gvc_stats::rng::component_rng;
use gvc_topology::{study_topology, Site};
use rand::Rng;

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct NerscAnlConfig {
    /// RNG seed.
    pub seed: u64,
    /// Scale on the paper's category counts (1.0 = 84/78/87/85).
    pub scale: f64,
    /// Intensity of concurrent production transfers at the NERSC
    /// server (sessions per day; 0 disables).
    pub production_sessions_per_day: f64,
    /// Measurement-window length in days (the paper's window is ~50).
    pub horizon_days: f64,
}

impl Default for NerscAnlConfig {
    fn default() -> NerscAnlConfig {
        NerscAnlConfig {
            seed: 2012,
            scale: 1.0,
            production_sessions_per_day: 60.0,
            horizon_days: 50.0,
        }
    }
}

/// The paper's category counts at scale 1.0.
pub const PAPER_COUNTS: [(EndpointKind, EndpointKind, usize); 4] = [
    (EndpointKind::Memory, EndpointKind::Memory, 84),
    (EndpointKind::Memory, EndpointKind::Disk, 78),
    (EndpointKind::Disk, EndpointKind::Memory, 87),
    (EndpointKind::Disk, EndpointKind::Disk, 85),
];

/// Generates the scenario log. Test transfers are ANL→NERSC and are
/// logged by the NERSC server as STOR; production transfers from the
/// same NERSC server provide the concurrency signal.
pub fn generate(cfg: NerscAnlConfig) -> Dataset {
    let topo = study_topology();
    let sim = NetworkSim::new(topo.graph.clone(), EPOCH_MAR_2012_US);
    let mut driver = Driver::new(sim, cfg.seed);

    let nersc_caps = ServerCaps {
        node_cap_bps: 2.4e9,
        disk_read_bps: 2.6e9,
        // The Fig. 1 bottleneck: NERSC disk writes.
        disk_write_bps: 1.5e9,
        nic_bps: 10e9,
        ..ServerCaps::default()
    };
    let anl_caps = ServerCaps {
        node_cap_bps: 2.6e9,
        disk_read_bps: 2.8e9,
        disk_write_bps: 2.4e9,
        nic_bps: 10e9,
        ..ServerCaps::default()
    };
    let nersc = driver.register_cluster("dtn01.nersc.gov", topo.dtn(Site::Nersc), nersc_caps, 1);
    let anl = driver.register_cluster("gridftp.anl.gov", topo.dtn(Site::Anl), anl_caps, 2);
    // A third site for production traffic terminating at NERSC.
    let ornl = driver.register_cluster("dtn.ccs.ornl.gov", topo.dtn(Site::Ornl), anl_caps, 2);

    let horizon_days = cfg.horizon_days;
    let horizon = SimTime::from_secs_f64(horizon_days * 86_400.0 + 200_000.0);

    // Production workload at the NERSC server: sessions to/from ORNL
    // spread across the window, creating time-varying concurrency.
    let mut rng = component_rng(cfg.seed, "anl-production");
    let n_prod = (cfg.production_sessions_per_day * horizon_days) as usize;
    for _ in 0..n_prod {
        let start_s = rng.gen::<f64>() * (horizon_days * 86_400.0 - 50_000.0);
        let n = 2 + (rng.gen::<f64>() * 8.0) as usize;
        #[expect(clippy::expect_used, reason = "literal calibration has mean greater than median")]
        let jobs: Vec<TransferJob> = (0..n)
            .map(|_| TransferJob {
                size_bytes: (LogNormal::from_median_mean(6e9, 20e9)
                    .expect("valid calibration")
                    .sample(&mut rng) as u64)
                    .clamp(100e6 as u64, 60e9 as u64),
                streams: 8,
                stripes: 1,
                src_kind: EndpointKind::Disk,
                dst_kind: EndpointKind::Disk,
                logged_as: TransferType::Retr,
                tcp_buffer_bytes: 4 << 20,
                block_size_bytes: 256 << 10,
            })
            .collect();
        let conc = 1 + (rng.gen::<f64>() * 3.0) as u32;
        driver.schedule_session(
            SimTime::from_secs_f64(start_s),
            nersc,
            ornl,
            SessionSpec::sequential(jobs, rng.gen::<f64>() * 10.0).with_concurrency(conc),
        );
    }

    // The typed test transfers, spread uniformly over the window.
    let mut trng = component_rng(cfg.seed, "anl-tests");
    for &(src_kind, dst_kind, count) in &PAPER_COUNTS {
        let n = ((count as f64 * cfg.scale).round() as usize).max(1);
        for _ in 0..n {
            let start_s = trng.gen::<f64>() * (horizon_days * 86_400.0 - 50_000.0);
            let job = TransferJob {
                // Fixed-size test payload (memory-backed tests used a
                // fixed byte count).
                size_bytes: 20_000_000_000,
                streams: 8,
                stripes: 1,
                src_kind,
                dst_kind,
                logged_as: TransferType::Store, // logged at NERSC
                tcp_buffer_bytes: 4 << 20,
                block_size_bytes: 256 << 10,
            };
            driver.schedule_transfer(SimTime::from_secs_f64(start_s), anl, nersc, job);
        }
    }

    driver.run(horizon).log
}

/// The typed test transfers only (STOR records of the fixed size).
pub fn test_transfers(log: &Dataset) -> Dataset {
    log.filter(|r| r.transfer_type == TransferType::Store && r.size_bytes == 20_000_000_000)
}

/// The mem-mem test subset (Fig. 8's targets).
pub fn mem_mem_tests(log: &Dataset) -> Dataset {
    test_transfers(log).filter(|r| {
        r.src_kind == Some(EndpointKind::Memory) && r.dst_kind == Some(EndpointKind::Memory)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_core::tables::{endpoint_type_table, EndpointCategory};

    fn small() -> Dataset {
        generate(NerscAnlConfig {
            seed: 6,
            scale: 0.25,
            production_sessions_per_day: 40.0,
            horizon_days: 12.0,
        })
    }

    #[test]
    fn category_counts_scale() {
        let ds = small();
        let tests = test_transfers(&ds);
        assert_eq!(tests.len(), 21 + 20 + 22 + 21);
        assert_eq!(mem_mem_tests(&ds).len(), 21);
    }

    #[test]
    fn disk_writes_bottleneck_fig1_ordering() {
        let ds = generate(NerscAnlConfig {
            seed: 12,
            scale: 0.6,
            production_sessions_per_day: 10.0,
            horizon_days: 20.0,
        });
        let rows = endpoint_type_table(&test_transfers(&ds));
        let median = |c| {
            rows.iter()
                .find(|r: &&gvc_core::tables::EndpointTypeRow| r.category == c)
                .unwrap()
                .throughput_mbps
                .median
        };
        // mem-disk and disk-disk (writes to NERSC disk) sit below
        // mem-mem and disk-mem.
        assert!(median(EndpointCategory::MemDisk) < median(EndpointCategory::MemMem));
        assert!(median(EndpointCategory::DiskDisk) < median(EndpointCategory::DiskMem));
    }

    #[test]
    fn cv_is_substantial_in_every_category() {
        let ds = generate(NerscAnlConfig {
            seed: 13,
            scale: 0.6,
            production_sessions_per_day: 20.0,
            horizon_days: 20.0,
        });
        let rows = endpoint_type_table(&test_transfers(&ds));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.cv > 0.10, "{:?} CV {}", r.category, r.cv);
            assert!(r.cv < 0.80, "{:?} CV {}", r.category, r.cv);
        }
    }

    #[test]
    fn concurrency_prediction_correlates() {
        let ds = generate(NerscAnlConfig {
            seed: 14,
            scale: 0.5,
            production_sessions_per_day: 160.0,
            horizon_days: 8.0,
        });
        let targets = mem_mem_tests(&ds);
        // Concurrency is computed against the NERSC server's full log.
        let nersc_log = ds.filter(|r| &*r.server == "dtn01.nersc.gov");
        let analysis = gvc_core::concurrency::prediction_analysis(&nersc_log, &targets, None);
        let rho = analysis.rho.unwrap();
        assert!(rho > 0.2, "rho {rho} too weak");
    }

    #[test]
    fn deterministic() {
        let cfg = NerscAnlConfig {
            seed: 6,
            scale: 0.1,
            production_sessions_per_day: 5.0,
            horizon_days: 6.0,
        };
        let a = generate(cfg);
        let b = generate(cfg);
        assert_eq!(a, b);
    }
}
