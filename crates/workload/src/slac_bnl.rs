//! The SLAC–BNL scenario (Feb 13 – Apr 26, 2012).
//!
//! Paper facts reproduced in shape:
//!
//! * the paper's ~1.02 M transfers in ~10 200 sessions at g = 1 min,
//!   with a 30 153-transfer monster session (Table III) and 78.4 % of
//!   transfers inside VC-suitable sessions (Table IV). The counts are
//!   targets the session-length tail overshoots: at its default seed
//!   the generator produces 242 535 transfers in 934 sessions at
//!   g = 1 min at scale 0.1 (the repro's size), and 3 710 104
//!   transfers at scale 1;
//! * 84.6 % of transfers use multiple (8) parallel TCP streams, the
//!   rest one (§VII-B);
//! * file sizes are small-skewed (median session ≈ 1.1 GB), so the
//!   80 ms-RTT window cap and slow start dominate: 8-stream beats
//!   1-stream below ~150 MB and they tie for large files
//!   (Figs. 3–4);
//! * a 2–3 AM burst on one day (Apr 2, 2012) of 2–3 GB transfers
//!   above 1.5 Gbps (Fig. 2's high outliers).

use crate::EPOCH_FEB_2012_US;
use gvc_engine::SimTime;
use gvc_gridftp::driver::Driver;
use gvc_gridftp::{ServerCaps, SessionSpec, TransferJob};
use gvc_logs::{Dataset, EndpointKind, TransferType};
use gvc_net::NetworkSim;
use gvc_stats::dist::{Distribution, LogNormal, Pareto};
use gvc_stats::rng::component_rng;
use gvc_topology::{study_topology, Site};
use rand::Rng;

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct SlacBnlConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of the paper's ~10 200 sessions (1.0 produces ~3.7 M
    /// transfers — use release builds; tests run at 0.002–0.01).
    pub scale: f64,
}

impl Default for SlacBnlConfig {
    fn default() -> SlacBnlConfig {
        SlacBnlConfig { seed: 2012, scale: 1.0 }
    }
}

/// Physics-production file sizes: lots of small files, median in the
/// tens of MB, a long tail to ~4 GB.
#[expect(clippy::expect_used, reason = "literal calibration has mean greater than median")]
fn sample_file_size(rng: &mut rand::rngs::SmallRng) -> u64 {
    (LogNormal::from_median_mean(30e6, 180e6).expect("valid calibration").sample(rng) as u64)
        .clamp(100_000, 4_200_000_000)
}

/// Session lengths: right-skewed, tail to ~30 k. The paper's mean,
/// ~100 transfers per session (1 021 999 / 10 199), is the target;
/// the Pareto shapes are ≤ 1, so the capped draws land far above it.
/// At the default seed, scale 0.1 draws 242 535 transfers over 1 021
/// scheduled sessions (238 each; 260 per session once grouped at
/// g = 1 min), and scale 1 draws 3 710 104 over 10 201 (364 each).
/// `scale` caps only the campaign tail.
fn sample_session_len(rng: &mut rand::rngs::SmallRng, scale: f64) -> usize {
    let r: f64 = rng.gen();
    let n = if r < 0.08 {
        1.0
    } else if r < 0.85 {
        Pareto::new(4.0, 0.80).sample(rng).min(3_000.0)
    } else {
        let cap = (30_000.0 * scale).clamp(300.0, 30_000.0);
        Pareto::new(400.0, 1.0).sample(rng).min(cap)
    };
    (n.round() as usize).max(1)
}

/// Generates the scenario log.
pub fn generate(cfg: SlacBnlConfig) -> Dataset {
    let topo = study_topology();
    let sim = NetworkSim::new(topo.graph.clone(), EPOCH_FEB_2012_US);
    let mut driver = Driver::new(sim, cfg.seed);

    let caps = ServerCaps {
        // The SLAC-BNL max observed was 2.56 Gbps (the mem-to-mem
        // burst); production *disk* transfers sat near 200 Mbps — the
        // shared physics file systems deliver ~250 Mbps per client,
        // which is what makes the Fig. 4 stream-group medians tie for
        // large files.
        node_cap_bps: 2.7e9,
        disk_read_bps: 2.4e9,
        disk_write_bps: 2.0e9,
        disk_stream_bps: 260e6,
        nic_bps: 10e9,
    };
    let slac = driver.register_cluster("dtn.slac.stanford.edu", topo.dtn(Site::Slac), caps, 2);
    let bnl = driver.register_cluster("dtn.bnl.gov", topo.dtn(Site::Bnl), caps, 2);

    let mut rng = component_rng(cfg.seed, "slac-sessions");
    let horizon_s = 73.0 * 86_400.0; // Feb 13 - Apr 26
    let n_sessions = ((10_200.0 * cfg.scale).round() as usize).max(1);
    for _ in 0..n_sessions {
        let start_s = rng.gen::<f64>() * (horizon_s - 90_000.0);
        let n = sample_session_len(&mut rng, cfg.scale);
        // 84.6 % of transfers are multi-stream; stream choice is made
        // per session (scripts pass -p once).
        let streams = if rng.gen::<f64>() < 0.846 { 8 } else { 1 };
        let jobs: Vec<TransferJob> = (0..n)
            .map(|_| TransferJob {
                size_bytes: sample_file_size(&mut rng),
                streams,
                stripes: 1, // "All transfers used a single stripe."
                tcp_buffer_bytes: 4 << 20,
                block_size_bytes: 256 << 10,
                src_kind: EndpointKind::Disk,
                dst_kind: EndpointKind::Disk,
                logged_as: TransferType::Retr,
            })
            .collect();
        let concurrency = if n > 100 { 6 } else { 1 };
        let spec =
            SessionSpec::sequential(jobs, rng.gen::<f64>() * 5.0).with_concurrency(concurrency);
        driver.schedule_session(SimTime::from_secs_f64(start_s), slac, bnl, spec);
    }

    // The Apr 2, 2012 2-3 AM burst: back-to-back 2.2-2.9 GB transfers
    // at high rate (mem-to-mem staging to a warmed cache), 8 streams.
    let burst_start_s = (1_333_324_800_000_000 - EPOCH_FEB_2012_US) as f64 / 1e6 + 2.0 * 3600.0;
    let n_burst = ((1_891.0 * cfg.scale.max(0.01)).round() as usize).max(4);
    let burst_jobs: Vec<TransferJob> = (0..n_burst)
        .map(|_| TransferJob {
            size_bytes: (2.2e9 + rng.gen::<f64>() * 0.7e9) as u64,
            streams: 8,
            stripes: 1,
            tcp_buffer_bytes: 16 << 20,
            block_size_bytes: 256 << 10,
            src_kind: EndpointKind::Memory,
            dst_kind: EndpointKind::Memory,
            logged_as: TransferType::Retr,
        })
        .collect();
    driver.schedule_session(
        SimTime::from_secs_f64(burst_start_s),
        slac,
        bnl,
        SessionSpec::sequential(burst_jobs, 0.0).with_concurrency(2),
    );

    driver.run(SimTime::from_secs_f64(horizon_s + 250_000.0)).log
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_core::stream_analysis::{stream_analysis_small, StreamAnalysis};

    fn small() -> Dataset {
        generate(SlacBnlConfig { seed: 3, scale: 0.004 })
    }

    #[test]
    fn deterministic() {
        let a = generate(SlacBnlConfig { seed: 3, scale: 0.002 });
        let b = generate(SlacBnlConfig { seed: 3, scale: 0.002 });
        assert_eq!(a, b);
    }

    #[test]
    fn stream_mix_matches_paper() {
        let ds = small();
        assert!(ds.len() > 200, "{}", ds.len());
        let streams = |n: u32| ds.records().iter().filter(|r| r.num_streams == n).count();
        let multi = streams(8) as f64 / ds.len() as f64;
        assert!((0.6..1.0).contains(&multi), "multi-stream share {multi}");
        assert!(streams(1) > 0);
    }

    #[test]
    fn eight_streams_beat_one_for_small_files() {
        let ds = generate(SlacBnlConfig { seed: 5, scale: 0.01 });
        let a = stream_analysis_small(&ds);
        let one = StreamAnalysis::regime_median(&a.one_stream, 0.0, 100e6);
        let eight = StreamAnalysis::regime_median(&a.eight_streams, 0.0, 100e6);
        let (one, eight) = (one.unwrap(), eight.unwrap());
        assert!(eight > 1.3 * one, "8-stream {eight} not clearly above 1-stream {one}");
    }

    #[test]
    fn burst_produces_high_throughput_large_transfers() {
        let ds = small();
        let pts = gvc_core::scatter::throughput_vs_size(&ds);
        let peak = gvc_core::scatter::peak(&pts).unwrap();
        assert!(peak.throughput_mbps > 1_500.0, "peak {}", peak.throughput_mbps);
        assert!(peak.size_bytes > 2_000_000_000);
    }

    #[test]
    fn sessions_structure() {
        let ds = small();
        let g = gvc_core::sessions::group_sessions(&ds, 60.0);
        assert!(g.sessions.len() > 10);
        assert!(g.max_transfers() > 20);
    }
}
