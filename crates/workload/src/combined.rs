//! All four study paths on one shared backbone, simultaneously.
//!
//! The paper analyzes each path's logs independently, implicitly
//! assuming the paths do not disturb one another even though (in our
//! topology as in ESnet) NCAR–NICS and NERSC–ORNL share backbone
//! segments, and SLAC–BNL shares the Sunnyvale–Denver span with both.
//! This scenario runs scaled-down versions of every workload in the
//! *same* simulation and measures how much each path's throughput
//! shifts relative to running alone — the validity check behind the
//! paper's per-path methodology (and a direct consequence of finding
//! iv: the links are lightly loaded).

use crate::EPOCH_2009_US;
use gvc_engine::SimTime;
use gvc_gridftp::driver::{ClusterId, Driver};
use gvc_gridftp::{ServerCaps, SessionSpec, TransferJob};
use gvc_logs::Dataset;
use gvc_net::NetworkSim;
use gvc_stats::dist::{Distribution, LogNormal};
use gvc_stats::rng::component_rng;
use gvc_stats::Ecdf;
use gvc_topology::{study_topology, Site};
use rand::Rng;

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct CombinedConfig {
    /// RNG seed.
    pub seed: u64,
    /// Sessions per path.
    pub sessions_per_path: usize,
    /// Horizon, days.
    pub horizon_days: f64,
}

impl Default for CombinedConfig {
    fn default() -> CombinedConfig {
        CombinedConfig { seed: 4242, sessions_per_path: 40, horizon_days: 7.0 }
    }
}

/// The four site pairs of the study.
pub const STUDY_PAIRS: [(Site, Site); 4] = [
    (Site::Ncar, Site::Nics),
    (Site::Slac, Site::Bnl),
    (Site::Nersc, Site::Ornl),
    (Site::Nersc, Site::Anl),
];

/// Per-path result: the log isolated to that pair.
pub struct CombinedOutput {
    /// One dataset per entry of [`STUDY_PAIRS`].
    pub per_path: Vec<Dataset>,
}

fn schedule_path_workload(
    driver: &mut Driver,
    src: ClusterId,
    dst: ClusterId,
    cfg: &CombinedConfig,
    label: &str,
) {
    let mut rng = component_rng(cfg.seed, label);
    #[expect(clippy::expect_used, reason = "literal calibration has mean greater than median")]
    let sizes = LogNormal::from_median_mean(400e6, 1.5e9).expect("valid calibration");
    for _ in 0..cfg.sessions_per_path {
        let start_s = rng.gen::<f64>() * (cfg.horizon_days * 86_400.0 - 60_000.0);
        let n = 1 + (rng.gen::<f64>() * 12.0) as usize;
        let jobs: Vec<TransferJob> = (0..n)
            .map(|_| TransferJob {
                size_bytes: (sizes.sample(&mut rng) as u64).clamp(1_000_000, 20_000_000_000),
                ..TransferJob::default()
            })
            .collect();
        driver.schedule_session(
            SimTime::from_secs_f64(start_s),
            src,
            dst,
            SessionSpec::sequential(jobs, rng.gen::<f64>() * 5.0),
        );
    }
}

/// Runs the combined scenario. With `only_path = Some(i)` only that
/// pair's workload is injected (the isolation baseline).
pub fn generate(cfg: CombinedConfig, only_path: Option<usize>) -> CombinedOutput {
    let topo = study_topology();
    let sim = NetworkSim::new(topo.graph.clone(), EPOCH_2009_US);
    let mut driver = Driver::new(sim, cfg.seed);

    let mut clusters = Vec::new();
    for (i, &(a, b)) in STUDY_PAIRS.iter().enumerate() {
        let src = driver.register_cluster(
            &format!("src{i}.{}", a.name()),
            topo.dtn(a),
            ServerCaps::default(),
            2,
        );
        let dst = driver.register_cluster(
            &format!("dst{i}.{}", b.name()),
            topo.dtn(b),
            ServerCaps::default(),
            2,
        );
        clusters.push((src, dst));
    }
    for (i, &(src, dst)) in clusters.iter().enumerate() {
        if only_path.is_none_or(|p| p == i) {
            schedule_path_workload(&mut driver, src, dst, &cfg, &format!("path-{i}"));
        }
    }
    let out = driver.run(SimTime::from_secs_f64(cfg.horizon_days * 86_400.0 + 400_000.0));
    let per_path = (0..STUDY_PAIRS.len())
        .map(|i| out.log.filter(|r| r.server.starts_with(&format!("src{i}."))))
        .collect();
    CombinedOutput { per_path }
}

/// The interference check: per path, the KS distance between its
/// throughput distribution running alone vs running with all paths
/// active. Small distances validate the paper's per-path analysis.
pub fn interference_ks(cfg: CombinedConfig) -> Vec<f64> {
    let together = generate(cfg, None);
    (0..STUDY_PAIRS.len())
        .map(|i| {
            let alone = generate(cfg, Some(i));
            let a = Ecdf::new(&alone.per_path[i].throughputs_mbps());
            let b = Ecdf::new(&together.per_path[i].throughputs_mbps());
            match (a, b) {
                (Some(a), Some(b)) => a.ks_distance(&b),
                _ => 1.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CombinedConfig {
        CombinedConfig { seed: 3, sessions_per_path: 12, horizon_days: 2.0 }
    }

    #[test]
    fn all_paths_produce_logs() {
        let out = generate(small(), None);
        assert_eq!(out.per_path.len(), 4);
        for (i, ds) in out.per_path.iter().enumerate() {
            assert!(!ds.is_empty(), "path {i} empty");
        }
    }

    #[test]
    fn only_path_isolates() {
        let out = generate(small(), Some(1));
        assert!(!out.per_path[1].is_empty());
        assert!(out.per_path[0].is_empty());
        assert!(out.per_path[2].is_empty());
    }

    #[test]
    fn cross_path_interference_is_negligible() {
        // Lightly loaded backbone: each path's throughput distribution
        // barely moves when the other three run concurrently.
        let ks = interference_ks(small());
        for (i, d) in ks.iter().enumerate() {
            assert!(*d < 0.15, "path {i} KS distance {d}");
        }
    }

    #[test]
    fn throughputs_are_reasonable() {
        let out = generate(small(), None);
        for ds in &out.per_path {
            let q = gvc_stats::quantile(&ds.throughputs_mbps(), 0.5).expect("non-empty");
            assert!(q > 50.0 && q < 10_000.0, "median {q}");
        }
    }
}
