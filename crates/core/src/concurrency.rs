//! Eq. 2 and Figs. 7–8: the impact of concurrent GridFTP transfers.
//!
//! §VII-D: "For each of the 84 memory-to-memory transfers, the
//! duration is divided into intervals based on the number of
//! concurrent transfers being executed by the NERSC GridFTP server"
//! (Fig. 7), and a predicted throughput is computed by sharing a
//! hypothetical server capacity `R` among the concurrent transfers in
//! each interval, weighted by their recorded throughputs:
//!
//! ```text
//! t̂_i = (R / D_i) · Σ_j  d_ij · t_i / Σ_{k=1}^{n_ij} t_k
//! ```
//!
//! The paper's headline is the correlation ρ ≈ 0.62 between `t̂` and
//! actual throughput, with R chosen as the 90th-percentile transfer
//! throughput; "the choice of R impacts the predicted throughput plot,
//! but it does not impact correlation."

use gvc_logs::{Dataset, TransferRecord};
use gvc_stats::{pearson, quantile};

/// One constant-concurrency interval within a transfer's duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyInterval {
    /// Interval start, unix µs.
    pub start_us: i64,
    /// Interval length, seconds (`d_ij`).
    pub duration_s: f64,
    /// Number of transfers in flight at the logging server, including
    /// the target itself (`n_ij`).
    pub concurrent: usize,
}

/// Transfers at the same *server* overlapping instant `t` (half-open
/// intervals).
fn active_at(ds: &Dataset, server: &str, t: i64) -> Vec<usize> {
    ds.records()
        .iter()
        .enumerate()
        .filter(|(_, r)| &*r.server == server && r.start_unix_us <= t && r.end_unix_us() > t)
        .map(|(i, _)| i)
        .collect()
}

/// Fig. 7: the concurrency profile of one transfer — the piecewise-
/// constant number of concurrent transfers at its server across its
/// duration.
pub fn concurrency_profile(ds: &Dataset, target: &TransferRecord) -> Vec<ConcurrencyInterval> {
    let (s, e) = (target.start_unix_us, target.end_unix_us());
    if e <= s {
        return Vec::new();
    }
    // Breakpoints: every other transfer's start/end inside (s, e).
    let mut points = vec![s, e];
    for r in ds.records() {
        if r.server != target.server {
            continue;
        }
        for t in [r.start_unix_us, r.end_unix_us()] {
            if t > s && t < e {
                points.push(t);
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    points
        .iter()
        .zip(points.iter().skip(1))
        .map(|(&lo, &hi)| ConcurrencyInterval {
            start_us: lo,
            duration_s: (hi - lo) as f64 / 1e6,
            concurrent: active_at(ds, &target.server, lo).len(),
        })
        .collect()
}

/// Eq. 2: predicted throughput (Mbps) of `target` given server
/// capacity `r_mbps`, sharing `R` across concurrent transfers in
/// proportion to their recorded throughputs.
pub fn predict_throughput_mbps(ds: &Dataset, target: &TransferRecord, r_mbps: f64) -> f64 {
    let d_i = target.duration_s();
    if d_i <= 0.0 {
        return 0.0;
    }
    let t_i = target.throughput_mbps();
    let recs = ds.records();
    let mut acc = 0.0;
    for iv in concurrency_profile(ds, target) {
        let active = active_at(ds, &target.server, iv.start_us);
        let denom: f64 = active.iter().map(|&k| recs[k].throughput_mbps()).sum();
        if denom > 0.0 {
            acc += iv.duration_s * t_i / denom;
        }
    }
    r_mbps * acc / d_i
}

/// The Fig. 8 analysis over a set of target transfers.
#[derive(Debug, Clone)]
pub struct PredictionAnalysis {
    /// `(actual, predicted)` throughput pairs, Mbps, in target order.
    pub points: Vec<(f64, f64)>,
    /// Overall Pearson ρ between predicted and actual.
    pub rho: Option<f64>,
    /// ρ per actual-throughput quartile.
    pub per_quartile_rho: [Option<f64>; 4],
    /// The `R` used, Mbps.
    pub r_mbps: f64,
}

/// Runs the Eq. 2 prediction for every transfer in `targets`
/// (typically the mem-mem test transfers), with concurrency computed
/// against the full server log `ds`. `R` defaults to the
/// 90th-percentile throughput of the targets when `r_mbps` is `None`.
pub fn prediction_analysis(
    ds: &Dataset,
    targets: &Dataset,
    r_mbps: Option<f64>,
) -> PredictionAnalysis {
    // One value per target record (positional alignment with
    // `predicted` matters; `throughputs_mbps()` drops degenerates).
    let actual: Vec<f64> =
        targets.records().iter().map(gvc_logs::TransferRecord::throughput_mbps).collect();
    let r = r_mbps.unwrap_or_else(|| quantile(&actual, 0.90).unwrap_or(0.0));
    let predicted: Vec<f64> =
        targets.records().iter().map(|t| predict_throughput_mbps(ds, t, r)).collect();
    let points: Vec<(f64, f64)> = actual.iter().copied().zip(predicted.iter().copied()).collect();

    // Quartiles by actual throughput.
    let q1 = quantile(&actual, 0.25).unwrap_or(0.0);
    let q2 = quantile(&actual, 0.50).unwrap_or(0.0);
    let q3 = quantile(&actual, 0.75).unwrap_or(0.0);
    let mut quartiles: [Vec<usize>; 4] = Default::default();
    for (i, &a) in actual.iter().enumerate() {
        let q = if a <= q1 {
            0
        } else if a <= q2 {
            1
        } else if a <= q3 {
            2
        } else {
            3
        };
        quartiles[q].push(i);
    }
    let corr_of = |idx: &[usize]| {
        let x: Vec<f64> = idx.iter().map(|&i| actual[i]).collect();
        let y: Vec<f64> = idx.iter().map(|&i| predicted[i]).collect();
        pearson(&x, &y)
    };
    let [qa, qb, qc, qd] = &quartiles;
    PredictionAnalysis {
        rho: pearson(&actual, &predicted),
        per_quartile_rho: [corr_of(qa), corr_of(qb), corr_of(qc), corr_of(qd)],
        points,
        r_mbps: r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::TransferType;

    fn rec(start_s: f64, dur_s: f64, size: u64) -> TransferRecord {
        TransferRecord::simple(
            TransferType::Retr,
            size,
            (start_s * 1e6) as i64,
            (dur_s * 1e6) as i64,
            "nersc",
            Some("anl"),
        )
    }

    #[test]
    fn profile_of_isolated_transfer() {
        let t = rec(10.0, 20.0, 1_000);
        let ds = Dataset::from_records(vec![t.clone()]);
        let p = concurrency_profile(&ds, &t);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].concurrent, 1);
        assert!((p[0].duration_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn profile_detects_overlaps() {
        // Target [0, 30); competitor [10, 20): intervals of
        // concurrency 1, 2, 1.
        let target = rec(0.0, 30.0, 1_000);
        let other = rec(10.0, 10.0, 1_000);
        let ds = Dataset::from_records(vec![target.clone(), other]);
        let p = concurrency_profile(&ds, &target);
        assert_eq!(p.len(), 3);
        assert_eq!(p.iter().map(|iv| iv.concurrent).collect::<Vec<_>>(), vec![1, 2, 1]);
        let total: f64 = p.iter().map(|iv| iv.duration_s).sum();
        assert!((total - 30.0).abs() < 1e-9);
    }

    #[test]
    fn other_servers_ignored() {
        let target = rec(0.0, 30.0, 1_000);
        let mut other = rec(5.0, 10.0, 1_000);
        other.server = "elsewhere".into();
        let ds = Dataset::from_records(vec![target.clone(), other]);
        let p = concurrency_profile(&ds, &target);
        assert!(p.iter().all(|iv| iv.concurrent == 1));
    }

    #[test]
    fn solo_prediction_equals_r() {
        // A transfer alone the whole time: t̂ = R · (d/D) · t/t = R.
        let t = rec(0.0, 100.0, 10_000_000_000);
        let ds = Dataset::from_records(vec![t.clone()]);
        let pred = predict_throughput_mbps(&ds, &t, 2190.0);
        assert!((pred - 2190.0).abs() < 1e-6);
    }

    #[test]
    fn equal_competitors_halve_prediction() {
        // Two identical fully-overlapping transfers: each predicted R/2.
        let a = rec(0.0, 100.0, 5_000_000_000);
        let b = rec(0.0, 100.0, 5_000_000_000);
        let ds = Dataset::from_records(vec![a.clone(), b]);
        let pred = predict_throughput_mbps(&ds, &a, 2000.0);
        assert!((pred - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn prediction_correlates_when_concurrency_drives_throughput() {
        // Build a log where actual throughput really is R shared
        // equally among the k overlapping transfers: prediction should
        // correlate strongly.
        let mut recs = Vec::new();
        let mut start = 0.0;
        for batch in 1..=8usize {
            // `batch` fully-overlapping transfers, each getting
            // 1000/batch Mbps; 1 GB each.
            let tp_mbps = 1000.0 / batch as f64;
            let size = 1_000_000_000u64;
            let dur = size as f64 * 8.0 / (tp_mbps * 1e6);
            for _ in 0..batch {
                recs.push(rec(start, dur, size));
            }
            start += dur + 100.0;
        }
        let ds = Dataset::from_records(recs);
        let analysis = prediction_analysis(&ds, &ds, Some(1000.0));
        assert!(analysis.rho.unwrap() > 0.95, "{:?}", analysis.rho);
        assert_eq!(analysis.points.len(), ds.len());
    }

    #[test]
    fn default_r_is_90th_percentile() {
        let ds = Dataset::from_records(
            (1..=10).map(|k| rec(k as f64 * 1000.0, 10.0, k * 125_000_000)).collect(),
        );
        let analysis = prediction_analysis(&ds, &ds, None);
        let expected = quantile(&ds.throughputs_mbps(), 0.90).unwrap();
        assert!((analysis.r_mbps - expected).abs() < 1e-9);
    }

    #[test]
    fn degenerate_target() {
        let mut t = rec(0.0, 0.0, 100);
        t.duration_us = 0;
        let ds = Dataset::from_records(vec![t.clone()]);
        assert_eq!(predict_throughput_mbps(&ds, &t, 1000.0), 0.0);
        assert!(concurrency_profile(&ds, &t).is_empty());
    }
}
