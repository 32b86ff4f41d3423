//! Tables XI and XII: correlating GridFTP bytes with SNMP counters.
//!
//! Per router on the path, and per throughput quartile of the
//! transfers, the paper computes:
//!
//! * Table XI — corr(GridFTP transfer bytes, `B_i` total SNMP bytes
//!   during the transfer): *high* values mean the transfers dominate
//!   the links' byte counts;
//! * Table XII — corr(GridFTP transfer bytes, `B_i −` GridFTP bytes):
//!   *low* values mean the remaining traffic does not track (or
//!   disturb) the transfers.

use crate::snmp_attr::attributed_bytes;
use gvc_logs::{Dataset, SnmpSeries};
use gvc_stats::{pearson, quantile};

/// Correlations for one interface.
#[derive(Debug, Clone)]
pub struct RouterCorrelation {
    /// Interface label (from the series).
    pub interface: String,
    /// Correlation per throughput quartile (1st..4th); `None` when a
    /// quartile is degenerate (constant or too small).
    pub per_quartile: [Option<f64>; 4],
    /// Correlation over all transfers.
    pub overall: Option<f64>,
}

/// Which byte series to correlate GridFTP bytes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationKind {
    /// Table XI: total SNMP bytes `B_i`.
    TotalBytes,
    /// Table XII: other-flow bytes `B_i − gridftp_i`.
    OtherFlows,
}

/// Splits transfer indices into throughput quartiles (by the
/// transfer's own throughput). Quartile boundaries are R type-7,
/// computed over the defined-throughput distribution; the returned
/// indices are positions in `ds.records()` (one per record — a
/// degenerate record reads as 0.0 Mbps and lands in the bottom
/// quartile rather than shifting every index after it).
pub fn throughput_quartile_indices(ds: &Dataset) -> [Vec<usize>; 4] {
    let defined = ds.throughputs_mbps();
    let [q1, q2, q3] = [0.25, 0.50, 0.75].map(|p| quantile(&defined, p).unwrap_or(0.0));
    let tps: Vec<f64> =
        ds.records().iter().map(gvc_logs::TransferRecord::throughput_mbps).collect();
    let mut out: [Vec<usize>; 4] = Default::default();
    for (i, &t) in tps.iter().enumerate() {
        let q = if t <= q1 {
            0
        } else if t <= q2 {
            1
        } else if t <= q3 {
            2
        } else {
            3
        };
        out[q].push(i);
    }
    out
}

/// Computes the Table XI/XII correlations for one router. Each
/// transfer's bytes are attributed on the interface matching its
/// direction ("the appropriate interfaces were used for each GridFTP
/// transfer", §VII-C). `fwd` serves records for which `is_fwd` returns
/// true (e.g. RETR), `rev` the rest; the two series must belong to the
/// same router. A single-direction analysis passes one series as both.
pub fn router_correlation_directional<F>(
    ds: &Dataset,
    fwd: &SnmpSeries,
    rev: &SnmpSeries,
    is_fwd: F,
    kind: CorrelationKind,
) -> RouterCorrelation
where
    F: Fn(&gvc_logs::TransferRecord) -> bool,
{
    let gridftp: Vec<f64> = ds.records().iter().map(|r| r.size_bytes as f64).collect();
    let snmp: Vec<f64> = ds
        .records()
        .iter()
        .map(|r| {
            let series = if is_fwd(r) { fwd } else { rev };
            let total = attributed_bytes(series, r.start_unix_us, r.end_unix_us());
            match kind {
                CorrelationKind::TotalBytes => total,
                CorrelationKind::OtherFlows => total - r.size_bytes as f64,
            }
        })
        .collect();
    let quartiles = throughput_quartile_indices(ds);
    let corr_of = |idx: &[usize]| {
        let x: Vec<f64> = idx.iter().map(|&i| gridftp[i]).collect();
        let y: Vec<f64> = idx.iter().map(|&i| snmp[i]).collect();
        pearson(&x, &y)
    };
    RouterCorrelation {
        interface: fwd.interface.clone(),
        per_quartile: {
            let [qa, qb, qc, qd] = &quartiles;
            [corr_of(qa), corr_of(qb), corr_of(qc), corr_of(qd)]
        },
        overall: pearson(&gridftp, &snmp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::{TransferRecord, TransferType};

    const S30: i64 = 30_000_000;

    /// Every record attributed on `series`, whatever its direction.
    fn one_series(ds: &Dataset, series: &SnmpSeries, kind: CorrelationKind) -> RouterCorrelation {
        router_correlation_directional(ds, series, series, |_| true, kind)
    }

    /// Transfers of varying size back to back; the SNMP series records
    /// exactly those bytes (dominant-flow regime) plus optional noise.
    fn fixture(noise: u64) -> (Dataset, SnmpSeries) {
        let mut series = SnmpSeries::thirty_second("rt1", 0);
        let mut recs = Vec::new();
        let mut t = 0i64;
        for k in 1..=40u64 {
            let size = k * 50_000_000; // 50 MB .. 2 GB
            let dur = 2 * S30; // 60 s each
            recs.push(TransferRecord::simple(
                TransferType::Retr,
                size,
                t,
                dur,
                "srv",
                Some("peer"),
            ));
            series.add_interval(t, t + dur, size);
            if noise > 0 {
                series.add_interval(t, t + dur, noise);
            }
            t += dur + 4 * S30; // idle gap
        }
        (Dataset::from_records(recs), series)
    }

    #[test]
    fn dominant_flows_correlate_highly() {
        let (ds, series) = fixture(1_000_000);
        let c = one_series(&ds, &series, CorrelationKind::TotalBytes);
        assert!(c.overall.unwrap() > 0.99, "{:?}", c.overall);
        for q in &c.per_quartile {
            assert!(q.unwrap() > 0.9, "{q:?}");
        }
    }

    #[test]
    fn other_flows_uncorrelated_when_constant_noise() {
        let (ds, series) = fixture(1_000_000);
        let c = one_series(&ds, &series, CorrelationKind::OtherFlows);
        // Other-flow bytes are ~constant: correlation ~0 or undefined;
        // in any case far below the Table XI values.
        let overall = c.overall.unwrap_or(0.0).abs();
        assert!(overall < 0.5, "{overall}");
    }

    #[test]
    fn quartile_indices_partition() {
        let (ds, _) = fixture(0);
        let qs = throughput_quartile_indices(&ds);
        let total: usize = qs.iter().map(Vec::len).sum();
        assert_eq!(total, ds.len());
        // Sorted quartiles: every index appears once.
        let mut all: Vec<usize> = qs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn table_covers_all_interfaces() {
        let (ds, s1) = fixture(0);
        let (_, s2) = fixture(5_000_000);
        let t: Vec<RouterCorrelation> =
            [&s1, &s2].map(|s| one_series(&ds, s, CorrelationKind::TotalBytes)).into();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].interface, "rt1");
    }

    #[test]
    fn directional_routes_records_to_matching_series() {
        // Forward records deposited on `fwd`, reverse on `rev`; the
        // directional correlation should be as high as the
        // single-direction one, while using either series alone for
        // everything would dilute it.
        let mut fwd = SnmpSeries::thirty_second("rtx-fwd", 0);
        let mut rev = SnmpSeries::thirty_second("rtx-rev", 0);
        let mut recs = Vec::new();
        let mut t = 0i64;
        for k in 1..=30u64 {
            let size = k * 80_000_000;
            let dur = 2 * S30;
            let is_fwd = k % 2 == 0;
            let mut r =
                TransferRecord::simple(TransferType::Retr, size, t, dur, "srv", Some("peer"));
            if !is_fwd {
                r.transfer_type = TransferType::Store;
            }
            if is_fwd {
                fwd.add_interval(t, t + dur, size);
            } else {
                rev.add_interval(t, t + dur, size);
            }
            recs.push(r);
            t += dur + 4 * S30;
        }
        let ds = Dataset::from_records(recs);
        let c = router_correlation_directional(
            &ds,
            &fwd,
            &rev,
            |r| r.transfer_type == TransferType::Retr,
            CorrelationKind::TotalBytes,
        );
        assert!(c.overall.unwrap() > 0.99, "{:?}", c.overall);
        // Mono-series correlation is much weaker (half the records see
        // zero bytes).
        let mono = one_series(&ds, &fwd, CorrelationKind::TotalBytes);
        assert!(mono.overall.unwrap() < c.overall.unwrap());
    }

    #[test]
    fn empty_dataset_gives_none_correlations() {
        let ds = Dataset::new();
        let s = SnmpSeries::thirty_second("rt1", 0);
        let c = one_series(&ds, &s, CorrelationKind::TotalBytes);
        assert!(c.overall.is_none());
        assert!(c.per_quartile.iter().all(Option::is_none));
    }
}
