//! Factor analyses: year-based and stripes-based throughput
//! (Tables VIII and IX).
//!
//! The NCAR `frost` cluster shrank from 3 servers (2009) to mostly 2
//! (2010) to 1 (2011); Table VIII shows throughput of the 16 GB and
//! 4 GB transfer slices falling year over year, and Table IX shows the
//! direct dependence on stripe count — "the median column is the one
//! to consider".

use gvc_engine::calendar::CivilDateTime;
use gvc_logs::Dataset;
use gvc_stats::Summary;
use std::collections::BTreeMap;

/// A (group key, throughput summary) row.
#[derive(Debug, Clone)]
pub struct FactorRow {
    /// The group value (a year like 2010, or a stripe count).
    pub key: i64,
    /// Throughput summary in Mbps.
    pub throughput_mbps: Summary,
}

/// Groups transfers by calendar year of their start time (Table VIII).
pub fn by_year(ds: &Dataset) -> Vec<FactorRow> {
    group_by(ds, |r| {
        i64::from(CivilDateTime::from_unix(r.start_unix_us.div_euclid(1_000_000)).year)
    })
}

/// Groups transfers by stripe count (Table IX).
pub fn by_stripes(ds: &Dataset) -> Vec<FactorRow> {
    group_by(ds, |r| i64::from(r.num_stripes))
}

/// Fraction of throughput variance explained by a grouping factor
/// (η², the between-group sum of squares over the total): the
/// quantitative answer to §VII's question of which of the candidate
/// factors actually drives the observed variance. Returns `None` for
/// datasets with < 2 transfers or zero variance.
pub fn variance_explained<F>(ds: &Dataset, key: F) -> Option<f64>
where
    F: Fn(&gvc_logs::TransferRecord) -> i64,
{
    let values: Vec<(i64, f64)> =
        ds.records().iter().map(|r| (key(r), r.throughput_mbps())).collect();
    if values.len() < 2 {
        return None;
    }
    let grand_mean = values.iter().map(|(_, v)| v).sum::<f64>() / values.len() as f64;
    let total_ss: f64 = values.iter().map(|(_, v)| (v - grand_mean).powi(2)).sum();
    if total_ss == 0.0 {
        return None;
    }
    let mut groups: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
    for &(k, v) in &values {
        let e = groups.entry(k).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }
    let between_ss: f64 = groups
        .values()
        .map(|&(sum, n)| {
            let mean = sum / n as f64;
            n as f64 * (mean - grand_mean).powi(2)
        })
        .sum();
    Some(between_ss / total_ss)
}

fn group_by<F: Fn(&gvc_logs::TransferRecord) -> i64>(ds: &Dataset, key: F) -> Vec<FactorRow> {
    let mut groups: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for r in ds.records() {
        groups.entry(key(r)).or_default().push(r.throughput_mbps());
    }
    groups
        .into_iter()
        .filter_map(|(k, v)| Some(FactorRow { key: k, throughput_mbps: Summary::of(&v)? }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::{TransferRecord, TransferType};

    fn rec(start_unix_s: i64, dur_s: f64, stripes: u32, streams: u32) -> TransferRecord {
        let mut r = TransferRecord::simple(
            TransferType::Retr,
            1_000_000_000,
            start_unix_s * 1_000_000,
            (dur_s * 1e6) as i64,
            "srv",
            Some("peer"),
        );
        r.num_stripes = stripes;
        r.num_streams = streams;
        r
    }

    const Y2009: i64 = 1_230_768_000; // 2009-01-01
    const Y2010: i64 = 1_262_304_000; // 2010-01-01
    const Y2011: i64 = 1_293_840_000; // 2011-01-01

    #[test]
    fn year_grouping_uses_civil_years() {
        let ds = Dataset::from_records(vec![
            rec(Y2009 + 100, 2.0, 3, 8),
            rec(Y2009 + 200, 2.5, 3, 8),
            rec(Y2010 + 100, 4.0, 2, 8),
            rec(Y2011 + 100, 8.0, 1, 8),
        ]);
        let rows = by_year(&ds);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].key, 2009);
        assert_eq!(rows[1].key, 2010);
        assert_eq!(rows[2].key, 2011);
        assert_eq!(rows[0].throughput_mbps.n, 2);
        // Throughput falls year over year (duration grows).
        assert!(rows[0].throughput_mbps.median > rows[1].throughput_mbps.median);
        assert!(rows[1].throughput_mbps.median > rows[2].throughput_mbps.median);
    }

    #[test]
    fn stripes_grouping_sorted_by_count() {
        let ds = Dataset::from_records(vec![
            rec(Y2010, 8.0, 1, 8),
            rec(Y2010 + 10, 4.0, 2, 8),
            rec(Y2010 + 20, 2.0, 3, 8),
            rec(Y2010 + 30, 2.1, 3, 8),
        ]);
        let rows = by_stripes(&ds);
        assert_eq!(rows.iter().map(|r| r.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        // Median rises with stripes.
        assert!(rows[2].throughput_mbps.median > rows[0].throughput_mbps.median);
        assert_eq!(rows[2].throughput_mbps.n, 2);
    }

    #[test]
    fn empty_dataset_empty_rows() {
        assert!(by_year(&Dataset::new()).is_empty());
        assert!(by_stripes(&Dataset::new()).is_empty());
    }

    #[test]
    fn variance_fully_explained_by_perfect_factor() {
        // Throughput determined entirely by stripes.
        let ds = Dataset::from_records(vec![
            rec(Y2010, 8.0, 1, 8),
            rec(Y2010 + 10, 8.0, 1, 8),
            rec(Y2010 + 20, 4.0, 2, 8),
            rec(Y2010 + 30, 4.0, 2, 8),
        ]);
        let eta = variance_explained(&ds, |r| i64::from(r.num_stripes)).unwrap();
        assert!((eta - 1.0).abs() < 1e-12, "{eta}");
    }

    #[test]
    fn variance_unexplained_by_constant_factor() {
        let ds = Dataset::from_records(vec![rec(Y2010, 8.0, 1, 8), rec(Y2010 + 10, 4.0, 1, 8)]);
        let eta = variance_explained(&ds, |r| i64::from(r.num_stripes)).unwrap();
        assert!(eta.abs() < 1e-12);
    }

    #[test]
    fn variance_partial_explanation_between_zero_and_one() {
        // Stripes shift the mean but noise remains within groups.
        let ds = Dataset::from_records(vec![
            rec(Y2010, 8.0, 1, 8),
            rec(Y2010 + 10, 7.0, 1, 8),
            rec(Y2010 + 20, 4.0, 2, 8),
            rec(Y2010 + 30, 3.5, 2, 8),
        ]);
        let eta = variance_explained(&ds, |r| i64::from(r.num_stripes)).unwrap();
        assert!(eta > 0.5 && eta < 1.0, "{eta}");
    }

    #[test]
    fn variance_degenerate_none() {
        assert!(variance_explained(&Dataset::new(), |_| 0).is_none());
        let single = Dataset::from_records(vec![rec(Y2010, 1.0, 1, 1)]);
        assert!(variance_explained(&single, |_| 0).is_none());
        // Zero variance.
        let flat = Dataset::from_records(vec![rec(Y2010, 2.0, 1, 1), rec(Y2010 + 5, 2.0, 1, 1)]);
        assert!(variance_explained(&flat, |_| 0).is_none());
    }
}
