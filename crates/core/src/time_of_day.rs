//! Fig. 6: throughput as a function of time of day.
//!
//! The 32 GB NERSC–ORNL test transfers "all started at either 2 AM or
//! 8 AM"; the figure scatters throughput against start hour, and the
//! paper concludes the time-of-day factor "appears to have a minor
//! impact".

use gvc_logs::Dataset;
use gvc_stats::Summary;
use std::collections::BTreeMap;

/// Per-start-hour throughput summaries (integer hour buckets), for
/// the "some of the transfers at 2 AM appear to have received higher
/// levels of throughput, but there is significant variance within each
/// set" comparison.
pub fn by_hour(ds: &Dataset) -> Vec<(u32, Summary)> {
    let mut groups: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for r in ds.records() {
        groups.entry(r.start_civil().hour).or_default().push(r.throughput_mbps());
    }
    groups.into_iter().filter_map(|(h, v)| Some((h, Summary::of(&v)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::{TransferRecord, TransferType};

    /// Transfer starting at the given UTC hour on 2010-09-14.
    fn rec(hour: u32, dur_s: f64) -> TransferRecord {
        let day = 1_284_422_400i64; // 2010-09-14T00:00:00Z
        TransferRecord::simple(
            TransferType::Retr,
            32_000_000_000,
            (day + i64::from(hour) * 3600) * 1_000_000,
            (dur_s * 1e6) as i64,
            "srv",
            Some("peer"),
        )
    }

    #[test]
    fn hour_buckets() {
        let ds = Dataset::from_records(vec![rec(2, 100.0), rec(2, 110.0), rec(8, 150.0)]);
        let rows = by_hour(&ds);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 2);
        assert_eq!(rows[0].1.n, 2);
        assert_eq!(rows[1].0, 8);
    }

    #[test]
    fn empty() {
        assert!(by_hour(&Dataset::new()).is_empty());
    }
}
