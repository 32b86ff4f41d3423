//! Dataset container: the unit the analyses consume.

use crate::record::{TransferRecord, TransferType};

/// An ordered collection of transfer records (one GridFTP log extract,
/// e.g. "the SLAC–BNL data set").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    pub(crate) records: Vec<TransferRecord>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Wraps records, sorting by start time (the order the session
    /// analysis requires).
    pub fn from_records(mut records: Vec<TransferRecord>) -> Dataset {
        records.sort_by_key(|r| (r.start_unix_us, r.duration_us));
        Dataset { records }
    }

    /// Appends a record, keeping start-time order lazily (call
    /// [`Dataset::sort`] after bulk pushes).
    pub fn push(&mut self, r: TransferRecord) {
        self.records.push(r);
    }

    /// Restores start-time order after pushes.
    pub fn sort(&mut self) {
        self.records.sort_by_key(|r| (r.start_unix_us, r.duration_us));
    }

    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no transfers.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in start-time order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Transfers whose size lies in `[lo, hi)` bytes — the paper's
    /// "32 GB transfers" / "[16, 17) GB" / "[4, 5) GB" slices.
    pub fn filter_size(&self, lo: u64, hi: u64) -> Dataset {
        Dataset {
            records: self
                .records
                .iter()
                .filter(|r| r.size_bytes >= lo && r.size_bytes < hi)
                .cloned()
                .collect(),
        }
    }

    /// Transfers of one direction.
    pub fn filter_type(&self, t: TransferType) -> Dataset {
        Dataset { records: self.records.iter().filter(|r| r.transfer_type == t).cloned().collect() }
    }

    /// Retains transfers matching an arbitrary predicate.
    pub fn filter<F: Fn(&TransferRecord) -> bool>(&self, pred: F) -> Dataset {
        Dataset { records: self.records.iter().filter(|r| pred(r)).cloned().collect() }
    }

    /// Per-transfer throughputs in Mbps (the Tables I/II/V–IX sample).
    ///
    /// Zero/negative-duration records are excluded: they have no
    /// defined throughput, and folding them in as 0.0 Mbps silently
    /// drags down every quantile of the distribution (most damagingly
    /// the q3 that [`vc_suitability`] uses as the hypothetical session
    /// rate). Use [`Dataset::degenerate_records`] to report how many
    /// were skipped. Callers needing one value *per record* (index
    /// alignment) should map [`TransferRecord::throughput_mbps`]
    /// directly.
    ///
    /// [`vc_suitability`]: https://docs.rs/gvc-core
    pub fn throughputs_mbps(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| !r.is_degenerate())
            .map(TransferRecord::throughput_mbps)
            .collect()
    }

    /// Number of zero/negative-duration records (excluded from
    /// [`Dataset::throughputs_mbps`]).
    pub fn degenerate_records(&self) -> usize {
        self.records.iter().filter(|r| r.is_degenerate()).count()
    }

    /// Per-transfer sizes in bytes as `f64`.
    pub fn sizes_bytes(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.size_bytes as f64).collect()
    }

    /// Total bytes across all transfers.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size_bytes).sum()
    }

    /// Merges another dataset in, restoring order.
    pub fn extend(&mut self, other: Dataset) {
        self.records.extend(other.records);
        self.sort();
    }
}

impl FromIterator<TransferRecord> for Dataset {
    fn from_iter<I: IntoIterator<Item = TransferRecord>>(iter: I) -> Dataset {
        Dataset::from_records(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: i64, size: u64, streams: u32) -> TransferRecord {
        let mut r =
            TransferRecord::simple(TransferType::Store, size, start, 1_000_000, "s", Some("r"));
        r.num_streams = streams;
        r
    }

    #[test]
    fn from_records_sorts_by_start() {
        let d = Dataset::from_records(vec![rec(30, 1, 1), rec(10, 2, 1), rec(20, 3, 1)]);
        let starts: Vec<i64> = d.records().iter().map(|r| r.start_unix_us).collect();
        assert_eq!(starts, vec![10, 20, 30]);
    }

    #[test]
    fn size_filter_is_half_open() {
        let d = Dataset::from_records(vec![rec(0, 100, 1), rec(1, 200, 1), rec(2, 300, 1)]);
        let f = d.filter_size(100, 300);
        assert_eq!(f.len(), 2);
        assert!(f.records().iter().all(|r| r.size_bytes < 300));
    }

    #[test]
    fn stream_filter() {
        let d = Dataset::from_records(vec![rec(0, 1, 1), rec(1, 1, 8), rec(2, 1, 8)]);
        let streams = |n: u32| d.filter(|r| r.num_streams == n).len();
        assert_eq!(streams(8), 2);
        assert_eq!(streams(1), 1);
        assert_eq!(streams(4), 0);
    }

    #[test]
    fn pair_filter_respects_anonymization() {
        let mut anon = rec(0, 1, 1);
        anon.remote = None;
        let d = Dataset::from_records(vec![anon, rec(1, 1, 1)]);
        assert_eq!(d.filter(|r| r.pair_key() == Some(("s", "r"))).len(), 1);
    }

    #[test]
    fn totals_and_throughputs() {
        let d = Dataset::from_records(vec![rec(0, 1_000_000, 1), rec(1, 2_000_000, 1)]);
        assert_eq!(d.total_bytes(), 3_000_000);
        let tps = d.throughputs_mbps();
        assert_eq!(tps.len(), 2);
        assert!((tps[0] - 8.0).abs() < 1e-9); // 1 MB in 1 s = 8 Mbps
    }

    #[test]
    fn degenerate_records_excluded_from_throughputs() {
        // Two healthy 8 Mbps transfers plus a zero-duration and a
        // negative-duration record. Pre-fix, the degenerates entered
        // the distribution as 0.0 Mbps and dragged quantiles down.
        let mut zero = rec(2, 1_000_000, 1);
        zero.duration_us = 0;
        let mut neg = rec(3, 1_000_000, 1);
        neg.duration_us = -1;
        let d = Dataset::from_records(vec![rec(0, 1_000_000, 1), rec(1, 1_000_000, 1), zero, neg]);
        assert_eq!(d.degenerate_records(), 2);
        let tps = d.throughputs_mbps();
        assert_eq!(tps.len(), 2, "degenerates must not appear");
        assert!(tps.iter().all(|&t| (t - 8.0).abs() < 1e-9), "{tps:?}");
    }

    #[test]
    fn extend_restores_order() {
        let mut d = Dataset::from_records(vec![rec(10, 1, 1)]);
        d.extend(Dataset::from_records(vec![rec(5, 1, 1)]));
        assert_eq!(d.records()[0].start_unix_us, 5);
    }

    #[test]
    fn from_iterator() {
        let d: Dataset = (0..5).map(|i| rec(i, 1, 1)).collect();
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
    }
}
