//! Table IV: the fraction of sessions (and transfers) that can
//! tolerate dynamic-VC setup delay.
//!
//! The paper's methodology (§VI-A): "Instead of considering the actual
//! durations of sessions, which could be high because of other factors
//! such as disk I/O access rates, new hypothetical durations are
//! computed by dividing session sizes by the third quartile of
//! transfer throughput. The question posed is for what percentage of
//! the sessions would the VC setup delay overhead represent one-tenth
//! or less of session durations…" — i.e. a session is VC-suitable iff
//!
//! ```text
//! size / q3_throughput ≥ overhead_factor × setup_delay
//! ```
//!
//! with `overhead_factor = 10`.

use crate::sessions::SessionGrouping;
use gvc_logs::Dataset;
use gvc_stats::quantile;

/// The paper's "one-tenth or less of session duration" rule.
pub const DEFAULT_OVERHEAD_FACTOR: f64 = 10.0;

/// Result of the suitability analysis for one (g, setup-delay) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcSuitability {
    /// Setup delay assumed, seconds.
    pub setup_delay_s: f64,
    /// Gap parameter used for the underlying grouping, seconds.
    pub gap_s: f64,
    /// The q3 transfer throughput used as the hypothetical rate, Mbps.
    pub q3_throughput_mbps: f64,
    /// Sessions suitable / total sessions.
    pub suitable_sessions: usize,
    /// Total sessions.
    pub total_sessions: usize,
    /// Transfers inside suitable sessions.
    pub suitable_transfers: usize,
    /// Total transfers in sessions.
    pub total_transfers: usize,
}

impl VcSuitability {
    /// Percent of sessions suitable (the Table IV headline cell).
    pub fn pct_sessions(&self) -> f64 {
        if self.total_sessions == 0 {
            0.0
        } else {
            self.suitable_sessions as f64 / self.total_sessions as f64 * 100.0
        }
    }

    /// Percent of transfers inside suitable sessions (Table IV's
    /// parenthesized numbers).
    pub fn pct_transfers(&self) -> f64 {
        if self.total_transfers == 0 {
            0.0
        } else {
            self.suitable_transfers as f64 / self.total_transfers as f64 * 100.0
        }
    }
}

/// Runs the Table IV analysis for one grouping and setup delay — the
/// reference oracle that [`crate::sweep::SessionStore::sweep`] is held
/// to cell for cell; production code reads sweep cells instead.
///
/// `ds` supplies the transfer-throughput distribution (its q3 becomes
/// the hypothetical session rate).
pub fn vc_suitability(
    grouping: &SessionGrouping,
    ds: &Dataset,
    setup_delay_s: f64,
    overhead_factor: f64,
) -> VcSuitability {
    let q3_mbps = quantile(&ds.throughputs_mbps(), 0.75).unwrap_or(0.0);
    let q3_bps = q3_mbps * 1e6;
    let threshold_s = overhead_factor * setup_delay_s;
    let mut suitable_sessions = 0usize;
    let mut suitable_transfers = 0usize;
    let mut total_transfers = 0usize;
    for s in &grouping.sessions {
        total_transfers += s.len();
        // Degenerate q3 (empty or all-degenerate throughput
        // distribution): there is no rate to extrapolate hypothetical
        // durations from, so no session can be judged suitable.
        // Without this guard, a zero q3 plus a zero setup delay made
        // the test read `0.0 >= 0.0` and marked *every* session —
        // including zero-byte ones — suitable.
        let suitable = q3_bps > 0.0 && s.size_bytes() as f64 * 8.0 / q3_bps >= threshold_s;
        if suitable {
            suitable_sessions += 1;
            suitable_transfers += s.len();
        }
    }
    VcSuitability {
        setup_delay_s,
        gap_s: grouping.gap_s,
        q3_throughput_mbps: q3_mbps,
        suitable_sessions,
        total_sessions: grouping.sessions.len(),
        suitable_transfers,
        total_transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::group_sessions;
    use crate::sweep::sweep_dataset;
    use gvc_logs::{TransferRecord, TransferType};

    /// One session of `n` transfers of `size` bytes each, plus enough
    /// spread in throughput that q3 is deterministic.
    fn dataset(sizes_and_durs: &[(u64, f64)]) -> Dataset {
        let mut t = 0.0f64;
        let recs = sizes_and_durs
            .iter()
            .map(|&(size, dur)| {
                let r = TransferRecord::simple(
                    TransferType::Retr,
                    size,
                    (t * 1e6) as i64,
                    (dur * 1e6) as i64,
                    "srv",
                    Some("peer"),
                );
                t += dur + 1_000_000.0; // huge gap: one session each
                r
            })
            .collect();
        Dataset::from_records(recs)
    }

    #[test]
    fn known_threshold_splits_sessions() {
        // All transfers at 8 Mbps (1 MB/s): q3 = 8 Mbps.
        // Threshold (delay 60 s, factor 10) = 600 s -> 600 MB.
        let ds = dataset(&[
            (1_000_000_000, 1000.0), // 1 GB: hypothetical 1000 s, suitable
            (100_000_000, 100.0),    // 100 MB: 100 s, not suitable
            (700_000_000, 700.0),    // 700 MB: suitable
        ]);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 3);
        let v = vc_suitability(&g, &ds, 60.0, DEFAULT_OVERHEAD_FACTOR);
        assert!((v.q3_throughput_mbps - 8.0).abs() < 1e-9);
        assert_eq!(v.suitable_sessions, 2);
        assert_eq!(v.total_sessions, 3);
        assert!((v.pct_sessions() - 66.666).abs() < 0.01);
    }

    #[test]
    fn lower_setup_delay_admits_more() {
        let ds = dataset(&[(1_000_000_000, 1000.0), (100_000_000, 100.0), (5_000_000, 5.0)]);
        let g = group_sessions(&ds, 60.0);
        let slow = vc_suitability(&g, &ds, 60.0, 10.0);
        let fast = vc_suitability(&g, &ds, 0.05, 10.0);
        assert!(fast.suitable_sessions >= slow.suitable_sessions);
        assert_eq!(fast.suitable_sessions, 3); // threshold 0.5 s
    }

    #[test]
    fn transfer_percentages_weighted_by_session_size() {
        // One big 10-transfer session (suitable) + 10 tiny singleton
        // sessions (not suitable): 50 % of sessions... actually 1/11
        // sessions but 10/20 transfers.
        let mut recs = Vec::new();
        for i in 0..10 {
            // 1 GB in 1000 s = 8 Mbps; the session totals 10 GB, so at
            // the q3 rate (8 Mbps) its hypothetical duration is
            // 10 000 s >> the 600 s threshold.
            recs.push(TransferRecord::simple(
                TransferType::Retr,
                1_000_000_000,
                i * 1_000_000,
                1_000_000_000,
                "srv",
                Some("big"),
            ));
        }
        for i in 0..10 {
            recs.push(TransferRecord::simple(
                TransferType::Retr,
                1_000,
                2_000_000_000i64 + i64::from(i) * 1_000_000_000,
                1_000_000,
                "srv",
                Some("small"),
            ));
        }
        let ds = Dataset::from_records(recs);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 11);
        let v = vc_suitability(&g, &ds, 60.0, 10.0);
        assert_eq!(v.suitable_sessions, 1);
        assert_eq!(v.suitable_transfers, 10);
        assert!((v.pct_transfers() - 50.0).abs() < 1e-9);
        assert!((v.pct_sessions() - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn grid_covers_all_combinations() {
        let ds = dataset(&[(1_000_000_000, 1000.0)]);
        let grid = sweep_dataset(&ds, &[0.0, 60.0, 120.0], &[60.0, 0.05], 10.0).cells;
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().any(|c| c.gap_s == 0.0 && c.setup_delay_s == 60.0));
        assert!(grid.iter().any(|c| c.gap_s == 120.0 && c.setup_delay_s == 0.05));
    }

    #[test]
    fn empty_grouping() {
        let ds = Dataset::new();
        let g = group_sessions(&ds, 60.0);
        let v = vc_suitability(&g, &ds, 60.0, 10.0);
        assert_eq!(v.pct_sessions(), 0.0);
        assert_eq!(v.pct_transfers(), 0.0);
    }

    #[test]
    fn degenerate_q3_never_marks_sessions_suitable() {
        // All records are zero-duration, so the throughput
        // distribution is empty and q3 = 0. With a zero setup delay
        // the pre-fix test degenerated to `0.0 >= 0.0` and marked
        // every session (even these zero-rate ones) suitable.
        let recs = (0..3)
            .map(|i| {
                TransferRecord::simple(
                    TransferType::Retr,
                    1_000_000,
                    i * 10_000_000_000,
                    0,
                    "srv",
                    Some("peer"),
                )
            })
            .collect();
        let ds = Dataset::from_records(recs);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 3);
        let v = vc_suitability(&g, &ds, 0.0, DEFAULT_OVERHEAD_FACTOR);
        assert_eq!(v.q3_throughput_mbps, 0.0);
        assert_eq!(v.suitable_sessions, 0, "degenerate q3 must admit nothing");
        assert_eq!(v.suitable_transfers, 0);
        assert_eq!(v.total_sessions, 3);
    }
}
