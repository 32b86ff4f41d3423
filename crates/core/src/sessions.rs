//! Session grouping.
//!
//! §V: "The term session refers to multiple transfers executed in
//! batch mode by an automated script. A configurable parameter, g, is
//! used to set the maximum allowed gap between the end of one transfer
//! and the start of the next transfer within a session. The gap …
//! could be negative as multiple transfers can be started
//! concurrently. Such transfers are part of the same session."
//!
//! Grouping therefore runs per (server, remote) pair over
//! start-ordered transfers, extending the current session while
//! `next.start − session.end ≤ g`, where `session.end` is the latest
//! end seen so far. Transfers with an anonymized remote (the NERSC
//! logs) cannot be grouped and are reported separately.
//!
//! This module is the reference implementation: it clones every
//! record into its session, once per gap value. Production analyses
//! read the columnar [`crate::sweep::SessionStore`] instead, and the
//! tests hold the store to this grouper.

use gvc_logs::{Dataset, TransferRecord};
use std::collections::BTreeMap;

/// A group of back-to-back transfers between one server pair.
#[derive(Debug, Clone)]
pub struct Session {
    /// The member transfers, in start order.
    pub records: Vec<TransferRecord>,
}

impl Session {
    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty (never produced by grouping).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Session start: first transfer's start (unix µs); 0 when
    /// empty (grouping never produces an empty session).
    pub fn start_unix_us(&self) -> i64 {
        self.records.first().map_or(0, |r| r.start_unix_us)
    }

    /// Session end: latest transfer end (unix µs); 0 when empty.
    pub fn end_unix_us(&self) -> i64 {
        self.records.iter().map(TransferRecord::end_unix_us).max().unwrap_or(0)
    }

    /// Wall-clock duration, seconds (the Table I/II "session
    /// duration").
    pub fn duration_s(&self) -> f64 {
        (self.end_unix_us() - self.start_unix_us()) as f64 / 1e6
    }

    /// Total payload, bytes (the Table I/II "session size").
    pub fn size_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size_bytes).sum()
    }

    /// Effective session throughput, Mbps (size over wall duration) —
    /// e.g. the paper's 12 TB session at 1.06 Gbps.
    ///
    /// `None` for zero-wall-duration sessions: an instantaneous
    /// session has no defined rate, and reporting 0.0 would conflate
    /// it with a session that moved no data. Callers that want a
    /// best-effort rate anyway can fall back to the summed transfer
    /// durations via the member records.
    #[cfg(test)]
    fn effective_throughput_mbps(&self) -> Option<f64> {
        let d = self.duration_s();
        if d <= 0.0 {
            None
        } else {
            Some(self.size_bytes() as f64 * 8.0 / d / 1e6)
        }
    }
}

/// Result of grouping a dataset.
#[derive(Debug, Clone)]
pub struct SessionGrouping {
    /// The sessions, ordered by (pair, start).
    pub sessions: Vec<Session>,
    /// Transfers that could not be grouped (anonymized remote).
    pub ungroupable: usize,
    /// The gap parameter used, seconds.
    pub gap_s: f64,
}

impl SessionGrouping {
    /// Sessions with exactly one transfer (Table III column).
    pub fn single_transfer_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.len() == 1).count()
    }

    /// Sessions with more than one transfer (Table III column).
    pub fn multi_transfer_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.len() > 1).count()
    }

    /// Fraction of sessions with 1 or 2 transfers (Table III column).
    pub fn frac_with_at_most_two(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions.iter().filter(|s| s.len() <= 2).count() as f64 / self.sessions.len() as f64
    }

    /// Largest transfer count in any session (Table III column; 30 153
    /// in the SLAC data at g = 1 min).
    pub fn max_transfers(&self) -> usize {
        self.sessions.iter().map(Session::len).max().unwrap_or(0)
    }

    /// Sessions with at least `n` transfers (Table III's "≥ 100"
    /// column).
    pub fn sessions_with_at_least(&self, n: usize) -> usize {
        self.sessions.iter().filter(|s| s.len() >= n).count()
    }
}

/// Groups a dataset's transfers into sessions with gap parameter
/// `gap_s` (seconds; the paper's `g` of 0, 1 min, 2 min).
///
/// ```
/// use gvc_core::group_sessions;
/// use gvc_logs::{Dataset, TransferRecord, TransferType};
///
/// // Two transfers 30 s apart: one session at g = 1 min, two at g = 0.
/// let ds = Dataset::from_records(vec![
///     TransferRecord::simple(TransferType::Retr, 1 << 30, 0, 10_000_000, "s", Some("p")),
///     TransferRecord::simple(TransferType::Retr, 1 << 30, 40_000_000, 10_000_000, "s", Some("p")),
/// ]);
/// assert_eq!(group_sessions(&ds, 60.0).sessions.len(), 1);
/// assert_eq!(group_sessions(&ds, 0.0).sessions.len(), 2);
/// ```
pub fn group_sessions(ds: &Dataset, gap_s: f64) -> SessionGrouping {
    let gap_us = (gap_s * 1e6).round() as i64;
    // Partition per (server, remote) pair, preserving start order.
    let mut pairs: BTreeMap<(String, String), Vec<&TransferRecord>> = BTreeMap::new();
    let mut ungroupable = 0usize;
    for r in ds.records() {
        match r.pair_key() {
            Some((s, p)) => pairs.entry((s.to_owned(), p.to_owned())).or_default().push(r),
            None => ungroupable += 1,
        }
    }

    let mut sessions = Vec::new();
    for (_, recs) in pairs {
        let mut current: Vec<TransferRecord> = Vec::new();
        let mut session_end = i64::MIN;
        for r in recs {
            if !current.is_empty() && r.start_unix_us - session_end > gap_us {
                sessions.push(Session { records: std::mem::take(&mut current) });
                session_end = i64::MIN;
            }
            session_end = session_end.max(r.end_unix_us());
            current.push(r.clone());
        }
        if !current.is_empty() {
            sessions.push(Session { records: current });
        }
    }

    SessionGrouping { sessions, ungroupable, gap_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::{TransferRecord, TransferType};
    use proptest::prelude::*;

    /// start/duration in seconds for readability.
    fn rec(start_s: f64, dur_s: f64, size: u64, remote: Option<&str>) -> TransferRecord {
        TransferRecord::simple(
            TransferType::Retr,
            size,
            (start_s * 1e6) as i64,
            (dur_s * 1e6) as i64,
            "srv",
            remote,
        )
    }

    #[test]
    fn gap_splits_sessions() {
        // Transfers at 0-10, 15-25, 200-210 with g = 60: first two
        // merge, third is separate.
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 100, Some("p")),
            rec(15.0, 10.0, 100, Some("p")),
            rec(200.0, 10.0, 100, Some("p")),
        ]);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 2);
        assert_eq!(g.sessions[0].len(), 2);
        assert_eq!(g.sessions[1].len(), 1);
        assert_eq!(g.single_transfer_sessions(), 1);
        assert_eq!(g.multi_transfer_sessions(), 1);
    }

    #[test]
    fn g_zero_requires_contiguity() {
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 100, Some("p")),
            rec(10.0, 10.0, 100, Some("p")), // gap exactly 0
            rec(20.5, 10.0, 100, Some("p")), // gap 0.5 s
        ]);
        let g = group_sessions(&ds, 0.0);
        assert_eq!(g.sessions.len(), 2);
        assert_eq!(g.sessions[0].len(), 2);
    }

    #[test]
    fn negative_gaps_merge_concurrent_transfers() {
        // Four transfers started together (overlapping): one session
        // even at g = 0.
        let ds = Dataset::from_records(vec![
            rec(0.0, 40.0, 100, Some("p")),
            rec(0.1, 42.0, 100, Some("p")),
            rec(0.2, 38.0, 100, Some("p")),
            rec(0.3, 41.0, 100, Some("p")),
        ]);
        let g = group_sessions(&ds, 0.0);
        assert_eq!(g.sessions.len(), 1);
        assert_eq!(g.sessions[0].len(), 4);
    }

    #[test]
    fn session_end_is_max_end_not_last_end() {
        // A long transfer followed by a short one that ends earlier;
        // the next transfer's gap is measured from the *latest* end.
        let ds = Dataset::from_records(vec![
            rec(0.0, 100.0, 100, Some("p")), // ends at 100
            rec(1.0, 5.0, 100, Some("p")),   // ends at 6
            rec(130.0, 5.0, 100, Some("p")), // 30 s after 100
        ]);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 1, "gap measured from max end (100)");
    }

    #[test]
    fn pairs_partition_sessions() {
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 100, Some("a")),
            rec(1.0, 10.0, 100, Some("b")),
        ]);
        let g = group_sessions(&ds, 3600.0);
        assert_eq!(g.sessions.len(), 2);
    }

    #[test]
    fn anonymized_records_reported_ungroupable() {
        let ds =
            Dataset::from_records(vec![rec(0.0, 10.0, 100, None), rec(1.0, 10.0, 100, Some("p"))]);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.ungroupable, 1);
        assert_eq!(g.sessions.iter().map(Session::len).sum::<usize>(), 1);
    }

    #[test]
    fn session_metrics() {
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 1_000_000, Some("p")),
            rec(12.0, 8.0, 2_000_000, Some("p")),
        ]);
        let g = group_sessions(&ds, 60.0);
        let s = &g.sessions[0];
        assert_eq!(s.size_bytes(), 3_000_000);
        assert!((s.duration_s() - 20.0).abs() < 1e-9);
        // 3 MB over 20 s = 1.2 Mbps
        assert!((s.effective_throughput_mbps().unwrap() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_duration_session_has_no_rate() {
        // A single zero-duration transfer: the session is
        // instantaneous, not "zero throughput". Pre-fix this returned
        // 0.0 and polluted session-rate distributions.
        let ds = Dataset::from_records(vec![rec(5.0, 0.0, 1_000_000, Some("p"))]);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 1);
        assert_eq!(g.sessions[0].effective_throughput_mbps(), None);
    }

    #[test]
    fn table_iii_counters() {
        let mut recs = vec![rec(0.0, 1.0, 1, Some("p"))];
        for i in 0..150 {
            recs.push(rec(1000.0 + i as f64 * 2.0, 1.0, 1, Some("p")));
        }
        let ds = Dataset::from_records(recs);
        let g = group_sessions(&ds, 60.0);
        assert_eq!(g.sessions.len(), 2);
        assert_eq!(g.max_transfers(), 150);
        assert_eq!(g.sessions_with_at_least(100), 1);
        assert!((g.frac_with_at_most_two() - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// Grouping conserves transfers and never exceeds the gap
        /// bound inside a session.
        #[test]
        fn prop_conservation_and_gap(
            starts in proptest::collection::vec(0.0f64..10_000.0, 1..80),
            durs in proptest::collection::vec(0.1f64..300.0, 80),
            g in 0.0f64..300.0,
        ) {
            let recs: Vec<TransferRecord> = starts
                .iter()
                .zip(&durs)
                .map(|(&s, &d)| rec(s, d, 1, Some("p")))
                .collect();
            let n = recs.len();
            let ds = Dataset::from_records(recs);
            let grouping = group_sessions(&ds, g);
            prop_assert_eq!(grouping.sessions.iter().map(Session::len).sum::<usize>(), n);
            // Inside each session, every transfer (except the first)
            // starts within g of the running max end.
            for s in &grouping.sessions {
                let mut max_end = s.records[0].end_unix_us();
                for r in &s.records[1..] {
                    prop_assert!(
                        (r.start_unix_us - max_end) as f64 / 1e6 <= g + 1e-6,
                        "gap exceeded inside session"
                    );
                    max_end = max_end.max(r.end_unix_us());
                }
            }
            // Across consecutive sessions of the same pair, the gap
            // must exceed g.
            for w in grouping.sessions.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                if a.records[0].pair_key() == b.records[0].pair_key() {
                    prop_assert!(
                        (b.start_unix_us() - a.end_unix_us()) as f64 / 1e6 > g
                    );
                }
            }
        }
    }
}
