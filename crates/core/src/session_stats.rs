//! Session-level narratives and trends.
//!
//! Beyond the Table I/II summaries, the paper's §VI-A discussion calls
//! out individual sessions — "The largest session of size 12 TB in the
//! SLAC-BNL dataset took 26 hours and 24 minutes to complete,
//! receiving an effective throughput of 1.06 Gbps. The longest-
//! duration session occurred in the NCAR-NICS data set, with a
//! duration of 13 hours and 27 minutes … This session throughput is
//! lower than even the third-quartile throughput" — plus, implicitly,
//! the year-over-year decline of Table VIII. This module computes
//! those call-outs and trend fits.

use crate::sweep::{SessionStore, SessionView};
use gvc_logs::Dataset;
use gvc_stats::regression::{linear_fit, LinearFit};
use gvc_stats::{quantile, Summary};

/// The §VI-A call-out facts for the sessions at one gap value.
#[derive(Debug, Clone)]
pub struct SessionHighlights {
    /// `(size_bytes, duration_s, effective_mbps)` of the largest
    /// session by size. The rate is `None` for an instantaneous
    /// (zero-wall-duration) session.
    pub largest: Option<(u64, f64, Option<f64>)>,
    /// `(size_bytes, duration_s, effective_mbps)` of the longest
    /// session by duration.
    pub longest: Option<(u64, f64, Option<f64>)>,
    /// Effective session-throughput summary (Mbps) over sessions with
    /// a defined rate.
    pub effective_throughput_mbps: Option<Summary>,
    /// Fraction of defined-rate sessions whose effective throughput is
    /// below the q3 *transfer* throughput — the paper's observation
    /// that session rates sit below transfer rates (idle gaps, slow
    /// members). Instantaneous sessions have no rate to compare and
    /// are excluded from both numerator and denominator.
    pub frac_below_transfer_q3: f64,
}

/// Computes the highlights of the sessions a [`SessionStore`] forms at
/// one gap value, without cloning records into sessions.
pub fn session_highlights(store: &SessionStore, gap_s: f64) -> SessionHighlights {
    let views: Vec<SessionView<'_>> =
        store.sessions_at(gap_s).into_iter().map(|r| store.session(r)).collect();
    let triple =
        |v: &SessionView<'_>| (v.size_bytes(), v.duration_s(), v.effective_throughput_mbps());
    let largest = views.iter().max_by_key(|v| v.size_bytes()).map(triple);
    let longest = views.iter().max_by(|a, b| a.duration_s().total_cmp(&b.duration_s())).map(triple);
    let rates: Vec<f64> = views.iter().filter_map(SessionView::effective_throughput_mbps).collect();
    let q3_transfer = quantile(store.throughputs_mbps(), 0.75).unwrap_or(0.0);
    let below = if rates.is_empty() {
        0.0
    } else {
        rates.iter().filter(|&&r| r < q3_transfer).count() as f64 / rates.len() as f64
    };
    SessionHighlights {
        largest,
        longest,
        effective_throughput_mbps: Summary::of(&rates),
        frac_below_transfer_q3: below,
    }
}

/// OLS fit of per-transfer throughput (Mbps) against start year —
/// quantifying the Table VIII decline as a slope (Mbps/year) with r².
pub fn yearly_trend(ds: &Dataset) -> Option<LinearFit> {
    let x: Vec<f64> = ds.records().iter().map(|r| f64::from(r.start_civil().year)).collect();
    let y: Vec<f64> = ds.throughputs_mbps();
    linear_fit(&x, &y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::{group_sessions, Session};
    use gvc_logs::{TransferRecord, TransferType};

    fn rec(start_s: f64, dur_s: f64, size: u64, remote: &str) -> TransferRecord {
        TransferRecord::simple(
            TransferType::Retr,
            size,
            (start_s * 1e6) as i64,
            (dur_s * 1e6) as i64,
            "srv",
            Some(remote),
        )
    }

    fn fixture() -> Dataset {
        // Session A: 2 x 1 GB back to back over 200 s (big).
        // Session B: 1 x 1 MB over 1000 s (long and slow).
        Dataset::from_records(vec![
            rec(0.0, 100.0, 1_000_000_000, "a"),
            rec(101.0, 99.0, 1_000_000_000, "a"),
            rec(0.0, 1000.0, 1_000_000, "b"),
        ])
    }

    fn highlights(ds: &Dataset) -> SessionHighlights {
        session_highlights(&SessionStore::from_dataset(ds), 60.0)
    }

    #[test]
    fn largest_and_longest_identified() {
        let h = highlights(&fixture());
        let (size, dur, mbps) = h.largest.unwrap();
        assert_eq!(size, 2_000_000_000);
        assert!((dur - 200.0).abs() < 1e-6);
        assert!((mbps.unwrap() - 80.0).abs() < 0.1);
        let (lsize, ldur, _) = h.longest.unwrap();
        assert_eq!(lsize, 1_000_000);
        assert!((ldur - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn session_rates_sit_below_transfer_q3() {
        let h = highlights(&fixture());
        // The slow 1 MB session is below q3; the big one is at the
        // transfer rate.
        assert!(h.frac_below_transfer_q3 >= 0.5);
        assert!(h.effective_throughput_mbps.is_some());
    }

    #[test]
    fn instantaneous_sessions_do_not_pollute_rates() {
        // One healthy 80 Mbps session plus one zero-duration
        // singleton. Pre-fix the singleton contributed a bogus
        // 0.0 Mbps to the session-rate summary, halving the min.
        let ds = Dataset::from_records(vec![
            rec(0.0, 100.0, 1_000_000_000, "a"),
            rec(5000.0, 0.0, 1_000_000, "b"),
        ]);
        assert_eq!(group_sessions(&ds, 60.0).sessions.len(), 2);
        let s = highlights(&ds).effective_throughput_mbps.unwrap();
        assert_eq!(s.n, 1, "instantaneous session must be excluded");
        assert!((s.min - 80.0).abs() < 1e-6, "min {}", s.min);
    }

    /// The store-backed highlights equal the call-outs read straight
    /// off the reference grouping.
    #[test]
    fn store_backed_highlights_match_grouping_backed() {
        let ds = fixture();
        let oracle = group_sessions(&ds, 60.0);
        let triple = |s: &Session| (s.size_bytes(), s.duration_s(), s.effective_throughput_mbps());
        let rates: Vec<f64> =
            oracle.sessions.iter().filter_map(Session::effective_throughput_mbps).collect();
        let q3 = quantile(&ds.throughputs_mbps(), 0.75).unwrap();
        let h = highlights(&ds);
        assert_eq!(h.largest, oracle.sessions.iter().max_by_key(|s| s.size_bytes()).map(triple));
        assert_eq!(
            h.longest,
            oracle
                .sessions
                .iter()
                .max_by(|a, b| a.duration_s().total_cmp(&b.duration_s()))
                .map(triple)
        );
        assert_eq!(h.effective_throughput_mbps, Summary::of(&rates));
        assert_eq!(
            h.frac_below_transfer_q3,
            rates.iter().filter(|&&r| r < q3).count() as f64 / rates.len() as f64
        );
    }

    #[test]
    fn empty_grouping() {
        let h = highlights(&Dataset::new());
        assert!(h.largest.is_none());
        assert!(h.longest.is_none());
        assert!(h.effective_throughput_mbps.is_none());
        assert_eq!(h.frac_below_transfer_q3, 0.0);
    }

    #[test]
    fn yearly_trend_detects_decline() {
        // 2009 fast, 2011 slow.
        const Y2009: f64 = 1_230_768_000.0;
        const Y2011: f64 = 1_293_840_000.0;
        let mut recs = Vec::new();
        for i in 0..20 {
            recs.push(rec(Y2009 + i as f64 * 1e5, 8.0, 1_000_000_000, "p")); // 1000 Mbps
            recs.push(rec(Y2011 + i as f64 * 1e5, 24.0, 1_000_000_000, "p")); // 333 Mbps
        }
        let ds = Dataset::from_records(recs);
        let fit = yearly_trend(&ds).unwrap();
        assert!(fit.slope < -200.0, "slope {}", fit.slope);
        assert!(fit.r_squared > 0.9);
    }

    #[test]
    fn yearly_trend_none_for_single_year() {
        let ds = Dataset::from_records(vec![rec(0.0, 1.0, 1, "p"), rec(10.0, 1.0, 1, "p")]);
        assert!(yearly_trend(&ds).is_none());
    }
}
