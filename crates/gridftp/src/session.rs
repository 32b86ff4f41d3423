//! Session scripts.
//!
//! §V: "The term session refers to multiple transfers executed in
//! batch mode by an automated script" — scientists move whole
//! directories with one command. Scripts run transfers back-to-back
//! (small positive gaps) or several at a time (which is how *negative*
//! gaps between consecutive log entries arise). A session may also
//! request a dynamic virtual circuit for its whole lifetime: "a
//! virtual circuit, once established, can be used for all transfers
//! within a session before VC release" (§VI-A).

use crate::transfer::TransferJob;

/// A circuit request attached to a session. The script blocks until
/// the circuit is usable, or the pursuit of it ends, before starting
/// its first transfer: the Table IV usage pattern.
#[derive(Debug, Clone, Copy)]
pub struct VcRequestSpec {
    /// Guaranteed rate to reserve, bps.
    pub rate_bps: f64,
    /// Reservation window length, seconds (from session start).
    pub max_duration_s: f64,
}

/// The reservation window a circuit-backed session asks for: 3x the
/// at-rate transfer time of its `total_bytes` plus an hour of
/// think/setup slack. Generous and deterministic.
pub fn reservation_window_s(total_bytes: f64, rate_bps: f64) -> f64 {
    3.0 * (total_bytes * 8.0) / rate_bps + 3_600.0
}

/// A batch script: an ordered list of file transfers between one
/// server pair.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The files to move, in order.
    pub jobs: Vec<TransferJob>,
    /// Gap between one transfer's (logged) end and the next start,
    /// seconds. Zero for tight batch loops.
    pub inter_transfer_gap_s: f64,
    /// Transfers kept in flight simultaneously (≥ 1). Values > 1
    /// produce the concurrent starts / negative log gaps of §V.
    pub concurrency: u32,
    /// Optional circuit for the session's lifetime.
    pub vc: Option<VcRequestSpec>,
}

impl SessionSpec {
    /// A sequential session with the given jobs and gap.
    pub fn sequential(jobs: Vec<TransferJob>, gap_s: f64) -> SessionSpec {
        SessionSpec { jobs, inter_transfer_gap_s: gap_s, concurrency: 1, vc: None }
    }

    /// Sets the concurrency, returning `self`.
    ///
    /// # Panics
    /// Panics when `concurrency == 0`.
    pub fn with_concurrency(mut self, concurrency: u32) -> SessionSpec {
        assert!(concurrency >= 1, "concurrency must be at least 1");
        self.concurrency = concurrency;
        self
    }

    /// Attaches a circuit request, returning `self`.
    pub fn with_vc(mut self, vc: VcRequestSpec) -> SessionSpec {
        self.vc = Some(vc);
        self
    }

    /// Total payload of the session, bytes (the Table I/II "session
    /// size").
    pub fn total_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let jobs = vec![
            TransferJob { size_bytes: 100, ..TransferJob::default() },
            TransferJob { size_bytes: 200, ..TransferJob::default() },
        ];
        let s = SessionSpec::sequential(jobs, 1.0);
        assert_eq!(s.total_bytes(), 300);
        assert_eq!(s.jobs.len(), 2);
        assert_eq!(s.concurrency, 1);
    }

    #[test]
    fn builders() {
        let s = SessionSpec::sequential(vec![], 0.0)
            .with_concurrency(4)
            .with_vc(VcRequestSpec { rate_bps: 1e9, max_duration_s: 600.0 });
        assert_eq!(s.concurrency, 4);
        assert!(s.vc.is_some());
        assert!(s.jobs.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_concurrency_panics() {
        let _ = SessionSpec::sequential(vec![], 0.0).with_concurrency(0);
    }
}
