//! The headline feasibility report (finding i).
//!
//! Bundles the session, gap-sensitivity and VC-suitability analyses
//! for one dataset into the numbers the paper leads with: "Of the
//! NCAR–NICS sessions analyzed, 56% of all sessions (90% of all
//! transfers) would have been long enough to be served with dynamic VC
//! service."

use crate::gap_sensitivity::GapRow;
use crate::sweep::SessionStore;
use crate::tables::{session_table, SessionTable};
use crate::vc_suitability::{VcSuitability, DEFAULT_OVERHEAD_FACTOR};
use gvc_logs::Dataset;
use gvc_telemetry::RunManifest;

/// The paper's standard parameter grid.
pub const PAPER_GAPS_S: [f64; 3] = [0.0, 60.0, 120.0];
/// Table IV's two setup-delay assumptions: the ESnet 1 min and the
/// hardware 50 ms.
pub const PAPER_SETUP_DELAYS_S: [f64; 2] = [60.0, 0.05];

/// Everything finding (i) needs for one dataset.
#[derive(Debug, Clone)]
pub struct FeasibilityReport {
    /// Provenance stamp: analysis parameters, their digest, crate
    /// version, and wall-clock start — so a report can be traced back
    /// to the exact configuration that produced it.
    pub manifest: RunManifest,
    /// Transfers in the dataset.
    pub n_transfers: usize,
    /// Table I/II-style summary at g = 1 min (`None` for an empty
    /// dataset).
    pub session_table_g1: Option<SessionTable>,
    /// Table III rows over the paper's g grid.
    pub gap_rows: Vec<GapRow>,
    /// Table IV cells over the (g, setup delay) grid, in
    /// `for g { for delay }` order.
    pub suitability: Vec<VcSuitability>,
    /// Zero/negative-duration records in the dataset — excluded from
    /// the throughput distribution (and hence from the q3 the
    /// suitability analysis extrapolates with), surfaced here so a
    /// report never hides data-quality problems.
    pub degenerate_records: usize,
    /// Fault/recovery outcomes from a simulated run, when the report
    /// accompanies one (see [`FeasibilityReport::with_resilience`]).
    pub resilience: Option<ResilienceSummary>,
}

/// Fault/recovery outcomes folded into the feasibility picture.
///
/// The suitability analysis asks whether a session is long enough to
/// amortize *one* circuit setup. Under failures a session pays setup
/// signalling once per establishment attempt, and only
/// `session_success_rate` of requesting sessions get a circuit at all
/// — both corrections come from these counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceSummary {
    /// Sessions that requested a circuit.
    pub vc_requested: u64,
    /// Sessions whose circuit was eventually established.
    pub vc_established: u64,
    /// Faults injected during the run (all kinds).
    pub faults_injected: u64,
    /// Establishment attempts retried.
    pub retries: u64,
    /// Sessions that fell back to the routed IP path.
    pub fallbacks: u64,
    /// Mean first-attempt-to-outcome latency over sessions that needed
    /// recovery, seconds.
    pub mean_recovery_latency_s: f64,
}

impl ResilienceSummary {
    /// Fraction of circuit-requesting sessions that got one (1.0 when
    /// none asked).
    pub fn session_success_rate(&self) -> f64 {
        if self.vc_requested == 0 {
            1.0
        } else {
            self.vc_established as f64 / self.vc_requested as f64
        }
    }

    /// Mean establishment attempts per circuit-requesting session
    /// (1.0 with no retries). Each retry pays the signalling again, so
    /// this is also the multiple by which the setup cost a session must
    /// amortize ("session >= factor x setup") rises under failures.
    pub fn attempts_per_session(&self) -> f64 {
        if self.vc_requested == 0 {
            1.0
        } else {
            1.0 + self.retries as f64 / self.vc_requested as f64
        }
    }
}

impl FeasibilityReport {
    /// Attaches fault/recovery outcomes from a simulated run,
    /// returning `self`.
    pub fn with_resilience(mut self, resilience: ResilienceSummary) -> FeasibilityReport {
        self.resilience = Some(resilience);
        self
    }

    /// The Table IV cell for a given g and setup delay (seconds).
    pub fn cell(&self, gap_s: f64, setup_delay_s: f64) -> Option<&VcSuitability> {
        self.suitability.iter().find(|c| c.gap_s == gap_s && c.setup_delay_s == setup_delay_s)
    }

    /// The headline: % sessions and % transfers suitable at g = 1 min
    /// under the deployed 1-minute setup delay.
    pub fn headline(&self) -> Option<(f64, f64)> {
        self.cell(60.0, 60.0).map(|c| (c.pct_sessions(), c.pct_transfers()))
    }
}

/// Runs the full finding-(i) analysis over a dataset.
pub fn feasibility_report(ds: &Dataset) -> FeasibilityReport {
    // The analysis is deterministic (no RNG), so the manifest's seed
    // slot is fixed at 0 and the config string covers every parameter
    // of the grid plus the dataset size.
    let config = format!(
        "n_transfers={} gaps_s={:?} setup_delays_s={:?} overhead_factor={}",
        ds.len(),
        PAPER_GAPS_S,
        PAPER_SETUP_DELAYS_S,
        DEFAULT_OVERHEAD_FACTOR,
    );
    // One store, one sweep: Table III rows and Table IV cells for the
    // whole grid come out of a single monotone-merge pass instead of
    // one regrouping per gap value.
    let store = SessionStore::from_dataset(ds);
    let sweep = store.sweep(&PAPER_GAPS_S, &PAPER_SETUP_DELAYS_S, DEFAULT_OVERHEAD_FACTOR);
    FeasibilityReport {
        manifest: RunManifest::new("feasibility-report", 0, &config),
        n_transfers: ds.len(),
        session_table_g1: session_table(&store, 60.0),
        gap_rows: sweep.gap_rows,
        suitability: sweep.cells,
        degenerate_records: sweep.degenerate_records,
        resilience: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::{TransferRecord, TransferType};

    fn dataset() -> Dataset {
        // Ten sessions: five large multi-transfer, five tiny
        // singletons, all at ~8 Mbps.
        let mut recs = Vec::new();
        let mut t = 0i64;
        for s in 0..5 {
            for _ in 0..10 {
                recs.push(TransferRecord::simple(
                    TransferType::Retr,
                    500_000_000,
                    t,
                    500_000_000, // 500 s
                    "srv",
                    Some(&format!("big{s}")),
                ));
                t += 510_000_000;
            }
            t += 3_600_000_000;
        }
        for s in 0..5 {
            recs.push(TransferRecord::simple(
                TransferType::Retr,
                1_000_000,
                t,
                1_000_000,
                "srv",
                Some(&format!("small{s}")),
            ));
            t += 3_600_000_000;
        }
        Dataset::from_records(recs)
    }

    #[test]
    fn report_structure() {
        let r = feasibility_report(&dataset());
        assert_eq!(r.n_transfers, 55);
        assert_eq!(r.gap_rows.len(), 3);
        assert_eq!(r.suitability.len(), 6);
        assert!(r.session_table_g1.is_some());
        assert_eq!(r.degenerate_records, 0);
    }

    #[test]
    fn degenerate_records_surfaced() {
        let mut recs = dataset().records().to_vec();
        recs.push(TransferRecord::simple(
            TransferType::Retr,
            1_000,
            999_000_000_000,
            0,
            "srv",
            Some("deg"),
        ));
        let r = feasibility_report(&Dataset::from_records(recs));
        assert_eq!(r.degenerate_records, 1);
    }

    #[test]
    fn manifest_stamps_parameters_and_is_stable() {
        let r = feasibility_report(&dataset());
        assert_eq!(r.manifest.tool, "feasibility-report");
        assert_eq!(r.manifest.seed, 0);
        assert!(r.manifest.config.contains("n_transfers=55"), "{}", r.manifest.config);
        assert!(r.manifest.config.contains("overhead_factor="), "{}", r.manifest.config);
        // Same dataset and grid => same digest (wall clock may differ).
        let again = feasibility_report(&dataset());
        assert_eq!(r.manifest.config_digest, again.manifest.config_digest);
    }

    #[test]
    fn headline_cell_exists_and_is_consistent() {
        let r = feasibility_report(&dataset());
        let (pct_s, pct_t) = r.headline().unwrap();
        // Five big sessions of 5 GB are suitable (hypothetical
        // duration 5000 s >> 600 s); five tiny are not.
        assert!((pct_s - 50.0).abs() < 1e-9, "{pct_s}");
        assert!((pct_t - 50.0 / 55.0 * 100.0).abs() < 1e-9, "{pct_t}");
    }

    #[test]
    fn faster_setup_weakly_improves_suitability() {
        let r = feasibility_report(&dataset());
        for &g in &PAPER_GAPS_S {
            let slow = r.cell(g, 60.0).unwrap().pct_sessions();
            let fast = r.cell(g, 0.05).unwrap().pct_sessions();
            assert!(fast >= slow);
        }
    }

    #[test]
    fn resilience_summary_attaches_and_derives_rates() {
        let r = feasibility_report(&dataset());
        assert!(r.resilience.is_none());
        let rs = ResilienceSummary {
            vc_requested: 4,
            vc_established: 3,
            faults_injected: 6,
            retries: 6,
            fallbacks: 1,
            mean_recovery_latency_s: 42.0,
        };
        let r = r.with_resilience(rs);
        let got = r.resilience.unwrap();
        assert!((got.session_success_rate() - 0.75).abs() < 1e-12);
        // 6 retries over 4 sessions: 2.5 attempts each on average, so
        // the amortization bar rises 2.5x.
        assert!((got.attempts_per_session() - 2.5).abs() < 1e-12);
        // No circuit requests => vacuous success, unchanged bar.
        let idle = ResilienceSummary { vc_requested: 0, vc_established: 0, ..rs };
        assert!((idle.session_success_rate() - 1.0).abs() < 1e-12);
        assert!((idle.attempts_per_session() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_report() {
        let r = feasibility_report(&Dataset::new());
        assert_eq!(r.n_transfers, 0);
        assert!(r.session_table_g1.is_none());
        assert_eq!(r.headline(), Some((0.0, 0.0)));
    }
}
