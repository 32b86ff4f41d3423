//! The paper's contribution: GridFTP transfer-log analysis for
//! dynamic virtual-circuit feasibility.
//!
//! Every analysis in the SC 2012 paper is implemented here, each in
//! its own module, operating on [`gvc_logs::Dataset`] values (real or
//! simulator-generated):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`sweep`] | the session index (§V/§VI-A grouping with gap `g`) behind every session analysis, and the one-pass Table III/IV grid |
//! | [`sessions`] | the reference session grouper, kept as the test oracle for [`sweep`] |
//! | [`tables`] | Tables I, II, V, VI, VII (descriptive summaries) |
//! | [`gap_sensitivity`] | Table III (session counts vs `g`) |
//! | [`mod@vc_suitability`] | Table IV cells (% sessions/transfers that tolerate VC setup delay), plus the reference scorer |
//! | [`factors`] | Tables VIII, IX (year- and stripe-based throughput) |
//! | [`stream_analysis`] | Figs. 3, 4, 5 (streams × file-size bins) |
//! | [`time_of_day`] | Fig. 6 (throughput vs start hour) |
//! | [`snmp_attr`] | Eq. 1, Tables X, XIII (byte attribution, link load) |
//! | [`snmp_corr`] | Tables XI, XII (GridFTP vs SNMP correlations) |
//! | [`concurrency`] | Eq. 2, Figs. 7, 8 (concurrent-transfer prediction) |
//! | [`scatter`] | Fig. 2 (throughput vs file size) |
//! | [`report`] | finding (i): the headline feasibility numbers |

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_types,
    clippy::disallowed_macros
)]

pub mod concurrency;
pub mod factors;
pub mod gap_sensitivity;
pub mod report;
pub mod scatter;
pub mod sessions;
pub mod snmp_attr;
pub mod snmp_corr;
pub mod stream_analysis;
pub mod sweep;
pub mod tables;
pub mod time_of_day;
pub mod vc_suitability;

pub use report::{feasibility_report, FeasibilityReport, ResilienceSummary};
pub use sessions::{group_sessions, Session, SessionGrouping};
pub use sweep::{sweep_dataset, SessionRange, SessionStore, SessionView, SweepResult};
pub use vc_suitability::{vc_suitability, VcSuitability};
