//! # gridftp-vc
//!
//! A from-scratch reproduction of *"On using virtual circuits for
//! GridFTP transfers"* (SC 2012): the paper's GridFTP-log analysis
//! methodology plus every substrate it rests on — a discrete-event
//! fluid network simulator, an ESnet-like topology, an OSCARS-style
//! dynamic virtual-circuit scheduler, a GridFTP data-transfer-node
//! model, and calibrated workload generators standing in for the
//! proprietary NERSC/NCAR/SLAC log extracts.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! one roof so applications can depend on a single package.
//!
//! ## Quick start
//!
//! ```
//! use gridftp_vc::prelude::*;
//!
//! // Build the study topology and a fluid network simulation on it.
//! let topo = study_topology();
//! let sim = NetworkSim::new(topo.graph.clone(), 0);
//! let mut driver = Driver::new(sim, 42);
//!
//! // Register two GridFTP clusters and move one 1 GB file.
//! let src = driver.register_cluster("src.example", topo.dtn(Site::Nersc), ServerCaps::default(), 1);
//! let dst = driver.register_cluster("dst.example", topo.dtn(Site::Ornl), ServerCaps::default(), 1);
//! driver.schedule_transfer(SimTime::ZERO, src, dst, TransferJob::default());
//!
//! let out = driver.run(SimTime::from_secs(86_400));
//! assert_eq!(out.log.len(), 1);
//!
//! // Analyze the log the way the paper does.
//! let report = feasibility_report(&out.log);
//! assert_eq!(report.n_transfers, 1);
//! ```
//!
//! ## Layout
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`stats`] | `gvc-stats` | quantiles, summaries, correlation, binning, distributions |
//! | [`engine`] | `gvc-engine` | simulation time, event queue, civil calendar |
//! | [`topology`] | `gvc-topology` | graph, Dijkstra/CSPF, study topology |
//! | [`net`] | `gvc-net` | max-min fair fluid simulator, TCP model, SNMP counters |
//! | [`oscars`] | `gvc-oscars` | reservation calendar, IDC, setup-delay models |
//! | [`gridftp`] | `gvc-gridftp` | server clusters, transfers, sessions, the driver |
//! | [`hntes`] | `gvc-hntes` | α-flow identification and LSP redirection |
//! | [`logs`] | `gvc-logs` | usage-log records, datasets, serialization |
//! | [`core`] | `gvc-core` | the paper's analyses (sessions, Table IV, Eq. 1/2, …) |
//! | [`workload`] | `gvc-workload` | calibrated scenario generators and ablations |
//! | [`faults`] | `gvc-faults` | fault plans, injection, retry/backoff recovery policy |
//! | [`telemetry`] | `gvc-telemetry` | metrics registry, JSONL tracing, spans, run manifests, offline trace analysis |
//! | [`scenario`] | `gvc-scenario` | declarative scenario specs, corpus loader, golden-output regression gate |

pub use gvc_core as core;
pub use gvc_engine as engine;
pub use gvc_faults as faults;
pub use gvc_gridftp as gridftp;
pub use gvc_hntes as hntes;
pub use gvc_logs as logs;
pub use gvc_net as net;
pub use gvc_oscars as oscars;
pub use gvc_scenario as scenario;
pub use gvc_stats as stats;
pub use gvc_telemetry as telemetry;
pub use gvc_topology as topology;
pub use gvc_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use gvc_core::{feasibility_report, sweep_dataset, FeasibilityReport, SessionStore};
    pub use gvc_engine::{SimSpan, SimTime};
    pub use gvc_faults::{FaultPlan, RecoveryPolicy};
    pub use gvc_gridftp::{Driver, ServerCaps, SessionSpec, TransferJob};
    pub use gvc_logs::{Dataset, EndpointKind, TransferRecord, TransferType};
    pub use gvc_net::{FlowSpec, NetworkSim, TcpModel};
    pub use gvc_oscars::{Idc, ReservationRequest, SetupDelayModel};
    pub use gvc_stats::Summary;
    pub use gvc_topology::{study_topology, Site};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Spot-check that the re-exported paths are usable.
        let _ = crate::prelude::SimTime::from_secs(1);
        let t = crate::topology::study_topology();
        assert!(t.graph.node_count() > 10);
        let s = crate::stats::Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!(s.n, 2);
        let p = crate::faults::FaultPlan::parse("seed=9,fail-first=1").unwrap();
        assert_eq!(p.seed, 9);
        assert!(crate::prelude::RecoveryPolicy::default().validate().is_ok());
        assert!(!crate::telemetry::Telemetry::default().tracer.enabled());
        assert!(crate::telemetry::SpanId::NONE.is_none());
        let model = crate::telemetry::TraceModel::from_text("").unwrap();
        assert!(crate::telemetry::check(&model, &Default::default()).clean());
        let err = crate::scenario::ScenarioSpec::parse("").unwrap_err();
        assert!(err.to_string().contains("[scenario]"));
    }
}
