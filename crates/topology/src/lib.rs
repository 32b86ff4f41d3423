//! Network-graph substrate.
//!
//! Models the wide-area plant the paper's transfers cross: hosts (data
//! transfer nodes), routers, and directed links with capacity and
//! propagation delay. A physical fiber is two directed links, because
//! everything downstream is direction-sensitive — SNMP byte counts are
//! collected per *egress interface* (§VII-C), and a STOR transfer loads
//! the opposite direction from a RETR.
//!
//! On top of the graph sit the two path algorithms the study needs:
//! plain shortest-path (delay metric) for IP routing, and
//! bandwidth-constrained shortest path (CSPF) for OSCARS circuit
//! placement. [`builders`] constructs the ESnet-like study topology
//! hosting the four measured paths (NERSC–ORNL, NERSC–ANL, NCAR–NICS,
//! SLAC–BNL).

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

pub mod builders;
pub mod dijkstra;
pub mod graph;
pub mod path;

pub use builders::{study_topology, Site, StudyTopology};
pub use dijkstra::{constrained_shortest_path, shortest_path};
pub use graph::{Graph, Link, LinkId, Node, NodeId, NodeKind};
pub use path::Path;
