//! Flow-level wide-area network simulator.
//!
//! The study's transfers are α flows: long-lived, high-rate TCP
//! aggregates whose behaviour is captured well by a *fluid* model —
//! each active flow holds a piecewise-constant rate, recomputed by a
//! max-min fair-share solver whenever the set of flows changes. This is
//! the standard abstraction for TCP fair sharing on shared links and is
//! what lets a multi-year log window simulate in seconds.
//!
//! The pieces:
//!
//! * [`fairshare`] — progressive-filling max-min allocation with
//!   per-flow minimum guarantees (virtual circuits) and maximums
//!   (TCP window / server caps);
//! * [`tcp`] — the throughput caps and slow-start penalty that make
//!   stream count matter for small files (Figs. 3–4) and not large;
//! * [`flow`] / [`sim`] — the event-driven fluid simulator with
//!   *resources* (server NIC/disk/CPU capacity) treated as first-class
//!   capacity constraints alongside links, so Eq. 2's server sharing
//!   falls out of the same solver;
//! * [`snmp_rec`] — per-interface 30-second byte counters (§VII-C);
//! * [`background`] — Poisson on-off cross traffic for the link-load
//!   analysis;
//! * [`jitter`] — the analytic queueing-jitter proxy behind the
//!   virtual-queue isolation ablation (the paper's positive #3);
//! * [`queue_sim`] — a packet-level single-interface simulator that
//!   validates the analytic model and measures tail (p99) jitter under
//!   shared-FIFO vs isolated disciplines.

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

pub mod background;
pub mod fairshare;
pub mod flow;
pub mod jitter;
pub mod queue_sim;
pub mod sim;
pub mod snmp_rec;
pub mod tcp;

pub use fairshare::{max_min_allocation, CapacityConstraint, FlowDemand};
pub use flow::{FlowCompletion, FlowId, FlowSpec, ResourceId};
pub use sim::{FlowTrace, NetworkSim};
pub use tcp::TcpModel;
