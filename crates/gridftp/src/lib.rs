//! GridFTP data-transfer-node model.
//!
//! GridFTP (§II) raises throughput with *streaming* (parallel TCP
//! connections) and *striping* (data blocks spread over multiple
//! servers per end), and its usage logger records one entry per file.
//! This crate models the pieces of that stack that shape the paper's
//! measurements:
//!
//! * [`server`] — a site's GridFTP cluster: per-server NIC/disk/CPU
//!   capacities registered as fair-share resources, so concurrent
//!   transfers at one node compete for the server (Eq. 2's `R`) and
//!   disk endpoints cap below memory endpoints (Table VI);
//! * [`transfer`] — turning one file movement (size, streams, stripes,
//!   endpoint kinds) into a capped fluid flow plus its logged record;
//! * [`session`] — batch scripts: one-or-more transfers back-to-back,
//!   optionally several in flight at once (which is what produces the
//!   *negative* inter-transfer gaps of §V);
//! * [`driver`] — the event loop marrying session scripts, background
//!   traffic, optional OSCARS circuits, and the fluid simulator, and
//!   emitting the usage log the analyses consume.

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

pub mod driver;
pub mod server;
pub mod session;
pub mod transfer;

pub use driver::{Driver, DriverOutput, ResilienceReport};
pub use server::{ServerCaps, ServerCluster};
pub use session::{reservation_window_s, SessionSpec, VcRequestSpec};
pub use transfer::{FailureModel, ServerNoise, TransferJob};
