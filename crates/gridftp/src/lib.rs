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

pub mod driver;
pub mod server;
pub mod session;
pub mod transfer;

pub use driver::{Driver, DriverOutput, ResilienceReport, TransferStat, TstatReport};
pub use server::{ServerCaps, ServerCluster};
pub use session::{SessionSpec, VcRequestSpec};
pub use transfer::{FailureModel, ServerNoise, TransferJob};
