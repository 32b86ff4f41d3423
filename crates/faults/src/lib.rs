//! Deterministic fault injection and recovery for the virtual-circuit
//! study.
//!
//! The paper's feasibility argument (§VI) holds *despite* failures:
//! OSCARS signalling can fail or time out, provisioned circuits can be
//! preempted, backbone links flap, and GridFTP servers restart
//! mid-transfer. This crate makes those failures a first-class,
//! seed-driven input so the rest of the workspace can test its
//! recovery behaviour deterministically:
//!
//! * [`FaultPlan`] / [`FaultInjector`] ([`plan`]) — scheduled and
//!   probabilistic faults under one seed; same plan ⇒ same faults.
//! * [`RecoveryPolicy`] ([`policy`]) — bounded retries with
//!   deterministic exponential backoff + jitter, a setup-timeout
//!   deadline, and fallback to the routed IP path (the contingency
//!   the paper itself assumes: transfers run today without circuits).
//!
//! The crate only decides; the GridFTP driver, which applies those
//! decisions, counts and traces them (`fault_injected_total`,
//! `recovery_*`, `fallback_ip_total`; `fault.*` events and the
//! `session.vc_setup` / `vc.attempt` / `vc.backoff` spans).
//!
//! The fault-spec grammar accepted by [`FaultPlan::parse`] (and the
//! CLI's `--faults` flag) is documented in `docs/faults.md`.

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

pub mod plan;
pub mod policy;

pub use plan::{FaultInjector, FaultKind, FaultPlan, FaultSpecError, LinkFlapSpec};
pub use policy::{PolicyError, RecoveryAction, RecoveryPolicy};
