//! OSCARS-style dynamic virtual-circuit service.
//!
//! §IV of the paper describes the ESnet OSCARS Inter-Domain Controller
//! (IDC): users send `createReservation` with start time, end time,
//! bandwidth and endpoints; the IDC admits or blocks the request
//! against its per-link advance-reservation calendar, selects a path,
//! and provisions the circuit at the scheduled start — with a setup
//! delay that is "minimally 1 min" in the deployed implementation
//! (requests are batched per minute) and could be ~50 ms were setup
//! processing implemented in hardware. Both delay models are
//! first-class here because Table IV's feasibility percentages are
//! computed under both.
//!
//! * [`calendar`] — per-link piecewise bandwidth commitments over time;
//! * [`setup`] — the setup-delay models (fixed, batched);
//! * [`reservation`] — request/reservation lifecycle types;
//! * [`idc`] — the controller: CSPF admission, provisioning,
//!   teardown, blocking statistics.

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

pub mod calendar;
pub mod idc;
pub mod interdomain;
pub mod reservation;
pub mod setup;

pub use calendar::{LinkCalendar, NetworkCalendar};
pub use idc::{BlockReason, Idc, IdcError, IdcStats};
pub use interdomain::{Domain, InterDomainBlock, InterDomainCircuit, InterDomainController};
pub use reservation::{Reservation, ReservationId, ReservationRequest, ReservationState};
pub use setup::SetupDelayModel;
