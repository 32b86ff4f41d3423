//! Discrete-event simulation kernel.
//!
//! The network, circuit, and GridFTP models are all driven from one
//! event loop: flow arrivals/departures, SNMP 30-second sampling ticks,
//! OSCARS provisioning batches, and session-script steps are events on
//! a shared queue. The kernel provides:
//!
//! * [`SimTime`] / [`SimSpan`] — instants and durations in integer
//!   microseconds, so event ordering is exact and runs are bit-for-bit
//!   reproducible (no floating-point clock drift);
//! * [`EventQueue`] — a binary-heap calendar with deterministic FIFO
//!   tie-breaking among simultaneous events;
//! * [`calendar`] — civil date/time conversion, because the paper's
//!   analyses group transfers by wall-clock year (Table VIII) and by
//!   time of day (Fig. 6).

pub mod calendar;
pub mod queue;
pub mod time;

pub use calendar::{CivilDateTime, EPOCH_2009_UTC};
pub use queue::EventQueue;
pub use time::{SimSpan, SimTime};
