//! GridFTP usage-statistics log data model.
//!
//! §II of the paper describes the record the Globus GridFTP usage
//! logger emits per transfer: transfer type (STOR/RETR), size in
//! bytes, start time, duration, server identity, number of parallel
//! TCP streams, number of stripes, TCP buffer size, and block size —
//! with the remote endpoint either present (NCAR, SLAC local logs) or
//! anonymized (the NERSC dataset, which is why those transfers could
//! not be grouped into sessions). This crate is that record, the
//! dataset container the analyses operate on, a lossless text
//! serialization, the anonymizer, and the SNMP 30-second interface
//! counter series used by §VII-C.

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

pub mod anonymize;
pub mod collector;
pub mod dataset;
pub mod io;
pub mod record;
pub mod snmp;

pub use anonymize::anonymize_dataset;
pub use collector::CollectorModel;
pub use dataset::Dataset;
pub use io::{parse_dataset, write_dataset, ParseError};
pub use record::{EndpointKind, TransferRecord, TransferType};
pub use snmp::{SnmpSample, SnmpSeries};
