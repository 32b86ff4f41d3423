//! Hybrid network traffic engineering (HNTES-style).
//!
//! §IV of the paper sketches how a provider can get the isolation and
//! path-control benefits of circuits *without* waiting for users to
//! request them: "With automatic α flow identification, packets from
//! α flows can be redirected to intra-domain VCs, such as MPLS label
//! switched paths, that have been preconfigured between
//! ingress-egress router pairs." This crate builds that system (the
//! authors' own follow-on project, HNTES):
//!
//! * [`flowrec`] — router flow records (the NetFlow-like export a
//!   provider actually sees, source/destination + bytes + duration);
//! * [`classifier`] — α-flow identification by size and rate
//!   thresholds, after Sarvotham et al.'s α/β decomposition and the
//!   Lan & Heidemann elephant/cheetah taxonomy cited by the paper;
//! * [`controller`] — the offline-learning controller: α flows
//!   observed in one measurement interval install redirection rules
//!   (ingress-egress pairs → pre-provisioned LSP) that capture the
//!   *next* interval's α traffic;
//! * [`experiment`] — the capture-rate harness: what fraction of
//!   α bytes does threshold-based offline identification redirect,
//!   and how many general-purpose flows does it misdirect?
//! * [`taxonomy`] — the Lan & Heidemann elephant/tortoise/cheetah/
//!   porcupine classification (§III), applied to fluid-simulator
//!   completions via their tracked peak rates.

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

pub mod classifier;
pub mod controller;
pub mod experiment;
pub mod flowrec;
pub mod taxonomy;

pub use classifier::{AlphaClassifier, FlowClass};
pub use controller::{HntesController, RedirectRule};
pub use experiment::{capture_experiment, CaptureReport};
pub use flowrec::FlowRecord;
pub use taxonomy::{classify, FlowDims, FlowTags, TaxonomyReport};
