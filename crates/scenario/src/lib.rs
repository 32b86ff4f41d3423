//! gvc-scenario: declarative scenarios with golden-output gating.
//!
//! ROADMAP item 5: the repo simulates the paper's four ESnet paths; a
//! production system must eat any topology and workload thrown at it
//! and prove, on every PR, that it still produces the same answers.
//! This crate turns that claim into a gate:
//!
//! * [`spec`] — the `*.scn` text format: topology (study | declarative
//!   graph | multi-domain chain), workload (the paper's four path
//!   generators, NorduGrid-style steady Poisson arrivals,
//!   PAMELA-style periodic downlink bursts, flash crowds), an optional
//!   `gvc-faults` plan, a seed, and expectation bounds;
//! * [`topo`] — resolves a spec's topology into the flat [`gvc_topology`]
//!   graph the driver runs over (chains also yield per-domain IDC
//!   views for the interdomain probe);
//! * [`workload`] — deterministic synthetic session schedules from the
//!   spec's seed;
//! * [`runner`] — drives the full driver/faults/telemetry stack and
//!   evaluates expectation bounds;
//! * [`golden`] — canonical report JSON (wall-clock-free, so reruns
//!   are byte-identical per seed) and line-level
//!   diffs;
//! * [`corpus`] — discovery and golden-file layout for a `scenarios/`
//!   tree.
//!
//! The CLI surfaces all of it as `gvc scenario run|record|diff|list`;
//! CI runs the committed corpus as a blocking matrix job.

use std::fmt;

pub mod corpus;
pub mod golden;
pub mod runner;
pub mod spec;
pub mod topo;
pub mod workload;

pub use corpus::{discover, CorpusEntry, Goldens};
pub use golden::{line_diff, report_json};
pub use runner::{run_scenario, ScenarioOutcome};
pub use spec::{ScenarioSpec, SpecError};

/// Any scenario failure: parse, I/O, or run-time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec text failed to parse or validate.
    Spec(SpecError),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error.
        message: String,
    },
    /// The spec parsed but could not be executed.
    Run(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Spec(e) => write!(f, "{e}"),
            ScenarioError::Io { path, message } => write!(f, "{path}: {message}"),
            ScenarioError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<SpecError> for ScenarioError {
    fn from(e: SpecError) -> ScenarioError {
        ScenarioError::Spec(e)
    }
}
