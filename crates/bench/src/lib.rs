//! Reproduction harness: scenario bundling and the per-experiment
//! renderers behind the `repro` binary.
//!
//! Every table and figure of the paper has a function here that
//! regenerates it from the synthetic scenarios and renders it in the
//! paper's row format. The `repro` binary is a thin dispatcher; the
//! functions are also exercised directly by the workspace integration
//! tests.

pub mod experiments;
pub mod fmt;
pub mod perfsuite;
pub mod scenarios;

pub use experiments::{run_experiment, run_experiments, EXPERIMENT_IDS};
pub use scenarios::{Scale, Scenarios};
