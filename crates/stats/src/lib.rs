//! Statistics substrate for the GridFTP virtual-circuit study.
//!
//! The SC 2012 paper reports every result as R-style descriptive
//! statistics: five-number summaries with means (Tables I–IX, XIII),
//! Pearson correlations (Tables XI, XII, Fig. 8), file-size binning with
//! per-bin medians (Figs. 3–5), and boxplots (Fig. 1). This crate
//! implements those estimators exactly (quantiles use R's default
//! type-7 interpolation) so the analysis layer reproduces the paper's
//! table semantics, plus the seeded sampling distributions the workload
//! generators use to synthesize datasets with the paper's marginals.
//!
//! Everything here is deterministic given a seed: the sampling side is
//! built on [`rand::rngs::SmallRng`] streams derived by
//! [`rng::child_seed`] so that adding a new consumer never perturbs an
//! existing one.

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

pub mod boxplot;
pub mod correlation;
pub mod dist;
pub mod ecdf;
pub mod hist;
pub mod quantile;
pub mod rng;
pub mod summary;

pub use boxplot::BoxplotSummary;
pub use correlation::{covariance, pearson, spearman};
pub use dist::{
    Distribution, Empirical, Exponential, LogNormal, Mixture, Pareto, TruncNormal, UniformRange,
};
pub use ecdf::Ecdf;
pub use hist::{BinnedSeries, Histogram};
pub use quantile::{median, quantile, quartiles};
pub use rng::{child_seed, seeded_rng};
pub use summary::Summary;
