//! Calibrated scenario generators.
//!
//! The paper analyzed four proprietary log extracts. We cannot have
//! them; instead each module here *synthesizes* the corresponding
//! dataset by driving the full simulator (topology → fluid network →
//! server clusters → session scripts) with stochastic workload
//! parameters calibrated to the marginal statistics the paper quotes.
//! The analyses in `gvc-core` then consume the synthetic logs exactly
//! as they would the real ones.
//!
//! | Module | Paper dataset | Drives |
//! |---|---|---|
//! | [`ncar_nics`] | NCAR–NICS 2009–2011, 52 454 transfers, frost cluster 3→2→1 servers | Tables I, III, IV, VII, VIII, IX |
//! | [`slac_bnl`] | SLAC–BNL Feb–Apr 2012, 1 021 999 transfers, 1- vs 8-stream | Tables II, III, IV; Figs. 2–5 |
//! | [`nersc_ornl`] | 145 × 32 GB test transfers, Sep 2010, SNMP on 5 routers | Tables V, X–XIII; Fig. 6 |
//! | [`nersc_anl`] | 334 typed test transfers (mem/disk × mem/disk) | Table VI; Figs. 1, 7, 8 |
//! | [`ablations`] | — | the VC-vs-IP variance and isolation experiments motivated in §I/§IV |
//! | [`combined`] | — | all four paths on one shared backbone: the cross-path interference check behind the paper's per-path methodology |
//!
//! Every generator takes a seed and a `scale` knob (1.0 = paper-sized
//! datasets; tests use small scales), and is deterministic in both.

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

pub mod ablations;
pub mod combined;
pub mod ncar_nics;
pub mod nersc_anl;
pub mod nersc_ornl;
pub mod registry;
pub mod slac_bnl;

pub use registry::{builtin_generator, builtin_names, BuiltinGenerator, BUILTIN_GENERATORS};

/// The largest `scale` a caller may ask a generator for: ten times the
/// paper's datasets. `gvc generate --scale` and a scenario spec's
/// `scale` key both refuse anything above it, because a generator
/// sizes its session list from the scale before drawing a single one.
pub const MAX_SCALE: f64 = 10.0;

/// Unix microseconds for 2009-01-01T00:00:00Z — the NCAR window start
/// and the default simulation epoch.
pub const EPOCH_2009_US: i64 = 1_230_768_000_000_000;
/// Unix microseconds for 2010-09-01T00:00:00Z (NERSC–ORNL window).
pub const EPOCH_SEP_2010_US: i64 = 1_283_299_200_000_000;
/// Unix microseconds for 2012-02-01T00:00:00Z (SLAC–BNL window).
pub const EPOCH_FEB_2012_US: i64 = 1_328_054_400_000_000;
/// Unix microseconds for 2012-03-04T00:00:00Z (NERSC–ANL window).
pub const EPOCH_MAR_2012_US: i64 = 1_330_819_200_000_000;
