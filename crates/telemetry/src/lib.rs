//! Telemetry spine for the GridFTP virtual-circuit study.
//!
//! Three layers, all std-only and safe to leave compiled into hot
//! paths:
//!
//! * [`metrics`] — a lightweight registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s with labels, plus a
//!   Prometheus-style text exposition writer ([`Registry::render`]).
//! * [`trace`] — structured simulation tracing: a [`TraceSink`] trait
//!   with JSONL-file and in-memory buffer implementations, a cheap
//!   cloneable [`Tracer`] handle whose disabled state is a single
//!   branch, and the [`Stopwatch`] host-time reader.
//! * [`manifest`] — [`RunManifest`]: the RNG seed, config digest,
//!   crate version, and wall-clock start of a run, so every emitted
//!   report is reproducible-by-construction.
//! * [`span`] — hierarchical spans over the trace stream: parent
//!   links and deterministic ids, emitted as `span.start`/`span.end`
//!   events and free when no sink is attached.
//! * [`analyze`] — the offline side: parse a `--trace` JSONL file
//!   back into records and a span forest, compute per-phase profiles
//!   (self/total time, folded stacks), per-session timelines, and
//!   structural checks. Powers the `gvc trace` subcommands.
//! * [`timeline`] — the sim-time flight recorder: fixed-width
//!   windowed series ([`TimelineRecorder`]), SLO burn rules, and
//!   canonical JSON/CSV renderings. Powers `gvc simulate --timeline`
//!   and the `gvc timeline` subcommands.
//!
//! The trace-event schema and metric naming conventions are specified
//! in `docs/observability.md` at the workspace root; the span
//! toolchain walkthrough lives in `docs/trace-analysis.md`.
//!
//! ```
//! use gvc_telemetry::{Registry, Tracer, TraceEvent, Value};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let admitted = registry.counter("idc_admitted_total", &[]);
//! admitted.inc();
//!
//! let tracer = Tracer::disabled(); // zero-cost: one branch per emit
//! tracer.emit_with(|| TraceEvent::new(0, "idc.admit"));
//! assert!(registry.render().contains("idc_admitted_total 1"));
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![allow(
    clippy::disallowed_methods,
    reason = "the host boundary: provenance stamps, wall-time stopwatches and the perf fingerprint read the clock and the environment here, and nowhere else"
)]

pub mod analyze;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod perf;
pub mod span;
pub mod timeline;
pub mod trace;

pub use analyze::{
    check, parse_trace, profile, sessions, CheckConfig, CheckReport, ParseError, PhaseRow, Profile,
    SessionPhase, SessionRow, SpanNode, TraceModel, TraceRecord,
};
pub use manifest::{fnv1a64, RunManifest};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use perf::{
    diff_snapshots, BenchMetric, DiffReport, DiffRow, DiffStatus, HostFingerprint, Perf,
    PerfSnapshot, PhaseGuard,
};
pub use span::SpanId;
pub use timeline::{
    check_rules, parse_rule, parse_rules, sparkline, SeriesKind, SloOutcome, SloRule, TimelineDoc,
    TimelineHandle, TimelineRecorder, DEFAULT_WIDTH_US,
};
pub use trace::{BufferSink, JsonlSink, Stopwatch, TraceEvent, TraceSink, Tracer, Value};

use std::sync::Arc;

/// One run's telemetry context: a metrics registry plus a trace
/// handle. Cloning is cheap (two `Arc` bumps); a disabled context
/// costs one branch per trace emit and nothing for unregistered
/// metrics.
#[derive(Clone)]
pub struct Telemetry {
    /// The metrics registry for this run.
    pub registry: Arc<Registry>,
    /// The trace handle for this run.
    pub tracer: Tracer,
    /// The host-performance recorder for this run (disabled unless
    /// [`Telemetry::with_perf`] was called).
    pub perf: Perf,
    /// The sim-time flight recorder for this run (`None` unless
    /// [`Telemetry::with_timeline`] was called). Subsystems clone
    /// this handle into their hooks; `None` keeps the hot paths at
    /// one branch per potential emit.
    pub timeline: Option<TimelineHandle>,
}

impl Telemetry {
    /// A live context tracing into `sink`.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            tracer: Tracer::to_sink(sink),
            perf: Perf::disabled(),
            timeline: None,
        }
    }

    /// Metrics-only context: registry live, tracing disabled.
    pub fn metrics_only() -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            tracer: Tracer::disabled(),
            perf: Perf::disabled(),
            timeline: None,
        }
    }

    /// Enables host-performance recording ([`perf`]) on this context.
    #[must_use]
    pub fn with_perf(mut self) -> Telemetry {
        self.perf = Perf::recording();
        self
    }

    /// Attaches a sim-time flight recorder ([`timeline`]) to this
    /// context.
    #[must_use]
    pub fn with_timeline(mut self, timeline: TimelineHandle) -> Telemetry {
        self.timeline = Some(timeline);
        self
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::metrics_only()
    }
}
