//! Telemetry spine for the GridFTP virtual-circuit study.
//!
//! Three layers, all std-only and safe to leave compiled into hot
//! paths:
//!
//! * [`metrics`] — a lightweight registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s with labels, plus a
//!   Prometheus-style text exposition writer ([`Registry::render`]).
//! * [`trace`] — structured simulation tracing: a [`TraceSink`] trait
//!   with JSONL-file and bounded in-memory ring-buffer
//!   implementations, a cheap cloneable [`Tracer`] handle whose
//!   disabled state is a single branch, and [`SpanTimer`] scoped
//!   wall-clock timers feeding histograms.
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
//!   windowed series ([`TimelineRecorder`]) with deterministic
//!   cross-lane merging, SLO burn rules, and canonical JSON/CSV
//!   renderings. Powers `gvc simulate --timeline` and the
//!   `gvc timeline` subcommands.
//! * [`serve`] — a minimal std-only HTTP scrape endpoint
//!   ([`MetricsServer`]) exposing the registry on `/metrics` and the
//!   timeline-so-far on `/timeline.json`.
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

pub mod analyze;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod perf;
pub mod serve;
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
    PerfReport, PerfSnapshot, PhaseGuard,
};
pub use serve::MetricsServer;
pub use span::SpanId;
pub use timeline::{
    check_rules, parse_rule, parse_rules, sparkline, SeriesKind, SloOutcome, SloRule, TimelineDoc,
    TimelineHandle, TimelineRecorder, DEFAULT_WIDTH_US,
};
pub use trace::{
    BufferSink, JsonlSink, RingSink, SpanTimer, Stopwatch, TraceEvent, TraceSink, Tracer, Value,
};

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
    /// The in-memory buffer a [`Telemetry::lane`] fork traces into,
    /// drained by [`Telemetry::absorb_lane`].
    lane_buffer: Option<Arc<BufferSink>>,
}

impl Telemetry {
    /// A live context tracing into `sink`.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            tracer: Tracer::to_sink(sink),
            perf: Perf::disabled(),
            timeline: None,
            lane_buffer: None,
        }
    }

    /// Metrics-only context: registry live, tracing disabled.
    pub fn metrics_only() -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            tracer: Tracer::disabled(),
            perf: Perf::disabled(),
            timeline: None,
            lane_buffer: None,
        }
    }

    /// Enables host-performance recording ([`perf`]) on this context,
    /// bound to its registry.
    #[must_use]
    pub fn with_perf(mut self) -> Telemetry {
        self.perf = Perf::recording(&self.registry);
        self
    }

    /// Attaches a sim-time flight recorder ([`timeline`]) to this
    /// context.
    #[must_use]
    pub fn with_timeline(mut self, timeline: TimelineHandle) -> Telemetry {
        self.timeline = Some(timeline);
        self
    }

    /// Forks the context for lane `k` of a sharded run: a fresh
    /// registry, a flight recorder of the same window width (when this
    /// context has one), perf off, and — when this context traces — a
    /// tracer buffering in memory whose span ids start above
    /// `(k + 1) << 40`, so lane ids stay disjoint once the buffers are
    /// concatenated. [`Telemetry::absorb_lane`] folds the fork back.
    pub fn lane(&self, k: usize) -> Telemetry {
        let lane_buffer = self.tracer.enabled().then(|| Arc::new(BufferSink::new()));
        let tracer = match &lane_buffer {
            Some(buf) => Tracer::to_sink_with_span_base(buf.clone(), (k as u64 + 1) << 40),
            None => Tracer::disabled(),
        };
        Telemetry {
            registry: Arc::new(Registry::new()),
            tracer,
            perf: Perf::disabled(),
            timeline: self.timeline.as_ref().map(|tl| TimelineHandle::new(tl.width_us())),
            lane_buffer,
        }
    }

    /// Folds a [`Telemetry::lane`] fork back into this context:
    /// re-emits its buffered trace events through this tracer, adds
    /// its metrics into this registry and its windows into this flight
    /// recorder. Absorbing the lanes in lane order makes the merged
    /// trace, exposition and timeline independent of how the lanes
    /// were scheduled (cell merges are commutative; the trace is the
    /// lane buffers concatenated).
    pub fn absorb_lane(&self, lane: &Telemetry) {
        if let Some(buf) = &lane.lane_buffer {
            for ev in buf.take() {
                self.tracer.emit_with(move || ev);
            }
        }
        self.registry.merge_from(&lane.registry);
        if let (Some(tl), Some(lane_tl)) = (&self.timeline, &lane.timeline) {
            tl.absorb(lane_tl);
        }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::metrics_only()
    }
}

// For this crate's own unit tests under `--features perf-alloc`,
// install the counting allocator so `alloc_stats` moves.
#[cfg(all(test, feature = "perf-alloc"))]
#[global_allocator]
static TEST_ALLOC: perf::CountingAlloc = perf::CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_fork_and_absorb_in_lane_order() {
        let sink = Arc::new(BufferSink::new());
        let ctx =
            Telemetry::with_sink(sink.clone()).with_timeline(TimelineHandle::new(DEFAULT_WIDTH_US));
        let lanes: Vec<Telemetry> = (0..2).map(|k| ctx.lane(k)).collect();
        // Lane 1 runs first; absorption order alone fixes the output.
        for (k, lane) in lanes.iter().enumerate().rev() {
            let span = lane.tracer.span_enter(SpanId::NONE, k as i64, "driver.lane");
            lane.tracer.span_exit(span, 10);
            lane.registry.counter("jobs_total", &[]).add(k as u64 + 1);
            lane.timeline.as_ref().expect("forked recorder").add("driver.transfers", 0, 1.0);
        }
        assert!(sink.is_empty(), "lanes buffer privately until absorbed");
        for lane in &lanes {
            ctx.absorb_lane(lane);
        }
        let spans: Vec<String> = sink.take().iter().map(TraceEvent::to_json).collect();
        assert_eq!(spans.len(), 4);
        assert!(spans[0].contains(&format!("\"span\":{}", (1u64 << 40) + 1)), "{}", spans[0]);
        assert!(spans[2].contains(&format!("\"span\":{}", (2u64 << 40) + 1)), "{}", spans[2]);
        assert_eq!(ctx.registry.counter("jobs_total", &[]).get(), 3);
        let doc = TimelineDoc::parse(&ctx.timeline.as_ref().expect("recorder").to_json())
            .expect("timeline");
        assert_eq!(doc.series[0].windows[0].get("value"), Some(2.0));
    }

    #[test]
    fn lanes_of_an_untraced_context_stay_untraced() {
        let ctx = Telemetry::metrics_only();
        let lane = ctx.lane(3);
        assert!(!lane.tracer.enabled());
        assert!(lane.timeline.is_none());
        assert!(!Arc::ptr_eq(&lane.registry, &ctx.registry));
        lane.registry.counter("jobs_total", &[]).inc();
        ctx.absorb_lane(&lane);
        assert_eq!(ctx.registry.counter("jobs_total", &[]).get(), 1);
    }
}
