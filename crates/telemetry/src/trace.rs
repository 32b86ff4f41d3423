//! Structured simulation tracing.
//!
//! Every event carries the simulation timestamp in microseconds
//! (`t_us`), a dot-namespaced kind (`kernel.pop`, `idc.admit`,
//! `transfer.complete`, `net.fairshare`), and flat key→value fields.
//! The JSONL wire format — one JSON object per line — is specified in
//! `docs/observability.md`.
//!
//! Emission is routed through a cloneable [`Tracer`] handle. A
//! disabled tracer costs one branch per call site and never constructs
//! the event (callers pass a closure), which is what makes it safe to
//! leave tracing compiled into the kernel's hot loop.

use crate::json::{Number, Quoted};
use crate::metrics::Histogram;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A trace field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized with enough precision to round-trip).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time, microseconds.
    pub t_us: i64,
    /// Dot-namespaced event kind, e.g. `transfer.complete`.
    pub kind: &'static str,
    /// Flat key→value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// An event with no fields yet.
    pub fn new(t_us: i64, kind: &'static str) -> TraceEvent {
        TraceEvent { t_us, kind, fields: Vec::new() }
    }

    /// Adds a field, builder-style.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> TraceEvent {
        self.fields.push((key, value.into()));
        self
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.fields.len() * 24);
        let _ = write!(s, "{{\"t_us\":{},\"kind\":{}", self.t_us, Quoted(self.kind));
        for (k, v) in &self.fields {
            let _ = write!(s, ",{}:", Quoted(k));
            let _ = match v {
                Value::U64(x) => write!(s, "{x}"),
                Value::I64(x) => write!(s, "{x}"),
                Value::F64(x) => write!(s, "{}", Number(*x)),
                Value::Bool(x) => write!(s, "{x}"),
                Value::Str(x) => write!(s, "{}", Quoted(x)),
            };
        }
        s.push('}');
        s
    }
}

/// Where trace events go.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, ev: &TraceEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// JSONL file sink: one `TraceEvent::to_json` object per line.
pub struct JsonlSink {
    w: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink { w: Mutex::new(BufWriter::new(File::create(path)?)) })
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, ev: &TraceEvent) {
        let mut w = self.w.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(w, "{}", ev.to_json());
    }

    fn flush(&self) {
        let _ = self.w.lock().unwrap_or_else(std::sync::PoisonError::into_inner).flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Unbounded in-memory sink retaining every event in emission order.
///
/// The scenario runner traces into one, so a run's cost includes
/// tracing without touching the filesystem; tests and benches drain it
/// with [`BufferSink::take`] to inspect what a run emitted.
#[derive(Default)]
pub struct BufferSink {
    buf: Mutex<Vec<TraceEvent>>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// Drains and returns the buffered events in emission order.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for BufferSink {
    fn emit(&self, ev: &TraceEvent) {
        self.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(ev.clone());
    }
}

/// A cheap cloneable handle routing events to a sink, or nowhere.
///
/// Clones share one span-id counter, so span ids handed out by any
/// clone of a run's tracer are unique across the whole run (see
/// [`crate::span`]).
#[derive(Clone, Default)]
pub struct Tracer {
    pub(crate) sink: Option<Arc<dyn TraceSink>>,
    pub(crate) span_seq: Arc<std::sync::atomic::AtomicU64>,
}

impl Tracer {
    /// A tracer that drops everything at the cost of one branch.
    pub fn disabled() -> Tracer {
        Tracer { sink: None, span_seq: Arc::default() }
    }

    /// A shared disabled tracer, for holders of optional telemetry
    /// that want a `&Tracer` either way.
    pub fn disabled_ref() -> &'static Tracer {
        static DISABLED: std::sync::LazyLock<Tracer> = std::sync::LazyLock::new(Tracer::disabled);
        &DISABLED
    }

    /// A tracer writing into `sink`.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer { sink: Some(sink), span_seq: Arc::default() }
    }

    /// Is a sink attached? Hot paths may use this to skip building
    /// expensive field values.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `build` — the closure only runs when a
    /// sink is attached, so a disabled tracer never allocates.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(&build());
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

/// Scoped wall-clock timer: records elapsed seconds into a histogram
/// on drop. Used for per-event-class kernel timings.
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing into `hist`.
    pub fn start(hist: &'a Histogram) -> SpanTimer<'a> {
        SpanTimer { hist, start: Instant::now() }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_secs_f64());
    }
}

/// Free-standing wall-clock stopwatch for self-instrumentation.
///
/// Lives in `gvc-telemetry` deliberately: the simulation crates are
/// held to the `determinism` lint (no ambient clocks), while measuring
/// how long the *host* took never feeds back into simulated results.
/// Use this instead of reaching for `std::time::Instant` in lib code.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Wall seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_and_escaping() {
        let ev = TraceEvent::new(1500, "transfer.complete")
            .field("bytes", 42u64)
            .field("mbps", 9.5)
            .field("server", "dtn\"1\".ncar.gov\n")
            .field("lossy", false)
            .field("delta", -3i64);
        let j = ev.to_json();
        assert_eq!(
            j,
            "{\"t_us\":1500,\"kind\":\"transfer.complete\",\"bytes\":42,\"mbps\":9.5,\
             \"server\":\"dtn\\\"1\\\".ncar.gov\\n\",\"lossy\":false,\"delta\":-3}"
        );
    }

    #[test]
    fn nonfinite_floats_are_null() {
        let j = TraceEvent::new(0, "x").field("v", f64::INFINITY).to_json();
        assert!(j.contains("\"v\":null"), "{j}");
    }

    #[test]
    fn buffer_sink_retains_everything_and_drains() {
        let buf = BufferSink::new();
        for i in 0..100 {
            buf.emit(&TraceEvent::new(i, "k"));
        }
        assert_eq!(buf.len(), 100);
        let evs = buf.take();
        assert_eq!(evs.len(), 100);
        assert_eq!(evs[0].t_us, 0);
        assert_eq!(evs[99].t_us, 99);
        assert!(buf.is_empty());
    }

    #[test]
    fn disabled_tracer_never_builds() {
        let t = Tracer::disabled();
        let mut built = false;
        t.emit_with(|| {
            built = true;
            TraceEvent::new(0, "k")
        });
        assert!(!built);
        assert!(!t.enabled());
    }

    #[test]
    fn tracer_routes_to_sink() {
        let buf = Arc::new(BufferSink::new());
        let t = Tracer::to_sink(buf.clone());
        assert!(t.enabled());
        t.emit_with(|| TraceEvent::new(7, "idc.admit").field("id", 1u64));
        let evs = buf.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "idc.admit");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("gvc-telemetry-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{}-trace.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("create");
            sink.emit(&TraceEvent::new(1, "a"));
            sink.emit(&TraceEvent::new(2, "b").field("x", 1u64));
        }
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t_us\":1"));
        assert!(lines[1].contains("\"x\":1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = Histogram::timing();
        {
            let _t = SpanTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
    }
}
