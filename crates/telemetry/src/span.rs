//! Hierarchical spans on top of the trace stream.
//!
//! A span is an interval of *simulation* time with a name and an
//! optional parent, emitted as two flat trace events through whatever
//! [`crate::TraceSink`] the run's [`Tracer`] carries:
//!
//! ```text
//! {"t_us":0,"kind":"span.start","span":3,"parent":1,"name":"session.run",...}
//! {"t_us":411000000,"kind":"span.end","span":3}
//! ```
//!
//! Design points, mirroring the rest of the telemetry spine:
//!
//! * **Zero-cost when disabled.** With no sink attached, `span_enter`
//!   returns [`SpanId::NONE`] without allocating and `span_exit` on
//!   `NONE` is a branch. Instrumented code never checks `enabled()`.
//! * **Deterministic.** Span ids come from a counter shared by every
//!   clone of the run's tracer, and span events carry only simulation
//!   time, so two runs with the same seed produce byte-identical span
//!   streams. Wall-clock time, where wanted, goes into extra fields on
//!   the *end* event via [`Tracer::span_exit_with`] — simulation-path
//!   instrumentation must not use it.
//! * **Not globally time-ordered.** A span whose end is already known
//!   when it opens (e.g. a provisioning delay) may emit its `span.end`
//!   immediately with a future `t_us`; offline consumers sort by
//!   timestamp (see [`crate::analyze`]).
//!
//! The span-name tables live in `docs/observability.md`; names follow
//! the same dot-namespaced lowercase convention as event kinds
//! (enforced by the `trace-kind-naming` gvc-tidy rule).

use crate::trace::{TraceEvent, Tracer};
use std::sync::atomic::Ordering;

/// Identifier of an open (or closed) span. Ids are 1-based and unique
/// within a run; `0` is the "no span" sentinel used both for root
/// spans' parents and for spans handed out by a disabled tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel: parent of root spans, and the id every
    /// disabled tracer returns.
    pub const NONE: SpanId = SpanId(0);

    /// True for the sentinel.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl Tracer {
    /// Opens a span at simulation time `t_us`. Pass [`SpanId::NONE`]
    /// as `parent` for a root span. Returns `NONE` (and emits
    /// nothing) when no sink is attached.
    #[inline]
    pub fn span_enter(&self, parent: SpanId, t_us: i64, name: &'static str) -> SpanId {
        // gvc-lint: allow(trace-kind-naming) — forwards the caller's name; literals are checked at every real emit site
        self.span_enter_with(parent, t_us, name, |ev| ev)
    }

    /// Opens a span, letting `build` attach extra fields to the
    /// `span.start` event (session index, reservation id, ...). The
    /// closure only runs when a sink is attached.
    #[inline]
    pub fn span_enter_with(
        &self,
        parent: SpanId,
        t_us: i64,
        name: &'static str,
        build: impl FnOnce(TraceEvent) -> TraceEvent,
    ) -> SpanId {
        let Some(sink) = &self.sink else {
            return SpanId::NONE;
        };
        let id = self.span_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let ev = TraceEvent::new(t_us, "span.start")
            .field("span", id)
            .field("parent", parent.0)
            .field("name", name);
        sink.emit(&build(ev));
        SpanId(id)
    }

    /// Closes `id` at simulation time `t_us`. `t_us` may lie in the
    /// simulated future of the emission point (known-completion
    /// spans). No-op for [`SpanId::NONE`].
    #[inline]
    pub fn span_exit(&self, id: SpanId, t_us: i64) {
        self.span_exit_with(id, t_us, |ev| ev);
    }

    /// Closes `id`, letting `build` attach extra fields to the
    /// `span.end` event (outcome, wall-clock cost, ...). The closure
    /// only runs when a sink is attached and `id` is real.
    #[inline]
    pub fn span_exit_with(
        &self,
        id: SpanId,
        t_us: i64,
        build: impl FnOnce(TraceEvent) -> TraceEvent,
    ) {
        if id.is_none() {
            return;
        }
        if let Some(sink) = &self.sink {
            let ev = TraceEvent::new(t_us, "span.end").field("span", id.0);
            sink.emit(&build(ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BufferSink;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_hands_out_none_and_emits_nothing() {
        let t = Tracer::disabled();
        let id = t.span_enter(SpanId::NONE, 0, "driver.run");
        assert!(id.is_none());
        t.span_exit(id, 10);
        // Nothing to observe — the point is that neither call panics
        // nor allocates a real id.
        let id2 = t.span_enter_with(id, 5, "session.run", |ev| ev.field("session", 1u64));
        assert!(id2.is_none());
    }

    #[test]
    fn ids_are_unique_across_clones_and_events_pair_up() {
        let sink = Arc::new(BufferSink::new());
        let t = Tracer::to_sink(sink.clone());
        let clone = t.clone();
        let a = t.span_enter(SpanId::NONE, 0, "driver.run");
        let b = clone.span_enter_with(a, 100, "session.run", |ev| ev.field("session", 0u64));
        assert_ne!(a, b);
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        clone.span_exit(b, 500);
        t.span_exit(a, 900);
        let evs = sink.take();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].kind, "span.start");
        assert!(evs[1].to_json().contains("\"parent\":1"));
        assert!(evs[1].to_json().contains("\"session\":0"));
        assert_eq!(evs[2].kind, "span.end");
        assert!(evs[2].to_json().contains("\"span\":2"));
        assert_eq!(evs[3].t_us, 900);
    }

    #[test]
    fn exit_with_can_attach_outcome_fields() {
        let sink = Arc::new(BufferSink::new());
        let t = Tracer::to_sink(sink.clone());
        let id = t.span_enter(SpanId::NONE, 0, "session.vc_setup");
        t.span_exit_with(id, 60_000_000, |ev| ev.field("outcome", "established"));
        let j = sink.take()[1].to_json();
        assert!(j.contains("\"outcome\":\"established\""), "{j}");
    }
}
