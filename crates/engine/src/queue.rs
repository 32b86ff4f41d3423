//! The event calendar.
//!
//! Events are keyed on `(time, sequence)` where `sequence` is a
//! monotone counter assigned at scheduling time, so simultaneous events
//! pop in the order they were scheduled. That FIFO guarantee is what
//! makes whole-simulation runs deterministic: the paper's SLAC–BNL
//! sessions start many transfers at the same instant (negative session
//! gaps), and their relative order must not depend on heap internals.
//!
//! Two stores hold the pending events: a min-heap for events scheduled
//! one at a time, and a *script*, a batch handed over whole by
//! [`EventQueue::schedule_script`], stable-sorted by time and walked by
//! a cursor. `pop` takes the earlier head of the two by
//! `(time, sequence)`. The batch takes consecutive sequence numbers,
//! so every heap entry's number is either below all of the script's or
//! above them, and comparing with the script's first number decides a
//! tie exactly as one heap holding everything would. The script pays
//! neither the heap's per-entry sift nor a copy of its events.

use crate::time::SimTime;
use gvc_telemetry::timeline::series;
use gvc_telemetry::{Counter, Gauge, SpanId, Telemetry, TimelineHandle, Tracer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Kernel calendar hooks, built from a [`Telemetry`] context by
/// [`EventQueue::set_telemetry`]; a queue without them pays one
/// `Option` check per operation.
struct QueueTelemetry {
    /// `sim_events_scheduled_total`: pushes onto the calendar.
    scheduled: Arc<Counter>,
    /// `sim_events_dispatched_total`: pops off the calendar.
    dispatched: Arc<Counter>,
    /// `sim_event_queue_depth_hwm`: high-water mark of pending events.
    depth_hwm: Arc<Gauge>,
    /// Span handle for `kernel.queue_wait` spans (schedule → pop).
    tracer: Tracer,
    /// Flight recorder for the `kernel.scheduled` /
    /// `kernel.dispatched` windowed series.
    timeline: Option<TimelineHandle>,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
    span: SpanId,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event calendar.
///
/// The queue owns the simulation clock: [`EventQueue::pop`] advances
/// `now` to the popped event's timestamp. Scheduling in the past is a
/// logic error and panics (events may be scheduled *at* `now`).
///
/// ```
/// use gvc_engine::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The pending rest of the [`EventQueue::schedule_script`] batch,
    /// in pop order.
    script: std::vec::IntoIter<(SimTime, E)>,
    /// The script's `kernel.queue_wait` spans, in the same order; empty
    /// when no tracer is attached.
    script_spans: std::vec::IntoIter<SpanId>,
    /// The sequence number of the script's first entry.
    script_seq: u64,
    seq: u64,
    now: SimTime,
    /// Lifetime pop count, kept unconditionally (no telemetry needed)
    /// so host-perf phase throughput can be derived after a run.
    popped: u64,
    telemetry: Option<QueueTelemetry>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the epoch.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            script: Vec::new().into_iter(),
            script_spans: Vec::new().into_iter(),
            script_seq: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            telemetry: None,
        }
    }

    /// Instruments the calendar from `ctx`: push/pop counts and the
    /// depth high-water mark in its registry, a `kernel.queue_wait`
    /// span per entry (schedule → pop) through its tracer, and the
    /// windowed schedule/dispatch counts in its flight recorder.
    /// Counting starts from the moment of attachment.
    pub fn set_telemetry(&mut self, ctx: &Telemetry) {
        let registry = &ctx.registry;
        self.telemetry = Some(QueueTelemetry {
            scheduled: registry.counter("sim_events_scheduled_total", &[]),
            dispatched: registry.counter("sim_events_dispatched_total", &[]),
            depth_hwm: registry.gauge("sim_event_queue_depth_hwm", &[]),
            tracer: ctx.tracer.clone(),
            timeline: ctx.timeline.clone(),
        });
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={now}",
            at = at,
            now = self.now
        );
        let span = match &self.telemetry {
            Some(t) => {
                t.tracer.span_enter(SpanId::NONE, self.now.micros() as i64, "kernel.queue_wait")
            }
            None => SpanId::NONE,
        };
        self.heap.push(Entry { at, seq: self.seq, event, span });
        self.seq += 1;
        if let Some(t) = &self.telemetry {
            t.scheduled.inc();
            t.depth_hwm.set_max(self.len() as i64);
            if let Some(tl) = &t.timeline {
                tl.add(series::KERNEL_SCHEDULED, self.now.micros(), 1.0);
            }
        }
    }

    /// Schedules a batch as if each `(at, event)` went to
    /// [`EventQueue::schedule`] in order: the same sequence numbers,
    /// `kernel.queue_wait` spans (opened in call order), counters,
    /// depth high-water mark and `kernel.scheduled` window, so ties
    /// resolve as they would. The batch is stable-sorted by time in its
    /// own vector and walked as a cursor beside the heap. A batch given
    /// while an earlier one is still pending goes onto the heap.
    ///
    /// # Panics
    /// Panics if any `at` is before the current clock.
    pub fn schedule_script(&mut self, mut script: Vec<(SimTime, E)>) {
        if !self.script.as_slice().is_empty() {
            for (at, event) in script {
                self.schedule(at, event);
            }
            return;
        }
        let now = self.now;
        if let Some(at) = script.iter().map(|e| e.0).min() {
            assert!(at >= now, "cannot schedule into the past: at={at} now={now}");
        }
        let n = script.len();
        let spans = match &self.telemetry {
            Some(t) if t.tracer.enabled() => {
                let t_us = now.micros() as i64;
                let opened: Vec<SpanId> = (0..n)
                    .map(|_| t.tracer.span_enter(SpanId::NONE, t_us, "kernel.queue_wait"))
                    .collect();
                // The stable sort below orders the batch as its unique
                // `(time, call index)` keys do.
                let mut order: Vec<(SimTime, usize)> =
                    script.iter().map(|e| e.0).zip(0..).collect();
                order.sort_unstable();
                order.into_iter().map(|(_, i)| opened[i]).collect()
            }
            _ => Vec::new(),
        };
        script.sort_by_key(|e| e.0);
        self.script = script.into_iter();
        self.script_spans = spans.into_iter();
        self.script_seq = self.seq;
        self.seq += n as u64;
        if let Some(t) = &self.telemetry {
            t.scheduled.add(n as u64);
            t.depth_hwm.set_max(self.len() as i64);
            if let Some(tl) = &t.timeline {
                if n > 0 {
                    // One add of `n` sums exactly as `n` adds of 1 do.
                    tl.add(series::KERNEL_SCHEDULED, now.micros(), n as f64);
                }
            }
        }
    }

    /// Schedules `event` after `delay` (clamped to `now` for negative
    /// delays).
    #[cfg(test)]
    fn schedule_in(&mut self, delay: crate::time::SimSpan, event: E) {
        let at = (self.now + delay).max(self.now);
        self.schedule(at, event);
    }

    /// The earliest pending time, and whether the script holds it.
    fn head(&self) -> Option<(SimTime, bool)> {
        match (self.script.as_slice().first(), self.heap.peek()) {
            (Some(&(at, _)), Some(h)) => {
                Some(if (at, self.script_seq) < (h.at, h.seq) { (at, true) } else { (h.at, false) })
            }
            (Some(&(at, _)), None) => Some((at, true)),
            (None, h) => h.map(|h| (h.at, false)),
        }
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event, span) = if self.head()?.1 {
            let (at, event) = self.script.next()?;
            (at, event, self.script_spans.next().unwrap_or(SpanId::NONE))
        } else {
            let e = self.heap.pop()?;
            (e.at, e.event, e.span)
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        if let Some(t) = &self.telemetry {
            t.dispatched.inc();
            t.tracer.span_exit(span, at.micros() as i64);
            if let Some(tl) = &t.timeline {
                tl.add(series::KERNEL_DISPATCHED, at.micros(), 1.0);
            }
        }
        Some((at, event))
    }

    /// Timestamp of the next event without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(at, _)| at)
    }

    /// Total events popped over the queue's lifetime (independent of
    /// telemetry attachment).
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.script.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.script.as_slice().is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimSpan;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scripting_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_script(vec![(SimTime::from_secs(12), ()), (SimTime::from_secs(5), ())]);
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.pop();
        q.schedule(q.now(), 2);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn schedule_in_negative_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 0);
        q.pop();
        q.schedule_in(SimSpan::from_secs(-10), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn dispatched_counts_without_telemetry() {
        let mut q = EventQueue::new();
        assert_eq!(q.dispatched(), 0);
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.pop();
        q.pop();
        assert_eq!(q.dispatched(), 2);
    }

    #[test]
    fn telemetry_counts_pushes_pops_and_depth() {
        let ctx = Telemetry::metrics_only();
        let reg = &ctx.registry;
        let mut q = EventQueue::new();
        q.set_telemetry(&ctx);
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(3), ());
        q.pop();
        q.schedule(SimTime::from_secs(4), ());
        assert_eq!(reg.counter("sim_events_scheduled_total", &[]).get(), 4);
        assert_eq!(reg.counter("sim_events_dispatched_total", &[]).get(), 1);
        assert_eq!(reg.gauge("sim_event_queue_depth_hwm", &[]).get(), 3);
    }

    #[test]
    fn queue_wait_spans_pair_schedule_with_pop() {
        use gvc_telemetry::BufferSink;
        let sink = Arc::new(BufferSink::new());
        let mut q = EventQueue::new();
        q.set_telemetry(&Telemetry::with_sink(sink.clone()));
        q.schedule(SimTime::from_secs(2), "a");
        q.schedule(SimTime::from_secs(1), "b");
        q.pop();
        q.pop();
        let evs = sink.take();
        let kinds: Vec<&str> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["span.start", "span.start", "span.end", "span.end"]);
        // "b" pops first (t=1s) but was scheduled second (span 2).
        assert!(evs[2].to_json().contains("\"span\":2"), "{}", evs[2].to_json());
        assert_eq!(evs[2].t_us, 1_000_000);
        assert!(evs[3].to_json().contains("\"span\":1"));
        assert_eq!(evs[3].t_us, 2_000_000);
        assert!(evs[0].to_json().contains("\"name\":\"kernel.queue_wait\""));
    }

    /// One queue's observable behaviour: the pop sequence, then
    /// `dispatched()`, the three kernel metrics, every trace event
    /// (the `kernel.queue_wait` span pairs) and the timeline JSON.
    type Observed = (Vec<(SimTime, u32)>, u64, [i64; 3], Vec<String>, Option<String>);

    /// Schedules `pre` singly, then `script` (as one batch when
    /// `batched`, else singly), then replays `ops`: 0 and 1 pop, and
    /// `2 + d` schedules a fresh event `d` seconds after the clock.
    fn drive(batched: bool, traced: bool, pre: &[u64], script: &[u64], ops: &[u64]) -> Observed {
        use gvc_telemetry::{BufferSink, TimelineHandle};
        let sink = Arc::new(BufferSink::new());
        let mut q = EventQueue::new();
        let ctx = Telemetry::with_sink(sink.clone()).with_timeline(TimelineHandle::new(2_000_000));
        if traced {
            q.set_telemetry(&ctx);
        }
        let mut id = 0u32;
        let mut next_id = || {
            id += 1;
            id
        };
        for &t in pre {
            q.schedule(SimTime::from_secs(t), next_id());
        }
        let script: Vec<(SimTime, u32)> =
            script.iter().map(|&t| (SimTime::from_secs(t), next_id())).collect();
        if batched {
            q.schedule_script(script);
        } else {
            for (at, e) in script {
                q.schedule(at, e);
            }
        }
        let mut popped = Vec::new();
        for &op in ops {
            if op < 2 {
                popped.extend(q.pop());
            } else {
                q.schedule(q.now() + SimSpan::from_secs(op as i64 - 2), next_id());
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()));
        let reg = &ctx.registry;
        let counts = [
            reg.counter("sim_events_scheduled_total", &[]).get() as i64,
            reg.counter("sim_events_dispatched_total", &[]).get() as i64,
            reg.gauge("sim_event_queue_depth_hwm", &[]).get(),
        ];
        let events = sink.take().iter().map(gvc_telemetry::TraceEvent::to_json).collect();
        let timeline = ctx.timeline.as_ref().map(TimelineHandle::to_json);
        (popped, q.dispatched(), counts, events, timeline)
    }

    #[test]
    fn script_ties_follow_call_order_then_dynamic_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "pre");
        q.schedule_script(vec![
            (SimTime::from_secs(1), "s1"),
            (SimTime::ZERO, "s0"),
            (SimTime::from_secs(1), "s2"),
        ]);
        q.schedule(SimTime::from_secs(1), "dyn");
        assert_eq!(q.len(), 5);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["s0", "pre", "s1", "s2", "dyn"]);
        assert!(q.is_empty());
    }

    proptest! {
        /// A batched script behaves exactly as scheduling each of its
        /// entries on the heap, in call order: same pops, same counts,
        /// same `kernel.queue_wait` spans, same timeline. Times come
        /// from a narrow range, so script entries tie with each other,
        /// with earlier single schedules and with dynamic schedules at
        /// one instant.
        #[test]
        fn prop_script_cursor_matches_heap(
            traced in proptest::bool::ANY,
            pre in proptest::collection::vec(0u64..6, 0..4),
            script in proptest::collection::vec(0u64..8, 0..40),
            ops in proptest::collection::vec(0u64..5, 0..60),
        ) {
            prop_assert_eq!(
                drive(true, traced, &pre, &script, &ops),
                drive(false, traced, &pre, &script, &ops)
            );
        }

        /// Any batch of scheduled events pops in nondecreasing time
        /// order, and equal-time events pop in insertion order.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_secs(t), (t, i));
            }
            let mut last: Option<(u64, usize)> = None;
            while let Some((at, (t, i))) = q.pop() {
                prop_assert_eq!(at, SimTime::from_secs(t));
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li);
                    }
                }
                last = Some((t, i));
            }
        }
    }
}
