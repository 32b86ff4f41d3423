//! The Inter-Domain Controller: admission, provisioning, teardown.
//!
//! Admission runs CSPF against the advance-reservation calendar: a
//! request is admitted iff some path has spare reservable bandwidth ≥
//! the requested rate over the whole window (§II: advance reservations
//! let the network run at high utilization with low blocking). Circuits
//! may reserve each link up to its full line rate.
//!
//! Admission costs O(live reservations), not O(history). The IDC keeps
//! a *watermark*, the latest time at which a teardown released a
//! reservation, and each release forgets the calendar commitments that
//! ended by then (the contract is in [`crate::calendar`]). A request or
//! probe whose window starts before the watermark is refused as
//! [`BlockReason::InvalidRequest`]. Open reservations are indexed on
//! their own, so occupancy samples never scan released ones.

use crate::calendar::NetworkCalendar;
use crate::reservation::{Reservation, ReservationId, ReservationRequest, ReservationState};
use crate::setup::SetupDelayModel;
use gvc_engine::SimTime;
use gvc_telemetry::timeline::series;
use gvc_telemetry::{
    Counter, Gauge, Histogram, SpanId, Telemetry, TimelineHandle, TraceEvent, Tracer,
};
use gvc_topology::{constrained_shortest_path, Graph};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// IDC admission/provisioning hooks, built from a [`Telemetry`]
/// context by [`Idc::set_telemetry`].
struct IdcTelemetry {
    /// `idc_requests_total`: `createReservation` calls.
    requests: Arc<Counter>,
    /// `idc_admitted_total`: admitted requests.
    admitted: Arc<Counter>,
    /// `idc_blocked_total{reason="invalid_request"}`.
    blocked_invalid: Arc<Counter>,
    /// `idc_blocked_total{reason="no_feasible_path"}`.
    blocked_no_path: Arc<Counter>,
    /// `idc_reservations_active`: provisioned minus torn down.
    active: Arc<Gauge>,
    /// `idc_setup_delay_seconds`: provision-to-usable delay.
    setup_delay: Arc<Histogram>,
    /// `idc_path_utilization`: peak committed fraction of the
    /// bottleneck link on the admitted path, *after* the commit — how
    /// full the calendar runs (§II high-utilization claim).
    path_utilization: Arc<Histogram>,
    /// Trace handle for `idc.*` events.
    tracer: Tracer,
    /// Flight recorder for the `oscars.*` windowed series.
    timeline: Option<TimelineHandle>,
}

/// Why a reservation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReason {
    /// Malformed request (empty window, zero rate, same endpoints, or
    /// a window starting before the calendar watermark).
    InvalidRequest(String),
    /// No path with sufficient spare bandwidth over the window.
    NoFeasiblePath,
}

/// Why a signalling operation (provision/teardown) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdcError {
    /// The reservation id is not known to this IDC.
    UnknownReservation(ReservationId),
    /// The reservation's current state does not allow the operation.
    InvalidState(ReservationId, ReservationState),
}

impl std::fmt::Display for IdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdcError::UnknownReservation(id) => write!(f, "unknown reservation {}", id.0),
            IdcError::InvalidState(id, st) => {
                write!(f, "reservation {} cannot be signalled in state {st:?}", id.0)
            }
        }
    }
}

impl std::error::Error for IdcError {}

/// Aggregate admission statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdcStats {
    /// Reservation requests received.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests blocked.
    pub blocked: u64,
}

impl IdcStats {
    /// Call-blocking probability.
    pub fn blocking_probability(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.blocked as f64 / self.requests as f64
        }
    }
}

/// The circuit scheduler.
///
/// ```
/// use gvc_oscars::{Idc, ReservationRequest, SetupDelayModel};
/// use gvc_engine::SimTime;
/// use gvc_telemetry::SpanId;
/// use gvc_topology::{study_topology, Site};
///
/// let topo = study_topology();
/// let mut idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
/// let id = idc
///     .create_reservation(ReservationRequest {
///         src: topo.dtn(Site::Nersc),
///         dst: topo.dtn(Site::Ornl),
///         rate_bps: 4e9,
///         start: SimTime::ZERO,
///         end: SimTime::from_secs(3600),
///     })
///     .expect("10 Gbps links have room for 4 Gbps");
/// let ready = idc.provision(id, SimTime::ZERO, SpanId::NONE).expect("scheduled");
/// assert_eq!(ready, SimTime::from_secs(60)); // the deployed 1-min setup
/// ```
pub struct Idc {
    graph: Graph,
    calendar: NetworkCalendar,
    setup: SetupDelayModel,
    reservations: HashMap<ReservationId, Reservation>,
    /// Rate of every admitted reservation not yet torn down, by id.
    open: BTreeMap<u64, f64>,
    /// The latest `now` at which a teardown released a reservation;
    /// the calendar has forgotten every commitment that ended by then.
    watermark: SimTime,
    next_id: u64,
    stats: IdcStats,
    telemetry: Option<IdcTelemetry>,
    /// Open `circuit.lifetime` spans by reservation id, closed at
    /// teardown. Empty unless a trace sink is attached.
    circuit_spans: BTreeMap<u64, SpanId>,
}

impl Idc {
    /// A controller over `graph` with the given setup-delay model,
    /// allowing circuits up to the full line rate.
    pub fn new(graph: Graph, setup: SetupDelayModel) -> Idc {
        Idc {
            graph,
            calendar: NetworkCalendar::new(),
            setup,
            reservations: HashMap::new(),
            open: BTreeMap::new(),
            watermark: SimTime::ZERO,
            next_id: 0,
            stats: IdcStats::default(),
            telemetry: None,
            circuit_spans: BTreeMap::new(),
        }
    }

    /// Instruments the controller from `ctx`: admission and
    /// provisioning metrics in its registry, `idc.*` events and
    /// `circuit.lifetime` spans through its tracer, and calendar
    /// occupancy samples in its flight recorder.
    pub fn set_telemetry(&mut self, ctx: &Telemetry) {
        let registry = &ctx.registry;
        registry.describe("idc_requests_total", "createReservation calls received");
        registry.describe("idc_admitted_total", "Reservation requests admitted by CSPF");
        registry.describe("idc_blocked_total", "Reservation requests blocked, by reason");
        registry.describe("idc_reservations_active", "Provisioned reservations not yet torn down");
        registry.describe("idc_setup_delay_seconds", "Provision-to-usable circuit setup delay");
        registry.describe(
            "idc_path_utilization",
            "Post-commit peak utilization of the admitted path's bottleneck link",
        );
        self.telemetry = Some(IdcTelemetry {
            requests: registry.counter("idc_requests_total", &[]),
            admitted: registry.counter("idc_admitted_total", &[]),
            blocked_invalid: registry
                .counter("idc_blocked_total", &[("reason", "invalid_request")]),
            blocked_no_path: registry
                .counter("idc_blocked_total", &[("reason", "no_feasible_path")]),
            active: registry.gauge("idc_reservations_active", &[]),
            setup_delay: registry.histogram("idc_setup_delay_seconds", &[], Histogram::timing),
            path_utilization: registry.histogram("idc_path_utilization", &[], || {
                // Linear-ish fine buckets over (0, 1.28]: utilization
                // is a ratio, so a shallow growth factor keeps
                // resolution near full.
                Histogram::new(0.01, 1.6, 11)
            }),
            tracer: ctx.tracer.clone(),
            timeline: ctx.timeline.clone(),
        });
    }

    /// Admission statistics so far.
    pub fn stats(&self) -> IdcStats {
        self.stats
    }

    /// Samples calendar occupancy into the timeline at `at`: open
    /// reservation count and the sum of reserved rates. Rates are
    /// summed in reservation-id order so the float total never
    /// depends on hash-map iteration order.
    fn sample_timeline(&self, at: SimTime) {
        let Some(tl) = self.telemetry.as_ref().and_then(|t| t.timeline.as_ref()) else {
            return;
        };
        let reserved: f64 = self.open.values().sum();
        tl.sample(series::OSCARS_OPEN_RESERVATIONS, at.micros(), self.open.len() as f64);
        tl.sample(series::OSCARS_RESERVED_BPS, at.micros(), reserved);
    }

    /// Refuses a window starting before the watermark: the calendar
    /// no longer knows what was committed there.
    fn check_watermark(&self, start: SimTime) -> Result<(), String> {
        if start < self.watermark {
            return Err(format!(
                "window starts at {} s, before the calendar watermark at {} s",
                start.as_secs_f64(),
                self.watermark.as_secs_f64()
            ));
        }
        Ok(())
    }

    /// Processes a `createReservation`: CSPF over calendar
    /// availability; commits the path on success.
    pub fn create_reservation(
        &mut self,
        req: ReservationRequest,
    ) -> Result<ReservationId, BlockReason> {
        self.stats.requests += 1;
        if let Some(t) = &self.telemetry {
            t.requests.inc();
        }
        if let Err(e) = req.validate().and_then(|()| self.check_watermark(req.start)) {
            self.stats.blocked += 1;
            if let Some(t) = &self.telemetry {
                t.blocked_invalid.inc();
                t.tracer.emit_with(|| {
                    TraceEvent::new(req.start.micros() as i64, "idc.block")
                        .field("reason", "invalid_request")
                        .field("detail", e.as_str())
                        .field("rate_bps", req.rate_bps)
                });
            }
            return Err(BlockReason::InvalidRequest(e));
        }
        let calendar = &self.calendar;
        let graph = &self.graph;
        let path = constrained_shortest_path(graph, req.src, req.dst, req.rate_bps, |l| {
            calendar.available_bps(l, graph.link(l).capacity_bps, req.start, req.end)
        });
        let Some(path) = path else {
            self.stats.blocked += 1;
            if let Some(t) = &self.telemetry {
                t.blocked_no_path.inc();
                t.tracer.emit_with(|| {
                    TraceEvent::new(req.start.micros() as i64, "idc.block")
                        .field("reason", "no_feasible_path")
                        .field("rate_bps", req.rate_bps)
                        .field("window_s", (req.end - req.start).as_secs_f64())
                });
            }
            return Err(BlockReason::NoFeasiblePath);
        };
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.calendar.commit_path(id.0, &path.links, req.start, req.end, req.rate_bps);
        if let Some(t) = &self.telemetry {
            t.admitted.inc();
            // Post-commit utilization of the bottleneck link on the
            // chosen path over the reservation window.
            let util = path
                .links
                .iter()
                .map(|&l| {
                    let cap = self.graph.link(l).capacity_bps;
                    let committed = self
                        .calendar
                        .link(l)
                        .map_or(0.0, |c| c.peak_committed_bps(req.start, req.end));
                    if cap > 0.0 {
                        committed / cap
                    } else {
                        0.0
                    }
                })
                .fold(0.0, f64::max);
            t.path_utilization.record(util);
            let hops = path.links.len();
            t.tracer.emit_with(|| {
                TraceEvent::new(req.start.micros() as i64, "idc.admit")
                    .field("id", id.0)
                    .field("rate_bps", req.rate_bps)
                    .field("hops", hops)
                    .field("window_s", (req.end - req.start).as_secs_f64())
                    .field("bottleneck_utilization", util)
            });
        }
        self.reservations.insert(
            id,
            Reservation {
                id,
                request: req,
                path,
                state: ReservationState::Scheduled,
                ready_at: None,
            },
        );
        self.open.insert(id.0, req.rate_bps);
        self.stats.admitted += 1;
        self.sample_timeline(req.start);
        Ok(id)
    }

    /// Signals provisioning of a scheduled reservation at `now`
    /// (automatic signalling just before start, or an explicit
    /// `createPath`). Returns the instant the circuit becomes usable
    /// under the setup-delay model. The circuit's `circuit.lifetime`
    /// span opens under `parent`: the caller's run span, or
    /// [`SpanId::NONE`] for a root.
    ///
    /// # Errors
    /// [`IdcError::UnknownReservation`] when `id` was never admitted,
    /// [`IdcError::InvalidState`] when the reservation is already
    /// active or released.
    pub fn provision(
        &mut self,
        id: ReservationId,
        now: SimTime,
        parent: SpanId,
    ) -> Result<SimTime, IdcError> {
        let r = self.reservations.get_mut(&id).ok_or(IdcError::UnknownReservation(id))?;
        if !matches!(r.state, ReservationState::Scheduled | ReservationState::Provisioning) {
            return Err(IdcError::InvalidState(id, r.state));
        }
        let ready = self.setup.ready_at(now).max(r.request.start);
        r.state = ReservationState::Active;
        r.ready_at = Some(ready);
        if let Some(t) = &self.telemetry {
            t.active.add(1);
            t.setup_delay.record((ready - now).as_secs_f64());
            // The circuit's whole life as a span (closed at teardown)
            // with the signalling delay as a child. The setup child's
            // end is known now, so it closes immediately at a future
            // timestamp — offline consumers sort by time.
            let circuit =
                t.tracer.span_enter_with(parent, now.micros() as i64, "circuit.lifetime", |ev| {
                    ev.field("reservation", id.0)
                });
            let setup = t.tracer.span_enter_with(circuit, now.micros() as i64, "idc.setup", |ev| {
                ev.field("reservation", id.0).field("setup_s", (ready - now).as_secs_f64())
            });
            t.tracer.span_exit(setup, ready.micros() as i64);
            if !circuit.is_none() {
                self.circuit_spans.insert(id.0, circuit);
            }
        }
        Ok(ready)
    }

    /// Tears a reservation down at `now`, releasing its remaining
    /// calendar window, and advances the watermark to `now` if that is
    /// later. The `circuit.lifetime` span closes at `now` or at the
    /// window's end, whichever is earlier: a circuit never outlives its
    /// reservation. Tearing down an already-released reservation is a
    /// no-op (teardown is idempotent).
    ///
    /// # Errors
    /// [`IdcError::UnknownReservation`] when `id` was never admitted.
    pub fn teardown(&mut self, id: ReservationId, now: SimTime) -> Result<(), IdcError> {
        let r = self.reservations.get_mut(&id).ok_or(IdcError::UnknownReservation(id))?;
        if r.state == ReservationState::Released {
            return Ok(());
        }
        let was_active = r.state == ReservationState::Active;
        r.state = ReservationState::Released;
        self.watermark = self.watermark.max(now);
        self.calendar.release_path(id.0, &r.path.links, self.watermark);
        self.open.remove(&id.0);
        if let Some(t) = &self.telemetry {
            if was_active {
                t.active.add(-1);
            }
            t.tracer.emit_with(|| {
                TraceEvent::new(now.micros() as i64, "idc.teardown").field("id", id.0)
            });
            if let Some(span) = self.circuit_spans.remove(&id.0) {
                t.tracer.span_exit(span, now.min(r.request.end).micros() as i64);
            }
        }
        self.sample_timeline(now);
        Ok(())
    }

    /// The reservation record.
    pub fn reservation(&self, id: ReservationId) -> Option<&Reservation> {
        self.reservations.get(&id)
    }

    /// Admitted reservations not yet released (Scheduled,
    /// Provisioning, or Active). The resilience harness asserts this
    /// reaches zero after every fault plan: anything else is a leaked
    /// reservation still holding calendar capacity.
    pub fn open_reservations(&self) -> usize {
        self.open.len()
    }

    /// Spare reservable bandwidth between two endpoints over a window
    /// (what a client could still get).
    ///
    /// # Errors
    /// [`BlockReason::InvalidRequest`] when the window starts before
    /// the watermark.
    pub fn probe_available_bps(&self, req: ReservationRequest) -> Result<f64, BlockReason> {
        self.check_watermark(req.start).map_err(BlockReason::InvalidRequest)?;
        // Binary-search the admissible rate via CSPF feasibility.
        let (mut lo, mut hi) =
            (0.0f64, self.graph.links().iter().map(|l| l.capacity_bps).fold(0.0, f64::max));
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            let feasible = constrained_shortest_path(&self.graph, req.src, req.dst, mid, |l| {
                self.calendar.available_bps(l, self.graph.link(l).capacity_bps, req.start, req.end)
            })
            .is_some();
            if feasible {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::LinkCalendar;
    use gvc_topology::{study_topology, LinkId, Site};

    fn idc() -> (Idc, ReservationRequest) {
        let t = study_topology();
        let req = ReservationRequest {
            src: t.dtn(Site::Nersc),
            dst: t.dtn(Site::Ornl),
            rate_bps: 4e9,
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(3600),
        };
        (Idc::new(t.graph, SetupDelayModel::one_minute()), req)
    }

    #[test]
    fn admit_then_block_when_full() {
        let (mut idc, req) = idc();
        // 10 G links: two 4 G circuits fit, the third is blocked.
        assert!(idc.create_reservation(req).is_ok());
        assert!(idc.create_reservation(req).is_ok());
        assert_eq!(idc.create_reservation(req), Err(BlockReason::NoFeasiblePath));
        let s = idc.stats();
        assert_eq!((s.requests, s.admitted, s.blocked), (3, 2, 1));
        assert!((s.blocking_probability() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_windows_do_not_compete() {
        let (mut idc, mut req) = idc();
        req.rate_bps = 8e9;
        assert!(idc.create_reservation(req).is_ok());
        // Same rate later in time: fine.
        req.start = SimTime::from_secs(3600);
        req.end = SimTime::from_secs(7200);
        assert!(idc.create_reservation(req).is_ok());
    }

    #[test]
    fn teardown_releases_capacity() {
        let (mut idc, mut req) = idc();
        req.rate_bps = 8e9;
        let id = idc.create_reservation(req).unwrap();
        assert_eq!(idc.create_reservation(req), Err(BlockReason::NoFeasiblePath));
        idc.teardown(id, SimTime::from_secs(10)).unwrap();
        // Remaining window [10, 3600) is free again.
        let mut later = req;
        later.start = SimTime::from_secs(10);
        assert!(idc.create_reservation(later).is_ok());
    }

    #[test]
    fn invalid_request_blocked_with_reason() {
        let (mut idc, mut req) = idc();
        req.rate_bps = -1.0;
        match idc.create_reservation(req) {
            Err(BlockReason::InvalidRequest(_)) => {}
            other => panic!("expected invalid request, got {other:?}"),
        }
        assert_eq!(idc.stats().blocked, 1);
    }

    #[test]
    fn provisioning_sets_ready_per_model() {
        let (mut idc, req) = idc();
        let id = idc.create_reservation(req).unwrap();
        let ready = idc.provision(id, SimTime::from_secs(0), SpanId::NONE).unwrap();
        assert_eq!(ready, SimTime::from_secs(60));
        let r = idc.reservation(id).unwrap();
        assert_eq!(r.state, ReservationState::Active);
        assert!(r.usable_at(SimTime::from_secs(60)));
        assert!(!r.usable_at(SimTime::from_secs(59)));
    }

    #[test]
    fn ready_never_precedes_window_start() {
        let (mut idc, mut req) = idc();
        req.start = SimTime::from_secs(1000);
        req.end = SimTime::from_secs(2000);
        let id = idc.create_reservation(req).unwrap();
        // Provisioned early: usable only from the window start.
        let ready = idc.provision(id, SimTime::from_secs(0), SpanId::NONE).unwrap();
        assert_eq!(ready, SimTime::from_secs(1000));
    }

    #[test]
    fn probe_tracks_committed_bandwidth() {
        let (mut idc, req) = idc();
        let free0 = idc.probe_available_bps(req).unwrap();
        assert!((free0 - 10e9).abs() < 1e7, "{free0}");
        idc.create_reservation(req).unwrap();
        let free1 = idc.probe_available_bps(req).unwrap();
        assert!((free1 - 6e9).abs() < 1e7, "{free1}");
    }

    #[test]
    fn telemetry_tracks_admissions_and_lifecycle() {
        use gvc_telemetry::BufferSink;
        let (mut i, req) = idc();
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
        let reg = &ctx.registry;
        i.set_telemetry(&ctx);

        let a = i.create_reservation(req).unwrap();
        let _b = i.create_reservation(req).unwrap();
        assert!(i.create_reservation(req).is_err());
        let mut bad = req;
        bad.rate_bps = 0.0;
        assert!(i.create_reservation(bad).is_err());

        i.provision(a, SimTime::ZERO, SpanId::NONE).unwrap();
        i.teardown(a, SimTime::from_secs(30)).unwrap();

        assert_eq!(reg.counter("idc_requests_total", &[]).get(), 4);
        assert_eq!(reg.counter("idc_admitted_total", &[]).get(), 2);
        assert_eq!(reg.counter("idc_blocked_total", &[("reason", "no_feasible_path")]).get(), 1);
        assert_eq!(reg.counter("idc_blocked_total", &[("reason", "invalid_request")]).get(), 1);
        assert_eq!(reg.gauge("idc_reservations_active", &[]).get(), 0);
        let setup = reg
            .histogram("idc_setup_delay_seconds", &[], gvc_telemetry::Histogram::timing)
            .snapshot();
        assert_eq!(setup.count(), 1);
        assert!((setup.sum() - 60.0).abs() < 1e-9, "one-minute model");

        let events = sink.take();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                "idc.admit",
                "idc.admit",
                "idc.block",
                "idc.block",
                "span.start", // circuit.lifetime opens at provision
                "span.start", // idc.setup child ...
                "span.end",   // ... closes at ready (future timestamp)
                "idc.teardown",
                "span.end", // circuit.lifetime closes at teardown
            ]
        );
        let jsons: Vec<String> = events.iter().map(gvc_telemetry::TraceEvent::to_json).collect();
        assert!(
            jsons[4].contains("\"name\":\"circuit.lifetime\"")
                && jsons[4].contains("\"reservation\":0"),
            "{}",
            jsons[4]
        );
        // The setup span start is the provisioning record: reservation
        // id and signalling delay.
        assert!(
            jsons[5].contains("\"name\":\"idc.setup\",\"reservation\":0,\"setup_s\":60"),
            "{}",
            jsons[5]
        );
        assert_eq!(events[6].t_us, 60_000_000, "setup span ends at ready");
        assert_eq!(events[8].t_us, 30_000_000, "circuit span ends at teardown");
        // Second admit on the same window fills the path to capacity.
        let util =
            reg.histogram("idc_path_utilization", &[], || Histogram::new(0.01, 1.6, 11)).snapshot();
        assert_eq!(util.count(), 2);
    }

    #[test]
    fn timeline_samples_calendar_occupancy() {
        use gvc_telemetry::{TimelineDoc, TimelineHandle};
        let (mut i, req) = idc();
        let tl = TimelineHandle::new(30_000_000);
        i.set_telemetry(&Telemetry::metrics_only().with_timeline(tl.clone()));
        let a = i.create_reservation(req).unwrap();
        let _b = i.create_reservation(req).unwrap();
        i.teardown(a, SimTime::from_secs(45)).unwrap();

        let doc = TimelineDoc::parse(&tl.to_json()).expect("parse");
        let series_by = |name: &str| {
            doc.series.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("{name} missing"))
        };
        let open = series_by("oscars.open_reservations");
        // Two admits in window 0 (1 then 2 open), teardown in window 1.
        assert_eq!(open.windows[0].get("max"), Some(2.0));
        assert_eq!(open.windows[0].get("n"), Some(2.0));
        assert_eq!(open.windows[1].get("max"), Some(1.0));
        let bps = series_by("oscars.reserved_bps");
        assert_eq!(bps.windows[0].get("max"), Some(8e9));
        assert_eq!(bps.windows[1].get("max"), Some(4e9));
    }

    #[test]
    fn double_teardown_is_idempotent() {
        let (mut idc, req) = idc();
        let id = idc.create_reservation(req).unwrap();
        idc.teardown(id, SimTime::from_secs(5)).unwrap();
        idc.teardown(id, SimTime::from_secs(6)).unwrap();
        assert_eq!(idc.reservation(id).unwrap().state, ReservationState::Released);
    }

    #[test]
    fn double_teardown_does_not_double_release_capacity() {
        // Regression: the second (idempotent) teardown must not touch
        // the calendar again — releasing twice would free capacity a
        // concurrent reservation legitimately holds.
        let (mut idc, mut req) = idc();
        req.rate_bps = 6e9;
        let a = idc.create_reservation(req).unwrap();
        let b = idc.create_reservation(ReservationRequest { rate_bps: 4e9, ..req }).unwrap();
        idc.teardown(a, SimTime::from_secs(5)).unwrap();
        idc.teardown(a, SimTime::from_secs(6)).unwrap();
        // b still holds 4 G: a 7 G request over the same window must
        // not fit (10 G links), which it would if a's release ran
        // twice against b's commitment.
        let mut probe = req;
        probe.rate_bps = 7e9;
        probe.start = SimTime::from_secs(10);
        assert_eq!(idc.create_reservation(probe), Err(BlockReason::NoFeasiblePath));
        assert_eq!(idc.reservation(b).unwrap().state, ReservationState::Scheduled);
    }

    #[test]
    fn signalling_unknown_reservation_errors() {
        let (mut idc, req) = idc();
        let _ = idc.create_reservation(req).unwrap();
        let ghost = ReservationId(999);
        assert_eq!(idc.teardown(ghost, SimTime::ZERO), Err(IdcError::UnknownReservation(ghost)));
        assert_eq!(
            idc.provision(ghost, SimTime::ZERO, SpanId::NONE),
            Err(IdcError::UnknownReservation(ghost))
        );
    }

    #[test]
    fn provision_after_teardown_is_invalid_state() {
        // Regression for the recovery path: a retry loop must never be
        // able to resurrect a reservation it already tore down.
        let (mut idc, req) = idc();
        let id = idc.create_reservation(req).unwrap();
        idc.teardown(id, SimTime::from_secs(1)).unwrap();
        assert_eq!(
            idc.provision(id, SimTime::from_secs(2), SpanId::NONE),
            Err(IdcError::InvalidState(id, ReservationState::Released))
        );
    }

    #[test]
    fn double_provision_is_invalid_state() {
        let (mut idc, req) = idc();
        let id = idc.create_reservation(req).unwrap();
        idc.provision(id, SimTime::ZERO, SpanId::NONE).unwrap();
        assert_eq!(
            idc.provision(id, SimTime::from_secs(1), SpanId::NONE),
            Err(IdcError::InvalidState(id, ReservationState::Active))
        );
    }

    #[test]
    fn open_reservations_tracks_lifecycle() {
        let (mut idc, req) = idc();
        assert_eq!(idc.open_reservations(), 0);
        let a = idc.create_reservation(req).unwrap();
        let b = idc.create_reservation(req).unwrap();
        assert_eq!(idc.open_reservations(), 2);
        idc.provision(a, SimTime::ZERO, SpanId::NONE).unwrap();
        assert_eq!(idc.open_reservations(), 2);
        idc.teardown(a, SimTime::from_secs(5)).unwrap();
        assert_eq!(idc.open_reservations(), 1);
        idc.teardown(b, SimTime::from_secs(5)).unwrap();
        assert_eq!(idc.open_reservations(), 0);
        // Idempotent teardown does not underflow the count.
        idc.teardown(b, SimTime::from_secs(6)).unwrap();
        assert_eq!(idc.open_reservations(), 0);
    }

    /// Every link calendar, in link order (`None` for untouched links).
    fn calendars(idc: &Idc) -> Vec<Option<LinkCalendar>> {
        (0..idc.graph.link_count()).map(|k| idc.calendar.link(LinkId(k as u32)).cloned()).collect()
    }

    #[test]
    fn windows_before_the_watermark_are_refused() {
        let (mut i, req) = idc();
        let ctx = Telemetry::metrics_only();
        i.set_telemetry(&ctx);
        let a = i.create_reservation(req).unwrap();
        let _b = i.create_reservation(req).unwrap();
        i.teardown(a, SimTime::from_secs(100)).unwrap();
        let before = calendars(&i);

        let early = ReservationRequest { start: SimTime::from_secs(99), ..req };
        match i.create_reservation(early) {
            Err(BlockReason::InvalidRequest(detail)) => {
                assert!(detail.contains("watermark"), "{detail}");
            }
            other => panic!("expected invalid request, got {other:?}"),
        }
        assert!(matches!(i.probe_available_bps(early), Err(BlockReason::InvalidRequest(_))));
        let blocked = ctx.registry.counter("idc_blocked_total", &[("reason", "invalid_request")]);
        assert_eq!(blocked.get(), 1, "the probe is a query, not a request");
        assert_eq!(i.stats().blocked, 1);
        assert!(calendars(&i) == before, "a refusal leaves the calendar unchanged");

        // A window starting at the watermark is served.
        let at = ReservationRequest { start: SimTime::from_secs(100), ..req };
        let free = i.probe_available_bps(at).unwrap();
        assert!((free - 6e9).abs() < 1e7, "{free}");
        assert!(i.create_reservation(at).is_ok());
    }

    #[test]
    fn idempotent_teardown_leaves_the_watermark() {
        let (mut i, req) = idc();
        let a = i.create_reservation(req).unwrap();
        i.teardown(a, SimTime::from_secs(5)).unwrap();
        i.teardown(a, SimTime::from_secs(50)).unwrap();
        let from_10 = ReservationRequest { start: SimTime::from_secs(10), ..req };
        assert!(i.create_reservation(from_10).is_ok());
    }

    #[test]
    fn calendars_hold_only_live_reservations() {
        // Driver-shaped cycles: admit at `now`, provision, and tear the
        // oldest of four overlapping circuits down as `now` advances,
        // alternating between two site pairs.
        let topo = study_topology();
        let pairs = [(Site::Nersc, Site::Ornl), (Site::Slac, Site::Bnl)];
        let mut i = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
        let mut open = std::collections::VecDeque::new();
        for k in 0..2_000u64 {
            let now = SimTime::from_secs(k * 10);
            let (src, dst) = pairs[(k % 2) as usize];
            let req = ReservationRequest {
                src: topo.dtn(src),
                dst: topo.dtn(dst),
                rate_bps: 1e9,
                start: now,
                end: SimTime::from_secs(k * 10 + 3_600),
            };
            let id = i.create_reservation(req).expect("four 1 G circuits fit");
            i.provision(id, now, SpanId::NONE).unwrap();
            open.push_back(id);
            if open.len() > 4 {
                i.teardown(open.pop_front().unwrap(), now).unwrap();
            }
            let live = i.open_reservations();
            for cal in calendars(&i).into_iter().flatten() {
                assert!(cal.len() <= live, "cycle {k}: {} commitments, {live} open", cal.len());
            }
        }
        assert_eq!(i.stats().admitted, 2_000);
    }
}
