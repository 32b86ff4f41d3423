//! The simulation driver: session scripts × fluid network × circuits.
//!
//! The driver owns the [`NetworkSim`], an [`EventQueue`] of script
//! events, and (optionally) an OSCARS [`Idc`]. It interleaves the two
//! clocks — script events and flow completions — never running either
//! backwards, executes sessions job by job, and emits the GridFTP
//! usage log that the analysis crate consumes. Everything is
//! deterministic in the seed.

use crate::server::{ServerCaps, ServerCluster};
use crate::session::SessionSpec;
use crate::transfer::{prepare_transfer, FailureModel, PreparedTransfer, ServerNoise, TransferJob};
use gvc_engine::{EventQueue, ResourcePartition, SimSpan, SimTime};
use gvc_faults::telemetry::FaultTelemetry;
use gvc_faults::{FaultInjector, FaultKind, FaultPlan, RecoveryAction, RecoveryPolicy};
use gvc_logs::{Dataset, TransferRecord, TransferType};
use gvc_net::tcp::TcpModel;
use gvc_net::{FlowCompletion, FlowId, FlowSpec, NetworkSim};
use gvc_oscars::{Idc, ReservationId, ReservationRequest};
use gvc_stats::rng::component_rng;
use gvc_telemetry::timeline::series;
use gvc_telemetry::{
    Counter, Histogram, SpanId, Stopwatch, Telemetry, TimelineHandle, TraceEvent, Tracer,
};
use gvc_topology::{LinkId, NodeId, Path};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Driver hooks, built from a [`Telemetry`] context by
/// [`Driver::with_telemetry`]. The context itself is kept: its tracer,
/// flight recorder and perf recorder serve the driver, and it
/// instruments a controller attached later and forks lane contexts.
struct DriverTelemetry {
    ctx: Telemetry,
    /// `gridftp_sessions_started_total`.
    sessions_started: Arc<Counter>,
    /// `gridftp_sessions_completed_total`.
    sessions_completed: Arc<Counter>,
    /// `gridftp_transfers_started_total`.
    transfers_started: Arc<Counter>,
    /// `gridftp_transfers_completed_total`.
    transfers_completed: Arc<Counter>,
    /// `gridftp_transferred_bytes_total`: payload bytes completed.
    transferred_bytes: Arc<Counter>,
    /// `gridftp_transfer_throughput_mbps`: logged per-transfer rates.
    throughput_mbps: Arc<Histogram>,
    /// `sim_event_handle_seconds{class=...}`: wall time spent handling
    /// each script-event class, indexed like [`EVENT_CLASSES`].
    event_seconds: [Arc<Histogram>; 7],
    /// Fault and recovery metrics.
    faults: FaultTelemetry,
}

impl DriverTelemetry {
    fn new(ctx: &Telemetry) -> DriverTelemetry {
        let reg = &ctx.registry;
        DriverTelemetry {
            ctx: ctx.clone(),
            sessions_started: reg.counter("gridftp_sessions_started_total", &[]),
            sessions_completed: reg.counter("gridftp_sessions_completed_total", &[]),
            transfers_started: reg.counter("gridftp_transfers_started_total", &[]),
            transfers_completed: reg.counter("gridftp_transfers_completed_total", &[]),
            transferred_bytes: reg.counter("gridftp_transferred_bytes_total", &[]),
            throughput_mbps: reg.histogram(
                "gridftp_transfer_throughput_mbps",
                &[],
                Histogram::rate_mbps,
            ),
            event_seconds: EVENT_CLASSES.map(|class| {
                reg.histogram("sim_event_handle_seconds", &[("class", class)], Histogram::timing)
            }),
            faults: FaultTelemetry::new(ctx),
        }
    }

    /// Bumps `counter` and adds 1 to the timeline's `series` window at
    /// `t_us`.
    fn tally(&self, counter: &Counter, series: &str, t_us: u64) {
        counter.inc();
        if let Some(tl) = &self.ctx.timeline {
            tl.add(series, t_us, 1.0);
        }
    }
}

/// The policy a run without [`Driver::with_recovery`] or
/// [`Driver::with_faults`] applies: one attempt with no setup deadline,
/// after which the session gives the circuit up and runs over routed
/// IP without counting as a fallback.
const SINGLE_ATTEMPT: RecoveryPolicy = RecoveryPolicy {
    max_retries: 0,
    base_backoff_s: 0.0,
    backoff_factor: 1.0,
    max_backoff_s: 0.0,
    jitter_frac: 0.0,
    setup_deadline_s: f64::INFINITY,
    fallback_to_ip: false,
};

/// Tag marking background flows (excluded from the usage log).
pub const BACKGROUND_TAG: u64 = u64::MAX;

/// Worker-pool sizing for [`Driver::run_sharded`].
///
/// The lane *partition* never depends on this value — it only sets
/// how many lanes execute at once — so a run's outputs are
/// byte-identical for every setting, including `Fixed(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// One worker per available CPU.
    Auto,
    /// Exactly `n` workers (1 = lanes run sequentially, in order).
    Fixed(usize),
}

impl Shards {
    /// The worker count this setting resolves to on this host.
    pub fn threads(self) -> usize {
        match self {
            Shards::Auto => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Shards::Fixed(n) => n.max(1),
        }
    }
}

/// Per-lane bookkeeping [`Driver::run_core`] reports alongside its
/// output: what the coordinator needs to recompute pooled statistics
/// (the recovery-latency mean cannot be rebuilt from per-lane means)
/// and the lane's telemetry context, to absorb.
struct LaneStats {
    /// Kernel pops plus flow completions (perf-phase item count).
    events: u64,
    recovery_lat_sum_s: f64,
    recovery_lat_n: u64,
    telemetry: Option<Telemetry>,
}

/// Handle to a registered cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterId(pub usize);

enum Event {
    StartSession(usize),
    LaunchNext(usize),
    InjectBackground(Box<FlowSpec>),
    ResizeCluster(ClusterId, u32),
    /// Re-attempt circuit establishment for a session (recovery).
    RetryVc(usize),
    /// Tear down a session's circuit mid-reservation (injected fault).
    PreemptVc(usize),
    /// Apply scheduled link flap `i` from the fault plan.
    LinkFlap(usize),
    /// Restore the capacity taken by link flap `i`.
    LinkRestore(usize),
}

/// Script-event classes: the `class` label of
/// `sim_event_handle_seconds` and of `kernel.event` traces.
const EVENT_CLASSES: [&str; 7] = [
    "start_session",
    "launch_next",
    "inject_background",
    "resize_cluster",
    "retry_vc",
    "preempt_vc",
    "link_flap",
];

impl Event {
    /// Index into [`EVENT_CLASSES`].
    fn class(&self) -> usize {
        match self {
            Event::StartSession(_) => 0,
            Event::LaunchNext(_) => 1,
            Event::InjectBackground(_) => 2,
            Event::ResizeCluster(_, _) => 3,
            Event::RetryVc(_) => 4,
            Event::PreemptVc(_) => 5,
            Event::LinkFlap(_) | Event::LinkRestore(_) => 6,
        }
    }
}

struct SessionState {
    spec: SessionSpec,
    src: ClusterId,
    dst: ClusterId,
    next_job: usize,
    in_flight: u32,
    vc: Option<(ReservationId, SimTime, f64)>,
    done: bool,
    /// Circuit-establishment attempts made so far (recovery path).
    vc_attempts: u32,
    /// When the first establishment attempt was made.
    vc_started: Option<SimTime>,
    /// The session stopped pursuing a circuit (fallback, give-up, or
    /// preemption); retries must not resurrect it.
    vc_given_up: bool,
    /// `session.run` span, open for the session's whole lifetime.
    span: SpanId,
    /// `session.queue_wait` span, open until the first job launches.
    wait_span: SpanId,
    /// `session.vc_setup` span, open while a circuit is being pursued.
    vc_span: SpanId,
}

struct InFlight {
    session: usize,
    job: TransferJob,
    flow: FlowId,
    overhead_s: f64,
    lossy: bool,
    failed: bool,
    /// `session.transfer` span, closed when the flow completes.
    span: SpanId,
}

/// The session/transfer driver over a fluid network simulation.
pub struct Driver {
    sim: NetworkSim,
    tcp: TcpModel,
    noise: ServerNoise,
    failures: FailureModel,
    /// Control-channel overhead added to each logged transfer, s.
    pub control_overhead_s: f64,
    seed: u64,
    rng: SmallRng,
    pending: EventQueue<Event>,
    clusters: Vec<ServerCluster>,
    sessions: Vec<SessionState>,
    in_flight: BTreeMap<u64, InFlight>,
    next_tag: u64,
    idc: Option<Idc>,
    faults: Option<FaultInjector>,
    /// The configured recovery policy. `None` runs each circuit
    /// request under [`SINGLE_ATTEMPT`] and reports no resilience.
    recovery: Option<RecoveryPolicy>,
    vc_requested: u64,
    vc_established: u64,
    /// Establishment attempts retried.
    retries: u64,
    /// Sessions that fell back to the routed IP path.
    fallbacks: u64,
    recovery_lat_sum_s: f64,
    recovery_lat_n: u64,
    /// Original capacity of each currently-flapped link, by flap index.
    flap_orig: BTreeMap<usize, (LinkId, f64)>,
    /// Memoised [`Driver::path_between`] per `(src, dst)` cluster pair.
    /// Exact: routing weighs links by delay only, and nothing changes a
    /// delay during a run.
    routes: BTreeMap<(usize, usize), Option<Path>>,
    log: Vec<TransferRecord>,
    tstat: Vec<TransferStat>,
    telemetry: Option<DriverTelemetry>,
    /// The `driver.run` root span, opened by [`Driver::run_sharded`].
    run_span: SpanId,
    /// The schedule in call order: every `schedule_*` call appends its
    /// calendar event here and nothing else. A run partitions it into
    /// lanes and each lane's calendar is filled from its own entries,
    /// so the coordinator's calendar stays empty in a multi-lane run.
    script: Vec<(SimTime, Event)>,
    /// Set on lane sub-drivers: `(coordinator run span, lane index)`.
    /// The lane's root span is then `driver.lane` under that parent.
    lane_root: Option<(SpanId, usize)>,
}

impl Driver {
    /// A driver over `sim`, seeded deterministically.
    pub fn new(mut sim: NetworkSim, seed: u64) -> Driver {
        // Background flows carry a reserved tag; telling the simulator
        // lets its parallel SNMP recorder split out the background
        // share for the `net.bg_util` timeline series.
        sim.set_background_tag(BACKGROUND_TAG);
        Driver {
            sim,
            tcp: TcpModel::default(),
            noise: ServerNoise::default(),
            failures: FailureModel::default(),
            control_overhead_s: 0.2,
            seed,
            rng: component_rng(seed, "gridftp-driver"),
            pending: EventQueue::new(),
            clusters: Vec::new(),
            sessions: Vec::new(),
            in_flight: BTreeMap::new(),
            next_tag: 1,
            idc: None,
            faults: None,
            recovery: None,
            vc_requested: 0,
            vc_established: 0,
            retries: 0,
            fallbacks: 0,
            recovery_lat_sum_s: 0.0,
            recovery_lat_n: 0,
            flap_orig: BTreeMap::new(),
            routes: BTreeMap::new(),
            log: Vec::new(),
            tstat: Vec::new(),
            telemetry: None,
            run_span: SpanId::NONE,
            script: Vec::new(),
            lane_root: None,
        }
    }

    /// Attaches a telemetry context, instrumenting the event calendar,
    /// the fluid simulator, the IDC (if present), and the driver's own
    /// transfer lifecycle and recovery chain. Order-independent with
    /// [`Driver::with_idc`].
    pub fn with_telemetry(mut self, ctx: &Telemetry) -> Driver {
        self.telemetry = Some(DriverTelemetry::new(ctx));
        self.instrument();
        self
    }

    /// Attaches the telemetry context, if any, to the subsystems the
    /// driver owns.
    fn instrument(&mut self) {
        let Some(t) = &self.telemetry else { return };
        self.pending.set_telemetry(&t.ctx);
        self.sim.set_telemetry(&t.ctx);
        if let Some(idc) = self.idc.as_mut() {
            idc.set_telemetry(&t.ctx);
        }
    }

    /// Attaches a fault plan, returning `self`. Circuit requests then
    /// retry and fall back under the default [`RecoveryPolicy`] unless
    /// [`Driver::with_recovery`] set one.
    pub fn with_faults(mut self, plan: FaultPlan) -> Driver {
        self.faults = Some(FaultInjector::new(plan));
        if self.recovery.is_none() {
            self.recovery = Some(RecoveryPolicy::default());
        }
        self
    }

    /// Sets the circuit-recovery policy, returning `self`. Enables
    /// retries, backoff and fallback even without a fault plan.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Driver {
        self.recovery = Some(policy);
        self
    }

    /// Overrides the TCP model, returning `self`.
    pub fn with_tcp(mut self, tcp: TcpModel) -> Driver {
        self.tcp = tcp;
        self
    }

    /// Overrides the server-noise model, returning `self`.
    pub fn with_noise(mut self, noise: ServerNoise) -> Driver {
        self.noise = noise;
        self
    }

    /// Overrides the failure/restart model, returning `self`.
    pub fn with_failures(mut self, failures: FailureModel) -> Driver {
        self.failures = failures;
        self
    }

    /// Attaches an OSCARS controller for VC-enabled sessions,
    /// returning `self`.
    pub fn with_idc(mut self, idc: Idc) -> Driver {
        self.idc = Some(idc);
        self.instrument();
        self
    }

    /// The underlying simulator (e.g. for SNMP access after a run).
    pub fn sim(&self) -> &NetworkSim {
        &self.sim
    }

    /// Mutable simulator access (e.g. to monitor links before a run).
    pub fn sim_mut(&mut self) -> &mut NetworkSim {
        &mut self.sim
    }

    /// Registers a GridFTP cluster at `node`.
    pub fn register_cluster(
        &mut self,
        name: &str,
        node: NodeId,
        caps: ServerCaps,
        n_servers: u32,
    ) -> ClusterId {
        let c = ServerCluster::register(&mut self.sim, name, node, caps, n_servers);
        self.clusters.push(c);
        ClusterId(self.clusters.len() - 1)
    }

    /// The cluster record.
    pub fn cluster(&self, id: ClusterId) -> &ServerCluster {
        &self.clusters[id.0]
    }

    /// Schedules a session from `src` to `dst` starting at `at`.
    pub fn schedule_session(
        &mut self,
        at: SimTime,
        src: ClusterId,
        dst: ClusterId,
        spec: SessionSpec,
    ) {
        let idx = self.push_session_slot(src, dst, spec);
        self.script.push((at, Event::StartSession(idx)));
    }

    /// Registers a session's state without scheduling it. Lane
    /// sub-drivers register *every* session slot — so global session
    /// indices (and the RNG streams keyed on them) are preserved —
    /// but run only the sessions their lane owns.
    fn push_session_slot(&mut self, src: ClusterId, dst: ClusterId, spec: SessionSpec) -> usize {
        let idx = self.sessions.len();
        self.sessions.push(SessionState {
            spec,
            src,
            dst,
            next_job: 0,
            in_flight: 0,
            vc: None,
            done: false,
            vc_attempts: 0,
            vc_started: None,
            vc_given_up: false,
            span: SpanId::NONE,
            wait_span: SpanId::NONE,
            vc_span: SpanId::NONE,
        });
        idx
    }

    /// Schedules a single transfer (a one-job session).
    pub fn schedule_transfer(
        &mut self,
        at: SimTime,
        src: ClusterId,
        dst: ClusterId,
        job: TransferJob,
    ) {
        self.schedule_session(at, src, dst, SessionSpec::sequential(vec![job], 0.0));
    }

    /// Schedules background flows (from
    /// [`gvc_net::background::generate_background`]).
    pub fn schedule_background(&mut self, arrivals: Vec<gvc_net::background::BackgroundArrival>) {
        for a in arrivals {
            let spec = a.spec.with_tag(BACKGROUND_TAG);
            self.script.push((a.at, Event::InjectBackground(Box::new(spec))));
        }
    }

    /// Schedules a cluster resize (the frost 3 → 2 → 1 shrink).
    pub fn schedule_resize(&mut self, at: SimTime, cluster: ClusterId, n_servers: u32) {
        self.script.push((at, Event::ResizeCluster(cluster, n_servers)));
    }

    /// The attached sim-time flight recorder, if any. Driver-side
    /// series are all counters of 1.0 increments (or per-event
    /// quantile observations), each fired in exactly one shard lane,
    /// so the per-window merges are shard-invariant.
    fn tl(&self) -> Option<&TimelineHandle> {
        self.telemetry.as_ref().and_then(|t| t.ctx.timeline.as_ref())
    }

    /// The run's tracer; disabled (zero-cost) unless telemetry is
    /// attached.
    fn tracer(&self) -> &Tracer {
        self.telemetry.as_ref().map_or(Tracer::disabled_ref(), |t| &t.ctx.tracer)
    }

    /// Reports an injected fault: counted in the metrics and the
    /// timeline, and traced as `fault.injected` with `fields` after
    /// the kind.
    fn fault_injected(
        &self,
        kind: FaultKind,
        t_us: u64,
        fields: impl FnOnce(TraceEvent) -> TraceEvent,
    ) {
        if let Some(t) = &self.telemetry {
            t.faults.count_injected(kind, t_us);
            t.ctx.tracer.emit_with(|| {
                fields(TraceEvent::new(t_us as i64, "fault.injected").field("fault", kind.as_str()))
            });
        }
    }

    fn path_between(&self, src: ClusterId, dst: ClusterId) -> Option<Path> {
        gvc_topology::shortest_path(
            self.sim.graph(),
            self.clusters[src.0].node,
            self.clusters[dst.0].node,
        )
    }

    /// Handles one script event, timing it per class when telemetry is
    /// attached.
    fn dispatch(&mut self, ev: Event) {
        if self.telemetry.is_none() {
            self.handle_event(ev);
            return;
        }
        let class = ev.class();
        let t_us = self.sim.now().micros() as i64;
        let started = Stopwatch::start();
        self.handle_event(ev);
        let wall = started.elapsed_s();
        if let Some(t) = &self.telemetry {
            t.event_seconds[class].record(wall);
            t.ctx.tracer.emit_with(|| {
                TraceEvent::new(t_us, "kernel.event")
                    .field("class", EVENT_CLASSES[class])
                    .field("wall_us", wall * 1e6)
            });
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::StartSession(idx) => self.start_session(idx),
            Event::LaunchNext(idx) => self.launch_ready_jobs(idx),
            Event::InjectBackground(spec) => {
                self.sim.add_flow(*spec);
            }
            Event::ResizeCluster(id, n) => {
                let c = &mut self.clusters[id.0];
                c.resize(&mut self.sim, n);
            }
            Event::RetryVc(idx) => self.retry_vc(idx),
            Event::PreemptVc(idx) => self.preempt_vc(idx),
            Event::LinkFlap(i) => self.apply_link_flap(i),
            Event::LinkRestore(i) => self.restore_link(i),
        }
    }

    fn start_session(&mut self, idx: usize) {
        let now = self.sim.now();
        let vc_spec = self.sessions[idx].spec.vc;
        if let Some(t) = &self.telemetry {
            t.tally(&t.sessions_started, series::DRIVER_SESSION_STARTS, now.micros());
            let (jobs, conc) = {
                let s = &self.sessions[idx];
                (s.spec.jobs.len(), s.spec.concurrency)
            };
            t.ctx.tracer.emit_with(|| {
                TraceEvent::new(now.micros() as i64, "transfer.session_start")
                    .field("session", idx)
                    .field("jobs", jobs)
                    .field("concurrency", conc)
                    .field("vc", vc_spec.is_some())
            });
        }
        let session_span = self.tracer().span_enter_with(
            self.run_span,
            now.micros() as i64,
            "session.run",
            |ev| ev.field("session", idx).field("vc", vc_spec.is_some()),
        );
        self.sessions[idx].span = session_span;
        self.sessions[idx].wait_span =
            self.tracer().span_enter(session_span, now.micros() as i64, "session.queue_wait");
        if !self.try_establish_vc(idx) {
            self.launch_ready_jobs(idx);
        }
    }

    /// One circuit-establishment attempt: every circuit request, first
    /// or retried, goes through here, and the recovery policy decides
    /// what a failed attempt leads to. Returns `true` when job launch
    /// is deferred (waiting on the circuit, either now provisioned or
    /// still being retried).
    fn try_establish_vc(&mut self, idx: usize) -> bool {
        let now = self.sim.now();
        let (src, dst, vc) = {
            let s = &self.sessions[idx];
            (s.src, s.dst, s.spec.vc)
        };
        let Some(vc) = vc else {
            return false;
        };
        if self.idc.is_none() {
            return false;
        }
        let policy = self.recovery.unwrap_or(SINGLE_ATTEMPT);
        self.sessions[idx].vc_attempts += 1;
        let attempt = self.sessions[idx].vc_attempts;
        if attempt == 1 {
            self.vc_requested += 1;
            self.sessions[idx].vc_started = Some(now);
            self.sessions[idx].vc_span = self.tracer().span_enter_with(
                self.sessions[idx].span,
                now.micros() as i64,
                "session.vc_setup",
                |ev| ev.field("session", idx),
            );
        }
        let vc_span = self.sessions[idx].vc_span;
        let attempt_span =
            self.tracer().span_enter_with(vc_span, now.micros() as i64, "vc.attempt", |ev| {
                ev.field("session", idx).field("attempt", attempt)
            });
        let injected = self.faults.as_mut().and_then(FaultInjector::provision_fault);
        let req = ReservationRequest {
            src: self.clusters[src.0].node,
            dst: self.clusters[dst.0].node,
            rate_bps: vc.rate_bps,
            start: now,
            end: now + SimSpan::from_secs_f64(vc.max_duration_s),
        };
        // `reason` labels the failed attempt in the trace; injected
        // faults also tear down anything the IDC admitted so a failed
        // attempt never leaks a reservation.
        let mut established: Option<(ReservationId, SimTime)> = None;
        let mut reason: &'static str = "";
        if let Some(idc) = self.idc.as_mut() {
            match idc.create_reservation(req) {
                Ok(id) => {
                    if injected.is_some() {
                        let _ = idc.teardown(id, now);
                    } else {
                        match idc.provision(id, now) {
                            Ok(ready) if (ready - now).as_secs_f64() > policy.setup_deadline_s => {
                                let _ = idc.teardown(id, now);
                                reason = "setup_deadline";
                            }
                            Ok(ready) => established = Some((id, ready)),
                            Err(_) => reason = "provision_error",
                        }
                    }
                }
                Err(_) => {
                    if injected.is_none() {
                        reason = "blocked";
                    }
                }
            }
        }
        if let Some(kind) = injected {
            reason = kind.as_str();
            self.fault_injected(kind, now.micros(), |ev| {
                ev.field("session", idx).field("attempt", attempt)
            });
        }

        if let Some((id, ready)) = established {
            self.tracer().span_exit_with(attempt_span, now.micros() as i64, |ev| {
                ev.field("outcome", "established")
            });
            self.tracer().span_exit_with(vc_span, ready.micros() as i64, |ev| {
                ev.field("outcome", "established")
            });
            self.sessions[idx].vc_span = SpanId::NONE;
            self.sessions[idx].vc = Some((id, ready, vc.rate_bps));
            self.vc_established += 1;
            if let Some(tl) = self.tl() {
                // Setup latency = first attempt to circuit-ready,
                // including provisioning delay and any backoff waits.
                let t0 = self.sessions[idx].vc_started.unwrap_or(now);
                tl.observe(series::DRIVER_VC_SETUP, now.micros(), (ready - t0).as_secs_f64());
            }
            if attempt > 1 {
                let waited_s =
                    self.sessions[idx].vc_started.map_or(0.0, |t0| (now - t0).as_secs_f64());
                self.record_recovery_latency(waited_s);
                self.tracer().emit_with(|| {
                    TraceEvent::new(now.micros() as i64, "recovery.established")
                        .field("session", idx)
                        .field("attempts", attempt)
                        .field("waited_s", waited_s)
                });
            }
            if let Some(after_s) = self.faults.as_ref().and_then(FaultInjector::preempt_after_s) {
                self.pending
                    .schedule(ready + SimSpan::from_secs_f64(after_s), Event::PreemptVc(idx));
            }
            if vc.wait_for_circuit {
                self.pending.schedule(ready, Event::LaunchNext(idx));
                return true;
            }
            return false;
        }

        // The attempt failed; ask the policy what happens next.
        let seed = self.faults.as_ref().map_or(self.seed, |f| f.plan().seed);
        let waited_s = self.sessions[idx].vc_started.map_or(0.0, |t0| (now - t0).as_secs_f64());
        match policy.decide(seed, attempt) {
            RecoveryAction::Retry { delay_s_micros } => {
                self.retries += 1;
                if let Some(t) = &self.telemetry {
                    t.tally(&t.faults.retries, series::DRIVER_RETRIES, now.micros());
                }
                let delay_s = delay_s_micros as f64 / 1e6;
                self.tracer().emit_with(|| {
                    TraceEvent::new(now.micros() as i64, "recovery.retry")
                        .field("session", idx)
                        .field("attempt", attempt)
                        .field("reason", reason)
                        .field("delay_s", delay_s)
                });
                self.tracer().span_exit_with(attempt_span, now.micros() as i64, |ev| {
                    ev.field("outcome", "retry").field("reason", reason)
                });
                // The backoff window's end is decided now, so the span
                // closes immediately with a future timestamp.
                let backoff = self.tracer().span_enter_with(
                    vc_span,
                    now.micros() as i64,
                    "vc.backoff",
                    |ev| ev.field("session", idx).field("attempt", attempt),
                );
                self.tracer()
                    .span_exit(backoff, (now + SimSpan(delay_s_micros as i64)).micros() as i64);
                self.pending.schedule(now + SimSpan(delay_s_micros as i64), Event::RetryVc(idx));
                // Blocking sessions keep waiting through retries;
                // best-effort ones start IP-routed immediately.
                vc.wait_for_circuit
            }
            action => {
                // The pursuit ends: either fall back to the routed IP
                // path (tallied and marked as a fallback) or give the
                // circuit up. Transfers run over IP either way.
                let fell_back = action == RecoveryAction::FallbackToIp;
                let outcome = if fell_back { "fallback_ip" } else { "giveup" };
                if fell_back {
                    self.fallbacks += 1;
                    if let Some(t) = &self.telemetry {
                        t.tally(&t.faults.fallback_ip, series::DRIVER_FALLBACKS, now.micros());
                    }
                }
                self.record_recovery_latency(waited_s);
                self.sessions[idx].vc_given_up = true;
                self.tracer().span_exit_with(attempt_span, now.micros() as i64, |ev| {
                    ev.field("outcome", outcome).field("reason", reason)
                });
                self.tracer().span_exit_with(vc_span, now.micros() as i64, |ev| {
                    ev.field("outcome", outcome)
                });
                self.sessions[idx].vc_span = SpanId::NONE;
                if fell_back {
                    let marker = self.tracer().span_enter_with(
                        self.sessions[idx].span,
                        now.micros() as i64,
                        "session.fallback",
                        |ev| ev.field("session", idx).field("reason", reason),
                    );
                    self.tracer().span_exit(marker, now.micros() as i64);
                }
                self.tracer().emit_with(|| {
                    let t_us = now.micros() as i64;
                    let ev = if fell_back {
                        TraceEvent::new(t_us, "recovery.fallback")
                    } else {
                        TraceEvent::new(t_us, "recovery.giveup")
                    };
                    ev.field("session", idx).field("attempts", attempt).field("reason", reason)
                });
                false
            }
        }
    }

    fn record_recovery_latency(&mut self, waited_s: f64) {
        if let Some(t) = &self.telemetry {
            t.faults.recovery_latency.record(waited_s);
        }
        self.recovery_lat_sum_s += waited_s;
        self.recovery_lat_n += 1;
    }

    fn retry_vc(&mut self, idx: usize) {
        let s = &self.sessions[idx];
        if s.done || s.vc_given_up || s.vc.is_some() {
            return;
        }
        if !self.try_establish_vc(idx) {
            self.launch_ready_jobs(idx);
        }
    }

    /// Injected mid-reservation teardown: the provider preempts the
    /// circuit. In-flight transfers lose their guarantee and finish
    /// best-effort; the session does not re-request.
    fn preempt_vc(&mut self, idx: usize) {
        let now = self.sim.now();
        let Some((id, _, _)) = self.sessions[idx].vc else {
            return;
        };
        if self.sessions[idx].done {
            return;
        }
        if let Some(idc) = self.idc.as_mut() {
            let _ = idc.teardown(id, now);
        }
        self.sessions[idx].vc = None;
        self.sessions[idx].vc_given_up = true;
        let flows: Vec<FlowId> =
            self.in_flight.values().filter(|f| f.session == idx).map(|f| f.flow).collect();
        for fid in flows {
            self.sim.set_flow_guarantee(fid, 0.0);
        }
        if let Some(f) = self.faults.as_mut() {
            f.note(FaultKind::Preemption);
        }
        self.fault_injected(FaultKind::Preemption, now.micros(), |ev| ev.field("session", idx));
    }

    fn apply_link_flap(&mut self, i: usize) {
        let Some(flap) = self.faults.as_ref().and_then(|f| f.link_flaps().get(i).cloned()) else {
            return;
        };
        let Some((src, dst)) = flap.link.split_once("->") else {
            return;
        };
        let Some(lid) = self.sim.link_by_names(src, dst) else {
            return;
        };
        let orig = self.sim.graph().link(lid).capacity_bps;
        if !self.sim.set_link_capacity(lid, orig * flap.residual_frac) {
            return;
        }
        self.flap_orig.insert(i, (lid, orig));
        if let Some(f) = self.faults.as_mut() {
            f.note(FaultKind::LinkFlap);
        }
        self.fault_injected(FaultKind::LinkFlap, self.sim.now().micros(), |ev| {
            ev.field("link", flap.link.as_str()).field("residual_frac", flap.residual_frac)
        });
    }

    fn restore_link(&mut self, i: usize) {
        let Some((lid, orig)) = self.flap_orig.remove(&i) else {
            return;
        };
        self.sim.set_link_capacity(lid, orig);
        let t_us = self.sim.now().micros() as i64;
        self.tracer().emit_with(|| {
            TraceEvent::new(t_us, "fault.cleared")
                .field("fault", FaultKind::LinkFlap.as_str())
                .field("flap", i)
        });
    }

    /// Launches jobs until the session's concurrency target is met.
    fn launch_ready_jobs(&mut self, idx: usize) {
        loop {
            let job = {
                let s = &self.sessions[idx];
                if s.done || s.in_flight >= s.spec.concurrency {
                    None
                } else {
                    s.spec.jobs.get(s.next_job).cloned()
                }
            };
            let Some(job) = job else { break };
            let job_index = self.sessions[idx].next_job;
            let launched = self.launch_job(idx, job_index, job);
            let s = &mut self.sessions[idx];
            s.next_job += 1;
            if launched {
                s.in_flight += 1;
            }
        }
    }

    /// Returns whether a flow was actually started; jobs between
    /// disconnected clusters are dropped.
    fn launch_job(&mut self, idx: usize, job_index: usize, job: TransferJob) -> bool {
        let (src, dst) = (self.sessions[idx].src, self.sessions[idx].dst);
        let key = (src.0, dst.0);
        if !self.routes.contains_key(&key) {
            let path = self.path_between(src, dst);
            self.routes.insert(key, path);
        }
        let Some(Some(path)) = self.routes.get(&key) else {
            return false;
        };
        // Failure draws come from a stream keyed by (session, job) so
        // one session's shape never perturbs another's outcomes.
        let mut fail_rng = component_rng(self.seed, &format!("gridftp-fail/{idx}/{job_index}"));
        let mut prepared: PreparedTransfer = prepare_transfer(
            self.sim.graph(),
            path,
            &self.clusters[src.0],
            &self.clusters[dst.0],
            job,
            &self.tcp,
            self.noise,
            self.failures,
            self.control_overhead_s,
            &mut self.rng,
            &mut fail_rng,
        );
        // Injected server restart: forced failure penalty on top of
        // whatever the probabilistic model drew.
        let forced = self.faults.as_mut().is_some_and(|f| f.server_restart(idx, job_index as u32));
        if forced {
            prepared.overhead_s += self.failures.sample_forced_penalty_s(&mut fail_rng);
            prepared.failed = true;
            self.fault_injected(FaultKind::ServerRestart, self.sim.now().micros(), |ev| {
                ev.field("session", idx).field("job", job_index)
            });
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        let mut spec = prepared.spec.with_tag(tag);
        // Circuit guarantee, shared across the session's concurrency.
        if let Some((_, ready, rate)) = self.sessions[idx].vc {
            if self.sim.now() >= ready {
                spec.min_rate_bps = rate / f64::from(self.sessions[idx].spec.concurrency);
            }
        }
        let flow = self.sim.add_flow(spec);
        if let Some(t) = &self.telemetry {
            t.transfers_started.inc();
            let (bytes, streams, stripes) =
                (prepared.job.size_bytes, prepared.job.streams, prepared.job.stripes);
            t.ctx.tracer.emit_with(|| {
                TraceEvent::new(self.sim.now().micros() as i64, "transfer.start")
                    .field("tag", tag)
                    .field("session", idx)
                    .field("bytes", bytes)
                    .field("streams", streams)
                    .field("stripes", stripes)
            });
        }
        let t_us = self.sim.now().micros() as i64;
        if !self.sessions[idx].wait_span.is_none() {
            self.tracer().span_exit(self.sessions[idx].wait_span, t_us);
            self.sessions[idx].wait_span = SpanId::NONE;
        }
        let bytes = prepared.job.size_bytes;
        let span = self.tracer().span_enter_with(
            self.sessions[idx].span,
            t_us,
            "session.transfer",
            |ev| ev.field("tag", tag).field("session", idx).field("bytes", bytes),
        );
        self.in_flight.insert(
            tag,
            InFlight {
                session: idx,
                job: prepared.job,
                flow,
                overhead_s: prepared.overhead_s,
                lossy: prepared.lossy,
                failed: prepared.failed,
                span,
            },
        );
        true
    }

    fn handle_completion(&mut self, c: FlowCompletion) {
        if c.tag == BACKGROUND_TAG {
            return;
        }
        let Some(info) = self.in_flight.remove(&c.tag) else {
            return;
        };
        let idx = info.session;
        let (src, dst) = (self.sessions[idx].src, self.sessions[idx].dst);
        // Logged duration includes slow start and control overhead.
        let duration_us = ((c.end - c.start).micros() as f64 + info.overhead_s * 1e6) as i64;
        let (server, remote) = match info.job.logged_as {
            TransferType::Retr => (&self.clusters[src.0].name, &self.clusters[dst.0].name),
            TransferType::Store => (&self.clusters[dst.0].name, &self.clusters[src.0].name),
        };
        self.tstat.push(TransferStat {
            start_unix_us: self.sim.to_unix_us(c.start),
            session: idx,
            num_streams: info.job.streams,
            lossy: info.lossy,
            failed: info.failed,
        });
        self.log.push(TransferRecord {
            transfer_type: info.job.logged_as,
            size_bytes: info.job.size_bytes,
            start_unix_us: self.sim.to_unix_us(c.start),
            duration_us,
            server: server.clone(),
            remote: Some(remote.clone()),
            num_streams: info.job.streams,
            num_stripes: info.job.stripes,
            tcp_buffer_bytes: info.job.tcp_buffer_bytes,
            block_size_bytes: info.job.block_size_bytes,
            src_kind: Some(info.job.src_kind),
            dst_kind: Some(info.job.dst_kind),
        });
        if let Some(t) = &self.telemetry {
            let duration_s = duration_us as f64 / 1e6;
            let mbps = if duration_s > 0.0 {
                info.job.size_bytes as f64 * 8.0 / duration_s / 1e6
            } else {
                0.0
            };
            t.tally(&t.transfers_completed, series::DRIVER_TRANSFERS, c.end.micros());
            t.transferred_bytes.add(info.job.size_bytes);
            t.throughput_mbps.record(mbps);
            let (bytes, streams, lossy, failed) =
                (info.job.size_bytes, info.job.streams, info.lossy, info.failed);
            t.ctx.tracer.emit_with(|| {
                TraceEvent::new(c.end.micros() as i64, "transfer.complete")
                    .field("tag", c.tag)
                    .field("session", idx)
                    .field("bytes", bytes)
                    .field("duration_s", duration_s)
                    .field("mbps", mbps)
                    .field("streams", streams)
                    .field("lossy", lossy)
                    .field("failed", failed)
            });
        }
        self.tracer().span_exit(info.span, c.end.micros() as i64);

        // Session bookkeeping: free a slot and continue after the gap.
        let s = &mut self.sessions[idx];
        s.in_flight -= 1;
        if s.next_job < s.spec.jobs.len() {
            let gap =
                SimSpan::from_secs_f64(info.overhead_s + s.spec.inter_transfer_gap_s.max(0.0));
            self.pending.schedule(self.sim.now() + gap, Event::LaunchNext(idx));
        } else if s.in_flight == 0 && !s.done {
            s.done = true;
            let session_span = s.span;
            if let (Some((id, _, _)), Some(idc)) = (s.vc, self.idc.as_mut()) {
                // The session owns this reservation, so it is known to
                // the IDC; teardown is also idempotent.
                let _ = idc.teardown(id, self.sim.now());
            }
            self.tracer().span_exit(session_span, self.sim.now().micros() as i64);
            if let Some(t) = &self.telemetry {
                let now_us = self.sim.now().micros();
                t.tally(&t.sessions_completed, series::DRIVER_SESSION_COMPLETIONS, now_us);
                t.ctx.tracer.emit_with(|| {
                    TraceEvent::new(self.sim.now().micros() as i64, "transfer.session_complete")
                        .field("session", idx)
                });
            }
        }
    }

    /// Runs to completion: processes every scheduled event and every
    /// flow completion, then returns the usage log. This is the
    /// one-worker sharded run, `run_sharded(limit, Shards::Fixed(1))`.
    ///
    /// `limit` bounds the simulation clock as a safety net against
    /// stalled flows.
    pub fn run(self, limit: SimTime) -> DriverOutput {
        self.run_sharded(limit, Shards::Fixed(1))
    }

    /// The drive loop proper over this driver's own script, also
    /// reporting the lane-level stats the sharded coordinator needs to
    /// pool runs.
    fn run_core(mut self, limit: SimTime) -> (DriverOutput, LaneStats) {
        // The script goes on the calendar in call order before the
        // run's root span opens, so FIFO sequence numbers and
        // `kernel.queue_wait` span ids follow the `schedule_*` calls.
        for (at, ev) in std::mem::take(&mut self.script) {
            self.pending.schedule(at, ev);
        }
        // Host-perf phase around the whole drive loop; items = kernel
        // pops + flow completions. Disabled handle = one branch here.
        let perf = self.telemetry.as_ref().map(|t| t.ctx.perf.clone()).unwrap_or_default();
        let mut perf_phase = perf.phase("simulate");
        let mut completions: u64 = 0;
        let start_us = self.sim.now().micros() as i64;
        self.run_span = match self.lane_root {
            Some((parent, lane)) => {
                self.tracer()
                    .span_enter_with(parent, start_us, "driver.lane", |ev| ev.field("lane", lane))
            }
            None => self.tracer().span_enter(SpanId::NONE, start_us, "driver.run"),
        };
        // Scheduled link flaps from the fault plan become calendar
        // events before anything else runs.
        let flap_windows: Vec<(usize, f64, f64)> = self
            .faults
            .as_ref()
            .map(|f| {
                f.link_flaps()
                    .iter()
                    .enumerate()
                    .map(|(i, flap)| (i, flap.at_s, flap.duration_s))
                    .collect()
            })
            .unwrap_or_default();
        for (i, at_s, duration_s) in flap_windows {
            self.pending.schedule(SimTime::from_secs_f64(at_s), Event::LinkFlap(i));
            self.pending.schedule(SimTime::from_secs_f64(at_s + duration_s), Event::LinkRestore(i));
        }
        loop {
            let t_event = self.pending.peek_time();
            let t_comp = self.sim.peek_completion();
            // Which timeline advances next? Completions win ties so a
            // freed slot is visible to the event sharing its instant.
            let next_is_completion = match (t_event, t_comp) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(te), Some(tc)) => tc <= te,
            };
            if next_is_completion {
                let Some(tc) = t_comp else { break };
                if tc > limit {
                    break;
                }
                let done = self.sim.run_until(tc);
                completions += done.len() as u64;
                for c in done {
                    self.handle_completion(c);
                }
            } else {
                let Some(te) = t_event else { break };
                if te > limit {
                    break;
                }
                let done = self.sim.run_until(te);
                completions += done.len() as u64;
                for c in done {
                    self.handle_completion(c);
                }
                if let Some((_, ev)) = self.pending.pop() {
                    self.dispatch(ev);
                }
            }
        }
        self.tracer().span_exit(self.run_span, self.sim.now().micros() as i64);
        let idc_stats = self.idc.as_ref().map(gvc_oscars::Idc::stats);
        let open_reservations = self.idc.as_ref().map(Idc::open_reservations);
        let resilience = self.recovery.map(|_| ResilienceReport {
            vc_requested: self.vc_requested,
            vc_established: self.vc_established,
            faults_injected: self.faults.as_ref().map_or(0, FaultInjector::injected_total),
            retries: self.retries,
            fallbacks: self.fallbacks,
            preemptions: self
                .faults
                .as_ref()
                .map_or(0, |f| f.injected_count(FaultKind::Preemption)),
            mean_recovery_latency_s: if self.recovery_lat_n > 0 {
                self.recovery_lat_sum_s / self.recovery_lat_n as f64
            } else {
                0.0
            },
        });
        let events = self.pending.dispatched() + completions;
        perf_phase.items(events);
        drop(perf_phase);
        self.tracer().flush();
        let stats = LaneStats {
            events,
            recovery_lat_sum_s: self.recovery_lat_sum_s,
            recovery_lat_n: self.recovery_lat_n,
            telemetry: self.telemetry.map(|t| t.ctx),
        };
        self.tstat.sort_by_key(|t| t.start_unix_us);
        (
            DriverOutput {
                log: Dataset::from_records(self.log),
                sim: self.sim,
                idc_stats,
                tstat: TstatReport { transfers: self.tstat },
                resilience,
                open_reservations,
            },
            stats,
        )
    }

    /// Partitions the script into independent event lanes: a
    /// union-find over the resources each scheduled item can touch —
    /// its endpoint clusters, every link on its routed path, and (for
    /// circuit-requesting sessions) the shared IDC calendar. Item `i`
    /// is script entry `i`; the fault plan's link flaps follow. Items
    /// in the same component must run in one lane; disjoint components
    /// never interact and can run in parallel.
    ///
    /// The partition depends only on the workload and topology, never
    /// on the shard count, which is what makes sharded outputs
    /// byte-identical for every [`Shards`] setting.
    fn lane_partition(&self) -> Vec<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum LaneKey {
            /// The OSCARS calendar: every circuit-requesting session
            /// contends for the same reservable bandwidth, whatever
            /// path CSPF ends up picking for it.
            Idc,
            Cluster(usize),
            Link(u32),
            Resource(u32),
        }
        let mut part = ResourcePartition::new();
        // Sessions repeat a few cluster pairs (the full SLAC drive has
        // about 10 000 over one pair), so each pair is routed once.
        let mut routes: BTreeMap<(usize, usize), Option<Path>> = BTreeMap::new();
        for (idx, (_, ev)) in self.script.iter().enumerate() {
            match ev {
                Event::StartSession(i) => {
                    let s = &self.sessions[*i];
                    let path = routes
                        .entry((s.src.0, s.dst.0))
                        .or_insert_with(|| self.path_between(s.src, s.dst));
                    let links = path.iter().flat_map(|p| &p.links).map(|&l| LaneKey::Link(l.0));
                    let idc = (s.spec.vc.is_some() && self.idc.is_some()).then_some(LaneKey::Idc);
                    let ends = [LaneKey::Cluster(s.src.0), LaneKey::Cluster(s.dst.0)];
                    part.add_item(idx, ends.into_iter().chain(links).chain(idc));
                }
                Event::InjectBackground(spec) => part.add_item(
                    idx,
                    spec.route
                        .iter()
                        .map(|&l| LaneKey::Link(l.0))
                        .chain(spec.resources.iter().map(|&r| LaneKey::Resource(r.0))),
                ),
                Event::ResizeCluster(cluster, _) => {
                    part.add_item(idx, [LaneKey::Cluster(cluster.0)]);
                }
                // Only `schedule_*` calls write the script; an event of
                // any other class would touch nothing: its own lane.
                _ => part.add_item(idx, None),
            }
        }
        let n = self.script.len();
        for (fi, flap) in self.faults.iter().flat_map(FaultInjector::link_flaps).enumerate() {
            let key = flap
                .link
                .split_once("->")
                .and_then(|(s, d)| self.sim.link_by_names(s, d))
                .map(|l| LaneKey::Link(l.0));
            part.add_item(n + fi, key);
        }
        part.lanes()
    }

    /// Number of independent event lanes the current schedule splits
    /// into. With one lane, every [`Shards`] setting runs the same
    /// single drive loop on the calling thread.
    pub fn lane_count(&self) -> usize {
        self.lane_partition().len().max(1)
    }

    /// Builds the sub-driver for one lane: a fresh simulator over the
    /// same topology, every cluster and session slot registered in
    /// global order (preserving ids and per-session RNG streams), the
    /// lane's own link flaps, and a lane fork of the run's telemetry
    /// context. Its script is dealt in afterwards by
    /// [`Driver::run_sharded`].
    fn build_lane(&self, k: usize, members: &[usize], parent: SpanId) -> Driver {
        let n = self.script.len();
        let mut sim = NetworkSim::new(self.sim.graph().clone(), self.sim.to_unix_us(SimTime::ZERO));
        for link in self.sim.snmp().monitored_links() {
            sim.monitor_link(link);
        }
        let mut lane = Driver::new(sim, self.seed);
        // Each lane draws server noise from its own labelled stream;
        // the label depends on the (shard-count-invariant) lane index,
        // so every sharded run of a workload sees the same draws.
        lane.rng = component_rng(self.seed, &format!("gridftp-driver/lane{k}"));
        lane.tcp = self.tcp;
        lane.noise = self.noise;
        lane.failures = self.failures;
        lane.control_overhead_s = self.control_overhead_s;
        lane.recovery = self.recovery;
        lane.lane_root = Some((parent, k));
        // At most one lane contains circuit-requesting sessions (they
        // all share the IDC lane key), so its fork keeps the
        // controller's reservation-id numbering and sees every
        // reservation.
        let owns_vc = members.iter().any(|&i| {
            matches!(self.script.get(i), Some((_, Event::StartSession(s)))
                if self.sessions[*s].spec.vc.is_some())
        });
        if owns_vc {
            lane.idc = self.idc.as_ref().map(Idc::fork);
        }
        if let Some(f) = &self.faults {
            let mut plan = f.plan().clone();
            // Only the lane's own flaps: flap indices re-number within
            // the lane, matching the LinkFlap events its run schedules.
            plan.link_flaps = members
                .iter()
                .filter_map(|&i| i.checked_sub(n))
                .filter_map(|fi| f.plan().link_flaps.get(fi).cloned())
                .collect();
            lane.faults = Some(FaultInjector::new(plan));
        }
        if let Some(t) = &self.telemetry {
            lane = lane.with_telemetry(&t.ctx.lane(k));
        }
        for c in &self.clusters {
            lane.register_cluster(&c.name, c.node, c.caps, c.n_servers());
        }
        for s in &self.sessions {
            lane.push_session_slot(s.src, s.dst, s.spec.clone());
        }
        lane
    }

    /// Runs the script as independent event lanes — potentially in
    /// parallel — and merges the results through a deterministic,
    /// lane-ordered fold.
    ///
    /// Determinism contract:
    ///
    /// * outputs are byte-identical for every `shards` value, including
    ///   `Shards::Fixed(1)`, which runs the lanes one after another and
    ///   is what [`Driver::run`] does;
    /// * a schedule that partitions into a single lane (everything
    ///   shares a path, which includes the paper's one-pair studies)
    ///   runs this driver's own drive loop on the calling thread, with
    ///   the `gridftp-driver` noise stream;
    /// * a multi-lane schedule runs one sub-driver per lane, each
    ///   drawing server noise from its own `gridftp-driver/lane{k}`
    ///   stream, and the coordinator never touches its own calendar
    ///   (see `docs/kernel.md`).
    pub fn run_sharded(mut self, limit: SimTime, shards: Shards) -> DriverOutput {
        let lanes = self.lane_partition();
        if lanes.len() <= 1 {
            return self.run_core(limit).0;
        }
        let perf = self.telemetry.as_ref().map(|t| t.ctx.perf.clone()).unwrap_or_default();
        let mut perf_phase = perf.phase("simulate");
        let lane_count = lanes.len();
        let run_span = self.tracer().span_enter_with(
            SpanId::NONE,
            self.sim.now().micros() as i64,
            "driver.run",
            |ev| ev.field("lanes", lane_count),
        );
        let mut drivers: Vec<Driver> = lanes
            .iter()
            .enumerate()
            .map(|(k, members)| self.build_lane(k, members, run_span))
            .collect();
        // Deal the script out in call order: each entry moves to the
        // lane that owns it, so every lane's script keeps call order.
        // Members past the script are link flaps, already placed.
        let n = self.script.len();
        let mut lane_of = vec![0; n];
        for (k, members) in lanes.iter().enumerate() {
            members.iter().filter(|&&i| i < n).for_each(|&i| lane_of[i] = k);
        }
        for (entry, k) in std::mem::take(&mut self.script).into_iter().zip(lane_of) {
            drivers[k].script.push(entry);
        }
        let results = run_lanes(drivers, limit, shards.threads());
        // Fold the lane contexts back in lane order: the trace is the
        // coordinator's events, then each lane's buffer whole (the
        // offline tools sort by timestamp where they need a global
        // timeline), and metrics and timeline windows merge the same
        // for every shard count and thread schedule.
        if let Some(t) = &self.telemetry {
            for lane in results.iter().filter_map(|(_, ls)| ls.telemetry.as_ref()) {
                t.ctx.absorb_lane(lane);
            }
        }
        let end_us = results.iter().map(|(o, _)| o.sim.now().micros() as i64).max().unwrap_or(0);
        self.tracer().span_exit(run_span, end_us);
        let mut records = Vec::new();
        let mut transfers = Vec::new();
        let mut idc_sum = gvc_oscars::IdcStats::default();
        let mut open_sum = 0usize;
        let mut events = 0u64;
        let mut rep = ResilienceReport::default();
        let (mut lat_sum, mut lat_n) = (0.0_f64, 0_u64);
        for (o, ls) in results {
            self.sim.absorb_snmp(o.sim.snmp());
            self.sim.absorb_bg_snmp(o.sim.bg_snmp());
            records.extend(o.log.into_records());
            transfers.extend(o.tstat.transfers);
            if let Some(s) = o.idc_stats {
                idc_sum.requests += s.requests;
                idc_sum.admitted += s.admitted;
                idc_sum.blocked += s.blocked;
            }
            open_sum += o.open_reservations.unwrap_or(0);
            if let Some(r) = o.resilience {
                rep.vc_requested += r.vc_requested;
                rep.vc_established += r.vc_established;
                rep.faults_injected += r.faults_injected;
                rep.retries += r.retries;
                rep.fallbacks += r.fallbacks;
                rep.preemptions += r.preemptions;
            }
            lat_sum += ls.recovery_lat_sum_s;
            lat_n += ls.recovery_lat_n;
            events += ls.events;
        }
        rep.mean_recovery_latency_s = if lat_n > 0 { lat_sum / lat_n as f64 } else { 0.0 };
        perf_phase.items(events);
        drop(perf_phase);
        self.tracer().flush();
        // Stable sort: equal start times keep lane-concatenation
        // order, which is itself deterministic.
        transfers.sort_by_key(|t| t.start_unix_us);
        DriverOutput {
            log: Dataset::from_records(records),
            sim: self.sim,
            idc_stats: self.idc.as_ref().map(|_| idc_sum),
            tstat: TstatReport { transfers },
            resilience: self.recovery.map(|_| rep),
            open_reservations: self.idc.as_ref().map(|_| open_sum),
        }
    }
}

/// Executes lane sub-drivers, returning results in lane order. With
/// more than one worker, lanes run via recursive `rayon::join` splits
/// bounded by the worker budget; the halves concatenate back in lane
/// order however execution interleaves, so results never depend on
/// scheduling. With one worker, lanes run one after another, in lane
/// order.
fn run_lanes(lanes: Vec<Driver>, limit: SimTime, threads: usize) -> Vec<(DriverOutput, LaneStats)> {
    fn go(
        mut lanes: Vec<Driver>,
        limit: SimTime,
        workers: usize,
    ) -> Vec<(DriverOutput, LaneStats)> {
        if workers <= 1 || lanes.len() <= 1 {
            return lanes.into_iter().map(|d| d.run_core(limit)).collect();
        }
        let right = lanes.split_off(lanes.len() / 2);
        let (left_workers, right_workers) = (workers - workers / 2, workers / 2);
        let (mut l, r) =
            rayon::join(|| go(lanes, limit, left_workers), || go(right, limit, right_workers));
        l.extend(r);
        l
    }
    go(lanes, limit, threads)
}

/// Per-transfer connection statistics, in the spirit of the `tstat`
/// tool the paper plans to use to test its rare-loss hypothesis
/// (§VII-B): which transfers actually saw a loss event, and which
/// failed and restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferStat {
    /// Start time, unix µs (aligns with the log's start order).
    pub start_unix_us: i64,
    /// Index of the session that ran this transfer.
    pub session: usize,
    /// Parallel streams used.
    pub num_streams: u32,
    /// Did a TCP loss event hit this transfer?
    pub lossy: bool,
    /// Did the transfer fail and restart mid-flight?
    pub failed: bool,
}

/// The per-run connection report.
#[derive(Debug, Clone, Default)]
pub struct TstatReport {
    /// One entry per logged transfer, in start order.
    pub transfers: Vec<TransferStat>,
}

impl TstatReport {
    /// Fraction of transfers that saw a loss event — the paper's
    /// hypothesis is that this is tiny.
    pub fn loss_fraction(&self) -> f64 {
        if self.transfers.is_empty() {
            return 0.0;
        }
        self.transfers.iter().filter(|t| t.lossy).count() as f64 / self.transfers.len() as f64
    }

    /// Fraction of transfers that failed and restarted.
    pub fn failure_fraction(&self) -> f64 {
        if self.transfers.is_empty() {
            return 0.0;
        }
        self.transfers.iter().filter(|t| t.failed).count() as f64 / self.transfers.len() as f64
    }
}

/// Fault/recovery outcome summary for one run, produced whenever a
/// recovery policy was configured.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceReport {
    /// Sessions that requested a circuit.
    pub vc_requested: u64,
    /// Sessions whose circuit was eventually established.
    pub vc_established: u64,
    /// Faults the injector actually delivered (all kinds).
    pub faults_injected: u64,
    /// Establishment attempts retried.
    pub retries: u64,
    /// Sessions that fell back to the routed IP path.
    pub fallbacks: u64,
    /// Circuits preempted mid-reservation.
    pub preemptions: u64,
    /// Mean first-attempt-to-outcome latency over sessions that needed
    /// recovery, seconds.
    pub mean_recovery_latency_s: f64,
}

impl ResilienceReport {
    /// Fraction of circuit-requesting sessions that got one (1.0 when
    /// none asked — nothing failed).
    pub fn session_success_rate(&self) -> f64 {
        if self.vc_requested == 0 {
            1.0
        } else {
            self.vc_established as f64 / self.vc_requested as f64
        }
    }
}

/// Results of a driver run.
pub struct DriverOutput {
    /// The GridFTP usage log.
    pub log: Dataset,
    /// The simulator (for SNMP counters).
    pub sim: NetworkSim,
    /// IDC admission stats when circuits were in play.
    pub idc_stats: Option<gvc_oscars::IdcStats>,
    /// Per-transfer loss/failure statistics (tstat-style).
    pub tstat: TstatReport,
    /// Fault/recovery summary (when a recovery policy was active).
    pub resilience: Option<ResilienceReport>,
    /// Reservations still open at the IDC after the run — must be 0
    /// when every session completed or fell back (no leaks).
    pub open_reservations: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_logs::EndpointKind;
    use gvc_net::background::{generate_background, BackgroundConfig};
    use gvc_oscars::SetupDelayModel;
    use gvc_topology::{study_topology, Site};
    use proptest::prelude::*;

    fn base_driver(seed: u64) -> (Driver, ClusterId, ClusterId) {
        let t = study_topology();
        let (nersc, ornl) = (t.dtn(Site::Nersc), t.dtn(Site::Ornl));
        let sim = NetworkSim::new(t.graph, 0);
        let mut d = Driver::new(sim, seed);
        let a = d.register_cluster("dtn.nersc.gov", nersc, ServerCaps::default(), 2);
        let b = d.register_cluster("dtn.ornl.gov", ornl, ServerCaps::default(), 2);
        (d, a, b)
    }

    fn job(mb: u64) -> TransferJob {
        TransferJob { size_bytes: mb << 20, ..TransferJob::default() }
    }

    #[test]
    fn single_transfer_produces_one_record() {
        let (mut d, a, b) = base_driver(1);
        d.schedule_transfer(SimTime::from_secs(10), a, b, job(1024));
        let out = d.run(SimTime::from_secs(10_000));
        assert_eq!(out.log.len(), 1);
        let r = &out.log.records()[0];
        assert_eq!(r.size_bytes, 1024 << 20);
        assert_eq!(r.start_unix_us, 10_000_000);
        assert!(r.duration_us > 0);
        assert!(r.throughput_mbps() > 50.0, "tp={}", r.throughput_mbps());
        assert_eq!(r.server, "dtn.nersc.gov");
        assert_eq!(r.remote.as_deref(), Some("dtn.ornl.gov"));
    }

    #[test]
    fn sequential_session_is_ordered_with_gaps() {
        let (mut d, a, b) = base_driver(2);
        let spec = SessionSpec::sequential(vec![job(256), job(256), job(256)], 5.0);
        d.schedule_session(SimTime::ZERO, a, b, spec);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 3);
        let recs = out.log.records();
        for w in recs.windows(2) {
            let gap_us = w[1].start_unix_us - w[0].end_unix_us();
            assert!(gap_us >= 4_900_000, "gap {gap_us} too small");
        }
    }

    #[test]
    fn concurrent_session_overlaps() {
        let (mut d, a, b) = base_driver(3);
        let spec = SessionSpec::sequential(vec![job(512); 4], 0.0).with_concurrency(4);
        d.schedule_session(SimTime::ZERO, a, b, spec);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 4);
        let recs = out.log.records();
        // All four start together: negative gap between consecutive
        // log entries (end of one vs start of next).
        let neg = recs.windows(2).filter(|w| w[1].start_unix_us < w[0].end_unix_us()).count();
        assert!(neg >= 3, "expected overlapping transfers, got {neg}");
    }

    #[test]
    fn concurrency_reduces_per_transfer_throughput() {
        // Same total work; concurrent transfers share the node cap.
        // Quiet noise keeps the per-transfer caps above the fair
        // share, so contention is what separates the two runs.
        let quiet = ServerNoise { mean: 1.0, sd: 0.0 };
        let (mut d1, a1, b1) = base_driver(4);
        d1 = d1.with_noise(quiet);
        d1.schedule_session(
            SimTime::ZERO,
            a1,
            b1,
            SessionSpec::sequential(vec![job(1024); 3], 0.0),
        );
        let seq = d1.run(SimTime::from_secs(1_000_000));
        let (mut d2, a2, b2) = base_driver(4);
        d2 = d2.with_noise(quiet);
        d2.schedule_session(
            SimTime::ZERO,
            a2,
            b2,
            SessionSpec::sequential(vec![job(1024); 3], 0.0).with_concurrency(3),
        );
        let conc = d2.run(SimTime::from_secs(1_000_000));
        let mean = |ds: &Dataset| {
            let tps = ds.throughputs_mbps();
            tps.iter().sum::<f64>() / tps.len() as f64
        };
        assert!(
            mean(&conc.log) < mean(&seq.log),
            "concurrent {} !< sequential {}",
            mean(&conc.log),
            mean(&seq.log)
        );
    }

    #[test]
    fn store_direction_swaps_server_and_remote() {
        let (mut d, a, b) = base_driver(5);
        let mut j = job(64);
        j.logged_as = TransferType::Store;
        d.schedule_transfer(SimTime::ZERO, a, b, j);
        let out = d.run(SimTime::from_secs(10_000));
        let r = &out.log.records()[0];
        assert_eq!(r.server, "dtn.ornl.gov");
        assert_eq!(r.remote.as_deref(), Some("dtn.nersc.gov"));
    }

    #[test]
    fn background_flows_not_logged_but_counted_by_snmp() {
        let t = study_topology();
        let path = t.path(Site::Nersc, Site::Ornl);
        let watch = path.links[2];
        let (nersc, ornl) = (t.dtn(Site::Nersc), t.dtn(Site::Ornl));
        let mut sim = NetworkSim::new(t.graph.clone(), 0);
        sim.monitor_link(watch);
        let mut d = Driver::new(sim, 6);
        let a = d.register_cluster("nersc", nersc, ServerCaps::default(), 1);
        let b = d.register_cluster("ornl", ornl, ServerCaps::default(), 1);
        let bg =
            generate_background(&t.graph, &BackgroundConfig::default(), SimTime::from_secs(120), 6);
        assert!(!bg.is_empty());
        d.schedule_background(bg);
        d.schedule_transfer(SimTime::ZERO, a, b, job(128));
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1, "background flows must not be logged");
        let snmp = out.sim.snmp().series(watch).unwrap();
        // Counter contains the transfer plus whatever background
        // crossed this link: at least the transfer's bytes.
        assert!(snmp.total_bytes() >= 128 << 20);
    }

    #[test]
    fn vc_session_gets_guarantee_and_waits_for_setup() {
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let mut d = Driver::new(sim, 7).with_idc(idc);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        let spec =
            SessionSpec::sequential(vec![job(512)], 0.0).with_vc(crate::session::VcRequestSpec {
                rate_bps: 1e9,
                max_duration_s: 3600.0,
                wait_for_circuit: true,
            });
        d.schedule_session(SimTime::ZERO, a, b, spec);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1);
        // First transfer waits out the 1-minute setup delay.
        assert!(out.log.records()[0].start_unix_us >= 60_000_000);
        let stats = out.idc_stats.unwrap();
        assert_eq!(stats.admitted, 1);
    }

    #[test]
    fn telemetry_covers_kernel_idc_transfer_and_net() {
        use gvc_telemetry::RingSink;
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let ring = Arc::new(RingSink::new(4096));
        let ctx = Telemetry::with_sink(ring.clone());
        let mut d = Driver::new(sim, 7).with_idc(idc).with_telemetry(&ctx);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        let spec = SessionSpec::sequential(vec![job(512), job(256)], 1.0).with_vc(
            crate::session::VcRequestSpec {
                rate_bps: 1e9,
                max_duration_s: 3600.0,
                wait_for_circuit: true,
            },
        );
        d.schedule_session(SimTime::ZERO, a, b, spec);
        d.schedule_transfer(SimTime::from_secs(10), a, b, job(128));
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 3);

        let reg = &ctx.registry;
        assert_eq!(reg.counter("gridftp_sessions_started_total", &[]).get(), 2);
        assert_eq!(reg.counter("gridftp_sessions_completed_total", &[]).get(), 2);
        assert_eq!(reg.counter("gridftp_transfers_started_total", &[]).get(), 3);
        assert_eq!(reg.counter("gridftp_transfers_completed_total", &[]).get(), 3);
        assert_eq!(
            reg.counter("gridftp_transferred_bytes_total", &[]).get(),
            (512 + 256 + 128) << 20
        );
        assert_eq!(reg.counter("idc_admitted_total", &[]).get(), 1);
        assert!(reg.counter("sim_events_dispatched_total", &[]).get() >= 3);
        assert!(reg.counter("net_fairshare_recomputations_total", &[]).get() >= 3);
        let tp =
            reg.histogram("gridftp_transfer_throughput_mbps", &[], Histogram::rate_mbps).snapshot();
        assert_eq!(tp.count(), 3);

        // All four subsystem namespaces appear in the trace.
        let kinds: std::collections::HashSet<&str> = ring.events().iter().map(|e| e.kind).collect();
        for expected in [
            "kernel.event",
            "idc.admit",
            "idc.provision",
            "idc.teardown",
            "transfer.session_start",
            "transfer.start",
            "transfer.complete",
            "transfer.session_complete",
            "net.fairshare",
            "span.start",
            "span.end",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }

        // The exposition text covers event-queue, admission, and
        // throughput metrics.
        let text = reg.render();
        for needle in [
            "sim_events_dispatched_total",
            "idc_admitted_total",
            "gridftp_transfer_throughput_mbps_bucket",
            "net_snmp_deposited_bytes_total",
            "sim_event_handle_seconds_bucket{class=\"start_session\"",
        ] {
            assert!(text.contains(needle), "exposition missing {needle}");
        }
    }

    #[test]
    fn session_spans_nest_and_survive_the_offline_checks() {
        use gvc_telemetry::RingSink;
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let ring = Arc::new(RingSink::new(16384));
        let ctx = Telemetry::with_sink(ring.clone());
        let mut d = Driver::new(sim, 7)
            .with_idc(idc)
            .with_recovery(RecoveryPolicy::default())
            .with_telemetry(&ctx);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        let spec = SessionSpec::sequential(vec![job(512), job(256)], 1.0).with_vc(
            crate::session::VcRequestSpec {
                rate_bps: 1e9,
                max_duration_s: 3600.0,
                wait_for_circuit: true,
            },
        );
        d.schedule_session(SimTime::ZERO, a, b, spec);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 2);

        // Round-trip the span stream through the offline toolchain.
        let text: String = ring
            .events()
            .iter()
            .map(gvc_telemetry::TraceEvent::to_json)
            .collect::<Vec<_>>()
            .join("\n");
        let model = gvc_telemetry::TraceModel::from_text(&text).expect("trace parses");
        let report = gvc_telemetry::check(&model, &gvc_telemetry::CheckConfig::default());
        assert!(report.clean(), "violations: {:?}", report.violations);

        let names: std::collections::HashSet<&str> =
            model.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "driver.run",
            "session.run",
            "session.queue_wait",
            "session.vc_setup",
            "vc.attempt",
            "session.transfer",
            "kernel.queue_wait",
            "circuit.lifetime",
            "idc.setup",
        ] {
            assert!(names.contains(expected), "missing span {expected}: {names:?}");
        }

        // The one-minute setup delay shows up as the session's setup
        // phase: the first transfer cannot start before the circuit.
        let rows = gvc_telemetry::sessions(&model);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].setup_us >= 60_000_000, "setup_us={}", rows[0].setup_us);
        assert_eq!(rows[0].transfers, 2);
        assert_eq!(rows[0].attempts, 1);
        assert!(!rows[0].fallback);

        // And the profile's main tree reconciles exactly.
        let profile = gvc_telemetry::profile(&model);
        let main = profile.main.expect("driver.run tree");
        assert_eq!(main.name, "driver.run");
        assert_eq!(main.attributed_us, main.end_us - main.start_us);
    }

    #[test]
    fn fallback_sessions_mark_the_fallback_span() {
        use gvc_faults::FaultPlan;
        use gvc_telemetry::RingSink;
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let ring = Arc::new(RingSink::new(16384));
        let ctx = Telemetry::with_sink(ring.clone());
        let mut d = Driver::new(sim, 11)
            .with_idc(idc)
            .with_faults(FaultPlan { fail_first_provisions: 100, ..FaultPlan::default() })
            .with_telemetry(&ctx);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(64)], 0.0).with_vc(crate::session::VcRequestSpec {
                rate_bps: 1e9,
                max_duration_s: 3600.0,
                wait_for_circuit: true,
            }),
        );
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1);
        assert_eq!(out.resilience.unwrap().fallbacks, 1);
        let text: String = ring
            .events()
            .iter()
            .map(gvc_telemetry::TraceEvent::to_json)
            .collect::<Vec<_>>()
            .join("\n");
        let model = gvc_telemetry::TraceModel::from_text(&text).expect("trace parses");
        // Retry-dominated session: structural checks must pass, but the
        // default setup-share bound would (rightly) flag it — loosen it.
        let report =
            gvc_telemetry::check(&model, &gvc_telemetry::CheckConfig { max_setup_share: 1.0 });
        assert!(report.clean(), "violations: {:?}", report.violations);
        let names: Vec<&str> = model.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"vc.backoff"), "{names:?}");
        assert!(names.contains(&"session.fallback"), "{names:?}");
        let rows = gvc_telemetry::sessions(&model);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].fallback);
        assert!(rows[0].attempts > 1);
    }

    #[test]
    fn telemetry_disabled_run_is_identical() {
        let run = |instrument: bool| {
            let (mut d, a, b) = base_driver(9);
            if instrument {
                let ctx = Telemetry::metrics_only();
                d = d.with_telemetry(&ctx);
            }
            d.schedule_session(
                SimTime::ZERO,
                a,
                b,
                SessionSpec::sequential(vec![job(100); 5], 1.0).with_concurrency(2),
            );
            d.run(SimTime::from_secs(1_000_000)).log
        };
        // Instrumentation must not perturb simulation results.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (mut d, a, b) = base_driver(seed);
            d.schedule_session(
                SimTime::ZERO,
                a,
                b,
                SessionSpec::sequential(vec![job(100); 5], 1.0),
            );
            d.run(SimTime::from_secs(1_000_000)).log
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).records()[0].duration_us, run(43).records()[0].duration_us);
    }

    #[test]
    fn tstat_reports_loss_and_failure_fractions() {
        let (mut d, a, b) = base_driver(20);
        d = d.with_tcp(TcpModel { loss_probability: 1.0, ..TcpModel::default() }).with_failures(
            crate::transfer::FailureModel {
                probability: 1.0,
                min_recovery_s: 1.0,
                max_recovery_s: 1.0,
                marker_interval_s: 0.0,
            },
        );
        d.schedule_session(SimTime::ZERO, a, b, SessionSpec::sequential(vec![job(64); 5], 0.0));
        let out = d.run(SimTime::from_secs(1_000_000));
        assert_eq!(out.tstat.transfers.len(), 5);
        assert_eq!(out.tstat.loss_fraction(), 1.0);
        assert_eq!(out.tstat.failure_fraction(), 1.0);
        // And with everything off, both fractions are zero.
        let (mut d2, a2, b2) = base_driver(20);
        d2 = d2.with_tcp(TcpModel { loss_probability: 0.0, ..TcpModel::default() }).with_failures(
            crate::transfer::FailureModel {
                probability: 0.0,
                ..crate::transfer::FailureModel::default()
            },
        );
        d2.schedule_session(SimTime::ZERO, a2, b2, SessionSpec::sequential(vec![job(64); 5], 0.0));
        let out2 = d2.run(SimTime::from_secs(1_000_000));
        assert_eq!(out2.tstat.loss_fraction(), 0.0);
        assert_eq!(out2.tstat.failure_fraction(), 0.0);
    }

    #[test]
    fn failures_lengthen_logged_durations() {
        let run = |prob: f64| {
            let (mut d, a, b) = base_driver(21);
            d = d.with_failures(crate::transfer::FailureModel {
                probability: prob,
                min_recovery_s: 20.0,
                max_recovery_s: 20.0,
                marker_interval_s: 0.0,
            });
            d.schedule_session(
                SimTime::ZERO,
                a,
                b,
                SessionSpec::sequential(vec![job(256); 6], 0.0),
            );
            let out = d.run(SimTime::from_secs(1_000_000));
            out.log.records().iter().map(gvc_logs::TransferRecord::duration_s).sum::<f64>()
        };
        let clean = run(0.0);
        let failing = run(1.0);
        assert!(failing > clean + 6.0 * 19.0, "failing {failing} vs clean {clean}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Conservation: every scheduled job appears in the log exactly
        /// once, regardless of session shapes, concurrency, gaps, or
        /// interleaving — and the tstat report stays aligned.
        #[test]
        fn prop_every_job_logged_once(
            sessions in proptest::collection::vec(
                (1usize..12, 1u32..5, 0.0f64..20.0, 0u64..2000),
                1..6,
            ),
            seed in 0u64..1000,
        ) {
            let (mut d, a, b) = base_driver(seed);
            let mut expected_sizes: Vec<u64> = Vec::new();
            for (i, &(njobs, conc, gap, start_s)) in sessions.iter().enumerate() {
                let jobs: Vec<TransferJob> = (0..njobs)
                    .map(|j| TransferJob {
                        // Unique, recoverable size per job.
                        size_bytes: 1_000_000 + (i * 100 + j) as u64,
                        ..TransferJob::default()
                    })
                    .collect();
                expected_sizes.extend(jobs.iter().map(|j| j.size_bytes));
                d.schedule_session(
                    SimTime::from_secs(start_s),
                    a,
                    b,
                    SessionSpec::sequential(jobs, gap).with_concurrency(conc),
                );
            }
            let out = d.run(SimTime::from_secs(100_000_000));
            prop_assert_eq!(out.log.len(), expected_sizes.len());
            prop_assert_eq!(out.tstat.transfers.len(), expected_sizes.len());
            let mut logged: Vec<u64> =
                out.log.records().iter().map(|r| r.size_bytes).collect();
            logged.sort_unstable();
            expected_sizes.sort_unstable();
            prop_assert_eq!(logged, expected_sizes);
            // Durations are positive and starts are ordered.
            for r in out.log.records() {
                prop_assert!(r.duration_us > 0);
            }
            for w in out.log.records().windows(2) {
                prop_assert!(w[0].start_unix_us <= w[1].start_unix_us);
            }
        }
    }

    fn vc_driver(seed: u64) -> (Driver, ClusterId, ClusterId) {
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let mut d = Driver::new(sim, seed).with_idc(idc);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        (d, a, b)
    }

    fn vc_spec() -> crate::session::VcRequestSpec {
        crate::session::VcRequestSpec {
            rate_bps: 1e9,
            max_duration_s: 3600.0,
            wait_for_circuit: true,
        }
    }

    /// Without a recovery policy a circuit request gets one attempt: a
    /// blocked request gives the circuit up, the transfer runs over IP,
    /// and nothing is tallied as a fallback or reported as resilience.
    #[test]
    fn blocked_request_without_policy_gives_up_after_one_attempt() {
        use gvc_telemetry::RingSink;
        let (d, a, b) = vc_driver(7);
        let ring = Arc::new(RingSink::new(16384));
        let ctx = Telemetry::with_sink(ring.clone());
        let mut d = d.with_telemetry(&ctx);
        // Far more than any study link carries: admission blocks.
        let vc = crate::session::VcRequestSpec { rate_bps: 1e15, ..vc_spec() };
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(64)], 0.0).with_vc(vc),
        );
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1, "the transfer still runs, IP-routed");
        assert!(out.resilience.is_none());
        assert_eq!(out.idc_stats.unwrap().blocked, 1);
        assert_eq!(ctx.registry.counter("fallback_ip_total", &[]).get(), 0);

        let text: String = ring
            .events()
            .iter()
            .map(gvc_telemetry::TraceEvent::to_json)
            .collect::<Vec<_>>()
            .join("\n");
        let model = gvc_telemetry::TraceModel::from_text(&text).expect("trace parses");
        let ends: Vec<(&str, &str)> = model
            .records
            .iter()
            .filter(|r| r.kind == "span.end")
            .filter_map(|r| Some((r.text("outcome")?, r.text("reason").unwrap_or(""))))
            .collect();
        assert_eq!(ends, vec![("giveup", "blocked"), ("giveup", "")], "vc.attempt, vc_setup");
        assert!(model.records.iter().any(|r| r.kind == "recovery.giveup"));
        let names: Vec<&str> = model.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(!names.contains(&"session.fallback"), "{names:?}");
        let rows = gvc_telemetry::sessions(&model);
        assert_eq!((rows[0].attempts, rows[0].fallback), (1, false));
    }

    #[test]
    fn recovery_retries_after_injected_failures() {
        use gvc_faults::FaultPlan;
        let (mut d, a, b) = vc_driver(7);
        d = d.with_faults(FaultPlan { fail_first_provisions: 2, ..FaultPlan::default() });
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(256)], 0.0).with_vc(vc_spec()),
        );
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1);
        let r = out.resilience.unwrap();
        assert_eq!(r.vc_requested, 1);
        assert_eq!(r.vc_established, 1);
        assert_eq!(r.retries, 2);
        assert_eq!(r.faults_injected, 2);
        assert_eq!(r.fallbacks, 0);
        assert!((r.session_success_rate() - 1.0).abs() < 1e-12);
        assert!(r.mean_recovery_latency_s > 0.0);
        assert_eq!(out.open_reservations, Some(0));
        // Two backoffs plus the 1-minute setup push the first start
        // past a clean single-shot provision.
        assert!(out.log.records()[0].start_unix_us >= 60_000_000);
    }

    #[test]
    fn recovery_exhaustion_falls_back_to_ip() {
        use gvc_faults::FaultPlan;
        let (mut d, a, b) = vc_driver(7);
        d = d.with_faults(FaultPlan { fail_first_provisions: 100, ..FaultPlan::default() });
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(256)], 0.0).with_vc(vc_spec()),
        );
        let out = d.run(SimTime::from_secs(100_000));
        // The transfer still runs — IP-routed.
        assert_eq!(out.log.len(), 1);
        let r = out.resilience.unwrap();
        assert_eq!(r.vc_established, 0);
        assert_eq!(r.retries, 3); // default budget: 1 + 3 retries
        assert_eq!(r.fallbacks, 1);
        assert_eq!(r.session_success_rate(), 0.0);
        assert_eq!(out.open_reservations, Some(0), "no leaked reservations");
    }

    #[test]
    fn preemption_releases_reservation_and_session_finishes() {
        use gvc_faults::FaultPlan;
        let (mut d, a, b) = vc_driver(8);
        d = d.with_faults(FaultPlan { preempt_after_s: Some(5.0), ..FaultPlan::default() });
        // Big enough to still be in flight 5 s after circuit readiness.
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(4096)], 0.0).with_vc(vc_spec()),
        );
        let out = d.run(SimTime::from_secs(1_000_000));
        assert_eq!(out.log.len(), 1);
        let r = out.resilience.unwrap();
        assert_eq!(r.vc_established, 1);
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.faults_injected, 1);
        assert_eq!(out.open_reservations, Some(0), "preempted circuit must be released");
    }

    /// Runs sharing one telemetry context each report their own
    /// resilience ledger; only the shared registry sums them.
    #[test]
    fn runs_sharing_a_context_report_their_own_resilience() {
        use gvc_faults::FaultPlan;
        let ctx = Telemetry::metrics_only();
        let run = || {
            let (d, a, b) = vc_driver(9);
            // Session 0 exhausts its four attempts and falls back;
            // session 1 fails once, then holds a circuit until the
            // preemption.
            let plan = FaultPlan {
                fail_first_provisions: 5,
                preempt_after_s: Some(5.0),
                ..FaultPlan::default()
            };
            let mut d = d.with_telemetry(&ctx).with_faults(plan);
            for at in [0, 10_000] {
                let spec = SessionSpec::sequential(vec![job(4096)], 0.0).with_vc(vc_spec());
                d.schedule_session(SimTime::from_secs(at), a, b, spec);
            }
            d.run(SimTime::from_secs(1_000_000)).resilience.expect("recovery configured")
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!((first.retries, first.fallbacks, first.preemptions), (4, 1, 1));
        assert_eq!(first.faults_injected, 6);
        let reg = &ctx.registry;
        assert_eq!(reg.counter("recovery_retries_total", &[]).get(), 2 * first.retries);
        assert_eq!(reg.counter("fallback_ip_total", &[]).get(), 2 * first.fallbacks);
    }

    #[test]
    fn forced_server_restarts_mark_transfers_failed() {
        use gvc_faults::FaultPlan;
        let (mut d, a, b) = base_driver(30);
        d = d
            .with_faults(FaultPlan { server_restart_p: 1.0, ..FaultPlan::default() })
            .with_failures(crate::transfer::FailureModel {
                probability: 0.0,
                min_recovery_s: 10.0,
                max_recovery_s: 10.0,
                marker_interval_s: 0.0,
            });
        d.schedule_session(SimTime::ZERO, a, b, SessionSpec::sequential(vec![job(64); 4], 0.0));
        let out = d.run(SimTime::from_secs(1_000_000));
        assert_eq!(out.tstat.transfers.len(), 4);
        assert_eq!(out.tstat.failure_fraction(), 1.0);
        assert_eq!(out.resilience.unwrap().faults_injected, 4);
    }

    #[test]
    fn link_flap_lengthens_transfers_in_its_window() {
        use gvc_faults::{FaultPlan, LinkFlapSpec};
        let run = |flap: bool| {
            let t = study_topology();
            let path = t.path(Site::Nersc, Site::Ornl);
            let l = t.graph.link(path.links[1]);
            let link_name = format!(
                "{}->{}",
                t.graph.nodes()[l.src.0 as usize].name,
                t.graph.nodes()[l.dst.0 as usize].name
            );
            let (nersc, ornl) = (t.dtn(Site::Nersc), t.dtn(Site::Ornl));
            let sim = NetworkSim::new(t.graph, 0);
            let mut d = Driver::new(sim, 12);
            if flap {
                d = d.with_faults(FaultPlan {
                    link_flaps: vec![LinkFlapSpec {
                        link: link_name,
                        at_s: 1.0,
                        duration_s: 30.0,
                        residual_frac: 0.05,
                    }],
                    ..FaultPlan::default()
                });
            }
            let a = d.register_cluster("nersc", nersc, ServerCaps::default(), 1);
            let b = d.register_cluster("ornl", ornl, ServerCaps::default(), 1);
            d.schedule_transfer(SimTime::ZERO, a, b, job(2048));
            let out = d.run(SimTime::from_secs(100_000));
            assert_eq!(out.log.len(), 1);
            out.log.records()[0].duration_s()
        };
        let clean = run(false);
        let flapped = run(true);
        assert!(flapped > clean + 10.0, "flapped {flapped} vs clean {clean}");
    }

    #[test]
    fn failure_outcomes_isolated_across_sessions() {
        // The pre-fix defect: failure draws came from the run-wide
        // sequential stream, so growing session 0 shifted session 1's
        // outcomes. Keyed per-(session, job) streams decouple them.
        let run = |s0_jobs: usize| {
            let (mut d, a, b) = base_driver(31);
            d = d.with_failures(crate::transfer::FailureModel {
                probability: 0.4,
                ..crate::transfer::FailureModel::default()
            });
            d.schedule_session(
                SimTime::ZERO,
                a,
                b,
                SessionSpec::sequential(vec![job(32); s0_jobs], 0.0),
            );
            d.schedule_session(
                SimTime::from_secs(5_000),
                a,
                b,
                SessionSpec::sequential(vec![job(32); 6], 0.0),
            );
            let out = d.run(SimTime::from_secs(10_000_000));
            out.tstat
                .transfers
                .iter()
                .filter(|t| t.session == 1)
                .map(|t| t.failed)
                .collect::<Vec<bool>>()
        };
        let short = run(2);
        let long = run(8);
        assert_eq!(short.len(), 6);
        assert_eq!(short, long, "session 1's failures must not depend on session 0's shape");
        // The pattern is non-degenerate at p = 0.4 over six draws.
        assert!(short.iter().any(|&f| f));
        assert!(short.iter().any(|&f| !f));
    }

    #[test]
    fn inert_faults_leave_legacy_behavior_untouched() {
        use gvc_faults::FaultPlan;
        let run = |with_inert: bool| {
            let (mut d, a, b) = base_driver(9);
            if with_inert {
                d = d.with_faults(FaultPlan::default());
            }
            d.schedule_session(
                SimTime::ZERO,
                a,
                b,
                SessionSpec::sequential(vec![job(100); 5], 1.0).with_concurrency(2),
            );
            d.run(SimTime::from_secs(1_000_000)).log
        };
        assert_eq!(run(false), run(true));
        // And a plain run reports no resilience data at all.
        let (mut d, a, b) = base_driver(9);
        d.schedule_transfer(SimTime::ZERO, a, b, job(16));
        let out = d.run(SimTime::from_secs(1_000_000));
        assert!(out.resilience.is_none());
        assert!(out.open_reservations.is_none());
    }

    #[test]
    fn resize_slows_later_transfers() {
        let (mut d, a, b) = base_driver(4);
        let mut j = job(2048);
        j.stripes = 2;
        j.src_kind = EndpointKind::Memory;
        j.dst_kind = EndpointKind::Memory;
        d.schedule_transfer(SimTime::ZERO, a, b, j.clone());
        d.schedule_resize(SimTime::from_secs(5_000), a, 1);
        d.schedule_resize(SimTime::from_secs(5_000), b, 1);
        d.schedule_transfer(SimTime::from_secs(6_000), a, b, j);
        let out = d.run(SimTime::from_secs(1_000_000));
        assert_eq!(out.log.len(), 2);
        let tp: Vec<f64> = out.log.throughputs_mbps();
        assert!(tp[0] > tp[1] * 1.4, "before={} after={}", tp[0], tp[1]);
    }

    /// A three-lane workload: pairs local to different hubs never
    /// share a link. `vc_pair` requests a circuit on the SLAC pair.
    fn disjoint_pairs_driver(seed: u64, with_telemetry: Option<&Telemetry>, vc: bool) -> Driver {
        let t = study_topology();
        let pairs = [(Site::Nersc, Site::Slac), (Site::Ornl, Site::Nics), (Site::Anl, Site::Bnl)];
        let dtns: Vec<(NodeId, NodeId)> =
            pairs.iter().map(|&(x, y)| (t.dtn(x), t.dtn(y))).collect();
        let mut d = Driver::new(NetworkSim::new(t.graph.clone(), 0), seed);
        if vc {
            d = d.with_idc(Idc::new(t.graph.clone(), SetupDelayModel::one_minute()));
        }
        if let Some(ctx) = with_telemetry {
            d = d.with_telemetry(ctx);
        }
        let mut clusters = Vec::new();
        for (i, &(x, y)) in dtns.iter().enumerate() {
            let a = d.register_cluster(&format!("src{i}"), x, ServerCaps::default(), 2);
            let b = d.register_cluster(&format!("dst{i}"), y, ServerCaps::default(), 2);
            clusters.push((a, b));
        }
        for (i, &(a, b)) in clusters.iter().enumerate() {
            let mut spec = SessionSpec::sequential(vec![job(256); 3], 1.0).with_concurrency(2);
            if vc && i == 0 {
                spec = spec.with_vc(vc_spec());
            }
            d.schedule_session(SimTime::from_secs(i as u64), a, b, spec);
            d.schedule_transfer(SimTime::from_secs(30 + i as u64), a, b, job(64));
        }
        d
    }

    #[test]
    fn lane_partition_separates_disjoint_pairs_and_merges_shared_paths() {
        let d = disjoint_pairs_driver(11, None, false);
        assert_eq!(d.lane_count(), 3, "hub-local pairs must not share a lane");
        // The study pairs all cross the shared backbone: one lane, run
        // by the driver's own drive loop.
        let (mut d, a, b) = base_driver(11);
        d.schedule_transfer(SimTime::ZERO, a, b, job(64));
        assert_eq!(d.lane_count(), 1);
    }

    #[test]
    fn sharded_single_lane_is_bit_identical_to_serial() {
        let build = |_: ()| {
            let (mut d, a, b) = base_driver(12);
            d.schedule_session(
                SimTime::ZERO,
                a,
                b,
                SessionSpec::sequential(vec![job(128); 4], 2.0).with_concurrency(2),
            );
            d.schedule_transfer(SimTime::from_secs(7), a, b, job(256));
            d
        };
        let serial = build(()).run(SimTime::from_secs(1_000_000));
        let sharded = build(()).run_sharded(SimTime::from_secs(1_000_000), Shards::Auto);
        assert_eq!(serial.log, sharded.log);
        assert_eq!(serial.tstat.transfers, sharded.tstat.transfers);
    }

    /// The core determinism contract: a multi-lane schedule produces
    /// byte-identical outputs at every shard count.
    #[test]
    fn sharded_outputs_identical_across_shard_counts() {
        let run = |shards: Shards| {
            let d = disjoint_pairs_driver(13, None, true);
            assert!(d.lane_count() > 1, "workload must actually shard");
            d.run_sharded(SimTime::from_secs(1_000_000), shards)
        };
        let one = run(Shards::Fixed(1));
        let two = run(Shards::Fixed(2));
        let many = run(Shards::Fixed(16));
        let auto = run(Shards::Auto);
        for other in [&two, &many, &auto] {
            assert_eq!(one.log, other.log);
            assert_eq!(one.tstat.transfers, other.tstat.transfers);
            assert_eq!(one.idc_stats, other.idc_stats);
            assert_eq!(one.open_reservations, other.open_reservations);
            assert_eq!(one.resilience, other.resilience);
        }
        assert_eq!(one.open_reservations, Some(0), "no leaked reservations");
        assert_eq!(one.log.len(), 3 * 4, "every pair's jobs logged");
    }

    #[test]
    fn sharded_traces_and_metrics_identical_across_shard_counts() {
        use gvc_telemetry::RingSink;
        // The reproducible slice of an exposition: wall-clock handler
        // timings vary run to run, everything else must not.
        let canon_metrics = |ctx: &Telemetry| -> String {
            ctx.registry
                .render()
                .lines()
                .filter(|l| !l.contains("sim_event_handle_seconds"))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        // Same filter as the CLI determinism suite: kernel.event
        // records carry wall_us profiling samples.
        let run = |shards: Shards| -> (String, String, Dataset) {
            let ring = Arc::new(RingSink::new(65536));
            let ctx = Telemetry::with_sink(ring.clone());
            let d = disjoint_pairs_driver(14, Some(&ctx), true);
            let out = d.run_sharded(SimTime::from_secs(1_000_000), shards);
            let trace: String = ring
                .events()
                .iter()
                .filter(|e| e.kind != "kernel.event")
                .map(|e| format!("{}\n", e.to_json()))
                .collect();
            (trace, canon_metrics(&ctx), out.log)
        };
        let (trace1, metrics1, log1) = run(Shards::Fixed(1));
        let (trace2, metrics2, log2) = run(Shards::Fixed(2));
        let (trace_n, metrics_n, log_n) = run(Shards::Auto);
        assert_eq!(trace1, trace2, "trace bytes differ between shard counts 1 and 2");
        assert_eq!(trace1, trace_n, "trace bytes differ between shard counts 1 and auto");
        assert_eq!(metrics1, metrics2);
        assert_eq!(metrics1, metrics_n);
        assert_eq!(log1, log2);
        assert_eq!(log1, log_n);
        assert!(trace1.contains("\"name\":\"driver.lane\""), "lane spans emitted");
        assert!(trace1.contains("\"name\":\"driver.run\""), "coordinator span emitted");
    }

    #[test]
    fn sharded_trace_survives_offline_checks_and_merged_metrics_add_up() {
        use gvc_telemetry::{check, CheckConfig, RingSink, TraceModel};
        let ring = Arc::new(RingSink::new(65536));
        let ctx = Telemetry::with_sink(ring.clone());
        let d = disjoint_pairs_driver(15, Some(&ctx), true);
        let out = d.run_sharded(SimTime::from_secs(1_000_000), Shards::Auto);
        assert_eq!(out.log.len(), 12);
        let text: String = ring.events().iter().map(|e| format!("{}\n", e.to_json())).collect();
        let model = TraceModel::from_text(&text).expect("parse merged trace");
        let report = check(&model, &CheckConfig::default());
        assert!(report.clean(), "merged trace violations: {:?}", report.violations);
        // Lane registries folded into the coordinator's: lifecycle
        // counters cover every session and transfer.
        let reg = &ctx.registry;
        assert_eq!(reg.counter("gridftp_sessions_started_total", &[]).get(), 6);
        assert_eq!(reg.counter("gridftp_sessions_completed_total", &[]).get(), 6);
        assert_eq!(reg.counter("gridftp_transfers_completed_total", &[]).get(), 12);
        assert_eq!(reg.counter("idc_admitted_total", &[]).get(), 1);
        // The coordinator never schedules: every event is scheduled and
        // dispatched once, in its lane, and no queue-wait span is
        // cancelled.
        assert_eq!(
            reg.counter("sim_events_scheduled_total", &[]).get(),
            reg.counter("sim_events_dispatched_total", &[]).get()
        );
        assert!(!text.contains("\"cancelled\""), "cancelled spans in a drained run");
    }

    #[test]
    fn sharded_faults_and_snmp_match_across_shard_counts() {
        use gvc_faults::FaultPlan;
        let t = study_topology();
        let watch_a = t.path(Site::Nersc, Site::Slac).links[2];
        let watch_b = t.path(Site::Ornl, Site::Nics).links[2];
        let run = |shards: Shards| {
            let mut d = disjoint_pairs_driver(16, None, true).with_faults(FaultPlan {
                fail_first_provisions: 1,
                link_flaps: vec![gvc_faults::LinkFlapSpec {
                    link: "nash-cr->nics-pe".into(),
                    at_s: 5.0,
                    duration_s: 60.0,
                    residual_frac: 0.25,
                }],
                ..FaultPlan::default()
            });
            d.sim_mut().monitor_link(watch_a);
            d.sim_mut().monitor_link(watch_b);
            d.run_sharded(SimTime::from_secs(1_000_000), shards)
        };
        let one = run(Shards::Fixed(1));
        let many = run(Shards::Auto);
        assert_eq!(one.log, many.log);
        assert_eq!(one.resilience, many.resilience);
        let r = one.resilience.expect("resilience report");
        assert!(r.faults_injected >= 2, "provision fault + link flap: {r:?}");
        for watch in [watch_a, watch_b] {
            let (s1, s2) = (
                one.sim.snmp().series(watch).expect("series"),
                many.sim.snmp().series(watch).expect("series"),
            );
            assert_eq!(s1, s2, "SNMP series differ for link {watch:?}");
            assert!(s1.total_bytes() > 0, "monitored link saw traffic");
        }
    }

    /// The flight-recorder arm of the determinism contract: the
    /// merged timeline (driver, kernel, IDC, fault, and derived SNMP
    /// series alike) is byte-identical at every shard count, including
    /// the sequential `Shards::Fixed(1)` run.
    #[test]
    fn sharded_timeline_bytes_identical_across_shard_counts() {
        use gvc_faults::FaultPlan;
        use gvc_telemetry::DEFAULT_WIDTH_US;
        let t = study_topology();
        let watch = t.path(Site::Nersc, Site::Slac).links[2];
        let run = |shards: Shards| -> String {
            let tl = TimelineHandle::new(DEFAULT_WIDTH_US);
            let ctx = Telemetry::metrics_only().with_timeline(tl.clone());
            let mut d = disjoint_pairs_driver(18, Some(&ctx), true)
                .with_faults(FaultPlan { fail_first_provisions: 1, ..FaultPlan::default() });
            d.sim_mut().monitor_link(watch);
            let out = d.run_sharded(SimTime::from_secs(1_000_000), shards);
            out.sim.record_timeline(&tl);
            tl.to_json()
        };
        let one = run(Shards::Fixed(1));
        let two = run(Shards::Fixed(2));
        let auto = run(Shards::Auto);
        assert_eq!(one, two, "timeline bytes differ between shard counts 1 and 2");
        assert_eq!(one, auto, "timeline bytes differ between shard counts 1 and auto");
        for name in [
            series::KERNEL_SCHEDULED,
            series::KERNEL_DISPATCHED,
            series::DRIVER_SESSION_STARTS,
            series::DRIVER_SESSION_COMPLETIONS,
            series::DRIVER_TRANSFERS,
            series::DRIVER_VC_SETUP,
            series::FAULT_INJECTED,
            series::OSCARS_OPEN_RESERVATIONS,
            series::NET_LINK_UTIL,
        ] {
            assert!(one.contains(&format!("\"{name}")), "series {name} missing:\n{one}");
        }
    }

    #[test]
    fn sharded_background_and_resize_stay_on_their_lanes() {
        use gvc_net::background::BackgroundArrival;
        let t = study_topology();
        let (nersc, slac) = (t.dtn(Site::Nersc), t.dtn(Site::Slac));
        let (ornl, nics) = (t.dtn(Site::Ornl), t.dtn(Site::Nics));
        // Cross traffic confined to the ORNL–NICS path: it shares only
        // that pair's lane, like the resize of the ORNL cluster.
        let bg_route = t.path(Site::Ornl, Site::Nics).links;
        let run = |shards: Shards, ornl_side_items: bool| {
            let mut d = Driver::new(NetworkSim::new(t.graph.clone(), 0), 17);
            let a = d.register_cluster("nersc", nersc, ServerCaps::default(), 2);
            let b = d.register_cluster("slac", slac, ServerCaps::default(), 2);
            let c = d.register_cluster("ornl", ornl, ServerCaps::default(), 2);
            let e = d.register_cluster("nics", nics, ServerCaps::default(), 2);
            for (src, dst) in [(a, b), (c, e)] {
                let spec = SessionSpec::sequential(vec![job(512); 2], 0.0);
                d.schedule_session(SimTime::ZERO, src, dst, spec);
            }
            if ornl_side_items {
                d.schedule_resize(SimTime::from_secs(1), c, 1);
                d.schedule_background(
                    (0..8)
                        .map(|i| BackgroundArrival {
                            at: SimTime::from_secs(i),
                            spec: FlowSpec::best_effort(bg_route.clone(), 10e9),
                        })
                        .collect(),
                );
            }
            assert!(d.lane_count() > 1, "the two pairs must run on separate lanes");
            d.run_sharded(SimTime::from_secs(1_000_000), shards)
        };
        let one = run(Shards::Fixed(1), true);
        let many = run(Shards::Fixed(8), true);
        assert_eq!(one.log, many.log);
        assert_eq!(one.tstat.transfers, many.tstat.transfers);
        assert_eq!(one.log.len(), 4);
        // The NERSC–SLAC lane never sees the ORNL-side items; the ORNL
        // pair's transfers are slowed by them.
        let quiet = run(Shards::Fixed(1), false);
        let pair = |out: &DriverOutput, server: &str| -> Vec<TransferRecord> {
            out.log.records().iter().filter(|r| r.server == server).cloned().collect()
        };
        assert_eq!(pair(&one, "nersc"), pair(&quiet, "nersc"));
        assert_ne!(pair(&one, "ornl"), pair(&quiet, "ornl"));
    }

    proptest! {
        /// Property form of the determinism contract: random session
        /// shapes and fault plans over disjoint pairs produce
        /// identical logs, tstat, and resilience at shard counts
        /// 1, 2, and N.
        #[test]
        fn prop_sharded_equivalence_across_shard_counts(
            seed in 0u64..500,
            jobs_a in 1usize..4,
            jobs_b in 1usize..4,
            conc in 1u32..3,
            gap_s in 0.0f64..3.0,
            fail_first in 0u32..3,
            with_vc in proptest::bool::ANY,
        ) {
            use gvc_faults::FaultPlan;
            let run = |shards: Shards| {
                let t = study_topology();
                let tl = TimelineHandle::new(gvc_telemetry::DEFAULT_WIDTH_US);
                let ctx = Telemetry::metrics_only().with_timeline(tl.clone());
                let mut d = Driver::new(NetworkSim::new(t.graph.clone(), 0), seed)
                    .with_telemetry(&ctx);
                if with_vc {
                    d = d.with_idc(Idc::new(t.graph.clone(), SetupDelayModel::one_minute()));
                }
                d = d.with_faults(FaultPlan {
                    fail_first_provisions: fail_first,
                    ..FaultPlan::default()
                });
                let a = d.register_cluster("nersc", t.dtn(Site::Nersc), ServerCaps::default(), 2);
                let b = d.register_cluster("slac", t.dtn(Site::Slac), ServerCaps::default(), 2);
                let c = d.register_cluster("ornl", t.dtn(Site::Ornl), ServerCaps::default(), 2);
                let e = d.register_cluster("nics", t.dtn(Site::Nics), ServerCaps::default(), 2);
                let mut spec_a =
                    SessionSpec::sequential(vec![job(64); jobs_a], gap_s).with_concurrency(conc);
                if with_vc {
                    spec_a = spec_a.with_vc(vc_spec());
                }
                d.schedule_session(SimTime::ZERO, a, b, spec_a);
                d.schedule_session(
                    SimTime::from_secs(1),
                    c,
                    e,
                    SessionSpec::sequential(vec![job(64); jobs_b], gap_s),
                );
                let out = d.run_sharded(SimTime::from_secs(1_000_000), shards);
                out.sim.record_timeline(&tl);
                (out, tl.to_json())
            };
            let (one, tl_one) = run(Shards::Fixed(1));
            let (two, tl_two) = run(Shards::Fixed(2));
            let (many, tl_many) = run(Shards::Fixed(9));
            prop_assert_eq!(&one.log, &two.log);
            prop_assert_eq!(&one.log, &many.log);
            prop_assert_eq!(&one.tstat.transfers, &two.tstat.transfers);
            prop_assert_eq!(&one.tstat.transfers, &many.tstat.transfers);
            prop_assert_eq!(one.resilience, two.resilience);
            prop_assert_eq!(one.resilience, many.resilience);
            prop_assert_eq!(one.idc_stats, many.idc_stats);
            prop_assert_eq!(one.open_reservations, many.open_reservations);
            prop_assert_eq!(&tl_one, &tl_two);
            prop_assert_eq!(&tl_one, &tl_many);
        }
    }
}
