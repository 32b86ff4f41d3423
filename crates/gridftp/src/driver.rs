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
use gvc_engine::{EventQueue, SimSpan, SimTime};
use gvc_faults::{FaultInjector, FaultKind, FaultPlan, RecoveryAction, RecoveryPolicy};
use gvc_logs::{Dataset, TransferRecord, TransferType};
use gvc_net::background::BackgroundArrival;
use gvc_net::tcp::TcpModel;
use gvc_net::{FlowCompletion, FlowId, NetworkSim};
use gvc_oscars::{Idc, ReservationId, ReservationRequest};
use gvc_stats::rng::component_rng;
use gvc_telemetry::timeline::series;
use gvc_telemetry::{Counter, Histogram, SpanId, Stopwatch, Telemetry, TraceEvent, Tracer};
use gvc_topology::{LinkId, NodeId, Path};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Driver hooks, built from a [`Telemetry`] context by
/// [`Driver::with_telemetry`]. The context itself is kept: its tracer,
/// flight recorder and perf recorder serve the driver, and it
/// instruments a controller attached later.
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
    /// `fault_injected_total{kind=...}`, indexed like [`FaultKind::ALL`].
    faults_injected: [Arc<Counter>; 5],
    /// `recovery_retries_total`: establishment attempts retried.
    retries: Arc<Counter>,
    /// `fallback_ip_total`: sessions that gave up on a circuit and ran
    /// over the routed IP path.
    fallback_ip: Arc<Counter>,
    /// `recovery_latency_seconds`: first attempt to final outcome
    /// (success or fallback), per session.
    recovery_latency: Arc<Histogram>,
}

impl DriverTelemetry {
    fn new(ctx: &Telemetry) -> DriverTelemetry {
        let reg = &ctx.registry;
        reg.describe("fault_injected_total", "Injected faults, by kind");
        reg.describe("recovery_retries_total", "Circuit establishment attempts retried");
        reg.describe("fallback_ip_total", "Sessions that gave up on a circuit and ran over IP");
        reg.describe(
            "recovery_latency_seconds",
            "First establishment attempt to final outcome, per session",
        );
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
            faults_injected: FaultKind::ALL
                .map(|kind| reg.counter("fault_injected_total", &[("kind", kind.as_str())])),
            retries: reg.counter("recovery_retries_total", &[]),
            fallback_ip: reg.counter("fallback_ip_total", &[]),
            recovery_latency: reg.histogram("recovery_latency_seconds", &[], Histogram::timing),
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

/// The worker-count argument of [`Driver::run_sharded`], kept so
/// callers of that older entry point still compile. Every study
/// schedule is one event lane (all circuits share one OSCARS calendar),
/// so no setting changes how a run executes or what it outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// One worker per available CPU.
    Auto,
    /// Exactly `n` workers.
    Fixed(usize),
}

/// Handle to a registered cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterId(pub usize);

enum Event {
    StartSession(usize),
    LaunchNext(usize),
    /// Inject background arrival `i`, an index into the driver's
    /// arrivals: a script of 432 407 arrivals must not hold a spec
    /// each.
    InjectBackground(usize),
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
/// `sim_event_handle_seconds`.
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

/// A session's provisioned circuit.
#[derive(Clone, Copy)]
struct Circuit {
    id: ReservationId,
    /// The reservation window's end: the guarantee lapses here.
    end: SimTime,
    rate_bps: f64,
}

/// Why a circuit-establishment attempt failed: the `reason` on its
/// `vc.attempt` end and on a `session.fallback` marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailReason {
    /// The IDC refused admission.
    Blocked,
    /// The IDC admitted the request but could not provision it.
    ProvisionError,
    /// The circuit would be ready only after the policy's setup deadline.
    SetupDeadline,
    /// The fault plan failed the attempt.
    Fault(FaultKind),
}

impl FailReason {
    fn as_str(self) -> &'static str {
        match self {
            FailReason::Blocked => "blocked",
            FailReason::ProvisionError => "provision_error",
            FailReason::SetupDeadline => "setup_deadline",
            FailReason::Fault(kind) => kind.as_str(),
        }
    }
}

/// How a circuit pursuit ended: the `outcome` on `session.vc_setup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PursuitOutcome {
    /// The circuit came up.
    Established,
    /// The policy's retries ran out; the session runs over routed IP.
    FallbackIp,
    /// The policy allows no fallback; the session runs over IP anyway.
    GiveUp,
}

impl PursuitOutcome {
    fn as_str(self) -> &'static str {
        match self {
            PursuitOutcome::Established => "established",
            PursuitOutcome::FallbackIp => "fallback_ip",
            PursuitOutcome::GiveUp => "giveup",
        }
    }
}

/// One session's pursuit of its circuit, from the first establishment
/// attempt to its outcome. The run's [`ResilienceReport`] is a fold
/// over these.
#[derive(Default)]
struct Pursuit {
    /// Establishment attempts made.
    attempts: u32,
    /// When the first attempt was made.
    started: SimTime,
    /// Retries the policy decided, counted when decided: a retry still
    /// due when the run stops counts.
    retries: u32,
    /// The outcome and when it was decided; `None` while pending.
    outcome: Option<(PursuitOutcome, SimTime)>,
    /// The last failed attempt's reason.
    last_failure: Option<FailReason>,
    /// The `session.vc_setup` span, open while the pursuit is pending.
    span: SpanId,
}

impl Pursuit {
    /// First attempt to outcome, seconds, for a pursuit that needed
    /// recovery: one that ended without a circuit, or got one only
    /// after a retry.
    fn recovery_latency_s(&self) -> Option<f64> {
        match self.outcome? {
            (PursuitOutcome::Established, _) if self.attempts == 1 => None,
            (_, at) => Some((at - self.started).as_secs_f64()),
        }
    }
}

struct SessionState {
    spec: SessionSpec,
    src: ClusterId,
    dst: ClusterId,
    next_job: usize,
    in_flight: u32,
    vc: Option<Circuit>,
    done: bool,
    /// The circuit pursuit, if the session asked an attached IDC for one.
    pursuit: Option<Pursuit>,
    /// `session.run` span, open for the session's whole lifetime.
    span: SpanId,
    /// `session.queue_wait` span, open until the first job launches.
    wait_span: SpanId,
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
    /// Original capacity of each currently-flapped link, by flap index.
    flap_orig: BTreeMap<usize, (LinkId, f64)>,
    /// Memoised [`Driver::path_between`] per `(src, dst)` cluster pair.
    /// Exact: routing weighs links by delay only, and nothing changes a
    /// delay during a run.
    routes: BTreeMap<(usize, usize), Option<Path>>,
    log: Vec<TransferRecord>,
    telemetry: Option<DriverTelemetry>,
    /// The `driver.run` root span, opened by [`Driver::run`].
    run_span: SpanId,
    /// The schedule in call order: every `schedule_*` call appends its
    /// calendar event here and nothing else. [`Driver::run`] hands it
    /// to the calendar as one batch when the run starts.
    script: Vec<(SimTime, Event)>,
    /// Every scheduled background arrival, as generated; its flow spec
    /// is built when the arrival is dispatched.
    background: Vec<BackgroundArrival>,
}

impl Driver {
    /// A driver over `sim`, seeded deterministically.
    pub fn new(sim: NetworkSim, seed: u64) -> Driver {
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
            flap_orig: BTreeMap::new(),
            routes: BTreeMap::new(),
            log: Vec::new(),
            telemetry: None,
            run_span: SpanId::NONE,
            script: Vec::new(),
            background: Vec::new(),
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
        if t.ctx.timeline.is_some() {
            // Background flows carry a reserved tag; telling the
            // simulator lets a parallel SNMP recorder split out the
            // background share for the timeline's `net.bg_util` series,
            // its only reader.
            self.sim.set_background_tag(BACKGROUND_TAG);
        }
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
    #[cfg(test)]
    fn with_failures(mut self, failures: FailureModel) -> Driver {
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
        let idx = self.sessions.len();
        self.sessions.push(SessionState {
            spec,
            src,
            dst,
            next_job: 0,
            in_flight: 0,
            vc: None,
            done: false,
            pursuit: None,
            span: SpanId::NONE,
            wait_span: SpanId::NONE,
        });
        self.script.push((at, Event::StartSession(idx)));
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
    pub fn schedule_background(&mut self, arrivals: Vec<BackgroundArrival>) {
        let first = self.background.len();
        self.script
            .extend(arrivals.iter().zip(first..).map(|(a, i)| (a.at, Event::InjectBackground(i))));
        // The first batch keeps the generator's allocation as it is.
        if self.background.is_empty() {
            self.background = arrivals;
        } else {
            self.background.extend(arrivals);
        }
    }

    /// Schedules a cluster resize (the frost 3 → 2 → 1 shrink).
    pub fn schedule_resize(&mut self, at: SimTime, cluster: ClusterId, n_servers: u32) {
        self.script.push((at, Event::ResizeCluster(cluster, n_servers)));
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
            t.tally(&t.faults_injected[kind as usize], series::FAULT_INJECTED, t_us);
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
        let started = Stopwatch::start();
        self.handle_event(ev);
        let wall = started.elapsed_s();
        if let Some(t) = &self.telemetry {
            t.event_seconds[class].record(wall);
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::StartSession(idx) => self.start_session(idx),
            Event::LaunchNext(idx) => self.launch_ready_jobs(idx),
            Event::InjectBackground(i) => {
                self.sim.add_flow(self.background[i].spec().with_tag(BACKGROUND_TAG));
            }
            Event::ResizeCluster(id, n) => {
                let c = &mut self.clusters[id.0];
                c.resize(&mut self.sim, n);
            }
            Event::RetryVc(idx) => self.try_establish_vc(idx),
            Event::PreemptVc(idx) => self.preempt_vc(idx),
            Event::LinkFlap(i) => self.apply_link_flap(i),
            Event::LinkRestore(i) => self.restore_link(i),
        }
    }

    fn start_session(&mut self, idx: usize) {
        let now = self.sim.now();
        if let Some(t) = &self.telemetry {
            t.tally(&t.sessions_started, series::DRIVER_SESSION_STARTS, now.micros());
        }
        let spec = &self.sessions[idx].spec;
        let (wants_vc, jobs, concurrency) = (spec.vc.is_some(), spec.jobs.len(), spec.concurrency);
        let session_span = self.tracer().span_enter_with(
            self.run_span,
            now.micros() as i64,
            "session.run",
            |ev| {
                ev.field("session", idx)
                    .field("vc", wants_vc)
                    .field("jobs", jobs)
                    .field("concurrency", concurrency)
            },
        );
        self.sessions[idx].span = session_span;
        self.sessions[idx].wait_span =
            self.tracer().span_enter(session_span, now.micros() as i64, "session.queue_wait");
        if !wants_vc || self.idc.is_none() {
            self.launch_ready_jobs(idx);
            return;
        }
        let span = self.tracer().span_enter_with(
            session_span,
            now.micros() as i64,
            "session.vc_setup",
            |ev| ev.field("session", idx),
        );
        self.sessions[idx].pursuit = Some(Pursuit { started: now, span, ..Pursuit::default() });
        self.try_establish_vc(idx);
    }

    /// One circuit-establishment attempt of session `idx`'s pending
    /// pursuit: every attempt, first or retried, goes through here, and
    /// the recovery policy decides what a failed one leads to. The
    /// session's jobs wait for the outcome: they launch when the circuit
    /// is ready, or at once over routed IP when the pursuit ends without
    /// one.
    fn try_establish_vc(&mut self, idx: usize) {
        let now = self.sim.now();
        let s = &mut self.sessions[idx];
        let (src, dst) = (self.clusters[s.src.0].node, self.clusters[s.dst.0].node);
        let (Some(vc), Some(p)) = (s.spec.vc, s.pursuit.as_mut().filter(|p| p.outcome.is_none()))
        else {
            return;
        };
        p.attempts += 1;
        let (attempt, vc_span) = (p.attempts, p.span);
        let policy = self.recovery.unwrap_or(SINGLE_ATTEMPT);
        let attempt_span =
            self.tracer().span_enter_with(vc_span, now.micros() as i64, "vc.attempt", |ev| {
                ev.field("session", idx).field("attempt", attempt)
            });
        let injected = self.faults.as_mut().and_then(FaultInjector::provision_fault);
        let end = now + SimSpan::from_secs_f64(vc.max_duration_s);
        let req = ReservationRequest { src, dst, rate_bps: vc.rate_bps, start: now, end };
        let run_span = self.run_span;
        // A pursuit only begins with a controller attached.
        let Some(idc) = self.idc.as_mut() else { return };
        let result = match (idc.create_reservation(req), injected) {
            // An injected fault tears down anything the IDC admitted,
            // so a failed attempt never leaks a reservation.
            (Ok(id), Some(kind)) => {
                let _ = idc.teardown(id, now);
                Err(FailReason::Fault(kind))
            }
            (Err(_), Some(kind)) => Err(FailReason::Fault(kind)),
            (Err(_), None) => Err(FailReason::Blocked),
            (Ok(id), None) => match idc.provision(id, now, run_span) {
                Ok(ready) if (ready - now).as_secs_f64() > policy.setup_deadline_s => {
                    let _ = idc.teardown(id, now);
                    Err(FailReason::SetupDeadline)
                }
                Ok(ready) => Ok((id, ready)),
                Err(_) => Err(FailReason::ProvisionError),
            },
        };
        if let Some(kind) = injected {
            self.fault_injected(kind, now.micros(), |ev| {
                ev.field("session", idx).field("attempt", attempt)
            });
        }

        let reason = match result {
            Ok((id, ready)) => {
                self.tracer().span_exit_with(attempt_span, now.micros() as i64, |ev| {
                    ev.field("outcome", "established")
                });
                self.conclude_pursuit(idx, PursuitOutcome::Established, ready);
                self.sessions[idx].vc = Some(Circuit { id, end, rate_bps: vc.rate_bps });
                if let Some(after_s) = self.faults.as_ref().and_then(FaultInjector::preempt_after_s)
                {
                    self.pending
                        .schedule(ready + SimSpan::from_secs_f64(after_s), Event::PreemptVc(idx));
                }
                self.pending.schedule(ready, Event::LaunchNext(idx));
                return;
            }
            Err(reason) => reason,
        };
        let Some(p) = self.sessions[idx].pursuit.as_mut() else { return };
        p.last_failure = Some(reason);
        let seed = self.faults.as_ref().map_or(self.seed, |f| f.plan().seed);
        let outcome = match policy.decide(seed, attempt) {
            RecoveryAction::Retry { delay_s_micros } => {
                p.retries += 1;
                if let Some(t) = &self.telemetry {
                    t.tally(&t.retries, series::DRIVER_RETRIES, now.micros());
                }
                self.tracer().span_exit_with(attempt_span, now.micros() as i64, |ev| {
                    ev.field("outcome", "retry").field("reason", reason.as_str())
                });
                // The backoff window's end is decided now, so the span
                // closes immediately with a future timestamp.
                let backoff = self.tracer().span_enter_with(
                    vc_span,
                    now.micros() as i64,
                    "vc.backoff",
                    |ev| ev.field("session", idx).field("attempt", attempt),
                );
                let retry_at = now + SimSpan(delay_s_micros as i64);
                self.tracer().span_exit(backoff, retry_at.micros() as i64);
                self.pending.schedule(retry_at, Event::RetryVc(idx));
                return;
            }
            RecoveryAction::FallbackToIp => PursuitOutcome::FallbackIp,
            RecoveryAction::GiveUp => PursuitOutcome::GiveUp,
        };
        // The pursuit ends without a circuit: the jobs run over IP.
        self.tracer().span_exit_with(attempt_span, now.micros() as i64, |ev| {
            ev.field("outcome", outcome.as_str()).field("reason", reason.as_str())
        });
        self.conclude_pursuit(idx, outcome, now);
        self.launch_ready_jobs(idx);
    }

    /// Ends session `idx`'s pursuit with `outcome`, decided now:
    /// `session.vc_setup` closes at `setup_end` (the circuit's
    /// readiness, or now), and the outcome is counted in the metrics.
    fn conclude_pursuit(&mut self, idx: usize, outcome: PursuitOutcome, setup_end: SimTime) {
        let now = self.sim.now();
        let Some(p) = self.sessions[idx].pursuit.as_mut() else { return };
        p.outcome = Some((outcome, now));
        let (span, started, latency_s) = (p.span, p.started, p.recovery_latency_s());
        let reason = p.last_failure.map_or("", FailReason::as_str);
        let session_span = self.sessions[idx].span;
        self.tracer().span_exit_with(span, setup_end.micros() as i64, |ev| {
            ev.field("outcome", outcome.as_str())
        });
        let Some(t) = &self.telemetry else { return };
        if let Some(latency_s) = latency_s {
            t.recovery_latency.record(latency_s);
        }
        if let (PursuitOutcome::Established, Some(tl)) = (outcome, &t.ctx.timeline) {
            // Setup latency: first attempt to circuit-ready, including
            // provisioning delay and any backoff waits.
            tl.observe(series::DRIVER_VC_SETUP, now.micros(), (setup_end - started).as_secs_f64());
        }
        if outcome == PursuitOutcome::FallbackIp {
            t.tally(&t.fallback_ip, series::DRIVER_FALLBACKS, now.micros());
            let marker = t.ctx.tracer.span_enter_with(
                session_span,
                now.micros() as i64,
                "session.fallback",
                |ev| ev.field("session", idx).field("reason", reason),
            );
            t.ctx.tracer.span_exit(marker, now.micros() as i64);
        }
    }

    /// Injected mid-reservation teardown: the provider preempts the
    /// circuit. In-flight transfers lose their guarantee and finish
    /// best-effort; the session does not re-request.
    fn preempt_vc(&mut self, idx: usize) {
        let now = self.sim.now();
        let s = &self.sessions[idx];
        let Some(Circuit { id, .. }) = s.vc.filter(|_| !s.done) else { return };
        if let Some(idc) = self.idc.as_mut() {
            let _ = idc.teardown(id, now);
        }
        self.sessions[idx].vc = None;
        for f in self.in_flight.values().filter(|f| f.session == idx) {
            self.sim.set_flow_guarantee(f.flow, 0.0);
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
        let Some((src, dst)) = flap.endpoints() else {
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
        // Circuit guarantee, shared across the session's concurrency,
        // until its window's end (a job launched after the end gets
        // none). A circuit session's jobs launch once it is ready.
        let circuit = self.sessions[idx].vc;
        if let Some(c) = circuit {
            spec.min_rate_bps = c.rate_bps / f64::from(self.sessions[idx].spec.concurrency);
        }
        let flow = self.sim.add_flow(spec);
        if let Some(c) = circuit {
            self.sim.set_guarantee_end(flow, c.end);
        }
        if let Some(t) = &self.telemetry {
            t.transfers_started.inc();
        }
        let t_us = self.sim.now().micros() as i64;
        if !self.sessions[idx].wait_span.is_none() {
            self.tracer().span_exit(self.sessions[idx].wait_span, t_us);
            self.sessions[idx].wait_span = SpanId::NONE;
        }
        let job = &prepared.job;
        let span = self.tracer().span_enter_with(
            self.sessions[idx].span,
            t_us,
            "session.transfer",
            |ev| {
                ev.field("tag", tag)
                    .field("session", idx)
                    .field("bytes", job.size_bytes)
                    .field("streams", job.streams)
                    .field("stripes", job.stripes)
            },
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
        self.log.push(TransferRecord {
            transfer_type: info.job.logged_as,
            size_bytes: info.job.size_bytes,
            start_unix_us: self.sim.to_unix_us(c.start),
            duration_us,
            server: Arc::clone(server),
            remote: Some(Arc::clone(remote)),
            num_streams: info.job.streams,
            num_stripes: info.job.stripes,
            tcp_buffer_bytes: info.job.tcp_buffer_bytes,
            block_size_bytes: info.job.block_size_bytes,
            src_kind: Some(info.job.src_kind),
            dst_kind: Some(info.job.dst_kind),
        });
        let duration_s = duration_us as f64 / 1e6;
        let mbps = if duration_s > 0.0 {
            info.job.size_bytes as f64 * 8.0 / duration_s / 1e6
        } else {
            0.0
        };
        if let Some(t) = &self.telemetry {
            t.tally(&t.transfers_completed, series::DRIVER_TRANSFERS, c.end.micros());
            t.transferred_bytes.add(info.job.size_bytes);
            t.throughput_mbps.record(mbps);
        }
        // The span end is the transfer's trace record: the logged
        // duration and rate, and whether a loss event hit it or it
        // failed and restarted (the tstat check the paper plans, §VII-B).
        self.tracer().span_exit_with(info.span, c.end.micros() as i64, |ev| {
            ev.field("duration_s", duration_s)
                .field("mbps", mbps)
                .field("lossy", info.lossy)
                .field("failed", info.failed)
        });

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
            if let (Some(Circuit { id, .. }), Some(idc)) = (s.vc, self.idc.as_mut()) {
                // The session owns this reservation, so it is known to
                // the IDC; teardown is also idempotent.
                let _ = idc.teardown(id, self.sim.now());
            }
            self.tracer().span_exit(session_span, self.sim.now().micros() as i64);
            if let Some(t) = &self.telemetry {
                let now_us = self.sim.now().micros();
                t.tally(&t.sessions_completed, series::DRIVER_SESSION_COMPLETIONS, now_us);
            }
        }
    }

    /// Runs to completion: processes every scheduled event and every
    /// flow completion, then returns the usage log.
    ///
    /// `limit` bounds the simulation clock as a safety net against
    /// stalled flows.
    pub fn run(mut self, limit: SimTime) -> DriverOutput {
        // The script goes on the calendar before the run's root span
        // opens, so FIFO sequence numbers and `kernel.queue_wait` span
        // ids follow the `schedule_*` calls.
        self.pending.schedule_script(std::mem::take(&mut self.script));
        // Host-perf phase around the whole drive loop; items = kernel
        // pops + flow completions. Disabled handle = one branch here.
        let perf = self.telemetry.as_ref().map(|t| t.ctx.perf.clone()).unwrap_or_default();
        let mut perf_phase = perf.phase("simulate");
        let mut completions: u64 = 0;
        let start_us = self.sim.now().micros() as i64;
        self.run_span = self.tracer().span_enter(SpanId::NONE, start_us, "driver.run");
        // Scheduled link flaps from the fault plan become calendar
        // events before anything else runs.
        let flaps = self.faults.as_ref().map_or(&[][..], FaultInjector::link_flaps);
        for (i, flap) in flaps.iter().enumerate() {
            let (at_s, until_s) = (flap.at_s, flap.at_s + flap.duration_s);
            self.pending.schedule(SimTime::from_secs_f64(at_s), Event::LinkFlap(i));
            self.pending.schedule(SimTime::from_secs_f64(until_s), Event::LinkRestore(i));
        }
        loop {
            // One step per turn: pick the next instant, integrate to
            // it, handle the flows that finished there, then dispatch
            // the event if the instant was its. Completions win ties,
            // so a freed slot is visible to the event sharing its
            // instant.
            let (t, event_turn) = match (self.pending.peek_time(), self.sim.peek_completion()) {
                (Some(te), Some(tc)) if tc <= te => (tc, false),
                (Some(te), _) => (te, true),
                (None, Some(tc)) => (tc, false),
                (None, None) => break,
            };
            if t > limit {
                break;
            }
            let done = self.sim.run_until(t);
            completions += done.len() as u64;
            for c in done {
                self.handle_completion(c);
            }
            if event_turn {
                if let Some((_, ev)) = self.pending.pop() {
                    self.dispatch(ev);
                }
            }
        }
        self.tracer().span_exit(self.run_span, self.sim.now().micros() as i64);
        let idc_stats = self.idc.as_ref().map(gvc_oscars::Idc::stats);
        let open_reservations = self.idc.as_ref().map(Idc::open_reservations);
        let resilience = self.recovery.map(|_| self.resilience());
        perf_phase.items(self.pending.dispatched() + completions);
        drop(perf_phase);
        self.tracer().flush();
        DriverOutput {
            log: Dataset::from_records(self.log),
            sim: self.sim,
            idc_stats,
            resilience,
            open_reservations,
        }
    }

    /// The run's resilience ledger: a fold over the sessions' circuit
    /// pursuits, in session order, plus the injector's fault counts.
    fn resilience(&self) -> ResilienceReport {
        let faults = self.faults.as_ref();
        let mut r = ResilienceReport {
            faults_injected: faults.map_or(0, FaultInjector::injected_total),
            preemptions: faults.map_or(0, |f| f.injected_count(FaultKind::Preemption)),
            ..ResilienceReport::default()
        };
        let (mut latency_sum_s, mut recovered) = (0.0, 0u64);
        for p in self.sessions.iter().filter_map(|s| s.pursuit.as_ref()) {
            r.vc_requested += 1;
            r.retries += u64::from(p.retries);
            match p.outcome {
                Some((PursuitOutcome::Established, _)) => r.vc_established += 1,
                Some((PursuitOutcome::FallbackIp, _)) => r.fallbacks += 1,
                _ => {}
            }
            if let Some(latency_s) = p.recovery_latency_s() {
                latency_sum_s += latency_s;
                recovered += 1;
            }
        }
        if recovered > 0 {
            r.mean_recovery_latency_s = latency_sum_s / recovered as f64;
        }
        r
    }

    /// [`Driver::run`] under its earlier name, for callers that still
    /// pass a [`Shards`] setting; the setting is ignored. The benchmark
    /// harness under `perfbench/` calls this, and nothing else should.
    pub fn run_sharded(self, limit: SimTime, _shards: Shards) -> DriverOutput {
        self.run(limit)
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

    /// Runs `d` with a trace buffer attached and returns its output
    /// with `(session, lossy, failed)` read off every
    /// `session.transfer` span, in completion order.
    fn run_traced(d: Driver, limit: SimTime) -> (DriverOutput, Vec<(u64, bool, bool)>) {
        use gvc_telemetry::{BufferSink, Value};
        let sink = Arc::new(BufferSink::new());
        let out = d.with_telemetry(&Telemetry::with_sink(sink.clone())).run(limit);
        let field = |ev: &TraceEvent, key: &str| {
            ev.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone())
        };
        let mut session_of = BTreeMap::new();
        let mut outcomes = Vec::new();
        for ev in sink.take() {
            let Some(Value::U64(span)) = field(&ev, "span") else { continue };
            if ev.kind == "span.start" && field(&ev, "name") == Some("session.transfer".into()) {
                if let Some(Value::U64(session)) = field(&ev, "session") {
                    session_of.insert(span, session);
                }
            } else if let (Some(&session), Some(Value::Bool(lossy)), Some(Value::Bool(failed))) =
                (session_of.get(&span), field(&ev, "lossy"), field(&ev, "failed"))
            {
                outcomes.push((session, lossy, failed));
            }
        }
        (out, outcomes)
    }

    #[test]
    fn script_events_stay_unboxed() {
        // A boxed spec or an inline route in `InjectBackground` would
        // grow every entry of a 432 407-arrival script.
        assert!(std::mem::size_of::<Event>() <= 16);
    }

    #[test]
    fn single_transfer_produces_one_record() {
        let (mut d, a, b) = base_driver(1);
        d.schedule_transfer(SimTime::from_secs(10), a, b, job(1024));
        let names = (Arc::clone(&d.cluster(a).name), Arc::clone(&d.cluster(b).name));
        let out = d.run(SimTime::from_secs(10_000));
        assert_eq!(out.log.len(), 1);
        let r = &out.log.records()[0];
        // The record shares its clusters' names.
        assert!(Arc::ptr_eq(&r.server, &names.0));
        assert!(Arc::ptr_eq(r.remote.as_ref().expect("remote"), &names.1));
        assert_eq!(r.size_bytes, 1024 << 20);
        assert_eq!(r.start_unix_us, 10_000_000);
        assert!(r.duration_us > 0);
        assert!(r.throughput_mbps() > 50.0, "tp={}", r.throughput_mbps());
        assert_eq!(&*r.server, "dtn.nersc.gov");
        assert_eq!(r.remote.as_deref(), Some("dtn.ornl.gov"));
    }

    #[test]
    fn completions_win_ties_with_calendar_events() {
        use gvc_telemetry::{BufferSink, Value};
        let traced = |second_at: Option<SimTime>| {
            let (mut d, a, b) = base_driver(1);
            d.schedule_transfer(SimTime::from_secs(10), a, b, job(1024));
            if let Some(at) = second_at {
                d.schedule_transfer(at, a, b, job(64));
            }
            let sink = Arc::new(BufferSink::new());
            d.with_telemetry(&Telemetry::with_sink(sink.clone())).run(SimTime::from_secs(10_000));
            sink.take()
        };
        let span_named = |ev: &TraceEvent, name: &str| {
            let field = |key| ev.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
            let Some(Value::U64(span)) = field("span") else { return None };
            (ev.kind == "span.start" && field("name") == Some(name.into())).then_some(span)
        };
        let span_end = |trace: &[TraceEvent], span: u64| {
            trace.iter().position(|ev| {
                ev.kind == "span.end"
                    && ev.fields.iter().any(|(k, v)| *k == "span" && *v == Value::U64(span))
            })
        };

        // Alone, the transfer completes at `tc`.
        let alone = traced(None);
        let first = alone.iter().find_map(|ev| span_named(ev, "session.transfer")).expect("span");
        let tc = alone[span_end(&alone, first).expect("transfer ends")].t_us;

        // A second session starting at exactly `tc` sees the transfer
        // already finished.
        let tied = traced(Some(SimTime(tc as u64)));
        let first = tied.iter().find_map(|ev| span_named(ev, "session.transfer")).expect("span");
        let end = span_end(&tied, first).expect("transfer ends");
        let second_run = tied
            .iter()
            .enumerate()
            .filter(|(_, ev)| span_named(ev, "session.run").is_some())
            .nth(1)
            .map(|(i, _)| i)
            .expect("second session.run");
        assert_eq!(tied[end].t_us, tc);
        assert_eq!(tied[second_run].t_us, tc);
        assert!(
            end < second_run,
            "transfer ends at trace line {end}, second run starts at {second_run}"
        );
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
        assert_eq!(&*r.server, "dtn.ornl.gov");
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

    /// Only the timeline's `net.bg_util` series reads the background
    /// share, so a run without a timeline records none.
    #[test]
    fn background_recorder_fills_only_under_a_timeline() {
        use gvc_telemetry::{TimelineHandle, DEFAULT_WIDTH_US};
        let bg_bytes = |ctx: Option<Telemetry>| {
            let t = study_topology();
            let watch = t.path(Site::Nersc, Site::Ornl).links[2];
            let mut sim = NetworkSim::new(t.graph.clone(), 0);
            sim.monitor_link(watch);
            let mut d = Driver::new(sim, 6);
            if let Some(ctx) = &ctx {
                d = d.with_telemetry(ctx);
            }
            let horizon = SimTime::from_secs(600);
            d.schedule_background(generate_background(
                &t.graph,
                &BackgroundConfig::default(),
                horizon,
                6,
            ));
            let out = d.run(SimTime::from_secs(100_000));
            let bytes = |rec: &gvc_net::snmp_rec::SnmpRecorder| {
                rec.series(watch).map_or(0, gvc_logs::SnmpSeries::total_bytes)
            };
            (bytes(out.sim.snmp()), bytes(out.sim.bg_snmp()))
        };
        let timeline =
            Telemetry::metrics_only().with_timeline(TimelineHandle::new(DEFAULT_WIDTH_US));
        let (all, bg) = bg_bytes(Some(timeline));
        assert!(all > 0, "background crosses the watched link");
        assert_eq!(bg, all, "every byte on it is background");
        assert_eq!(bg_bytes(None), (all, 0));
        assert_eq!(bg_bytes(Some(Telemetry::metrics_only())), (all, 0));
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
        let spec = SessionSpec::sequential(vec![job(512)], 0.0)
            .with_vc(crate::session::VcRequestSpec { rate_bps: 1e9, max_duration_s: 3600.0 });
        d.schedule_session(SimTime::ZERO, a, b, spec);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1);
        // First transfer waits out the 1-minute setup delay.
        assert!(out.log.records()[0].start_unix_us >= 60_000_000);
        let stats = out.idc_stats.unwrap();
        assert_eq!(stats.admitted, 1);
    }

    /// A circuit's guarantee ends with its reservation window: the
    /// flow keeps running, now at its best-effort fair share, and the
    /// circuit's span closes at the window's end, not at the session's.
    #[test]
    fn guarantee_lapses_to_fair_share_at_the_window_end() {
        use gvc_telemetry::BufferSink;
        let (d, a, b) = vc_driver(7);
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
        // Almost no noise and no loss: both caps sit near 2.2 Gbps, far
        // above the fair share, so after the lapse the two flows tie.
        let mut d = d
            .with_noise(ServerNoise { mean: 1.0, sd: 0.01 })
            .with_tcp(TcpModel { loss_probability: 0.0, ..TcpModel::default() })
            .with_telemetry(&ctx);
        // Circuit ready at 60 s; its window ends at 300 s.
        let vc = crate::session::VcRequestSpec { rate_bps: 1.8e9, max_duration_s: 300.0 };
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(100_000)], 0.0).with_vc(vc),
        );
        d.schedule_session(SimTime::ZERO, a, b, SessionSpec::sequential(vec![job(100_000)], 0.0));
        // The best-effort transfer launches first (tag 1); the circuit
        // transfer waits for the circuit (tag 2).
        d.sim_mut().trace_tag(1);
        d.sim_mut().trace_tag(2);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 2);
        let (be, vc) = (out.sim.trace(1).expect("tag 1"), out.sim.trace(2).expect("tag 2"));
        assert_eq!(vc.points.first().map(|p| p.0), Some(SimTime::from_secs(60)));

        let end = SimTime::from_secs(300);
        let before = end - SimSpan(1);
        // Inside the window the guarantee binds: the circuit flow runs
        // above it and well above its competitor.
        assert!(vc.rate_at(before) >= 1.8e9, "{vc:?}");
        assert!(vc.rate_at(before) > 4.0 * be.rate_at(before), "{vc:?} {be:?}");
        // From the window's end both share the bottleneck equally.
        let (v, e) = (vc.rate_at(end), be.rate_at(end));
        assert!(v < 1.8e9 && (v - e).abs() <= 1e-9 * e, "vc {v} vs best-effort {e}");

        let text: String = sink
            .take()
            .iter()
            .map(gvc_telemetry::TraceEvent::to_json)
            .collect::<Vec<_>>()
            .join("\n");
        let model = gvc_telemetry::TraceModel::from_text(&text).expect("trace parses");
        let circuit = model.spans.iter().find(|s| s.name == "circuit.lifetime").expect("circuit");
        assert_eq!(circuit.end_us, Some(300_000_000), "{circuit:?}");
        let report = gvc_telemetry::check(&model, &gvc_telemetry::CheckConfig::default());
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn telemetry_covers_kernel_idc_transfer_and_net() {
        use gvc_telemetry::BufferSink;
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
        let mut d = Driver::new(sim, 7).with_idc(idc).with_telemetry(&ctx);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        let spec = SessionSpec::sequential(vec![job(512), job(256)], 1.0)
            .with_vc(crate::session::VcRequestSpec { rate_bps: 1e9, max_duration_s: 3600.0 });
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

        // The IDC and the fluid simulator write their own kinds; the
        // kernel and the driver write spans only.
        let events = sink.take();
        let kinds: std::collections::HashSet<&str> = events.iter().map(|e| e.kind).collect();
        let expected = ["idc.admit", "idc.teardown", "net.fairshare", "span.start", "span.end"];
        for kind in expected {
            assert!(kinds.contains(kind), "missing {kind}: {kinds:?}");
        }
        // Each session and transfer fact is written once, on its span.
        let jsons: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        let count = |needle: &str| jsons.iter().filter(|j| j.contains(needle)).count();
        assert_eq!(count("\"name\":\"session.run\",\"session\":0,\"vc\":true,\"jobs\":2"), 1);
        assert_eq!(count("\"name\":\"session.transfer\""), 3);
        assert_eq!(count("\"streams\":"), 3, "streams on the transfer span start only");
        assert_eq!(count("\"lossy\":"), 3, "lossy on the transfer span end only");

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
        use gvc_telemetry::BufferSink;
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
        let mut d = Driver::new(sim, 7)
            .with_idc(idc)
            .with_recovery(RecoveryPolicy::default())
            .with_telemetry(&ctx);
        let a = d.register_cluster("slac", slac, ServerCaps::default(), 1);
        let b = d.register_cluster("bnl", bnl, ServerCaps::default(), 1);
        let spec = SessionSpec::sequential(vec![job(512), job(256)], 1.0)
            .with_vc(crate::session::VcRequestSpec { rate_bps: 1e9, max_duration_s: 3600.0 });
        d.schedule_session(SimTime::ZERO, a, b, spec);
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 2);

        // Round-trip the span stream through the offline toolchain.
        let text: String = sink
            .take()
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
        use gvc_telemetry::BufferSink;
        let t = study_topology();
        let (slac, bnl) = (t.dtn(Site::Slac), t.dtn(Site::Bnl));
        let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
        let sim = NetworkSim::new(t.graph, 0);
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
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
            SessionSpec::sequential(vec![job(64)], 0.0)
                .with_vc(crate::session::VcRequestSpec { rate_bps: 1e9, max_duration_s: 3600.0 }),
        );
        let out = d.run(SimTime::from_secs(100_000));
        assert_eq!(out.log.len(), 1);
        assert_eq!(out.resilience.unwrap().fallbacks, 1);
        let text: String = sink
            .take()
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
    fn transfer_spans_report_loss_and_failure() {
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
        let (out, outcomes) = run_traced(d, SimTime::from_secs(1_000_000));
        assert_eq!(out.log.len(), 5);
        assert_eq!(outcomes, vec![(0, true, true); 5]);
        // And with everything off, no transfer is lossy or failed.
        let (mut d2, a2, b2) = base_driver(20);
        d2 = d2.with_tcp(TcpModel { loss_probability: 0.0, ..TcpModel::default() }).with_failures(
            crate::transfer::FailureModel {
                probability: 0.0,
                ..crate::transfer::FailureModel::default()
            },
        );
        d2.schedule_session(SimTime::ZERO, a2, b2, SessionSpec::sequential(vec![job(64); 5], 0.0));
        let (_, outcomes2) = run_traced(d2, SimTime::from_secs(1_000_000));
        assert_eq!(outcomes2, vec![(0, false, false); 5]);
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
        /// interleaving.
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
        crate::session::VcRequestSpec { rate_bps: 1e9, max_duration_s: 3600.0 }
    }

    /// Without a recovery policy a circuit request gets one attempt: a
    /// blocked request gives the circuit up, the transfer runs over IP,
    /// and nothing is tallied as a fallback or reported as resilience.
    #[test]
    fn blocked_request_without_policy_gives_up_after_one_attempt() {
        use gvc_telemetry::BufferSink;
        let (d, a, b) = vc_driver(7);
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
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

        let text: String = sink
            .take()
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

    /// The ledger counts a retry when the policy decides it, so one
    /// still due when the run reaches its limit counts, as it does in
    /// `recovery_retries_total`.
    #[test]
    fn a_retry_due_after_the_limit_still_counts() {
        use gvc_faults::FaultPlan;
        let ctx = Telemetry::metrics_only();
        let (d, a, b) = vc_driver(7);
        let mut d = d
            .with_telemetry(&ctx)
            .with_faults(FaultPlan { fail_first_provisions: 1, ..FaultPlan::default() });
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(256)], 0.0).with_vc(vc_spec()),
        );
        // The first attempt fails at 0 s; its retry is due after the
        // default backoff, at least 3.75 s later.
        let out = d.run(SimTime::from_secs(1));
        assert_eq!(out.log.len(), 0, "the session still waits for its circuit");
        let r = out.resilience.expect("recovery configured");
        assert_eq!((r.vc_requested, r.vc_established, r.retries, r.fallbacks), (1, 0, 1, 0));
        assert_eq!(r.mean_recovery_latency_s, 0.0, "a pending pursuit has no latency yet");
        assert_eq!(ctx.registry.counter("recovery_retries_total", &[]).get(), r.retries);
    }

    /// The reasons a failed attempt can carry are the ones
    /// docs/observability.md lists, plus the injected fault kinds.
    #[test]
    fn failure_reasons_match_the_docs() {
        use FailReason::{Blocked, Fault, ProvisionError, SetupDeadline};
        const NAMED: [FailReason; 3] = [Blocked, ProvisionError, SetupDeadline];
        // A new variant fails to compile here until it is classified,
        // and a named one fails below until the docs list it.
        match Blocked {
            Blocked | ProvisionError | SetupDeadline => {}
            Fault(_) => {}
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
        let doc = std::fs::read_to_string(path).expect("docs/observability.md");
        let doc = doc.split_whitespace().collect::<Vec<_>>().join(" ");
        let list = doc
            .split("The failed attempt's `reason` (")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .expect("the docs list the failed attempt's reasons");
        let documented: Vec<&str> = list.split('`').skip(1).step_by(2).collect();
        assert_eq!(documented, NAMED.map(FailReason::as_str));
        assert!(list.ends_with("or the injected fault kind"), "{list}");
        for kind in FaultKind::ALL {
            assert_eq!(Fault(kind).as_str(), kind.as_str());
        }
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
    fn fault_counters_route_by_kind() {
        use gvc_faults::FaultPlan;
        let ctx = Telemetry::metrics_only();
        let (d, a, b) = vc_driver(9);
        let plan = FaultPlan {
            fail_first_provisions: 2,
            preempt_after_s: Some(5.0),
            ..FaultPlan::default()
        };
        let mut d = d.with_telemetry(&ctx).with_faults(plan);
        d.schedule_session(
            SimTime::ZERO,
            a,
            b,
            SessionSpec::sequential(vec![job(4096)], 0.0).with_vc(vc_spec()),
        );
        let out = d.run(SimTime::from_secs(1_000_000));
        assert_eq!(out.resilience.unwrap().faults_injected, 3);
        let text = ctx.registry.render();
        for line in [
            "# HELP fault_injected_total Injected faults, by kind",
            "fault_injected_total{kind=\"signalling_failure\"} 2",
            "fault_injected_total{kind=\"preemption\"} 1",
            "fault_injected_total{kind=\"link_flap\"} 0",
        ] {
            assert!(text.contains(line), "exposition missing {line}:\n{text}");
        }
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
        let (out, outcomes) = run_traced(d, SimTime::from_secs(1_000_000));
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|&(_, _, failed)| failed), "{outcomes:?}");
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
            let (_, outcomes) = run_traced(d, SimTime::from_secs(10_000_000));
            outcomes
                .into_iter()
                .filter(|&(session, _, _)| session == 1)
                .map(|(_, _, failed)| failed)
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
}
