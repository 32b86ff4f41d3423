//! The event-driven fluid simulator.
//!
//! Flows hold piecewise-constant rates computed by the max-min solver;
//! rates are recomputed whenever the active set changes (arrival or
//! departure), which is exact for the fluid model. Between changes the
//! simulator integrates per-flow progress and deposits bytes into the
//! SNMP counters of monitored interfaces.
//!
//! The driver (session scripts in `gvc-gridftp`, background traffic,
//! OSCARS provisioning) interleaves with the simulator through
//! [`NetworkSim::run_until`]: advance to `t`, harvesting any flow
//! completions on the way, then inject the next external event.

use crate::fairshare::{ConstraintIx, FairShareSolver, RouteClass};
use crate::flow::{FlowCompletion, FlowId, FlowSpec, ResourceId};
use crate::snmp_rec::SnmpRecorder;
use gvc_engine::{SimSpan, SimTime};
use gvc_telemetry::timeline::series;
use gvc_telemetry::{Counter, Gauge, Perf, Telemetry, TimelineHandle, TraceEvent, Tracer};
use gvc_topology::{Graph, LinkId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Fluid-simulator hooks, built from a [`Telemetry`] context by
/// [`NetworkSim::set_telemetry`].
struct NetTelemetry {
    /// `net_fairshare_recomputations_total`: max-min solver runs.
    recomputations: Arc<Counter>,
    /// `net_flows_started_total`: flows injected.
    flows_started: Arc<Counter>,
    /// `net_flows_completed_total`: flows finished (not aborted).
    flows_completed: Arc<Counter>,
    /// `net_flows_active`: currently active flows.
    flows_active: Arc<Gauge>,
    /// `net_snmp_deposited_bytes_total`: bytes deposited into monitored
    /// SNMP interface counters.
    snmp_bytes: Arc<Counter>,
    /// Trace handle for `net.*` events.
    tracer: Tracer,
}

/// A recorded rate timeline for one traced flow: `(instant, bps)`
/// breakpoints, one per fair-share recomputation that changed the
/// flow's rate. Piecewise-constant between breakpoints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTrace {
    /// `(time, rate_bps)` breakpoints in time order.
    pub points: Vec<(SimTime, f64)>,
}

impl FlowTrace {
    /// The rate in force at instant `t` (0 before the first point).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.points.iter().take_while(|(at, _)| *at <= t).last().map_or(0.0, |&(_, r)| r)
    }
}

/// Bytes below which a flow counts as finished (guards float error).
const DONE_EPS_BYTES: f64 = 0.5;

struct FlowState {
    spec: FlowSpec,
    /// The solver's class for the flow's route links and resources,
    /// interned once at injection.
    class: RouteClass,
    remaining_bytes: f64,
    rate_bps: f64,
    peak_rate_bps: f64,
    started: SimTime,
    /// When the flow's guarantee lapses; see
    /// [`NetworkSim::set_guarantee_end`].
    guarantee_end: Option<SimTime>,
}

/// The fluid network simulator over a [`Graph`].
///
/// ```
/// use gvc_net::{FlowSpec, NetworkSim};
/// use gvc_engine::SimTime;
/// use gvc_topology::{Graph, NodeKind};
///
/// let mut g = Graph::new();
/// let a = g.add_node("a", NodeKind::Host);
/// let b = g.add_node("b", NodeKind::Host);
/// let (link, _) = g.add_duplex_link(a, b, 8e9, 0.01);
///
/// let mut sim = NetworkSim::new(g, 0);
/// sim.add_flow(FlowSpec::best_effort(vec![link], 1e9)); // 1 GB
/// let done = sim.run_until(SimTime::from_secs(10));
/// assert_eq!(done.len(), 1);
/// assert!((done[0].throughput_bps() - 8e9).abs() < 1e3);
/// ```
pub struct NetworkSim {
    graph: Graph,
    /// The solver's capacity table: one entry per graph link (indexed
    /// by `LinkId`), then one per registered resource.
    capacities: Vec<f64>,
    /// Max-min workspace, reused by every recomputation; it holds the
    /// route classes of every flow injected so far.
    solver: FairShareSolver,
    flows: BTreeMap<FlowId, FlowState>,
    next_id: u64,
    now: SimTime,
    rates_dirty: bool,
    snmp: SnmpRecorder,
    /// Guarantees lapsed at their end so far.
    guarantees_lapsed: u64,
    /// Background-tagged share of the same monitored interfaces:
    /// flows carrying [`NetworkSim::set_background_tag`]'s tag
    /// deposit here *in addition to* the main recorder, so the
    /// timeline can report the cross-traffic share per window.
    bg_snmp: SnmpRecorder,
    /// The tag marking background cross-traffic, if any.
    background_tag: Option<u64>,
    /// Unix microseconds corresponding to `SimTime::ZERO` (for SNMP
    /// bin timestamps).
    epoch_unix_us: i64,
    /// Rate timelines for traced tags.
    traces: HashMap<u64, FlowTrace>,
    traced_tags: std::collections::HashSet<u64>,
    telemetry: Option<NetTelemetry>,
    /// Host-time recorder for the `fairshare` phase (disabled unless
    /// [`NetworkSim::set_telemetry`] passes a live one).
    perf: Perf,
}

impl NetworkSim {
    /// A simulator over `graph` whose `SimTime::ZERO` maps to
    /// `epoch_unix_us` (unix microseconds, UTC).
    pub fn new(graph: Graph, epoch_unix_us: i64) -> NetworkSim {
        let capacities = graph.links().iter().map(|l| l.capacity_bps).collect();
        NetworkSim {
            graph,
            capacities,
            solver: FairShareSolver::new(),
            flows: BTreeMap::new(),
            next_id: 0,
            now: SimTime::ZERO,
            rates_dirty: false,
            guarantees_lapsed: 0,
            snmp: SnmpRecorder::new(),
            bg_snmp: SnmpRecorder::new(),
            background_tag: None,
            epoch_unix_us,
            traces: HashMap::new(),
            traced_tags: std::collections::HashSet::new(),
            telemetry: None,
            perf: Perf::disabled(),
        }
    }

    /// Instruments the simulator from `ctx`: flow and solver counters
    /// in its registry, `net.*` events through its tracer, and each
    /// rate recomputation as one item of its perf recorder's
    /// `fairshare` phase.
    pub fn set_telemetry(&mut self, ctx: &Telemetry) {
        self.perf = ctx.perf.clone();
        let registry = &ctx.registry;
        self.telemetry = Some(NetTelemetry {
            recomputations: registry.counter("net_fairshare_recomputations_total", &[]),
            flows_started: registry.counter("net_flows_started_total", &[]),
            flows_completed: registry.counter("net_flows_completed_total", &[]),
            flows_active: registry.gauge("net_flows_active", &[]),
            snmp_bytes: registry.counter("net_snmp_deposited_bytes_total", &[]),
            tracer: ctx.tracer.clone(),
        });
    }

    /// Starts recording the rate timeline of flows carrying `tag`
    /// (call before injecting them).
    pub fn trace_tag(&mut self, tag: u64) {
        self.traced_tags.insert(tag);
    }

    /// The recorded timeline for `tag`, if traced.
    pub fn trace(&self, tag: u64) -> Option<&FlowTrace> {
        self.traces.get(&tag)
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Unix microseconds for a sim instant.
    pub fn to_unix_us(&self, t: SimTime) -> i64 {
        self.epoch_unix_us + t.micros() as i64
    }

    /// Registers a server-side capacity resource (bps).
    ///
    /// # Panics
    /// Panics on non-positive capacity.
    pub fn add_resource(&mut self, capacity_bps: f64) -> ResourceId {
        assert!(capacity_bps > 0.0, "resource capacity must be positive");
        self.capacities.push(capacity_bps);
        ResourceId((self.capacities.len() - 1 - self.graph.link_count()) as u32)
    }

    /// The capacity-table index of resource `id`.
    fn resource_ix(&self, id: ResourceId) -> ConstraintIx {
        self.graph.link_count() + id.0 as usize
    }

    /// Changes a resource's capacity (e.g. the NCAR frost cluster
    /// shrinking from 3 servers to 1 across 2009–2011).
    pub fn set_resource_capacity(&mut self, id: ResourceId, capacity_bps: f64) {
        assert!(capacity_bps > 0.0, "resource capacity must be positive");
        let ix = self.resource_ix(id);
        self.capacities[ix] = capacity_bps;
        self.rates_dirty = true;
    }

    /// Overrides a link's capacity mid-run (fault injection: link
    /// flaps and restoration). Zero models a hard outage — flows on
    /// the link stall until capacity returns. Returns `false` on an
    /// unknown link or invalid capacity, leaving rates untouched.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity_bps: f64) -> bool {
        let ok = self.graph.set_link_capacity(link, capacity_bps);
        if ok {
            self.capacities[link.0 as usize] = self.graph.link(link).capacity_bps;
            self.rates_dirty = true;
            if let Some(t) = &self.telemetry {
                t.tracer.emit_with(|| {
                    TraceEvent::new(self.now.micros() as i64, "net.link_capacity")
                        .field("link", u64::from(link.0))
                        .field("capacity_bps", capacity_bps)
                });
            }
        }
        ok
    }

    /// Looks up a directed link by its endpoint names (`src`, `dst`).
    pub fn link_by_names(&self, src: &str, dst: &str) -> Option<LinkId> {
        self.graph.link_by_names(src, dst)
    }

    /// Starts SNMP monitoring of `link` (30-second bins, labelled by
    /// endpoint names).
    pub fn monitor_link(&mut self, link: LinkId) {
        let l = self.graph.link(link);
        let name = format!("{}->{}", self.graph.node(l.src).name, self.graph.node(l.dst).name);
        self.snmp.monitor(link, &name, self.epoch_unix_us);
        self.bg_snmp.monitor(link, &name, self.epoch_unix_us);
    }

    /// Access to recorded SNMP counters.
    pub fn snmp(&self) -> &SnmpRecorder {
        &self.snmp
    }

    /// Access to the background-only SNMP counters.
    pub fn bg_snmp(&self) -> &SnmpRecorder {
        &self.bg_snmp
    }

    /// Marks `tag` as background cross-traffic: flows carrying it
    /// additionally deposit into the background-only counters of
    /// monitored interfaces.
    pub fn set_background_tag(&mut self, tag: u64) {
        self.background_tag = Some(tag);
    }

    /// Derives the per-link timeline series from the SNMP counters:
    /// `net.link_util[<iface>]` and `net.bg_util[<iface>]` as
    /// utilization fractions of link capacity per timeline window, each
    /// counter bin distributed over the windows it overlaps.
    ///
    /// Called exactly once after a run completes, so the series come
    /// from the recorder's integer byte bins instead of depending on
    /// float integration order. Utilization is relative to the link's
    /// capacity at derivation time.
    pub fn record_timeline(&self, tl: &TimelineHandle) {
        let width_s = tl.width_us() as f64 / 1e6;
        for (rec, base) in
            [(&self.snmp, series::NET_LINK_UTIL), (&self.bg_snmp, series::NET_BG_UTIL)]
        {
            for link in rec.monitored_links() {
                let Some(s) = rec.series(link) else { continue };
                let cap = self.graph.link(link).capacity_bps;
                if cap <= 0.0 {
                    continue;
                }
                let name = format!("{base}[{}]", s.interface);
                for i in 0..s.len() {
                    let bytes = s.bytes_in_bin(i);
                    if bytes == 0 {
                        continue;
                    }
                    let sim_start = (s.bin_start(i) - self.epoch_unix_us).max(0) as u64;
                    let sim_end = sim_start + s.bin_width_us.max(1) as u64;
                    let util = bytes as f64 * 8.0 / (cap * width_s);
                    tl.add_span(&name, sim_start, sim_end, util);
                }
            }
        }
    }

    /// Number of active flows.
    #[cfg(test)]
    fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Injects `spec` at the current time.
    ///
    /// # Panics
    /// Panics on a non-positive payload or an unknown resource id.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.size_bytes > 0.0, "flow payload must be positive");
        let mut constraints: Vec<ConstraintIx> = spec.route.iter().map(|l| l.0 as usize).collect();
        for &r in &spec.resources {
            let ix = self.resource_ix(r);
            assert!(ix < self.capacities.len(), "unknown resource {r:?}");
            constraints.push(ix);
        }
        constraints.sort_unstable();
        constraints.dedup();
        let class = self.solver.intern(&constraints);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            FlowState {
                class,
                remaining_bytes: spec.size_bytes,
                spec,
                rate_bps: 0.0,
                peak_rate_bps: 0.0,
                started: self.now,
                guarantee_end: None,
            },
        );
        self.rates_dirty = true;
        if let Some(t) = &self.telemetry {
            t.flows_started.inc();
            t.flows_active.set(self.flows.len() as i64);
        }
        id
    }

    /// Aborts a flow, returning the bytes it had moved. `None` when
    /// the id is unknown (already completed).
    #[cfg(test)]
    fn remove_flow(&mut self, id: FlowId) -> Option<f64> {
        let st = self.flows.remove(&id)?;
        self.rates_dirty = true;
        if let Some(t) = &self.telemetry {
            t.flows_active.set(self.flows.len() as i64);
        }
        Some(st.spec.size_bytes - st.remaining_bytes)
    }

    /// Current rate of a flow, bps.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.recompute_if_dirty();
        self.flows.get(&id).map(|f| f.rate_bps)
    }

    /// Updates a flow's circuit guarantee in place (used when an
    /// OSCARS circuit is preempted under a running transfer); the
    /// guarantee's end is unchanged.
    pub fn set_flow_guarantee(&mut self, id: FlowId, min_rate_bps: f64) -> bool {
        match self.flows.get_mut(&id) {
            Some(f) => {
                f.spec.min_rate_bps = min_rate_bps;
                self.rates_dirty = true;
                true
            }
            None => false,
        }
    }

    /// Ends a flow's guarantee at `end`, its circuit's reservation
    /// window: from then on the flow runs best-effort. The lapse is one
    /// of the simulator's own instants, so the caller schedules nothing
    /// for it; an `end` not after the current time drops the guarantee
    /// now. `false` when the id is unknown (already completed).
    pub fn set_guarantee_end(&mut self, id: FlowId, end: SimTime) -> bool {
        let Some(f) = self.flows.get_mut(&id) else {
            return false;
        };
        f.guarantee_end = Some(end);
        self.lapse_guarantees();
        true
    }

    fn recompute_if_dirty(&mut self) {
        if !self.rates_dirty {
            return;
        }
        if let Some(t) = &self.telemetry {
            t.recomputations.inc();
            let n_flows = self.flows.len();
            t.tracer.emit_with(|| {
                TraceEvent::new(self.now.micros() as i64, "net.fairshare").field("flows", n_flows)
            });
        }
        let mut phase = self.perf.phase("fairshare");
        phase.items(1);
        self.solver.clear();
        for f in self.flows.values() {
            self.solver.push_flow(f.class, f.spec.min_rate_bps, f.spec.max_rate_bps);
        }
        let alloc = self.solver.solve(&self.capacities);
        let now = self.now;
        for (f, &rate) in self.flows.values_mut().zip(alloc) {
            let changed = (f.rate_bps - rate).abs() > 1e-6;
            f.rate_bps = rate;
            f.peak_rate_bps = f.peak_rate_bps.max(rate);
            if changed && self.traced_tags.contains(&f.spec.tag) {
                self.traces.entry(f.spec.tag).or_default().points.push((now, rate));
            }
        }
        self.rates_dirty = false;
    }

    /// Earliest instant at which a progressing flow completes under
    /// current rates or a nonzero guarantee lapses, if any. Drivers use
    /// this to interleave their own event queues with the simulator
    /// without ever running it backwards; a lapse needs no event of
    /// theirs. A lapse always lies after `now`: `set_guarantee_end` and
    /// `run_until` drop a guarantee once its end is reached.
    pub fn peek_completion(&mut self) -> Option<SimTime> {
        self.recompute_if_dirty();
        let now = self.now;
        self.flows
            .values()
            .filter_map(|f| {
                let finish = (f.rate_bps > 0.0).then(|| {
                    let secs = f.remaining_bytes * 8.0 / f.rate_bps;
                    // Round *up* to ≥ 1 µs: rounding down (or to
                    // nearest) can predict an instant 1 µs before the
                    // true finish, so integrating exactly to the
                    // prediction would leave a sliver un-harvested;
                    // rounding up guarantees the flow crosses its
                    // finish line by the predicted time.
                    now + SimSpan((secs * 1e6).ceil() as i64).max(SimSpan(1))
                });
                let lapse = f.guarantee_end.filter(|_| f.spec.min_rate_bps > 0.0);
                match (finish, lapse) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .min()
    }

    /// Drops every guarantee whose end is not after `now`; its flow
    /// runs best-effort from here.
    fn lapse_guarantees(&mut self) {
        for f in self.flows.values_mut() {
            if f.guarantee_end.is_some_and(|end| end <= self.now) {
                f.guarantee_end = None;
                if f.spec.min_rate_bps > 0.0 {
                    f.spec.min_rate_bps = 0.0;
                    self.guarantees_lapsed += 1;
                    self.rates_dirty = true;
                }
            }
        }
    }

    /// Integrates progress and SNMP deposits from `now` to `t`
    /// (no completion may lie inside the interval).
    fn integrate_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        let dt = (t - self.now).as_secs_f64();
        if dt <= 0.0 {
            self.now = t;
            return;
        }
        let start_us = self.to_unix_us(self.now);
        let end_us = self.to_unix_us(t);
        let mut deposited: u64 = 0;
        for f in self.flows.values_mut() {
            if f.rate_bps <= 0.0 {
                continue;
            }
            let bytes = (f.rate_bps * dt / 8.0).min(f.remaining_bytes);
            f.remaining_bytes -= bytes;
            let is_background = self.background_tag == Some(f.spec.tag);
            for &l in &f.spec.route {
                deposited += self.snmp.deposit(l, start_us, end_us, bytes.round() as u64);
                if is_background {
                    self.bg_snmp.deposit(l, start_us, end_us, bytes.round() as u64);
                }
            }
        }
        if let Some(tel) = &self.telemetry {
            if deposited > 0 {
                tel.snmp_bytes.add(deposited);
                tel.tracer.emit_with(|| {
                    TraceEvent::new(t.micros() as i64, "net.snmp_deposit")
                        .field("bytes", deposited)
                        .field("span_s", dt)
                });
            }
        }
        self.now = t;
    }

    /// Advances the clock to `t`, processing flow completions and
    /// guarantee lapses on the way. Returns completions in time order.
    ///
    /// # Panics
    /// Panics when `t` is in the past.
    pub fn run_until(&mut self, t: SimTime) -> Vec<FlowCompletion> {
        assert!(t >= self.now, "cannot run backwards");
        let mut out = Vec::new();
        loop {
            match self.peek_completion() {
                Some(tc) if tc <= t => {
                    self.integrate_to(tc);
                    // Harvest every flow that finished at tc.
                    let done: Vec<FlowId> = self
                        .flows
                        .iter()
                        .filter(|(_, f)| f.remaining_bytes <= DONE_EPS_BYTES)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in done {
                        let Some(f) = self.flows.remove(&id) else { continue };
                        out.push(FlowCompletion {
                            id,
                            tag: f.spec.tag,
                            start: f.started,
                            end: tc,
                            bytes: f.spec.size_bytes,
                            peak_rate_bps: f.peak_rate_bps,
                        });
                        self.rates_dirty = true;
                        if let Some(tel) = &self.telemetry {
                            tel.flows_completed.inc();
                            tel.flows_active.set(self.flows.len() as i64);
                        }
                    }
                    self.lapse_guarantees();
                }
                _ => {
                    self.integrate_to(t);
                    return out;
                }
            }
        }
    }

    /// Runs until every flow completes (or stalls), with a hard time
    /// limit as a safety net. Returns all completions.
    pub fn drain(&mut self, limit: SimTime) -> Vec<FlowCompletion> {
        let mut out = Vec::new();
        while !self.flows.is_empty() {
            let before = (out.len(), self.guarantees_lapsed);
            let target = match self.peek_completion() {
                Some(tc) if tc <= limit => tc,
                _ => break,
            };
            out.extend(self.run_until(target));
            if (out.len(), self.guarantees_lapsed) == before {
                break; // stalled
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_topology::NodeKind;

    /// Two hosts over one 8 Gbps link pair.
    fn sim_one_link() -> (NetworkSim, LinkId) {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let (f, _) = g.add_duplex_link(a, b, 8e9, 0.010);
        (NetworkSim::new(g, 0), f)
    }

    #[test]
    fn single_flow_runs_at_link_rate() {
        let (mut sim, l) = sim_one_link();
        // 8 Gbit payload = 1e9 bytes at 8 Gbps -> 1 second.
        let id = sim.add_flow(FlowSpec::best_effort(vec![l], 1e9));
        let done = sim.run_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert!((done[0].end.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((done[0].throughput_bps() - 8e9).abs() < 1e3);
        assert_eq!(sim.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_fairly_then_speed_up() {
        let (mut sim, l) = sim_one_link();
        // Both 1e9 bytes: share 4 Gbps each for 2 s -> both done at 2 s.
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(1));
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(2));
        let done = sim.run_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.end.as_secs_f64() - 2.0).abs() < 1e-6, "{c:?}");
        }
    }

    #[test]
    fn departure_releases_bandwidth() {
        let (mut sim, l) = sim_one_link();
        // Short flow (0.5e9) and long flow (1.5e9): share 4 Gbps,
        // short finishes at t=1; long then runs at 8 Gbps, has 1e9
        // left -> finishes at t=2.
        sim.add_flow(FlowSpec::best_effort(vec![l], 0.5e9).with_tag(1));
        sim.add_flow(FlowSpec::best_effort(vec![l], 1.5e9).with_tag(2));
        let done = sim.run_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 2);
        assert!((done[0].end.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(done[0].tag, 1);
        assert!((done[1].end.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(done[1].tag, 2);
    }

    #[test]
    fn late_arrival_resplits() {
        let (mut sim, l) = sim_one_link();
        sim.add_flow(FlowSpec::best_effort(vec![l], 2e9).with_tag(1));
        // Advance 1 s alone (1e9 done), then a competitor arrives.
        let none = sim.run_until(SimTime::from_secs(1));
        assert!(none.is_empty());
        sim.add_flow(FlowSpec::best_effort(vec![l], 0.5e9).with_tag(2));
        let done = sim.run_until(SimTime::from_secs(10));
        // Flow 2: 0.5e9 at 4 Gbps -> done at t=2. Flow 1 then has
        // 0.5e9 left at 8 Gbps -> done at 2.5.
        assert!((done[0].end.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((done[1].end.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_respected() {
        let (mut sim, l) = sim_one_link();
        let id = sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_cap(1e9));
        assert!((sim.flow_rate(id).unwrap() - 1e9).abs() < 1e3);
        let done = sim.run_until(SimTime::from_secs(20));
        assert!((done[0].end.as_secs_f64() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn guarantee_shields_circuit_flow() {
        let (mut sim, l) = sim_one_link();
        // Circuit flow guaranteed 6 Gbps (and capped there); nine
        // best-effort competitors. Without the guarantee it would get
        // 0.8 Gbps.
        let vc =
            sim.add_flow(FlowSpec::best_effort(vec![l], 6e9).with_guarantee(6e9).with_cap(6e9));
        for _ in 0..9 {
            sim.add_flow(FlowSpec::best_effort(vec![l], 1e12));
        }
        assert!((sim.flow_rate(vc).unwrap() - 6e9).abs() < 1e3);
    }

    #[test]
    fn guarantee_lapses_at_its_end_without_a_caller_event() {
        let (mut sim, l) = sim_one_link();
        let end = SimTime::from_secs(5);
        let vc = sim.add_flow(FlowSpec::best_effort(vec![l], 1e12).with_guarantee(6e9));
        assert!(sim.set_guarantee_end(vc, end));
        let be = sim.add_flow(FlowSpec::best_effort(vec![l], 1e12));
        assert!((sim.flow_rate(vc).unwrap() - 7e9).abs() < 1e3, "guarantee binds");
        // The lapse is the next instant the simulator reports.
        assert_eq!(sim.peek_completion(), Some(end));
        assert!(sim.run_until(end).is_empty());
        assert!((sim.flow_rate(vc).unwrap() - 4e9).abs() < 1e3, "fair share after the end");
        assert!((sim.flow_rate(be).unwrap() - 4e9).abs() < 1e3);
        // A guarantee that has already ended is dropped at once.
        let late = sim.add_flow(FlowSpec::best_effort(vec![l], 1e12).with_guarantee(6e9));
        assert!(sim.set_guarantee_end(late, end));
        assert!((sim.flow_rate(late).unwrap() - 8e9 / 3.0).abs() < 1e3);
    }

    #[test]
    fn server_resource_couples_flows_on_disjoint_links() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let c = g.add_node("c", NodeKind::Host);
        let (ab, _) = g.add_duplex_link(a, b, 10e9, 0.01);
        let (ac, _) = g.add_duplex_link(a, c, 10e9, 0.01);
        let mut sim = NetworkSim::new(g, 0);
        let server = sim.add_resource(2e9);
        let f1 = sim.add_flow(FlowSpec::best_effort(vec![ab], 1e9).with_resources(vec![server]));
        let f2 = sim.add_flow(FlowSpec::best_effort(vec![ac], 1e9).with_resources(vec![server]));
        assert!((sim.flow_rate(f1).unwrap() - 1e9).abs() < 1e3);
        assert!((sim.flow_rate(f2).unwrap() - 1e9).abs() < 1e3);
    }

    #[test]
    fn snmp_counters_record_flow_bytes() {
        let (mut sim, l) = sim_one_link();
        sim.monitor_link(l);
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9));
        sim.run_until(SimTime::from_secs(5));
        let s = sim.snmp().series(l).unwrap();
        assert!((s.total_bytes() as f64 - 1e9).abs() < 2.0);
        // The 1 s transfer lands in the first 30 s bin.
        assert!((s.bytes_in_bin(0) as f64 - 1e9).abs() < 2.0);
    }

    #[test]
    fn background_share_and_timeline_derivation() {
        use gvc_telemetry::TimelineHandle;
        let (mut sim, l) = sim_one_link();
        sim.monitor_link(l);
        sim.set_background_tag(99);
        // Foreground and background flows, 1e9 bytes each, share the
        // link and finish inside the first 30 s bin.
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(1));
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(99));
        sim.drain(SimTime::from_secs(100));
        let total = sim.snmp().series(l).unwrap().total_bytes();
        let bg = sim.bg_snmp().series(l).unwrap().total_bytes();
        assert!((total as f64 - 2e9).abs() < 4.0, "total {total}");
        assert!((bg as f64 - 1e9).abs() < 2.0, "bg {bg}");

        let tl = TimelineHandle::new(30_000_000);
        sim.record_timeline(&tl);
        let doc = gvc_telemetry::TimelineDoc::parse(&tl.to_json()).expect("parse");
        let util = |name: &str| {
            doc.series
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.windows.first())
                .and_then(|w| w.get("value"))
                .expect("window value")
        };
        // 2e9 B over a 30 s window of an 8 Gbps link: 1/15 utilization;
        // the background share is half of that.
        assert!((util("net.link_util[a->b]") - 1.0 / 15.0).abs() < 1e-6);
        assert!((util("net.bg_util[a->b]") - 1.0 / 30.0).abs() < 1e-6);
    }

    #[test]
    fn remove_flow_reports_progress() {
        let (mut sim, l) = sim_one_link();
        let id = sim.add_flow(FlowSpec::best_effort(vec![l], 8e9));
        sim.run_until(SimTime::from_secs(1)); // 1e9 bytes moved
        let moved = sim.remove_flow(id).unwrap();
        assert!((moved - 1e9).abs() < 2.0);
        assert!(sim.remove_flow(id).is_none());
        assert_eq!(sim.active_flows(), 0);
    }

    #[test]
    fn drain_completes_everything() {
        let (mut sim, l) = sim_one_link();
        for i in 1..=5 {
            sim.add_flow(FlowSpec::best_effort(vec![l], i as f64 * 1e8));
        }
        let done = sim.drain(SimTime::from_secs(100));
        assert_eq!(done.len(), 5);
        assert!(done.windows(2).all(|w| w[0].end <= w[1].end));
    }

    #[test]
    fn simultaneous_completions_both_reported() {
        let (mut sim, l) = sim_one_link();
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(1));
        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(2));
        let done = sim.run_until(SimTime::from_secs(3));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].end, done[1].end);
    }

    #[test]
    fn traced_flow_records_rate_breakpoints() {
        let (mut sim, l) = sim_one_link();
        sim.trace_tag(7);
        sim.add_flow(FlowSpec::best_effort(vec![l], 2e9).with_tag(7));
        sim.run_until(SimTime::from_secs(1));
        sim.add_flow(FlowSpec::best_effort(vec![l], 0.5e9).with_tag(0));
        sim.drain(SimTime::from_secs(100));
        let trace = sim.trace(7).expect("traced");
        // Alone (8G), shared (4G), alone again (8G).
        assert_eq!(trace.points.len(), 3, "{:?}", trace.points);
        assert!((trace.rate_at(SimTime::from_secs_f64(0.5)) - 8e9).abs() < 1e3);
        assert!((trace.rate_at(SimTime::from_secs_f64(1.5)) - 4e9).abs() < 1e3);
        assert_eq!(trace.rate_at(SimTime::ZERO.max(SimTime(0))), 8e9);
        // Untraced tag has no trace.
        assert!(sim.trace(0).is_none());
    }

    #[test]
    fn rate_at_before_first_point_is_zero() {
        let t = FlowTrace { points: vec![(SimTime::from_secs(5), 1e9)] };
        assert_eq!(t.rate_at(SimTime::from_secs(4)), 0.0);
        assert_eq!(t.rate_at(SimTime::from_secs(5)), 1e9);
    }

    #[test]
    fn peak_rate_tracked_across_rate_changes() {
        let (mut sim, l) = sim_one_link();
        // Flow A runs alone at 8 Gbps for 1 s, then shares at 4 Gbps.
        sim.add_flow(FlowSpec::best_effort(vec![l], 2e9).with_tag(1));
        sim.run_until(SimTime::from_secs(1));
        sim.add_flow(FlowSpec::best_effort(vec![l], 10e9).with_tag(2));
        let done = sim.run_until(SimTime::from_secs(100));
        let a = done.iter().find(|c| c.tag == 1).expect("flow A done");
        assert!((a.peak_rate_bps - 8e9).abs() < 1e3, "{}", a.peak_rate_bps);
        assert!(a.throughput_bps() < 8e9);
        assert!(a.burstiness() > 1.0);
        // Flow B never ran alone until A finished; its peak is 8 Gbps
        // too (after A departed).
        let b = done.iter().find(|c| c.tag == 2).expect("flow B done");
        assert!((b.peak_rate_bps - 8e9).abs() < 1e3);
    }

    #[test]
    fn telemetry_counts_recomputes_flows_and_snmp() {
        use gvc_telemetry::BufferSink;
        let (mut sim, l) = sim_one_link();
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
        let reg = &ctx.registry;
        sim.set_telemetry(&ctx);
        sim.monitor_link(l);

        sim.add_flow(FlowSpec::best_effort(vec![l], 1e9).with_tag(1));
        sim.run_until(SimTime::from_secs(1)); // shares alone, 1e9 done
        sim.add_flow(FlowSpec::best_effort(vec![l], 0.5e9).with_tag(2));
        sim.drain(SimTime::from_secs(100));

        assert_eq!(reg.counter("net_flows_started_total", &[]).get(), 2);
        assert_eq!(reg.counter("net_flows_completed_total", &[]).get(), 2);
        assert_eq!(reg.gauge("net_flows_active", &[]).get(), 0);
        assert!(reg.counter("net_fairshare_recomputations_total", &[]).get() >= 3);
        let snmp = reg.counter("net_snmp_deposited_bytes_total", &[]).get();
        assert!((snmp as f64 - 1.5e9).abs() < 4.0, "snmp bytes {snmp}");

        let kinds: std::collections::HashSet<&str> = sink.take().iter().map(|e| e.kind).collect();
        assert!(kinds.contains("net.fairshare"));
        assert!(kinds.contains("net.snmp_deposit"));
    }

    #[test]
    fn link_flap_slows_then_restores() {
        let (mut sim, l) = sim_one_link();
        // 2e9 bytes at 8 Gbps would take 2 s. Flap the link to 10 %
        // capacity over [1, 3): 1e9 done by t=1, then 0.8 Gbps for
        // 2 s moves 0.2e9, then 8 Gbps again for the last 0.8e9
        // (0.8 s) -> done at t=3.8.
        let id = sim.add_flow(FlowSpec::best_effort(vec![l], 2e9));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.set_link_capacity(l, 0.8e9));
        assert!((sim.flow_rate(id).unwrap() - 0.8e9).abs() < 1e3);
        sim.run_until(SimTime::from_secs(3));
        assert!(sim.set_link_capacity(l, 8e9));
        let done = sim.run_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        assert!((done[0].end.as_secs_f64() - 3.8).abs() < 1e-5, "{:?}", done[0]);
    }

    #[test]
    fn zero_capacity_stalls_flow() {
        let (mut sim, l) = sim_one_link();
        let id = sim.add_flow(FlowSpec::best_effort(vec![l], 1e9));
        assert!(sim.set_link_capacity(l, 0.0));
        assert_eq!(sim.flow_rate(id), Some(0.0));
        let done = sim.run_until(SimTime::from_secs(5));
        assert!(done.is_empty());
        // Restore and the flow completes.
        assert!(sim.set_link_capacity(l, 8e9));
        let done = sim.run_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn capacity_changes_after_injection_reach_the_solver() {
        // Flow 1 crosses the link and a resource, flow 2 the link only.
        fn build(link_bps: f64, res_bps: f64) -> (NetworkSim, LinkId, ResourceId, [FlowId; 2]) {
            let mut g = Graph::new();
            let a = g.add_node("a", NodeKind::Host);
            let b = g.add_node("b", NodeKind::Host);
            let (l, _) = g.add_duplex_link(a, b, link_bps, 0.01);
            let mut sim = NetworkSim::new(g, 0);
            let r = sim.add_resource(res_bps);
            let f1 = sim.add_flow(FlowSpec::best_effort(vec![l], 1e12).with_resources(vec![r]));
            let f2 = sim.add_flow(FlowSpec::best_effort(vec![l], 1e12));
            (sim, l, r, [f1, f2])
        }
        fn rate_bits(sim: &mut NetworkSim, ids: [FlowId; 2]) -> [u64; 2] {
            ids.map(|id| sim.flow_rate(id).map(f64::to_bits).unwrap_or_default())
        }
        let (mut sim, l, r, ids) = build(8e9, 6e9);
        assert_eq!(rate_bits(&mut sim, ids), [4e9f64.to_bits(); 2]);

        // Each change must yield exactly the rates of a simulator built
        // with the new capacities from the start.
        sim.set_resource_capacity(r, 1e9);
        let (mut fresh, ..) = build(8e9, 1e9);
        assert_eq!(rate_bits(&mut sim, ids), rate_bits(&mut fresh, ids));
        assert_eq!(sim.flow_rate(ids[1]), Some(7e9));

        assert!(sim.set_link_capacity(l, 1.5e9));
        let (mut fresh, ..) = build(1.5e9, 1e9);
        assert_eq!(rate_bits(&mut sim, ids), rate_bits(&mut fresh, ids));
        assert_eq!(sim.flow_rate(ids[0]), Some(0.75e9));

        // A resource registered mid-run extends the table without
        // disturbing the link and resource entries before it.
        let r2 = sim.add_resource(0.25e9);
        let f3 = sim.add_flow(FlowSpec::best_effort(vec![l], 1e12).with_resources(vec![r2, r]));
        assert_eq!(sim.flow_rate(f3), Some(0.25e9));
        assert_eq!(sim.flow_rate(ids[0]), Some(0.625e9));
    }

    #[test]
    fn set_link_capacity_rejects_bad_input() {
        let (mut sim, _) = sim_one_link();
        assert!(!sim.set_link_capacity(LinkId(99), 1e9));
        let (mut sim, l) = sim_one_link();
        assert!(!sim.set_link_capacity(l, -1.0));
        assert!(!sim.set_link_capacity(l, f64::NAN));
        assert_eq!(sim.graph().link(l).capacity_bps, 8e9);
    }

    #[test]
    fn link_by_names_resolves_directions() {
        let (sim, l) = sim_one_link();
        assert_eq!(sim.link_by_names("a", "b"), Some(l));
        assert!(sim.link_by_names("b", "a").is_some());
        assert_ne!(sim.link_by_names("b", "a"), Some(l));
        assert_eq!(sim.link_by_names("a", "zzz"), None);
    }

    #[test]
    fn epoch_mapping() {
        let (sim, _) = sim_one_link();
        assert_eq!(sim.to_unix_us(SimTime::ZERO), 0);
        let mut g = Graph::new();
        g.add_node("x", NodeKind::Host);
        let sim2 = NetworkSim::new(g, 1_000_000);
        assert_eq!(sim2.to_unix_us(SimTime::from_secs(1)), 2_000_000);
    }

    #[test]
    #[should_panic(expected = "payload must be positive")]
    fn zero_payload_panics() {
        let (mut sim, l) = sim_one_link();
        sim.add_flow(FlowSpec::best_effort(vec![l], 0.0));
    }
}
