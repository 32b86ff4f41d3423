//! Inter-domain circuit setup (IDCP-style chaining).
//!
//! §II: "the phone service allows for users to request circuits to
//! customers of other providers, i.e., inter-domain service is
//! supported. Commercial high-speed optical dynamic circuit services
//! are currently only intra-domain, but REN providers are
//! experimenting with inter-domain service" — via the Inter-Domain
//! Controller Protocol (IDCP) that ESnet and Internet2 deploy, and the
//! DYNES build-out in campus/regional networks.
//!
//! The model: each provider domain runs its own [`Idc`] over its own
//! subgraph; domains meet at named gateway nodes. An end-to-end
//! request is decomposed along a domain-level route into per-domain
//! segment reservations, admitted atomically (all-or-nothing, with
//! rollback of already-admitted segments on failure). Setup is
//! signalled domain by domain, so the end-to-end ready time is the
//! *latest* segment ready time — chaining 1-minute batched IDCs does
//! not add minutes, but one slow domain gates the whole circuit.

use crate::idc::{BlockReason, Idc};
use crate::reservation::{ReservationId, ReservationRequest};
use gvc_engine::{SimSpan, SimTime};
use gvc_faults::telemetry::FaultTelemetry;
use gvc_faults::{FaultInjector, FaultKind, RecoveryAction, RecoveryPolicy};
use gvc_telemetry::{SpanId, Telemetry, TraceEvent};
use gvc_topology::NodeId;
use std::collections::HashMap;

/// A provider domain: an IDC plus the gateways it shares with
/// neighbours.
pub struct Domain {
    /// Provider name (e.g. `"esnet"`, `"internet2"`).
    pub name: String,
    /// The domain's scheduler over its own topology.
    pub idc: Idc,
    /// Nodes of this domain's graph that terminate inter-domain
    /// hand-offs, keyed by the *global* gateway label shared with the
    /// neighbour.
    pub gateways: HashMap<String, NodeId>,
    /// Nodes of this domain's graph that host customer endpoints,
    /// keyed by a global endpoint label.
    pub endpoints: HashMap<String, NodeId>,
}

/// One admitted end-to-end circuit: the per-domain segments in path
/// order.
#[derive(Debug, Clone)]
pub struct InterDomainCircuit {
    /// `(domain index, reservation id)` per segment.
    pub segments: Vec<(usize, ReservationId)>,
    /// When the whole circuit is usable (max of segment ready times).
    pub ready_at: SimTime,
}

/// Why an end-to-end request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum InterDomainBlock {
    /// No domain-level route between the endpoints.
    NoDomainRoute,
    /// A specific domain blocked its segment.
    SegmentBlocked {
        /// The blocking domain's name.
        domain: String,
        /// Its reason.
        reason: BlockReason,
    },
}

/// The inter-domain controller: a chain-of-domains coordinator.
pub struct InterDomainController {
    domains: Vec<Domain>,
}

impl InterDomainController {
    /// A controller over the given domains.
    pub fn new(domains: Vec<Domain>) -> InterDomainController {
        InterDomainController { domains }
    }

    /// Immutable access to the domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Finds the domain hosting a global endpoint label.
    fn endpoint_domain(&self, label: &str) -> Option<(usize, NodeId)> {
        self.domains.iter().enumerate().find_map(|(i, d)| d.endpoints.get(label).map(|&n| (i, n)))
    }

    /// Domain-level route by breadth-first search over shared gateway
    /// labels. Returns per-domain `(domain_ix, entry_node, exit_node)`
    /// hops: `entry` is the endpoint or ingress gateway, `exit` the
    /// egress gateway or endpoint.
    fn domain_route(
        &self,
        src_label: &str,
        dst_label: &str,
    ) -> Option<Vec<(usize, NodeId, NodeId)>> {
        let (src_dom, src_node) = self.endpoint_domain(src_label)?;
        let (dst_dom, dst_node) = self.endpoint_domain(dst_label)?;
        if src_dom == dst_dom {
            return Some(vec![(src_dom, src_node, dst_node)]);
        }
        // BFS over domains connected by shared gateway labels.
        let mut prev: HashMap<usize, (usize, String)> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([src_dom]);
        let mut seen = std::collections::HashSet::from([src_dom]);
        'bfs: while let Some(d) = queue.pop_front() {
            for label in self.domains[d].gateways.keys() {
                for (e, other) in self.domains.iter().enumerate() {
                    if e != d && !seen.contains(&e) && other.gateways.contains_key(label) {
                        seen.insert(e);
                        prev.insert(e, (d, label.clone()));
                        if e == dst_dom {
                            break 'bfs;
                        }
                        queue.push_back(e);
                    }
                }
            }
        }
        if !prev.contains_key(&dst_dom) {
            return None;
        }
        // Reconstruct the domain chain with gateway labels.
        let mut chain = vec![dst_dom];
        let mut labels = Vec::new();
        let mut at = dst_dom;
        while at != src_dom {
            let (p, label) = prev.get(&at)?.clone();
            labels.push(label);
            chain.push(p);
            at = p;
        }
        chain.reverse();
        labels.reverse();
        // Build hops: entry of first domain is the src endpoint; exits
        // are the shared gateways; entry of each next domain is its
        // copy of the same gateway label.
        let mut hops = Vec::with_capacity(chain.len());
        let mut entry = src_node;
        for (i, &dom) in chain.iter().enumerate() {
            let exit = if i + 1 < chain.len() {
                *self.domains[dom].gateways.get(&labels[i])?
            } else {
                dst_node
            };
            hops.push((dom, entry, exit));
            if i + 1 < chain.len() {
                entry = *self.domains[chain[i + 1]].gateways.get(&labels[i])?;
            }
        }
        Some(hops)
    }

    /// Requests an end-to-end circuit between two global endpoint
    /// labels. Admits all segments or none.
    pub fn create_circuit(
        &mut self,
        src_label: &str,
        dst_label: &str,
        rate_bps: f64,
        start: SimTime,
        end: SimTime,
        now: SimTime,
    ) -> Result<InterDomainCircuit, InterDomainBlock> {
        let hops =
            self.domain_route(src_label, dst_label).ok_or(InterDomainBlock::NoDomainRoute)?;

        let mut segments: Vec<(usize, ReservationId)> = Vec::with_capacity(hops.len());
        for (dom, entry, exit) in &hops {
            let req = ReservationRequest { src: *entry, dst: *exit, rate_bps, start, end };
            match self.domains[*dom].idc.create_reservation(req) {
                Ok(id) => segments.push((*dom, id)),
                Err(reason) => {
                    // Roll back everything admitted so far. The
                    // segments were admitted above, so teardown of
                    // each is infallible here.
                    for (d, id) in segments {
                        let _ = self.domains[d].idc.teardown(id, now);
                    }
                    return Err(InterDomainBlock::SegmentBlocked {
                        domain: self.domains[*dom].name.clone(),
                        reason,
                    });
                }
            }
        }

        // Signal provisioning in every domain; the circuit is usable
        // when the slowest segment is.
        let mut ready_at = start;
        for (d, id) in &segments {
            // Freshly admitted above, so provisioning succeeds; a
            // hypothetical failure just leaves `ready_at` at the
            // slowest successfully signalled segment.
            if let Ok(r) = self.domains[*d].idc.provision(*id, now) {
                ready_at = ready_at.max(r);
            }
        }
        Ok(InterDomainCircuit { segments, ready_at })
    }

    /// Tears an end-to-end circuit down in every domain.
    pub fn teardown(&mut self, circuit: &InterDomainCircuit, now: SimTime) {
        for (d, id) in &circuit.segments {
            let _ = self.domains[*d].idc.teardown(*id, now);
        }
    }

    /// Total reservations still open across every domain (leak check
    /// for the resilience harness).
    pub fn open_reservations(&self) -> usize {
        self.domains.iter().map(|d| d.idc.open_reservations()).sum()
    }

    /// [`Self::create_circuit`] under a recovery policy: injected
    /// signalling failures and setup timeouts (plus genuine admission
    /// blocks) are retried with the policy's backoff, and exhausting
    /// the budget falls back to the routed IP path when the policy
    /// allows. Every failed attempt tears its partial circuit down —
    /// no attempt ever leaks a reservation.
    ///
    /// Waiting is virtual: the returned outcome's `finished_at` is
    /// `now` plus all backoff delays spent, which callers fold into
    /// their own clocks. Faults, retries, fallbacks and the recovery
    /// latency are counted, traced and windowed through `telemetry`.
    #[allow(clippy::too_many_arguments)]
    pub fn create_circuit_with_recovery(
        &mut self,
        src_label: &str,
        dst_label: &str,
        rate_bps: f64,
        start: SimTime,
        end: SimTime,
        now: SimTime,
        policy: &RecoveryPolicy,
        injector: &mut FaultInjector,
        telemetry: &Telemetry,
    ) -> RecoveryOutcome {
        let faults = FaultTelemetry::new(telemetry);
        let tracer = &telemetry.tracer;
        let seed = injector.plan().seed;
        let mut at = now;
        let mut attempts = 0u32;
        // The whole establishment sequence as one span, each attempt
        // and each backoff wait as children.
        let chain =
            tracer.span_enter_with(SpanId::NONE, now.micros() as i64, "idc.interdomain", |ev| {
                ev.field("rate_bps", rate_bps)
            });
        loop {
            attempts += 1;
            let attempt_span =
                tracer.span_enter_with(chain, at.micros() as i64, "idc.attempt", |ev| {
                    ev.field("attempt", u64::from(attempts))
                });
            let fault = injector.provision_fault();
            let result = self.create_circuit(src_label, dst_label, rate_bps, start, end, at);
            let failure = match (fault, result) {
                (None, Ok(circuit)) => {
                    let late = (circuit.ready_at - at).as_secs_f64() > policy.setup_deadline_s;
                    if late {
                        // A genuine (non-injected) setup timeout: the
                        // chain answered too slowly to be useful.
                        self.teardown(&circuit, at);
                        AttemptFailure::Fault(FaultKind::SetupTimeout)
                    } else {
                        faults.recovery_latency.record((at - now).as_secs_f64());
                        tracer.emit_with(|| {
                            TraceEvent::new(at.micros() as i64, "recovery.established")
                                .field("attempts", u64::from(attempts))
                                .field("waited_s", (at - now).as_secs_f64())
                        });
                        tracer.span_exit(attempt_span, at.micros() as i64);
                        tracer.span_exit_with(chain, at.micros() as i64, |ev| {
                            ev.field("outcome", "established")
                        });
                        return RecoveryOutcome {
                            result: CircuitResult::Established(circuit),
                            attempts,
                            finished_at: at,
                        };
                    }
                }
                (Some(kind), result) => {
                    // Injected fault. If admission succeeded underneath
                    // the failed signalling exchange, release it — the
                    // provider side admitted state the client never
                    // learned about.
                    if let Ok(circuit) = result {
                        self.teardown(&circuit, at);
                    }
                    faults.count_injected(kind, at.micros());
                    tracer.emit_with(|| {
                        TraceEvent::new(at.micros() as i64, "fault.injected")
                            .field("fault", kind.as_str())
                            .field("attempt", u64::from(attempts))
                    });
                    AttemptFailure::Fault(kind)
                }
                (None, Err(block)) => AttemptFailure::Blocked(block),
            };

            match policy.decide(seed, attempts) {
                RecoveryAction::Retry { delay_s_micros } => {
                    faults.retries.inc();
                    tracer.emit_with(|| {
                        TraceEvent::new(at.micros() as i64, "recovery.retry")
                            .field("attempt", u64::from(attempts))
                            .field("delay_s", delay_s_micros as f64 / 1e6)
                    });
                    tracer.span_exit(attempt_span, at.micros() as i64);
                    let backoff = tracer.span_enter(chain, at.micros() as i64, "idc.backoff");
                    at += SimSpan(delay_s_micros as i64);
                    tracer.span_exit(backoff, at.micros() as i64);
                }
                RecoveryAction::FallbackToIp => {
                    faults.fallback_ip.inc();
                    faults.recovery_latency.record((at - now).as_secs_f64());
                    tracer.emit_with(|| {
                        TraceEvent::new(at.micros() as i64, "recovery.fallback")
                            .field("attempts", u64::from(attempts))
                    });
                    tracer.span_exit(attempt_span, at.micros() as i64);
                    tracer.span_exit_with(chain, at.micros() as i64, |ev| {
                        ev.field("outcome", "fallback_ip")
                    });
                    return RecoveryOutcome {
                        result: CircuitResult::FellBack(failure),
                        attempts,
                        finished_at: at,
                    };
                }
                RecoveryAction::GiveUp => {
                    faults.recovery_latency.record((at - now).as_secs_f64());
                    tracer.emit_with(|| {
                        TraceEvent::new(at.micros() as i64, "recovery.giveup")
                            .field("attempts", u64::from(attempts))
                    });
                    tracer.span_exit(attempt_span, at.micros() as i64);
                    tracer.span_exit_with(chain, at.micros() as i64, |ev| {
                        ev.field("outcome", "giveup")
                    });
                    return RecoveryOutcome {
                        result: CircuitResult::Abandoned(failure),
                        attempts,
                        finished_at: at,
                    };
                }
            }
        }
    }
}

/// Why one establishment attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptFailure {
    /// An injected fault (or a genuine setup timeout).
    Fault(FaultKind),
    /// The admission chain itself blocked the request.
    Blocked(InterDomainBlock),
}

/// Terminal result of a recovered establishment sequence.
#[derive(Debug, Clone)]
pub enum CircuitResult {
    /// The circuit came up.
    Established(InterDomainCircuit),
    /// Retries exhausted; the transfer should run over routed IP.
    FellBack(AttemptFailure),
    /// Retries exhausted and the policy forbids fallback.
    Abandoned(AttemptFailure),
}

/// What [`InterDomainController::create_circuit_with_recovery`]
/// reports back.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Established, fell back, or abandoned.
    pub result: CircuitResult,
    /// Establishment attempts made (≤ the policy's budget).
    pub attempts: u32,
    /// `now` plus all backoff waits spent.
    pub finished_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SetupDelayModel;
    use gvc_topology::{Graph, NodeKind};

    /// Two line domains joined at a gateway, plus a third stub domain.
    ///
    /// esnet:    ep-a -- r1 -- gw-x
    /// internet2: gw-x -- r2 -- ep-b
    /// regional:  gw-y -- ep-c   (not connected to the others)
    fn controller(capacity_bps: f64) -> InterDomainController {
        let mk_domain = |_name: &str,
                         nodes: &[(&str, NodeKind)],
                         links: &[(usize, usize)]|
         -> (Graph, Vec<NodeId>) {
            let mut g = Graph::new();
            let ids: Vec<NodeId> = nodes.iter().map(|(n, k)| g.add_node(n, *k)).collect();
            for &(a, b) in links {
                g.add_duplex_link(ids[a], ids[b], capacity_bps, 0.005);
            }
            (g, ids)
        };

        let (g1, n1) = mk_domain(
            "esnet",
            &[("ep-a", NodeKind::Host), ("r1", NodeKind::Router), ("gw-x", NodeKind::Router)],
            &[(0, 1), (1, 2)],
        );
        let (g2, n2) = mk_domain(
            "internet2",
            &[("gw-x", NodeKind::Router), ("r2", NodeKind::Router), ("ep-b", NodeKind::Host)],
            &[(0, 1), (1, 2)],
        );
        let (g3, n3) = mk_domain(
            "regional",
            &[("gw-y", NodeKind::Router), ("ep-c", NodeKind::Host)],
            &[(0, 1)],
        );

        InterDomainController::new(vec![
            Domain {
                name: "esnet".into(),
                idc: Idc::new(g1, SetupDelayModel::one_minute()),
                gateways: HashMap::from([("gw-x".to_string(), n1[2])]),
                endpoints: HashMap::from([("ep-a".to_string(), n1[0])]),
            },
            Domain {
                name: "internet2".into(),
                idc: Idc::new(g2, SetupDelayModel::hardware()),
                gateways: HashMap::from([("gw-x".to_string(), n2[0])]),
                endpoints: HashMap::from([("ep-b".to_string(), n2[2])]),
            },
            Domain {
                name: "regional".into(),
                idc: Idc::new(g3, SetupDelayModel::hardware()),
                gateways: HashMap::from([("gw-y".to_string(), n3[0])]),
                endpoints: HashMap::from([("ep-c".to_string(), n3[1])]),
            },
        ])
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn two_domain_circuit_admitted_with_max_setup_delay() {
        let mut c = controller(10e9);
        let circuit = c.create_circuit("ep-a", "ep-b", 4e9, t(0), t(3600), t(0)).expect("admitted");
        assert_eq!(circuit.segments.len(), 2);
        // esnet uses 1-min batching, internet2 hardware: the chain is
        // gated by esnet's 60 s.
        assert_eq!(circuit.ready_at, t(60));
    }

    #[test]
    fn unreachable_domain_is_no_route() {
        let mut c = controller(10e9);
        assert!(matches!(
            c.create_circuit("ep-a", "ep-c", 1e9, t(0), t(10), t(0)),
            Err(InterDomainBlock::NoDomainRoute)
        ));
        assert!(matches!(
            c.create_circuit("ep-a", "nowhere", 1e9, t(0), t(10), t(0)),
            Err(InterDomainBlock::NoDomainRoute)
        ));
    }

    #[test]
    fn intra_domain_endpoint_pair_uses_one_segment() {
        let mut c = controller(10e9);
        // Same-domain circuit: add a second endpoint to esnet.
        let extra = c.domains[0].endpoints.get("ep-a").copied().unwrap();
        c.domains[0].endpoints.insert("ep-a2".into(), extra);
        // src == dst node would be invalid; route via gw-x instead.
        let gw = c.domains[0].gateways.get("gw-x").copied().unwrap();
        c.domains[0].endpoints.insert("gw-as-ep".into(), gw);
        let circuit =
            c.create_circuit("ep-a", "gw-as-ep", 1e9, t(0), t(10), t(0)).expect("admitted");
        assert_eq!(circuit.segments.len(), 1);
    }

    #[test]
    fn blocked_segment_rolls_back_everything() {
        let mut c = controller(10e9);
        // Saturate internet2's links over the window so its segment
        // blocks, then verify esnet's calendar was rolled back by
        // admitting a fresh full-rate circuit afterwards.
        let gw = c.domains[1].gateways["gw-x"];
        let ep = c.domains[1].endpoints["ep-b"];
        let fill =
            ReservationRequest { src: gw, dst: ep, rate_bps: 10e9, start: t(0), end: t(3600) };
        c.domains[1].idc.create_reservation(fill).expect("fill");

        let blocked = c.create_circuit("ep-a", "ep-b", 4e9, t(0), t(3600), t(0));
        match blocked {
            Err(InterDomainBlock::SegmentBlocked { domain, .. }) => assert_eq!(domain, "internet2"),
            other => panic!("expected internet2 block, got {other:?}"),
        }
        // esnet must have rolled back: a full 10 G single-domain
        // reservation through it still fits.
        let src = c.domains[0].endpoints["ep-a"];
        let dst = c.domains[0].gateways["gw-x"];
        let ok = c.domains[0].idc.create_reservation(ReservationRequest {
            src,
            dst,
            rate_bps: 10e9,
            start: t(0),
            end: t(3600),
        });
        assert!(ok.is_ok(), "esnet calendar not rolled back: {ok:?}");
    }

    #[test]
    fn rollback_releases_each_admitted_segment() {
        // Regression for the rollback promise above: when a later
        // segment blocks, every earlier segment's reservation must
        // actually reach Released — not just free calendar capacity
        // as a side effect.
        use crate::reservation::ReservationState;
        let mut c = controller(10e9);
        let gw = c.domains[1].gateways["gw-x"];
        let ep = c.domains[1].endpoints["ep-b"];
        let fill =
            ReservationRequest { src: gw, dst: ep, rate_bps: 10e9, start: t(0), end: t(3600) };
        c.domains[1].idc.create_reservation(fill).expect("fill");

        assert!(c.create_circuit("ep-a", "ep-b", 4e9, t(0), t(3600), t(0)).is_err());
        // esnet admitted one segment (reservation id 0) before
        // internet2 blocked; it must be Released, and no domain may
        // hold an open reservation besides the deliberate fill.
        let esnet_seg = c.domains[0].idc.reservation(ReservationId(0)).expect("was admitted");
        assert_eq!(esnet_seg.state, ReservationState::Released);
        assert_eq!(c.open_reservations(), 1, "only the fill may stay open");
    }

    #[test]
    fn recovery_retries_then_establishes() {
        use gvc_faults::{FaultInjector, FaultPlan, RecoveryPolicy};
        let mut c = controller(10e9);
        // First two attempts die on injected signalling failures; the
        // third succeeds within the default budget of 4 attempts.
        let plan = FaultPlan { fail_first_provisions: 2, ..FaultPlan::default() };
        let mut inj = FaultInjector::new(plan);
        let tel = Telemetry::metrics_only();
        let out = c.create_circuit_with_recovery(
            "ep-a",
            "ep-b",
            4e9,
            t(0),
            t(3600),
            t(0),
            &RecoveryPolicy::default(),
            &mut inj,
            &tel,
        );
        assert_eq!(out.attempts, 3);
        assert!(matches!(out.result, CircuitResult::Established(_)));
        assert!(out.finished_at > t(0), "backoff waits must advance the clock");
        assert_eq!(tel.registry.counter("recovery_retries_total", &[]).get(), 2);
        assert_eq!(tel.registry.counter("fallback_ip_total", &[]).get(), 0);
        // The two failed attempts left nothing behind.
        let CircuitResult::Established(circuit) = &out.result else { unreachable!() };
        assert_eq!(c.open_reservations(), circuit.segments.len());
    }

    #[test]
    fn recovery_chain_emits_paired_spans() {
        use gvc_faults::{FaultInjector, FaultPlan, RecoveryPolicy};
        use gvc_telemetry::{RingSink, TraceModel};
        use std::sync::Arc;
        let mut c = controller(10e9);
        let plan = FaultPlan { fail_first_provisions: 2, ..FaultPlan::default() };
        let mut inj = FaultInjector::new(plan);
        let ring = Arc::new(RingSink::new(64));
        let tel = Telemetry::with_sink(ring.clone());
        let out = c.create_circuit_with_recovery(
            "ep-a",
            "ep-b",
            4e9,
            t(0),
            t(3600),
            t(0),
            &RecoveryPolicy::default(),
            &mut inj,
            &tel,
        );
        assert_eq!(out.attempts, 3);
        let text: String = ring
            .events()
            .iter()
            .map(gvc_telemetry::TraceEvent::to_json)
            .collect::<Vec<_>>()
            .join("\n");
        let model = TraceModel::from_text(&text).expect("parse own trace");
        let names: Vec<&str> = model.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "idc.interdomain",
                "idc.attempt",
                "idc.backoff",
                "idc.attempt",
                "idc.backoff",
                "idc.attempt"
            ]
        );
        // Every span closed, attempts/backoffs all children of the chain.
        for s in &model.spans {
            assert!(s.end_us.is_some(), "span {} never closed", s.name);
            if s.name != "idc.interdomain" {
                assert_eq!(s.parent, model.spans[0].id);
            }
        }
        let chain = &model.spans[0];
        assert_eq!(chain.end_us, Some(out.finished_at.micros() as i64));
        let backoff_total: i64 = model
            .spans
            .iter()
            .filter(|s| s.name == "idc.backoff")
            .map(|s| s.end_us.unwrap_or(0) - s.start_us)
            .sum();
        assert_eq!(
            backoff_total,
            (out.finished_at - t(0)).0,
            "backoff spans account for the whole virtual wait"
        );
    }

    #[test]
    fn recovery_exhaustion_falls_back_without_leaks() {
        use gvc_faults::{FaultInjector, FaultPlan, RecoveryPolicy};
        let mut c = controller(10e9);
        let plan = FaultPlan { fail_first_provisions: 100, ..FaultPlan::default() };
        let mut inj = FaultInjector::new(plan);
        let tel = Telemetry::metrics_only();
        let policy = RecoveryPolicy { max_retries: 2, ..RecoveryPolicy::default() };
        let out = c.create_circuit_with_recovery(
            "ep-a",
            "ep-b",
            4e9,
            t(0),
            t(3600),
            t(0),
            &policy,
            &mut inj,
            &tel,
        );
        assert_eq!(out.attempts, 3);
        assert!(matches!(out.result, CircuitResult::FellBack(_)));
        assert_eq!(tel.registry.counter("fallback_ip_total", &[]).get(), 1);
        assert_eq!(c.open_reservations(), 0, "failed attempts leaked reservations");

        // Same plan with fallback disabled: abandoned instead.
        let mut inj2 =
            FaultInjector::new(FaultPlan { fail_first_provisions: 100, ..FaultPlan::default() });
        let strict = RecoveryPolicy { fallback_to_ip: false, ..policy };
        let out2 = c.create_circuit_with_recovery(
            "ep-a",
            "ep-b",
            4e9,
            t(0),
            t(3600),
            t(0),
            &strict,
            &mut inj2,
            &tel,
        );
        assert!(matches!(out2.result, CircuitResult::Abandoned(_)));
        assert_eq!(c.open_reservations(), 0);
    }

    #[test]
    fn teardown_releases_all_domains() {
        let mut c = controller(10e9);
        let circuit =
            c.create_circuit("ep-a", "ep-b", 10e9, t(0), t(3600), t(0)).expect("admitted");
        // Links full: a second circuit blocks.
        assert!(c.create_circuit("ep-a", "ep-b", 1e9, t(0), t(3600), t(0)).is_err());
        c.teardown(&circuit, t(10));
        // Remaining window free again.
        assert!(c.create_circuit("ep-a", "ep-b", 10e9, t(10), t(3600), t(10)).is_ok());
    }

    #[test]
    fn stats_accumulate_per_domain() {
        let mut c = controller(10e9);
        let _ = c.create_circuit("ep-a", "ep-b", 4e9, t(0), t(3600), t(0));
        assert_eq!(c.domains()[0].idc.stats().admitted, 1);
        assert_eq!(c.domains()[1].idc.stats().admitted, 1);
        assert_eq!(c.domains()[2].idc.stats().requests, 0);
    }
}
