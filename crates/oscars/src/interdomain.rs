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
use gvc_engine::SimTime;
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

    /// Total reservations still open across every domain (a leak
    /// check: a blocked request must leave none behind).
    pub fn open_reservations(&self) -> usize {
        self.domains.iter().map(|d| d.idc.open_reservations()).sum()
    }
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
