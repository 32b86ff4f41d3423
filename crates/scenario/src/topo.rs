//! Builds runnable topologies out of [`TopologySpec`]s.
//!
//! Every build returns one flat [`Graph`] the driver and net sim run
//! over, plus the resolved cluster attachment nodes. Chain topologies
//! additionally yield per-domain [`Domain`]s so the runner can probe
//! the interdomain controller over the same network.

use std::collections::{BTreeMap, HashMap};

use gvc_faults::FaultPlan;
use gvc_oscars::{Domain, Idc, SetupDelayModel};
use gvc_topology::{study_topology, Graph, NodeId, NodeKind, Site};

use crate::spec::{AttachSpec, ScenarioSpec, TopologySpec};
use crate::ScenarioError;

/// A spec's topology, resolved and ready to simulate.
pub struct BuiltTopology {
    /// The flat graph the driver runs over.
    pub graph: Graph,
    /// Cluster name → attachment node.
    pub attach: BTreeMap<String, NodeId>,
    /// Chain topologies: per-domain IDC views for the interdomain
    /// probe (`src-dtn` lives in the first domain, `dst-dtn` in the
    /// last).
    pub chain_domains: Vec<Domain>,
    /// The spec's fault plan, its flap links checked against `graph`.
    pub faults: Option<FaultPlan>,
}

fn run_err<T>(message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Run(message.into()))
}

fn site_from_name(name: &str) -> Option<Site> {
    Site::ALL.into_iter().find(|s| s.name() == name)
}

/// Hub node name within the flat chain graph.
fn hub_name(domain: u32, hub: u32) -> String {
    format!("d{domain}-h{hub}")
}

/// Resolves a spec's topology, cluster attachments and fault plan. A
/// flap on a link the topology lacks is refused here, before the run.
pub fn build(spec: &ScenarioSpec) -> Result<BuiltTopology, ScenarioError> {
    let (graph, chain_domains) = match &spec.topology {
        TopologySpec::Study => (study_topology().graph, Vec::new()),
        TopologySpec::Graph { nodes, links } => {
            let mut g = Graph::new();
            for n in nodes {
                let kind = if n.host { NodeKind::Host } else { NodeKind::Router };
                g.add_node(&n.name, kind);
            }
            for l in links {
                let (Some(a), Some(b)) = (g.node_by_name(&l.from), g.node_by_name(&l.to)) else {
                    return run_err(format!("link {} -> {} references unknown node", l.from, l.to));
                };
                g.add_duplex_link(a, b, l.gbps * 1e9, l.delay_ms / 1e3);
            }
            (g, Vec::new())
        }
        TopologySpec::Chain { domains, hubs_per_domain, link_gbps, hop_delay_ms } => {
            build_chain(*domains, *hubs_per_domain, *link_gbps, *hop_delay_ms)
        }
    };

    let mut attach = BTreeMap::new();
    for c in &spec.clusters {
        let node = match &c.attach {
            AttachSpec::Site(site) => match site_from_name(site) {
                Some(s) => study_topology().dtn(s),
                None => {
                    let names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
                    return run_err(format!(
                        "cluster {:?}: unknown site {site:?} (want one of {})",
                        c.name,
                        names.join("|")
                    ));
                }
            },
            AttachSpec::Node(name) => match graph.node_by_name(name) {
                Some(n) => n,
                None => {
                    return run_err(format!(
                        "cluster {:?}: node {name:?} not present in topology",
                        c.name
                    ))
                }
            },
        };
        if attach.values().any(|&n| n == node) {
            return run_err(format!("cluster {:?} shares an attachment node", c.name));
        }
        attach.insert(c.name.clone(), node);
    }
    let faults = spec
        .fault_plan
        .as_deref()
        .map(|plan| {
            FaultPlan::parse(plan).and_then(|p| {
                p.check_flap_links(|s, d| graph.link_by_names(s, d).is_some()).map(|()| p)
            })
        })
        .transpose()
        .map_err(|e| ScenarioError::Run(format!("fault plan: {e}")))?;
    Ok(BuiltTopology { graph, attach, chain_domains, faults })
}

/// The flat chain graph plus per-domain IDC views.
///
/// Layout: `src-dtn — d0-h0 — … — d0-hK — d1-h0 — … — dN-hK — dst-dtn`.
/// Gateway label `gw<i>` joins domain `i` to `i+1`; in both domains it
/// maps to the hub on their shared link.
fn build_chain(
    domains: u32,
    hubs_per_domain: u32,
    link_gbps: f64,
    hop_delay_ms: f64,
) -> (Graph, Vec<Domain>) {
    let bps = link_gbps * 1e9;
    let delay_s = hop_delay_ms / 1e3;

    // Flat graph for the driver/net sim.
    let mut g = Graph::new();
    let src = g.add_node("src-dtn", NodeKind::Host);
    let mut prev: Option<NodeId> = None;
    let mut last = src;
    for d in 0..domains {
        for h in 0..hubs_per_domain {
            let n = g.add_node(&hub_name(d, h), NodeKind::Router);
            if let Some(p) = prev {
                g.add_duplex_link(p, n, bps, delay_s);
            }
            prev = Some(n);
            last = n;
        }
    }
    g.add_duplex_link(src, g.node_by_name(&hub_name(0, 0)).unwrap_or(last), bps, delay_s);
    let dst = g.add_node("dst-dtn", NodeKind::Host);
    g.add_duplex_link(last, dst, bps, delay_s);

    // Per-domain graphs: each domain owns its hubs; the first also
    // owns `src-dtn`, the last `dst-dtn`. A neighbour link's far hub
    // is mirrored into both domains under the shared gateway label.
    let mut parts = Vec::new();
    for d in 0..domains {
        let mut dg = Graph::new();
        let mut gateways = HashMap::new();
        let mut endpoints = HashMap::new();
        let mut dprev: Option<NodeId> = None;
        let mut first = None;
        let mut dlast = None;
        for h in 0..hubs_per_domain {
            let n = dg.add_node(&hub_name(d, h), NodeKind::Router);
            if let Some(p) = dprev {
                dg.add_duplex_link(p, n, bps, delay_s);
            }
            dprev = Some(n);
            if first.is_none() {
                first = Some(n);
            }
            dlast = Some(n);
        }
        let (Some(first), Some(dlast)) = (first, dlast) else {
            continue;
        };
        if d == 0 {
            let s = dg.add_node("src-dtn", NodeKind::Host);
            dg.add_duplex_link(s, first, bps, delay_s);
            endpoints.insert("src-dtn".to_string(), s);
        } else {
            gateways.insert(format!("gw{}", d - 1), first);
        }
        if d + 1 == domains {
            let t = dg.add_node("dst-dtn", NodeKind::Host);
            dg.add_duplex_link(dlast, t, bps, delay_s);
            endpoints.insert("dst-dtn".to_string(), t);
        } else {
            gateways.insert(format!("gw{d}"), dlast);
        }
        parts.push(Domain {
            name: format!("domain{d}"),
            idc: Idc::new(dg, SetupDelayModel::one_minute()),
            gateways,
            endpoints,
        });
    }
    (g, parts)
}
