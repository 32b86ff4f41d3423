//! The ESnet-like study topology.
//!
//! Builds a single wide-area graph hosting all four measured paths:
//!
//! * NERSC–ORNL — traverses 7 routers on the ESnet portion (two
//!   provider-edge routers located inside the NERSC/ORNL campuses plus
//!   five backbone hubs), matching §VII-C's footnote that SNMP data was
//!   available for 5 of the 7;
//! * SLAC–BNL — dimensioned for an 80 ms RTT, the paper's BDP example;
//! * NCAR–NICS — the "shorter" path (highest observed throughput,
//!   4.3 Gbps);
//! * NERSC–ANL — the test-transfer path of §VI-B/§VII-D.
//!
//! All backbone and access links are 10 Gbps, as in the study.

use crate::graph::{Graph, LinkId, NodeId, NodeKind};
use crate::path::Path;

/// 10 Gbps in bits per second.
pub const TEN_GBPS: f64 = 10e9;

/// The facilities in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// National Energy Research Scientific Computing Center (Berkeley).
    Nersc,
    /// Oak Ridge National Laboratory.
    Ornl,
    /// Argonne National Laboratory.
    Anl,
    /// National Center for Atmospheric Research (Boulder).
    Ncar,
    /// National Institute for Computational Sciences (Oak Ridge).
    Nics,
    /// SLAC National Accelerator Laboratory (Menlo Park).
    Slac,
    /// Brookhaven National Laboratory (Long Island).
    Bnl,
}

impl Site {
    /// All sites, in a fixed order.
    pub const ALL: [Site; 7] =
        [Site::Nersc, Site::Ornl, Site::Anl, Site::Ncar, Site::Nics, Site::Slac, Site::Bnl];

    /// Lower-case short name (used as node-name prefix).
    pub fn name(self) -> &'static str {
        match self {
            Site::Nersc => "nersc",
            Site::Ornl => "ornl",
            Site::Anl => "anl",
            Site::Ncar => "ncar",
            Site::Nics => "nics",
            Site::Slac => "slac",
            Site::Bnl => "bnl",
        }
    }
}

/// The built topology with site lookups.
#[derive(Debug, Clone)]
pub struct StudyTopology {
    /// The underlying graph.
    pub graph: Graph,
    dtns: [NodeId; 7],
}

impl StudyTopology {
    /// Data-transfer node of `site`.
    pub fn dtn(&self, site: Site) -> NodeId {
        // `dtns` is built in `Site::ALL` order, which matches the
        // declaration order of the fieldless enum.
        self.dtns[site as usize]
    }

    /// IP-routed path between two sites' DTNs.
    #[expect(clippy::expect_used, reason = "connected by construction")]
    pub fn path(&self, from: Site, to: Site) -> Path {
        // study_topology() wires every campus onto the backbone and
        // `dtns` is private, so all site pairs stay connected.
        crate::dijkstra::shortest_path(&self.graph, self.dtn(from), self.dtn(to))
            .expect("study topology is connected")
    }

    /// The five SNMP-monitored egress interfaces (rt1…rt5) along the
    /// `from → to` direction of the NERSC–ORNL path. The paper had
    /// SNMP for 5 of the 7 routers; we model that by monitoring the
    /// five backbone-hub egresses and leaving the two provider-edge
    /// routers unmonitored.
    pub fn nersc_ornl_snmp_links(&self, from: Site, to: Site) -> Vec<LinkId> {
        assert!(
            matches!((from, to), (Site::Nersc, Site::Ornl) | (Site::Ornl, Site::Nersc)),
            "SNMP link set is defined for the NERSC-ORNL path"
        );
        let p = self.path(from, to);
        // The ESnet portion crosses 7 routers (two provider-edge, five
        // backbone hubs); SNMP was available for the five hubs. Campus
        // switches (`-sw`) are not ESnet equipment.
        let esnet: Vec<NodeId> = p
            .interior_nodes(&self.graph)
            .into_iter()
            .filter(|&n| {
                let name = &self.graph.node(n).name;
                name.ends_with("-pe") || name.ends_with("-cr")
            })
            .collect();
        assert_eq!(esnet.len(), 7, "NERSC-ORNL ESnet portion must cross 7 routers");
        let monitored: Vec<NodeId> =
            esnet.iter().copied().filter(|&n| self.graph.node(n).name.ends_with("-cr")).collect();
        assert_eq!(monitored.len(), 5);
        p.links.iter().copied().filter(|&l| monitored.contains(&self.graph.link(l).src)).collect()
    }

    /// The campus-internal egress links of `site` in the outbound
    /// (DTN → WAN) direction: `dtn → sw` and `sw → pe`. These are the
    /// links §VIII's future work proposes to measure.
    pub fn campus_links_outbound(&self, site: Site) -> Vec<LinkId> {
        let dtn = self.dtn(site);
        let campus = (
            self.graph.node_by_name(&format!("{}-sw", site.name())),
            self.graph.node_by_name(&format!("{}-pe", site.name())),
        );
        let (Some(sw), Some(pe)) = campus else {
            return Vec::new();
        };
        let find = |src: NodeId, dst: NodeId| -> Option<LinkId> {
            self.graph.out_links(src).iter().copied().find(|&l| self.graph.link(l).dst == dst)
        };
        [find(dtn, sw), find(sw, pe)].into_iter().flatten().collect()
    }

    /// The campus-internal ingress links of `site` (WAN → DTN).
    pub fn campus_links_inbound(&self, site: Site) -> Vec<LinkId> {
        self.campus_links_outbound(site)
            .into_iter()
            .filter_map(|l| self.graph.reverse_of(l))
            .collect()
    }
}

/// Builds the study topology.
pub fn study_topology() -> StudyTopology {
    let mut g = Graph::new();

    // Backbone hubs (delays are one-way propagation in seconds, chosen
    // so the SLAC-BNL RTT lands at the paper's 80 ms).
    let sunn = g.add_node("sunn-cr", NodeKind::Router);
    let denv = g.add_node("denv-cr", NodeKind::Router);
    let kans = g.add_node("kans-cr", NodeKind::Router);
    let chic = g.add_node("chic-cr", NodeKind::Router);
    let nash = g.add_node("nash-cr", NodeKind::Router);
    let aofa = g.add_node("aofa-cr", NodeKind::Router);

    g.add_duplex_link(sunn, denv, TEN_GBPS, 0.014);
    g.add_duplex_link(denv, kans, TEN_GBPS, 0.006);
    g.add_duplex_link(kans, chic, TEN_GBPS, 0.006);
    g.add_duplex_link(chic, nash, TEN_GBPS, 0.006);
    g.add_duplex_link(chic, aofa, TEN_GBPS, 0.011);

    // Provider-edge routers (ESnet equipment inside the campuses) and
    // the DTNs behind them.
    // One entry per site, in `Site::ALL` order (what `dtn()` relies on).
    let mut dtns = [NodeId(0); 7];
    let pe_attach = [
        (Site::Nersc, sunn, 0.001),
        (Site::Ornl, nash, 0.002),
        (Site::Anl, chic, 0.001),
        (Site::Ncar, denv, 0.001),
        (Site::Nics, nash, 0.002),
        (Site::Slac, sunn, 0.001),
        (Site::Bnl, aofa, 0.002),
    ];
    for (slot, &(site, hub, delay)) in dtns.iter_mut().zip(&pe_attach) {
        let pe = g.add_node(&format!("{}-pe", site.name()), NodeKind::Router);
        // Campus-internal switch between the DTN and the provider
        // edge: the paper's §VIII future work is measuring loads on
        // these campus links, which are NOT part of ESnet.
        let sw = g.add_node(&format!("{}-sw", site.name()), NodeKind::Router);
        let dtn = g.add_node(&format!("{}-dtn", site.name()), NodeKind::Host);
        g.add_duplex_link(pe, hub, TEN_GBPS, delay);
        g.add_duplex_link(sw, pe, TEN_GBPS, 0.00005);
        g.add_duplex_link(dtn, sw, TEN_GBPS, 0.00005);
        *slot = dtn;
    }

    StudyTopology { graph: g, dtns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_resolvable_and_connected() {
        let t = study_topology();
        for &a in &Site::ALL {
            for &b in &Site::ALL {
                if a != b {
                    let p = t.path(a, b);
                    assert!(p.hops() >= 2, "{a:?}->{b:?}");
                }
            }
        }
    }

    #[test]
    fn slac_bnl_rtt_is_80ms() {
        let t = study_topology();
        let p = t.path(Site::Slac, Site::Bnl);
        let rtt_ms = p.rtt_s(&t.graph) * 1e3;
        assert!((rtt_ms - 80.0).abs() < 2.0, "RTT {rtt_ms} ms");
    }

    #[test]
    fn ncar_nics_shorter_than_slac_bnl() {
        let t = study_topology();
        let ncar = t.path(Site::Ncar, Site::Nics).rtt_s(&t.graph);
        let slac = t.path(Site::Slac, Site::Bnl).rtt_s(&t.graph);
        assert!(ncar < slac);
    }

    #[test]
    fn nersc_ornl_crosses_seven_esnet_routers() {
        let t = study_topology();
        let p = t.path(Site::Nersc, Site::Ornl);
        let esnet = p
            .interior_nodes(&t.graph)
            .into_iter()
            .filter(|&n| {
                let name = &t.graph.node(n).name;
                name.ends_with("-pe") || name.ends_with("-cr")
            })
            .count();
        assert_eq!(esnet, 7);
        // Plus two campus switches at the ends.
        assert_eq!(p.interior_nodes(&t.graph).len(), 9);
    }

    #[test]
    fn campus_links_bracket_the_dtn() {
        let t = study_topology();
        let out = t.campus_links_outbound(Site::Nersc);
        assert_eq!(out.len(), 2);
        assert_eq!(t.graph.node(t.graph.link(out[0]).src).name, "nersc-dtn");
        assert_eq!(t.graph.node(t.graph.link(out[1]).dst).name, "nersc-pe");
        let inb = t.campus_links_inbound(Site::Nersc);
        assert_eq!(inb.len(), 2);
        assert_eq!(t.graph.node(t.graph.link(inb[0]).dst).name, "nersc-dtn");
    }

    #[test]
    fn five_snmp_monitored_interfaces() {
        let t = study_topology();
        let fwd = t.nersc_ornl_snmp_links(Site::Nersc, Site::Ornl);
        let rev = t.nersc_ornl_snmp_links(Site::Ornl, Site::Nersc);
        assert_eq!(fwd.len(), 5);
        assert_eq!(rev.len(), 5);
        assert_ne!(fwd, rev);
        // Monitored interfaces are backbone egresses on the path.
        let p = t.path(Site::Nersc, Site::Ornl);
        for l in fwd {
            assert!(p.links.contains(&l));
        }
    }

    #[test]
    #[should_panic(expected = "SNMP link set")]
    fn snmp_links_other_path_panics() {
        let t = study_topology();
        let _ = t.nersc_ornl_snmp_links(Site::Slac, Site::Bnl);
    }

    #[test]
    fn bottleneck_is_10g_everywhere() {
        let t = study_topology();
        let p = t.path(Site::Nersc, Site::Anl);
        assert!((p.bottleneck_bps(&t.graph) - TEN_GBPS).abs() < 1.0);
    }

    #[test]
    fn paths_are_symmetric_in_delay() {
        let t = study_topology();
        let fwd = t.path(Site::Nersc, Site::Ornl).one_way_delay_s(&t.graph);
        let rev = t.path(Site::Ornl, Site::Nersc).one_way_delay_s(&t.graph);
        assert!((fwd - rev).abs() < 1e-12);
    }
}
