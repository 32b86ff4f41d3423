//! End-to-end paths through the graph.

use crate::graph::{Graph, LinkId, NodeId};

/// A directed path: an ordered sequence of link ids from `src` to
/// `dst`. Invariant: consecutive links share endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Origin node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Links traversed, in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Builds a path, validating link continuity against `graph`.
    ///
    /// # Panics
    /// Panics when the link chain does not run `src → … → dst`.
    pub fn new(graph: &Graph, src: NodeId, dst: NodeId, links: Vec<LinkId>) -> Path {
        let mut at = src;
        for &l in &links {
            let lk = graph.link(l);
            assert_eq!(lk.src, at, "path discontinuity at {l}");
            at = lk.dst;
        }
        assert_eq!(at, dst, "path does not end at dst");
        Path { src, dst, links }
    }

    /// Hop count.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// One-way propagation delay (seconds).
    pub fn one_way_delay_s(&self, graph: &Graph) -> f64 {
        self.links.iter().map(|&l| graph.link(l).delay_s).sum()
    }

    /// Round-trip time (seconds), assuming a symmetric reverse path —
    /// the quantity in the paper's BDP calculation (10 Gbps × 80 ms for
    /// SLAC–BNL).
    pub fn rtt_s(&self, graph: &Graph) -> f64 {
        2.0 * self.one_way_delay_s(graph)
    }

    /// Minimum link capacity along the path (bits/second): the
    /// bottleneck line rate.
    pub fn bottleneck_bps(&self, graph: &Graph) -> f64 {
        self.links.iter().map(|&l| graph.link(l).capacity_bps).fold(f64::INFINITY, f64::min)
    }

    /// Interior nodes visited (excluding `src`, including every router
    /// between the endpoints, excluding `dst`).
    pub fn interior_nodes(&self, graph: &Graph) -> Vec<NodeId> {
        self.links.iter().map(|&l| graph.link(l).dst).filter(|&n| n != self.dst).collect()
    }

    /// Renders the path as `a -> b -> c` using node names.
    pub fn describe(&self, graph: &Graph) -> String {
        let mut s = graph.node(self.src).name.clone();
        for &l in &self.links {
            s.push_str(" -> ");
            s.push_str(&graph.node(graph.link(l).dst).name);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn line3() -> (Graph, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Router);
        let c = g.add_node("c", NodeKind::Host);
        let l1 = g.add_link(a, b, 10e9, 0.010);
        let l2 = g.add_link(b, c, 1e9, 0.030);
        (g, a, b, c, l1, l2)
    }

    #[test]
    fn valid_path_metrics() {
        let (g, a, b, c, l1, l2) = line3();
        let p = Path::new(&g, a, c, vec![l1, l2]);
        assert_eq!(p.hops(), 2);
        assert!((p.one_way_delay_s(&g) - 0.040).abs() < 1e-12);
        assert!((p.rtt_s(&g) - 0.080).abs() < 1e-12);
        assert!((p.bottleneck_bps(&g) - 1e9).abs() < 1.0);
        assert_eq!(p.interior_nodes(&g), vec![b]);
        assert_eq!(p.describe(&g), "a -> b -> c");
    }

    #[test]
    #[should_panic(expected = "path discontinuity")]
    fn discontinuous_path_panics() {
        let (g, a, _, c, _, l2) = line3();
        let _ = Path::new(&g, a, c, vec![l2]);
    }

    #[test]
    #[should_panic(expected = "does not end at dst")]
    fn wrong_endpoint_panics() {
        let (g, a, b, _c, l1, _) = line3();
        let _ = Path::new(&g, a, b, vec![l1]);
        let (g2, a2, _, c2, l12, _) = line3();
        let _ = Path::new(&g2, a2, c2, vec![l12]);
    }

    #[test]
    fn empty_path_same_node() {
        let (g, a, ..) = line3();
        let p = Path::new(&g, a, a, vec![]);
        assert_eq!(p.hops(), 0);
        assert_eq!(p.bottleneck_bps(&g), f64::INFINITY);
    }

    #[test]
    fn slac_bnl_bdp_matches_paper() {
        // BDP for 10 Gbps x 80 ms RTT is ~95.4 MB (paper §VI-B,
        // 1 MB = 2^20 bytes).
        let mut g = Graph::new();
        let s = g.add_node("slac", NodeKind::Host);
        let b = g.add_node("bnl", NodeKind::Host);
        let l = g.add_link(s, b, 10e9, 0.040);
        let p = Path::new(&g, s, b, vec![l]);
        let bdp_bytes = p.bottleneck_bps(&g) * p.rtt_s(&g) / 8.0;
        let bdp_mib = bdp_bytes / (1 << 20) as f64;
        assert!((bdp_mib - 95.367).abs() < 0.01, "got {bdp_mib}");
    }
}
