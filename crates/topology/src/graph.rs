//! Nodes, directed links, and the graph container.

use std::collections::HashMap;
use std::fmt;

/// Index of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a directed link in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What a node is; hosts terminate transfers, routers only forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A data-transfer node (GridFTP server machine).
    Host,
    /// A backbone or provider-edge router.
    Router,
}

/// A vertex in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name, unique within a graph (e.g. `"nersc-dtn"`).
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
}

/// A directed edge with transmission characteristics. The reverse
/// direction of a physical fiber is a separate `Link`.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate in bits per second (10 Gbps backbone links in the
    /// study).
    pub capacity_bps: f64,
    /// One-way propagation delay in seconds.
    pub delay_s: f64,
}

/// A directed multigraph of nodes and links with name lookup.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_name: HashMap<String, NodeId>,
    /// Outgoing link ids per node, in insertion order.
    out_links: Vec<Vec<LinkId>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Adds a node; names must be unique.
    ///
    /// # Panics
    /// Panics on a duplicate name.
    pub fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        assert!(!self.by_name.contains_key(name), "duplicate node name {name:?}");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name: name.to_owned(), kind });
        self.by_name.insert(name.to_owned(), id);
        self.out_links.push(Vec::new());
        id
    }

    /// Adds one directed link.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, non-positive capacity, or
    /// negative delay.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: f64,
        delay_s: f64,
    ) -> LinkId {
        assert!((src.0 as usize) < self.nodes.len(), "bad src node");
        assert!((dst.0 as usize) < self.nodes.len(), "bad dst node");
        assert!(capacity_bps > 0.0, "link capacity must be positive");
        assert!(delay_s >= 0.0, "link delay must be non-negative");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { src, dst, capacity_bps, delay_s });
        self.out_links[src.0 as usize].push(id);
        id
    }

    /// Adds both directions of a physical link; returns
    /// `(src→dst, dst→src)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        delay_s: f64,
    ) -> (LinkId, LinkId) {
        (self.add_link(a, b, capacity_bps, delay_s), self.add_link(b, a, capacity_bps, delay_s))
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Directed link count.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node data.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link data.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// All links, indexable by `LinkId.0`.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All nodes, indexable by `NodeId.0`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Outgoing links of `node`.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.0 as usize]
    }

    /// Looks up a directed link by its endpoint names (`src`, `dst`).
    pub fn link_by_names(&self, src: &str, dst: &str) -> Option<LinkId> {
        let s = self.node_by_name(src)?;
        let d = self.node_by_name(dst)?;
        self.out_links(s).iter().copied().find(|&l| self.link(l).dst == d)
    }

    /// Overrides the capacity of one link (fault injection: link
    /// flaps and restoration). Unlike [`Graph::add_link`], a zero
    /// capacity is allowed here — it models a hard outage.
    ///
    /// Returns `false` (leaving the graph untouched) on an unknown
    /// link id or an invalid capacity.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity_bps: f64) -> bool {
        let valid = capacity_bps.is_finite() && capacity_bps >= 0.0;
        match self.links.get_mut(id.0 as usize) {
            Some(link) if valid => {
                link.capacity_bps = capacity_bps;
                true
            }
            _ => false,
        }
    }

    /// The reverse link of `id` (same endpoints swapped), if one
    /// exists. For duplex links this finds the paired direction.
    pub fn reverse_of(&self, id: LinkId) -> Option<LinkId> {
        let l = self.link(id);
        self.out_links(l.dst).iter().copied().find(|&cand| self.link(cand).dst == l.src)
    }

    /// Iterator over `(NodeId, &Node)`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_nodes() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Router);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node_by_name("a"), Some(a));
        assert_eq!(g.node_by_name("b"), Some(b));
        assert_eq!(g.node_by_name("zzz"), None);
        assert_eq!(g.node(a).kind, NodeKind::Host);
        assert_eq!(g.node(b).kind, NodeKind::Router);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_name_panics() {
        let mut g = Graph::new();
        g.add_node("x", NodeKind::Host);
        g.add_node("x", NodeKind::Host);
    }

    #[test]
    fn directed_links_and_adjacency() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let l = g.add_link(a, b, 1e10, 0.01);
        assert_eq!(g.link_count(), 1);
        assert_eq!(g.out_links(a), &[l]);
        assert!(g.out_links(b).is_empty());
        let lk = g.link(l);
        assert_eq!(lk.src, a);
        assert_eq!(lk.dst, b);
    }

    #[test]
    fn duplex_creates_both_directions() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let (f, r) = g.add_duplex_link(a, b, 1e10, 0.02);
        assert_eq!(g.reverse_of(f), Some(r));
        assert_eq!(g.reverse_of(r), Some(f));
        assert_eq!(g.link(r).src, b);
    }

    #[test]
    fn reverse_of_missing_is_none() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let l = g.add_link(a, b, 1e9, 0.0);
        assert_eq!(g.reverse_of(l), None);
    }

    #[test]
    fn set_link_capacity_overrides_and_validates() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let l = g.add_link(a, b, 1e10, 0.01);
        assert!(g.set_link_capacity(l, 1e9));
        assert_eq!(g.link(l).capacity_bps, 1e9);
        // Zero allowed (outage), negatives and NaN rejected.
        assert!(g.set_link_capacity(l, 0.0));
        assert!(!g.set_link_capacity(l, -1.0));
        assert!(!g.set_link_capacity(l, f64::NAN));
        assert!(!g.set_link_capacity(LinkId(7), 1e9));
        assert_eq!(g.link(l).capacity_bps, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        g.add_link(a, b, 0.0, 0.0);
    }
}
