//! GridFTP server clusters as fair-share resources.
//!
//! A site's GridFTP service is a cluster of `n_servers` identical
//! data-transfer nodes (the NCAR `frost` cluster had 3 in 2009, mostly
//! 2 in 2010 and 1 in 2011 — the paper's Table VIII driver). Each
//! node contributes NIC bandwidth, disk read/write bandwidth, and an
//! aggregate per-node transfer capacity `R` (the constant in Eq. 2:
//! "a theoretical maximum aggregated throughput that a server can
//! support across all concurrent transfers"). Cluster-wide capacities
//! are registered as [`gvc_net`] resources so every concurrent
//! transfer touching the cluster competes in the max-min solver.

use gvc_net::{NetworkSim, ResourceId};
use gvc_topology::NodeId;
use std::sync::Arc;

/// Per-server capacities, bits per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCaps {
    /// NIC line rate.
    pub nic_bps: f64,
    /// Disk-array read bandwidth.
    pub disk_read_bps: f64,
    /// Disk-array write bandwidth.
    pub disk_write_bps: f64,
    /// Aggregate transfer capacity per node (Eq. 2's `R`): the most a
    /// node can push across all its concurrent transfers, limited by
    /// CPU, memory bus and kernel overheads.
    pub node_cap_bps: f64,
    /// Effective per-transfer streaming rate of a *disk* endpoint:
    /// what one client actually gets from the file system (seek
    /// patterns, per-client throttles, shared-FS contention) — often
    /// far below the array's aggregate bandwidth. `INFINITY` disables
    /// the cap. The SLAC–BNL production arrays sat near 250 Mbps per
    /// transfer, which is why the paper's Fig. 4 medians tie at
    /// ~200 Mbps for large files in both stream groups.
    pub disk_stream_bps: f64,
}

impl Default for ServerCaps {
    fn default() -> ServerCaps {
        ServerCaps {
            nic_bps: 10e9,
            // The paper's Fig. 1 shows NERSC disk writes bottlenecking
            // below memory endpoints; high-end DTN disk arrays of the
            // era moved ~2-3 Gbps reads, a bit less on writes.
            disk_read_bps: 2.8e9,
            disk_write_bps: 2.2e9,
            // Eq. 2's R was estimated at 2.19 Gbps (90th pct at NERSC).
            node_cap_bps: 2.4e9,
            disk_stream_bps: f64::INFINITY,
        }
    }
}

/// A site's GridFTP cluster registered with the simulator.
#[derive(Debug, Clone)]
pub struct ServerCluster {
    /// Server domain name as it appears in usage logs; each logged
    /// record shares it.
    pub name: Arc<str>,
    /// The topology node terminating this cluster's transfers.
    pub node: NodeId,
    /// Per-server capacities.
    pub caps: ServerCaps,
    n_servers: u32,
    agg: ResourceId,
    disk_read: ResourceId,
    disk_write: ResourceId,
}

impl ServerCluster {
    /// Registers a cluster of `n_servers` nodes with the simulator.
    ///
    /// # Panics
    /// Panics when `n_servers == 0`.
    pub fn register(
        sim: &mut NetworkSim,
        name: &str,
        node: NodeId,
        caps: ServerCaps,
        n_servers: u32,
    ) -> ServerCluster {
        assert!(n_servers > 0, "a cluster needs at least one server");
        let n = f64::from(n_servers);
        let agg = sim.add_resource(caps.node_cap_bps * n);
        let disk_read = sim.add_resource(caps.disk_read_bps * n);
        let disk_write = sim.add_resource(caps.disk_write_bps * n);
        ServerCluster { name: name.into(), node, caps, n_servers, agg, disk_read, disk_write }
    }

    /// Current server count.
    pub fn n_servers(&self) -> u32 {
        self.n_servers
    }

    /// Resizes the cluster (the frost 3 → 2 → 1 shrink), updating the
    /// registered capacities.
    ///
    /// # Panics
    /// Panics when `n_servers == 0`.
    pub fn resize(&mut self, sim: &mut NetworkSim, n_servers: u32) {
        assert!(n_servers > 0, "a cluster needs at least one server");
        self.n_servers = n_servers;
        let n = f64::from(n_servers);
        sim.set_resource_capacity(self.agg, self.caps.node_cap_bps * n);
        sim.set_resource_capacity(self.disk_read, self.caps.disk_read_bps * n);
        sim.set_resource_capacity(self.disk_write, self.caps.disk_write_bps * n);
    }

    /// The shared aggregate resource (every transfer touching the
    /// cluster crosses it).
    pub fn aggregate_resource(&self) -> ResourceId {
        self.agg
    }

    /// The shared disk-read resource (crossed when the source endpoint
    /// is disk).
    pub fn disk_read_resource(&self) -> ResourceId {
        self.disk_read
    }

    /// The shared disk-write resource (crossed when the destination
    /// endpoint is disk).
    pub fn disk_write_resource(&self) -> ResourceId {
        self.disk_write
    }

    /// The per-transfer cap contributed by this cluster when the
    /// transfer uses `stripes` stripes and reads (`as_source`) or
    /// writes from/to `disk` endpoints. A transfer cannot use more
    /// stripes than there are servers.
    pub fn per_transfer_cap_bps(&self, stripes: u32, disk: bool, as_source: bool) -> f64 {
        let k = f64::from(stripes.clamp(1, self.n_servers));
        let per_server = if disk {
            let d = if as_source { self.caps.disk_read_bps } else { self.caps.disk_write_bps };
            d.min(self.caps.node_cap_bps).min(self.caps.nic_bps).min(self.caps.disk_stream_bps)
        } else {
            self.caps.node_cap_bps.min(self.caps.nic_bps)
        };
        k * per_server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_topology::{Graph, NodeKind};

    fn sim() -> (NetworkSim, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        (NetworkSim::new(g, 0), a)
    }

    #[test]
    fn register_creates_three_resources() {
        let (mut sim, node) = sim();
        let c = ServerCluster::register(&mut sim, "dtn.example", node, ServerCaps::default(), 2);
        assert_ne!(c.aggregate_resource(), c.disk_read_resource());
        assert_ne!(c.disk_read_resource(), c.disk_write_resource());
        assert_eq!(c.n_servers(), 2);
    }

    #[test]
    fn per_transfer_cap_scales_with_stripes() {
        let (mut sim, node) = sim();
        let c = ServerCluster::register(&mut sim, "s", node, ServerCaps::default(), 3);
        let one = c.per_transfer_cap_bps(1, false, true);
        let three = c.per_transfer_cap_bps(3, false, true);
        assert!((three / one - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stripes_clamped_to_cluster_size() {
        let (mut sim, node) = sim();
        let c = ServerCluster::register(&mut sim, "s", node, ServerCaps::default(), 2);
        assert_eq!(c.per_transfer_cap_bps(8, false, true), c.per_transfer_cap_bps(2, false, true));
        assert_eq!(c.per_transfer_cap_bps(0, false, true), c.per_transfer_cap_bps(1, false, true));
    }

    #[test]
    fn disk_endpoint_caps_below_memory() {
        let (mut sim, node) = sim();
        let c = ServerCluster::register(&mut sim, "s", node, ServerCaps::default(), 1);
        let mem = c.per_transfer_cap_bps(1, false, false);
        let disk_write = c.per_transfer_cap_bps(1, true, false);
        let disk_read = c.per_transfer_cap_bps(1, true, true);
        // Fig. 1: writes bottleneck; reads keep up with memory
        // endpoints (disk-to-memory ≈ memory-to-memory medians).
        assert!(disk_write < disk_read, "writes slower than reads");
        assert!(disk_write < mem);
        assert_eq!(disk_read, mem, "reads are not the bottleneck");
    }

    #[test]
    fn resize_changes_capacity() {
        let (mut sim, node) = sim();
        let mut c = ServerCluster::register(&mut sim, "s", node, ServerCaps::default(), 3);
        c.resize(&mut sim, 1);
        assert_eq!(c.n_servers(), 1);
        assert_eq!(c.per_transfer_cap_bps(3, false, true), c.per_transfer_cap_bps(1, false, true));
    }

    #[test]
    fn resize_under_active_flows_reaches_the_solver() {
        use gvc_net::FlowSpec;
        // Two flows through the cluster's aggregate resource only. A
        // 3 → 1 resize mid-flight must leave exactly the rates of a
        // cluster registered with one server from the start.
        let rates = |sim: &mut NetworkSim, c: &ServerCluster| -> Vec<u64> {
            let spec =
                FlowSpec::best_effort(vec![], 1e12).with_resources(vec![c.aggregate_resource()]);
            let ids = [sim.add_flow(spec.clone()), sim.add_flow(spec.with_cap(0.5e9))];
            ids.iter().map(|&id| sim.flow_rate(id).map(f64::to_bits).unwrap_or_default()).collect()
        };
        let (mut live, node) = sim();
        let mut c = ServerCluster::register(&mut live, "s", node, ServerCaps::default(), 3);
        let before = rates(&mut live, &c);
        c.resize(&mut live, 1);
        let ids: Vec<_> = (0..2).map(gvc_net::FlowId).collect();
        let after: Vec<u64> = ids
            .iter()
            .map(|&id| live.flow_rate(id).map(f64::to_bits).unwrap_or_default())
            .collect();

        let (mut fresh, node) = sim();
        let one = ServerCluster::register(&mut fresh, "s", node, ServerCaps::default(), 1);
        assert_eq!(after, rates(&mut fresh, &one));
        assert_ne!(before, after);
        assert_eq!(f64::from_bits(after[0]), 2.4e9 - 0.5e9);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let (mut sim, node) = sim();
        ServerCluster::register(&mut sim, "s", node, ServerCaps::default(), 0);
    }
}
