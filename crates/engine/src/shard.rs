//! Lane partitioning for sharded (parallel) simulation.
//!
//! The kernel stays a single serial [`crate::EventQueue`] per *lane*;
//! what this module provides is the deterministic machinery for
//! splitting one simulation into independent lanes.
//! [`ResourcePartition`] is a union-find over opaque resource keys.
//! Every scheduled item (a session, a background flow, a cluster
//! resize, a link flap) declares the resources it touches; items whose
//! resource sets are transitively connected land in the same lane. Two
//! items in different lanes therefore *cannot* interact through any
//! shared resource, which is the whole determinism argument: each lane
//! is a closed simulation, and a closed simulation run on one thread
//! is bit-for-bit reproducible. The caller merges the lanes' outputs
//! back in lane order.
//!
//! Crucially the partition is *maximal* and depends only on the
//! workload, never on the shard count: `--shards N` only sizes the
//! worker pool that executes lanes. That is what makes outputs
//! byte-identical whether 1 or N workers run.

use std::collections::BTreeMap;

/// Union-find over dense indices with path compression.
///
/// Deterministic by construction: the representative of a set is
/// always the smallest index that was unioned into it first via the
/// rank-free "smaller root wins" rule below.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets `0..n`.
    pub fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n).collect() }
    }

    /// Appends one more singleton set, returning its index.
    pub fn push(&mut self) -> usize {
        let idx = self.parent.len();
        self.parent.push(idx);
        idx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The set representative of `x`, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Unions the sets of `a` and `b`; the smaller root becomes the
    /// representative, keeping representatives stable and independent
    /// of union order.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }
}

/// Builds the maximal independent-lane partition for a set of
/// scheduled items, keyed by the opaque resources each item touches.
///
/// `K` is any ordered resource key (the GridFTP driver uses an enum
/// over link ids, cluster ids, and the IDC singleton). Items that
/// share *any* key — directly or transitively through other items —
/// are placed in the same lane.
#[derive(Debug)]
pub struct ResourcePartition<K: Ord> {
    /// First item index seen for each resource key.
    owners: BTreeMap<K, usize>,
    /// Union-find over item indices.
    uf: UnionFind,
}

impl<K: Ord> Default for ResourcePartition<K> {
    fn default() -> Self {
        ResourcePartition::new()
    }
}

impl<K: Ord> ResourcePartition<K> {
    /// An empty partition.
    pub fn new() -> ResourcePartition<K> {
        ResourcePartition { owners: BTreeMap::new(), uf: UnionFind::new(0) }
    }

    /// Registers item `idx` (dense, 0-based) as touching `keys`.
    /// Items must be added with strictly increasing `idx` starting at
    /// the current item count.
    ///
    /// # Panics
    /// Panics when `idx` is out of order.
    pub fn add_item(&mut self, idx: usize, keys: impl IntoIterator<Item = K>) {
        assert_eq!(idx, self.uf.push(), "items must be added densely in order");
        for key in keys {
            // First toucher owns the key; later touchers union in.
            let owner = *self.owners.entry(key).or_insert(idx);
            if owner != idx {
                self.uf.union(owner, idx);
            }
        }
    }

    /// Resolves the partition: `lanes[k]` holds the item indices of
    /// lane `k`, each lane sorted ascending, lanes ordered by their
    /// smallest member. The result depends only on the `add_item`
    /// calls, never on worker counts or thread schedules.
    pub fn lanes(mut self) -> Vec<Vec<usize>> {
        let n = self.uf.len();
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            by_root.entry(self.uf.find(i)).or_default().push(i);
        }
        // BTreeMap iteration is ascending by root, and the root is the
        // smallest member of its lane, so lane order is canonical.
        by_root.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_smallest_root_wins() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 2);
        uf.union(2, 5);
        uf.union(1, 3);
        assert_eq!(uf.find(5), 2);
        assert_eq!(uf.find(4), 2);
        assert_eq!(uf.find(3), 1);
        assert_eq!(uf.find(0), 0);
        assert_eq!(uf.len(), 6);
        assert!(!uf.is_empty());
    }

    #[test]
    fn partition_groups_by_shared_resources() {
        let mut p = ResourcePartition::new();
        p.add_item(0, ["link-a", "link-b"]);
        p.add_item(1, ["link-c"]);
        p.add_item(2, ["link-b", "link-d"]); // joins item 0 via link-b
        p.add_item(3, ["link-e"]);
        p.add_item(4, ["link-d", "link-c"]); // bridges items 2 and 1
        assert_eq!(p.lanes(), vec![vec![0, 1, 2, 4], vec![3]]);
    }

    #[test]
    fn partition_is_independent_of_key_insertion_order() {
        let mut a = ResourcePartition::new();
        a.add_item(0, ["x", "y"]);
        a.add_item(1, ["y", "z"]);
        let mut b = ResourcePartition::new();
        b.add_item(0, ["y", "x"]);
        b.add_item(1, ["z", "y"]);
        assert_eq!(a.lanes(), b.lanes());
    }

    #[test]
    fn disjoint_items_each_get_a_lane() {
        let mut p = ResourcePartition::new();
        for i in 0..4 {
            p.add_item(i, [i]);
        }
        assert_eq!(p.lanes(), vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn empty_partition_has_no_lanes() {
        let p: ResourcePartition<u32> = ResourcePartition::new();
        assert!(p.lanes().is_empty());
    }
}
