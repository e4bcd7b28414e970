//! Cluster topology: how world ranks map onto simulated compute nodes.

/// A homogeneous cluster of `nodes` compute nodes with `ranks_per_node`
/// MPI processes each, mapped block-wise (ranks `0..k` on node 0, `k..2k`
/// on node 1, ...), matching the default block mapping of `mpirun`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of compute nodes.
    pub nodes: u32,
    /// Ranks (processes) per node.
    pub ranks_per_node: u32,
}

impl Topology {
    /// A cluster of `nodes` x `ranks_per_node`.
    pub fn new(nodes: u32, ranks_per_node: u32) -> Self {
        assert!(nodes > 0 && ranks_per_node > 0, "topology must be non-empty");
        Self { nodes, ranks_per_node }
    }

    /// A single shared-memory machine with `ranks` processes.
    pub fn single_node(ranks: u32) -> Self {
        Self::new(1, ranks)
    }

    /// Total number of ranks in the world communicator.
    pub fn world_size(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    /// The node a world rank lives on.
    pub fn node_of(&self, world_rank: u32) -> u32 {
        world_rank / self.ranks_per_node
    }

    /// The rank's index within its node (0-based).
    pub fn local_rank_of(&self, world_rank: u32) -> u32 {
        world_rank % self.ranks_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let t = Topology::new(4, 4);
        assert_eq!(t.world_size(), 16);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(15), 3);
        assert_eq!(t.local_rank_of(5), 1);
        assert_eq!((8..12).map(|r| t.node_of(r)).collect::<Vec<_>>(), vec![2; 4]);
    }

    #[test]
    fn same_node_predicate() {
        let t = Topology::new(2, 3);
        assert_eq!(t.node_of(0), t.node_of(2));
        assert_ne!(t.node_of(2), t.node_of(3));
    }

    #[test]
    fn single_node_helper() {
        let t = Topology::single_node(8);
        assert_eq!(t.nodes, 1);
        assert_eq!(t.world_size(), 8);
        assert_eq!(t.node_of(0), t.node_of(7));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_nodes_rejected() {
        Topology::new(0, 4);
    }
}
