//! Process-to-node topology.
//!
//! The paper's instances are `(#nodes n, processes-per-node N)` with the
//! same `N` on every node (the SLURM default the paper restricts itself
//! to). Ranks are laid out **block-wise**: ranks `0..N` on node 0, `N..2N`
//! on node 1, and so on — matching `mpirun --map-by node` defaults used by
//! the paper's benchmarks.

/// A process rank (0-based, dense).
pub type Rank = u32;

/// A compute-node index.
pub type NodeId = u32;

/// Block-wise rank-to-node mapping for `nodes × ppn` processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    nodes: u32,
    ppn: u32,
}

impl Topology {
    /// Create a topology with `nodes` compute nodes and `ppn` processes per
    /// node.
    ///
    /// # Panics
    /// Panics if either dimension is zero (an empty communicator is not a
    /// meaningful instance).
    pub fn new(nodes: u32, ppn: u32) -> Self {
        assert!(nodes > 0 && ppn > 0, "topology dimensions must be nonzero");
        Topology { nodes, ppn }
    }

    /// Number of compute nodes `n`.
    #[inline]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Processes per node `N` (a.k.a. ppn).
    #[inline]
    pub fn ppn(&self) -> u32 {
        self.ppn
    }

    /// Total number of processes `p = n · N`.
    #[inline]
    pub fn size(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// Node that hosts `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> NodeId {
        debug_assert!(rank < self.size());
        rank / self.ppn
    }

    /// Whether two ranks share a compute node (and thus communicate over
    /// shared memory rather than the interconnect).
    #[inline]
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Local index of `rank` on its node (`0..ppn`).
    #[inline]
    pub fn local_index(&self, rank: Rank) -> u32 {
        rank % self.ppn
    }

    /// First rank hosted on `node`.
    #[inline]
    pub fn first_rank_on(&self, node: NodeId) -> Rank {
        debug_assert!(node < self.nodes);
        node * self.ppn
    }

    /// Iterator over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        0..self.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let t = Topology::new(3, 4);
        assert_eq!(t.size(), 12);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(11), 2);
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
        assert_eq!(t.local_index(5), 1);
        assert_eq!(t.first_rank_on(2), 8);
    }

    #[test]
    fn single_process() {
        let t = Topology::new(1, 1);
        assert_eq!(t.size(), 1);
        assert_eq!(t.node_of(0), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_nodes_panics() {
        let _ = Topology::new(0, 4);
    }

    #[test]
    fn ranks_iterator_is_dense() {
        let t = Topology::new(2, 2);
        let ranks: Vec<Rank> = t.ranks().collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }
}
