//! Communication-problem instances and their feature encoding.

use mpcp_collectives::Collective;

/// Number of features fed to the regression models.
pub const NUM_FEATURES: usize = 4;

/// One communication problem: "run collective `F` with `m` bytes on
/// `n × N` processes" (Section II of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Instance {
    /// The collective operation.
    pub coll: Collective,
    /// Message size in bytes.
    pub msize: u64,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
}

impl Instance {
    /// Construct an instance.
    pub fn new(coll: Collective, msize: u64, nodes: u32, ppn: u32) -> Instance {
        Instance { coll, msize, nodes, ppn }
    }

    /// Total processes `p = n · N`.
    pub fn procs(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// Feature vector: `[log2(m+1), n, N, n·N]`.
    ///
    /// Message size is log-transformed (it spans 7 orders of magnitude
    /// and the paper's grids are geometric); node count and ppn stay
    /// linear so the models can resolve the paper's odd/even test split;
    /// the total process count is included as an explicit interaction.
    pub fn features(&self) -> [f64; NUM_FEATURES] {
        [
            ((self.msize + 1) as f64).log2(),
            self.nodes as f64,
            self.ppn as f64,
            self.procs() as f64,
        ]
    }
}

impl std::fmt::Display for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(m={}, {}x{})", self.coll, self.msize, self.nodes, self.ppn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_shape_and_monotonicity() {
        let a = Instance::new(Collective::Bcast, 1024, 16, 32);
        let f = a.features();
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(f[1], 16.0);
        assert_eq!(f[2], 32.0);
        assert_eq!(f[3], 512.0);
        let b = Instance::new(Collective::Bcast, 4096, 16, 32);
        assert!(b.features()[0] > f[0]);
    }

    #[test]
    fn zero_message_is_finite() {
        let a = Instance::new(Collective::Allreduce, 0, 2, 1);
        assert!(a.features()[0] >= 0.0);
        assert!(a.features().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn display_is_readable() {
        let a = Instance::new(Collective::Bcast, 64, 4, 8);
        assert_eq!(format!("{a}"), "MPI_Bcast(m=64, 4x8)");
    }
}
