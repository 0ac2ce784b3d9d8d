//! Collective operations, algorithm kinds, and algorithm configurations.
//!
//! Following the paper's Section III-B, an *algorithm configuration*
//! `u_{j,l}` merges the algorithm id `j` with one concrete allocation of
//! its parameters (segment size, chain count, tree radix, window). The
//! configuration index within a library's list is the unit the selection
//! framework trains one regression model for.


use mpcp_simnet::{Program, Topology};

use crate::schedules;

/// The blocking collective operations supported.
///
/// The paper evaluates [`Collective::PAPER`] (Bcast, Allreduce,
/// Alltoall — the most used collectives per its §II); the remaining
/// operations implement the paper's "generic and could be applied to all
/// collective communications" claim and share the same selection
/// machinery.
///
/// Buffer-size convention: for `Bcast`, `Reduce` and `Allreduce` the
/// message size `m` is the full vector; for `Alltoall`, `Allgather`,
/// `Scatter` and `Gather` it is the per-rank block (send/recv count);
/// `Barrier` ignores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Collective {
    /// `MPI_Bcast`, root 0.
    Bcast,
    /// `MPI_Allreduce` (sum-like elementwise reduction).
    Allreduce,
    /// `MPI_Alltoall`; the message size is the per-destination buffer.
    Alltoall,
    /// `MPI_Reduce` to root 0.
    Reduce,
    /// `MPI_Allgather`; message size is the per-rank block.
    Allgather,
    /// `MPI_Scatter` from root 0; message size is the per-rank block.
    Scatter,
    /// `MPI_Gather` to root 0; message size is the per-rank block.
    Gather,
    /// `MPI_Barrier`.
    Barrier,
}

impl Collective {
    /// Every supported collective.
    pub const ALL: [Collective; 8] = [
        Collective::Bcast,
        Collective::Allreduce,
        Collective::Alltoall,
        Collective::Reduce,
        Collective::Allgather,
        Collective::Scatter,
        Collective::Gather,
        Collective::Barrier,
    ];

    /// The three collectives the paper's datasets cover.
    pub const PAPER: [Collective; 3] =
        [Collective::Bcast, Collective::Allreduce, Collective::Alltoall];

    /// MPI-style name, for report output.
    pub fn mpi_name(&self) -> &'static str {
        match self {
            Collective::Bcast => "MPI_Bcast",
            Collective::Allreduce => "MPI_Allreduce",
            Collective::Alltoall => "MPI_Alltoall",
            Collective::Reduce => "MPI_Reduce",
            Collective::Allgather => "MPI_Allgather",
            Collective::Scatter => "MPI_Scatter",
            Collective::Gather => "MPI_Gather",
            Collective::Barrier => "MPI_Barrier",
        }
    }
}

impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mpi_name())
    }
}

/// A concrete algorithm with all parameters bound (`seg = 0` means
/// unsegmented where applicable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgKind {
    // --- MPI_Bcast ---
    /// Root sends the full message to every rank, one blocking send at a
    /// time.
    BcastLinear,
    /// `chains` parallel pipelines over the non-root ranks, `seg`-byte
    /// segments.
    BcastChain { chains: u32, seg: u64 },
    /// Single pipeline (chain with one chain).
    BcastPipeline { seg: u64 },
    /// Message halved over the two subtrees of a binary tree, then halves
    /// exchanged pairwise between the subtrees.
    BcastSplitBinary { seg: u64 },
    /// Complete binary tree, segmented.
    BcastBinary { seg: u64 },
    /// Binomial tree, segmented.
    BcastBinomial { seg: u64 },
    /// k-nomial tree with the given radix, segmented.
    BcastKnomial { radix: u32, seg: u64 },
    /// Binomial scatter followed by recursive-doubling allgather.
    BcastScatterAllgather,
    /// Binomial scatter followed by ring allgather.
    BcastScatterAllgatherRing,
    /// Topology-aware: binomial over node leaders, binomial within nodes
    /// (experimental; not in the paper's library lists).
    BcastHierarchical { seg: u64 },
    /// Two interleaved binomial trees, one half of the message each
    /// (experimental).
    BcastDoubleTree { seg: u64 },

    // --- MPI_Allreduce ---
    /// Linear reduce to rank 0 followed by linear broadcast.
    AllreduceLinear,
    /// Binomial reduce followed by binomial broadcast (Open MPI's
    /// "nonoverlapping").
    AllreduceNonoverlapping,
    /// Recursive doubling (full message each round).
    AllreduceRecDoubling,
    /// Ring reduce-scatter + ring allgather.
    AllreduceRing,
    /// Ring with `seg`-byte pipeline segments.
    AllreduceSegRing { seg: u64 },
    /// Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
    /// allgather.
    AllreduceRabenseifner,
    /// k-nomial reduce followed by k-nomial broadcast (Intel MPI preset
    /// family).
    AllreduceReduceBcast { radix: u32, seg: u64 },
    /// Topology-aware: intra-node reduce, leader recursive doubling,
    /// intra-node broadcast (experimental).
    AllreduceHierarchical { seg: u64 },

    // --- MPI_Alltoall ---
    /// All nonblocking receives + sends, then a single wait-all.
    AlltoallLinear,
    /// p-1 rounds of pairwise `sendrecv` with ranks `v±r`.
    AlltoallPairwise,
    /// Bruck's log-round algorithm (latency-optimal, extra volume).
    AlltoallBruck,
    /// Linear with a bounded window of outstanding operations.
    AlltoallLinearSync { window: u32 },
    /// One destination per round, offset to spread hot spots.
    AlltoallSpread,

    // --- MPI_Reduce ---
    /// Flat receive-and-fold at the root.
    ReduceLinear,
    /// k-nomial tree reduction, segmented (radix 2 = binomial).
    ReduceKnomial { radix: u32, seg: u64 },
    /// Binary-tree reduction, segmented.
    ReduceBinary { seg: u64 },
    /// Single reversed pipeline (chain) with per-hop folds, segmented.
    ReducePipeline { seg: u64 },

    // --- MPI_Allgather ---
    /// Everyone nonblocking-sends its block to everyone.
    AllgatherLinear,
    /// Ring: p-1 block rotations.
    AllgatherRing,
    /// Recursive doubling (with surplus-rank folding off powers of two).
    AllgatherRecDoubling,
    /// Bruck's concatenation algorithm.
    AllgatherBruck,
    /// Neighbor exchange (pairs trade growing runs; falls back to ring
    /// for odd process counts, as in Open MPI).
    AllgatherNeighborExchange,

    // --- MPI_Scatter ---
    /// Root sends each rank its block directly.
    ScatterLinear,
    /// Binomial-tree scatter (subtree blocks forwarded in halves).
    ScatterBinomial,

    // --- MPI_Gather ---
    /// Every rank sends its block straight to the root.
    GatherLinear,
    /// Binomial-tree gather (subtree blocks coalesced on the way up).
    GatherBinomial,
    /// Linear with a bounded window of outstanding receives at the root.
    GatherLinearSync { window: u32 },

    // --- MPI_Barrier ---
    /// Central coordinator: gather tokens, then release.
    BarrierCentral,
    /// Recursive doubling with zero-byte tokens.
    BarrierRecDoubling,
    /// Dissemination (Bruck) barrier.
    BarrierDissemination,
    /// Binomial fan-in followed by binomial fan-out.
    BarrierTree,
}

impl AlgKind {
    /// Which collective this algorithm implements.
    pub fn collective(&self) -> Collective {
        use AlgKind::*;
        match self {
            BcastLinear
            | BcastChain { .. }
            | BcastPipeline { .. }
            | BcastSplitBinary { .. }
            | BcastBinary { .. }
            | BcastBinomial { .. }
            | BcastKnomial { .. }
            | BcastScatterAllgather
            | BcastScatterAllgatherRing
            | BcastHierarchical { .. }
            | BcastDoubleTree { .. } => Collective::Bcast,
            AllreduceLinear
            | AllreduceNonoverlapping
            | AllreduceRecDoubling
            | AllreduceRing
            | AllreduceSegRing { .. }
            | AllreduceRabenseifner
            | AllreduceReduceBcast { .. }
            | AllreduceHierarchical { .. } => Collective::Allreduce,
            AlltoallLinear
            | AlltoallPairwise
            | AlltoallBruck
            | AlltoallLinearSync { .. }
            | AlltoallSpread => Collective::Alltoall,
            ReduceLinear | ReduceKnomial { .. } | ReduceBinary { .. } | ReducePipeline { .. } => {
                Collective::Reduce
            }
            AllgatherLinear
            | AllgatherRing
            | AllgatherRecDoubling
            | AllgatherBruck
            | AllgatherNeighborExchange => Collective::Allgather,
            ScatterLinear | ScatterBinomial => Collective::Scatter,
            GatherLinear | GatherBinomial | GatherLinearSync { .. } => Collective::Gather,
            BarrierCentral | BarrierRecDoubling | BarrierDissemination | BarrierTree => {
                Collective::Barrier
            }
        }
    }

    /// Short algorithm family name (without parameters).
    pub fn family(&self) -> &'static str {
        use AlgKind::*;
        match self {
            BcastLinear => "linear",
            BcastChain { .. } => "chain",
            BcastPipeline { .. } => "pipeline",
            BcastSplitBinary { .. } => "split_binary",
            BcastBinary { .. } => "binary",
            BcastBinomial { .. } => "binomial",
            BcastKnomial { .. } => "knomial",
            BcastScatterAllgather => "scatter_allgather",
            BcastScatterAllgatherRing => "scatter_allgather_ring",
            BcastHierarchical { .. } => "hierarchical",
            BcastDoubleTree { .. } => "double_tree",
            AllreduceLinear => "basic_linear",
            AllreduceNonoverlapping => "nonoverlapping",
            AllreduceRecDoubling => "recursive_doubling",
            AllreduceRing => "ring",
            AllreduceSegRing { .. } => "segmented_ring",
            AllreduceRabenseifner => "rabenseifner",
            AllreduceReduceBcast { .. } => "reduce_bcast",
            AllreduceHierarchical { .. } => "hierarchical",
            AlltoallLinear => "linear",
            AlltoallPairwise => "pairwise",
            AlltoallBruck => "bruck",
            AlltoallLinearSync { .. } => "linear_sync",
            AlltoallSpread => "spread",
            ReduceLinear => "linear",
            ReduceKnomial { .. } => "knomial",
            ReduceBinary { .. } => "binary",
            ReducePipeline { .. } => "pipeline",
            AllgatherLinear => "linear",
            AllgatherRing => "ring",
            AllgatherRecDoubling => "recursive_doubling",
            AllgatherBruck => "bruck",
            AllgatherNeighborExchange => "neighbor_exchange",
            ScatterLinear => "linear",
            ScatterBinomial => "binomial",
            GatherLinear => "linear",
            GatherBinomial => "binomial",
            GatherLinearSync { .. } => "linear_sync",
            BarrierCentral => "central",
            BarrierRecDoubling => "recursive_doubling",
            BarrierDissemination => "dissemination",
            BarrierTree => "tree",
        }
    }

    /// Human-readable parameter suffix, e.g. `seg=8K,chains=4`.
    pub fn param_string(&self) -> String {
        fn seg_str(seg: u64) -> String {
            if seg == 0 {
                "seg=0".to_string()
            } else if seg % 1024 == 0 {
                format!("seg={}K", seg / 1024)
            } else {
                format!("seg={seg}")
            }
        }
        use AlgKind::*;
        match self {
            BcastChain { chains, seg } => format!("{},chains={chains}", seg_str(*seg)),
            BcastPipeline { seg }
            | BcastSplitBinary { seg }
            | BcastBinary { seg }
            | BcastBinomial { seg }
            | AllreduceSegRing { seg }
            | ReduceBinary { seg }
            | ReducePipeline { seg }
            | BcastHierarchical { seg }
            | BcastDoubleTree { seg }
            | AllreduceHierarchical { seg } => seg_str(*seg),
            BcastKnomial { radix, seg }
            | AllreduceReduceBcast { radix, seg }
            | ReduceKnomial { radix, seg } => format!("{},radix={radix}", seg_str(*seg)),
            AlltoallLinearSync { window } | GatherLinearSync { window } => {
                format!("window={window}")
            }
            _ => String::new(),
        }
    }

    /// Compile this algorithm for an instance into per-rank programs.
    pub fn build(&self, topo: &Topology, msize: u64) -> Vec<Program> {
        schedules::build(*self, topo, msize)
    }
}

/// One entry of a library's algorithm list: the library-visible algorithm
/// id `j` plus a bound parameter allocation (together: the paper's
/// `u_{j,l}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgorithmConfig {
    /// Library algorithm number `j` (what the user would pass to e.g.
    /// `coll_tuned_bcast_algorithm`).
    pub alg_id: u32,
    /// The fully-parameterized algorithm.
    pub kind: AlgKind,
    /// Benchmarked but excluded from selection (the paper excludes
    /// Open MPI 4.0.2's broadcast algorithm 8, found buggy).
    pub excluded: bool,
}

impl AlgorithmConfig {
    /// Construct a selectable configuration.
    pub fn new(alg_id: u32, kind: AlgKind) -> Self {
        AlgorithmConfig { alg_id, kind, excluded: false }
    }

    /// Mark as benchmark-only (never selectable).
    pub fn excluded(mut self) -> Self {
        self.excluded = true;
        self
    }

    /// Full display name, e.g. `2:chain(seg=64K,chains=8)`.
    pub fn label(&self) -> String {
        let params = self.kind.param_string();
        if params.is_empty() {
            format!("{}:{}", self.alg_id, self.kind.family())
        } else {
            format!("{}:{}({})", self.alg_id, self.kind.family(), params)
        }
    }

    /// Compile for an instance.
    pub fn build(&self, topo: &Topology, msize: u64) -> Vec<Program> {
        self.kind.build(topo, msize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_of_kind() {
        assert_eq!(AlgKind::BcastLinear.collective(), Collective::Bcast);
        assert_eq!(AlgKind::AllreduceRing.collective(), Collective::Allreduce);
        assert_eq!(AlgKind::AlltoallBruck.collective(), Collective::Alltoall);
    }

    #[test]
    fn labels_include_params() {
        let c = AlgorithmConfig::new(2, AlgKind::BcastChain { chains: 4, seg: 65536 });
        assert_eq!(c.label(), "2:chain(seg=64K,chains=4)");
        let l = AlgorithmConfig::new(1, AlgKind::BcastLinear);
        assert_eq!(l.label(), "1:linear");
    }

    #[test]
    fn excluded_flag() {
        let c = AlgorithmConfig::new(8, AlgKind::BcastScatterAllgather).excluded();
        assert!(c.excluded);
    }

    #[test]
    fn param_string_zero_segment() {
        assert_eq!(AlgKind::BcastBinomial { seg: 0 }.param_string(), "seg=0");
        assert_eq!(AlgKind::BcastBinomial { seg: 4096 }.param_string(), "seg=4K");
    }
}
