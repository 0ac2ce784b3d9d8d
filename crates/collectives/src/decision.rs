//! Default algorithm-selection logics ("algorithm 0") of the simulated
//! MPI libraries.
//!
//! * [`OpenMpiDecision`] mirrors the *hard-coded* threshold rules of
//!   Open MPI's `coll_tuned_decision_fixed.c`: message-size and
//!   communicator-size cutoffs baked in at library-release time, tuned on
//!   machines other than the one at hand. This is exactly the mechanism
//!   the paper exploits: the fixed rules are reasonable everywhere and
//!   optimal almost nowhere.
//! * [`IntelDecision`] mimics the vendor approach (`mpitune`): an
//!   exhaustive offline sweep over a tuning grid on the *same* machine,
//!   snapped to the nearest grid point at call time. The paper finds this
//!   default near-optimal, which our reproduction preserves.

use std::collections::BTreeMap;

use mpcp_simnet::{NetworkModel, Topology};

use crate::coll::{AlgKind, AlgorithmConfig, Collective};
use crate::memo::MakespanMemo;

/// A library's built-in algorithm selection heuristic.
pub trait DecisionLogic: Send + Sync {
    /// Index into the library's configuration list for this collective.
    fn select(&self, coll: Collective, msize: u64, topo: &Topology) -> usize;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Find the index of `kind` in `configs`, panicking if the registry and
/// the decision rules ever drift apart (checked by tests).
fn index_of(configs: &[AlgorithmConfig], kind: AlgKind) -> usize {
    configs
        .iter()
        .position(|c| c.kind == kind)
        .unwrap_or_else(|| panic!("decision logic chose unregistered config {kind:?}"))
}

/// Open MPI 4.0.2-style fixed decision rules.
///
/// The thresholds approximate the shipped `coll_tuned` fixed rules; the
/// load-bearing property is that they are static and machine-agnostic.
pub struct OpenMpiDecision {
    configs: BTreeMap<Collective, Vec<AlgorithmConfig>>,
}

impl OpenMpiDecision {
    /// Build against the full registry (all supported collectives).
    pub fn from_registry() -> Self {
        let mut configs = BTreeMap::new();
        for coll in Collective::ALL {
            configs.insert(coll, crate::registry::open_mpi(coll));
        }
        OpenMpiDecision { configs }
    }

    /// Build against explicit registry lists.
    pub fn new(
        bcast: Vec<AlgorithmConfig>,
        allreduce: Vec<AlgorithmConfig>,
        alltoall: Vec<AlgorithmConfig>,
    ) -> Self {
        let mut d = Self::from_registry();
        d.configs.insert(Collective::Bcast, bcast);
        d.configs.insert(Collective::Allreduce, allreduce);
        d.configs.insert(Collective::Alltoall, alltoall);
        d
    }

    fn bcast_rule(&self, m: u64, p: u32) -> AlgKind {
        if p <= 2 {
            AlgKind::BcastLinear
        } else if m <= 2048 {
            AlgKind::BcastBinomial { seg: 0 }
        } else if m <= 64 << 10 {
            AlgKind::BcastSplitBinary { seg: 1 << 10 }
        } else if m <= 512 << 10 {
            AlgKind::BcastBinary { seg: 16 << 10 }
        } else if p <= 24 {
            // Small communicators: a deep pipeline still pays off.
            AlgKind::BcastPipeline { seg: 128 << 10 }
        } else {
            AlgKind::BcastBinary { seg: 64 << 10 }
        }
    }

    fn allreduce_rule(&self, m: u64, p: u32) -> AlgKind {
        if p <= 2 || m <= 10_000 {
            AlgKind::AllreduceRecDoubling
        } else if m <= 100_000 {
            AlgKind::AllreduceRing
        } else {
            AlgKind::AllreduceSegRing { seg: 128 << 10 }
        }
    }

    fn alltoall_rule(&self, m: u64, _p: u32) -> AlgKind {
        if m <= 512 {
            AlgKind::AlltoallBruck
        } else if m <= 32 << 10 {
            AlgKind::AlltoallLinear
        } else {
            AlgKind::AlltoallPairwise
        }
    }

    fn reduce_rule(&self, m: u64, p: u32) -> AlgKind {
        if p <= 2 {
            AlgKind::ReduceLinear
        } else if m <= 4096 {
            AlgKind::ReduceKnomial { radix: 2, seg: 0 }
        } else if m <= 512 << 10 {
            AlgKind::ReduceKnomial { radix: 2, seg: 16 << 10 }
        } else if p <= 24 {
            AlgKind::ReducePipeline { seg: 128 << 10 }
        } else {
            AlgKind::ReduceBinary { seg: 64 << 10 }
        }
    }

    fn allgather_rule(&self, m: u64, p: u32) -> AlgKind {
        if m <= 512 {
            AlgKind::AllgatherBruck
        } else if m * p as u64 <= 256 << 10 {
            AlgKind::AllgatherRecDoubling
        } else if p % 2 == 0 {
            AlgKind::AllgatherNeighborExchange
        } else {
            AlgKind::AllgatherRing
        }
    }

    fn scatter_rule(&self, m: u64, p: u32) -> AlgKind {
        if m <= 8192 && p > 4 {
            AlgKind::ScatterBinomial
        } else {
            AlgKind::ScatterLinear
        }
    }

    fn gather_rule(&self, m: u64, p: u32) -> AlgKind {
        if m <= 8192 && p > 4 {
            AlgKind::GatherBinomial
        } else if p > 64 {
            AlgKind::GatherLinearSync { window: 8 }
        } else {
            AlgKind::GatherLinear
        }
    }

    fn barrier_rule(&self, p: u32) -> AlgKind {
        if p <= 4 {
            AlgKind::BarrierRecDoubling
        } else {
            AlgKind::BarrierDissemination
        }
    }
}

impl DecisionLogic for OpenMpiDecision {
    fn select(&self, coll: Collective, msize: u64, topo: &Topology) -> usize {
        let p = topo.size();
        let kind = match coll {
            Collective::Bcast => self.bcast_rule(msize, p),
            Collective::Allreduce => self.allreduce_rule(msize, p),
            Collective::Alltoall => self.alltoall_rule(msize, p),
            Collective::Reduce => self.reduce_rule(msize, p),
            Collective::Allgather => self.allgather_rule(msize, p),
            Collective::Scatter => self.scatter_rule(msize, p),
            Collective::Gather => self.gather_rule(msize, p),
            Collective::Barrier => self.barrier_rule(p),
        };
        index_of(&self.configs[&coll], kind)
    }

    fn name(&self) -> &'static str {
        "ompi-fixed"
    }
}

/// The tuning grid an [`IntelDecision`] is swept over.
#[derive(Clone, Debug)]
pub struct TuningGrid {
    /// Node counts benchmarked by the vendor sweep.
    pub nodes: Vec<u32>,
    /// Processes-per-node values.
    pub ppn: Vec<u32>,
    /// Message sizes (bytes).
    pub msizes: Vec<u64>,
}

impl TuningGrid {
    /// The vendor-style default grid, clipped to a machine's limits.
    pub fn vendor_default(max_nodes: u32, max_ppn: u32) -> TuningGrid {
        TuningGrid {
            nodes: [2u32, 4, 8, 16, 32].iter().copied().filter(|&n| n <= max_nodes).collect(),
            ppn: [1u32, 4, 8, 16, 32, 48].iter().copied().filter(|&n| n <= max_ppn).collect(),
            msizes: vec![
                1,
                16,
                256,
                1 << 10,
                4 << 10,
                16 << 10,
                64 << 10,
                512 << 10,
                1 << 20,
                4 << 20,
            ],
        }
    }

    /// A tiny grid for tests.
    pub fn tiny() -> TuningGrid {
        TuningGrid {
            nodes: vec![2, 4],
            ppn: vec![1, 2],
            msizes: vec![16, 16 << 10, 1 << 20],
        }
    }
}

/// Snap `x` to the nearest grid value (log-scale for message sizes).
fn nearest(grid: &[u32], x: u32) -> u32 {
    *grid
        .iter()
        .min_by_key(|&&g| (g as i64 - x as i64).unsigned_abs())
        .expect("empty tuning grid")
}

fn nearest_log(grid: &[u64], x: u64) -> u64 {
    let lx = (x.max(1) as f64).ln();
    *grid
        .iter()
        .min_by(|&&a, &&b| {
            let da = ((a.max(1) as f64).ln() - lx).abs();
            let db = ((b.max(1) as f64).ln() - lx).abs();
            da.total_cmp(&db)
        })
        .expect("empty tuning grid")
}

/// An `mpitune`-style exhaustively tuned decision table for one machine.
pub struct IntelDecision {
    grid: TuningGrid,
    /// `(collective, msize, nodes, ppn) -> config index`.
    table: BTreeMap<(Collective, u64, u32, u32), usize>,
}

impl IntelDecision {
    /// Run the vendor sweep: for every grid point and collective,
    /// simulate every selectable configuration (noise-free) and record
    /// the argmin. Configurations that compile to the same programs are
    /// simulated once per topology ([`MakespanMemo`]).
    ///
    /// This models what Intel's tuning utilities do at library-install
    /// time; it is the reason the paper finds Intel MPI's default to be
    /// near-optimal on its own machine.
    pub fn tune(
        model: &NetworkModel,
        configs: &BTreeMap<Collective, Vec<AlgorithmConfig>>,
        grid: TuningGrid,
    ) -> IntelDecision {
        let mut table = BTreeMap::new();
        for (&coll, list) in configs {
            for &n in &grid.nodes {
                for &ppn in &grid.ppn {
                    let mut memo = MakespanMemo::new(model, &Topology::new(n, ppn));
                    for &m in &grid.msizes {
                        let mut best = (f64::INFINITY, 0usize);
                        for (idx, cfg) in list.iter().enumerate() {
                            if cfg.excluded {
                                continue;
                            }
                            let t = memo
                                .makespan(cfg, m)
                                .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.label()))
                                .as_secs_f64();
                            if t < best.0 {
                                best = (t, idx);
                            }
                        }
                        table.insert((coll, m, n, ppn), best.1);
                    }
                }
            }
        }
        IntelDecision { grid, table }
    }

    /// Number of tuned grid entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

impl DecisionLogic for IntelDecision {
    fn select(&self, coll: Collective, msize: u64, topo: &Topology) -> usize {
        let m = nearest_log(&self.grid.msizes, msize);
        let n = nearest(&self.grid.nodes, topo.nodes());
        let ppn = nearest(&self.grid.ppn, topo.ppn());
        *self
            .table
            .get(&(coll, m, n, ppn))
            .unwrap_or_else(|| panic!("untuned grid point ({coll:?}, {m}, {n}, {ppn})"))
    }

    fn name(&self) -> &'static str {
        "impi-tuned"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use mpcp_simnet::Machine;

    fn ompi_decision() -> OpenMpiDecision {
        OpenMpiDecision::new(
            registry::open_mpi_bcast(),
            registry::open_mpi_allreduce(),
            registry::open_mpi_alltoall(),
        )
    }

    #[test]
    fn open_mpi_rules_map_to_registered_configs() {
        let d = ompi_decision();
        let bcast = registry::open_mpi_bcast();
        let allreduce = registry::open_mpi_allreduce();
        let alltoall = registry::open_mpi_alltoall();
        for &m in &[1u64, 100, 2048, 4096, 20_000, 200_000, 2 << 20, 8 << 20] {
            for (n, ppn) in [(2u32, 1u32), (4, 4), (16, 16), (36, 32)] {
                let topo = Topology::new(n, ppn);
                let bi = d.select(Collective::Bcast, m, &topo);
                assert!(bi < bcast.len());
                assert!(!bcast[bi].excluded);
                let ai = d.select(Collective::Allreduce, m, &topo);
                assert!(ai < allreduce.len());
                let ti = d.select(Collective::Alltoall, m, &topo);
                assert!(ti < alltoall.len());
            }
        }
    }

    #[test]
    fn extended_rules_map_to_registered_configs() {
        // index_of panics if a rule ever names an unregistered config;
        // sweep the full grid for every collective.
        let d = OpenMpiDecision::from_registry();
        for coll in Collective::ALL {
            let list = registry::open_mpi(coll);
            for &m in &[0u64, 1, 512, 4096, 16 << 10, 100_000, 512 << 10, 1 << 20, 8 << 20] {
                for (n, ppn) in [(2u32, 1u32), (3, 2), (5, 4), (16, 16), (36, 32), (48, 48)] {
                    let topo = Topology::new(n, ppn);
                    let idx = d.select(coll, m, &topo);
                    assert!(idx < list.len(), "{coll:?} m={m} {n}x{ppn}");
                    assert!(!list[idx].excluded, "{coll:?} selected excluded config");
                }
            }
        }
    }

    #[test]
    fn open_mpi_rules_are_size_sensitive() {
        let d = ompi_decision();
        let topo = Topology::new(16, 16);
        let small = d.select(Collective::Bcast, 16, &topo);
        let large = d.select(Collective::Bcast, 4 << 20, &topo);
        assert_ne!(small, large);
    }

    #[test]
    fn nearest_helpers() {
        assert_eq!(nearest(&[2, 4, 8, 16, 32], 27), 32);
        assert_eq!(nearest(&[2, 4, 8, 16, 32], 5), 4);
        assert_eq!(nearest_log(&[16, 1024, 1 << 20], 64 << 10), 1 << 20);
        assert_eq!(nearest_log(&[16, 1024, 1 << 20], 2000), 1024);
    }

    #[test]
    fn intel_tuning_builds_and_selects() {
        let machine = Machine::hydra();
        let mut configs = BTreeMap::new();
        configs.insert(Collective::Alltoall, registry::intel_alltoall());
        let d = IntelDecision::tune(&machine.model, &configs, TuningGrid::tiny());
        assert_eq!(d.entries(), 2 * 2 * 3);
        let topo = Topology::new(3, 2);
        let idx = d.select(Collective::Alltoall, 100, &topo);
        assert!(idx < registry::intel_alltoall().len());
    }

    #[test]
    fn intel_tuning_matches_manual_argmin() {
        // The tuned table must agree with an independent exhaustive
        // sweep at a tuned grid point.
        let machine = Machine::jupiter();
        let list = registry::intel_alltoall();
        let mut configs = BTreeMap::new();
        configs.insert(Collective::Alltoall, list.clone());
        let d = IntelDecision::tune(&machine.model, &configs, TuningGrid::tiny());
        let topo = Topology::new(4, 2);
        let m = 16 << 10;
        let sim = mpcp_simnet::Simulator::new(&machine.model, &topo);
        let manual_best = list
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ta = sim.run(&a.build(&topo, m)).unwrap().makespan();
                let tb = sim.run(&b.build(&topo, m)).unwrap().makespan();
                ta.cmp(&tb)
            })
            .unwrap()
            .0;
        assert_eq!(d.select(Collective::Alltoall, m, &topo), manual_best);
    }

    #[test]
    fn memoised_tuning_picks_the_unmemoised_argmin_everywhere() {
        // An independent sweep with one fresh simulation per
        // configuration and the same first-minimum tie-break must give
        // the same default at every tuning-grid point.
        let machine = Machine::hydra();
        let mut configs = BTreeMap::new();
        for coll in [Collective::Bcast, Collective::Allreduce, Collective::Alltoall] {
            configs.insert(coll, registry::intel(coll));
        }
        let grid = TuningGrid::tiny();
        let d = IntelDecision::tune(&machine.model, &configs, grid.clone());
        for (&coll, list) in &configs {
            for &n in &grid.nodes {
                for &ppn in &grid.ppn {
                    let topo = Topology::new(n, ppn);
                    let sim = mpcp_simnet::Simulator::new(&machine.model, &topo);
                    for &m in &grid.msizes {
                        let mut best = (f64::INFINITY, 0usize);
                        for (idx, cfg) in list.iter().enumerate().filter(|(_, c)| !c.excluded) {
                            let t = sim.run(&cfg.build(&topo, m)).unwrap().makespan().as_secs_f64();
                            if t < best.0 {
                                best = (t, idx);
                            }
                        }
                        assert_eq!(d.select(coll, m, &topo), best.1, "{coll:?} m={m} {n}x{ppn}");
                    }
                }
            }
        }
    }
}
