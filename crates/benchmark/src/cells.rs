//! Canonical, lazy enumeration of a benchmark grid's cells.
//!
//! Both the original [`crate::datasets::DatasetSpec::generate_with_faults`]
//! path and the parallel campaign engine ([`crate::campaign`]) walk the
//! same four-dimensional grid `(nodes × ppn × configuration × msize)`.
//! Before this module each path re-derived the grid with its own nested
//! loops, which is exactly how two "identical" sweeps drift apart. A
//! [`CellGrid`] instead assigns every cell a dense **cell id** in one
//! pinned canonical order —
//!
//! ```text
//! id = ((node_i · |ppn| + ppn_i) · |configs| + uid) · |msizes| + msize_i
//! ```
//!
//! — i.e. topology-major (`nodes` outer, then `ppn`), then configuration
//! uid, then message size, matching the historical record order of the
//! dataset CSVs. Cells are decoded from their id on demand; nothing is
//! materialized, so a million-cell campaign enumerates lazily.
//!
//! The id is also what the campaign's deterministic seeding hangs off:
//! a cell's noise and fault streams are derived from the cell
//! *coordinates* (see [`crate::noise::cell_stream`]), which the id maps
//! to bijectively, so any partition of ids across threads replays the
//! exact same draws.

use mpcp_collectives::{AlgorithmConfig, MakespanMemo};
use mpcp_simnet::SimError;

use crate::fault::{measure_cell, CellOutcome, CellResult, FaultPlan, RetryPolicy};
use crate::noise::{cell_stream, NoiseModel};
use crate::record::Record;
use crate::repro::BenchConfig;

/// One grid cell, decoded from its dense id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Dense id in the canonical order (see module docs).
    pub id: u64,
    /// Algorithm-configuration index into the library's list.
    pub uid: u32,
    /// Node count `n`.
    pub nodes: u32,
    /// Processes per node `N`.
    pub ppn: u32,
    /// Message size in bytes `m`.
    pub msize: u64,
}

/// The dense id ↔ coordinate mapping for one benchmark grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellGrid {
    nodes: Vec<u32>,
    ppn: Vec<u32>,
    msizes: Vec<u64>,
    configs: u32,
}

impl CellGrid {
    /// Build the grid mapping. `configs` is the library's configuration
    /// count for the collective under test.
    ///
    /// # Panics
    /// Panics if the configuration count exceeds the serialized `u32`
    /// uid range (a registry that large is corrupt and must not be
    /// truncated silently).
    pub fn new(nodes: Vec<u32>, ppn: Vec<u32>, msizes: Vec<u64>, configs: usize) -> CellGrid {
        let configs = u32::try_from(configs).expect("config count exceeds u32 uid range");
        CellGrid { nodes, ppn, msizes, configs }
    }

    /// Total number of cells.
    pub fn len(&self) -> u64 {
        self.nodes.len() as u64
            * self.ppn.len() as u64
            * self.msizes.len() as u64
            * u64::from(self.configs)
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `(nodes, ppn)` topology groups.
    pub fn topo_groups(&self) -> usize {
        self.nodes.len() * self.ppn.len()
    }

    /// Cells per topology group (`|configs| · |msizes|`).
    pub fn group_len(&self) -> u64 {
        u64::from(self.configs) * self.msizes.len() as u64
    }

    /// The `(nodes, ppn)` pair of topology group `g`.
    pub fn group(&self, g: usize) -> (u32, u32) {
        (self.nodes[g / self.ppn.len()], self.ppn[g % self.ppn.len()])
    }

    /// Decode a dense cell id into its coordinates.
    pub fn cell(&self, id: u64) -> Cell {
        debug_assert!(id < self.len(), "cell id {id} out of range");
        let m_len = self.msizes.len() as u64;
        let c_len = u64::from(self.configs);
        let p_len = self.ppn.len() as u64;
        let mi = id % m_len;
        let uid = (id / m_len) % c_len;
        let g = id / (m_len * c_len);
        let pi = g % p_len;
        let ni = g / p_len;
        Cell {
            id,
            uid: uid as u32,
            nodes: self.nodes[ni as usize],
            ppn: self.ppn[pi as usize],
            msize: self.msizes[mi as usize],
        }
    }

    /// Lazily enumerate every cell in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.len()).map(|id| self.cell(id))
    }

    /// Lazily enumerate the cells of topology group `g` in canonical
    /// order (a contiguous id range).
    pub fn group_cells(&self, g: usize) -> impl Iterator<Item = Cell> + '_ {
        let start = g as u64 * self.group_len();
        (start..start + self.group_len()).map(|id| self.cell(id))
    }
}

/// How one cell's measurement ended.
#[derive(Clone, Debug)]
pub enum CellMeasurement {
    /// A usable record plus its fault-loop accounting.
    Measured {
        /// The dataset row.
        record: Record,
        /// Attempt/budget accounting.
        result: CellResult,
    },
    /// The cell was lost to faults (failed or timed out).
    Lost(CellResult),
    /// The deterministic simulation itself errored (counted, not fatal).
    SimError(SimError),
}

/// Measure one grid cell: its noise-free makespan from `memo` plus the
/// fault-aware ReproMPI loop on the cell's own noise stream.
///
/// `memo` is scoped to the cell's topology. It simulates the cell's
/// programs unless an earlier cell on that topology compiled to
/// identical programs, in which case that cell's makespan (or
/// simulation error) is reported — the same `SimTime` a fresh
/// simulation gives, since the simulator is deterministic.
///
/// This is the single measurement path behind every chunk of the
/// campaign scheduler, which both `generate` and the campaign runner
/// use; a cell's outcome is a pure function of
/// `(seed, cell coordinates, bench, plan, retry)`, so any chunking and
/// any thread interleaving produce bit-identical results.
#[allow(clippy::too_many_arguments)]
pub fn measure_grid_cell(
    memo: &mut MakespanMemo<'_>,
    cfg: &AlgorithmConfig,
    cell: Cell,
    seed: u64,
    bench: &BenchConfig,
    noise: &NoiseModel,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> CellMeasurement {
    let topo = memo.topology();
    debug_assert_eq!((topo.nodes(), topo.ppn()), (cell.nodes, cell.ppn), "memo topology");
    let base = match memo.makespan(cfg, cell.msize) {
        Ok(base) => base,
        Err(e) => {
            mpcp_obs::counter_add!("bench.sim_errors", 1);
            return CellMeasurement::SimError(e);
        }
    };
    let mut stream = cell_stream(seed, cell.uid, cell.nodes, cell.ppn, cell.msize);
    let result = measure_cell(
        base,
        bench,
        noise,
        &mut stream,
        plan,
        retry,
        (cell.uid, cell.nodes, cell.ppn, cell.msize),
    );
    match result.outcome {
        CellOutcome::Ok(meas) => CellMeasurement::Measured {
            record: Record {
                nodes: cell.nodes,
                ppn: cell.ppn,
                msize: cell.msize,
                uid: cell.uid,
                alg_id: cfg.alg_id,
                excluded: cfg.excluded,
                runtime: meas.median_secs,
                base: meas.base.as_secs_f64(),
                reps: meas.reps,
            },
            result,
        },
        CellOutcome::Failed | CellOutcome::TimedOut => CellMeasurement::Lost(result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CellGrid {
        CellGrid::new(vec![2, 3], vec![1, 2], vec![16, 64, 256], 4)
    }

    #[test]
    fn canonical_order_is_pinned() {
        // The regression contract: ids enumerate (nodes, ppn, uid, msize)
        // with msize innermost — the historical CSV record order. Any
        // change here silently reshuffles every stored campaign.
        let g = grid();
        assert_eq!(g.len(), 2 * 2 * 4 * 3);
        let mut expect = Vec::new();
        for &n in &[2u32, 3] {
            for &p in &[1u32, 2] {
                for uid in 0u32..4 {
                    for &m in &[16u64, 64, 256] {
                        expect.push((uid, n, p, m));
                    }
                }
            }
        }
        let got: Vec<_> = g.iter().map(|c| (c.uid, c.nodes, c.ppn, c.msize)).collect();
        assert_eq!(got, expect);
        // Ids are dense and self-consistent.
        for (i, c) in g.iter().enumerate() {
            assert_eq!(c.id, i as u64);
            assert_eq!(g.cell(c.id), c);
        }
    }

    #[test]
    fn group_cells_tile_the_grid() {
        let g = grid();
        let concat: Vec<Cell> =
            (0..g.topo_groups()).flat_map(|gi| g.group_cells(gi).collect::<Vec<_>>()).collect();
        let all: Vec<Cell> = g.iter().collect();
        assert_eq!(concat, all);
        // Every group is one fixed topology.
        for gi in 0..g.topo_groups() {
            let (n, p) = g.group(gi);
            assert!(g.group_cells(gi).all(|c| c.nodes == n && c.ppn == p));
        }
        assert_eq!(g.group(0), (2, 1));
        assert_eq!(g.group(3), (3, 2));
    }

    #[test]
    fn empty_dimension_is_an_empty_grid() {
        let g = CellGrid::new(vec![], vec![1], vec![16], 4);
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
    }
}
