//! The paper's eight datasets (Table II) and their generation.
//!
//! Each dataset fixes a collective, an MPI library, and a machine, and
//! sweeps `#nodes × #ppn × #msizes × #algorithm-configurations`. Node
//! lists are the union of the Table III training and test node counts
//! (the paper's Table II lists 11 node counts for Hydra while its
//! Table III training set adds node count 20 — we follow Table III; see
//! DESIGN.md "Known deviations").

use std::convert::Infallible;
use std::path::Path;

use mpcp_collectives::{Collective, MpiLibrary};
use mpcp_collectives::decision::TuningGrid;
use mpcp_simnet::{Machine, SimTime};

use crate::campaign::{default_threads, schedule_chunks, ChunkJob, Tally};
use crate::cells::CellGrid;
use crate::fault::{FaultPlan, FaultSummary, RetryPolicy};
use crate::record::{read_csv, write_csv, Record};
use crate::repro::BenchConfig;

/// Which simulated MPI library a dataset uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LibKind {
    /// Open MPI 4.0.2 with the fixed decision rules.
    OpenMpi,
    /// Intel MPI 2019 with the machine-tuned decision table.
    IntelMpi,
}

impl LibKind {
    /// Library name as printed in Table II.
    pub fn name(&self) -> &'static str {
        match self {
            LibKind::OpenMpi => "Open MPI",
            LibKind::IntelMpi => "Intel MPI",
        }
    }

    /// Library version as printed in Table II.
    pub fn version(&self) -> &'static str {
        match self {
            LibKind::OpenMpi => "4.0.2",
            LibKind::IntelMpi => "2019",
        }
    }

    /// `"<name> <version>"`, the label artifact manifests record.
    pub fn label(&self) -> String {
        format!("{} {}", self.name(), self.version())
    }
}

impl std::str::FromStr for LibKind {
    type Err = String;

    /// A library by command-line alias (`openmpi`, `open-mpi`,
    /// `intelmpi`, `intel-mpi`, `intel`) or by [`LibKind::label`], in
    /// any case.
    fn from_str(s: &str) -> Result<LibKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "openmpi" | "open-mpi" => Ok(LibKind::OpenMpi),
            "intelmpi" | "intel-mpi" | "intel" => Ok(LibKind::IntelMpi),
            _ => [LibKind::OpenMpi, LibKind::IntelMpi]
                .into_iter()
                .find(|k| k.label().eq_ignore_ascii_case(s))
                .ok_or_else(|| format!("unknown MPI library {s:?} (openmpi | intelmpi)")),
        }
    }
}

/// A dataset definition (one row of Table II).
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset id, `d1`..`d8`.
    pub id: &'static str,
    /// The collective benchmarked.
    pub coll: Collective,
    /// Library under test.
    pub lib: LibKind,
    /// Machine profile.
    pub machine: Machine,
    /// All node counts (training ∪ test, Table III).
    pub nodes: Vec<u32>,
    /// Processes-per-node values.
    pub ppn: Vec<u32>,
    /// Message sizes in bytes.
    pub msizes: Vec<u64>,
    /// Noise seed.
    pub seed: u64,
}

/// The paper's fixed-size-collective message grid.
pub fn paper_msizes() -> Vec<u64> {
    vec![1, 16, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 512 << 10, 1 << 20, 4 << 20]
}

/// The 8-point message grid used by d6 and d8 (Fig. 8's axis ends at
/// 512 KiB).
pub fn short_msizes() -> Vec<u64> {
    vec![1, 16, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 512 << 10]
}

fn hydra_nodes() -> Vec<u32> {
    vec![4, 7, 8, 13, 16, 19, 20, 24, 27, 32, 35, 36]
}

fn hydra_ppn() -> Vec<u32> {
    vec![1, 4, 8, 10, 16, 17, 20, 24, 28, 32]
}

fn jupiter_nodes() -> Vec<u32> {
    vec![4, 7, 8, 13, 16, 19, 20, 24, 27, 32]
}

fn jupiter_ppn() -> Vec<u32> {
    vec![1, 2, 4, 8, 10, 12, 16]
}

fn supermuc_nodes() -> Vec<u32> {
    vec![20, 27, 32, 35, 48]
}

fn supermuc_ppn() -> Vec<u32> {
    vec![1, 8, 16, 24, 48]
}

impl DatasetSpec {
    /// d1: `MPI_Bcast`, Open MPI, Hydra.
    pub fn d1() -> DatasetSpec {
        DatasetSpec {
            id: "d1",
            coll: Collective::Bcast,
            lib: LibKind::OpenMpi,
            machine: Machine::hydra(),
            nodes: hydra_nodes(),
            ppn: hydra_ppn(),
            msizes: paper_msizes(),
            seed: 0xD1,
        }
    }

    /// d2: `MPI_Allreduce`, Open MPI, Hydra.
    pub fn d2() -> DatasetSpec {
        DatasetSpec {
            id: "d2",
            coll: Collective::Allreduce,
            lib: LibKind::OpenMpi,
            machine: Machine::hydra(),
            nodes: hydra_nodes(),
            ppn: hydra_ppn(),
            msizes: paper_msizes(),
            seed: 0xD2,
        }
    }

    /// d3: `MPI_Bcast`, Open MPI, Jupiter.
    pub fn d3() -> DatasetSpec {
        DatasetSpec {
            id: "d3",
            coll: Collective::Bcast,
            lib: LibKind::OpenMpi,
            machine: Machine::jupiter(),
            nodes: jupiter_nodes(),
            ppn: jupiter_ppn(),
            msizes: paper_msizes(),
            seed: 0xD3,
        }
    }

    /// d4: `MPI_Allreduce`, Open MPI, Jupiter.
    pub fn d4() -> DatasetSpec {
        DatasetSpec {
            id: "d4",
            coll: Collective::Allreduce,
            lib: LibKind::OpenMpi,
            machine: Machine::jupiter(),
            nodes: jupiter_nodes(),
            ppn: jupiter_ppn(),
            msizes: paper_msizes(),
            seed: 0xD4,
        }
    }

    /// d5: `MPI_Allreduce`, Intel MPI, Hydra.
    pub fn d5() -> DatasetSpec {
        DatasetSpec {
            id: "d5",
            coll: Collective::Allreduce,
            lib: LibKind::IntelMpi,
            machine: Machine::hydra(),
            nodes: hydra_nodes(),
            ppn: hydra_ppn(),
            msizes: paper_msizes(),
            seed: 0xD5,
        }
    }

    /// d6: `MPI_Alltoall`, Intel MPI, Hydra.
    pub fn d6() -> DatasetSpec {
        DatasetSpec {
            id: "d6",
            coll: Collective::Alltoall,
            lib: LibKind::IntelMpi,
            machine: Machine::hydra(),
            nodes: hydra_nodes(),
            ppn: hydra_ppn(),
            msizes: short_msizes(),
            seed: 0xD6,
        }
    }

    /// d7: `MPI_Bcast`, Intel MPI, Hydra.
    pub fn d7() -> DatasetSpec {
        DatasetSpec {
            id: "d7",
            coll: Collective::Bcast,
            lib: LibKind::IntelMpi,
            machine: Machine::hydra(),
            nodes: hydra_nodes(),
            ppn: hydra_ppn(),
            msizes: paper_msizes(),
            seed: 0xD7,
        }
    }

    /// d8: `MPI_Bcast`, Open MPI, SuperMUC-NG.
    pub fn d8() -> DatasetSpec {
        DatasetSpec {
            id: "d8",
            coll: Collective::Bcast,
            lib: LibKind::OpenMpi,
            machine: Machine::supermuc_ng(),
            nodes: supermuc_nodes(),
            ppn: supermuc_ppn(),
            msizes: short_msizes(),
            seed: 0xD8,
        }
    }

    /// All eight datasets in Table II order.
    pub fn all() -> Vec<DatasetSpec> {
        vec![
            Self::d1(),
            Self::d2(),
            Self::d3(),
            Self::d4(),
            Self::d5(),
            Self::d6(),
            Self::d7(),
            Self::d8(),
        ]
    }

    /// Look up by id (`"d1"`..`"d8"`).
    pub fn by_id(id: &str) -> Option<DatasetSpec> {
        Self::all().into_iter().find(|d| d.id == id)
    }

    /// A miniature dataset for tests: tiny grid, Open MPI allreduce.
    pub fn tiny_for_tests() -> DatasetSpec {
        DatasetSpec {
            id: "tiny",
            coll: Collective::Allreduce,
            lib: LibKind::OpenMpi,
            machine: Machine::hydra(),
            nodes: vec![2, 3, 4],
            ppn: vec![1, 2],
            msizes: vec![16, 4 << 10, 256 << 10],
            seed: 0x7E57,
        }
    }

    /// Build the library this dataset benchmarks (Intel MPI runs its
    /// tuning sweep here; pass `None` to use the vendor-default grid).
    pub fn library(&self, intel_grid: Option<TuningGrid>) -> MpiLibrary {
        match self.lib {
            LibKind::OpenMpi => MpiLibrary::open_mpi_4_0_2(),
            LibKind::IntelMpi => {
                let grid = intel_grid.unwrap_or_else(|| {
                    TuningGrid::vendor_default(self.machine.max_nodes, self.machine.max_ppn)
                });
                MpiLibrary::intel_mpi_2019_for(&self.machine, grid, &[self.coll])
            }
        }
    }

    /// Number of grid cells (`#configs × #nodes × #ppn × #msizes`) —
    /// Table II's `#samples`.
    pub fn sample_count(&self, library: &MpiLibrary) -> usize {
        library.configs(self.coll).len() * self.nodes.len() * self.ppn.len() * self.msizes.len()
    }

    /// The canonical cell-id mapping for this dataset's grid (shared by
    /// [`DatasetSpec::generate_with_faults`] and the campaign runner).
    pub fn cell_grid(&self, library: &MpiLibrary) -> CellGrid {
        CellGrid::new(
            self.nodes.clone(),
            self.ppn.clone(),
            self.msizes.clone(),
            library.configs(self.coll).len(),
        )
    }

    /// Benchmark the full grid.
    ///
    /// Every cell simulates the collective once (deterministic) and runs
    /// the ReproMPI repetition loop around it with cell-seeded noise.
    pub fn generate(&self, library: &MpiLibrary, bench: &BenchConfig) -> DatasetResult {
        self.generate_with_faults(library, bench, None, &RetryPolicy::default())
    }

    /// Benchmark the grid under a fault plan: cells may fail, time out,
    /// or be blacked out, and failed attempts are retried per `retry`.
    ///
    /// This is an in-memory campaign: the grid runs on the campaign
    /// runner's work-stealing scheduler, one topology group
    /// ([`CellGrid::group_len`] cells: every configuration at every
    /// message size of one `(nodes, ppn)`) per chunk, on
    /// [`crate::campaign::default_threads`] workers that start with the
    /// largest topologies. Each chunk keeps one
    /// [`mpcp_collectives::MakespanMemo`], so a configuration that
    /// compiles to the same programs as an earlier one in its group
    /// reuses that makespan instead of being simulated again (counted
    /// by `bench.sim_reused`). Chunks are committed in canonical cell
    /// order and every cell's noise and fault streams depend only on
    /// `(seed, cell)`, so the output is the same at any thread count and
    /// equals [`crate::campaign::run_campaign`]'s over the same grid.
    ///
    /// Passing `None` (or a no-op plan) produces records **bit-identical**
    /// to [`DatasetSpec::generate`] — fault fates draw from a stream
    /// independent of the measurement noise. Cells lost to faults are
    /// simply absent from `records`; the accounting lives in
    /// [`DatasetResult::faults`]. Simulation errors are likewise counted
    /// per cell instead of aborting the whole grid.
    pub fn generate_with_faults(
        &self,
        library: &MpiLibrary,
        bench: &BenchConfig,
        plan: Option<&FaultPlan>,
        retry: &RetryPolicy,
    ) -> DatasetResult {
        let threads = default_threads();
        let grid = self.cell_grid(library);
        let job = ChunkJob {
            chunk_size: grid.group_len().max(1),
            grid,
            configs: library.configs(self.coll),
            machine: &self.machine,
            seed: self.seed,
            bench,
            plan,
            retry,
        };
        let mut grid_span = mpcp_obs::span("bench.grid")
            .attr("dataset", self.id)
            .attr("configs", job.configs.len());
        let wall = mpcp_obs::maybe_now();
        let mut tally = Tally::default();
        let mut sim_reused = 0;
        let Ok(steals) = schedule_chunks(
            0..job.chunks(),
            threads,
            // A group's rank count stands in for its cost: simulator
            // events grow with it.
            |index| {
                let cell = job.grid.cell(index * job.chunk_size);
                u64::from(cell.nodes) * u64::from(cell.ppn)
            },
            |index| job.measure(index),
            |chunk| {
                tally.add(&chunk.data);
                sim_reused += chunk.sim_reused;
                Ok::<(), Infallible>(())
            },
        );
        let Tally { records, faults, consumed_picos } = tally;
        let total_bench = SimTime(consumed_picos);
        mpcp_obs::counter_add!("bench.cells_failed", faults.cells_failed as u64);
        grid_span.set_attr("records", records.len());
        grid_span.set_attr("cells_failed", faults.cells_failed);
        grid_span.set_attr("cells_timed_out", faults.cells_timed_out);
        grid_span.set_attr("sim_bench_secs", total_bench.as_secs_f64());
        grid_span.set_attr("steals", steals);
        grid_span.set_attr("sim_reused", sim_reused);
        if let Some(t0) = wall {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                // Grid throughput: measured cells per wall-clock second.
                mpcp_obs::gauge_set!("bench.cells_per_sec", records.len() as f64 / secs);
            }
        }
        DatasetResult { id: self.id, records, total_bench, faults }
    }

    /// Generate, caching the records as CSV under `cache_dir` (the
    /// library and its decision logic are rebuilt deterministically and
    /// are not cached).
    pub fn generate_cached(
        &self,
        library: &MpiLibrary,
        bench: &BenchConfig,
        cache_dir: &Path,
    ) -> DatasetResult {
        let path = cache_dir.join(format!("{}.csv", self.id));
        if let Ok(records) = read_csv(&path) {
            if records.len() == self.sample_count(library) {
                let faults = FaultSummary { cells_ok: records.len(), ..FaultSummary::default() };
                return DatasetResult { id: self.id, records, total_bench: SimTime::ZERO, faults };
            }
        }
        let result = self.generate(library, bench);
        if let Err(e) = write_csv(&path, &result.records) {
            eprintln!("warning: could not cache {}: {e}", path.display());
        }
        result
    }
}

/// A generated dataset.
#[derive(Clone, Debug)]
pub struct DatasetResult {
    /// Dataset id.
    pub id: &'static str,
    /// All measured cells (cells lost to faults are absent).
    pub records: Vec<Record>,
    /// Total simulated benchmarking time across the grid (zero when
    /// loaded from cache).
    pub total_bench: SimTime,
    /// Fault accounting for the campaign (all-ok without a fault plan).
    pub faults: FaultSummary,
}

impl DatasetResult {
    /// Upper bound on benchmarking time: `#cells × budget` (the paper's
    /// "3 hours" bound for SuperMUC-NG).
    pub fn budget_bound(&self, bench: &BenchConfig) -> SimTime {
        SimTime(self.records.len() as u64 * bench.budget.picos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_dataset_shapes() {
        let all = DatasetSpec::all();
        assert_eq!(all.len(), 8);
        let d1 = &all[0];
        assert_eq!(d1.nodes.len(), 12); // Table III union (see DESIGN.md)
        assert_eq!(d1.ppn.len(), 10);
        assert_eq!(d1.msizes.len(), 10);
        let d3 = DatasetSpec::by_id("d3").unwrap();
        assert_eq!(d3.nodes.len(), 10);
        assert_eq!(d3.ppn.len(), 7);
        let d8 = DatasetSpec::by_id("d8").unwrap();
        assert_eq!(d8.nodes.len(), 5);
        assert_eq!(d8.ppn.len(), 5);
        assert_eq!(d8.msizes.len(), 8);
    }

    #[test]
    fn ppn_respects_machine_limits() {
        for spec in DatasetSpec::all() {
            for &ppn in &spec.ppn {
                assert!(ppn <= spec.machine.max_ppn, "{}: ppn {ppn}", spec.id);
            }
            for &n in &spec.nodes {
                assert!(n <= spec.machine.max_nodes, "{}: nodes {n}", spec.id);
            }
        }
    }

    #[test]
    fn tiny_dataset_generates() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let result = spec.generate(&lib, &BenchConfig::quick());
        assert_eq!(result.records.len(), spec.sample_count(&lib));
        for r in &result.records {
            assert!(r.runtime > 0.0, "cell {r:?}");
            assert!(r.base > 0.0);
            assert!(r.reps >= 1);
            // Noise is mild: median within 50% of truth.
            assert!((r.runtime - r.base).abs() / r.base < 0.5);
        }
        assert!(result.total_bench.as_secs_f64() > 0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let a = spec.generate(&lib, &BenchConfig::quick());
        let b = spec.generate(&lib, &BenchConfig::quick());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn cache_roundtrip() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let dir = std::env::temp_dir().join("mpcp_ds_cache_test");
        std::fs::remove_dir_all(&dir).ok();
        let a = spec.generate_cached(&lib, &BenchConfig::quick(), &dir);
        let b = spec.generate_cached(&lib, &BenchConfig::quick(), &dir);
        assert_eq!(a.records, b.records);
        assert_eq!(b.total_bench, SimTime::ZERO); // loaded from cache
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn noop_fault_plan_is_bit_identical() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let clean = spec.generate(&lib, &BenchConfig::quick());
        let plan = FaultPlan::none();
        let faulty = spec.generate_with_faults(
            &lib,
            &BenchConfig::quick(),
            Some(&plan),
            &RetryPolicy::default(),
        );
        assert_eq!(clean.records, faulty.records);
        assert_eq!(faulty.faults.cells_failed, 0);
        assert_eq!(faulty.faults.cells_ok, faulty.records.len());
    }

    #[test]
    fn fault_plan_yields_a_partial_grid() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let plan = FaultPlan::uniform(0.3, 42);
        let r = spec.generate_with_faults(
            &lib,
            &BenchConfig::quick(),
            Some(&plan),
            &crate::fault::RetryPolicy::no_retries(),
        );
        let total = spec.sample_count(&lib);
        assert_eq!(r.faults.total(), total);
        assert_eq!(r.records.len(), r.faults.cells_ok);
        assert!(r.records.len() < total, "some cells must fail at 30%");
        assert!(r.records.len() > total / 3, "most cells must survive");
        // Deterministic: same plan, same partial grid.
        let again = spec.generate_with_faults(
            &lib,
            &BenchConfig::quick(),
            Some(&plan),
            &crate::fault::RetryPolicy::no_retries(),
        );
        assert_eq!(r.records, again.records);
        assert_eq!(r.faults, again.faults);
    }

    #[test]
    fn retries_recover_cells_lost_to_transient_failures() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let plan = FaultPlan::uniform(0.3, 42);
        let bare = spec.generate_with_faults(
            &lib,
            &BenchConfig::quick(),
            Some(&plan),
            &crate::fault::RetryPolicy::no_retries(),
        );
        let retried = spec.generate_with_faults(
            &lib,
            &BenchConfig::quick(),
            Some(&plan),
            &RetryPolicy::default(),
        );
        assert!(
            retried.records.len() > bare.records.len(),
            "retries must recover transient failures ({} vs {})",
            retried.records.len(),
            bare.records.len()
        );
        assert!(retried.faults.retries > 0);
    }

    #[test]
    fn blackout_removes_a_whole_node_count() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let plan = FaultPlan { blackout_nodes: vec![3], ..FaultPlan::none() };
        let r = spec.generate_with_faults(
            &lib,
            &BenchConfig::quick(),
            Some(&plan),
            &RetryPolicy::default(),
        );
        assert!(r.records.iter().all(|rec| rec.nodes != 3));
        assert!(r.records.iter().any(|rec| rec.nodes == 2));
        let per_node = spec.sample_count(&lib) / spec.nodes.len();
        assert_eq!(r.faults.cells_failed, per_node);
    }

    #[test]
    fn budget_bound_covers_consumed() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        let result = spec.generate(&lib, &bench);
        assert!(result.total_bench <= result.budget_bound(&bench));
    }
}
