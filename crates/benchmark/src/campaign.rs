//! Work-stealing parallel campaign runner over the fault-aware
//! measurement path.
//!
//! A campaign is a dataset grid measured chunk by chunk into a
//! checkpointed [`crate::store::CampaignStore`]. The scheduler behind
//! it, [`schedule_chunks`], is also what
//! [`DatasetSpec::generate_with_faults`] runs on: `generate` is an
//! in-memory campaign whose chunks are one topology group each (every
//! configuration × message size of one `(nodes, ppn)`), so that group's
//! [`MakespanMemo`] sees all of its duplicate schedules. The scheduler
//! owns its threads (`std::thread::scope`, no pool dependency) and
//! steals work at **chunk** granularity:
//!
//! * The canonical cell order ([`crate::cells::CellGrid`]) is cut into
//!   fixed-size chunks. Chunk indices are dealt round-robin onto
//!   per-worker deques (a campaign deals them in index order,
//!   `generate` costliest topology first).
//! * A worker pops its own deque from the front; when empty, it steals
//!   from the *back* of the most-loaded victim (classic Chase–Lev
//!   shape, here with plain mutexed deques — contention is one lock op
//!   per chunk, and a chunk is many simulator runs).
//! * Finished chunks are sent to the committer on the calling thread,
//!   which buffers out-of-order arrivals and commits strictly in chunk
//!   order: a campaign appends and flushes each chunk to the store —
//!   the frame boundary is the checkpoint a crash resumes from — and
//!   `generate` appends its records in memory.
//!
//! # Why N threads ≡ 1 thread, byte for byte
//!
//! Scheduling decides only *who* measures a chunk and *when* — never
//! what the chunk contains. Every cell's noise and fault streams are
//! derived from `(campaign seed, cell coordinates)` alone
//! ([`crate::noise::cell_stream`], [`crate::fault::fault_stream`] — the
//! PR 3 salting pattern, extended here to the whole campaign), each
//! chunk is a pure function of its cell-id range, and the committer
//! serializes chunks in index order. The store bytes — and
//! `generate`'s records — are therefore a pure function of
//! `(header, grid)`, which the differential determinism suite
//! (`tests/campaign_determinism.rs`) pins at 1/2/4/8 threads. Nothing
//! wall-clock-derived is ever written (enforced statically by the
//! `no-wallclock-in-deterministic` lint rule).

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

use mpcp_collectives::{AlgorithmConfig, MakespanMemo, MpiLibrary};
use mpcp_simnet::{Machine, SimTime, Topology};

use crate::cells::{measure_grid_cell, CellGrid, CellMeasurement};
use crate::datasets::DatasetSpec;
use crate::fault::{FaultPlan, FaultSummary, RetryPolicy};
use crate::noise::NoiseModel;
use crate::record::Record;
use crate::repro::BenchConfig;
use crate::store::{fate, CampaignStore, ChunkData, StoreError, StoreHeader};

/// Default checkpoint granularity: cells per committed chunk.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

/// How a campaign run is executed (what it *measures* lives in the
/// dataset spec and the store header, never here — these knobs must not
/// influence result bytes except through the chunk size).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Worker threads (clamped to >= 1). Does not affect result bytes.
    pub threads: usize,
    /// Cells per chunk / checkpoint (clamped to >= 1). Part of the
    /// store header: two stores are only byte-comparable at equal
    /// chunk size.
    pub checkpoint_every: u64,
    /// Resume from an existing store file instead of starting fresh.
    pub resume: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { threads: 1, checkpoint_every: DEFAULT_CHECKPOINT_EVERY, resume: false }
    }
}

/// What a campaign run did.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// All measured records, in canonical cell order (resumed chunks
    /// included).
    pub records: Vec<Record>,
    /// Merged fault accounting across the whole store.
    pub faults: FaultSummary,
    /// Total simulated benchmark time across the whole store.
    pub total_bench: SimTime,
    /// Cells in the campaign grid.
    pub cells_total: u64,
    /// Cells recovered from the store instead of re-measured.
    pub cells_resumed: u64,
    /// Chunks in the campaign grid.
    pub chunks_total: u64,
    /// Chunks recovered from the store.
    pub chunks_resumed: u64,
    /// Chunks stolen off another worker's deque this run.
    pub steals: u64,
}

/// Per-worker chunk deques plus the steal counter.
struct StealQueues {
    queues: Vec<Mutex<VecDeque<u64>>>,
    steals: AtomicU64,
}

impl StealQueues {
    /// Deal `order` round-robin onto `workers` deques, so every worker
    /// starts with a spread of the remaining work and takes its share
    /// in `order`.
    fn deal(order: &[u64], workers: usize) -> StealQueues {
        let mut queues: Vec<VecDeque<u64>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, &chunk) in order.iter().enumerate() {
            queues[i % workers].push_back(chunk);
        }
        StealQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Next chunk for worker `w`: own deque front first, then steal
    /// from the back of the most-loaded victim.
    fn next(&self, w: usize) -> Option<u64> {
        let own = self
            .queues[w]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        if own.is_some() {
            return own;
        }
        loop {
            // Pick the victim with the most remaining chunks.
            let mut victim = None;
            let mut most = 0usize;
            for (v, q) in self.queues.iter().enumerate() {
                if v == w {
                    continue;
                }
                let len = q.lock().unwrap_or_else(|e| e.into_inner()).len();
                if len > most {
                    most = len;
                    victim = Some(v);
                }
            }
            let v = victim?;
            // The victim may have drained between the scan and the
            // steal; rescan rather than give up.
            let stolen = self.queues[v]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back();
            if stolen.is_some() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return stolen;
            }
        }
    }
}

/// Worker count for in-process fan-out: the host's available
/// parallelism (1 when it cannot be read), read once per process —
/// the query walks cgroup files, too slow for every batched select.
/// [`schedule_chunks`] output never depends on it.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The work-stealing chunk scheduler shared by [`run_campaign`],
/// [`DatasetSpec::generate_with_faults`] and the selection layer's
/// per-configuration fits and batched queries.
///
/// Measures every chunk index in `chunks` with `measure` on `threads`
/// workers and hands the results to `commit` on the calling thread,
/// strictly in ascending chunk order. Chunks are dealt onto the worker
/// deques in descending `cost` (ties in index order), so the costliest
/// chunks start first and the tail of the run is made of cheap ones;
/// `cost` only orders the work and never reaches `commit`. With one
/// worker or at most one chunk, everything runs on the calling thread
/// in chunk order and no thread is spawned. The first commit error
/// stops the workers and is returned; otherwise the result is the
/// number of chunks stolen.
pub fn schedule_chunks<T: Send, E>(
    chunks: Range<u64>,
    threads: usize,
    cost: impl Fn(u64) -> u64,
    measure: impl Fn(u64) -> T + Sync,
    mut commit: impl FnMut(T) -> Result<(), E>,
) -> Result<u64, E> {
    if threads <= 1 || chunks.end.saturating_sub(chunks.start) <= 1 {
        for index in chunks {
            commit(measure(index))?;
        }
        return Ok(0);
    }
    let mut order: Vec<u64> = chunks.clone().collect();
    order.sort_by_key(|&c| std::cmp::Reverse(cost(c)));
    let workers = threads.min(order.len());
    let queues = StealQueues::deal(&order, workers);
    let mut result = Ok(());
    let (tx, rx) = mpsc::channel::<(u64, T)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let measure = &measure;
            scope.spawn(move || {
                while let Some(index) = queues.next(w) {
                    // A send error means the committer stopped
                    // (commit failure); stop measuring.
                    if tx.send((index, measure(index))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Committer: buffer out-of-order chunks, commit in order and
        // drop each one as soon as it is committed.
        let mut pending: BTreeMap<u64, T> = BTreeMap::new();
        let mut next = chunks.start;
        'commit: while let Ok((index, chunk)) = rx.recv() {
            pending.insert(index, chunk);
            while let Some(chunk) = pending.remove(&next) {
                if let Err(e) = commit(chunk) {
                    result = Err(e);
                    break 'commit;
                }
                next += 1;
            }
        }
        // Dropping rx unblocks any worker parked in send().
        drop(rx);
    });
    result.map(|()| queues.steals.load(Ordering::Relaxed))
}

/// Records and accounting folded from chunks in commit order.
#[derive(Default)]
pub(crate) struct Tally {
    /// Measured records, in canonical cell order.
    pub records: Vec<Record>,
    /// Merged fault accounting.
    pub faults: FaultSummary,
    /// Simulated benchmark time consumed, picoseconds.
    pub consumed_picos: u64,
}

impl Tally {
    /// Fold in the next chunk.
    pub fn add(&mut self, chunk: &ChunkData) {
        self.records.extend(chunk.to_records());
        self.faults.merge(&chunk.summary());
        self.consumed_picos += chunk.consumed_picos;
    }
}

/// Everything one chunk's measurement depends on. [`ChunkJob::measure`]
/// is a pure function of these fields and the chunk index — the
/// determinism anchor.
pub(crate) struct ChunkJob<'a> {
    /// The canonical cell order.
    pub grid: CellGrid,
    /// The library's configurations for the collective, by uid.
    pub configs: &'a [AlgorithmConfig],
    /// Machine the grid is simulated on.
    pub machine: &'a Machine,
    /// Campaign seed (the noise and fault streams hang off it).
    pub seed: u64,
    /// The ReproMPI loop.
    pub bench: &'a BenchConfig,
    /// Fault plan, if any.
    pub plan: Option<&'a FaultPlan>,
    /// Retry policy for failed attempts.
    pub retry: &'a RetryPolicy,
    /// Cells per chunk (>= 1).
    pub chunk_size: u64,
}

impl ChunkJob<'_> {
    /// Number of chunks the grid is cut into.
    pub fn chunks(&self) -> u64 {
        self.grid.len().div_ceil(self.chunk_size)
    }

    /// Measure one chunk: the contiguous cell-id range
    /// `[index·chunk_size, min((index+1)·chunk_size, |grid|))`, walked
    /// in canonical order, with one `measure` span and one
    /// [`MakespanMemo`] per topology run. The memo is dropped when its
    /// run ends, so it never outlives the cells that can hit it.
    pub fn measure(&self, index: u64) -> MeasuredChunk {
        let noise = NoiseModel::default();
        let start = index * self.chunk_size;
        let end = (start + self.chunk_size).min(self.grid.len());
        let mut chunk = ChunkData { index, start, ..ChunkData::default() };
        let mut sim_reused = 0;
        let mut id = start;
        while id < end {
            // One memo per (nodes, ppn) run — cells are topo-major, so
            // equal-topology cells are contiguous within the chunk.
            let head = self.grid.cell(id);
            let mut span = mpcp_obs::span("measure")
                .attr("nodes", head.nodes)
                .attr("ppn", head.ppn);
            let run_start = id;
            let topo = Topology::new(head.nodes, head.ppn);
            let mut memo = MakespanMemo::new(&self.machine.model, &topo);
            while id < end {
                let cell = self.grid.cell(id);
                if cell.nodes != head.nodes || cell.ppn != head.ppn {
                    break;
                }
                let cfg = &self.configs[cell.uid as usize];
                chunk.nodes.push(cell.nodes);
                chunk.ppn.push(cell.ppn);
                chunk.msizes.push(cell.msize);
                chunk.uids.push(cell.uid);
                let measured = measure_grid_cell(
                    &mut memo, cfg, cell, self.seed, self.bench, &noise, self.plan, self.retry,
                );
                match measured {
                    CellMeasurement::Measured { record, result } => {
                        chunk.fates.push(fate::OK);
                        chunk.alg_ids.push(record.alg_id);
                        chunk.excluded.push(u8::from(record.excluded));
                        chunk.runtimes.push(record.runtime);
                        chunk.bases.push(record.base);
                        chunk.reps.push(record.reps);
                        chunk.retries += u64::from(result.attempts - 1);
                        chunk.retry_picos += result.retry_overhead.picos();
                        chunk.consumed_picos += result.consumed.picos();
                    }
                    CellMeasurement::Lost(result) => {
                        chunk.fates.push(match result.outcome {
                            crate::fault::CellOutcome::TimedOut => fate::TIMED_OUT,
                            _ => fate::FAILED,
                        });
                        chunk.retries += u64::from(result.attempts - 1);
                        chunk.retry_picos += result.retry_overhead.picos();
                        chunk.consumed_picos += result.consumed.picos();
                    }
                    CellMeasurement::SimError(e) => {
                        // A broken cell must not abort the grid: count
                        // it and move on.
                        chunk.fates.push(fate::SIM_ERROR);
                        eprintln!(
                            "warning: cell {} ({} n={} ppn={} m={}): {e}",
                            cell.id,
                            cfg.label(),
                            cell.nodes,
                            cell.ppn,
                            cell.msize
                        );
                    }
                }
                id += 1;
            }
            mpcp_obs::counter_add!("bench.sim_reused", memo.reused());
            sim_reused += memo.reused();
            span.set_attr("cells", id - run_start);
            span.set_attr("sims", memo.sims());
            span.set_attr("reused", memo.reused());
        }
        MeasuredChunk { data: chunk, sim_reused }
    }
}

/// A measured chunk plus how many of its cells reused the makespan of
/// an identical, already simulated schedule.
pub(crate) struct MeasuredChunk {
    /// The chunk's cells, as committed.
    pub data: ChunkData,
    /// Cells whose makespan came from the memo instead of a simulation.
    pub sim_reused: u64,
}

/// Run (or resume) a campaign over `spec`'s grid into the store at
/// `store_path`.
///
/// With `cfg.resume` the store is opened and every committed chunk is
/// recovered (a torn tail from a crash is truncated away); otherwise
/// the file is created fresh. The remaining chunks are measured on
/// `cfg.threads` work-stealing workers and committed strictly in chunk
/// order, so the final file is byte-identical regardless of thread
/// count or interruption history.
pub fn run_campaign(
    spec: &DatasetSpec,
    library: &MpiLibrary,
    bench: &BenchConfig,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    cfg: &CampaignConfig,
    store_path: &Path,
) -> Result<CampaignReport, StoreError> {
    let threads = cfg.threads.max(1);
    let job = ChunkJob {
        grid: spec.cell_grid(library),
        configs: library.configs(spec.coll),
        machine: &spec.machine,
        seed: spec.seed,
        bench,
        plan,
        retry,
        chunk_size: cfg.checkpoint_every.max(1),
    };
    let header = StoreHeader::new(
        spec.id,
        spec.coll.mpi_name(),
        spec.lib.name(),
        spec.lib.version(),
        &spec.machine.name,
        spec.seed,
        spec.nodes.clone(),
        spec.ppn.clone(),
        spec.msizes.clone(),
        job.configs.len(),
        job.chunk_size,
        bench,
        retry,
        plan,
    );
    let cells_total = job.grid.len();
    let chunks_total = header.total_chunks();

    let mut span = mpcp_obs::span("campaign.run")
        .attr("dataset", spec.id)
        .attr("threads", threads)
        .attr("chunks", chunks_total);
    let wall = mpcp_obs::maybe_now();

    let (mut store, resumed) = if cfg.resume {
        CampaignStore::open_or_create(store_path, header)?
    } else {
        (CampaignStore::create(store_path, header)?, Vec::new())
    };
    let chunks_resumed = resumed.len() as u64;
    let cells_resumed = store.cells_done();
    mpcp_obs::counter_add!("campaign.cells_resumed", cells_resumed);

    let mut tally = Tally::default();
    for chunk in &resumed {
        tally.add(chunk);
    }

    // Chunks are measured in index order, so the committed prefix — the
    // part a crash keeps — grows steadily.
    let steals = schedule_chunks(
        chunks_resumed..chunks_total,
        threads,
        |_| 0,
        |index| {
            let mut chunk_span = mpcp_obs::span("campaign.chunk").attr("index", index);
            let chunk = job.measure(index).data;
            chunk_span.set_attr("cells", chunk.cells());
            chunk_span.set_attr("ok", chunk.ok_cells());
            chunk
        },
        |chunk| {
            store.append(&chunk)?;
            mpcp_obs::counter_add!("campaign.chunks", 1);
            mpcp_obs::counter_add!("campaign.cells", chunk.cells());
            tally.add(&chunk);
            Ok::<(), StoreError>(())
        },
    )?;
    mpcp_obs::counter_add!("campaign.steals", steals);

    span.set_attr("records", tally.records.len());
    span.set_attr("steals", steals);
    span.set_attr("cells_resumed", cells_resumed);
    if let Some(t0) = wall {
        let secs = t0.elapsed().as_secs_f64();
        let fresh = cells_total - cells_resumed;
        if secs > 0.0 && fresh > 0 {
            mpcp_obs::gauge_set!("campaign.cells_per_sec", fresh as f64 / secs);
        }
    }

    Ok(CampaignReport {
        records: tally.records,
        faults: tally.faults,
        total_bench: SimTime(tally.consumed_picos),
        cells_total,
        cells_resumed,
        chunks_total,
        chunks_resumed,
        steals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpcp_campaign_{name}_{}", std::process::id()))
    }

    #[test]
    fn campaign_matches_the_sequential_generator() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        let path = tmp("seq_equiv");
        let cfg = CampaignConfig { threads: 2, checkpoint_every: 5, resume: false };
        let report = run_campaign(
            &spec,
            &lib,
            &bench,
            None,
            &RetryPolicy::default(),
            &cfg,
            &path,
        )
        .unwrap();
        let direct = spec.generate(&lib, &bench);
        assert_eq!(report.records, direct.records);
        assert_eq!(report.faults, direct.faults);
        assert_eq!(report.total_bench, direct.total_bench);
        assert_eq!(report.cells_total, spec.sample_count(&lib) as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scheduler_commits_every_chunk_once_in_order_at_any_thread_count() {
        // Skewed: the 128-rank topology costs far more than the 2-rank
        // one, so workers finish their deques at different times and
        // steal.
        let spec = DatasetSpec {
            nodes: vec![2, 16],
            ppn: vec![1, 8],
            msizes: vec![16, 4 << 10],
            ..DatasetSpec::tiny_for_tests()
        };
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        let plan = FaultPlan { timeout_prob: 0.05, ..FaultPlan::uniform(0.2, 5) };
        let retry = RetryPolicy::no_retries();
        let job = ChunkJob {
            grid: spec.cell_grid(&lib),
            configs: lib.configs(spec.coll),
            machine: &spec.machine,
            seed: spec.seed,
            bench: &bench,
            plan: Some(&plan),
            retry: &retry,
            chunk_size: spec.msizes.len() as u64,
        };
        let run = |threads: usize| {
            let mut committed: Vec<ChunkData> = Vec::new();
            let Ok(_steals) = schedule_chunks(
                0..job.chunks(),
                threads,
                |index| u64::from(job.grid.cell(index * job.chunk_size).nodes),
                |index| job.measure(index).data,
                |chunk| {
                    committed.push(chunk);
                    Ok::<(), std::convert::Infallible>(())
                },
            );
            committed
        };
        let bits = |chunks: &[ChunkData]| -> Vec<u64> {
            chunks
                .iter()
                .flat_map(|c| c.runtimes.iter().chain(&c.bases))
                .map(|v| v.to_bits())
                .collect()
        };
        let base = run(1);
        for threads in [1usize, 2, 3, 8] {
            let chunks = run(threads);
            let indices: Vec<u64> = chunks.iter().map(|c| c.index).collect();
            assert_eq!(indices, (0..job.chunks()).collect::<Vec<_>>(), "{threads} threads");
            let mut summary = FaultSummary::default();
            for c in &chunks {
                summary.merge(&c.summary());
            }
            assert!(summary.cells_ok > 0 && summary.cells_failed > 0, "plan must be lossy");
            // Measured + lost + sim-error cells: every cell exactly once.
            assert_eq!(summary.total() as u64, job.grid.len(), "{threads} threads");
            assert_eq!(chunks, base, "{threads}-thread chunks differ from 1-thread");
            assert_eq!(bits(&chunks), bits(&base), "{threads} threads");
        }
    }

    #[test]
    fn resume_on_a_complete_store_is_a_no_op() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        let path = tmp("noop_resume");
        let cfg = CampaignConfig { threads: 1, checkpoint_every: 7, resume: false };
        let first = run_campaign(&spec, &lib, &bench, None, &RetryPolicy::default(), &cfg, &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let again = run_campaign(
            &spec,
            &lib,
            &bench,
            None,
            &RetryPolicy::default(),
            &CampaignConfig { resume: true, ..cfg },
            &path,
        )
        .unwrap();
        assert_eq!(again.cells_resumed, again.cells_total);
        assert_eq!(again.chunks_resumed, again.chunks_total);
        assert_eq!(again.records, first.records);
        assert_eq!(again.faults, first.faults);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_size_one_and_oversized_both_work() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        for (name, every) in [("one", 1u64), ("huge", 10_000u64)] {
            let path = tmp(name);
            let cfg = CampaignConfig { threads: 3, checkpoint_every: every, resume: false };
            let report =
                run_campaign(&spec, &lib, &bench, None, &RetryPolicy::default(), &cfg, &path)
                    .unwrap();
            assert_eq!(report.records.len(), spec.sample_count(&lib));
            std::fs::remove_file(&path).ok();
        }
    }

    /// A d2-shaped miniature: Open MPI allreduce on Hydra, with message
    /// sizes whose per-rank blocks make segmented rings collapse onto
    /// the plain ring.
    fn d2_mini() -> DatasetSpec {
        DatasetSpec {
            nodes: vec![2, 4],
            ppn: vec![1, 4],
            msizes: vec![16, 1 << 10, 64 << 10],
            ..DatasetSpec::d2()
        }
    }

    /// The grid's records with one fresh, unshared simulation per cell.
    fn unmemoised_records(spec: &DatasetSpec, lib: &MpiLibrary, bench: &BenchConfig) -> Vec<Record> {
        let configs = lib.configs(spec.coll);
        let noise = NoiseModel::default();
        let mut records = Vec::new();
        for cell in spec.cell_grid(lib).iter() {
            let topo = Topology::new(cell.nodes, cell.ppn);
            let cfg = &configs[cell.uid as usize];
            let progs = cfg.build(&topo, cell.msize);
            let base = mpcp_simnet::Simulator::new(&spec.machine.model, &topo)
                .run(&progs)
                .unwrap()
                .makespan();
            let mut stream =
                crate::noise::cell_stream(spec.seed, cell.uid, cell.nodes, cell.ppn, cell.msize);
            let result = crate::fault::measure_cell(
                base,
                bench,
                &noise,
                &mut stream,
                None,
                &RetryPolicy::default(),
                (cell.uid, cell.nodes, cell.ppn, cell.msize),
            );
            let crate::fault::CellOutcome::Ok(m) = result.outcome else {
                panic!("no fault plan, yet cell {} was lost", cell.id);
            };
            records.push(Record {
                nodes: cell.nodes,
                ppn: cell.ppn,
                msize: cell.msize,
                uid: cell.uid,
                alg_id: cfg.alg_id,
                excluded: cfg.excluded,
                runtime: m.median_secs,
                base: m.base.as_secs_f64(),
                reps: m.reps,
            });
        }
        records
    }

    #[test]
    fn memoised_generate_equals_one_simulation_per_cell() {
        let bits = |records: &[Record]| -> Vec<(u64, u64, u32)> {
            records.iter().map(|r| (r.runtime.to_bits(), r.base.to_bits(), r.reps)).collect()
        };
        let bench = BenchConfig::quick();
        for spec in [DatasetSpec::tiny_for_tests(), d2_mini()] {
            let lib = spec.library(None);
            let expected = unmemoised_records(&spec, &lib, &bench);
            let got = spec.generate(&lib, &bench).records;
            assert_eq!(got, expected, "{}", spec.id);
            assert_eq!(bits(&got), bits(&expected), "{}", spec.id);
        }
    }

    #[test]
    fn reuse_count_equals_the_brute_force_duplicate_count() {
        let spec = d2_mini();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        let retry = RetryPolicy::default();
        let configs = lib.configs(spec.coll);
        let grid = spec.cell_grid(&lib);
        // Cells whose programs equal an earlier cell's in the same
        // topology group (the memo's scope), found by `==` alone.
        let mut duplicates = 0u64;
        for g in 0..grid.topo_groups() {
            let (nodes, ppn) = grid.group(g);
            let topo = Topology::new(nodes, ppn);
            let mut seen: Vec<Vec<mpcp_simnet::Program>> = Vec::new();
            for cell in grid.group_cells(g) {
                let progs = configs[cell.uid as usize].build(&topo, cell.msize);
                if seen.contains(&progs) {
                    duplicates += 1;
                } else {
                    seen.push(progs);
                }
            }
        }
        assert!(duplicates > 0, "the grid must hold duplicate schedules");
        let job = ChunkJob {
            chunk_size: grid.group_len(),
            grid,
            configs,
            machine: &spec.machine,
            seed: spec.seed,
            bench: &bench,
            plan: None,
            retry: &retry,
        };
        let reused: u64 = (0..job.chunks()).map(|i| job.measure(i).sim_reused).sum();
        assert_eq!(reused, duplicates);
    }
}
