//! The Table IV pipeline, driven through the layers' public calls:
//! grid generation, one selector per learner × training split, and
//! evaluation against the library default.
//!
//! Generation runs two ways. [`generate`] is the program's own
//! `DatasetSpec::generate`. [`traced_walk`] walks the same grid cell by
//! cell through the calls `generate` is made of —
//! `AlgorithmConfig::build`, `Simulator::run`, `noise::cell_stream` and
//! `fault::measure_cell` — with a span around each, over the same
//! static split of topology groups across worker threads. Its records
//! must equal `generate`'s bit for bit; the traced run checks that.

use std::ops::Range;
use std::time::Instant;

use mpcp_benchmark::fault::measure_cell;
use mpcp_benchmark::noise::cell_stream;
use mpcp_benchmark::{BenchConfig, CellOutcome, DatasetSpec, NoiseModel, Record, RetryPolicy};
use mpcp_collectives::MpiLibrary;
use mpcp_core::splits::{self, Split};
use mpcp_core::{
    evaluate, mean_speedup, ArtifactMeta, Selector, SelectorArtifact, TrainOptions, TrainReport,
};
use mpcp_ml::Learner;
use mpcp_simnet::{Simulator, Topology};

/// A dataset ready to run: spec, library, benchmark loop and split.
pub struct Prep {
    /// The grid, with the workload seed as its noise seed.
    pub spec: DatasetSpec,
    /// The library under test with its default decision logic.
    pub library: MpiLibrary,
    /// The ReproMPI loop settings of the paper for the machine.
    pub bench: BenchConfig,
    /// Table III node split for the machine.
    pub split: Split,
}

impl Prep {
    /// Build everything `spec` needs before generation.
    pub fn new(spec: DatasetSpec) -> Prep {
        let library = spec.library(None);
        let bench = BenchConfig::paper_default(&spec.machine.name);
        let split = splits::paper_split(&spec.machine.name);
        Prep {
            spec,
            library,
            bench,
            split,
        }
    }

    fn nodes_in_grid(&self, nodes: &[u32]) -> Vec<u32> {
        nodes
            .iter()
            .copied()
            .filter(|n| self.spec.nodes.contains(n))
            .collect()
    }

    /// Training records of the large or the small Table III split.
    pub fn train_records(&self, records: &[Record], small: bool) -> Vec<Record> {
        let nodes = if small {
            &self.split.train_small
        } else {
            &self.split.train_full
        };
        splits::filter_records(records, &self.nodes_in_grid(nodes))
    }

    /// Records of the unseen test node counts.
    pub fn test_records(&self, records: &[Record]) -> Vec<Record> {
        splits::filter_records(records, &self.nodes_in_grid(&self.split.test))
    }

    /// The manifest stamped into this dataset's artifacts. Its fields
    /// are fixed so that artifact sizes depend on the models alone.
    pub fn artifact_meta(&self) -> ArtifactMeta {
        ArtifactMeta {
            collective: self.spec.coll,
            library: format!("{} {}", self.spec.lib.name(), self.spec.lib.version()),
            machine: self.spec.machine.name.to_string(),
            git_sha: "perfbench".to_string(),
            seed: Some(self.spec.seed),
            min_samples: TrainOptions::default().min_samples as u64,
            created_unix: 0,
        }
    }
}

/// Process CPU seconds (user + system) so far, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / crate::CLK_TCK
}

/// One generation of the grid.
pub struct Generated {
    /// Measured cells in canonical order.
    pub records: Vec<Record>,
    /// Cells lost to faults or simulation errors.
    pub lost: u64,
    /// Wall time of the generation call.
    pub wall_s: f64,
    /// Process CPU time during it.
    pub cpu_s: f64,
}

/// Generate the grid with `DatasetSpec::generate`.
pub fn generate(prep: &Prep) -> Generated {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let data = prep.spec.generate(&prep.library, &prep.bench);
    let wall_s = t0.elapsed().as_secs_f64();
    let f = &data.faults;
    Generated {
        records: data.records,
        lost: (f.cells_failed + f.cells_timed_out + f.sim_errors) as u64,
        wall_s,
        cpu_s: process_cpu_s() - cpu0,
    }
}

/// Exact counts of the traced walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Simulator events processed.
    pub events: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes sent between nodes.
    pub bytes_inter: u64,
    /// Bytes sent within nodes.
    pub bytes_intra: u64,
    /// Program instructions built.
    pub instrs: u64,
    /// Cells lost (the walk runs without a fault plan, so only
    /// simulation errors).
    pub lost: u64,
}

impl WalkCounts {
    fn add(&mut self, o: &WalkCounts) {
        self.events += o.events;
        self.messages += o.messages;
        self.bytes_inter += o.bytes_inter;
        self.bytes_intra += o.bytes_intra;
        self.instrs += o.instrs;
        self.lost += o.lost;
    }
}

/// Result of [`traced_walk`].
pub struct Walked {
    /// Measured cells in canonical order.
    pub records: Vec<Record>,
    /// Exact counts over the grid.
    pub counts: WalkCounts,
    /// Wall time of the walk.
    pub wall_s: f64,
    /// Id of the `benchmark:generate` span (0 when tracing is off).
    pub generate_span: u64,
}

/// Walk the grid cell by cell, one span per layer call.
///
/// Topology groups are split into one contiguous chunk per worker
/// thread, as `DatasetSpec::generate` splits them; the first chunk runs
/// on the calling thread inside the `benchmark:generate` span and every
/// other chunk inside a `benchmark:worker` span on its own thread.
pub fn traced_walk(prep: &Prep) -> Walked {
    let grid = prep.spec.cell_grid(&prep.library);
    let groups = grid.topo_groups();
    let workers = crate::threads().min(groups.max(1));
    let chunk = groups.div_ceil(workers.max(1));
    let t0 = Instant::now();
    let gen = mpcp_obs::span("benchmark:generate")
        .attr("dataset", prep.spec.id)
        .attr("cells", grid.len());
    let gen_id = gen.id();
    let parts: Vec<(Vec<Record>, WalkCounts)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|t| {
                let range = (t * chunk).min(groups)..((t + 1) * chunk).min(groups);
                s.spawn(move || {
                    let _w = mpcp_obs::span("benchmark:worker").attr("generate", gen_id);
                    walk_groups(prep, range)
                })
            })
            .collect();
        let mut parts = vec![walk_groups(prep, 0..chunk.min(groups))];
        for h in handles {
            parts.push(h.join().expect("walk worker panicked"));
        }
        parts
    });
    drop(gen);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut counts = WalkCounts::default();
    for (r, c) in parts {
        records.extend(r);
        counts.add(&c);
    }
    Walked {
        records,
        counts,
        wall_s,
        generate_span: gen_id,
    }
}

fn walk_groups(prep: &Prep, groups: Range<usize>) -> (Vec<Record>, WalkCounts) {
    let spec = &prep.spec;
    let configs = prep.library.configs(spec.coll);
    let grid = spec.cell_grid(&prep.library);
    let noise = NoiseModel::default();
    let retry = RetryPolicy::default();
    let mut records = Vec::new();
    let mut counts = WalkCounts::default();
    for g in groups {
        let (nodes, ppn) = grid.group(g);
        let _group = mpcp_obs::span("benchmark:group")
            .attr("nodes", nodes)
            .attr("ppn", ppn);
        let topo = Topology::new(nodes, ppn);
        let sim = Simulator::new(&spec.machine.model, &topo);
        for cell in grid.group_cells(g) {
            let _cell = mpcp_obs::span("benchmark:cell").attr("cell", cell.id);
            let cfg = &configs[cell.uid as usize];
            let progs = {
                let _s = mpcp_obs::span("collectives:build").attr("cell", cell.id);
                cfg.build(&topo, cell.msize)
            };
            counts.instrs += progs.iter().map(|p| p.instrs().len() as u64).sum::<u64>();
            let run = {
                let _s = mpcp_obs::span("simnet:run").attr("cell", cell.id);
                sim.run(&progs)
            };
            let Ok(run) = run else {
                counts.lost += 1;
                continue;
            };
            counts.events += run.events;
            counts.messages += run.messages;
            counts.bytes_inter += run.bytes_inter;
            counts.bytes_intra += run.bytes_intra;
            let result = {
                let _s = mpcp_obs::span("benchmark:measure").attr("cell", cell.id);
                let mut stream = cell_stream(spec.seed, cell.uid, cell.nodes, cell.ppn, cell.msize);
                measure_cell(
                    run.makespan(),
                    &prep.bench,
                    &noise,
                    &mut stream,
                    None,
                    &retry,
                    (cell.uid, cell.nodes, cell.ppn, cell.msize),
                )
            };
            match result.outcome {
                CellOutcome::Ok(m) => records.push(Record {
                    nodes: cell.nodes,
                    ppn: cell.ppn,
                    msize: cell.msize,
                    uid: cell.uid,
                    alg_id: cfg.alg_id,
                    excluded: cfg.excluded,
                    runtime: m.median_secs,
                    base: m.base.as_secs_f64(),
                    reps: m.reps,
                }),
                CellOutcome::Failed | CellOutcome::TimedOut => counts.lost += 1,
            }
        }
    }
    (records, counts)
}

/// One Table IV entry: a learner trained on one split and evaluated.
pub struct Entry {
    /// Learner display name ("KNN", "GAM", "XGBoost").
    pub learner: &'static str,
    /// Trained on the small split.
    pub small: bool,
    /// Mean speed-up of the predicted over the default configuration.
    pub speedup: f64,
    /// The selector (decoded from its artifact when the stage encodes).
    pub selector: Selector,
    /// Its per-configuration coverage.
    pub report: TrainReport,
    /// Training records.
    pub rows: usize,
}

/// The model stage: every paper learner on both training splits.
pub struct ModelStage {
    /// Six entries: KNN, GAM, XGBoost × {large, small}.
    pub entries: Vec<Entry>,
    /// Wall time of the stage.
    pub wall_s: f64,
}

impl ModelStage {
    /// Mean of the entries' speed-ups.
    pub fn mean_speedup(&self) -> f64 {
        self.entries.iter().map(|e| e.speedup).sum::<f64>() / self.entries.len() as f64
    }

    /// Per-configuration models fitted.
    pub fn fitted(&self) -> u64 {
        self.entries.iter().map(|e| e.report.trained() as u64).sum()
    }

    /// The XGBoost selector of the small split, the one a deployment
    /// serves. On Bcast grids it is less than half the size of the large
    /// split's (6.6 MB against 15 MB on a 63-configuration grid), and
    /// serving the larger one slowed with other tenants' load on a
    /// shared host far more than the rest of the benchmark did.
    pub fn served(&self) -> &Entry {
        self.entries
            .iter()
            .find(|e| e.learner == "XGBoost" && e.small)
            .expect("the model stage always trains XGBoost on the small split")
    }
}

/// Train every paper learner on the large and the small split and
/// evaluate each on the test split. With `codec`, each selector is
/// encoded to artifact bytes and decoded again before evaluation, and
/// the decoded selector must predict bit-identically to the trained one.
pub fn model_stage(prep: &Prep, records: &[Record], codec: bool) -> Result<ModelStage, String> {
    let t0 = Instant::now();
    let test = prep.test_records(records);
    let configs = prep.library.configs(prep.spec.coll);
    let meta = prep.artifact_meta();
    let mut entries = Vec::with_capacity(6);
    for (name, learner) in Learner::paper_learners() {
        for small in [false, true] {
            let rows = prep.train_records(records, small);
            let key = name.to_ascii_lowercase();
            let (mut selector, report) = {
                let _s = mpcp_obs::span("ml:train")
                    .attr("learner", key.as_str())
                    .attr("small", u64::from(small))
                    .attr("rows", rows.len());
                Selector::train_with_report(&learner, &rows, configs, &TrainOptions::default())
                    .map_err(|e| format!("{name} training failed: {e}"))?
            };
            if codec {
                let bytes = {
                    let _s = mpcp_obs::span("ml:encode").attr("learner", key.as_str());
                    selector.to_artifact_bytes(&report, &meta)
                };
                let decoded = {
                    let _s = mpcp_obs::span("ml:decode").attr("learner", key.as_str());
                    SelectorArtifact::from_bytes(&bytes)
                }
                .map_err(|e| format!("{name} artifact does not decode: {e}"))?;
                check_same_predictions(&selector, &decoded.selector, prep, &test)
                    .map_err(|e| format!("{name} artifact round trip: {e}"))?;
                selector = decoded.selector;
            }
            let evals = {
                let _s = mpcp_obs::span("core:evaluate").attr("learner", key.as_str());
                evaluate(&selector, &test, &prep.library, prep.spec.coll)
            };
            let speedup = mean_speedup(&evals);
            if evals.is_empty() || !speedup.is_finite() || speedup <= 0.0 {
                return Err(format!(
                    "{name} ({}) evaluated {} instances to speed-up {speedup}",
                    if small { "small" } else { "large" },
                    evals.len()
                ));
            }
            entries.push(Entry {
                learner: name,
                small,
                speedup,
                selector,
                report,
                rows: rows.len(),
            });
        }
    }
    Ok(ModelStage {
        entries,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Check that `b` predicts every configuration of every test instance
/// exactly as `a` does.
fn check_same_predictions(
    a: &Selector,
    b: &Selector,
    prep: &Prep,
    test: &[Record],
) -> Result<(), String> {
    let instances = mpcp_core::RuntimeTable::new(test).instances(prep.spec.coll);
    for inst in &instances {
        let (pa, pb) = (a.predict_all(inst), b.predict_all(inst));
        let same = pa.len() == pb.len()
            && pa
                .iter()
                .zip(&pb)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
        if !same {
            return Err(format!("predictions differ at {inst}"));
        }
    }
    if instances.is_empty() {
        return Err("no test instances to compare on".to_string());
    }
    Ok(())
}
