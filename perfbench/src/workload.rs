//! The workloads and the metrics they report.
//!
//! Every workload runs the whole product path once or more: generate a
//! benchmark grid, fit every paper learner on both Table III training
//! splits, evaluate, then deploy the XGBoost selector of the small split
//! behind the wire daemon and query it. What differs is the grid and
//! which step is the timed phase:
//!
//! | workload | set-up | timed phase |
//! |---|---|---|
//! | `table4-allreduce` | spec, library, warm-up on a miniature grid | generate + fit + evaluate (d2 shape) |
//! | `serve-wire` | generate, fit, deploy | closed-loop wire queries |
//!
//! Steps outside the timed phase still report what they measured, so
//! every end-to-end metric exists on every workload (see README.md for
//! where each one comes from). They run between the repeats or slices
//! of the timed phase, so that every metric samples the whole run.
//!
//! With tracing on, the untraced run happens first and then one traced
//! pass over the same steps: the grid walked cell by cell, the model
//! stage, and the deployment, with a span around every layer call.

use std::time::{Duration, Instant};

use mpcp_benchmark::{DatasetSpec, Record};

use crate::golden;
use crate::pipeline::{generate, model_stage, traced_walk, ModelStage, Prep};
use crate::report::{Outcome, Samples};
use crate::serving::{Deployment, RequestStream, Stop, WireRun, HOT_SHARE, HOT_SHARE_ALT};
use crate::stats::{fast_rate, fast_time, median, percentile};
use crate::trace::Spans;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table IV pipeline on Open MPI Allreduce, Hydra, d2 shape.
    Table4Allreduce,
    /// Closed-loop wire queries against a served XGBoost selector.
    ServeWire,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Table4Allreduce, Workload::ServeWire];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Allreduce => "table4-allreduce",
            Workload::ServeWire => "serve-wire",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The golden digests of the workload, if it has any.
    pub fn golden(self) -> Option<&'static str> {
        match self {
            Workload::Table4Allreduce => Some(include_str!("../golden/table4-allreduce.txt")),
            Workload::ServeWire => None,
        }
    }

    /// The workload's grid, with `seed` as its noise seed.
    pub fn spec(self, scale: Scale, seed: u64) -> DatasetSpec {
        let (mut spec, max_ppn, max_msize) = match self {
            Workload::Table4Allreduce => (DatasetSpec::d2(), 8, 64 << 10),
            Workload::ServeWire => (DatasetSpec::d2(), 4, 64 << 10),
        };
        spec.id = self.name();
        spec.seed = seed;
        spec.ppn.retain(|&p| p <= max_ppn);
        spec.msizes.retain(|&m| m <= max_msize);
        if scale == Scale::Mini {
            // Training nodes of both splits plus one test node count.
            spec.nodes = vec![4, 7, 16];
            spec.ppn = vec![1, 4];
            spec.msizes = vec![16, 4 << 10];
        }
        spec
    }

    /// Whether the model stage encodes and decodes every selector.
    fn codec(self) -> bool {
        self == Workload::ServeWire
    }
}

/// Full size, or a miniature for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as defined.
    Full,
    /// Three node counts, two ppn, two message sizes.
    Mini,
}

impl Scale {
    /// How often set-up is repeated; `setup_s` is the median.
    fn setups(self, w: Workload) -> usize {
        match (self, w) {
            (Scale::Mini, _) => 2,
            // One set-up takes 50–100 ms here; the median of many keeps
            // single slow warm-ups out of the figure.
            (Scale::Full, Workload::Table4Allreduce) => 11,
            (Scale::Full, _) => 3,
        }
    }

    /// The most requests the traced pass sends.
    fn traced_requests(self) -> usize {
        match self {
            Scale::Full => 10_000,
            Scale::Mini => 200,
        }
    }
}

/// One invocation.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Noise seed of the grid and seed of the request stream.
    pub seed: u64,
    /// Length of the timed phase (at least one unit of work runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass.
    pub trace: bool,
    /// Full size or miniature.
    pub scale: Scale,
}

/// The untraced run: its end-to-end numbers and what the traced pass
/// compares against.
struct Untraced {
    outcome: Outcome,
    prep: Prep,
    /// Records of the program's own `DatasetSpec::generate`.
    records: Vec<Record>,
    /// Generation wall and CPU time (median over repeats).
    gen_wall_s: f64,
    gen_cpu_s: f64,
    /// Speed-ups of the model stage, in entry order.
    speedups: Vec<f64>,
    /// Whole-run forms of `pipeline_s` and `cells_per_s`.
    pipeline: Pipeline,
    /// Models fitted ÷ wall time over every model stage of the run.
    fits_per_s_run: f64,
    /// Replies ÷ wall time over the whole closed loop.
    select_qps_run: f64,
    /// Wall time of one unit of the timed phase, and the requests it
    /// sent (serve-wire only), for the tracing overhead.
    unit_s: f64,
    unit_requests: u64,
}

/// Run a workload. With `trace`, the returned metrics are the
/// per-layer ones of the traced pass; without, the end-to-end ones.
pub fn run(o: &Options) -> Result<Outcome, String> {
    let untraced = match o.workload {
        Workload::Table4Allreduce => table4(o)?,
        Workload::ServeWire => serve_wire(o)?,
    };
    if o.trace {
        traced(o, &untraced)
    } else {
        Ok(untraced.outcome)
    }
}

/// Repeat `f` the set-up count of times; the median time and the last
/// result. Each earlier result goes to `retire`, untimed, before the
/// next set-up starts.
fn set_up<T>(
    o: &Options,
    mut f: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..o.scale.setups(o.workload) {
        if let Some(prev) = last.take() {
            retire(prev)?;
        }
        let t0 = Instant::now();
        let v = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((median(&times), last.expect("set-up runs at least once")))
}

/// Drop an earlier set-up's result.
fn discard<T>(_: T) -> Result<(), String> {
    Ok(())
}

fn check_golden(o: &Options, records: &[Record], speedups: &[f64]) -> Result<(), String> {
    if o.scale != Scale::Full {
        return Ok(());
    }
    if let Some(text) = o.workload.golden() {
        if !golden::check(text, o.seed, records, speedups)? {
            eprintln!(
                "note: no golden line for seed {} of {}; checked the simulated makespans only",
                o.seed,
                o.workload.name()
            );
        }
    }
    Ok(())
}

fn speedups(models: &ModelStage) -> Vec<f64> {
    models.entries.iter().map(|e| e.speedup).collect()
}

/// `pipeline_s` and `cells_per_s` as gated (the fast tail of the
/// repeats) and over the whole run (mean time, all cells ÷ all time).
#[derive(Clone, Copy, Debug)]
struct Pipeline {
    pipeline_s: f64,
    cells_per_s: f64,
    pipeline_s_run: f64,
    cells_per_s_run: f64,
}

impl Pipeline {
    /// From repeated pipelines: the wall time of each, and the wall
    /// time and cell count of its generation.
    fn new(pipelines: &[f64], gens: &[(f64, usize)]) -> Pipeline {
        let rates: Vec<f64> = gens.iter().map(|g| g.1 as f64 / g.0).collect();
        let cells: usize = gens.iter().map(|g| g.1).sum();
        let gen_s: f64 = gens.iter().map(|g| g.0).sum();
        Pipeline {
            pipeline_s: fast_time(pipelines),
            cells_per_s: fast_rate(&rates),
            pipeline_s_run: pipelines.iter().sum::<f64>() / pipelines.len() as f64,
            cells_per_s_run: cells as f64 / gen_s,
        }
    }
}

/// Models fitted and wall time of one model stage.
type Fits = (u64, f64);

fn fits(models: &ModelStage) -> Fits {
    (models.fitted(), models.wall_s)
}

/// Most extra runs of the model stage on table4 and serve-wire, the
/// samples of `fits_per_s` besides the stages of the run itself; they
/// also take at most about a quarter of `--seconds` in all.
const EXTRA_FITS: usize = 30;

/// Run the model stage on `records` until `budget_s` has passed,
/// adding each stage to `extra` while it holds fewer than
/// [`EXTRA_FITS`].
fn extra_fits(
    prep: &Prep,
    records: &[Record],
    codec: bool,
    budget_s: f64,
    extra: &mut Vec<Fits>,
) -> Result<(), String> {
    let t0 = Instant::now();
    while extra.len() < EXTRA_FITS && t0.elapsed().as_secs_f64() < budget_s {
        extra.push(fits(&model_stage(prep, records, codec)?));
    }
    Ok(())
}

/// `fits_per_s` (90th percentile of the stages' rates) and the
/// whole-run rate (all models ÷ all stage time).
fn fit_rates(stages: &[Fits]) -> (f64, f64) {
    let rates: Vec<f64> = stages.iter().map(|&(n, s)| n as f64 / s).collect();
    let models: u64 = stages.iter().map(|s| s.0).sum();
    let wall: f64 = stages.iter().map(|s| s.1).sum();
    (fast_rate(&rates), models as f64 / wall)
}

/// The work that table4 does besides its timed phase, spread over it:
/// after each iteration, more model stages and a slice of closed-loop
/// queries against the deployed selector.
/// Interference on a shared host comes in stretches of seconds, so
/// samples drawn from the whole run make the fast tails of
/// `fits_per_s`, `select_qps` and `select_p50_us` steadier than the
/// same work done in one block after the timed phase.
struct Interleaved {
    dep: Deployment,
    stream: RequestStream,
    wire: WireRun,
    extra: Vec<Fits>,
}

impl Interleaved {
    /// Deploy the served entry of `models`.
    fn start(o: &Options, prep: &Prep, models: &ModelStage) -> Result<Interleaved, String> {
        Ok(Interleaved {
            dep: Deployment::start(models.served(), prep)?,
            stream: RequestStream::new(&prep.spec, o.seed, HOT_SHARE),
            wire: WireRun::default(),
            extra: Vec::new(),
        })
    }

    /// After an iteration that took `unit_s` (counting at most
    /// `--seconds`): model stages on `records` for a quarter of it, then
    /// queries for half of it.
    fn after(
        &mut self,
        o: &Options,
        prep: &Prep,
        records: &[Record],
        unit_s: f64,
    ) -> Result<(), String> {
        let share = unit_s.min(o.seconds);
        extra_fits(prep, records, false, share / 4.0, &mut self.extra)?;
        let stop = Stop::After(Duration::from_secs_f64(share / 2.0));
        self.dep
            .continue_loop(&mut self.stream, stop, &mut self.wire)
    }

    /// Stop the deployment and check its accounting; the queries' run
    /// and the extra model stages.
    fn finish(self) -> Result<(WireRun, Vec<Fits>), String> {
        self.dep.finish(&[&self.wire])?;
        Ok((self.wire, self.extra))
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn wire_metrics(run: &WireRun) -> [(&'static str, f64); 2] {
    [
        ("select_qps", run.select_qps()),
        ("select_p50_us", run.select_p50_us()),
    ]
}

fn table4(o: &Options) -> Result<Untraced, String> {
    // Set-up builds the spec and library, then warms up: one pass of the
    // pipeline over the miniature grid, so that lazy initialisation and
    // allocator growth are not timed.
    let (setup_s, prep) = set_up(
        o,
        || {
            let warm = Prep::new(o.workload.spec(Scale::Mini, o.seed));
            model_stage(&warm, &generate(&warm).records, false)?;
            Ok(Prep::new(o.workload.spec(o.scale, o.seed)))
        },
        discard,
    )?;
    let cells = prep.spec.sample_count(&prep.library) as u64;
    // Each iteration's data is dropped before the next runs, so memory
    // does not grow with the number of iterations. The timed phase ends
    // once the iterations add up to `--seconds`.
    let mut units: Vec<f64> = Vec::new();
    let mut gens: Vec<(f64, usize)> = Vec::new();
    let mut stages: Vec<Fits> = Vec::new();
    let mut first: Option<(u64, Vec<f64>)> = None;
    let mut side: Option<Interleaved> = None;
    let (gen, models) = loop {
        let t = Instant::now();
        let gen = generate(&prep);
        let models = model_stage(&prep, &gen.records, false)?;
        let unit_s = t.elapsed().as_secs_f64();
        units.push(unit_s);
        gens.push((gen.wall_s, gen.records.len()));
        stages.push(fits(&models));
        let digest = (golden::records_digest(&gen.records), speedups(&models));
        if *first.get_or_insert_with(|| digest.clone()) != digest {
            return Err("two iterations of the same pipeline disagree".to_string());
        }
        let side = match &mut side {
            Some(side) => side,
            None => side.insert(Interleaved::start(o, &prep, &models)?),
        };
        side.after(o, &prep, &gen.records, unit_s)?;
        if units.iter().sum::<f64>() >= o.seconds {
            break (gen, models);
        }
    };
    check_golden(o, &gen.records, &speedups(&models))?;
    let (wire, extra) = side.expect("the loop runs at least once").finish()?;
    stages.extend(extra);
    let (fits_per_s, fits_per_s_run) = fit_rates(&stages);
    let n = units.len() as u64;
    let pipeline = Pipeline::new(&units, &gens);
    let mut metrics = vec![
        ("setup_s", setup_s),
        ("pipeline_s", pipeline.pipeline_s),
        ("cells_per_s", pipeline.cells_per_s),
        ("fits_per_s", fits_per_s),
    ];
    metrics.extend(wire_metrics(&wire));
    metrics.push(("speedup_vs_default", models.mean_speedup()));
    metrics.push(("peak_rss_mb", peak_rss_mb()));
    let outcome = Outcome {
        attempted: cells * n,
        failed: gen.lost * n,
        metrics,
        samples: Samples {
            cells: gen.records.len() as u64 * n,
            fits: models.fitted() * n,
            requests: wire.rtt_ns.len() as u64,
        },
    };
    Ok(Untraced {
        outcome,
        speedups: speedups(&models),
        pipeline,
        fits_per_s_run,
        select_qps_run: wire.run_qps(),
        unit_s: gen.wall_s + models.wall_s,
        gen_wall_s: gen.wall_s,
        gen_cpu_s: gen.cpu_s,
        records: gen.records,
        unit_requests: 0,
        prep,
    })
}

fn serve_wire(o: &Options) -> Result<Untraced, String> {
    let mut stages = Vec::new();
    let (setup_s, (prep, gen, models, mut dep)) = set_up(
        o,
        || {
            let prep = Prep::new(o.workload.spec(o.scale, o.seed));
            let t = Instant::now();
            let gen = generate(&prep);
            let models = model_stage(&prep, &gen.records, true)?;
            stages.push((
                t.elapsed().as_secs_f64(),
                gen.wall_s,
                gen.cpu_s,
                gen.records.len(),
                fits(&models),
            ));
            let dep = Deployment::start(models.served(), &prep)?;
            Ok((prep, gen, models, dep))
        },
        |(.., idle)| idle.finish(&[]).map(drop),
    )?;
    // The closed loop runs in slices. After each, one more pipeline and
    // more model stages run (as set-up does, untimed by the loop), so
    // that the samples of `pipeline_s`, `cells_per_s` and `fits_per_s`
    // span the whole run; see `Interleaved`.
    let mut stream = RequestStream::new(&prep.spec, o.seed, HOT_SHARE);
    let mut run = WireRun::default();
    let mut extra = Vec::new();
    for _ in 0..SERVE_SLICES {
        let slice = Duration::from_secs_f64(o.seconds / SERVE_SLICES as f64);
        dep.continue_loop(&mut stream, Stop::After(slice), &mut run)?;
        let t = Instant::now();
        let again = generate(&prep);
        let stage = model_stage(&prep, &again.records, true)?;
        stages.push((
            t.elapsed().as_secs_f64(),
            again.wall_s,
            again.cpu_s,
            again.records.len(),
            fits(&stage),
        ));
        if speedups(&stage) != speedups(&models) {
            return Err("two pipelines on the same grid disagree".to_string());
        }
        let budget = o.seconds / (4 * SERVE_SLICES) as f64;
        extra_fits(&prep, &gen.records, true, budget, &mut extra)?;
    }
    let fin = dep.finish(&[&run])?;
    let mut fit_stages: Vec<Fits> = stages.iter().map(|s| s.4).collect();
    fit_stages.extend(extra);
    let (fits_per_s, fits_per_s_run) = fit_rates(&fit_stages);
    let col = |i: usize| -> Vec<f64> { stages.iter().map(|s| [s.0, s.1, s.2][i]).collect() };
    let gens: Vec<(f64, usize)> = stages.iter().map(|s| (s.1, s.3)).collect();
    let pipeline = Pipeline::new(&col(0), &gens);
    let mut metrics = vec![
        ("setup_s", setup_s),
        ("pipeline_s", pipeline.pipeline_s),
        ("cells_per_s", pipeline.cells_per_s),
        ("fits_per_s", fits_per_s),
    ];
    metrics.extend(wire_metrics(&run));
    metrics.push(("speedup_vs_default", models.mean_speedup()));
    metrics.push(("peak_rss_mb", peak_rss_mb()));
    let outcome = Outcome {
        attempted: run.sent,
        failed: fin.net.shed + fin.net.errors,
        metrics,
        samples: Samples {
            cells: gen.records.len() as u64,
            fits: models.fitted(),
            requests: run.rtt_ns.len() as u64,
        },
    };
    Ok(Untraced {
        outcome,
        records: gen.records,
        gen_wall_s: median(&col(1)),
        gen_cpu_s: median(&col(2)),
        speedups: speedups(&models),
        pipeline,
        fits_per_s_run,
        select_qps_run: run.run_qps(),
        unit_s: run.wall_s,
        unit_requests: run.sent,
        prep,
    })
}

/// Slices of the serve-wire closed loop.
const SERVE_SLICES: usize = 3;

/// `select_qps` of a fresh deployment of `models` at the second hot
/// share, untraced, over at most `--seconds` and 5 s.
fn alt_hot_share_qps(o: &Options, prep: &Prep, models: &ModelStage) -> Result<f64, String> {
    let mut dep = Deployment::start(models.served(), prep)?;
    let mut stream = RequestStream::new(&prep.spec, o.seed, HOT_SHARE_ALT);
    let stop = Stop::After(Duration::from_secs_f64(o.seconds.min(5.0)));
    let run = dep.closed_loop(&mut stream, stop)?;
    dep.finish(&[&run])?;
    Ok(run.select_qps())
}

/// The traced pass: walk, model stage and deployment with a span around
/// every layer call; returns the per-layer metrics.
fn traced(o: &Options, u: &Untraced) -> Result<Outcome, String> {
    let prep = &u.prep;
    let requests = match o.workload {
        Workload::ServeWire => (u.unit_requests as usize).min(o.scale.traced_requests()),
        _ => o.scale.traced_requests(),
    };
    mpcp_obs::set_enabled(true);
    let pass = (|| {
        let walk = traced_walk(prep);
        let models = model_stage(prep, &walk.records, o.workload.codec())?;
        let mut dep = Deployment::start(models.served(), prep)?;
        let mut stream = RequestStream::new(&prep.spec, o.seed, HOT_SHARE);
        let wire = dep.closed_loop(&mut stream, Stop::Requests(requests))?;
        let sent = RequestStream::replay(&prep.spec, o.seed, HOT_SHARE, wire.sent);
        let local = dep.local_selects(&sent)?;
        let core = dep.core_selects(&sent)?;
        let artifact_bytes = dep.artifact_bytes();
        let fin = dep.finish(&[&wire])?;
        Ok::<_, String>((walk, models, wire, local, core, artifact_bytes, fin))
    })();
    mpcp_obs::set_enabled(false);
    let spans = Spans::collect();
    let (walk, models, mut wire, local, core, artifact_bytes, fin) = pass?;
    let alt = alt_hot_share_qps(o, prep, &models)?;

    // The walk must reproduce DatasetSpec::generate bit for bit, and the
    // model stage on its records the untraced speed-ups.
    if walk.records.len() != u.records.len()
        || golden::records_digest(&walk.records) != golden::records_digest(&u.records)
    {
        return Err(format!(
            "the traced walk produced {} records that differ from DatasetSpec::generate's {}",
            walk.records.len(),
            u.records.len()
        ));
    }
    if speedups(&models) != u.speedups {
        return Err("the traced model stage disagrees with the untraced one".to_string());
    }
    // Self times of the walk's layers add up to its span time.
    let mut roots = vec![walk.generate_span];
    roots.extend(spans.ids("benchmark:worker"));
    let (self_s, roots_s, nspans) = spans.self_times(&roots);
    let self_sum: f64 = ["simnet", "collectives", "benchmark"]
        .iter()
        .map(|l| self_s.get(*l).copied().unwrap_or(0.0))
        .sum();
    let other_layers = self_s
        .keys()
        .any(|l| !["simnet", "collectives", "benchmark"].contains(&l.as_str()));
    if other_layers || (self_sum - roots_s).abs() > 4e-9 * nspans as f64 {
        return Err(format!(
            "layer self times {self_sum} s do not add up to the generate span time {roots_s} s"
        ));
    }

    let overhead = match o.workload {
        Workload::Table4Allreduce => (walk.wall_s + models.wall_s) / u.unit_s,
        Workload::ServeWire => {
            (wire.wall_s / wire.sent as f64) / (u.unit_s / u.unit_requests as f64)
        }
    };
    let run_us: Vec<f64> = spans
        .durations_s("simnet:run")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let run_s: f64 = run_us.iter().sum::<f64>() * 1e-6;
    let groups = spans.durations_s("benchmark:group");
    let c = walk.counts;
    let (rtt_p50, rtt_p99) = wire.rtt_p50_p99_us();
    let fit = |learner: &str| spans.total_s_where("ml:train", "learner", learner);
    let failed_frac = u.outcome.failed as f64 / u.outcome.attempted as f64;
    let metrics = vec![
        ("simnet.run_s", run_s),
        ("simnet.events", c.events as f64),
        ("simnet.messages", c.messages as f64),
        ("simnet.bytes_inter", c.bytes_inter as f64),
        ("simnet.bytes_intra", c.bytes_intra as f64),
        ("simnet.events_per_s", c.events as f64 / run_s),
        ("simnet.run_us.p50", median(&run_us)),
        ("simnet.run_us.p99", percentile(&run_us, 99.0)),
        ("collectives.build_s", spans.total_s("collectives:build")),
        ("collectives.instrs", c.instrs as f64),
        ("benchmark.generate_s", u.gen_wall_s),
        ("benchmark.measure_s", spans.total_s("benchmark:measure")),
        (
            "benchmark.reps",
            walk.records.iter().map(|r| f64::from(r.reps)).sum(),
        ),
        (
            "benchmark.cpu_util",
            u.gen_cpu_s / (u.gen_wall_s * crate::threads() as f64),
        ),
        (
            "benchmark.group_s_max",
            groups.iter().copied().fold(0.0, f64::max),
        ),
        (
            "benchmark.group_s_mean",
            groups.iter().sum::<f64>() / groups.len() as f64,
        ),
        ("ml.fit_s.knn", fit("knn")),
        ("ml.fit_s.gam", fit("gam")),
        ("ml.fit_s.xgboost", fit("xgboost")),
        ("ml.models", models.fitted() as f64),
        (
            "ml.train_rows",
            models.entries.iter().map(|e| e.rows as f64).sum(),
        ),
        ("ml.artifact_bytes", artifact_bytes as f64),
        ("ml.encode_s", spans.total_s("ml:encode")),
        ("ml.decode_s", spans.total_s("ml:decode")),
        ("core.evaluate_s", spans.total_s("core:evaluate")),
        ("core.select_us.p50", median(&core)),
        ("core.select_us.p99", percentile(&core, 99.0)),
        ("serve.local_select_us.p50", median(&local)),
        ("serve.local_select_us.p99", percentile(&local, 99.0)),
        ("serve.wire_overhead_us", rtt_p50 - median(&local)),
        ("serve.rtt_us.p99", rtt_p99),
        ("serve.rtt_samples", wire.rtt_ns.len() as f64),
        ("serve.hits", fin.serve.hits() as f64),
        ("serve.misses", fin.serve.misses() as f64),
        ("serve.hit_ratio", fin.serve.hit_ratio()),
        ("serve.net.requests", fin.net.requests as f64),
        ("serve.net.accepted", fin.net.accepted as f64),
        ("serve.net.shed", fin.net.shed as f64),
        ("serve.net.overloaded", fin.net.overloaded as f64),
        ("serve.net.errors", fin.net.errors as f64),
        ("obs.trace_overhead", overhead),
        ("failed_frac", failed_frac),
        ("pipeline_s.run", u.pipeline.pipeline_s_run),
        ("cells_per_s.run", u.pipeline.cells_per_s_run),
        ("fits_per_s.run", u.fits_per_s_run),
        ("select_qps.run", u.select_qps_run),
        ("select_qps.hot_share_0.5", alt),
    ];

    if o.scale == Scale::Full {
        let prov = mpcp_obs::provenance::Provenance::capture(
            &format!("perfbench {} traced", o.workload.name()),
            Some(o.seed),
        );
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            o.workload.name(),
            o.seed
        ));
        spans.write(&path, &prov)?;
        eprintln!("wrote the spans to {}", path.display());
    }
    Ok(Outcome {
        attempted: u.outcome.attempted,
        failed: u.outcome.failed,
        metrics,
        samples: Samples {
            cells: walk.records.len() as u64,
            fits: models.fitted(),
            requests: wire.rtt_ns.len() as u64,
        },
    })
}
