//! `mpcp bench` and `mpcp campaign`: measure a grid into a dataset CSV,
//! directly or through the parallel, checkpointed campaign store.

use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::path::Path;

use mpcp_benchmark::record::write_csv;
use mpcp_benchmark::{
    run_campaign, BenchConfig, CampaignConfig, CampaignReport, DatasetSpec, FaultPlan,
    FaultSummary, LibKind, RetryPolicy,
};
use mpcp_collectives::MpiLibrary;
use mpcp_simnet::SimTime;

use super::{parse_coll, parse_machine, ratio};
use crate::args::{Args, Size};

/// Everything a grid-measuring command (`bench`, `campaign`) needs,
/// parsed once so both commands accept the identical flag set.
struct BenchSetup {
    spec: DatasetSpec,
    library: MpiLibrary,
    bench: BenchConfig,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
}

impl BenchSetup {
    /// Read the grid flags as a command's last reads: reject every flag
    /// still unread, and only then build the library (Intel MPI's runs
    /// its tuning sweep).
    fn read(args: &Args, id: &'static str) -> Result<BenchSetup, String> {
        let machine = parse_machine(args.require("machine")?)?;
        let coll = parse_coll(args.require("coll")?)?;
        let dims = |key| -> Result<Vec<u32>, String> {
            Ok(args.list::<NonZeroU32>(key)?.into_iter().map(NonZeroU32::get).collect())
        };
        let (nodes, ppn) = (dims("nodes")?, dims("ppn")?);
        let msizes = args.list::<Size>("msizes")?.into_iter().map(|s| s.0).collect();
        let seed = args.value_or("seed", 1u64)?;
        let plan = args.get("fault-plan").map(FaultPlan::parse).transpose();
        let plan = plan.map_err(|e| format!("--fault-plan: {e}"))?;
        let max_retries = args.value_or("retries", 2u32)?;
        let backoff_ms = args.value_or("retry-backoff-ms", 0.1f64)?;
        if !backoff_ms.is_finite() || backoff_ms < 0.0 {
            return Err(format!("--retry-backoff-ms {backoff_ms} must be non-negative"));
        }
        let retry = RetryPolicy { max_retries, backoff: SimTime::from_secs_f64(backoff_ms * 1e-3) };
        let lib = args.value_or("lib", LibKind::OpenMpi)?;
        let mut bench = BenchConfig::paper_default(&machine.name);
        bench.max_reps = args.value_or("max-reps", bench.max_reps)?;
        args.reject_unread()?;
        let spec = DatasetSpec { id, coll, lib, machine, nodes, ppn, msizes, seed };
        let library = spec.library(None);
        Ok(BenchSetup { spec, library, bench, plan, retry })
    }

    /// The fault-injection line, when a plan was given or a cell was lost.
    fn fault_line(&self, faults: &FaultSummary) -> String {
        if self.plan.is_none() && faults.total() == faults.cells_ok {
            return String::new();
        }
        format!("fault injection: {}\n", faults.summary())
    }

    /// Run the campaign into `store`; returns the report and wall seconds.
    fn run(&self, cfg: &CampaignConfig, store: &str) -> Result<(CampaignReport, f64), String> {
        let t0 = std::time::Instant::now();
        let report = run_campaign(
            &self.spec,
            &self.library,
            &self.bench,
            self.plan.as_ref(),
            &self.retry,
            cfg,
            Path::new(store),
        )
        .map_err(|e| e.to_string())?;
        Ok((report, t0.elapsed().as_secs_f64()))
    }
}

/// `mpcp bench ...`
pub fn bench(args: &Args) -> Result<String, String> {
    let out_path = args.require("out")?;
    let setup = BenchSetup::read(args, "cli")?;
    let BenchSetup { spec, library, bench, plan, retry } = &setup;
    let t0 = std::time::Instant::now();
    let data = spec.generate_with_faults(library, bench, plan.as_ref(), retry);
    if data.records.is_empty() {
        return Err(format!(
            "no cells survived the benchmark run ({}); relax the fault plan",
            data.faults.summary()
        ));
    }
    write_csv(Path::new(out_path), &data.records).map_err(|e| e.to_string())?;
    let mut out = format!(
        "benchmarked {} cells ({} configurations) in {:.1}s\nsimulated benchmarking time: {:.1} min (bound {:.1} min)\n",
        data.records.len(),
        library.configs(spec.coll).len(),
        t0.elapsed().as_secs_f64(),
        data.total_bench.as_secs_f64() / 60.0,
        data.budget_bound(bench).as_secs_f64() / 60.0,
    );
    out.push_str(&setup.fault_line(&data.faults));
    out.push_str(&format!("wrote {out_path}\n"));
    Ok(out)
}

/// One line of human-readable campaign accounting.
fn campaign_summary(report: &CampaignReport, secs: f64) -> String {
    let fresh = report.cells_total - report.cells_resumed;
    let mut out = format!(
        "campaign: {} cells in {} chunks, {} records ({:.1}% coverage)\n",
        report.cells_total,
        report.chunks_total,
        report.records.len(),
        100.0 * report.faults.coverage(),
    );
    if report.cells_resumed > 0 {
        out.push_str(&format!(
            "resumed {} cells ({} chunks) from the store; {} measured fresh\n",
            report.cells_resumed, report.chunks_resumed, fresh
        ));
    }
    if secs > 0.0 && fresh > 0 {
        out.push_str(&format!(
            "throughput: {:.0} cells/s over {:.1}s wall ({} steal(s))\n",
            fresh as f64 / secs,
            secs,
            report.steals
        ));
    }
    out.push_str(&format!(
        "simulated benchmarking time: {:.1} min\n",
        report.total_bench.as_secs_f64() / 60.0
    ));
    out
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// `mpcp campaign ...` — the parallel, checkpointed grid sweep.
///
/// With `--bench-out` it instead runs the same campaign fresh at 1
/// thread and at `--threads`, verifies the two stores are byte-for-byte
/// identical, and writes a BENCH_PR10.json speedup report (gated by
/// `--min-speedup`).
pub fn campaign(args: &Args) -> Result<String, String> {
    let store_path = args.require("store")?;
    let threads = args.optional::<NonZeroUsize>("threads")?.map_or_else(cpus, NonZeroUsize::get);
    let checkpoint_every =
        args.optional::<NonZeroU64>("checkpoint-every")?.map_or(256, NonZeroU64::get);
    let cfg = CampaignConfig { threads, checkpoint_every, resume: args.flag("resume") };
    let bench_out = args.get("bench-out");
    let min_speedup = match bench_out {
        Some(_) => args.value_or("min-speedup", 0.0f64)?,
        None => 0.0,
    };
    let csv = if bench_out.is_none() { args.get("out") } else { None };
    let setup = BenchSetup::read(args, "campaign")?;
    if let Some(bench_out) = bench_out {
        return campaign_bench(&setup, store_path, &cfg, bench_out, min_speedup);
    }

    let (report, secs) = setup.run(&cfg, store_path)?;
    let mut out = campaign_summary(&report, secs);
    out.push_str(&setup.fault_line(&report.faults));
    if let Some(csv) = csv {
        if report.records.is_empty() {
            return Err(format!(
                "no cells survived the campaign ({}); relax the fault plan",
                report.faults.summary()
            ));
        }
        write_csv(Path::new(csv), &report.records).map_err(|e| e.to_string())?;
        out.push_str(&format!("wrote {csv}\n"));
    }
    out.push_str(&format!("store: {store_path} ({} chunks)\n", report.chunks_total));
    Ok(out)
}

/// The `--bench-out` mode of `mpcp campaign`: 1-thread vs N-thread
/// byte-identity check plus speedup measurement.
fn campaign_bench(
    setup: &BenchSetup,
    store_path: &str,
    cfg: &CampaignConfig,
    bench_out: &str,
    min_speedup: f64,
) -> Result<String, String> {
    let single_path = format!("{store_path}.t1");
    let fresh = |threads| CampaignConfig { threads, resume: false, ..*cfg };
    let (_single, single_secs) = setup.run(&fresh(1), &single_path)?;
    let (multi, multi_secs) = setup.run(&fresh(cfg.threads), store_path)?;
    let single_bytes = std::fs::read(&single_path).map_err(|e| e.to_string())?;
    let multi_bytes = std::fs::read(store_path).map_err(|e| e.to_string())?;
    let byte_identical = single_bytes == multi_bytes;
    std::fs::remove_file(&single_path).ok();
    let cells = multi.cells_total;
    let speedup = ratio(single_secs, multi_secs);
    let (single_rate, multi_rate) =
        (ratio(cells as f64, single_secs), ratio(cells as f64, multi_secs));
    let cpus = cpus();
    let seed = setup.spec.seed;
    let prov = mpcp_obs::provenance::Provenance::capture("mpcp campaign --bench-out", Some(seed));
    let json = format!(
        r#"{{
  "pr": 10,
  "provenance": {},
  "config": {{
    "collective": {},
    "machine": {},
    "library": {},
    "seed": {seed},
    "cells": {cells},
    "chunks": {},
    "checkpoint_every": {},
    "threads": {},
    "cpus": {cpus}
  }},
  "single": {{ "secs": {single_secs:.3}, "cells_per_sec": {single_rate:.0} }},
  "multi": {{ "secs": {multi_secs:.3}, "cells_per_sec": {multi_rate:.0} }},
  "speedup": {speedup:.2},
  "byte_identical": {byte_identical},
  "store_bytes": {}
}}
"#,
        prov.to_json(),
        mpcp_obs::export::json_string(setup.spec.coll.mpi_name()),
        mpcp_obs::export::json_string(&setup.spec.machine.name),
        mpcp_obs::export::json_string(setup.spec.lib.name()),
        multi.chunks_total,
        cfg.checkpoint_every,
        cfg.threads,
        multi_bytes.len(),
    );
    std::fs::write(bench_out, &json).map_err(|e| format!("writing {bench_out}: {e}"))?;
    let mut out = format!(
        "campaign bench: {cells} cells, {} threads on {cpus} cpu(s)\n\
         single-thread: {single_secs:.2}s ({single_rate:.0} cells/s)\n\
         {}-thread:     {multi_secs:.2}s ({multi_rate:.0} cells/s)\n\
         speedup: {speedup:.2}x, stores byte-identical: {byte_identical}\n\
         wrote {bench_out}\n",
        cfg.threads, cfg.threads,
    );
    if !byte_identical {
        return Err(format!(
            "campaign gate failed: {}-thread store differs from 1-thread store\n{out}",
            cfg.threads
        ));
    }
    if min_speedup > 0.0 && speedup < min_speedup {
        return Err(format!(
            "campaign gate failed: speedup {speedup:.2}x at {} threads is below the \
             required {min_speedup}x\n{out}",
            cfg.threads
        ));
    }
    out.push_str(&campaign_summary(&multi, multi_secs));
    Ok(out)
}
