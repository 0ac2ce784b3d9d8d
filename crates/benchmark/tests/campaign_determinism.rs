//! Differential determinism suite for the campaign runner: the store
//! file must be **byte identical**, and the records and fault
//! accounting equal, at every thread count. Scheduling (who measures a chunk,
//! and when) must be unobservable in every output artifact.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use mpcp_benchmark::{
    run_campaign, BenchConfig, CampaignConfig, CampaignReport, DatasetSpec, FaultPlan, LibKind,
    RetryPolicy,
};
use mpcp_collectives::Collective;
use mpcp_simnet::Machine;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpcp_det_{name}_{}", std::process::id()))
}

/// Run a campaign fresh into `path` and return (report, store bytes).
fn run_once(
    spec: &DatasetSpec,
    bench: &BenchConfig,
    plan: Option<&FaultPlan>,
    threads: usize,
    checkpoint_every: u64,
    path: &Path,
) -> (CampaignReport, Vec<u8>) {
    let lib = spec.library(None);
    let cfg = CampaignConfig { threads, checkpoint_every, resume: false };
    let report = run_campaign(spec, &lib, bench, plan, &RetryPolicy::default(), &cfg, path)
        .expect("campaign run");
    let bytes = std::fs::read(path).expect("read store");
    (report, bytes)
}

/// A lossy fault plan exercising every fate (ok / failed / timed out /
/// blacked out) so fault accounting is part of the comparison.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        fail_prob: 0.2,
        timeout_prob: 0.05,
        outlier_prob: 0.1,
        outlier_scale: 4.0,
        blackout_nodes: vec![3],
        seed,
    }
}

#[test]
fn store_records_and_faults_are_identical_at_1_2_4_8_threads() {
    let spec = DatasetSpec::tiny_for_tests();
    let bench = BenchConfig::quick();
    let plan = lossy_plan(11);

    // checkpoint_every = 7 cuts the 180-cell grid into 26 chunks, so
    // multi-thread runs genuinely interleave (and steal) chunks.
    let base_path = tmp("threads_1");
    let (base_report, base_bytes) = run_once(&spec, &bench, Some(&plan), 1, 7, &base_path);
    assert!(base_report.faults.cells_failed > 0, "plan must lose cells");
    assert!(base_report.faults.cells_ok > 0, "plan must keep cells");

    // generate_with_faults is an in-memory campaign on the same
    // scheduler: the same records and accounting, whatever its thread
    // count and chunking.
    let lib = spec.library(None);
    let direct = spec.generate_with_faults(&lib, &bench, Some(&plan), &RetryPolicy::default());
    assert_eq!(direct.records, base_report.records, "generate records differ");
    assert_eq!(direct.faults, base_report.faults, "generate faults differ");
    assert_eq!(direct.total_bench, base_report.total_bench, "generate total_bench differs");

    for threads in [2usize, 4, 8] {
        let path = tmp(&format!("threads_{threads}"));
        let (report, bytes) = run_once(&spec, &bench, Some(&plan), threads, 7, &path);
        assert_eq!(bytes, base_bytes, "{threads}-thread store differs from 1-thread");
        assert_eq!(report.records, base_report.records, "{threads}-thread records differ");
        assert_eq!(report.faults, base_report.faults, "{threads}-thread faults differ");
        assert_eq!(report.total_bench, base_report.total_bench);
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&base_path).ok();
}

#[test]
fn campaign_with_faults_matches_the_sequential_generator() {
    let spec = DatasetSpec::tiny_for_tests();
    let lib = spec.library(None);
    let bench = BenchConfig::quick();
    let plan = lossy_plan(23);
    let retry = RetryPolicy::default();

    let path = tmp("vs_generator");
    let cfg = CampaignConfig { threads: 4, checkpoint_every: 9, resume: false };
    let report = run_campaign(&spec, &lib, &bench, Some(&plan), &retry, &cfg, &path)
        .expect("campaign run");
    let direct = spec.generate_with_faults(&lib, &bench, Some(&plan), &retry);

    assert_eq!(report.records, direct.records);
    assert_eq!(report.faults, direct.faults);
    assert_eq!(report.total_bench, direct.total_bench);
    std::fs::remove_file(&path).ok();
}

proptest! {
    // Each case runs two full campaigns; keep the grid tiny and the
    // case count low so the suite stays in test-suite time.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_grid_shape_is_thread_count_invariant(
        seed in any::<u64>(),
        nodes in proptest::sample::select(vec![vec![2u32], vec![4], vec![2, 3], vec![3, 5]]),
        ppn in proptest::sample::select(vec![vec![1u32], vec![2], vec![1, 2]]),
        msizes in proptest::sample::select(vec![vec![16u64], vec![256], vec![16, 1024]]),
        fail in 0.0f64..0.5,
        timeout in 0.0f64..0.1,
        fault_seed in any::<u64>(),
        threads in 2usize..=6,
        checkpoint_every in 1u64..=11,
    ) {
        let spec = DatasetSpec {
            id: "prop",
            coll: Collective::Allreduce,
            lib: LibKind::OpenMpi,
            machine: Machine::hydra(),
            nodes,
            ppn,
            msizes,
            seed,
        };
        let bench = BenchConfig { max_reps: 5, ..BenchConfig::quick() };
        let plan = FaultPlan { fail_prob: fail, timeout_prob: timeout, seed: fault_seed, ..FaultPlan::none() };
        let p1 = tmp(&format!("prop_s{seed}_t1"));
        let pn = tmp(&format!("prop_s{seed}_tn"));
        let (r1, b1) = run_once(&spec, &bench, Some(&plan), 1, checkpoint_every, &p1);
        let (rn, bn) = run_once(&spec, &bench, Some(&plan), threads, checkpoint_every, &pn);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&pn).ok();
        prop_assert_eq!(b1, bn, "store bytes differ at {} threads", threads);
        prop_assert_eq!(r1.records, rn.records);
        prop_assert_eq!(r1.faults, rn.faults);
        prop_assert_eq!(r1.total_bench, rn.total_bench);
        let direct = spec.generate_with_faults(
            &spec.library(None), &bench, Some(&plan), &RetryPolicy::default(),
        );
        prop_assert_eq!(direct.records, r1.records);
        prop_assert_eq!(direct.faults, r1.faults);
        prop_assert_eq!(direct.total_bench, r1.total_bench);
    }
}
