//! Crash/resume kill-tests: a campaign interrupted at **any byte
//! boundary** — the file a `kill -9` mid-append leaves behind — must
//! resume to a store byte-identical to an uninterrupted run. Corruption
//! that is not a pure truncation must surface as a typed error, never a
//! panic, and never a silently wrong store.

use std::path::{Path, PathBuf};

use mpcp_benchmark::{
    run_campaign, BenchConfig, CampaignConfig, CampaignReport, DatasetSpec, FaultPlan, RetryPolicy,
    StoreError,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpcp_resume_{name}_{}", std::process::id()))
}

/// A small lossy campaign: 40 cells, 10 chunks of 4, every fate
/// represented so chunk payloads carry both coordinate and measurement
/// columns.
fn spec() -> DatasetSpec {
    DatasetSpec {
        nodes: vec![2, 3],
        ppn: vec![1],
        msizes: vec![16, 1024],
        seed: 71,
        ..DatasetSpec::tiny_for_tests()
    }
}

fn plan() -> FaultPlan {
    FaultPlan { fail_prob: 0.25, timeout_prob: 0.1, seed: 5, ..FaultPlan::none() }
}

fn bench() -> BenchConfig {
    BenchConfig { max_reps: 5, ..BenchConfig::quick() }
}

/// Run the reference campaign fresh into `path`, returning its report.
fn reference_run(path: &Path) -> CampaignReport {
    let s = spec();
    let lib = s.library(None);
    let cfg = CampaignConfig { threads: 1, checkpoint_every: 4, resume: false };
    run_campaign(&s, &lib, &bench(), Some(&plan()), &RetryPolicy::default(), &cfg, path)
        .expect("reference campaign")
}

/// Run the reference campaign fresh into `path`, returning its bytes.
fn reference_bytes(path: &Path) -> Vec<u8> {
    reference_run(path);
    std::fs::read(path).expect("read reference store")
}

/// Resume a campaign over whatever is at `path` (2 threads, so resume
/// and parallelism compose).
fn resume(path: &Path) -> Result<CampaignReport, StoreError> {
    let s = spec();
    let lib = s.library(None);
    let cfg = CampaignConfig { threads: 2, checkpoint_every: 4, resume: true };
    run_campaign(&s, &lib, &bench(), Some(&plan()), &RetryPolicy::default(), &cfg, path)
}

#[test]
fn kill_at_every_byte_boundary_resumes_to_identical_bytes() {
    let full_path = tmp("kill_full");
    // Every resumed run must report what the uninterrupted run did.
    let whole = reference_run(&full_path);
    let full = std::fs::read(&full_path).expect("read reference store");
    std::fs::remove_file(&full_path).ok();
    assert!(full.len() > 500, "store too small to be a meaningful kill test");

    let path = tmp("kill_cut");
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).expect("write truncated store");
        let report = match resume(&path) {
            Ok(r) => r,
            // Truncation is always recoverable: anything else is a bug.
            Err(e) => panic!("resume after cut at byte {cut} failed: {e}"),
        };
        assert_eq!(
            std::fs::read(&path).expect("read resumed store"),
            full,
            "store resumed from a cut at byte {cut} is not byte-identical"
        );
        assert_eq!(report.cells_total, 40);
        assert_eq!(
            report.cells_resumed + (report.chunks_total - report.chunks_resumed) * 4,
            40,
            "cut at byte {cut}: resumed + re-measured cells must cover the grid"
        );
        assert_eq!(report.records, whole.records, "cut at byte {cut}: records differ");
        assert_eq!(report.faults, whole.faults, "cut at byte {cut}: faults differ");
        assert_eq!(report.total_bench, whole.total_bench, "cut at byte {cut}: budget differs");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_bytes_are_typed_errors_or_correct_completions() {
    let full_path = tmp("flip_full");
    let full = reference_bytes(&full_path);
    std::fs::remove_file(&full_path).ok();

    let path = tmp("flip_cut");
    for pos in 0..full.len() {
        let mut corrupt = full.clone();
        corrupt[pos] ^= 0x40;
        std::fs::write(&path, &corrupt).expect("write corrupted store");
        match resume(&path) {
            // A flip that mimics a shorter valid stream (e.g. in a
            // payload-length field) heals by truncation + re-measure;
            // the final bytes must still be exactly right.
            Ok(_) => assert_eq!(
                std::fs::read(&path).expect("read store"),
                full,
                "flip at byte {pos} resumed to wrong bytes"
            ),
            Err(e @ (StoreError::Codec(_) | StoreError::HeaderMismatch { .. })) => {
                assert!(!e.to_string().is_empty());
            }
            Err(StoreError::Io { .. }) => panic!("flip at byte {pos} surfaced as I/O"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_someone_elses_store_is_a_typed_header_mismatch() {
    let path = tmp("wrong_campaign");
    reference_bytes(&path);

    let other = DatasetSpec { seed: 72, ..spec() };
    let lib = other.library(None);
    let cfg = CampaignConfig { threads: 1, checkpoint_every: 4, resume: true };
    let err = run_campaign(
        &other,
        &lib,
        &bench(),
        Some(&plan()),
        &RetryPolicy::default(),
        &cfg,
        &path,
    )
    .expect_err("a different campaign's store must be rejected");
    match err {
        StoreError::HeaderMismatch { ref what } => assert!(what.contains("seed"), "{what}"),
        other => panic!("expected HeaderMismatch, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn double_kill_double_resume_still_converges() {
    // Kill twice at awkward places (mid-header, mid-chunk), resuming in
    // between: the store must still converge to the uninterrupted bytes.
    let full_path = tmp("double_full");
    let full = reference_bytes(&full_path);
    std::fs::remove_file(&full_path).ok();

    let path = tmp("double_cut");
    let cuts = [full.len() / 5, full.len() / 2];
    std::fs::write(&path, &full[..cuts[0]]).expect("write first cut");
    resume(&path).expect("first resume");
    std::fs::write(&path, &full[..cuts[1]]).expect("write second cut");
    let report = resume(&path).expect("second resume");
    assert_eq!(std::fs::read(&path).expect("read store"), full);
    assert!(report.cells_resumed > 0, "second resume must reuse committed chunks");
    std::fs::remove_file(&path).ok();
}
