//! Implementations of the `mpcp` subcommands, one module per command
//! (or per family of commands sharing a setup); this module holds the
//! parsers and resolvers they share.

mod bench;
mod report;
mod select;
mod serve_bench;
mod served;
mod simulate;
mod top;

use std::path::Path;

use mpcp_benchmark::{DatasetSpec, LibKind};
use mpcp_collectives::{Collective, MpiLibrary};
use mpcp_core::{ArtifactMeta, Selector, SelectorArtifact};
use mpcp_ml::Learner;
use mpcp_simnet::Machine;

pub use bench::{bench, campaign};
pub use report::report;
pub use select::{select, train, tune};
pub use serve_bench::serve_bench;
pub use served::served;
pub use simulate::{algorithms, machines, simulate};
pub use top::top;

/// A collective by its MPI name without the `MPI_` prefix, in any case.
fn parse_coll(s: &str) -> Result<Collective, String> {
    Collective::ALL
        .into_iter()
        .find(|c| c.mpi_name().strip_prefix("MPI_").is_some_and(|n| n.eq_ignore_ascii_case(s)))
        .ok_or_else(|| format!("unknown collective {:?}", s.to_ascii_lowercase()))
}

fn parse_machine(s: &str) -> Result<Machine, String> {
    Machine::by_name(s).ok_or_else(|| {
        format!("unknown machine {s:?} (available: Hydra, Jupiter, SuperMUC-NG)")
    })
}

fn parse_learner(s: &str) -> Result<Learner, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "knn" => Learner::knn(),
        "gam" => Learner::gam(),
        "xgboost" | "xgb" => Learner::xgboost(),
        "forest" | "rf" => Learner::forest(),
        "linear" => Learner::linear(),
        other => return Err(format!("unknown learner {other:?}")),
    })
}

/// The one library resolver: `--lib` values and artifact manifest
/// labels both parse to a [`LibKind`], and [`DatasetSpec::library`]
/// builds it exactly as the benchmark grids do.
fn library(lib: LibKind, machine: &Machine, coll: Collective) -> MpiLibrary {
    let spec = DatasetSpec {
        id: "cli",
        coll,
        lib,
        machine: machine.clone(),
        nodes: Vec::new(),
        ppn: Vec::new(),
        msizes: Vec::new(),
        seed: 0,
    };
    spec.library(None)
}

/// The library a saved artifact was trained against, from its manifest.
fn library_of(meta: &ArtifactMeta) -> Result<MpiLibrary, String> {
    let lib = meta.library.parse().map_err(|e| format!("artifact manifest: {e}"))?;
    Ok(library(lib, &parse_machine(&meta.machine)?, meta.collective))
}

fn load_model(path: &str) -> Result<SelectorArtifact, String> {
    Selector::load(Path::new(path)).map_err(|e| format!("loading model: {e}"))
}

/// `num / den`, or 0 when `den` is not positive (an unmeasurably short
/// run, an empty baseline).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentile (0..=100) of a sorted latency vector.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * p / 100).min(sorted.len() - 1);
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mpcp_core::Instance;
    use mpcp_obs::json::JsonValue;

    fn run_args(v: &[&str]) -> Result<String, String> {
        crate::run(Args::parse(v.iter().map(|s| s.to_string())).unwrap())
    }

    /// Tests that pass `--trace-out`/`--metrics-out` toggle the global
    /// observability layer; serialize them so they don't drain each
    /// other's spans.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn machines_lists_all_three() {
        let out = machines().unwrap();
        assert!(out.contains("Hydra"));
        assert!(out.contains("Jupiter"));
        assert!(out.contains("SuperMUC-NG"));
    }

    #[test]
    fn algorithms_lists_configs() {
        let out = run_args(&["algorithms", "--coll", "allreduce"]).unwrap();
        assert!(out.contains("recursive_doubling"));
        assert!(out.contains("rabenseifner"));
    }

    #[test]
    fn simulate_runs_default_and_explicit() {
        let out = run_args(&[
            "simulate", "--machine", "hydra", "--coll", "bcast", "--nodes", "4", "--ppn", "2",
            "--msize", "64K",
        ])
        .unwrap();
        assert!(out.contains("runtime:"), "{out}");
        let out2 = run_args(&[
            "simulate", "--machine", "jupiter", "--coll", "barrier", "--nodes", "3", "--ppn", "2",
            "--alg", "2",
        ])
        .unwrap();
        assert!(out2.contains("dissemination"), "{out2}");
    }

    #[test]
    fn bench_select_tune_roundtrip() {
        let dir = std::env::temp_dir().join("mpcp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        let tunef = dir.join("x.tune");
        let out = run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3,4", "--ppn",
            "1,2", "--msizes", "16,4K", "--out", store.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("benchmarked"), "{out}");
        let out = run_args(&[
            "select", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner", "knn",
            "--train-nodes", "2,4", "--nodes", "3", "--ppn", "2", "--msize", "4K",
        ])
        .unwrap();
        assert!(out.contains("predicted best"), "{out}");
        assert!(out.contains("measured best"), "{out}");
        let out = run_args(&[
            "tune", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner", "knn",
            "--train-nodes", "2,4", "--nodes", "3", "--ppn", "2", "--out",
            tunef.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("written to"), "{out}");
        assert!(tunef.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn served_daemon_roundtrip_over_tcp() {
        let dir = std::env::temp_dir().join("mpcp_cli_served_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        let model = dir.join("m.model");
        let addr_file = dir.join("addr.txt");
        std::fs::remove_file(&addr_file).ok();
        run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3,4", "--ppn",
            "1,2", "--msizes", "16,4K", "--out", store.to_str().unwrap(),
        ])
        .unwrap();
        run_args(&[
            "train", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner",
            "knn", "--save-model", model.to_str().unwrap(),
        ])
        .unwrap();

        let model_s = model.to_str().unwrap().to_string();
        let addr_s = addr_file.to_str().unwrap().to_string();
        let daemon = std::thread::spawn(move || {
            run_args(&[
                "served", "--model", &model_s, "--addr", "127.0.0.1:0", "--addr-out", &addr_s,
                "--workers", "1", "--max-batch", "8",
            ])
        });
        let t0 = std::time::Instant::now();
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if s.trim().contains(':') {
                    break s.trim().to_string();
                }
            }
            assert!(t0.elapsed().as_secs() < 30, "daemon never published its address");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        // The wire answers match the same artifact file evaluated
        // in-process, bit for bit.
        let artifact = Selector::load(&model).unwrap();
        let coll = artifact.meta.collective;
        let svc = mpcp_serve::PredictionService::new(16);
        let key = svc.insert_artifact(artifact);
        let mut client = mpcp_serve::NetClient::connect(&addr).unwrap();
        for inst in [Instance::new(coll, 4096, 3, 2), Instance::new(coll, 16, 2, 1)] {
            let want = svc.select_uncached(&key, &inst).unwrap();
            let (got, shed) = client.select(&key, &inst).unwrap();
            assert!(!shed, "an idle daemon must not shed");
            assert_eq!((got.uid, got.degraded), (want.uid, want.degraded));
            assert_eq!(
                got.predicted_us.map(f64::to_bits),
                want.predicted_us.map(f64::to_bits)
            );
        }
        // An unknown shard is a typed remote error, not a guess.
        let bogus = mpcp_serve::ShardKey { coll, scope: "nowhere/none".into() };
        let err = client.select(&bogus, &Instance::new(coll, 64, 2, 1)).unwrap_err();
        assert!(
            matches!(err, mpcp_serve::NetError::Remote { code, .. }
                if code == mpcp_serve::net::ERR_UNKNOWN_SHARD),
            "{err}"
        );
        // The wire shutdown op drains the daemon and resolves the CLI
        // call with the final counter summary.
        client.shutdown_server().unwrap();
        let out = daemon.join().unwrap().unwrap();
        assert!(out.contains("drained and stopped"), "{out}");
        assert!(out.contains("connections: 1 total"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_pipeline_writes_trace_metrics_and_reports() {
        let _obs = OBS_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("mpcp_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.jsonl");
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
        let out = run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3", "--ppn",
            "1,2", "--msizes", "16,4K", "--out", store.to_str().unwrap(), "--trace-out",
            trace.to_str().unwrap(), "--metrics-out", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("trace ("), "{out}");
        assert!(out.contains("metrics appended"), "{out}");
        let out = run_args(&[
            "select", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner",
            "xgboost", "--nodes", "3", "--ppn", "2", "--msize", "4K", "--trace-out",
            trace.to_str().unwrap(), "--metrics-out", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("predicted best"), "{out}");
        // The merged trace must hold the full pipeline: simulate +
        // measure from the bench run, fit + select from the select run.
        let report = run_args(&[
            "report", "--trace", trace.to_str().unwrap(), "--metrics",
            metrics.to_str().unwrap(), "--require", "simulate,measure,fit,select",
        ])
        .unwrap();
        assert!(report.contains("required spans present"), "{report}");
        assert!(report.contains("bench.cells"), "{report}");
        // Both files are strict JSON / JSONL.
        let text = std::fs::read_to_string(&trace).unwrap();
        let doc = mpcp_obs::json::parse(&text).unwrap();
        assert!(doc.as_arr().unwrap().len() > 4);
        let mtext = std::fs::read_to_string(&metrics).unwrap();
        let docs = mpcp_obs::json::parse_jsonl(&mtext).unwrap();
        // Two provenance-stamped blocks: one per traced command.
        let prov = docs.iter().filter(|d| d.get("provenance").is_some()).count();
        assert_eq!(prov, 2);
        // A missing required span is an error, not a silent pass.
        let err = run_args(&[
            "report", "--trace", trace.to_str().unwrap(), "--require", "no_such_span",
        ])
        .unwrap_err();
        assert!(err.contains("no_such_span"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_bench_to_select_pipeline_degrades_gracefully() {
        let _obs = OBS_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("mpcp_cli_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("f.store");
        let metrics = dir.join("m.jsonl");
        std::fs::remove_file(&metrics).ok();
        // 30% failures + a node blackout: the bench must still succeed
        // and report coverage.
        let out = run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3,4", "--ppn",
            "1,2", "--msizes", "16,4K", "--out", store.to_str().unwrap(), "--fault-plan",
            "fail=0.3,blackout=4,seed=9", "--retries", "1", "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("fault injection:"), "{out}");
        assert!(out.contains("failed"), "{out}");
        // The partial dataset still trains and answers queries; the
        // blacked-out node count forces fallback-free selection for a
        // measured instance.
        let out = run_args(&[
            "select", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner", "knn",
            "--nodes", "3", "--ppn", "2", "--msize", "4K",
        ])
        .unwrap();
        assert!(out.contains("predicted best") || out.contains("DEGRADED"), "{out}");
        // The failure counters are asserted through `report`.
        let report = run_args(&[
            "report", "--metrics", metrics.to_str().unwrap(), "--require-metric",
            "bench.cells_failed>=1,bench.attempt_failures>=1",
        ])
        .unwrap();
        assert!(report.contains("required metrics present"), "{report}");
        // Absent metric or unmet threshold is a hard error.
        let err = run_args(&[
            "report", "--metrics", metrics.to_str().unwrap(), "--require-metric", "no.such",
        ])
        .unwrap_err();
        assert!(err.contains("no.such"), "{err}");
        let err = run_args(&[
            "report", "--metrics", metrics.to_str().unwrap(), "--require-metric",
            "bench.cells_failed>=1000000",
        ])
        .unwrap_err();
        assert!(err.contains("below the required"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn impossible_fault_plan_is_a_readable_error() {
        let dir = std::env::temp_dir().join("mpcp_cli_fault_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("f.store");
        // Blacking out every node count leaves nothing to write.
        let err = run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3", "--ppn", "1",
            "--msizes", "16", "--out", store.to_str().unwrap(), "--fault-plan", "blackout=2+3",
        ])
        .unwrap_err();
        assert!(err.contains("no cells survived"), "{err}");
        assert!(!store.exists());
        // Malformed plans fail fast with the offending key.
        let err = run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2", "--ppn", "1",
            "--msizes", "16", "--out", store.to_str().unwrap(), "--fault-plan", "fail=2.0",
        ])
        .unwrap_err();
        assert!(err.contains("fail"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_probability_fault_plan_matches_clean_run() {
        let dir = std::env::temp_dir().join("mpcp_cli_fault_noop_test");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.store");
        let faulty = dir.join("noop.store");
        let base = [
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3", "--ppn", "1",
            "--msizes", "16,4K",
        ];
        let mut a = base.to_vec();
        a.extend(["--out", clean.to_str().unwrap()]);
        run_args(&a).unwrap();
        let mut b = base.to_vec();
        b.extend(["--out", faulty.to_str().unwrap(), "--fault-plan", "fail=0.0,seed=123"]);
        run_args(&b).unwrap();
        let records = |p: &Path| select::read_store(p.to_str().unwrap()).unwrap();
        assert_eq!(
            records(&clean),
            records(&faulty),
            "a zero-probability fault plan must be bit-identical to no plan"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn min_samples_threshold_is_accepted() {
        let dir = std::env::temp_dir().join("mpcp_cli_minsamples_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3", "--ppn", "1",
            "--msizes", "16,4K", "--out", store.to_str().unwrap(),
        ])
        .unwrap();
        // An absurd threshold excludes every config: typed error, not a
        // panic.
        let err = run_args(&[
            "select", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner", "knn",
            "--nodes", "3", "--ppn", "1", "--msize", "4K", "--min-samples", "100000",
        ])
        .unwrap_err();
        assert!(err.contains("training"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_save_select_model_serve_bench_roundtrip() {
        let _obs = OBS_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("mpcp_cli_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        let model = dir.join("m.mpcp");
        let bench_json = dir.join("b.json");
        let metrics = dir.join("m.jsonl");
        std::fs::remove_file(&metrics).ok();
        run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3,4", "--ppn",
            "1,2", "--msizes", "16,4K", "--out", store.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_args(&[
            "train", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner", "knn",
            "--save-model", model.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("saved model artifact"), "{out}");
        assert!(model.exists());
        // Answer from the artifact, no retraining; --data adds ground truth.
        let out = run_args(&[
            "select", "--model", model.to_str().unwrap(), "--nodes", "3", "--ppn", "2",
            "--msize", "4K", "--data", store.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("predicted best"), "{out}");
        assert!(out.contains("measured best"), "{out}");
        // The trained-from-store path and the loaded-artifact path agree.
        let fresh = run_args(&[
            "select", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner", "knn",
            "--nodes", "3", "--ppn", "2", "--msize", "4K",
        ])
        .unwrap();
        let line = |s: &str| {
            s.lines().find(|l| l.starts_with("predicted best")).map(str::to_string)
        };
        assert_eq!(line(&out), line(&fresh), "artifact diverged from retraining");
        // A collective mismatch is a readable error.
        let err = run_args(&[
            "select", "--model", model.to_str().unwrap(), "--coll", "bcast", "--nodes", "3",
            "--ppn", "2", "--msize", "4K",
        ])
        .unwrap_err();
        assert!(err.contains("trained for"), "{err}");
        // serve-bench over the artifact: equal results, JSON out, and
        // the cache-hit counters flowing into --metrics-out.
        let out = run_args(&[
            "serve-bench", "--model", model.to_str().unwrap(), "--threads", "2", "--requests",
            "400", "--out", bench_json.to_str().unwrap(), "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("cached/uncached speedup"), "{out}");
        let doc = mpcp_obs::json::parse(&std::fs::read_to_string(&bench_json).unwrap()).unwrap();
        assert_eq!(doc.get("pr").and_then(|v| v.as_f64()), Some(7.0));
        assert!(doc.get("provenance").and_then(|p| p.get("git_sha")).is_some());
        assert!(doc.get("cached").and_then(|c| c.get("qps")).and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(
            doc.get("kernel")
                .and_then(|k| k.get("batch_insts_per_sec"))
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
        // A second run gated against the first as a baseline: 0.5x is
        // trivially met by a same-machine re-run; an absurd uncached
        // gate fails loudly.
        let out = run_args(&[
            "serve-bench", "--model", model.to_str().unwrap(), "--threads", "2", "--requests",
            "200", "--baseline", bench_json.to_str().unwrap(), "--min-uncached-speedup", "0.01",
        ])
        .unwrap();
        assert!(out.contains("uncached speedup vs baseline"), "{out}");
        let err = run_args(&[
            "serve-bench", "--model", model.to_str().unwrap(), "--threads", "2", "--requests",
            "200", "--baseline", bench_json.to_str().unwrap(), "--min-uncached-speedup",
            "1000000",
        ])
        .unwrap_err();
        assert!(err.contains("gate failed"), "{err}");
        let err = run_args(&[
            "serve-bench", "--model", model.to_str().unwrap(), "--min-uncached-speedup", "2",
        ])
        .unwrap_err();
        assert!(err.contains("needs --baseline"), "{err}");
        let report = run_args(&[
            "report", "--metrics", metrics.to_str().unwrap(), "--require-metric",
            "serve.cache_hits>=1",
        ])
        .unwrap();
        assert!(report.contains("required metrics present"), "{report}");
        // An absurd speedup gate fails loudly, not silently.
        let err = run_args(&[
            "serve-bench", "--model", model.to_str().unwrap(), "--threads", "2", "--requests",
            "200", "--min-speedup", "1000000",
        ])
        .unwrap_err();
        assert!(err.contains("gate failed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The full telemetry loop: `serve-bench --duration` publishes live
    /// stats + a flight dump, `mpcp top` reads them, `mpcp report` sees
    /// the windowed gauges, and `--format json` re-serializes cleanly.
    #[test]
    fn serve_bench_telemetry_top_and_flight_roundtrip() {
        let _obs = OBS_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("mpcp_cli_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        let model = dir.join("m.mpcp");
        let stats = dir.join("live.json");
        let flight = dir.join("flight.json");
        let bench_json = dir.join("b.json");
        let metrics = dir.join("m.jsonl");
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&flight).ok();
        run_args(&[
            "bench", "--machine", "hydra", "--coll", "bcast", "--nodes", "2,3", "--ppn", "1,2",
            "--msizes", "16,4K", "--out", store.to_str().unwrap(),
        ])
        .unwrap();
        run_args(&[
            "train", "--data", store.to_str().unwrap(), "--coll", "bcast", "--learner", "knn",
            "--save-model", model.to_str().unwrap(),
        ])
        .unwrap();

        let out = run_args(&[
            "serve-bench", "--model", model.to_str().unwrap(), "--threads", "2", "--requests",
            "300", "--duration", "1", "--stats-out", stats.to_str().unwrap(), "--spike-ms",
            "60", "--flight-out", flight.to_str().unwrap(), "--flight-threshold-ms", "20",
            "--telemetry-gate", "0.01", "--out", bench_json.to_str().unwrap(),
            "--metrics-out", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("telemetry:"), "{out}");

        // The bench JSON carries the telemetry block: overhead ratio,
        // windowed summary, and the flight status.
        let doc =
            mpcp_obs::json::parse(&std::fs::read_to_string(&bench_json).unwrap()).unwrap();
        let tel = doc.get("telemetry").expect("telemetry block in bench JSON");
        assert!(tel.get("overhead_ratio").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(tel.get("sustained_requests").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let win = tel.get("window").unwrap();
        assert!(win.get("p99_ns").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let fl = tel.get("flight").expect("flight status in telemetry block");
        assert!(matches!(fl.get("dumped"), Some(JsonValue::Bool(true))), "spike must dump");
        assert!(matches!(fl.get("dump_ok"), Some(JsonValue::Bool(true))));

        // The dump is a valid Chrome trace containing the spike span.
        let ftext = std::fs::read_to_string(&flight).unwrap();
        let fdoc = mpcp_obs::json::parse(&ftext).unwrap();
        let rows = fdoc.as_arr().expect("flight dump is a JSON array");
        assert!(
            rows.iter().any(|r| {
                r.get("name").and_then(|v| v.as_str()) == Some("serve.spike")
            }),
            "offending span missing from flight dump"
        );

        // The final live-stats file is finished and carries traffic.
        let sdoc = mpcp_obs::json::parse(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        assert!(matches!(sdoc.get("finished"), Some(JsonValue::Bool(true))));
        assert!(
            sdoc.get("stats").and_then(|s| s.get("requests")).and_then(|v| v.as_f64()).unwrap()
                > 0.0
        );

        // `top --once --json` hands back the published document.
        let top_json = run_args(&[
            "top", "--stats", stats.to_str().unwrap(), "--once", "--json",
        ])
        .unwrap();
        let tdoc = mpcp_obs::json::parse(&top_json).unwrap();
        assert!(matches!(tdoc.get("finished"), Some(JsonValue::Bool(true))));
        // ... and the table form renders the header, attribution
        // columns, and the flight line.
        let table =
            run_args(&["top", "--stats", stats.to_str().unwrap(), "--once"]).unwrap();
        assert!(table.contains("mpcp top"), "{table}");
        assert!(table.contains("hit ratio"), "{table}");
        assert!(table.contains("queue p99"), "{table}");
        assert!(table.contains("DUMPED"), "{table}");
        // A missing stats file times out with a readable error.
        let err = run_args(&[
            "top", "--stats", dir.join("nope.json").to_str().unwrap(), "--once", "--timeout",
            "0.2", "--interval-ms", "50",
        ])
        .unwrap_err();
        assert!(err.contains("no live stats"), "{err}");

        // The windowed gauges flow into --metrics-out, so `report`
        // can gate on them end-to-end...
        let report = run_args(&[
            "report", "--metrics", metrics.to_str().unwrap(), "--require-metric",
            "serve.window.p99_ns",
        ])
        .unwrap();
        assert!(report.contains("required metrics present"), "{report}");
        // ...and `--format json` re-serializes the validated content.
        let rj = run_args(&[
            "report", "--metrics", metrics.to_str().unwrap(), "--format", "json",
        ])
        .unwrap();
        let rdoc = mpcp_obs::json::parse(&rj).unwrap();
        let docs = rdoc
            .get("metrics")
            .and_then(|m| m.get("documents"))
            .and_then(|v| v.as_arr())
            .expect("documents array");
        assert!(
            docs.iter().any(|d| {
                d.get("metric").and_then(|v| v.as_str()) == Some("serve.window.p99_ns")
            }),
            "{rj}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_format_json_round_trips_a_trace() {
        let dir = std::env::temp_dir().join("mpcp_cli_report_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        std::fs::write(
            &trace,
            "[{\"name\":\"fit\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":5},\n\
             {\"name\":\"select\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":5,\"dur\":3}]\n",
        )
        .unwrap();
        let out = run_args(&[
            "report", "--trace", trace.to_str().unwrap(), "--require", "fit,select",
            "--format", "json",
        ])
        .unwrap();
        let doc = mpcp_obs::json::parse(&out).unwrap();
        let tr = doc.get("trace").expect("trace block");
        assert_eq!(tr.get("events").and_then(|v| v.as_f64()), Some(2.0));
        let names: Vec<&str> = tr
            .get("span_names")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .filter_map(|v| v.as_str())
            .collect();
        assert_eq!(names, ["fit", "select"]);
        // Unknown formats are a readable error, not silent text.
        let err = run_args(&[
            "report", "--trace", trace.to_str().unwrap(), "--format", "yaml",
        ])
        .unwrap_err();
        assert!(err.contains("--format"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_model_artifact_is_a_typed_cli_error() {
        let dir = std::env::temp_dir().join("mpcp_cli_corrupt_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        let model = dir.join("m.mpcp");
        run_args(&[
            "bench", "--machine", "hydra", "--coll", "allreduce", "--nodes", "2,3", "--ppn", "1",
            "--msizes", "16,4K", "--out", store.to_str().unwrap(),
        ])
        .unwrap();
        run_args(&[
            "train", "--data", store.to_str().unwrap(), "--coll", "allreduce", "--learner",
            "linear", "--save-model", model.to_str().unwrap(),
        ])
        .unwrap();
        // A manifest naming a library no resolver knows is a typed
        // error, not a silent Open MPI fallback.
        let artifact = Selector::load(&model).unwrap();
        let meta = ArtifactMeta { library: "MPICH 4.1".into(), ..artifact.meta.clone() };
        let foreign = dir.join("foreign.mpcp");
        artifact.selector.save(&foreign, &artifact.report, &meta).unwrap();
        let q = ["--nodes", "2", "--ppn", "1", "--msize", "16"];
        let err = run_args(&[&["select", "--model", foreign.to_str().unwrap()][..], &q].concat())
            .unwrap_err();
        assert!(err.contains("unknown MPI library \"MPICH 4.1\""), "{err}");
        // Truncate the artifact: select --model must fail with the
        // codec's typed reason, and serve-bench likewise.
        let bytes = std::fs::read(&model).unwrap();
        std::fs::write(&model, &bytes[..bytes.len() / 2]).unwrap();
        let err = run_args(&[
            "select", "--model", model.to_str().unwrap(), "--nodes", "2", "--ppn", "1",
            "--msize", "16",
        ])
        .unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let err = run_args(&["serve-bench", "--model", model.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_readable() {
        assert!(run_args(&["frobnicate"]).unwrap_err().contains("unknown command"));
        assert!(run_args(&["simulate", "--coll", "bcast"]).unwrap_err().contains("--machine"));
        assert!(run_args(&[
            "simulate", "--machine", "moonbase", "--coll", "bcast", "--nodes", "2", "--ppn", "1",
            "--msize", "1K"
        ])
        .unwrap_err()
        .contains("unknown machine"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_args(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    /// `argv` fails with an error naming `flag` (exit status 1), not a
    /// panic.
    fn assert_flag_error(argv: &[&str], flag: &str) {
        let err = run_args(argv).unwrap_err();
        assert!(err.contains(flag), "{argv:?}: {err}");
    }

    /// `base` with a zero node or ppn count, alone or in a list.
    fn assert_zero_dims_rejected(base: &[&str]) {
        let cases = [("0", "1", "--nodes"), ("0,2", "1", "--nodes"), ("2", "0", "--ppn")];
        for (nodes, ppn, flag) in cases {
            assert_flag_error(&[base, &["--nodes", nodes, "--ppn", ppn]].concat(), flag);
        }
    }

    const HYDRA_BCAST: [&str; 4] = ["--machine", "hydra", "--coll", "bcast"];

    #[test]
    fn zero_dimensions_are_errors_for_simulate() {
        assert_zero_dims_rejected(&[&["simulate"][..], &HYDRA_BCAST].concat());
    }

    #[test]
    fn zero_dimensions_are_errors_for_bench() {
        let out = ["--msizes", "16", "--out", "never-written.store"];
        assert_zero_dims_rejected(&[&["bench"][..], &HYDRA_BCAST, &out].concat());
        assert!(!Path::new("never-written.store").exists());
    }

    #[test]
    fn zero_dimensions_are_errors_for_campaign() {
        let store = ["--msizes", "16", "--store", "never-written.store"];
        assert_zero_dims_rejected(&[&["campaign"][..], &HYDRA_BCAST, &store].concat());
        assert!(!Path::new("never-written.store").exists());
    }

    #[test]
    fn zero_dimensions_are_errors_for_select() {
        for source in [["--data", "d.store"], ["--model", "m.mpcp"]] {
            let query = ["--coll", "bcast", "--msize", "1K"];
            assert_zero_dims_rejected(&[&["select"][..], &source, &query].concat());
        }
    }

    #[test]
    fn zero_dimensions_are_errors_for_tune() {
        assert_zero_dims_rejected(&["tune", "--data", "d.store", "--coll", "bcast"]);
    }

    #[test]
    fn lib_names_resolve_to_their_library() {
        let dir = std::env::temp_dir().join("mpcp_cli_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("d.store");
        // Gather: Intel's configuration count differs from Open MPI's,
        // and its decision-table tuning sweep is cheap.
        let (jupiter, coll) = (parse_machine("jupiter").unwrap(), Collective::Gather);
        let intel = library(LibKind::IntelMpi, &jupiter, coll);
        let n_intel = intel.configs(coll).len();
        assert_ne!(n_intel, library(LibKind::OpenMpi, &jupiter, coll).configs(coll).len());
        for lib in ["intel-mpi", "IntelMPI"] {
            let grid = ["--nodes", "2", "--ppn", "1", "--msizes", "16", "--lib", lib];
            let argv = [&["bench", "--machine", "jupiter", "--coll", "gather"][..], &grid];
            let out = run_args(&[&argv.concat()[..], &["--out", store.to_str().unwrap()]].concat());
            assert!(out.unwrap().contains(&format!("({n_intel} configurations)")), "{lib}");
            let data = select::read_store(store.to_str().unwrap()).unwrap();
            let uids: std::collections::BTreeSet<u32> = data.iter().map(|r| r.uid).collect();
            assert_eq!(uids.len(), n_intel, "{lib}");
        }
        // Manifest labels resolve exactly as the matching --lib does.
        for kind in [LibKind::OpenMpi, LibKind::IntelMpi] {
            let meta = ArtifactMeta {
                collective: coll,
                library: kind.label(),
                machine: "Jupiter".into(),
                git_sha: "test".into(),
                seed: None,
                min_samples: 1,
                created_unix: 0,
            };
            let (got, want) = (library_of(&meta).unwrap(), library(kind, &jupiter, coll));
            assert_eq!((got.name, got.version), (kind.name(), kind.version()));
            let labels =
                |l: &MpiLibrary| l.configs(coll).iter().map(|c| c.label()).collect::<Vec<_>>();
            assert_eq!(labels(&got), labels(&want));
            for (nodes, ppn, msize) in [(2, 1, 16), (8, 16, 1 << 20), (16, 4, 4096)] {
                let topo = mpcp_simnet::Topology::new(nodes, ppn);
                let pick = |l: &MpiLibrary| l.default_choice(coll, msize, &topo);
                assert_eq!(pick(&got), pick(&want), "{kind:?} {nodes}x{ppn} {msize} B");
            }
        }
        assert_eq!(LibKind::OpenMpi.label(), "Open MPI 4.0.2");
        assert_eq!(LibKind::IntelMpi.label(), "Intel MPI 2019");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_lib_is_an_error_everywhere() {
        let grid = [&HYDRA_BCAST[..], &["--nodes", "2", "--ppn", "1", "--msizes", "16"]].concat();
        for argv in [
            [&["bench"][..], &grid, &["--out", "never-written.store"]].concat(),
            [&["campaign"][..], &grid, &["--store", "never-written.store"]].concat(),
            vec!["algorithms", "--coll", "bcast"],
            vec!["train", "--data", "d.store", "--coll", "bcast", "--save-model", "m.mpcp"],
        ] {
            assert_flag_error(&[&argv[..], &["--lib", "bogus"]].concat(), "bad --lib \"bogus\"");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_before_any_work() {
        let store = "never-written.store";
        let dims = [&HYDRA_BCAST[..], &["--nodes", "2", "--ppn", "1"]].concat();
        let typo = ["--msizes", "16", "--out", store, "--seeds", "7"];
        let err = run_args(&[&["bench"][..], &dims, &typo].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --seeds for bench");
        assert!(!Path::new(store).exists(), "bench ran despite the unknown flag");
        // The store is `campaign`'s only output.
        let out = ["--msizes", "16", "--store", "x.store", "--out", "x.csv"];
        let err = run_args(&[&["campaign"][..], &dims, &out].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --out for campaign");
        // Every command and mode: valid required flags plus one typo.
        let query = ["--nodes", "2", "--ppn", "1", "--msize", "16"];
        for argv in [
            vec!["machines"],
            vec!["algorithms", "--coll", "bcast"],
            [&["simulate"][..], &dims].concat(),
            [&["campaign"][..], &dims, &["--msizes", "16", "--store", "x.store"]].concat(),
            vec!["train", "--data", store, "--coll", "bcast", "--save-model", "m"],
            [&["select", "--data", store, "--coll", "bcast"][..], &query].concat(),
            [&["select", "--model", "m"][..], &query].concat(),
            [&["tune", "--data", store][..], &dims].concat(),
            vec!["serve-bench", "--model", "m"],
            vec!["serve-bench", "--connect", "127.0.0.1:9", "--model", "m"],
            vec!["served", "--model", "m"],
            vec!["top", "--stats", "s.json", "--once"],
            vec!["report", "--trace", "t.json"],
        ] {
            let err = run_args(&[&argv[..], &["--bogus", "1"]].concat()).unwrap_err();
            assert_eq!(err, format!("unknown flag --bogus for {}", argv[0]), "{argv:?}");
        }
        // A flag only the other mode reads is unknown in this one.
        let learner = ["--learner", "knn"];
        let err = run_args(&[&["select", "--model", "m"][..], &query, &learner].concat());
        assert_eq!(err.unwrap_err(), "unknown flag --learner for select");
    }
}
