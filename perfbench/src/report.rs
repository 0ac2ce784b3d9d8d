//! Metric names, the result line, and the provenance line.
//!
//! `END_TO_END` and `PER_LAYER` are the benchmark's schema: every
//! untraced run prints each end-to-end metric and every traced run each
//! per-layer metric, with the units listed here. `BENCHMARK.json` at
//! the repository root lists the same names and units (a test keeps
//! the two in step).

use mpcp_obs::export::json_string;
use mpcp_obs::provenance::Provenance;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("cells_per_s", "cells/s"),
    ("fits_per_s", "models/s"),
    ("select_qps", "req/s"),
    ("select_p50_us", "us"),
    ("speedup_vs_default", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.run_s", "s"),
    ("simnet.events", "count"),
    ("simnet.messages", "count"),
    ("simnet.bytes_inter", "bytes"),
    ("simnet.bytes_intra", "bytes"),
    ("simnet.events_per_s", "events/s"),
    ("simnet.run_us.p50", "us"),
    ("simnet.run_us.p99", "us"),
    ("collectives.build_s", "s"),
    ("collectives.instrs", "count"),
    ("benchmark.generate_s", "s"),
    ("benchmark.measure_s", "s"),
    ("benchmark.reps", "count"),
    ("benchmark.cpu_util", "ratio"),
    ("benchmark.group_s_max", "s"),
    ("benchmark.group_s_mean", "s"),
    ("ml.fit_s.knn", "s"),
    ("ml.fit_s.gam", "s"),
    ("ml.fit_s.xgboost", "s"),
    ("ml.models", "count"),
    ("ml.train_rows", "count"),
    ("ml.artifact_bytes", "bytes"),
    ("ml.encode_s", "s"),
    ("ml.decode_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.select_us.p50", "us"),
    ("core.select_us.p99", "us"),
    ("serve.local_select_us.p50", "us"),
    ("serve.local_select_us.p99", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.rtt_us.p99", "us"),
    ("serve.rtt_samples", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.net.requests", "count"),
    ("serve.net.accepted", "count"),
    ("serve.net.shed", "count"),
    ("serve.net.overloaded", "count"),
    ("serve.net.errors", "count"),
    ("obs.trace_overhead", "ratio"),
    ("failed_frac", "ratio"),
    ("pipeline_s.run", "s"),
    ("cells_per_s.run", "cells/s"),
    ("fits_per_s.run", "models/s"),
    ("select_qps.run", "req/s"),
    ("select_qps.hot_share_0.5", "req/s"),
];

/// Sample counts behind one run's numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Samples {
    /// Grid cells measured.
    pub cells: u64,
    /// Per-configuration models fitted.
    pub fits: u64,
    /// Wire requests answered.
    pub requests: u64,
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations the run attempted (cells, fits or requests, by workload).
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// `(name, value)` in schema order; units come from the schema.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts for the provenance line.
    pub samples: Samples,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
///
/// Every metric must be a schema name with a finite value; anything
/// else is a bug in the workload and fails the run.
pub fn result_json(o: &Outcome) -> Result<String, String> {
    let mut parts = Vec::with_capacity(o.metrics.len());
    for &(name, value) in &o.metrics {
        let unit = unit_of(name).ok_or_else(|| format!("metric {name} is not in the schema"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        parts.join(", ")
    ))
}

/// `model name` from `/proc/cpuinfo` ("unknown" where there is none).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor has taken from this host's CPUs since boot
/// (`steal` of `/proc/stat`, all CPUs), in seconds; 0 where unknown.
/// The difference over a run tells a run slowed by other tenants of a
/// shared host from one slowed by the code.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().find(|l| l.starts_with("cpu "))?.to_string();
            cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / crate::CLK_TCK)
}

/// The provenance line printed before the result line; `steal_s` is
/// the host CPU time stolen during the run.
pub fn provenance_json(
    workload: &str,
    seed: u64,
    run_index: u64,
    trace: bool,
    samples: &Samples,
    steal_s: f64,
) -> String {
    let prov = Provenance::capture(&format!("perfbench {workload}"), Some(seed));
    format!(
        "{{\"provenance\": {{\"git_sha\": {}, \"git_dirty\": {}, \"nproc\": {}, \"cpu_model\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"run_index\": {run_index}, \"trace\": {trace}, \
         \"samples\": {{\"cells\": {}, \"fits\": {}, \"requests\": {}}}, \"host_steal_s\": {steal_s:.2}, \
         \"unix_time\": {}}}}}",
        json_string(&prov.git_sha),
        prov.git_dirty,
        crate::threads(),
        json_string(&cpu_model()),
        json_string(workload),
        samples.cells,
        samples.fits,
        samples.requests,
        prov.unix_time,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_and_rejects_bad_metrics() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25), ("select_qps", 61234.5)],
            samples: Samples::default(),
        };
        let line = result_json(&o).unwrap();
        let v = mpcp_obs::json::parse(&line).unwrap();
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
        let bad = Outcome {
            metrics: vec![("nope", 1.0)],
            ..o.clone()
        };
        assert!(result_json(&bad).is_err());
        let nan = Outcome {
            metrics: vec![("setup_s", f64::NAN)],
            ..o
        };
        assert!(result_json(&nan).is_err());
    }
}
