//! `BENCHMARK.json` and the benchmark agree: same workloads, same
//! metric names and units, and a miniature run of every workload emits
//! exactly the listed metrics, each finite (and, end to end, non-zero).

use mpcp_obs::json::{parse, JsonValue};
use mpcp_perfbench::report::{result_json, END_TO_END, PER_LAYER};
use mpcp_perfbench::workload::{run, Options, Scale, Workload};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_units(v: &JsonValue, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn schema(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_schema() {
    let v = benchmark_json();
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for name in &workloads {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    assert_eq!(names_units(&v, "end_to_end"), schema(END_TO_END));
    assert_eq!(names_units(&v, "per_layer"), schema(PER_LAYER));
}

#[test]
fn miniature_runs_emit_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = Options {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace,
                scale: Scale::Mini,
            };
            let out = run(&o).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            let want = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
            assert_eq!(got, want_names, "{} trace={trace}", w.name());
            assert!(out.attempted >= 1);
            let line = result_json(&out).expect("every metric is finite and named");
            parse(&line).expect("the result line is JSON");
            if !trace {
                for (name, value) in &out.metrics {
                    assert!(*value > 0.0, "{} {name} = {value}", w.name());
                }
            }
        }
    }
}
