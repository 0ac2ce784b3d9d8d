//! §V text — predictable training time: the benchmark budget bound vs
//! the actually consumed (simulated) benchmarking time, per dataset.
//! The paper's example: SuperMUC-NG (d8) is bounded by ~3 h and actually
//! took ~56 min.

use mpcp_benchmark::{BenchConfig, DatasetSpec};
use mpcp_experiments::{
    fast_mode, fmt_duration, load_store, render_table, shrink_spec, store_path, write_result_csv,
};

fn main() {
    mpcp_experiments::print_provenance("training_time", None);
    let ids: Vec<String> = std::env::var("MPCP_DATASETS")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
        .unwrap_or_else(|_| vec!["d8".to_string()]);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for id in &ids {
        let spec = DatasetSpec::by_id(id).unwrap_or_else(|| panic!("unknown dataset {id}"));
        let spec = if fast_mode() { shrink_spec(spec) } else { spec };
        let bench = BenchConfig::paper_default(&spec.machine.name);
        let library = spec.library(None);
        // The store keeps every chunk's consumed benchmark time.
        let result = load_store(&spec, &library, &bench, &store_path(spec.id));
        let bound = result.budget_bound(&bench);
        rows.push(vec![
            spec.id.to_string(),
            spec.machine.name.clone(),
            result.records.len().to_string(),
            format!("{:.1} s", bench.budget.as_secs_f64()),
            fmt_duration(bound.as_secs_f64()),
            fmt_duration(result.total_bench.as_secs_f64()),
            format!(
                "{:.0}%",
                100.0 * result.total_bench.as_secs_f64() / bound.as_secs_f64()
            ),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.1},{:.1}",
            spec.id,
            spec.machine.name,
            result.records.len(),
            bench.budget.as_secs_f64(),
            bound.as_secs_f64(),
            result.total_bench.as_secs_f64()
        ));
    }
    println!("Benchmark-time accounting (simulated wall time of the benchmarking step)");
    println!(
        "{}",
        render_table(
            &["dataset", "machine", "#cells", "budget/cell", "upper bound", "actual", "used"],
            &rows
        )
    );
    println!("(paper, d8 on SuperMUC-NG: bound ~3.2 h from 23184 x 0.5 s; actual ~56 min)");
    write_result_csv(
        "training_time.csv",
        "dataset,machine,cells,budget_per_cell_s,bound_s,actual_s",
        &csv,
    );
}
