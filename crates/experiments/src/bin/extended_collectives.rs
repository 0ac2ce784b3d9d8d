//! Extension experiment (beyond the paper's datasets): the selection
//! framework applied to `MPI_Reduce`, `MPI_Allgather` and `MPI_Gather` —
//! the paper's §II claims the approach "is generic and could be applied
//! to all collective communications"; this binary demonstrates it.

use mpcp_benchmark::{BenchConfig, DatasetSpec, LibKind};
use mpcp_collectives::Collective;
use mpcp_core::{evaluate, mean_speedup, splits, Selector};
use mpcp_experiments::{load_store, render_table, store_path, write_result_csv};
use mpcp_ml::Learner;
use mpcp_simnet::Machine;

fn main() {
    mpcp_experiments::print_provenance("extended_collectives", None);
    let fast = mpcp_experiments::fast_mode();
    let nodes: Vec<u32> =
        if fast { vec![2, 3, 4, 6] } else { vec![4, 7, 8, 13, 16, 19, 20, 24] };
    let train: Vec<u32> = if fast { vec![2, 4, 6] } else { vec![4, 8, 16, 20, 24] };
    let test: Vec<u32> = if fast { vec![3] } else { vec![7, 13, 19] };
    let ppn: Vec<u32> = if fast { vec![1, 4] } else { vec![1, 8, 16, 32] };
    let msizes: Vec<u64> = if fast {
        vec![16, 4 << 10, 64 << 10]
    } else {
        vec![1, 16, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 512 << 10, 1 << 20]
    };

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for coll in [Collective::Reduce, Collective::Allgather, Collective::Gather] {
        let spec = DatasetSpec {
            id: match coll {
                Collective::Reduce => "ext-reduce",
                Collective::Allgather => "ext-allgather",
                _ => "ext-gather",
            },
            coll,
            lib: LibKind::OpenMpi,
            machine: Machine::hydra(),
            nodes: nodes.clone(),
            ppn: ppn.clone(),
            msizes: msizes.clone(),
            seed: 0xE07 + coll as u64,
        };
        let library = spec.library(None);
        let bench = BenchConfig::paper_default("Hydra");
        let data = load_store(&spec, &library, &bench, &store_path(spec.id));
        let train_rec = splits::filter_records(&data.records, &train);
        let test_rec = splits::filter_records(&data.records, &test);
        for (name, learner) in Learner::paper_learners() {
            let selector = Selector::train(&learner, &train_rec, library.configs(coll)).expect("training failed");
            let evals = evaluate(&selector, &test_rec, &library, coll);
            let speedup = mean_speedup(&evals);
            let norm: f64 =
                evals.iter().map(|e| e.normalized_predicted()).sum::<f64>() / evals.len() as f64;
            let norm_def: f64 =
                evals.iter().map(|e| e.normalized_default()).sum::<f64>() / evals.len() as f64;
            rows.push(vec![
                coll.mpi_name().to_string(),
                name.to_string(),
                format!("{speedup:.2}"),
                format!("{norm:.2}"),
                format!("{norm_def:.2}"),
            ]);
            csv.push(format!("{},{name},{speedup:.4},{norm:.4},{norm_def:.4}", coll.mpi_name()));
        }
    }
    println!("Extension: algorithm selection for collectives beyond the paper's datasets");
    println!("(Open MPI defaults on Hydra; test node counts unseen in training)\n");
    println!(
        "{}",
        render_table(
            &["collective", "method", "speedup vs default", "norm(prediction)", "norm(default)"],
            &rows
        )
    );
    write_result_csv(
        "extended_collectives.csv",
        "collective,method,mean_speedup,norm_predicted,norm_default",
        &csv,
    );
}
