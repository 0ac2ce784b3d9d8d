//! Per-learner model-fitting time on a runtime-surface dataset (one
//! model of the paper's per-configuration ensemble).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpcp_bench::training_dataset;
use mpcp_ml::gbt::GbtParams;
use mpcp_ml::Learner;

fn bench(c: &mut Criterion) {
    let data = training_dataset(10); // 600 rows
    let mut g = c.benchmark_group("learner_fit_600rows");
    g.sample_size(10);
    // 50 boosting rounds keeps the bench turnaround sane; scale by 4
    // for the paper's 200 rounds.
    let xgb = Learner::Xgb(GbtParams { rounds: 50, ..GbtParams::default() });
    for (name, learner) in [
        ("KNN", Learner::knn()),
        ("GAM", Learner::gam()),
        ("XGBoost", xgb),
        ("RandomForest", Learner::forest()),
        ("Linear", Learner::linear()),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| learner.fit(std::hint::black_box(&data)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
