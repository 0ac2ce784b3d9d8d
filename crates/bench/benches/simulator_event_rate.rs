//! Raw discrete-event engine throughput on representative schedules
//! (events per second drives total dataset-generation cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpcp_benchmark::DatasetSpec;
use mpcp_collectives::{AlgKind, Collective, MpiLibrary};
use mpcp_simnet::{Machine, Program, Simulator, Topology};

/// Every distinct schedule of the table4-allreduce grid (d2's node
/// counts, ppn ≤ 8, 1 B–64 KiB, Open MPI's ten Allreduce
/// configurations), grouped by topology. Cells that compile to the same
/// programs on a topology are kept once, as `MakespanMemo` simulates
/// them once: this is the simulator's share of generating that grid.
fn table4_allreduce_schedules() -> Vec<(Topology, Vec<Vec<Program>>)> {
    let spec = DatasetSpec::d2();
    let configs = MpiLibrary::open_mpi_4_0_2().configs(Collective::Allreduce).to_vec();
    let mut groups = Vec::new();
    for &nodes in &spec.nodes {
        for &ppn in spec.ppn.iter().filter(|&&p| p <= 8) {
            let topo = Topology::new(nodes, ppn);
            let mut distinct: Vec<Vec<Program>> = Vec::new();
            for &m in spec.msizes.iter().filter(|&&m| m <= 64 << 10) {
                for cfg in &configs {
                    let progs = cfg.build(&topo, m);
                    if !distinct.contains(&progs) {
                        distinct.push(progs);
                    }
                }
            }
            groups.push((topo, distinct));
        }
    }
    groups
}

fn bench(c: &mut Criterion) {
    let machine = Machine::hydra();
    let cases = [
        ("ring_allreduce_64ranks_1M", AlgKind::AllreduceRing, Topology::new(8, 8), 1u64 << 20),
        ("chain_bcast_128ranks_4M_seg1K", AlgKind::BcastChain { chains: 4, seg: 1 << 10 },
         Topology::new(16, 8), 4 << 20),
        ("alltoall_linear_64ranks_4K", AlgKind::AlltoallLinear, Topology::new(8, 8), 4 << 10),
        // The schedule that dominates the table4-allreduce workload.
        ("ring_allreduce_288ranks_64K", AlgKind::AllreduceRing, Topology::new(36, 8), 64 << 10),
        // Every rank posts p - 1 operations at once: many pending events.
        ("alltoall_linear_512ranks_64K", AlgKind::AlltoallLinear, Topology::new(16, 32), 64 << 10),
    ];
    let mut g = c.benchmark_group("simulator_event_rate");
    g.sample_size(10);
    for (name, kind, topo, m) in cases {
        let sim = Simulator::new(&machine.model, &topo);
        let progs = kind.build(&topo, m);
        let events = sim.run(&progs).unwrap().events;
        g.throughput(Throughput::Elements(events));
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| sim.run(std::hint::black_box(&progs)).unwrap().events)
        });
    }

    // The whole grid's distinct schedules, one run each (1,251 runs).
    let grid: Vec<(Simulator<'_>, Vec<Vec<Program>>)> = table4_allreduce_schedules()
        .into_iter()
        .map(|(topo, schedules)| (Simulator::new(&machine.model, &topo), schedules))
        .collect();
    let run_all = |grid: &[(Simulator<'_>, Vec<Vec<Program>>)]| -> u64 {
        let mut events = 0;
        for (sim, schedules) in grid {
            for progs in schedules {
                events += sim.run(std::hint::black_box(progs)).unwrap().events;
            }
        }
        events
    };
    g.throughput(Throughput::Elements(run_all(&grid)));
    g.bench_function(BenchmarkId::from_parameter("table4_allreduce_grid_distinct"), |b| {
        b.iter(|| run_all(&grid))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
