//! Raw discrete-event engine throughput on representative schedules
//! (events per second drives total dataset-generation cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpcp_collectives::AlgKind;
use mpcp_simnet::{Machine, Simulator, Topology};

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
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
