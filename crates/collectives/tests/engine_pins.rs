//! Whole-result pins for the simulation engine.
//!
//! The golden corpus in `mpcp-benchmark` pins makespans only. This suite
//! pins every field of [`SimResult`] — per-rank `finish` and `start`,
//! the event and message counts, the inter/intra byte totals and the
//! per-rank byte volumes — for every configuration in every registry
//! list of the three paper collectives, on a few topologies and on
//! message sizes on both sides of both eager thresholds. A change to
//! the engine's event queue or matching structures that alters any
//! observable (even only the event count) moves a digest here.
//!
//! The digests were captured before the engine's match queues and
//! event queue were rewritten.

use mpcp_collectives::{registry, AlgorithmConfig, Collective};
use mpcp_simnet::{Machine, SimResult, SimTime, Simulator, Topology};

/// `(nodes, ppn)`: one rank per node, odd and even node counts, and
/// several ranks per node so intra- and inter-node paths both run.
const TOPOLOGIES: [(u32, u32); 4] = [(2, 1), (3, 4), (4, 8), (5, 3)];

/// 1 B, 4 KiB (eager everywhere), 64 KiB (above Hydra's 12 KiB
/// inter-node and 32 KiB intra-node thresholds for whole messages,
/// with segments on either side) and 1 MiB.
const MSIZES: [u64; 4] = [1, 4 << 10, 64 << 10, 1 << 20];

/// Digest word for a simulation that errored.
const SIM_ERROR: u64 = u64::MAX;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for w in ws {
            self.word(w);
            n += 1;
        }
        // Length-delimit each vector so shifted values cannot alias.
        self.word(n);
    }

    fn result(&mut self, r: &SimResult) {
        self.words(r.finish.iter().map(|t| t.picos()));
        self.words(r.start.iter().map(|t| t.picos()));
        self.word(r.events);
        self.word(r.messages);
        self.word(r.bytes_inter);
        self.word(r.bytes_intra);
        self.words(r.recv_bytes.iter().copied());
        self.words(r.sent_bytes.iter().copied());
    }
}

/// Digest of every configuration in `configs`, on every topology and
/// message size, each run through its own `Simulator::run`.
fn digest(configs: &[AlgorithmConfig]) -> u64 {
    let model = Machine::hydra().model;
    let mut h = Fnv::new();
    for cfg in configs {
        for &(nodes, ppn) in &TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let sim = Simulator::new(&model, &topo);
            for &m in &MSIZES {
                match sim.run(&cfg.build(&topo, m)) {
                    Ok(r) => h.result(&r),
                    Err(_) => h.word(SIM_ERROR),
                }
            }
        }
    }
    h.0
}

fn check(list: &str, configs: Vec<AlgorithmConfig>, golden: u64) {
    assert!(!configs.is_empty(), "{list}: empty registry list");
    assert_eq!(
        format!("{:016x}", digest(&configs)),
        format!("{golden:016x}"),
        "{list}: SimResult pins moved"
    );
}

#[test]
fn open_mpi_bcast() {
    check(
        "open_mpi bcast",
        registry::open_mpi(Collective::Bcast),
        0x4b5fee2199cf9d8e,
    );
}

#[test]
fn open_mpi_allreduce() {
    check(
        "open_mpi allreduce",
        registry::open_mpi(Collective::Allreduce),
        0x62f408edae926fe3,
    );
}

#[test]
fn open_mpi_alltoall() {
    check(
        "open_mpi alltoall",
        registry::open_mpi(Collective::Alltoall),
        0xb7d15ba159fbd354,
    );
}

#[test]
fn intel_bcast() {
    check(
        "intel bcast",
        registry::intel(Collective::Bcast),
        0x4a415501ed7602e4,
    );
}

#[test]
fn intel_allreduce() {
    check(
        "intel allreduce",
        registry::intel(Collective::Allreduce),
        0xbd9f26b769f3b805,
    );
}

#[test]
fn intel_alltoall() {
    check(
        "intel alltoall",
        registry::intel(Collective::Alltoall),
        0x7b95ea6be6900bdc,
    );
}

#[test]
fn extended_bcast() {
    check(
        "experimental bcast",
        registry::experimental(Collective::Bcast),
        0xec9a79c89c2d2fbf,
    );
}

#[test]
fn extended_allreduce() {
    check(
        "experimental allreduce",
        registry::experimental(Collective::Allreduce),
        0x4ecb7234cd89ca28,
    );
}

/// Per-rank start offsets reach the result's `start` vector and shift
/// both the event order and every finish time.
#[test]
fn skewed_starts() {
    let model = Machine::hydra().model;
    let topo = Topology::new(3, 4);
    let starts: Vec<SimTime> = (0..topo.size() as u64)
        .map(|r| SimTime((r * 7_919_113) % 5_000_000))
        .collect();
    let mut h = Fnv::new();
    for coll in [
        Collective::Bcast,
        Collective::Allreduce,
        Collective::Alltoall,
    ] {
        for cfg in registry::open_mpi(coll) {
            for &m in &MSIZES {
                let progs = cfg.build(&topo, m);
                match Simulator::new(&model, &topo).run_with_skew(&progs, &starts) {
                    Ok(r) => h.result(&r),
                    Err(_) => h.word(SIM_ERROR),
                }
            }
        }
    }
    assert_eq!(
        format!("{:016x}", h.0),
        "0d96abb038e82ade",
        "skewed SimResult pins moved"
    );
}
