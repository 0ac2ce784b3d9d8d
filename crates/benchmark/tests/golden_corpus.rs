//! Golden makespan corpus for all eight paper datasets.
//!
//! The simulator is deterministic, so a speed-up of any layer below
//! `generate` (engine, schedule builders, makespan dedup) must leave
//! every noise-free makespan unchanged to the picosecond. This suite
//! pins them: for each of d1–d8 it takes a stratified sample of the
//! grid — 2 node counts × 2 ppn values × 3 message sizes, every
//! configuration — and digests the makespans with FNV-1a in canonical
//! cell order. The digests below were captured before the makespan
//! memo existed; a change that moves one has changed the simulation.
//!
//! Intel MPI datasets are built with `TuningGrid::tiny()`: their
//! configuration lists do not depend on the tuned decision table, and
//! the tiny sweep keeps the suite cheap.

use mpcp_benchmark::{BenchConfig, DatasetSpec, LibKind};
use mpcp_collectives::decision::TuningGrid;
use mpcp_collectives::MpiLibrary;
use mpcp_simnet::{SimTime, Simulator, Topology};

/// `(dataset, digest)` captured on the simulator before the memo.
const CORPUS: [(&str, u64); 8] = [
    ("d1", 0x379fd1cb1a91f714),
    ("d2", 0xa67c98c8d74cc67d),
    ("d3", 0x15435e17f8b167ad),
    ("d4", 0x2bdb3ee1299b26e3),
    ("d5", 0x30b45cda57824658),
    ("d6", 0x595e23a3d463334f),
    ("d7", 0x5b9e2adb4a3f30d7),
    ("d8", 0x42299d0fd994b356),
];

/// Digest word for a cell whose simulation errored.
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
}

/// The stratified sample of `spec`: the smallest and a middle node
/// count and ppn, and a small, a middle and a large message size.
fn sample(spec: &DatasetSpec) -> DatasetSpec {
    let two = |v: &[u32]| vec![v[0], v[v.len() / 3]];
    let m = &spec.msizes;
    DatasetSpec {
        nodes: two(&spec.nodes),
        ppn: two(&spec.ppn),
        msizes: vec![m[1], m[m.len() / 2], m[m.len() - 2]],
        ..spec.clone()
    }
}

fn library(spec: &DatasetSpec) -> MpiLibrary {
    match spec.lib {
        LibKind::OpenMpi => spec.library(None),
        LibKind::IntelMpi => spec.library(Some(TuningGrid::tiny())),
    }
}

/// Every cell's makespan (`None` on a simulation error), each from its
/// own unshared `Simulator::run`, in canonical cell order.
fn makespans(spec: &DatasetSpec, lib: &MpiLibrary) -> Vec<Option<SimTime>> {
    let configs = lib.configs(spec.coll);
    spec.cell_grid(lib)
        .iter()
        .map(|cell| {
            let topo = Topology::new(cell.nodes, cell.ppn);
            let progs = configs[cell.uid as usize].build(&topo, cell.msize);
            Simulator::new(&spec.machine.model, &topo).run(&progs).ok().map(|r| r.makespan())
        })
        .collect()
}

fn digest(makespans: &[Option<SimTime>]) -> u64 {
    let mut h = Fnv::new();
    for t in makespans {
        h.word(t.map_or(SIM_ERROR, |t| t.picos()));
    }
    h.0
}

/// Check dataset `id`'s sample against the corpus, then check that
/// `generate` (the memoised path) reports exactly those makespans as
/// each record's `base`.
fn check(id: &str) {
    let golden = CORPUS.iter().find(|(d, _)| *d == id).expect("corpus entry").1;
    let spec = sample(&DatasetSpec::by_id(id).expect("paper dataset"));
    let lib = library(&spec);
    let truth = makespans(&spec, &lib);
    assert_eq!(
        format!("{:016x}", digest(&truth)),
        format!("{golden:016x}"),
        "{id}: makespan corpus moved"
    );
    let expected: Vec<u64> =
        truth.into_iter().flatten().map(|t| t.as_secs_f64().to_bits()).collect();
    let result = spec.generate(&lib, &BenchConfig::quick());
    let base: Vec<u64> = result.records.iter().map(|r| r.base.to_bits()).collect();
    assert_eq!(base, expected, "{id}: generate's base differs from the corpus");
}

#[test]
fn d1_bcast_open_mpi_hydra() {
    check("d1");
}

#[test]
fn d2_allreduce_open_mpi_hydra() {
    check("d2");
}

#[test]
fn d3_bcast_open_mpi_jupiter() {
    check("d3");
}

#[test]
fn d4_allreduce_open_mpi_jupiter() {
    check("d4");
}

#[test]
fn d5_allreduce_intel_mpi_hydra() {
    check("d5");
}

#[test]
fn d6_alltoall_intel_mpi_hydra() {
    check("d6");
}

#[test]
fn d7_bcast_intel_mpi_hydra() {
    check("d7");
}

#[test]
fn d8_bcast_open_mpi_supermuc_ng() {
    check("d8");
}
