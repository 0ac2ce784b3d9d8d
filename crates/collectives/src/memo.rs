//! Simulate each distinct schedule once.
//!
//! The simulator is deterministic, so two configurations that compile
//! to the same per-rank programs on one topology have the same makespan
//! by construction. Many do: a segmented ring whose segment is at least
//! the per-rank block is the plain ring, and an unsegmented tree is the
//! same tree whatever segment size it was registered with.
//!
//! A [`MakespanMemo`] is scoped to one `(network model, topology)` and
//! owns the [`Simulator`] for it. Each lookup builds the cell's
//! programs and files them under a 64-bit fingerprint. The fingerprint
//! only narrows the search: a candidate is reused after its
//! representative cell's programs have been rebuilt and compared with
//! `==`, so a fingerprint collision costs a simulation, never a wrong
//! makespan. The memo keeps no program vectors — only the
//! representative's `(algorithm, message size)` and its outcome — so it
//! stays a few bytes per distinct schedule.

use std::hash::{Hash, Hasher};

use mpcp_simnet::util::{IntHasher, IntMap};
use mpcp_simnet::{NetworkModel, Program, SimError, SimTime, Simulator, Topology};

use crate::coll::{AlgKind, AlgorithmConfig};

/// The first cell seen with a given schedule, and what simulating it
/// gave.
struct Seen {
    kind: AlgKind,
    msize: u64,
    result: Result<SimTime, SimError>,
}

/// Makespans of the schedules simulated so far on one topology.
pub struct MakespanMemo<'m> {
    sim: Simulator<'m>,
    topo: Topology,
    /// Fingerprint → every distinct schedule with that fingerprint.
    seen: IntMap<Vec<Seen>>,
    sims: u64,
    reused: u64,
}

/// 64-bit fingerprint of a schedule.
fn fingerprint(progs: &[Program]) -> u64 {
    let mut h = IntHasher::default();
    progs.hash(&mut h);
    h.finish()
}

impl<'m> MakespanMemo<'m> {
    /// An empty memo for `model` on `topo`.
    pub fn new(model: &'m NetworkModel, topo: &Topology) -> Self {
        MakespanMemo {
            sim: Simulator::new(model, topo),
            topo: topo.clone(),
            seen: IntMap::default(),
            sims: 0,
            reused: 0,
        }
    }

    /// The topology every lookup is built and simulated on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Noise-free makespan of `cfg` at `msize` bytes: the outcome
    /// recorded for an identical schedule if one was simulated before,
    /// otherwise a fresh [`Simulator::run`]. A simulation error is
    /// recorded like a makespan and reported again for every later cell
    /// with the same programs.
    pub fn makespan(&mut self, cfg: &AlgorithmConfig, msize: u64) -> Result<SimTime, SimError> {
        let progs = cfg.build(&self.topo, msize);
        let candidates = self.seen.entry(fingerprint(&progs)).or_default();
        for seen in candidates.iter() {
            if seen.kind.build(&self.topo, seen.msize) == progs {
                self.reused += 1;
                return seen.result.clone();
            }
        }
        let result = self.sim.run(&progs).map(|run| run.makespan());
        self.sims += 1;
        candidates.push(Seen { kind: cfg.kind, msize, result: result.clone() });
        result
    }

    /// Lookups that ran the simulator.
    pub fn sims(&self) -> u64 {
        self.sims
    }

    /// Lookups answered from an identical, already simulated schedule.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use mpcp_simnet::Machine;

    fn direct(model: &NetworkModel, topo: &Topology, cfg: &AlgorithmConfig, m: u64) -> SimTime {
        Simulator::new(model, topo).run(&cfg.build(topo, m)).unwrap().makespan()
    }

    #[test]
    fn identical_schedules_are_simulated_once() {
        // 16 B over 8 ranks is a 2-byte block: every segmented ring
        // with a segment of at least 2 bytes is the plain ring.
        let machine = Machine::hydra();
        let topo = Topology::new(4, 2);
        let ring = AlgorithmConfig::new(4, AlgKind::AllreduceRing);
        let seg_ring = AlgorithmConfig::new(5, AlgKind::AllreduceSegRing { seg: 1 << 10 });
        assert_eq!(ring.build(&topo, 16), seg_ring.build(&topo, 16));
        let mut memo = MakespanMemo::new(&machine.model, &topo);
        let a = memo.makespan(&ring, 16).unwrap();
        let b = memo.makespan(&seg_ring, 16).unwrap();
        assert_eq!((memo.sims(), memo.reused()), (1, 1));
        assert_eq!(a, direct(&machine.model, &topo, &ring, 16));
        assert_eq!(b, direct(&machine.model, &topo, &seg_ring, 16));
    }

    #[test]
    fn every_lookup_equals_an_unshared_simulation() {
        let machine = Machine::jupiter();
        let topo = Topology::new(3, 2);
        let mut memo = MakespanMemo::new(&machine.model, &topo);
        let list = registry::open_mpi_allreduce();
        for m in [1u64, 16, 4 << 10, 256 << 10] {
            for cfg in &list {
                assert_eq!(memo.makespan(cfg, m).unwrap(), direct(&machine.model, &topo, cfg, m));
            }
        }
        assert_eq!(memo.sims() + memo.reused(), 4 * list.len() as u64);
        assert!(memo.reused() > 0, "the Open MPI allreduce list has duplicate schedules");
    }

    #[test]
    fn a_fingerprint_match_with_different_programs_is_simulated() {
        // Plant a recursive-doubling entry under the ring's
        // fingerprint with a bogus makespan: the ring's programs differ,
        // so the memo must simulate the ring rather than reuse it.
        let machine = Machine::hydra();
        let topo = Topology::new(4, 1);
        let ring = AlgorithmConfig::new(4, AlgKind::AllreduceRing);
        let m = 64 << 10;
        let mut memo = MakespanMemo::new(&machine.model, &topo);
        let fp = fingerprint(&ring.build(&topo, m));
        memo.seen.entry(fp).or_default().push(Seen {
            kind: AlgKind::AllreduceRecDoubling,
            msize: m,
            result: Ok(SimTime(1)),
        });
        let t = memo.makespan(&ring, m).unwrap();
        assert_eq!((memo.sims(), memo.reused()), (1, 0));
        assert_eq!(t, direct(&machine.model, &topo, &ring, m));
        // The ring is now recorded beside the planted entry and reused.
        assert_eq!(memo.makespan(&ring, m).unwrap(), t);
        assert_eq!((memo.sims(), memo.reused()), (1, 1));
    }

    #[test]
    fn a_recorded_simulation_error_is_reported_for_every_identical_schedule() {
        let machine = Machine::hydra();
        let topo = Topology::new(4, 2);
        let ring = AlgorithmConfig::new(4, AlgKind::AllreduceRing);
        let mut memo = MakespanMemo::new(&machine.model, &topo);
        let error = SimError::Deadlock { blocked: vec![0, 3] };
        let fp = fingerprint(&ring.build(&topo, 16));
        memo.seen.entry(fp).or_default().push(Seen {
            kind: ring.kind,
            msize: 16,
            result: Err(error.clone()),
        });
        // Every configuration that compiles to the ring's programs at
        // 16 B gets the recorded error; nothing is simulated.
        let mut shared = 0;
        for cfg in &registry::open_mpi_allreduce() {
            if cfg.build(&topo, 16) == ring.build(&topo, 16) {
                assert_eq!(memo.makespan(cfg, 16), Err(error.clone()), "{}", cfg.label());
                shared += 1;
            }
        }
        assert!(shared > 1, "ring and segmented rings share the schedule");
        assert_eq!((memo.sims(), memo.reused()), (0, shared));
    }
}
