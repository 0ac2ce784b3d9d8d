//! FIFO-shared bandwidth resources (NIC rails, memory channels).
//!
//! Every node has three resources: NIC transmit and NIC receive, each
//! with one server per rail, and its shared-memory channels. Each is
//! modelled as `c` identical parallel servers. A reservation occupies
//! exactly one server for a given service time; reservations are
//! granted in request order on the earliest-free server. This is the
//! classic multi-server FIFO queue, which captures both the
//! *serialization* of many concurrent flows through one NIC and the
//! *parallelism* of dual-rail fabrics.
//!
//! [`NodeServers`] keeps the servers of every resource of every node in
//! one flat array, node-major, so a reservation touches one contiguous
//! run of a few words and the engine holds no per-node allocation.

use std::ops::Range;

use crate::time::SimTime;

/// One of a node's bandwidth resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Port {
    /// NIC transmit side: one server per rail.
    NicTx,
    /// NIC receive side: one server per rail.
    NicRx,
    /// Shared-memory channels.
    Mem,
}

/// The multi-server FIFO resources of every node.
#[derive(Clone, Debug)]
pub struct NodeServers {
    /// Time at which each server next becomes idle. Node `n`'s servers
    /// are `free_at[n * stride..][..stride]`: its NIC transmit rails,
    /// then its NIC receive rails, then its memory channels.
    free_at: Vec<SimTime>,
    rails: usize,
    stride: usize,
}

impl NodeServers {
    /// Servers for `nodes` nodes with `rails` NIC rails per direction and
    /// `mem_channels` memory channels each, all idle at t = 0.
    pub fn new(nodes: usize, rails: u32, mem_channels: u32) -> Self {
        assert!(rails > 0 && mem_channels > 0, "a resource needs at least one server");
        let rails = rails as usize;
        let stride = 2 * rails + mem_channels as usize;
        NodeServers { free_at: vec![SimTime::ZERO; nodes * stride], rails, stride }
    }

    /// Where `node`'s servers for `port` sit in `free_at`.
    #[inline]
    fn slots(&self, node: usize, port: Port) -> Range<usize> {
        let base = node * self.stride;
        match port {
            Port::NicTx => base..base + self.rails,
            Port::NicRx => base + self.rails..base + 2 * self.rails,
            Port::Mem => base + 2 * self.rails..base + self.stride,
        }
    }

    /// Reserve one of `node`'s `port` servers for `duration`, starting no
    /// earlier than `earliest`. Returns `(start, end)` of the granted
    /// slot.
    ///
    /// Grant order is call order (FIFO); the engine calls this in event
    /// order, which makes contention deterministic.
    #[inline]
    pub fn reserve(
        &mut self,
        node: usize,
        port: Port,
        earliest: SimTime,
        duration: SimTime,
    ) -> (SimTime, SimTime) {
        let range = self.slots(node, port);
        let servers = &mut self.free_at[range];
        // Pick the first server that frees up earliest.
        let mut best = 0;
        let mut best_t = servers[0];
        for (i, &t) in servers.iter().enumerate().skip(1) {
            if t < best_t {
                best = i;
                best_t = t;
            }
        }
        let start = earliest.max(best_t);
        let end = start + duration;
        servers[best] = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let mut r = NodeServers::new(1, 1, 1);
        let (s1, e1) = r.reserve(0, Port::NicTx, SimTime(0), SimTime(100));
        let (s2, e2) = r.reserve(0, Port::NicTx, SimTime(0), SimTime(100));
        assert_eq!((s1, e1), (SimTime(0), SimTime(100)));
        assert_eq!((s2, e2), (SimTime(100), SimTime(200)));
    }

    #[test]
    fn dual_rail_parallelizes_two_flows() {
        let mut r = NodeServers::new(1, 2, 1);
        let (_, e1) = r.reserve(0, Port::NicRx, SimTime(0), SimTime(100));
        let (_, e2) = r.reserve(0, Port::NicRx, SimTime(0), SimTime(100));
        let (s3, _) = r.reserve(0, Port::NicRx, SimTime(0), SimTime(100));
        assert_eq!(e1, SimTime(100));
        assert_eq!(e2, SimTime(100));
        assert_eq!(s3, SimTime(100)); // third flow queues
    }

    #[test]
    fn earliest_bound_is_respected() {
        let mut r = NodeServers::new(1, 1, 1);
        let (s, e) = r.reserve(0, Port::Mem, SimTime(500), SimTime(10));
        assert_eq!((s, e), (SimTime(500), SimTime(510)));
        // Idle gap is not back-filled (FIFO, no EDF reordering).
        let (s2, _) = r.reserve(0, Port::Mem, SimTime(0), SimTime(10));
        assert_eq!(s2, SimTime(510));
    }

    #[test]
    fn busy_accounting() {
        // Each channel is busy for exactly its reservations: a grant
        // starts when the channel it lands on frees up.
        let mut r = NodeServers::new(1, 1, 2);
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(30)), (SimTime(0), SimTime(30)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(70)), (SimTime(0), SimTime(70)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(40)), (SimTime(30), SimTime(70)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(5)), (SimTime(70), SimTime(75)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(5)), (SimTime(70), SimTime(75)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(5)), (SimTime(75), SimTime(80)));
    }

    #[test]
    fn ties_go_to_the_first_server() {
        // Two of three channels free at 100: the first of them is taken,
        // and the next grant waits for the remaining one.
        let mut r = NodeServers::new(1, 1, 3);
        r.reserve(0, Port::Mem, SimTime(0), SimTime(200));
        r.reserve(0, Port::Mem, SimTime(0), SimTime(100));
        r.reserve(0, Port::Mem, SimTime(0), SimTime(100));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(1)), (SimTime(100), SimTime(101)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(1)), (SimTime(100), SimTime(101)));
        assert_eq!(r.reserve(0, Port::Mem, SimTime(0), SimTime(1)), (SimTime(101), SimTime(102)));
    }

    #[test]
    fn nodes_and_ports_do_not_share_servers() {
        let mut r = NodeServers::new(3, 2, 4);
        for node in 0..3 {
            for (port, servers) in [(Port::NicTx, 2), (Port::NicRx, 2), (Port::Mem, 4)] {
                // Fill every server of this (node, port) ...
                for _ in 0..servers {
                    assert_eq!(r.reserve(node, port, SimTime(0), SimTime(50)).0, SimTime(0));
                }
                // ... and the next grant queues behind them alone.
                assert_eq!(r.reserve(node, port, SimTime(0), SimTime(50)).0, SimTime(50));
            }
        }
    }
}
