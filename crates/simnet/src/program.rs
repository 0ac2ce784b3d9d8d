//! Per-rank communication programs.
//!
//! A collective algorithm is compiled (by `mpcp-collectives`) into one
//! [`Program`] per rank: a sequence of [`Instr`]s executed in order with
//! MPI-like blocking/nonblocking semantics. Deeply segmented schedules use
//! the [`Instr::Loop`] construct, which repeats a short body once per
//! segment with per-iteration tags and byte counts — so a 4 MiB broadcast
//! in 1 KiB segments needs 2 instructions per rank, not 8192.
//!
//! Tags inside a loop are `tag_base + iteration`, which gives every
//! segment its own matching stream; generators must leave enough tag space
//! between different `tag_base`s (see [`TAG_STRIDE`]).


use crate::topology::Rank;

/// Message tag (matching is on `(source, tag)`).
pub type Tag = u32;

/// Recommended spacing between `tag_base` values used by schedule
/// generators, so segment-indexed tags from different loop bodies never
/// collide (no schedule in this project uses more than 2^20 segments).
pub const TAG_STRIDE: u32 = 1 << 20;

/// How the per-iteration byte count of a [`Instr::Loop`] is derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoopBytes {
    /// A `total`-byte buffer cut into `seg`-byte segments; the final
    /// iteration carries the remainder. The iteration count is
    /// [`num_segments`]`(total, seg)`.
    Segmented { total: u64, seg: u64 },
    /// Every iteration moves exactly this many bytes (e.g. ring steps of
    /// one block each).
    Fixed(u64),
}

impl LoopBytes {
    /// Byte count of iteration `k` out of `iters`.
    #[inline]
    pub fn bytes_at(&self, k: u32, iters: u32) -> u64 {
        match *self {
            LoopBytes::Fixed(b) => b,
            LoopBytes::Segmented { total, seg } => {
                if k + 1 < iters {
                    seg
                } else {
                    total - seg * (iters as u64 - 1)
                }
            }
        }
    }
}

/// Number of segments a `total`-byte buffer is cut into with `seg`-byte
/// segments. Zero-byte buffers still produce one (empty) segment so that
/// synchronization structure is preserved.
#[inline]
pub fn num_segments(total: u64, seg: u64) -> u32 {
    assert!(seg > 0, "segment size must be positive");
    if total == 0 {
        1
    } else {
        total.div_ceil(seg) as u32
    }
}

/// One instruction inside a segment loop. Peers are fixed across
/// iterations (only tags and byte counts vary) — this is what makes loops
/// O(1) in memory regardless of segment count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SegInstr {
    /// Blocking send of the iteration's bytes to `peer`, tag
    /// `tag_base + k`.
    Send { peer: Rank, tag_base: Tag },
    /// Blocking receive.
    Recv { peer: Rank, tag_base: Tag },
    /// Nonblocking receive (collect with [`SegInstr::WaitAll`]).
    IRecv { peer: Rank, tag_base: Tag },
    /// Nonblocking send (collect with [`SegInstr::WaitAll`]).
    ISend { peer: Rank, tag_base: Tag },
    /// Block until all outstanding nonblocking operations complete.
    WaitAll,
    /// Concurrent send+receive (completes when both do).
    SendRecv {
        send_peer: Rank,
        send_tag_base: Tag,
        recv_peer: Rank,
        recv_tag_base: Tag,
    },
    /// Local reduction over the iteration's bytes.
    Compute,
}

/// A per-rank instruction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Blocking standard-mode send. Eager messages complete when injected;
    /// rendezvous messages complete when the payload has drained at the
    /// receiver's NIC.
    Send { peer: Rank, bytes: u64, tag: Tag },
    /// Blocking receive; completes when the payload is delivered and the
    /// receive overhead has been charged.
    Recv { peer: Rank, bytes: u64, tag: Tag },
    /// Nonblocking send; completion is consumed by a later [`Instr::WaitAll`].
    ISend { peer: Rank, bytes: u64, tag: Tag },
    /// Nonblocking receive.
    IRecv { peer: Rank, bytes: u64, tag: Tag },
    /// Concurrent blocking send+receive, as in `MPI_Sendrecv`.
    SendRecv {
        send_peer: Rank,
        send_bytes: u64,
        send_tag: Tag,
        recv_peer: Rank,
        recv_bytes: u64,
        recv_tag: Tag,
    },
    /// Local computation (reduction) over `bytes` bytes.
    Compute { bytes: u64 },
    /// Block until all outstanding nonblocking operations complete.
    WaitAll,
    /// Repeat `body` once per segment (see [`LoopBytes`]).
    Loop {
        iters: u32,
        bytes: LoopBytes,
        body: Box<[SegInstr]>,
    },
}

impl Instr {
    /// Convenience constructor for a blocking send.
    pub fn send(peer: Rank, bytes: u64, tag: Tag) -> Instr {
        Instr::Send { peer, bytes, tag }
    }

    /// Convenience constructor for a blocking receive.
    pub fn recv(peer: Rank, bytes: u64, tag: Tag) -> Instr {
        Instr::Recv { peer, bytes, tag }
    }

    /// Convenience constructor for a segmented loop over `total` bytes in
    /// `seg`-byte segments.
    pub fn seg_loop(total: u64, seg: u64, body: Vec<SegInstr>) -> Instr {
        Instr::Loop {
            iters: num_segments(total, seg),
            bytes: LoopBytes::Segmented { total, seg },
            body: body.into_boxed_slice(),
        }
    }

    /// Convenience constructor for a fixed-size loop (`iters` iterations
    /// of `bytes` bytes each).
    pub fn fixed_loop(iters: u32, bytes: u64, body: Vec<SegInstr>) -> Instr {
        Instr::Loop {
            iters,
            bytes: LoopBytes::Fixed(bytes),
            body: body.into_boxed_slice(),
        }
    }
}

/// A full per-rank program.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// An empty program (the rank participates but does nothing).
    pub fn empty() -> Program {
        Program { instrs: Vec::new() }
    }

    /// Build a program from an instruction list.
    pub fn from_instrs(instrs: Vec<Instr>) -> Program {
        Program { instrs }
    }

    /// Append one instruction.
    pub fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Total number of point-to-point *message sends* this program will
    /// perform (used for cost estimation and test invariants).
    pub fn count_sends(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Send { .. } | Instr::ISend { .. } | Instr::SendRecv { .. } => 1,
                Instr::Loop { iters, body, .. } => {
                    let per_iter: u64 = body
                        .iter()
                        .map(|s| match s {
                            SegInstr::Send { .. }
                            | SegInstr::ISend { .. }
                            | SegInstr::SendRecv { .. } => 1,
                            _ => 0,
                        })
                        .sum();
                    per_iter * *iters as u64
                }
                _ => 0,
            })
            .sum()
    }

    /// Total bytes this program sends (loop-aware).
    pub fn count_sent_bytes(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Send { bytes, .. } | Instr::ISend { bytes, .. } => *bytes,
                Instr::SendRecv { send_bytes, .. } => *send_bytes,
                Instr::Loop { iters, bytes, body } => {
                    let sends_per_iter: u64 = body
                        .iter()
                        .map(|s| match s {
                            SegInstr::Send { .. }
                            | SegInstr::ISend { .. }
                            | SegInstr::SendRecv { .. } => 1,
                            _ => 0,
                        })
                        .sum();
                    (0..*iters)
                        .map(|k| bytes.bytes_at(k, *iters) * sends_per_iter)
                        .sum()
                }
                _ => 0,
            })
            .sum()
    }

    /// Validate structural constraints: peers in range, no self-messages,
    /// positive loop iteration counts. `size` is the communicator size.
    pub fn validate(&self, rank: Rank, size: u32) -> Result<(), String> {
        let check_peer = |peer: Rank, what: &str| -> Result<(), String> {
            if peer >= size {
                return Err(format!("rank {rank}: {what} peer {peer} out of range (size {size})"));
            }
            if peer == rank {
                return Err(format!("rank {rank}: {what} to self"));
            }
            Ok(())
        };
        for i in &self.instrs {
            match i {
                Instr::Send { peer, .. } | Instr::ISend { peer, .. } => check_peer(*peer, "send")?,
                Instr::Recv { peer, .. } | Instr::IRecv { peer, .. } => check_peer(*peer, "recv")?,
                Instr::SendRecv { send_peer, recv_peer, .. } => {
                    check_peer(*send_peer, "sendrecv-send")?;
                    check_peer(*recv_peer, "sendrecv-recv")?;
                }
                Instr::Loop { iters, body, .. } => {
                    if *iters == 0 {
                        return Err(format!("rank {rank}: loop with zero iterations"));
                    }
                    for s in body.iter() {
                        match s {
                            SegInstr::Send { peer, .. } | SegInstr::ISend { peer, .. } => {
                                check_peer(*peer, "loop send")?
                            }
                            SegInstr::Recv { peer, .. } | SegInstr::IRecv { peer, .. } => {
                                check_peer(*peer, "loop recv")?
                            }
                            SegInstr::WaitAll => {}
                            SegInstr::SendRecv { send_peer, recv_peer, .. } => {
                                check_peer(*send_peer, "loop sendrecv-send")?;
                                check_peer(*recv_peer, "loop sendrecv-recv")?;
                            }
                            SegInstr::Compute => {}
                        }
                    }
                }
                Instr::Compute { .. } | Instr::WaitAll => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_segments_basics() {
        assert_eq!(num_segments(0, 1024), 1);
        assert_eq!(num_segments(1, 1024), 1);
        assert_eq!(num_segments(1024, 1024), 1);
        assert_eq!(num_segments(1025, 1024), 2);
        assert_eq!(num_segments(4 << 20, 1 << 10), 4096);
    }

    #[test]
    fn segmented_bytes_cover_total() {
        let total = 10_000u64;
        let seg = 1024u64;
        let iters = num_segments(total, seg);
        let lb = LoopBytes::Segmented { total, seg };
        let sum: u64 = (0..iters).map(|k| lb.bytes_at(k, iters)).sum();
        assert_eq!(sum, total);
        assert_eq!(lb.bytes_at(iters - 1, iters), total % seg);
    }

    #[test]
    fn fixed_bytes_constant() {
        let lb = LoopBytes::Fixed(77);
        assert_eq!(lb.bytes_at(0, 5), 77);
        assert_eq!(lb.bytes_at(4, 5), 77);
    }

    #[test]
    fn count_sends_in_loops() {
        let p = Program::from_instrs(vec![
            Instr::send(1, 100, 0),
            Instr::seg_loop(4096, 1024, vec![
                SegInstr::Recv { peer: 1, tag_base: TAG_STRIDE },
                SegInstr::Send { peer: 2, tag_base: 2 * TAG_STRIDE },
            ]),
        ]);
        assert_eq!(p.count_sends(), 1 + 4);
        assert_eq!(p.count_sent_bytes(), 100 + 4096);
    }

    #[test]
    fn validate_catches_self_send() {
        let p = Program::from_instrs(vec![Instr::send(0, 1, 0)]);
        assert!(p.validate(0, 4).is_err());
        assert!(p.validate(1, 4).is_ok());
    }

    #[test]
    fn validate_catches_out_of_range_peer() {
        let p = Program::from_instrs(vec![Instr::recv(9, 1, 0)]);
        assert!(p.validate(0, 4).is_err());
    }

    #[test]
    fn validate_catches_empty_loop() {
        let p = Program::from_instrs(vec![Instr::Loop {
            iters: 0,
            bytes: LoopBytes::Fixed(1),
            body: Box::new([]),
        }]);
        assert!(p.validate(0, 4).is_err());
    }
}
