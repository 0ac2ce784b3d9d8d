//! The discrete-event simulation engine.
//!
//! The engine executes one [`Program`] per rank with MPI-like semantics:
//!
//! * **Eager** messages (≤ eager threshold) are buffered: the sender's
//!   blocking `Send` completes once the payload has been injected into the
//!   sender-side resource (NIC rail or memory channel); the payload then
//!   drains at the receiver and is matched against posted receives, or
//!   parked in an unexpected-message queue (a later match pays an extra
//!   copy).
//! * **Rendezvous** messages (&gt; eager threshold) first exchange a
//!   request-to-send / clear-to-send control round trip; the payload only
//!   moves once the receive is posted, and the sender stays engaged until
//!   injection finishes (synchronous-send behaviour). An RTS is never
//!   matched before an earlier eager payload of its `(source, tag)`
//!   stream that is still draining (MPI's non-overtaking rule): its
//!   arrival waits for that payload's delivery.
//! * Nonblocking `ISend`/`IRecv` operations complete in the background and
//!   are collected by `WaitAll`.
//!
//! Bandwidth contention is modelled with per-node multi-server FIFO
//! resources (NIC transmit rails, NIC receive rails, shared-memory
//! channels), all held in one flat array; see
//! [`crate::resource::NodeServers`]. One deliberate approximation keeps
//! the event count low: a message's receive-side drain slot is reserved at
//! injection time rather than at wire arrival, so two messages arriving
//! nearly simultaneously from different sources are drained in
//! *reservation* order, which can differ from arrival order by at most the
//! sender-side queueing difference. Collective schedules are insensitive
//! to this reordering.
//!
//! The engine is exactly deterministic: events at equal times run in the
//! order they were scheduled, and no randomness exists below the
//! benchmark layer.
//!
//! The hot loop allocates nothing per event once its buffers have grown:
//! pending events live in a monotone radix heap ([`EventQueue`]);
//! unmatched receives and messages live in one FIFO per rank and kind
//! ([`MatchQueue`]) whose oldest entry sits inline in the rank's state,
//! since a queue is almost always empty or matched at its front; and
//! each per-byte cost keeps its last `bytes → SimTime` conversion
//! ([`LastCost`]), since consecutive messages mostly repeat a size.

use std::collections::VecDeque;

use crate::error::SimError;
use crate::model::NetworkModel;
use crate::program::{Instr, LoopBytes, Program, SegInstr, Tag};
use crate::resource::{NodeServers, Port};
use crate::stats::SimResult;
use crate::time::SimTime;
use crate::topology::{NodeId, Rank, Topology};
use crate::util::match_key;

/// A configured simulator for one machine model and topology.
///
/// `run` may be called many times with different programs; each run is
/// independent.
pub struct Simulator<'m> {
    model: &'m NetworkModel,
    topo: Topology,
}

impl<'m> Simulator<'m> {
    /// Create a simulator for `model` and `topo`.
    pub fn new(model: &'m NetworkModel, topo: &Topology) -> Self {
        Simulator { model, topo: topo.clone() }
    }

    /// Execute one program per rank, all starting at t = 0.
    pub fn run(&self, programs: &[Program]) -> Result<SimResult, SimError> {
        self.run_skewed(programs, None)
    }

    /// Execute with per-rank start offsets (process skew injection).
    pub fn run_with_skew(
        &self,
        programs: &[Program],
        starts: &[SimTime],
    ) -> Result<SimResult, SimError> {
        self.run_skewed(programs, Some(starts))
    }

    fn run_skewed(
        &self,
        programs: &[Program],
        starts: Option<&[SimTime]>,
    ) -> Result<SimResult, SimError> {
        let p = self.topo.size();
        if programs.len() != p as usize {
            return Err(SimError::ProgramCountMismatch { programs: programs.len(), ranks: p });
        }
        if let Some(s) = starts {
            if s.len() != p as usize {
                return Err(SimError::ProgramCountMismatch { programs: s.len(), ranks: p });
            }
        }
        for (r, prog) in programs.iter().enumerate() {
            prog.validate(r as Rank, p)
                .map_err(|reason| SimError::InvalidProgram { rank: r as Rank, reason })?;
        }
        let mut span = mpcp_obs::span("simulate")
            .attr("nodes", self.topo.nodes())
            .attr("ranks", p);
        let wall = mpcp_obs::maybe_now();
        let mut exec = Exec::new(self.model, &self.topo, programs, starts);
        let result = exec.run();
        if let Ok(r) = &result {
            mpcp_obs::counter_add!("simnet.runs", 1);
            mpcp_obs::counter_add!("simnet.events", r.events);
            mpcp_obs::counter_add!("simnet.messages", r.messages);
            mpcp_obs::counter_add!("simnet.bytes_inter", r.bytes_inter);
            mpcp_obs::counter_add!("simnet.bytes_intra", r.bytes_intra);
            mpcp_obs::hist_record!("simnet.run.events", r.events);
            span.set_attr("events", r.events);
            span.set_attr("messages", r.messages);
            span.set_attr("bytes_inter", r.bytes_inter);
            span.set_attr("bytes_intra", r.bytes_intra);
            span.set_attr("sim_us", r.makespan().as_micros_f64());
        }
        mpcp_obs::record_elapsed!("simnet.run.wall_ns", wall);
        result
    }
}

// ---------------------------------------------------------------------------
// internal execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    /// Rank CPU becomes free; fetch and issue the next instruction.
    Advance { rank: Rank },
    /// A completion for the rank's current blocking instruction.
    CurDone { rank: Rank },
    /// A completion for a nonblocking operation.
    NbDone { rank: Rank },
    /// Sender-side injection finished.
    SenderDone { msg: u32 },
    /// Payload fully drained at the receiver node.
    Delivery { msg: u32 },
    /// Rendezvous request-to-send reached the receiver.
    RtsArrive { msg: u32 },
    /// Rendezvous clear-to-send reached the sender.
    CtsArrive { msg: u32 },
}

/// A scheduled event: 16 bytes. Its place among events of equal time is
/// its place in the push order, kept by [`EventQueue`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct Event {
    time: SimTime,
    kind: EventKind,
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// Pending events, popped in `(time, push order)` order.
///
/// A radix heap over the picosecond timestamp. Simulated time never goes
/// backwards — every event is scheduled at or after the time of the event
/// being processed — so each event is filed in the bucket named by the
/// highest bit in which its time differs from the last popped time
/// (bucket 0: equal). Popping drains bucket 0 front to back; when it is
/// empty, the lowest non-empty bucket is refiled against its minimum
/// time, which sends that minimum's events to bucket 0.
///
/// Events of equal time always share a bucket (the bucket depends only on
/// the time and the last popped time), pushes append, and refiling keeps
/// relative order, so equal times leave in push order: exactly the
/// `(time, sequence number)` order of a binary heap that numbers its
/// pushes. Each event is refiled at most 64 times, in practice a few.
struct EventQueue {
    /// The current time: the time of the last popped event, or after a
    /// refill of the next one. Every queued time is ≥ this.
    last: u64,
    /// `buckets[b]` holds events whose time differs from `last` first in
    /// bit `b - 1`; `buckets[0]` those at exactly `last`.
    buckets: [Vec<Event>; 65],
    /// Read cursor into `buckets[0]`.
    head: usize,
    /// Bit `b - 1` set iff `buckets[b]` is non-empty, for `b` in 1..=64.
    nonempty: u64,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            nonempty: 0,
        }
    }

    #[inline]
    fn bucket(&self, time: u64) -> usize {
        (u64::BITS - (time ^ self.last).leading_zeros()) as usize
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        debug_assert!(ev.time.0 >= self.last, "event scheduled in the past");
        let b = self.bucket(ev.time.0);
        if b > 0 {
            self.nonempty |= 1 << (b - 1);
        }
        self.buckets[b].push(ev);
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if self.head == self.buckets[0].len() {
            self.refill()?;
        }
        let ev = self.buckets[0][self.head];
        self.head += 1;
        Some(ev)
    }

    /// Bucket 0 is drained: refile the lowest non-empty bucket against its
    /// minimum time. `None` when no event is left.
    fn refill(&mut self) -> Option<()> {
        self.buckets[0].clear();
        self.head = 0;
        if self.nonempty == 0 {
            return None;
        }
        let b = self.nonempty.trailing_zeros() as usize + 1;
        self.nonempty &= !(1 << (b - 1));
        let mut moved = std::mem::take(&mut self.buckets[b]);
        self.last = moved.iter().map(|e| e.time.0).min().expect("non-empty bucket");
        for ev in moved.drain(..) {
            self.push(ev);
        }
        // Hand the emptied buffer back so its capacity is reused.
        self.buckets[b] = moved;
        Some(())
    }
}

/// Unmatched entries at one rank, oldest first, keyed on packed
/// `(source, tag)`.
///
/// Matching takes the oldest entry with the key, which is MPI's
/// non-overtaking rule: the first posted receive matches the first
/// arrived message of a stream. Collective schedules post receives in
/// roughly the order their messages arrive, so the queue is almost
/// always empty or matched at its front. The oldest entry therefore
/// lives inline, in the rank's own state, and only the rest spill into
/// a ring buffer; an empty queue or a front match never touches the
/// buffer's heap memory unless more entries wait behind. The scan
/// starts at the front, so removal from the ring buffer moves few
/// entries. Capacity persists for the run, so matching allocates
/// nothing once the queue has grown.
struct MatchQueue<T> {
    /// The oldest entry; `None` only when `rest` is empty too.
    front: Option<(u64, T)>,
    /// Every younger entry, oldest first.
    rest: VecDeque<(u64, T)>,
}

impl<T> MatchQueue<T> {
    fn new() -> Self {
        MatchQueue { front: None, rest: VecDeque::new() }
    }

    #[inline]
    fn push(&mut self, key: u64, value: T) {
        if self.front.is_none() {
            self.front = Some((key, value));
        } else {
            self.rest.push_back((key, value));
        }
    }

    /// Remove and return the oldest entry with `key`.
    #[inline]
    fn take(&mut self, key: u64) -> Option<T> {
        if self.front.as_ref()?.0 == key {
            let (_, value) = std::mem::replace(&mut self.front, self.rest.pop_front())?;
            return Some(value);
        }
        let i = self.rest.iter().position(|e| e.0 == key)?;
        self.rest.remove(i).map(|e| e.1)
    }
}

/// The last `bytes → SimTime` conversion of one per-byte cost function.
///
/// A collective schedule moves the same chunk size many times in a row,
/// so consecutive conversions of one cost almost always repeat their
/// byte count. On perfbench's table4-allreduce and serve-wire
/// workloads, 99.4–99.9 % of rail, memory and reduction calls and
/// 94.8–96.0 % of unexpected-copy calls repeat the last one. The float
/// conversion is far dearer than a compare, so the engine keeps the
/// last one per cost; a miss costs one compare more than the plain
/// call. A hit returns the bits a fresh call of the same function
/// gives.
struct LastCost<'m> {
    model: &'m NetworkModel,
    /// One of the model's per-byte costs, such as
    /// [`NetworkModel::rail_time`].
    cost: fn(&NetworkModel, u64) -> SimTime,
    bytes: u64,
    time: SimTime,
}

impl<'m> LastCost<'m> {
    fn new(model: &'m NetworkModel, cost: fn(&NetworkModel, u64) -> SimTime) -> Self {
        LastCost { model, cost, bytes: 0, time: cost(model, 0) }
    }

    /// `cost(model, bytes)`.
    #[inline]
    fn get(&mut self, bytes: u64) -> SimTime {
        if bytes != self.bytes {
            self.bytes = bytes;
            self.time = (self.cost)(self.model, bytes);
        }
        self.time
    }
}

struct Msg {
    src: Rank,
    dst: Rank,
    bytes: u64,
    tag: Tag,
    /// Blocking send: sender-side completion unblocks the current instr.
    send_counts: bool,
    /// Matched receive was blocking (set at match time).
    recv_counts: bool,
    rendezvous: bool,
    /// When an injected eager payload finishes draining at the
    /// receiver. Until then the message sits in the receiver's list of
    /// draining eager messages, linked through `prev` and `next`.
    drained_at: SimTime,
    prev: u32,
    next: u32,
}

/// End of a draining list.
const NO_MSG: u32 = u32::MAX;

struct PostedRecv {
    bytes: u64,
    counts_current: bool,
}

/// Per-rank interpreter and matching state.
struct RankState<'p> {
    pc: usize,
    body: Option<&'p [SegInstr]>,
    loop_bytes: LoopBytes,
    loop_iters: u32,
    loop_iter: u32,
    loop_pc: usize,
    /// Completions the current blocking instruction still needs.
    pending_current: u8,
    /// Nonblocking operations in flight.
    outstanding: u32,
    waiting_all: bool,
    finished: bool,
    finish_time: SimTime,
    /// Posted-but-unmatched receives.
    posted: MatchQueue<PostedRecv>,
    /// Arrived-but-unmatched messages (eager payloads or rendezvous RTS).
    arrived: MatchQueue<u32>,
}

impl<'p> RankState<'p> {
    fn new() -> Self {
        RankState {
            pc: 0,
            body: None,
            loop_bytes: LoopBytes::Fixed(0),
            loop_iters: 0,
            loop_iter: 0,
            loop_pc: 0,
            pending_current: 0,
            outstanding: 0,
            waiting_all: false,
            finished: false,
            finish_time: SimTime::ZERO,
            posted: MatchQueue::new(),
            arrived: MatchQueue::new(),
        }
    }
}

/// An instruction with loop bytes/tags resolved.
enum RInstr {
    Send { peer: Rank, bytes: u64, tag: Tag, blocking: bool },
    Recv { peer: Rank, bytes: u64, tag: Tag, blocking: bool },
    SendRecv { s_peer: Rank, s_bytes: u64, s_tag: Tag, r_peer: Rank, r_bytes: u64, r_tag: Tag },
    Compute { bytes: u64 },
    WaitAll,
}

struct Exec<'m, 'p> {
    model: &'m NetworkModel,
    programs: &'p [Program],
    /// Node hosting each rank.
    node: Vec<NodeId>,
    /// The model's per-message constants, converted once.
    o_send: SimTime,
    o_recv: SimTime,
    alpha_inter: SimTime,
    alpha_intra: SimTime,
    /// The model's per-byte costs, each with its last conversion.
    rail_cost: LastCost<'m>,
    mem_cost: LastCost<'m>,
    reduce_cost: LastCost<'m>,
    unexpected_cost: LastCost<'m>,
    ranks: Vec<RankState<'p>>,
    servers: NodeServers,
    queue: EventQueue,
    msgs: Vec<Msg>,
    free_msgs: Vec<u32>,
    /// Per destination rank, the first of its draining eager messages
    /// (a doubly linked list through `Msg::{prev, next}`).
    draining: Vec<u32>,
    events: u64,
    delivered: u64,
    bytes_inter: u64,
    bytes_intra: u64,
    recv_bytes: Vec<u64>,
    sent_bytes: Vec<u64>,
    starts: Vec<SimTime>,
    error: Option<SimError>,
}

impl<'m, 'p> Exec<'m, 'p> {
    fn new(
        model: &'m NetworkModel,
        topo: &'p Topology,
        programs: &'p [Program],
        starts: Option<&[SimTime]>,
    ) -> Self {
        let p = topo.size() as usize;
        let n = topo.nodes() as usize;
        let starts: Vec<SimTime> = match starts {
            Some(s) => s.to_vec(),
            None => vec![SimTime::ZERO; p],
        };
        Exec {
            model,
            programs,
            node: topo.ranks().map(|r| topo.node_of(r)).collect(),
            o_send: model.o_send_t(),
            o_recv: model.o_recv_t(),
            alpha_inter: model.alpha_inter_t(),
            alpha_intra: model.alpha_intra_t(),
            rail_cost: LastCost::new(model, NetworkModel::rail_time),
            mem_cost: LastCost::new(model, NetworkModel::mem_time),
            reduce_cost: LastCost::new(model, NetworkModel::reduce_time),
            unexpected_cost: LastCost::new(model, NetworkModel::unexpected_time),
            ranks: (0..p).map(|_| RankState::new()).collect(),
            servers: NodeServers::new(n, model.rails, model.mem_channels),
            queue: EventQueue::new(),
            msgs: Vec::with_capacity(256),
            free_msgs: Vec::new(),
            draining: vec![NO_MSG; p],
            events: 0,
            delivered: 0,
            bytes_inter: 0,
            bytes_intra: 0,
            recv_bytes: vec![0; p],
            sent_bytes: vec![0; p],
            starts,
            error: None,
        }
    }

    #[inline]
    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        self.queue.push(Event { time, kind });
    }

    #[inline]
    fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node[a as usize] == self.node[b as usize]
    }

    /// Latency of the path between two ranks.
    #[inline]
    fn alpha(&self, a: Rank, b: Rank) -> SimTime {
        if self.same_node(a, b) {
            self.alpha_intra
        } else {
            self.alpha_inter
        }
    }

    fn alloc_msg(&mut self, msg: Msg) -> u32 {
        if let Some(id) = self.free_msgs.pop() {
            self.msgs[id as usize] = msg;
            id
        } else {
            self.msgs.push(msg);
            (self.msgs.len() - 1) as u32
        }
    }

    #[inline]
    fn free_msg(&mut self, id: u32) {
        self.free_msgs.push(id);
    }

    fn run(&mut self) -> Result<SimResult, SimError> {
        for r in 0..self.ranks.len() as Rank {
            self.push_event(self.starts[r as usize], EventKind::Advance { rank: r });
        }
        while let Some(ev) = self.queue.pop() {
            self.events += 1;
            let t = ev.time;
            match ev.kind {
                EventKind::Advance { rank } | EventKind::CurDone { rank } => {
                    if matches!(ev.kind, EventKind::CurDone { .. }) {
                        let st = &mut self.ranks[rank as usize];
                        debug_assert!(st.pending_current > 0);
                        st.pending_current -= 1;
                        if st.pending_current > 0 {
                            continue;
                        }
                    }
                    self.advance(rank, t);
                }
                EventKind::NbDone { rank } => {
                    let st = &mut self.ranks[rank as usize];
                    debug_assert!(st.outstanding > 0);
                    st.outstanding -= 1;
                    if st.waiting_all && st.outstanding == 0 {
                        st.waiting_all = false;
                        self.advance(rank, t);
                    }
                }
                EventKind::SenderDone { msg } => self.on_sender_done(msg, t),
                EventKind::Delivery { msg } => self.on_delivery(msg, t),
                EventKind::RtsArrive { msg } => self.on_rts(msg, t),
                EventKind::CtsArrive { msg } => self.on_cts(msg, t),
            }
            if self.error.is_some() {
                break;
            }
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let blocked: Vec<Rank> = (0..self.ranks.len() as Rank)
            .filter(|&r| !self.ranks[r as usize].finished)
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }
        Ok(SimResult {
            finish: self.ranks.iter().map(|r| r.finish_time).collect(),
            start: std::mem::take(&mut self.starts),
            events: self.events,
            messages: self.delivered,
            bytes_inter: self.bytes_inter,
            bytes_intra: self.bytes_intra,
            recv_bytes: std::mem::take(&mut self.recv_bytes),
            sent_bytes: std::mem::take(&mut self.sent_bytes),
        })
    }

    /// Fetch the next resolved instruction for `rank`, handling loop state.
    fn fetch_next(&mut self, rank: Rank) -> Option<RInstr> {
        let st = &mut self.ranks[rank as usize];
        loop {
            if let Some(body) = st.body {
                if st.loop_pc >= body.len() {
                    st.loop_iter += 1;
                    st.loop_pc = 0;
                    if st.loop_iter >= st.loop_iters {
                        st.body = None;
                        st.pc += 1;
                        continue;
                    }
                }
                let k = st.loop_iter;
                let b = st.loop_bytes.bytes_at(k, st.loop_iters);
                let si = body[st.loop_pc];
                st.loop_pc += 1;
                return Some(match si {
                    SegInstr::Send { peer, tag_base } => {
                        RInstr::Send { peer, bytes: b, tag: tag_base + k, blocking: true }
                    }
                    SegInstr::Recv { peer, tag_base } => {
                        RInstr::Recv { peer, bytes: b, tag: tag_base + k, blocking: true }
                    }
                    SegInstr::IRecv { peer, tag_base } => {
                        RInstr::Recv { peer, bytes: b, tag: tag_base + k, blocking: false }
                    }
                    SegInstr::ISend { peer, tag_base } => {
                        RInstr::Send { peer, bytes: b, tag: tag_base + k, blocking: false }
                    }
                    SegInstr::WaitAll => RInstr::WaitAll,
                    SegInstr::SendRecv { send_peer, send_tag_base, recv_peer, recv_tag_base } => {
                        RInstr::SendRecv {
                            s_peer: send_peer,
                            s_bytes: b,
                            s_tag: send_tag_base + k,
                            r_peer: recv_peer,
                            r_bytes: b,
                            r_tag: recv_tag_base + k,
                        }
                    }
                    SegInstr::Compute => RInstr::Compute { bytes: b },
                });
            }
            let instrs = self.programs[rank as usize].instrs();
            if st.pc >= instrs.len() {
                return None;
            }
            match &instrs[st.pc] {
                Instr::Send { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Send { peer: *peer, bytes: *bytes, tag: *tag, blocking: true });
                }
                Instr::Recv { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Recv { peer: *peer, bytes: *bytes, tag: *tag, blocking: true });
                }
                Instr::ISend { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Send { peer: *peer, bytes: *bytes, tag: *tag, blocking: false });
                }
                Instr::IRecv { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Recv { peer: *peer, bytes: *bytes, tag: *tag, blocking: false });
                }
                Instr::SendRecv { send_peer, send_bytes, send_tag, recv_peer, recv_bytes, recv_tag } => {
                    st.pc += 1;
                    return Some(RInstr::SendRecv {
                        s_peer: *send_peer,
                        s_bytes: *send_bytes,
                        s_tag: *send_tag,
                        r_peer: *recv_peer,
                        r_bytes: *recv_bytes,
                        r_tag: *recv_tag,
                    });
                }
                Instr::Compute { bytes } => {
                    st.pc += 1;
                    return Some(RInstr::Compute { bytes: *bytes });
                }
                Instr::WaitAll => {
                    st.pc += 1;
                    return Some(RInstr::WaitAll);
                }
                Instr::Loop { iters, bytes, body } => {
                    st.body = Some(body);
                    st.loop_bytes = *bytes;
                    st.loop_iters = *iters;
                    st.loop_iter = 0;
                    st.loop_pc = 0;
                    // Loop re-enters at top; body items resolved there.
                }
            }
        }
    }

    /// Issue instructions for `rank` starting at `now` until it blocks or
    /// finishes. Cheap nonblocking instructions continue inline without
    /// event-queue traffic.
    fn advance(&mut self, rank: Rank, mut now: SimTime) {
        loop {
            let Some(instr) = self.fetch_next(rank) else {
                let st = &mut self.ranks[rank as usize];
                st.finished = true;
                st.finish_time = now;
                return;
            };
            match instr {
                RInstr::Compute { bytes } => {
                    // Must yield a real event: continuing inline would let
                    // later instructions mutate matching state (post
                    // receives, reserve resources) at the *current* event
                    // time while claiming a future logical time, breaking
                    // causality for any message arriving in between.
                    let dur = self.reduce_cost.get(bytes);
                    self.push_event(now + dur, EventKind::Advance { rank });
                    return;
                }
                RInstr::WaitAll => {
                    let st = &mut self.ranks[rank as usize];
                    if st.outstanding > 0 {
                        st.waiting_all = true;
                        return;
                    }
                }
                RInstr::Send { peer, bytes, tag, blocking } => {
                    let cpu_done = now + self.o_send;
                    self.start_send(rank, peer, bytes, tag, blocking, cpu_done);
                    if blocking {
                        self.ranks[rank as usize].pending_current = 1;
                        return;
                    }
                    // ISend: CPU cost serializes posts; injection proceeds
                    // in the background.
                    self.ranks[rank as usize].outstanding += 1;
                    now = cpu_done;
                }
                RInstr::Recv { peer, bytes, tag, blocking } => {
                    if blocking {
                        self.ranks[rank as usize].pending_current = 1;
                        self.post_recv(rank, peer, bytes, tag, true, now);
                        return;
                    }
                    self.ranks[rank as usize].outstanding += 1;
                    self.post_recv(rank, peer, bytes, tag, false, now);
                }
                RInstr::SendRecv { s_peer, s_bytes, s_tag, r_peer, r_bytes, r_tag } => {
                    self.ranks[rank as usize].pending_current = 2;
                    let cpu_done = now + self.o_send;
                    self.start_send(rank, s_peer, s_bytes, s_tag, true, cpu_done);
                    self.post_recv(rank, r_peer, r_bytes, r_tag, true, now);
                    return;
                }
            }
            if self.error.is_some() {
                return;
            }
        }
    }

    /// Begin a send whose CPU posting completes at `ready`. For eager
    /// messages the payload is injected immediately; rendezvous messages
    /// first fly an RTS to the receiver.
    fn start_send(
        &mut self,
        src: Rank,
        dst: Rank,
        bytes: u64,
        tag: Tag,
        send_counts: bool,
        ready: SimTime,
    ) {
        let intra = self.same_node(src, dst);
        let eager = if intra {
            self.model.is_eager_intra(bytes)
        } else {
            self.model.is_eager_inter(bytes)
        };
        let id = self.alloc_msg(Msg {
            src,
            dst,
            bytes,
            tag,
            send_counts,
            recv_counts: false,
            rendezvous: !eager,
            drained_at: SimTime::ZERO,
            prev: NO_MSG,
            next: NO_MSG,
        });
        if eager {
            self.inject(id, ready);
        } else {
            let alpha = if intra { self.alpha_intra } else { self.alpha_inter };
            // Non-overtaking: the RTS must not be matched before an
            // earlier eager payload of its stream that is still draining.
            // Its arrival is held until the last of them drains; that
            // Delivery event was pushed first, so it runs first at an
            // equal time. Nothing drains towards most receivers, and
            // then this is one load.
            let mut arrive = ready + alpha;
            let mut cur = self.draining[dst as usize];
            while cur != NO_MSG {
                let m = &self.msgs[cur as usize];
                if (m.src, m.tag) == (src, tag) {
                    arrive = arrive.max(m.drained_at);
                }
                cur = m.next;
            }
            self.push_event(arrive, EventKind::RtsArrive { msg: id });
        }
    }

    /// Reserve transfer resources for message `id` starting no earlier
    /// than `ready`; schedules sender-side completion and delivery.
    fn inject(&mut self, id: u32, ready: SimTime) {
        let (src, dst, bytes, rendezvous) = {
            let m = &self.msgs[id as usize];
            (m.src, m.dst, m.bytes, m.rendezvous)
        };
        let src_node = self.node[src as usize] as usize;
        let dst_node = self.node[dst as usize] as usize;
        let (sent, drained) = if src_node == dst_node {
            let dur = self.mem_cost.get(bytes);
            let (_, copy_end) = self.servers.reserve(src_node, Port::Mem, ready, dur);
            (copy_end, copy_end + self.alpha_intra)
        } else {
            let dur = self.rail_cost.get(bytes);
            let (_, tx_end) = self.servers.reserve(src_node, Port::NicTx, ready, dur);
            let arrival = tx_end + self.alpha_inter;
            let (_, rx_end) = self.servers.reserve(dst_node, Port::NicRx, arrival, dur);
            (tx_end, rx_end)
        };
        self.push_event(sent, EventKind::SenderDone { msg: id });
        self.push_event(drained, EventKind::Delivery { msg: id });
        if !rendezvous {
            // Link it in front of the receiver's draining list.
            let head = self.draining[dst as usize];
            if head != NO_MSG {
                self.msgs[head as usize].prev = id;
            }
            let m = &mut self.msgs[id as usize];
            m.drained_at = drained;
            m.next = head;
            self.draining[dst as usize] = id;
        }
    }

    /// Post a receive: match an already-arrived message, grant a waiting
    /// rendezvous, or park the posting.
    fn post_recv(
        &mut self,
        rank: Rank,
        src: Rank,
        bytes: u64,
        tag: Tag,
        counts_current: bool,
        now: SimTime,
    ) {
        let key = match_key(src, tag);
        if let Some(id) = self.ranks[rank as usize].arrived.take(key) {
            let (mbytes, rendezvous) = {
                let m = &self.msgs[id as usize];
                (m.bytes, m.rendezvous)
            };
            if mbytes != bytes {
                self.error = Some(SimError::SizeMismatch { src, dst: rank, tag, sent: mbytes, expected: bytes });
                return;
            }
            if rendezvous {
                // RTS was waiting: grant the transfer now.
                self.msgs[id as usize].recv_counts = counts_current;
                self.push_event(now + self.alpha(src, rank), EventKind::CtsArrive { msg: id });
            } else {
                // Eager payload already buffered: pay the unexpected copy.
                let copy = self.unexpected_cost.get(bytes);
                let done = now + self.o_recv + copy;
                self.finish_recv(id, rank, counts_current, done);
            }
        } else {
            self.ranks[rank as usize].posted.push(key, PostedRecv { bytes, counts_current });
        }
    }

    fn on_sender_done(&mut self, id: u32, t: SimTime) {
        let (src, bytes, counts) = {
            let m = &self.msgs[id as usize];
            (m.src, m.bytes, m.send_counts)
        };
        self.sent_bytes[src as usize] += bytes;
        let st = &mut self.ranks[src as usize];
        if counts {
            debug_assert!(st.pending_current > 0);
            st.pending_current -= 1;
            if st.pending_current == 0 {
                self.advance(src, t);
            }
        } else {
            debug_assert!(st.outstanding > 0);
            st.outstanding -= 1;
            if st.waiting_all && st.outstanding == 0 {
                st.waiting_all = false;
                self.advance(src, t);
            }
        }
    }

    fn on_delivery(&mut self, id: u32, t: SimTime) {
        let (src, dst, bytes, tag, rendezvous, recv_counts) = {
            let m = &self.msgs[id as usize];
            (m.src, m.dst, m.bytes, m.tag, m.rendezvous, m.recv_counts)
        };
        if rendezvous {
            // Receive was matched at RTS/CTS time; complete it now.
            let done = t + self.o_recv;
            self.finish_recv(id, dst, recv_counts, done);
            return;
        }
        // Drained: unlink it from the receiver's draining list.
        let (prev, next) = {
            let m = &mut self.msgs[id as usize];
            (std::mem::replace(&mut m.prev, NO_MSG), std::mem::replace(&mut m.next, NO_MSG))
        };
        if prev == NO_MSG {
            self.draining[dst as usize] = next;
        } else {
            self.msgs[prev as usize].next = next;
        }
        if next != NO_MSG {
            self.msgs[next as usize].prev = prev;
        }
        let key = match_key(src, tag);
        let st = &mut self.ranks[dst as usize];
        if let Some(posted) = st.posted.take(key) {
            if posted.bytes != bytes {
                self.error = Some(SimError::SizeMismatch {
                    src,
                    dst,
                    tag,
                    sent: bytes,
                    expected: posted.bytes,
                });
                return;
            }
            let done = t + self.o_recv;
            self.finish_recv(id, dst, posted.counts_current, done);
        } else {
            st.arrived.push(key, id);
        }
    }

    fn on_rts(&mut self, id: u32, t: SimTime) {
        let (src, dst, bytes, tag) = {
            let m = &self.msgs[id as usize];
            (m.src, m.dst, m.bytes, m.tag)
        };
        let key = match_key(src, tag);
        let st = &mut self.ranks[dst as usize];
        if let Some(posted) = st.posted.take(key) {
            if posted.bytes != bytes {
                self.error = Some(SimError::SizeMismatch {
                    src,
                    dst,
                    tag,
                    sent: bytes,
                    expected: posted.bytes,
                });
                return;
            }
            self.msgs[id as usize].recv_counts = posted.counts_current;
            self.push_event(t + self.alpha(src, dst), EventKind::CtsArrive { msg: id });
        } else {
            st.arrived.push(key, id);
        }
    }

    fn on_cts(&mut self, id: u32, t: SimTime) {
        // Clear-to-send back at the sender: move the payload.
        self.inject(id, t);
    }

    /// Account a completed receive and route its completion (blocking →
    /// `CurDone`, nonblocking → `NbDone`) at time `done`.
    fn finish_recv(&mut self, id: u32, dst: Rank, counts_current: bool, done: SimTime) {
        let (src, bytes) = {
            let m = &self.msgs[id as usize];
            (m.src, m.bytes)
        };
        self.delivered += 1;
        self.recv_bytes[dst as usize] += bytes;
        if self.same_node(src, dst) {
            self.bytes_intra += bytes;
        } else {
            self.bytes_inter += bytes;
        }
        let kind = if counts_current {
            EventKind::CurDone { rank: dst }
        } else {
            EventKind::NbDone { rank: dst }
        };
        self.push_event(done, kind);
        self.free_msg(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program::{Instr, SegInstr, TAG_STRIDE};

    /// A round-numbers model for hand-computable assertions:
    /// alpha_inter = 1 us, 1 GB/s rails (1 ns/byte), o = 0.1 us.
    pub(crate) fn test_model() -> NetworkModel {
        NetworkModel {
            alpha_inter: 1e-6,
            beta_rail: 1e-9,
            rails: 1,
            alpha_intra: 0.2e-6,
            beta_mem: 0.25e-9,
            mem_channels: 2,
            o_send: 0.1e-6,
            o_recv: 0.1e-6,
            eager_inter: 4096,
            eager_intra: 16384,
            gamma_reduce: 0.5e-9,
            beta_unexpected: 0.0,
        }
    }

    fn run2(programs: Vec<Program>, nodes: u32, ppn: u32) -> SimResult {
        let model = test_model();
        let topo = Topology::new(nodes, ppn);
        Simulator::new(&model, &topo).run(&programs).unwrap()
    }

    #[test]
    fn eager_ping_has_expected_latency() {
        // 1000-byte eager message across nodes:
        // o_s(0.1) + tx(1.0) + alpha(1.0) + rx(1.0) + o_r(0.1) = 3.2 us
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 1000, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 1000, 0)]),
            ],
            2,
            1,
        );
        let us = r.finish[1].as_micros_f64();
        assert!((us - 3.2).abs() < 1e-6, "got {us}");
        // Sender unblocks after injection, before remote delivery:
        // o_s + tx = 1.1 us.
        let s = r.finish[0].as_micros_f64();
        assert!((s - 1.1).abs() < 1e-6, "got {s}");
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes_inter, 1000);
        assert_eq!(r.bytes_intra, 0);
    }

    #[test]
    fn intra_node_ping_uses_memory_channel() {
        // 1000 bytes intra-node: o_s + copy(0.25us) + alpha_intra(0.2) + o_r
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 1000, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 1000, 0)]),
            ],
            1,
            2,
        );
        let us = r.finish[1].as_micros_f64();
        assert!((us - (0.1 + 0.25 + 0.2 + 0.1)).abs() < 1e-6, "got {us}");
        assert_eq!(r.bytes_intra, 1000);
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        // Message above eager threshold; receiver posts late after a
        // compute of 100us. Total must exceed 100us.
        let bytes = 100_000; // > 4096 eager
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, bytes, 0)]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 200_000 }, // 100 us
                    Instr::recv(0, bytes, 0),
                ]),
            ],
            2,
            1,
        );
        let recv_done = r.finish[1].as_micros_f64();
        // compute(100) + cts(1.0) + tx(100) + alpha(1) + rx(100) + o_r(0.1)
        let expected = 100.0 + 1.0 + 100.0 + 1.0 + 100.0 + 0.1;
        assert!((recv_done - expected).abs() < 0.2, "got {recv_done} want {expected}");
        // Blocking rendezvous send completes only after injection, which
        // cannot begin before the receive is posted.
        assert!(r.finish[0].as_micros_f64() > 100.0);
    }

    #[test]
    fn eager_send_completes_locally_even_if_recv_late() {
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 100, 0)]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 2_000_000 }, // 1000 us
                    Instr::recv(0, 100, 0),
                ]),
            ],
            2,
            1,
        );
        assert!(r.finish[0].as_micros_f64() < 2.0);
        assert!(r.finish[1].as_micros_f64() >= 1000.0);
    }

    #[test]
    fn deadlock_is_detected() {
        let err = Simulator::new(&test_model(), &Topology::new(2, 1))
            .run(&[
                Program::from_instrs(vec![Instr::recv(1, 10, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 10, 0)]),
            ])
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn size_mismatch_is_detected() {
        let err = Simulator::new(&test_model(), &Topology::new(2, 1))
            .run(&[
                Program::from_instrs(vec![Instr::send(1, 10, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 20, 0)]),
            ])
            .unwrap_err();
        assert!(matches!(err, SimError::SizeMismatch { .. }));
    }

    #[test]
    fn program_count_mismatch() {
        let err = Simulator::new(&test_model(), &Topology::new(2, 1))
            .run(&[Program::empty()])
            .unwrap_err();
        assert!(matches!(err, SimError::ProgramCountMismatch { .. }));
    }

    #[test]
    fn nic_contention_serializes_single_rail() {
        // Two ranks on node 0 each send 4000 eager bytes to node 1.
        // Single rail: the two injections serialize (~8 us of wire time).
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(2, 4000, 0)]),
                Program::from_instrs(vec![Instr::send(3, 4000, 1)]),
                Program::from_instrs(vec![Instr::recv(0, 4000, 0)]),
                Program::from_instrs(vec![Instr::recv(1, 4000, 1)]),
            ],
            2,
            2,
        );
        let last = r.makespan().as_micros_f64();
        // Serialized: o_s + 2*tx(4) + alpha + rx(4) + o_r ~ 13.2 us for the
        // second flow. Parallel rails would give ~9.2 us.
        assert!(last > 12.0, "expected NIC serialization, got {last}");
    }

    #[test]
    fn dual_rail_parallelizes() {
        let mut model = test_model();
        model.rails = 2;
        let topo = Topology::new(2, 2);
        let programs = vec![
            Program::from_instrs(vec![Instr::send(2, 4000, 0)]),
            Program::from_instrs(vec![Instr::send(3, 4000, 1)]),
            Program::from_instrs(vec![Instr::recv(0, 4000, 0)]),
            Program::from_instrs(vec![Instr::recv(1, 4000, 1)]),
        ];
        let r = Simulator::new(&model, &topo).run(&programs).unwrap();
        let last = r.makespan().as_micros_f64();
        assert!(last < 10.0, "expected rail parallelism, got {last}");
    }

    #[test]
    fn segmentation_pipelines_a_relay() {
        // 0 -> 1 -> 2 relay of 64 KiB (rendezvous-free via small segments).
        let m = 65536u64;
        let unsegmented = {
            let model = test_model();
            let topo = Topology::new(3, 1);
            // One big rendezvous hop at a time.
            Simulator::new(&model, &topo)
                .run(&[
                    Program::from_instrs(vec![Instr::send(1, m, 0)]),
                    Program::from_instrs(vec![Instr::recv(0, m, 0), Instr::send(2, m, 1)]),
                    Program::from_instrs(vec![Instr::recv(1, m, 1)]),
                ])
                .unwrap()
                .makespan()
        };
        let segmented = {
            let model = test_model();
            let topo = Topology::new(3, 1);
            let seg = 2048u64;
            Simulator::new(&model, &topo)
                .run(&[
                    Program::from_instrs(vec![Instr::seg_loop(m, seg, vec![SegInstr::Send {
                        peer: 1,
                        tag_base: 0,
                    }])]),
                    Program::from_instrs(vec![Instr::seg_loop(m, seg, vec![
                        SegInstr::Recv { peer: 0, tag_base: 0 },
                        SegInstr::Send { peer: 2, tag_base: TAG_STRIDE },
                    ])]),
                    Program::from_instrs(vec![Instr::seg_loop(m, seg, vec![SegInstr::Recv {
                        peer: 1,
                        tag_base: TAG_STRIDE,
                    }])]),
                ])
                .unwrap()
                .makespan()
        };
        assert!(
            segmented.as_secs_f64() < 0.8 * unsegmented.as_secs_f64(),
            "segmented {segmented} vs unsegmented {unsegmented}"
        );
    }

    #[test]
    fn isend_waitall_exchange() {
        // Full exchange among 4 ranks with nonblocking ops.
        let p = 4u32;
        let programs: Vec<Program> = (0..p)
            .map(|r| {
                let mut instrs = Vec::new();
                for peer in 0..p {
                    if peer != r {
                        instrs.push(Instr::IRecv { peer, bytes: 512, tag: r });
                    }
                }
                for peer in 0..p {
                    if peer != r {
                        instrs.push(Instr::ISend { peer, bytes: 512, tag: peer });
                    }
                }
                instrs.push(Instr::WaitAll);
                Program::from_instrs(instrs)
            })
            .collect();
        let r = run2(programs, 2, 2);
        assert_eq!(r.messages, (p * (p - 1)) as u64);
        for rank in 0..p as usize {
            assert_eq!(r.recv_bytes[rank], 512 * (p as u64 - 1));
            assert_eq!(r.sent_bytes[rank], 512 * (p as u64 - 1));
        }
    }

    #[test]
    fn sendrecv_ring_rotation() {
        // 4 ranks rotate a token around a ring with SendRecv.
        let p = 4u32;
        let programs: Vec<Program> = (0..p)
            .map(|r| {
                Program::from_instrs(vec![Instr::SendRecv {
                    send_peer: (r + 1) % p,
                    send_bytes: 256,
                    send_tag: 7,
                    recv_peer: (r + p - 1) % p,
                    recv_bytes: 256,
                    recv_tag: 7,
                }])
            })
            .collect();
        let r = run2(programs, 2, 2);
        assert_eq!(r.messages, p as u64);
    }

    #[test]
    fn skewed_start_delays_completion() {
        let model = test_model();
        let topo = Topology::new(2, 1);
        let programs = vec![
            Program::from_instrs(vec![Instr::send(1, 100, 0)]),
            Program::from_instrs(vec![Instr::recv(0, 100, 0)]),
        ];
        let sim = Simulator::new(&model, &topo);
        let base = sim.run(&programs).unwrap().makespan();
        let skewed = sim
            .run_with_skew(&programs, &[SimTime::from_micros_f64(50.0), SimTime::ZERO])
            .unwrap();
        assert!(skewed.makespan().as_micros_f64() >= base.as_micros_f64() + 49.0);
    }

    #[test]
    fn fixed_loop_runs_each_iteration() {
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::fixed_loop(5, 128, vec![SegInstr::Send {
                    peer: 1,
                    tag_base: 0,
                }])]),
                Program::from_instrs(vec![Instr::fixed_loop(5, 128, vec![SegInstr::Recv {
                    peer: 0,
                    tag_base: 0,
                }])]),
            ],
            2,
            1,
        );
        assert_eq!(r.messages, 5);
        assert_eq!(r.recv_bytes[1], 5 * 128);
    }

    #[test]
    fn unexpected_messages_match_on_late_post() {
        // Rank 1 computes first, so three eager sends queue unexpectedly,
        // then all three receives match in order.
        let r = run2(
            vec![
                Program::from_instrs(vec![
                    Instr::send(1, 64, 0),
                    Instr::send(1, 64, 1),
                    Instr::send(1, 64, 2),
                ]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 1_000_000 },
                    Instr::recv(0, 64, 2),
                    Instr::recv(0, 64, 0),
                    Instr::recv(0, 64, 1),
                ]),
            ],
            2,
            1,
        );
        assert_eq!(r.messages, 3);
    }

    #[test]
    fn zero_byte_messages_synchronize() {
        // Barrier-style token: costs latency + overheads only.
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 0, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 0, 0)]),
            ],
            2,
            1,
        );
        let us = r.finish[1].as_micros_f64();
        // o_s + alpha + o_r = 1.2 us (zero wire time).
        assert!((us - 1.2).abs() < 1e-6, "got {us}");
        assert_eq!(r.bytes_inter, 0);
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn intra_node_rendezvous_handshakes() {
        // Above the intra-node eager limit (16384 in the test model):
        // the send must wait for the receive to be posted.
        let bytes = 60_000u64;
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, bytes, 0)]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 400_000 }, // 200 us
                    Instr::recv(0, bytes, 0),
                ]),
            ],
            1,
            2,
        );
        // Sender cannot complete before the receiver posts at 200 us.
        assert!(r.finish[0].as_micros_f64() > 200.0);
    }

    /// Several messages on one `(src, tag)` stream with distinct sizes
    /// match in send order, whether the receives are posted before the
    /// messages arrive or the messages arrive before the receives are
    /// posted, eager and rendezvous, inter- and intra-node. Any other
    /// matching order surfaces as a `SizeMismatch`.
    #[test]
    fn same_stream_matches_first_posted_with_first_arrived() {
        let eager = [100u64, 200, 300];
        let rendezvous = [20_000u64, 30_000, 40_000]; // above both test thresholds
        let late = Instr::Compute { bytes: 2_000_000 }; // 1000 us
        for (nodes, ppn) in [(2, 1), (1, 2)] {
            for sizes in [eager, rendezvous] {
                let total: u64 = sizes.iter().sum();
                // Receives posted first, sends issued late and blocking.
                let mut send = vec![late.clone()];
                send.extend(sizes.iter().map(|&b| Instr::send(1, b, 5)));
                let mut recv: Vec<Instr> =
                    sizes.iter().map(|&b| Instr::IRecv { peer: 0, bytes: b, tag: 5 }).collect();
                recv.push(Instr::WaitAll);
                let r = run2(
                    vec![Program::from_instrs(send), Program::from_instrs(recv)],
                    nodes,
                    ppn,
                );
                assert_eq!((r.messages, r.recv_bytes[1]), (3, total), "posted first {sizes:?}");

                // Messages arrive first (nonblocking sends), receives late.
                let mut send: Vec<Instr> =
                    sizes.iter().map(|&b| Instr::ISend { peer: 1, bytes: b, tag: 5 }).collect();
                send.push(Instr::WaitAll);
                let mut recv = vec![late.clone()];
                recv.extend(sizes.iter().map(|&b| Instr::recv(0, b, 5)));
                let r = run2(
                    vec![Program::from_instrs(send), Program::from_instrs(recv)],
                    nodes,
                    ppn,
                );
                assert_eq!((r.messages, r.recv_bytes[1]), (3, total), "arrived first {sizes:?}");

                // Receiving the same stream in another order is an error.
                let mut send = vec![late.clone()];
                send.extend(sizes.iter().map(|&b| Instr::send(1, b, 5)));
                let recv: Vec<Instr> = sizes.iter().rev().map(|&b| Instr::recv(0, b, 5)).collect();
                let err = Simulator::new(&test_model(), &Topology::new(nodes, ppn))
                    .run(&[Program::from_instrs(send), Program::from_instrs(recv)])
                    .unwrap_err();
                assert!(matches!(err, SimError::SizeMismatch { .. }), "reversed {sizes:?}: {err:?}");
            }
        }
    }

    /// An eager message followed by a rendezvous one on the same stream:
    /// the rendezvous request-to-send flies at once and reaches the
    /// receiver while the eager payload is still draining, yet it must
    /// match the second receive, not the first (non-overtaking).
    #[test]
    fn rendezvous_does_not_overtake_a_draining_eager_message() {
        for (nodes, ppn) in [(2, 1), (1, 2)] {
            let send = vec![
                Instr::ISend { peer: 1, bytes: 100, tag: 5 },
                Instr::ISend { peer: 1, bytes: 20_000, tag: 5 },
                Instr::WaitAll,
            ];
            let recv = vec![Instr::recv(0, 100, 5), Instr::recv(0, 20_000, 5)];
            let r = Simulator::new(&test_model(), &Topology::new(nodes, ppn))
                .run(&[Program::from_instrs(send), Program::from_instrs(recv)])
                .unwrap_or_else(|e| panic!("{nodes}x{ppn}: {e:?}"));
            assert_eq!((r.messages, r.recv_bytes[1]), (2, 20_100), "{nodes}x{ppn}");
        }
        // Other sources' eager messages drain towards the same receiver
        // (ranks 0, 1 on node 0; 2, 3 on node 1): the stream's 4000 B
        // payload drains until 9.1 us, rank 2's intra-node one leaves
        // the receiver's draining list from the middle at 1.05 us, and
        // the rendezvous send at about 2.3 us must still find the
        // stream's payload behind rank 1's.
        let delay = Instr::Compute { bytes: 4000 }; // 2 us
        let programs = vec![
            Program::from_instrs(vec![
                Instr::ISend { peer: 3, bytes: 4000, tag: 5 },
                delay.clone(),
                Instr::ISend { peer: 3, bytes: 20_000, tag: 5 },
                Instr::WaitAll,
            ]),
            Program::from_instrs(vec![
                Instr::Compute { bytes: 100 },
                Instr::ISend { peer: 3, bytes: 1000, tag: 6 },
                Instr::WaitAll,
            ]),
            Program::from_instrs(vec![Instr::ISend { peer: 3, bytes: 3000, tag: 7 }, Instr::WaitAll]),
            Program::from_instrs(vec![
                Instr::IRecv { peer: 1, bytes: 1000, tag: 6 },
                Instr::IRecv { peer: 2, bytes: 3000, tag: 7 },
                Instr::recv(0, 4000, 5),
                Instr::recv(0, 20_000, 5),
                Instr::WaitAll,
            ]),
        ];
        let r = run2(programs, 2, 2);
        assert_eq!((r.messages, r.recv_bytes[3]), (4, 28_000));
    }

    #[test]
    fn waitall_with_nothing_outstanding_is_free() {
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::WaitAll, Instr::send(1, 8, 0)]),
                Program::from_instrs(vec![Instr::WaitAll, Instr::recv(0, 8, 0), Instr::WaitAll]),
            ],
            2,
            1,
        );
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn mem_channels_limit_intra_node_concurrency() {
        // 4 concurrent intra-node copies on 2 channels take ~2x the
        // time of 2 copies.
        let mut model = test_model();
        model.mem_channels = 2;
        let topo = Topology::new(1, 8);
        let mk = |pairs: &[(u32, u32)]| -> Vec<Program> {
            let mut progs = vec![Vec::new(); 8];
            for (i, &(s, d)) in pairs.iter().enumerate() {
                progs[s as usize].push(Instr::send(d, 8000, i as u32));
                progs[d as usize].push(Instr::recv(s, 8000, i as u32));
            }
            progs.into_iter().map(Program::from_instrs).collect()
        };
        let sim = Simulator::new(&model, &topo);
        let two = sim.run(&mk(&[(0, 1), (2, 3)])).unwrap().makespan();
        let four = sim.run(&mk(&[(0, 1), (2, 3), (4, 5), (6, 7)])).unwrap().makespan();
        assert!(four.as_secs_f64() > 1.7 * two.as_secs_f64() - 1e-6,
            "two {two} four {four}");
    }

    #[test]
    fn nonblocking_ops_inside_segment_loops() {
        // Two producers feed one consumer per segment; the consumer
        // posts both receives nonblocking and collects them together.
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::seg_loop(8192, 2048, vec![SegInstr::Send {
                    peer: 2,
                    tag_base: 0,
                }])]),
                Program::from_instrs(vec![Instr::seg_loop(8192, 2048, vec![SegInstr::Send {
                    peer: 2,
                    tag_base: TAG_STRIDE,
                }])]),
                Program::from_instrs(vec![Instr::seg_loop(8192, 2048, vec![
                    SegInstr::IRecv { peer: 0, tag_base: 0 },
                    SegInstr::IRecv { peer: 1, tag_base: TAG_STRIDE },
                    SegInstr::WaitAll,
                ])]),
            ],
            3,
            1,
        );
        assert_eq!(r.messages, 8);
        assert_eq!(r.recv_bytes[2], 2 * 8192);
    }

    #[test]
    fn isend_inside_segment_loop_pipelines() {
        // A relay that forwards nonblocking can overlap its receive of
        // segment k+1 with the injection of segment k.
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::seg_loop(65536, 1024, vec![SegInstr::Send {
                    peer: 1,
                    tag_base: 0,
                }])]),
                Program::from_instrs(vec![
                    Instr::seg_loop(65536, 1024, vec![
                        SegInstr::Recv { peer: 0, tag_base: 0 },
                        SegInstr::ISend { peer: 2, tag_base: TAG_STRIDE },
                    ]),
                    Instr::WaitAll,
                ]),
                Program::from_instrs(vec![Instr::seg_loop(65536, 1024, vec![SegInstr::Recv {
                    peer: 1,
                    tag_base: TAG_STRIDE,
                }])]),
            ],
            3,
            1,
        );
        assert_eq!(r.recv_bytes[2], 65536);
        assert_eq!(r.messages, 2 * 64);
    }

    /// The radix heap pops exactly as a binary heap ordered by
    /// `(time, push sequence)` does, under a DES-like workload: each pop
    /// schedules a few events at or after the popped time, many of them
    /// tied, some far ahead.
    #[test]
    fn event_queue_pops_in_time_then_push_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut queue = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut seq = 0u32;
        let mut push = |q: &mut EventQueue, r: &mut BinaryHeap<_>, time: u64| {
            q.push(Event { time: SimTime(time), kind: EventKind::Advance { rank: seq } });
            r.push(Reverse((time, seq)));
            seq += 1;
        };
        for _ in 0..64 {
            let t = next() % 1000;
            push(&mut queue, &mut reference, t);
        }
        let mut popped = 0;
        while let Some(Reverse((time, id))) = reference.pop() {
            let ev = queue.pop().expect("queue ran dry before the reference");
            assert_eq!((ev.time.0, ev.kind), (time, EventKind::Advance { rank: id }), "pop {popped}");
            popped += 1;
            if popped < 20_000 {
                for _ in 0..1 + next() % 2 {
                    let r = next();
                    let delta = match r % 4 {
                        0 => 0,
                        1 => r % 8,
                        2 => r % 100_000,
                        _ => r % (1 << 40),
                    };
                    push(&mut queue, &mut reference, time + delta);
                }
            }
        }
        assert!(queue.pop().is_none());
        assert!(popped > 20_000, "only {popped} pops");
    }

    #[test]
    fn real_machine_models_run() {
        for machine in Machine::all() {
            let topo = Topology::new(2, 2);
            let programs = vec![
                Program::from_instrs(vec![Instr::send(2, 1 << 20, 0)]),
                Program::empty(),
                Program::from_instrs(vec![Instr::recv(0, 1 << 20, 0)]),
                Program::empty(),
            ];
            let r = Simulator::new(&machine.model, &topo).run(&programs).unwrap();
            assert!(r.makespan().as_secs_f64() > 0.0, "{}", machine.name);
        }
    }
}
