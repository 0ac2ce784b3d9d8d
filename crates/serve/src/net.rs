//! `mpcp served`: a zero-dependency TCP daemon over [`PredictionService`].
//!
//! The wire protocol reuses the artifact codec's framing
//! ([`mpcp_ml::persist`]): every message is a `MAGIC`/version/kind/
//! length/FNV-checksum frame whose payload is a [`Persist`]-encoded
//! request or response. Requests carry a client-chosen `req_id` echoed
//! in the reply, and a connection may pipeline any number of requests;
//! replies come back in request order.
//!
//! Overload never queues without bound and never drops a connection.
//! Each connection's reader answers a select itself, through one probe
//! of the routed shard's LRU: a hit is answered on the spot (a *cached*
//! reply), and a miss is computed on the reader and fills the LRU, as
//! [`PredictionService::select`] does. At most `max_misses` misses are
//! computed at once across the daemon; a miss beyond that bound is
//! **shed** — answered synchronously from the injected fallback
//! ([`ShedFn`], the library-default decision logic) with the reply
//! marked `degraded`. Only when even shedding is saturated
//! (`max_shed_inflight` concurrent fallback computations) does the
//! daemon return a typed `overloaded` error, still a well-formed reply
//! on the wire. A connection's own backlog waits in its socket, under
//! TCP flow control, while its reader works.
//!
//! Each connection gets a reader thread and a writer thread, joined by
//! a channel whose order is the reply order. The reader reads frames
//! through one buffered reader, so a pipelined burst costs one `read`
//! rather than two per frame, and hands every reply to the writer.
//! Computing a miss holds up only the frames behind it, whose replies
//! could not be written before the miss's reply anyway. The writer
//! encodes every reply into one buffer, written with a single
//! `write_all` when the channel runs dry (so hits are written while
//! the reader computes a miss) or once the buffer is full. Writing
//! stays off the reader thread: a client that sends a whole burst
//! before reading a reply would otherwise stall the reader in `write`
//! while its own requests go unread. An idle connection, also one
//! stalled mid-frame, is closed after `idle_timeout`. Shutdown — the
//! wire `shutdown` op or [`NetServer::stop`] — stops accepting,
//! half-closes every connection's read side, drains every accepted
//! request to a written reply, and joins all threads.
//!
//! The client, [`NetClient`], coalesces pipelined requests. A request
//! sent while a whole reply is already buffered waits in the client's
//! buffer, and the waiting requests go out in one `write` when the
//! client next needs the socket: in `recv`, once the buffered replies
//! are consumed, or at the next send that finds none buffered. A closed
//! loop that refills its window as replies come back thus writes once
//! per run of consumed replies; an open-loop burst sent before any
//! reply is read, and a synchronous [`NetClient::select`], write each
//! request as it is sent.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpcp_collectives::Collective;
use mpcp_core::{Instance, Selection};
use mpcp_ml::persist::{
    append_framed, check_frame_payload, read_frame_header, ByteReader, ByteWriter, CodecError,
    Persist, FRAME_HEADER_LEN, KIND_NET_REQUEST, KIND_NET_RESPONSE,
};

use crate::{lock, Answer, PredictionService, ServeError, ShardKey};

/// Hard cap on a single message payload. Requests and responses are a
/// few dozen bytes plus a scope string; anything near this limit is a
/// corrupt or hostile frame and closes the connection.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Request op byte: select a collective algorithm.
pub const OP_SELECT: u8 = 1;
/// Request op byte: drain and stop the daemon.
pub const OP_SHUTDOWN: u8 = 2;

/// Response status byte: computed selection.
pub const STATUS_OK: u8 = 0;
/// Response status byte: shed — degraded fallback selection.
pub const STATUS_SHED: u8 = 1;
/// Response status byte: typed error (code + message).
pub const STATUS_ERR: u8 = 2;
/// Response status byte: shutdown acknowledged.
pub const STATUS_SHUTDOWN_ACK: u8 = 3;

/// Wire error code for [`ServeError::UnknownShard`].
pub const ERR_UNKNOWN_SHARD: u8 = 1;
/// Wire error code for [`ServeError::CollectiveMismatch`].
pub const ERR_COLLECTIVE_MISMATCH: u8 = 2;
/// Wire error code for [`ServeError::NoFinitePrediction`].
pub const ERR_NO_FINITE_PREDICTION: u8 = 3;
/// Wire error code for [`ServeError::Artifact`].
pub const ERR_ARTIFACT: u8 = 4;
/// Wire error code for [`ServeError::Disconnected`].
pub const ERR_DISCONNECTED: u8 = 5;
/// Wire error code for [`ServeError::Overloaded`].
pub const ERR_OVERLOADED: u8 = 6;
/// Wire error code for [`ServeError::Timeout`]. Kept in the stable
/// code table, but this daemon no longer sends it: it has no reply
/// deadline, since every miss is computed on the connection's reader.
pub const ERR_TIMEOUT: u8 = 7;

fn error_code(e: &ServeError) -> u8 {
    match e {
        ServeError::UnknownShard { .. } => ERR_UNKNOWN_SHARD,
        ServeError::CollectiveMismatch { .. } => ERR_COLLECTIVE_MISMATCH,
        ServeError::NoFinitePrediction { .. } => ERR_NO_FINITE_PREDICTION,
        ServeError::Artifact(_) => ERR_ARTIFACT,
        ServeError::Disconnected => ERR_DISCONNECTED,
        ServeError::Overloaded => ERR_OVERLOADED,
        ServeError::Timeout => ERR_TIMEOUT,
    }
}

/// One request frame payload.
#[derive(Clone, Debug, PartialEq)]
pub enum NetRequest {
    /// Route `instance` to the shard under `key` and select.
    Select {
        /// Client-chosen correlation id, echoed in the reply.
        req_id: u64,
        /// Shard the request is routed to.
        key: ShardKey,
        /// The query.
        instance: Instance,
    },
    /// Drain and stop the daemon (acknowledged before the drain).
    Shutdown {
        /// Client-chosen correlation id, echoed in the ack.
        req_id: u64,
    },
}

fn put_collective(w: &mut ByteWriter, c: Collective) {
    // Same representation as `ArtifactMeta`: the index in the stable,
    // registry-ordered `Collective::ALL`.
    let idx = Collective::ALL.iter().position(|x| *x == c).unwrap_or(usize::MAX);
    w.put_len(idx);
}

fn get_collective(r: &mut ByteReader<'_>) -> Result<Collective, CodecError> {
    let idx = r.get_len(0)?;
    Collective::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| CodecError::invalid(format!("collective index {idx}")))
}

impl Persist for NetRequest {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            NetRequest::Select { req_id, key, instance } => {
                w.put_u64(*req_id);
                w.put_u8(OP_SELECT);
                put_collective(w, key.coll);
                w.put_str(&key.scope);
                put_collective(w, instance.coll);
                w.put_u64(instance.msize);
                w.put_u32(instance.nodes);
                w.put_u32(instance.ppn);
            }
            NetRequest::Shutdown { req_id } => {
                w.put_u64(*req_id);
                w.put_u8(OP_SHUTDOWN);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<NetRequest, CodecError> {
        let req_id = r.get_u64()?;
        match r.get_u8()? {
            OP_SELECT => {
                let key_coll = get_collective(r)?;
                let scope = r.get_string()?;
                let coll = get_collective(r)?;
                let msize = r.get_u64()?;
                let nodes = r.get_u32()?;
                let ppn = r.get_u32()?;
                // A zero dimension names no topology; the selector's
                // fallback would hit `Topology::new`'s assertion.
                if nodes == 0 || ppn == 0 {
                    return Err(CodecError::invalid(format!(
                        "select instance has {nodes} node(s) and {ppn} process(es) per node"
                    )));
                }
                Ok(NetRequest::Select {
                    req_id,
                    key: ShardKey { coll: key_coll, scope },
                    instance: Instance::new(coll, msize, nodes, ppn),
                })
            }
            OP_SHUTDOWN => Ok(NetRequest::Shutdown { req_id }),
            op => Err(CodecError::invalid(format!("request op {op}"))),
        }
    }
}

/// One response frame payload.
#[derive(Clone, Debug, PartialEq)]
pub enum NetResponse {
    /// Computed selection for the echoed request.
    Ok {
        /// The request's correlation id.
        req_id: u64,
        /// The selection (never degraded on this status).
        selection: Selection,
    },
    /// The request was shed: a degraded fallback selection.
    Shed {
        /// The request's correlation id.
        req_id: u64,
        /// The fallback selection (`degraded` is always true).
        selection: Selection,
    },
    /// The request failed with a typed error.
    Err {
        /// The request's correlation id.
        req_id: u64,
        /// Stable wire error code (`ERR_*`).
        code: u8,
        /// Human-readable rendering of the server-side error.
        message: String,
    },
    /// Shutdown acknowledged; the daemon is draining.
    ShutdownAck {
        /// The request's correlation id.
        req_id: u64,
    },
}

impl NetResponse {
    /// The echoed correlation id.
    pub fn req_id(&self) -> u64 {
        match self {
            NetResponse::Ok { req_id, .. }
            | NetResponse::Shed { req_id, .. }
            | NetResponse::Err { req_id, .. }
            | NetResponse::ShutdownAck { req_id } => *req_id,
        }
    }
}

fn put_selection(w: &mut ByteWriter, s: &Selection) {
    w.put_u32(s.uid);
    match s.predicted_us {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            w.put_f64(p);
        }
    }
    w.put_bool(s.degraded);
}

fn get_selection(r: &mut ByteReader<'_>) -> Result<Selection, CodecError> {
    let uid = r.get_u32()?;
    let predicted_us = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_f64()?),
        b => return Err(CodecError::invalid(format!("prediction tag {b}"))),
    };
    let degraded = r.get_bool()?;
    Ok(Selection { uid, predicted_us, degraded })
}

impl Persist for NetResponse {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            NetResponse::Ok { req_id, selection } => {
                w.put_u64(*req_id);
                w.put_u8(STATUS_OK);
                put_selection(w, selection);
            }
            NetResponse::Shed { req_id, selection } => {
                w.put_u64(*req_id);
                w.put_u8(STATUS_SHED);
                put_selection(w, selection);
            }
            NetResponse::Err { req_id, code, message } => {
                w.put_u64(*req_id);
                w.put_u8(STATUS_ERR);
                w.put_u8(*code);
                w.put_str(message);
            }
            NetResponse::ShutdownAck { req_id } => {
                w.put_u64(*req_id);
                w.put_u8(STATUS_SHUTDOWN_ACK);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<NetResponse, CodecError> {
        let req_id = r.get_u64()?;
        match r.get_u8()? {
            STATUS_OK => Ok(NetResponse::Ok { req_id, selection: get_selection(r)? }),
            STATUS_SHED => Ok(NetResponse::Shed { req_id, selection: get_selection(r)? }),
            STATUS_ERR => {
                let code = r.get_u8()?;
                let message = r.get_string()?;
                Ok(NetResponse::Err { req_id, code, message })
            }
            STATUS_SHUTDOWN_ACK => Ok(NetResponse::ShutdownAck { req_id }),
            s => Err(CodecError::invalid(format!("response status {s}"))),
        }
    }
}

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// A socket operation failed (connect, read, write, or EOF).
    Io(String),
    /// The peer sent bytes this build cannot decode.
    Codec(CodecError),
    /// The server answered with a typed error (`ERR_*` code).
    Remote {
        /// Stable wire error code.
        code: u8,
        /// Server-side error message.
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "socket error: {m}"),
            NetError::Codec(e) => write!(f, "wire decode error: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> NetError {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Framed stream I/O (shared by client and server)
// ---------------------------------------------------------------------

/// Capacity of each connection's read buffer (server and client): a
/// pipelined burst of frames costs one `read` per buffer-full, not two
/// per frame.
const READ_BUF: usize = 16 * 1024;

/// Bytes of encoded replies beyond which the connection writer writes
/// its buffer out even while more replies are ready, so a long burst
/// neither holds every reply back nor grows the buffer without bound.
const WRITE_BUF: usize = 16 * 1024;

/// How a blocking frame read ended.
enum ReadFrame<T> {
    /// A whole frame arrived and decoded.
    Msg(T),
    /// The peer closed (EOF at a frame boundary).
    Eof,
    /// The read timed out with the connection idle or mid-frame.
    Idle,
    /// The stream is unusable (io error or undecodable bytes).
    Broken,
}

/// Why [`read_frame`] failed.
enum FrameError {
    /// The socket read failed (EOF, timeout, reset).
    Io(std::io::Error),
    /// The bytes are not a well-formed frame of the expected kind.
    Codec(CodecError),
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        match e {
            FrameError::Io(e) => NetError::from(e),
            FrameError::Codec(e) => NetError::Codec(e),
        }
    }
}

/// Read one framed message of `kind` through the connection's buffered
/// reader, reading the payload into the reused `payload` buffer.
fn read_frame<T: Persist>(
    reader: &mut BufReader<TcpStream>,
    payload: &mut Vec<u8>,
    kind: u8,
) -> Result<T, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    reader.read_exact(&mut header).map_err(FrameError::Io)?;
    let h = read_frame_header(&header, kind).map_err(FrameError::Codec)?;
    if h.payload_len > MAX_PAYLOAD {
        return Err(FrameError::Codec(CodecError::invalid(format!(
            "payload length {} exceeds the {MAX_PAYLOAD}-byte cap",
            h.payload_len
        ))));
    }
    payload.clear();
    payload.resize(h.payload_len, 0);
    reader.read_exact(payload).map_err(FrameError::Io)?;
    check_frame_payload(&h, payload).map_err(FrameError::Codec)?;
    let mut r = ByteReader::new(payload);
    let msg = T::decode(&mut r).map_err(FrameError::Codec)?;
    if r.remaining() != 0 {
        return Err(FrameError::Codec(CodecError::invalid(format!(
            "{} undecoded byte(s) at end of message",
            r.remaining()
        ))));
    }
    Ok(msg)
}

/// The server's view of [`read_frame`]: any outcome other than `Msg`
/// means the connection closes.
fn read_request(reader: &mut BufReader<TcpStream>, payload: &mut Vec<u8>) -> ReadFrame<NetRequest> {
    match read_frame(reader, payload, KIND_NET_REQUEST) {
        Ok(msg) => ReadFrame::Msg(msg),
        Err(FrameError::Io(e)) => match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ReadFrame::Eof,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadFrame::Idle,
            _ => ReadFrame::Broken,
        },
        Err(FrameError::Codec(_)) => ReadFrame::Broken,
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Fallback used when admission refuses a miss: compute a
/// cheap library-default selection for the instance (`None` when the
/// shard key is unknown). The daemon marks the reply `degraded`.
pub type ShedFn = Arc<dyn Fn(&ShardKey, &Instance) -> Option<Selection> + Send + Sync>;

/// Daemon knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Cache misses computed at once across the daemon (floored at
    /// 1); a miss beyond it is shed. Each connection computes one miss
    /// at a time, so only more connections than this can shed.
    pub max_misses: usize,
    /// Close a connection that sends nothing for this long.
    pub idle_timeout: Duration,
    /// Concurrent shed (fallback) computations beyond which the daemon
    /// answers `overloaded` instead of shedding.
    pub max_shed_inflight: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_misses: 1024,
            idle_timeout: Duration::from_secs(300),
            max_shed_inflight: 64,
        }
    }
}

/// Point-in-time daemon counters ([`NetServer::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Select requests decoded off the wire.
    pub requests: u64,
    /// Requests admitted: answered from the shard's cache or computed
    /// under a miss slot (an error reply for an unknown shard counts
    /// here too).
    pub accepted: u64,
    /// Admitted requests answered from the shard's cache, without a
    /// miss slot (a subset of `accepted`).
    pub cached: u64,
    /// Requests answered by the degraded fallback.
    pub shed: u64,
    /// Requests refused with a typed `overloaded` error.
    pub overloaded: u64,
    /// Error replies written (includes `overloaded`).
    pub errors: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Requests received but not yet answered.
    pub inflight: u64,
}

/// Test hook run before each admitted miss is computed.
type MissGate = Arc<dyn Fn() + Send + Sync>;

struct NetShared {
    /// Answers every select: hits from the LRU, misses computed.
    service: Arc<PredictionService>,
    shed: ShedFn,
    gate: Option<MissGate>,
    idle_timeout: Duration,
    max_misses: usize,
    max_shed_inflight: usize,
    local_addr: SocketAddr,
    stop: AtomicBool,
    conns: Mutex<HashMap<u64, TcpStream>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    requests: AtomicU64,
    accepted: AtomicU64,
    cached: AtomicU64,
    shed_n: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    connections_open: AtomicU64,
    connections_total: AtomicU64,
    idle_closed: AtomicU64,
    inflight: AtomicU64,
    misses_inflight: AtomicU64,
    shed_inflight: AtomicU64,
}

impl NetShared {
    fn stats(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            // ORDERING: Relaxed throughout — a point-in-time counter
            // snapshot; the fields need no mutual consistency and no
            // data is published under any of them.
            requests: self.requests.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            shed: self.shed_n.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }

    /// Initiate shutdown: flip the flag and poke the accept loop with a
    /// throwaway connection so it observes the flag.
    fn begin_stop(&self) {
        // ORDERING: AcqRel — the swap both publishes "stopping" to the
        // accept loop's Acquire loads and makes the first caller's
        // pre-stop writes visible to whoever observes the flag; the
        // swap also elects exactly one thread to poke the listener.
        if !self.stop.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.local_addr);
        }
    }
}

/// What the connection writer sends next, in request order: a reply
/// and, while metrics are recorded, its admission time.
type WriterItem = (NetResponse, Option<Instant>);

/// One of at most `cap` concurrent holders counted by an atomic,
/// released on drop: the daemon's miss and shed slots.
struct Slot<'a>(&'a AtomicU64);

impl Slot<'_> {
    fn take(count: &AtomicU64, cap: usize) -> Option<Slot<'_>> {
        // ORDERING: AcqRel — the increment is an admission decision,
        // not a statistic: it must be globally ordered against
        // concurrent increments.
        if count.fetch_add(1, Ordering::AcqRel) >= cap as u64 {
            // ORDERING: AcqRel — undoes the refused increment.
            count.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Slot(count))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // ORDERING: AcqRel — the release must not sink below the work
        // the slot admitted.
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The serving daemon. Start with [`NetServer::start`]; stop with the
/// wire `shutdown` op or [`NetServer::stop`], then [`NetServer::join`].
pub struct NetServer {
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Bind `cfg.addr` and start serving `service`, shedding refused
    /// requests through `shed`.
    pub fn start(
        service: Arc<PredictionService>,
        shed: ShedFn,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::start_inner(service, shed, cfg, None)
    }

    /// [`NetServer::start`] with a test-only gate that runs on the
    /// reader after a miss is admitted and before it is computed, so
    /// overload tests can hold a miss slot deterministically.
    #[doc(hidden)]
    pub fn start_with_gate(
        service: Arc<PredictionService>,
        shed: ShedFn,
        cfg: NetConfig,
        gate: Arc<dyn Fn() + Send + Sync>,
    ) -> std::io::Result<NetServer> {
        NetServer::start_inner(service, shed, cfg, Some(gate))
    }

    fn start_inner(
        service: Arc<PredictionService>,
        shed: ShedFn,
        cfg: NetConfig,
        gate: Option<MissGate>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            service,
            shed,
            gate,
            idle_timeout: cfg.idle_timeout,
            max_misses: cfg.max_misses.max(1),
            max_shed_inflight: cfg.max_shed_inflight,
            local_addr,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            cached: AtomicU64::new(0),
            shed_n: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            misses_inflight: AtomicU64::new(0),
            shed_inflight: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mpcp-net-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(NetServer { shared, accept: Some(accept), local_addr })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// False once shutdown has been initiated (wire op or [`stop`]).
    ///
    /// [`stop`]: NetServer::stop
    pub fn running(&self) -> bool {
        // ORDERING: Acquire pairs with `begin_stop`'s AcqRel swap.
        !self.shared.stop.load(Ordering::Acquire)
    }

    /// Current counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats()
    }

    /// Initiate shutdown without blocking (idempotent).
    pub fn stop(&self) {
        self.shared.begin_stop();
    }

    /// Stop accepting, drain every accepted request to a written reply,
    /// join all threads, and return the final counters.
    pub fn join(mut self) -> NetStatsSnapshot {
        self.stop_and_join_threads();
        self.shared.stats()
    }

    fn stop_and_join_threads(&mut self) {
        self.shared.begin_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Half-close the read side of every live connection: readers
        // see EOF and exit; writers first drain the replies already
        // admitted (the clean part of the drain), then close. The
        // entries stay in the map: each reader's `close_conn` removes
        // its own and settles `connections_open`.
        for s in lock(&self.shared.conns).values() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.shared.handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join_threads();
    }
}

fn accept_loop(shared: &Arc<NetShared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _peer)) => s,
            Err(_) => {
                // ORDERING: Acquire pairs with `begin_stop`'s swap, so
                // a stopping server's pre-stop writes are visible here.
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        // ORDERING: Acquire — same pairing as above.
        if shared.stop.load(Ordering::Acquire) {
            // The throwaway wake-up connection (or a late client).
            return;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.idle_timeout));
        // ORDERING: Relaxed — an id ticket; uniqueness comes from the
        // RMW itself, nothing is published under it.
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        // Track a clone so shutdown can half-close the read side even
        // while the reader is blocked in `read_exact`.
        if let Ok(tracked) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, tracked);
        }
        // ORDERING: Relaxed — monotonic stat counters and a gauge
        // refresh; readers only ever sum/display them.
        shared.connections_total.fetch_add(1, Ordering::Relaxed);
        shared.connections_open.fetch_add(1, Ordering::Relaxed);
        mpcp_obs::gauge_set!(
            "serve.net.connections",
            shared.connections_open.load(Ordering::Relaxed) as f64
        );
        let spawned = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("mpcp-net-conn-{conn_id}"))
                .spawn(move || conn_reader(&shared, stream, conn_id))
        };
        let mut handles = lock(&shared.handles);
        match spawned {
            Ok(h) => handles.push(h),
            Err(_) => {
                // Could not spawn a reader: refuse the connection.
                drop(handles);
                close_conn(shared, conn_id);
                continue;
            }
        }
        // Reap finished connections so a long-lived daemon does not
        // accumulate JoinHandles.
        let mut live = Vec::with_capacity(handles.len());
        for h in handles.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        *handles = live;
    }
}

fn close_conn(shared: &Arc<NetShared>, conn_id: u64) {
    if lock(&shared.conns).remove(&conn_id).is_some() {
        // ORDERING: Relaxed — stat counter + gauge refresh, as in
        // `accept_loop`; the conns lock already serializes the remove.
        shared.connections_open.fetch_sub(1, Ordering::Relaxed);
        mpcp_obs::gauge_set!(
            "serve.net.connections",
            shared.connections_open.load(Ordering::Relaxed) as f64
        );
    }
}

fn conn_reader(shared: &Arc<NetShared>, stream: TcpStream, conn_id: u64) {
    let (tx, rx) = mpsc::channel::<WriterItem>();
    let writer = {
        let shared = Arc::clone(shared);
        let ws = stream.try_clone();
        match ws {
            Ok(ws) => std::thread::Builder::new()
                .name(format!("mpcp-net-write-{conn_id}"))
                .spawn(move || conn_writer(&shared, ws, &rx))
                .ok(),
            Err(_) => None,
        }
    };
    let Some(writer) = writer else {
        close_conn(shared, conn_id);
        return;
    };
    let mut reader = BufReader::with_capacity(READ_BUF, stream);
    let mut payload = Vec::new();
    loop {
        match read_request(&mut reader, &mut payload) {
            ReadFrame::Msg(NetRequest::Select { req_id, key, instance }) => {
                let t0 = mpcp_obs::maybe_now();
                // ORDERING: Relaxed — stat counters; the matching
                // inflight decrement rides the writer channel, which
                // is itself the synchronization edge.
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.inflight.fetch_add(1, Ordering::Relaxed);
                mpcp_obs::counter_add!("serve.net.requests", 1);
                if tx.send((admit(shared, req_id, &key, &instance), t0)).is_err() {
                    break; // writer died; nothing can be answered
                }
            }
            ReadFrame::Msg(NetRequest::Shutdown { req_id }) => {
                // Flip the stop flag before the ack can be written: a
                // client that has received the ack must observe
                // `running() == false`, in that order.
                shared.begin_stop();
                let _ = tx.send((NetResponse::ShutdownAck { req_id }, None));
                break;
            }
            ReadFrame::Idle => {
                // ORDERING: Relaxed — stat counter.
                shared.idle_closed.fetch_add(1, Ordering::Relaxed);
                mpcp_obs::counter_add!("serve.net.idle_closed", 1);
                break;
            }
            ReadFrame::Eof | ReadFrame::Broken => break,
        }
    }
    // Dropping the sender lets the writer drain what was admitted and
    // exit; every accepted request still gets its reply written.
    drop(tx);
    let _ = writer.join();
    close_conn(shared, conn_id);
}

/// Answer one select on the reader: a cache hit at once, a miss
/// computed under a miss slot, or — with every slot taken — shed.
fn admit(shared: &NetShared, req_id: u64, key: &ShardKey, instance: &Instance) -> NetResponse {
    let answer = shared.service.select_admitted(key, instance, || {
        let slot = Slot::take(&shared.misses_inflight, shared.max_misses)?;
        if let Some(gate) = &shared.gate {
            gate();
        }
        Some(slot)
    });
    let resp = match answer {
        Ok(Answer::Refused) => return shed_reply(shared, req_id, key, instance),
        Ok(Answer::Hit(selection)) => {
            // ORDERING: Relaxed — stat counter.
            shared.cached.fetch_add(1, Ordering::Relaxed);
            mpcp_obs::counter_add!("serve.net.cached", 1);
            NetResponse::Ok { req_id, selection }
        }
        Ok(Answer::Computed(selection)) => NetResponse::Ok { req_id, selection },
        Err(e) => error_reply(shared, req_id, &e),
    };
    // ORDERING: Relaxed — stat counter.
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    mpcp_obs::counter_add!("serve.net.accepted", 1);
    resp
}

/// Build the reply for a miss admission refused: shed to the fallback
/// if shed capacity allows, else a typed `overloaded` error.
fn shed_reply(shared: &NetShared, req_id: u64, key: &ShardKey, instance: &Instance) -> NetResponse {
    let Some(slot) = Slot::take(&shared.shed_inflight, shared.max_shed_inflight) else {
        return error_reply(shared, req_id, &ServeError::Overloaded);
    };
    let fallback = (shared.shed)(key, instance);
    drop(slot);
    match fallback {
        Some(sel) => {
            // ORDERING: Relaxed — stat counter.
            shared.shed_n.fetch_add(1, Ordering::Relaxed);
            mpcp_obs::counter_add!("serve.shed", 1);
            NetResponse::Shed { req_id, selection: Selection { degraded: true, ..sel } }
        }
        None => error_reply(shared, req_id, &ServeError::UnknownShard { key: key.clone() }),
    }
}

fn error_reply(shared: &NetShared, req_id: u64, e: &ServeError) -> NetResponse {
    if matches!(e, ServeError::Overloaded) {
        // ORDERING: Relaxed — stat counters, here and below.
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        mpcp_obs::counter_add!("serve.net.overloaded", 1);
    }
    // ORDERING: Relaxed — stat counter.
    shared.errors.fetch_add(1, Ordering::Relaxed);
    NetResponse::Err { req_id, code: error_code(e), message: e.to_string() }
}

/// The connection writer's output side: replies are encoded into one
/// reused buffer and written out together.
struct ReplyBuf {
    stream: TcpStream,
    out: Vec<u8>,
    /// When each buffered counted reply was ready (metrics on only).
    ready: Vec<Instant>,
    /// Buffered replies that settle an `inflight` request.
    counted: u64,
    /// A write failed: the peer is gone. Replies are still drained (so
    /// the inflight gauge stays balanced) without touching the socket.
    broken: bool,
}

impl ReplyBuf {
    /// Encode `resp`, admitted at `t0`, behind the replies already held.
    fn push(&mut self, resp: &NetResponse, t0: Option<Instant>) {
        if !self.broken {
            append_framed(&mut self.out, KIND_NET_RESPONSE, resp);
        }
        if matches!(resp, NetResponse::ShutdownAck { .. }) {
            return;
        }
        self.counted += 1;
        if let Some(t0) = t0 {
            let now = Instant::now();
            mpcp_obs::hist_record!("serve.net.queue_us", micros(now - t0));
            self.ready.push(now);
        }
    }

    /// Write every held reply with one `write_all`.
    fn flush(&mut self, shared: &NetShared) {
        if !self.out.is_empty() && !self.broken && self.stream.write_all(&self.out).is_err() {
            self.broken = true;
        }
        self.out.clear();
        if !self.ready.is_empty() {
            // Stamps exist only while metrics are recorded.
            let now = Instant::now();
            for ready in self.ready.drain(..) {
                mpcp_obs::hist_record!("serve.net.write_us", micros(now - ready));
            }
        }
        // ORDERING: Relaxed — balances the reader's Relaxed increments;
        // the channel hand-off orders the two.
        shared.inflight.fetch_sub(self.counted, Ordering::Relaxed);
        self.counted = 0;
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Write each reply in request order. Replies that are ready back to
/// back share one `write_all`: the buffer goes out when the channel is
/// empty and when it passes [`WRITE_BUF`].
fn conn_writer(shared: &Arc<NetShared>, stream: TcpStream, rx: &mpsc::Receiver<WriterItem>) {
    let mut buf = ReplyBuf {
        stream,
        out: Vec::with_capacity(WRITE_BUF),
        ready: Vec::new(),
        counted: 0,
        broken: false,
    };
    loop {
        let (resp, t0) = match rx.try_recv() {
            Ok(item) => item,
            Err(mpsc::TryRecvError::Empty) => {
                buf.flush(shared);
                match rx.recv() {
                    Ok(item) => item,
                    Err(mpsc::RecvError) => break,
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
        buf.push(&resp, t0);
        if buf.out.len() >= WRITE_BUF {
            buf.flush(shared);
        }
    }
    buf.flush(shared);
    let _ = buf.stream.shutdown(Shutdown::Write);
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A decoded reply to one select request.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A selection; `shed` is true when it came from the degraded
    /// fallback path.
    Selection {
        /// The selection.
        selection: Selection,
        /// True when the server shed the request.
        shed: bool,
    },
    /// A typed server error.
    Error {
        /// Stable wire error code (`ERR_*`).
        code: u8,
        /// Server-side error message.
        message: String,
    },
    /// The server acknowledged a shutdown request.
    ShutdownAck,
}

/// Blocking client for one daemon connection. Supports pipelining:
/// queue sends with [`NetClient::send_select`], then collect replies in
/// request order with [`NetClient::recv`].
///
/// Requests are coalesced. A request sent while a whole reply frame is
/// already buffered is *deferred*: its frame waits in the client's
/// buffer, since the caller will consume that reply before it needs
/// the socket again. The deferred frames go out together, in one
/// `write`, as soon as the client would block on the socket: `recv`
/// writes them before it reads, and a request sent with no whole reply
/// buffered writes them at once along with itself. So a closed loop
/// that refills its window while consuming replies costs one `write`
/// per run of consumed replies, not one per request. An open-loop
/// burst sent before any reply is read, and a synchronous
/// [`NetClient::select`], which never sends with a reply buffered,
/// still write each request as it is sent. [`NetClient::flush`]
/// writes deferred frames on demand, and dropping the client flushes
/// them on a best-effort basis, so every request that was sent
/// reaches the daemon.
///
/// A write error is reported by the call that flushes:
/// [`NetClient::send_select`], [`NetClient::recv`] or
/// [`NetClient::flush`] (and not at all by drop). The frames that
/// write carried are discarded.
pub struct NetClient {
    /// Write half.
    stream: TcpStream,
    /// Read half (a clone of `stream`), buffered so a run of replies
    /// costs one `read`.
    reader: BufReader<TcpStream>,
    /// Encoded request frames not yet written (deferred), reused.
    out: Vec<u8>,
    /// Reused reply payload buffer.
    payload: Vec<u8>,
    next_id: u64,
}

impl NetClient {
    /// Connect to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::with_capacity(READ_BUF, stream.try_clone()?);
        Ok(NetClient { stream, reader, out: Vec::new(), payload: Vec::new(), next_id: 1 })
    }

    /// True when the read buffer holds a whole reply frame, so the next
    /// [`NetClient::recv`] needs no socket read. A header that does not
    /// parse counts as incomplete: `recv` then flushes and reports it.
    fn reply_buffered(&self) -> bool {
        let buf = self.reader.buffer();
        let Some(header) = buf.get(..FRAME_HEADER_LEN).and_then(|h| h.try_into().ok()) else {
            return false;
        };
        read_frame_header(header, KIND_NET_RESPONSE)
            .is_ok_and(|h| buf.len() - FRAME_HEADER_LEN >= h.payload_len)
    }

    /// Append one request frame and write it, with every deferred frame
    /// ahead of it, unless a whole reply is buffered: then defer it.
    fn send(&mut self, req: &NetRequest) -> Result<(), NetError> {
        append_framed(&mut self.out, KIND_NET_REQUEST, req);
        if self.reply_buffered() {
            return Ok(());
        }
        self.flush()
    }

    /// Write every deferred request frame now, with one `write_all`.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written?;
        Ok(())
    }

    /// Cap how long [`NetClient::recv`] blocks (None restores blocking).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// Send one select request without waiting for its reply; returns
    /// its `req_id`. The frame is written at once, with any deferred
    /// frames ahead of it, unless a whole reply is already buffered;
    /// then it is deferred to the next flushing call (see the type
    /// docs).
    pub fn send_select(&mut self, key: &ShardKey, instance: &Instance) -> Result<u64, NetError> {
        let req_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.send(&NetRequest::Select { req_id, key: key.clone(), instance: *instance })?;
        Ok(req_id)
    }

    /// Read the next reply (replies arrive in request order). Unless a
    /// whole reply is already buffered, every deferred request is
    /// written first, with one `write_all`, before the socket is read.
    pub fn recv(&mut self) -> Result<(u64, Reply), NetError> {
        if !self.reply_buffered() {
            self.flush()?;
        }
        let resp: NetResponse = read_frame(&mut self.reader, &mut self.payload, KIND_NET_RESPONSE)?;
        let id = resp.req_id();
        let reply = match resp {
            NetResponse::Ok { selection, .. } => Reply::Selection { selection, shed: false },
            NetResponse::Shed { selection, .. } => Reply::Selection { selection, shed: true },
            NetResponse::Err { code, message, .. } => Reply::Error { code, message },
            NetResponse::ShutdownAck { .. } => Reply::ShutdownAck,
        };
        Ok((id, reply))
    }

    /// One synchronous round-trip; the bool is true when the reply was
    /// shed (degraded fallback).
    pub fn select(
        &mut self,
        key: &ShardKey,
        instance: &Instance,
    ) -> Result<(Selection, bool), NetError> {
        let want = self.send_select(key, instance)?;
        loop {
            let (id, reply) = self.recv()?;
            if id != want {
                continue; // a stale reply from an abandoned earlier call
            }
            return match reply {
                Reply::Selection { selection, shed } => Ok((selection, shed)),
                Reply::Error { code, message } => Err(NetError::Remote { code, message }),
                Reply::ShutdownAck => Err(NetError::Codec(CodecError::invalid(
                    "shutdown ack in reply to a select",
                ))),
            };
        }
    }

    /// Ask the daemon to drain and stop; resolves once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        let req_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.send(&NetRequest::Shutdown { req_id })?;
        loop {
            let (id, reply) = self.recv()?;
            if id == req_id && matches!(reply, Reply::ShutdownAck) {
                return Ok(());
            }
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Best effort: a request that was sent still reaches the daemon.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_ml::persist::encode_framed;

    fn sample_request() -> NetRequest {
        NetRequest::Select {
            req_id: 42,
            key: ShardKey { coll: Collective::Allreduce, scope: "hydra/OpenMPI 4.0.2".into() },
            instance: Instance::new(Collective::Allreduce, 4096, 8, 4),
        }
    }

    /// A listener standing in for the daemon, and a client connected
    /// to it; the peer side reads with a timeout so a test cannot hang.
    fn fake_peer() -> (NetClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = NetClient::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        (client, peer)
    }

    /// One reply frame per id, concatenated.
    fn replies(ids: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &req_id in ids {
            let selection = Selection { uid: 7, predicted_us: Some(1.5), degraded: false };
            append_framed(&mut out, KIND_NET_RESPONSE, &NetResponse::Ok { req_id, selection });
        }
        out
    }

    /// True when nothing arrives at `peer` within a short timeout.
    fn nothing_readable(peer: &mut TcpStream) -> bool {
        peer.set_read_timeout(Some(Duration::from_millis(150))).unwrap();
        let mut byte = [0u8; 1];
        let quiet = matches!(
            peer.read(&mut byte).map_err(|e| e.kind()),
            Err(std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
        );
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        quiet
    }

    fn select_parts() -> (ShardKey, Instance) {
        match sample_request() {
            NetRequest::Select { key, instance, .. } => (key, instance),
            NetRequest::Shutdown { .. } => unreachable!("sample_request is a select"),
        }
    }

    #[test]
    fn sends_behind_a_buffered_reply_wait_until_recv_needs_the_socket() {
        let (mut client, mut peer) = fake_peer();
        // Three replies in one write: the first `recv` reads them all.
        peer.write_all(&replies(&[101, 102, 103])).unwrap();
        assert_eq!(client.recv().unwrap().0, 101);
        let (key, instance) = select_parts();
        let a = client.send_select(&key, &instance).unwrap();
        let b = client.send_select(&key, &instance).unwrap();
        assert!(nothing_readable(&mut peer), "a request went out while a reply was buffered");
        assert_eq!(client.recv().unwrap().0, 102);
        assert_eq!(client.recv().unwrap().0, 103);
        assert!(nothing_readable(&mut peer), "a request went out while a reply was buffered");
        let answer = std::thread::spawn(move || {
            // The next `recv` needs the socket: both requests arrive, in
            // order, as the bytes of one write.
            let mut want = encode_framed(
                KIND_NET_REQUEST,
                &NetRequest::Select { req_id: a, key: key.clone(), instance },
            );
            want.extend(encode_framed(
                KIND_NET_REQUEST,
                &NetRequest::Select { req_id: b, key, instance },
            ));
            let mut got = vec![0u8; want.len()];
            peer.read_exact(&mut got).unwrap();
            assert_eq!(got, want);
            peer.write_all(&replies(&[a, b])).unwrap();
            peer
        });
        assert_eq!(client.recv().unwrap().0, a);
        assert_eq!(client.recv().unwrap().0, b);
        answer.join().unwrap();
    }

    #[test]
    fn a_write_error_on_deferred_frames_comes_from_the_flushing_call() {
        let (mut client, mut peer) = fake_peer();
        peer.write_all(&replies(&[1, 2])).unwrap();
        assert_eq!(client.recv().unwrap().0, 1);
        // Every write on this socket now fails.
        client.stream.shutdown(Shutdown::Write).unwrap();
        let (key, instance) = select_parts();
        // Reply 2 is buffered, so these sends are deferred and succeed.
        client.send_select(&key, &instance).unwrap();
        assert!(matches!(client.flush(), Err(NetError::Io(_))));
        client.send_select(&key, &instance).unwrap();
        assert_eq!(client.recv().unwrap().0, 2);
        // Reply 3 waits in the socket, not in the client's buffer: `recv`
        // must flush first, and that write fails.
        peer.write_all(&replies(&[3])).unwrap();
        assert!(matches!(client.recv(), Err(NetError::Io(_))));
        // With no reply buffered, a send writes at once and fails.
        assert!(matches!(client.send_select(&key, &instance), Err(NetError::Io(_))));
    }

    #[test]
    fn request_frames_round_trip() {
        for req in [sample_request(), NetRequest::Shutdown { req_id: 7 }] {
            let bytes = encode_framed(KIND_NET_REQUEST, &req);
            let back: NetRequest =
                mpcp_ml::persist::decode_framed(KIND_NET_REQUEST, &bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_frames_round_trip_bit_exactly() {
        let sels = [
            Selection { uid: 3, predicted_us: Some(12.75), degraded: false },
            Selection { uid: 0, predicted_us: None, degraded: true },
            Selection { uid: u32::MAX - 1, predicted_us: Some(-0.0), degraded: false },
        ];
        let mut msgs = vec![
            NetResponse::Err { req_id: 9, code: ERR_OVERLOADED, message: "busy".into() },
            NetResponse::ShutdownAck { req_id: 1 },
        ];
        for (i, s) in sels.iter().enumerate() {
            msgs.push(NetResponse::Ok { req_id: i as u64, selection: *s });
            msgs.push(NetResponse::Shed { req_id: i as u64, selection: *s });
        }
        for msg in msgs {
            let bytes = encode_framed(KIND_NET_RESPONSE, &msg);
            let back: NetResponse =
                mpcp_ml::persist::decode_framed(KIND_NET_RESPONSE, &bytes).unwrap();
            match (&back, &msg) {
                (
                    NetResponse::Ok { selection: a, .. } | NetResponse::Shed { selection: a, .. },
                    NetResponse::Ok { selection: b, .. } | NetResponse::Shed { selection: b, .. },
                ) => {
                    assert_eq!(a.uid, b.uid);
                    assert_eq!(
                        a.predicted_us.map(f64::to_bits),
                        b.predicted_us.map(f64::to_bits)
                    );
                    assert_eq!(a.degraded, b.degraded);
                }
                _ => assert_eq!(back, msg),
            }
        }
    }

    #[test]
    fn request_and_response_kinds_do_not_cross() {
        let bytes = encode_framed(KIND_NET_REQUEST, &sample_request());
        let err =
            mpcp_ml::persist::decode_framed::<NetResponse>(KIND_NET_RESPONSE, &bytes).unwrap_err();
        assert_eq!(
            err,
            CodecError::WrongKind { expected: KIND_NET_RESPONSE, found: KIND_NET_REQUEST }
        );
    }

    #[test]
    fn corrupt_wire_payloads_are_typed_never_panics() {
        let bytes = encode_framed(KIND_NET_REQUEST, &sample_request());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x5A;
            assert!(
                mpcp_ml::persist::decode_framed::<NetRequest>(KIND_NET_REQUEST, &corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn zero_dimension_selects_are_typed_decode_errors() {
        for (nodes, ppn) in [(0, 4), (8, 0)] {
            let req = NetRequest::Select {
                req_id: 5,
                key: ShardKey { coll: Collective::Allreduce, scope: "m/l".into() },
                instance: Instance::new(Collective::Allreduce, 64, nodes, ppn),
            };
            let bytes = encode_framed(KIND_NET_REQUEST, &req);
            match mpcp_ml::persist::decode_framed::<NetRequest>(KIND_NET_REQUEST, &bytes) {
                Err(CodecError::Invalid { what }) => assert!(what.contains("select instance")),
                other => panic!("{nodes}x{ppn}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let key = ShardKey { coll: Collective::Bcast, scope: "m/l".into() };
        let inst = Instance::new(Collective::Bcast, 1, 1, 1);
        let errs = [
            ServeError::UnknownShard { key },
            ServeError::CollectiveMismatch {
                shard: Collective::Bcast,
                instance: Collective::Barrier,
            },
            ServeError::NoFinitePrediction { instance: inst },
            ServeError::Disconnected,
            ServeError::Overloaded,
            ServeError::Timeout,
        ];
        let codes: Vec<u8> = errs.iter().map(error_code).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes must be distinct");
        assert_eq!(error_code(&ServeError::Overloaded), ERR_OVERLOADED);
        assert_eq!(error_code(&ServeError::Timeout), ERR_TIMEOUT);
    }
}
