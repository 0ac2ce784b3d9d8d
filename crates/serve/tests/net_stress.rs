//! Wire-level stress tests for the serving daemon: sustained
//! multi-connection load with bit-identity against the in-process
//! service, misses computed on the connection's reader with no worker
//! pool, deterministic overload (a miss wedged in its slot) that sheds
//! degraded answers instead of dropping or panicking, typed
//! `overloaded` errors once shedding saturates, cache hits still in
//! request order behind a wedged miss, pipelined and byte-dribbled
//! framing, idle-timeout housekeeping (also mid-frame), clean
//! shutdown with zero leaked threads, and the client's coalescing rule
//! as the daemon sees it (an open-loop burst arrives before any reply
//! is read; a dropped client's deferred requests still arrive).

// The shared integration fixture: the grid is benchmarked once per
// binary and each learner's selector is trained once, saved, and
// reloaded through the artifact codec.
#[path = "../../../tests/fixture.rs"]
mod fixture;

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mpcp_collectives::Collective;
use mpcp_core::{Instance, Selection};
use mpcp_ml::persist::{
    decode_framed, encode_framed, read_frame_header, FRAME_HEADER_LEN, KIND_NET_REQUEST,
    KIND_NET_RESPONSE,
};
use mpcp_ml::Learner;
use mpcp_serve::net::{NetRequest, NetResponse, ERR_OVERLOADED};
use mpcp_serve::{NetClient, NetConfig, NetServer, PredictionService, Reply, ShardKey, ShedFn};

/// These tests assert on process-wide thread counts and daemon
/// counters; serialize them so one test's threads never show up in
/// another's books.
static NET_LOCK: Mutex<()> = Mutex::new(());

/// A latch each admitted miss blocks on before it is computed, so
/// overload tests can hold the daemon's miss slots deterministically.
/// It counts the misses that entered it, so a test can wait until one
/// holds its slot.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    open: bool,
    entered: usize,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate { state: Mutex::new(GateState::default()), cv: Condvar::new() })
    }

    fn release(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).open = true;
        self.cv.notify_all();
    }

    /// Block until `n` misses have entered the gate (10 s at most).
    fn wait_entered(&self, n: usize) {
        let t0 = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.entered < n && t0.elapsed() < Duration::from_secs(10) {
            st = self
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let entered = st.entered;
        drop(st);
        assert!(entered >= n, "{entered} of {n} misses reached the gate");
    }

    fn as_fn(self: &Arc<Gate>) -> Arc<dyn Fn() + Send + Sync> {
        let g = Arc::clone(self);
        Arc::new(move || {
            let mut st = g.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.entered += 1;
            g.cv.notify_all();
            while !st.open {
                st = g.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        })
    }
}

/// Releases a gate when dropped. Declared after the server its gate
/// wedges, it drops first when a failed assertion unwinds the test, so
/// the server's drop never joins a reader stuck in the gate: the test
/// fails instead of hanging.
struct ReleaseOnDrop(Arc<Gate>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

fn fixture_service() -> (Arc<PredictionService>, ShardKey, Collective) {
    let artifact = fixture::trained(&Learner::knn(), &[]);
    let coll = artifact.meta.collective;
    let svc = Arc::new(PredictionService::new(256));
    let key = svc.insert_artifact(artifact);
    (svc, key, coll)
}

/// A degraded fallback that always answers uid 0 — distinguishable
/// from real predictions by the `degraded` flag and `None` runtime.
fn always_shed() -> ShedFn {
    Arc::new(|_k, _inst| Some(Selection { uid: 0, predicted_us: None, degraded: true }))
}

fn grid(coll: Collective) -> Vec<Instance> {
    (0..24u32)
        .map(|i| Instance::new(coll, (u64::from(i) * 613 + 16) % 100_000, 2 + i % 7, 1 + i % 4))
        .collect()
}

/// The tests in this binary. libtest runs each on a thread named after
/// it (the kernel keeps the first 15 bytes as the thread's `comm`), and
/// starts and retires those threads on its own schedule — also while
/// another test holds `NET_LOCK` between its baseline and its drain
/// check.
const TESTS: [&str; 11] = [
    "sustained_multi_connection_load_is_lossless_and_bit_identical",
    "misses_are_computed_on_the_reader_without_a_worker_pool",
    "wedged_workers_shed_degraded_answers_and_never_drop",
    "saturated_shedding_degrades_to_typed_overloaded_errors",
    "cache_hits_wait_behind_a_wedged_miss",
    "pipelined_and_dribbled_frames_are_answered_in_order",
    "mid_frame_stalls_are_closed_by_the_idle_timeout",
    "idle_connections_are_reaped_and_shutdown_leaks_nothing",
    "wire_shutdown_op_stops_the_daemon_for_all_clients",
    "an_open_loop_burst_reaches_the_daemon_before_any_recv",
    "dropping_a_client_delivers_its_deferred_requests",
];

/// Threads alive in this process, not counting libtest's threads for
/// the *other* tests of this binary. Every thread the daemon spawns is
/// counted: named ones carry `mpcp-net-*` names, and unnamed ones
/// inherit the calling test's own name.
fn thread_count() -> usize {
    let me = std::thread::current().name().unwrap_or_default().to_owned();
    let harness: Vec<&str> = TESTS
        .iter()
        .filter(|t| **t != me)
        .map(|t| &t[..t.len().min(15)])
        .collect();
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            !harness.contains(&comm.trim_end())
        })
        .count()
}

/// Assert `got` is bit-identical to the in-process uncached answer.
fn assert_bit_identical(svc: &PredictionService, key: &ShardKey, inst: &Instance, got: &Selection) {
    let want = svc.select_uncached(key, inst).unwrap();
    assert_eq!(got.uid, want.uid, "{inst}");
    assert_eq!(
        got.predicted_us.map(f64::to_bits),
        want.predicted_us.map(f64::to_bits),
        "{inst}"
    );
    assert_eq!(got.degraded, want.degraded, "{inst}");
}

/// One select request frame, as a client would put it on the wire.
fn select_frame(req_id: u64, key: &ShardKey, instance: Instance) -> Vec<u8> {
    encode_framed(KIND_NET_REQUEST, &NetRequest::Select { req_id, key: key.clone(), instance })
}

/// Read one whole reply frame off a raw socket.
fn read_response(stream: &mut TcpStream) -> NetResponse {
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut frame).unwrap();
    let mut header = [0u8; FRAME_HEADER_LEN];
    header.copy_from_slice(&frame);
    let h = read_frame_header(&header, KIND_NET_RESPONSE).unwrap();
    frame.resize(FRAME_HEADER_LEN + h.payload_len, 0);
    stream.read_exact(&mut frame[FRAME_HEADER_LEN..]).unwrap();
    decode_framed(KIND_NET_RESPONSE, &frame).unwrap()
}

/// Poll until the daemon has decoded `n` requests.
fn wait_for_requests(server: &NetServer, n: u64) {
    let t0 = Instant::now();
    while server.stats().requests < n {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "daemon saw {} of {n} requests",
            server.stats().requests
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Poll until the process thread count drops back to `baseline`
/// (thread exit is asynchronous after `join` returns the counters).
fn assert_threads_drain_to(baseline: usize) {
    let t0 = Instant::now();
    loop {
        let now = thread_count();
        if now <= baseline {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "leaked threads: {now} alive, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sustained_multi_connection_load_is_lossless_and_bit_identical() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let server =
        NetServer::start(Arc::clone(&svc), always_shed(), NetConfig::default()).unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const PER: usize = 500;
    const WINDOW: usize = 16;
    let tallies: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (key, cells, svc) = (&key, &cells, &svc);
                s.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    let mut pending: VecDeque<(u64, Instance)> = VecDeque::new();
                    let (mut ok, mut shed) = (0u64, 0u64);
                    let mut sent = 0usize;
                    while sent < PER || !pending.is_empty() {
                        while sent < PER && pending.len() < WINDOW {
                            let inst = cells[(t * 31 + sent) % cells.len()];
                            let id = client.send_select(key, &inst).unwrap();
                            pending.push_back((id, inst));
                            sent += 1;
                        }
                        let (id, reply) = client.recv().unwrap();
                        let (want_id, inst) = pending.pop_front().unwrap();
                        assert_eq!(id, want_id, "replies arrive in request order");
                        match reply {
                            Reply::Selection { selection, shed: true } => {
                                assert!(selection.degraded, "shed replies are degraded");
                                shed += 1;
                            }
                            Reply::Selection { selection, shed: false } => {
                                assert_bit_identical(svc, key, &inst, &selection);
                                ok += 1;
                            }
                            Reply::Error { code, message } => {
                                panic!("unexpected error reply ({code}): {message}")
                            }
                            Reply::ShutdownAck => panic!("unsolicited shutdown ack"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let offered = (CLIENTS * PER) as u64;
    let (ok, shed) = tallies.iter().fold((0, 0), |(a, b), (o, s)| (a + o, b + s));
    assert_eq!(ok + shed, offered, "one reply per request, none dropped");
    assert!(ok > 0, "the sustained phase must serve real predictions");

    let stats = server.join();
    assert_eq!(stats.requests, offered);
    assert_eq!(
        stats.accepted + stats.shed + stats.overloaded,
        stats.requests,
        "every decoded request is admitted, shed, or refused: {stats:?}"
    );
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.inflight, 0, "drained: {stats:?}");
    assert_eq!(stats.connections_total, CLIENTS as u64);
    assert_threads_drain_to(baseline);
}

/// Poll until two thread counts 50 ms apart agree: a thread that
/// just finished (the fixture's training pool) may still be listed.
fn settled_thread_count() -> usize {
    let mut last = thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = thread_count();
        if now == last {
            return now;
        }
        last = now;
    }
}

#[test]
fn misses_are_computed_on_the_reader_without_a_worker_pool() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let baseline = settled_thread_count();
    let server =
        NetServer::start(Arc::clone(&svc), always_shed(), NetConfig::default()).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let never_seen = Instance::new(coll, 12_345, 5, 3);
    let (selection, shed) = client.select(&key, &never_seen).unwrap();
    assert!(!shed, "an idle daemon computes the miss");
    assert_bit_identical(&svc, &key, &never_seen, &selection);
    let cache = svc.stats();
    assert_eq!((cache.hits(), cache.misses()), (0, 1), "one probe, counted as one miss");
    // While the connection is served, the daemon runs its acceptor and
    // the connection's reader and writer, and no pool worker.
    assert_eq!(thread_count(), baseline + 3, "daemon threads beyond accept/reader/writer");

    drop(client);
    let stats = server.join();
    assert_eq!((stats.requests, stats.accepted, stats.cached), (1, 1, 0), "{stats:?}");
    assert_eq!((stats.shed, stats.errors, stats.inflight), (0, 0, 0), "{stats:?}");
    assert_threads_drain_to(baseline);
}

/// Start a daemon with one miss slot and the test gate, and wedge one
/// connection's miss in that slot. Returns the server, the gate's
/// drop guard (declared after the server), and the wedged client with
/// its pending request's id and cell.
fn wedge_the_only_miss_slot(
    svc: &Arc<PredictionService>,
    key: &ShardKey,
    coll: Collective,
    max_shed_inflight: usize,
) -> (NetServer, ReleaseOnDrop, NetClient, u64, Instance) {
    let gate = Gate::new();
    let server = NetServer::start_with_gate(
        Arc::clone(svc),
        always_shed(),
        NetConfig { max_misses: 1, max_shed_inflight, ..NetConfig::default() },
        gate.as_fn(),
    )
    .unwrap();
    let unwedge = ReleaseOnDrop(Arc::clone(&gate));
    let mut wedged = NetClient::connect(server.local_addr()).unwrap();
    let cell = Instance::new(coll, 777, 3, 2);
    let id = wedged.send_select(key, &cell).unwrap();
    gate.wait_entered(1);
    (server, unwedge, wedged, id, cell)
}

/// Release the gate and check the wedged miss is then answered by the
/// model, bit-identical to the in-process service.
fn unwedge_and_check(
    unwedge: &ReleaseOnDrop,
    wedged: &mut NetClient,
    id: u64,
    svc: &PredictionService,
    key: &ShardKey,
    cell: &Instance,
) {
    unwedge.0.release();
    let (got, reply) = wedged.recv().unwrap();
    assert_eq!(got, id);
    match reply {
        Reply::Selection { selection, shed: false } => {
            assert_bit_identical(svc, key, cell, &selection);
        }
        other => panic!("the wedged miss must be computed once released, got {other:?}"),
    }
}

#[test]
fn wedged_workers_shed_degraded_answers_and_never_drop() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let (server, unwedge, mut wedged, wedged_id, wedged_cell) =
        wedge_the_only_miss_slot(&svc, &key, coll, 1024);
    let addr = server.local_addr();

    // One connection's miss holds the daemon's only miss slot. 4 more
    // connections blast open-loop bursts of misses: every one must be
    // shed (degraded) — never a hang, never a missing reply.
    const CLIENTS: usize = 4;
    const BURST: usize = 50;
    let tallies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (key, cells) = (&key, &cells);
                s.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    let mut ids = VecDeque::new();
                    for i in 0..BURST {
                        let inst = &cells[(t + i) % cells.len()];
                        ids.push_back(client.send_select(key, inst).unwrap());
                    }
                    let mut shed = 0u64;
                    while let Some(want) = ids.pop_front() {
                        let (id, reply) = client.recv().unwrap();
                        assert_eq!(id, want);
                        match reply {
                            Reply::Selection { selection, shed: true } => {
                                assert!(selection.degraded);
                                assert_eq!(selection.predicted_us, None);
                                shed += 1;
                            }
                            other => panic!("the slot is held, so expected a shed: {other:?}"),
                        }
                    }
                    shed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let offered = (CLIENTS * BURST) as u64;
    let shed: u64 = tallies.iter().sum();
    assert_eq!(shed, offered, "every request answered, each one shed");
    let stats = server.stats();
    assert_eq!(stats.requests, offered + 1, "{stats:?}");
    assert_eq!((stats.shed, stats.overloaded), (offered, 0), "{stats:?}");

    // Unwedge: the held miss is computed; then a clean exit, counters
    // final, no threads left behind.
    unwedge_and_check(&unwedge, &mut wedged, wedged_id, &svc, &key, &wedged_cell);
    drop(wedged);
    let stats = server.join();
    assert_eq!(stats.accepted + stats.shed + stats.overloaded, stats.requests, "{stats:?}");
    assert_eq!((stats.accepted, stats.inflight), (1, 0), "drained: {stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn saturated_shedding_degrades_to_typed_overloaded_errors() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    // max_shed_inflight 0: the fallback lane is closed, so every miss
    // past the held miss slot must come back as a typed error.
    let (server, unwedge, mut wedged, wedged_id, wedged_cell) =
        wedge_the_only_miss_slot(&svc, &key, coll, 0);

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut ids = VecDeque::new();
    for inst in &cells[..8] {
        ids.push_back(client.send_select(&key, inst).unwrap());
    }
    let mut overloaded = 0u64;
    while let Some(want) = ids.pop_front() {
        let (id, reply) = client.recv().unwrap();
        assert_eq!(id, want);
        match reply {
            Reply::Error { code: ERR_OVERLOADED, .. } => overloaded += 1,
            other => panic!("expected a typed overloaded error, got {other:?}"),
        }
    }
    assert_eq!(overloaded, 8, "saturated shedding must answer overloaded");
    let stats = server.stats();
    assert_eq!(stats.shed, 0, "the closed fallback lane shed nothing: {stats:?}");
    assert_eq!(stats.overloaded, overloaded, "{stats:?}");

    unwedge_and_check(&unwedge, &mut wedged, wedged_id, &svc, &key, &wedged_cell);
    drop((client, wedged));
    let stats = server.join();
    assert_eq!((stats.accepted, stats.overloaded, stats.inflight), (1, 8, 0), "{stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn cache_hits_wait_behind_a_wedged_miss() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let baseline = thread_count();
    let gate = Gate::new();
    let server = NetServer::start_with_gate(
        Arc::clone(&svc),
        always_shed(),
        NetConfig::default(),
        gate.as_fn(),
    )
    .unwrap();
    let unwedge = ReleaseOnDrop(Arc::clone(&gate));

    // Warm one cell in-process.
    let warm = Instance::new(coll, 4096, 3, 2);
    let cold = Instance::new(coll, 8192, 5, 3);
    svc.select(&key, &warm).unwrap();

    // The miss holds the connection's reader in the gate, so the hit
    // sent behind it is not even decoded until the miss is answered:
    // replies keep request order.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let miss = client.send_select(&key, &cold).unwrap();
    let hit = client.send_select(&key, &warm).unwrap();
    gate.wait_entered(1);
    let wedged = server.stats();
    unwedge.0.release();
    let first = client.recv();
    let second = client.recv();
    assert_eq!(wedged.requests, 1, "the hit waits behind the wedged miss: {wedged:?}");

    let (id, reply) = first.unwrap();
    assert_eq!(id, miss, "the miss is answered first");
    match reply {
        Reply::Selection { selection, shed: false } => {
            assert_bit_identical(&svc, &key, &cold, &selection);
        }
        other => panic!("the released miss must be computed, got {other:?}"),
    }
    let (id, reply) = second.unwrap();
    assert_eq!(id, hit);
    match reply {
        Reply::Selection { selection, shed: false } => {
            assert_bit_identical(&svc, &key, &warm, &selection);
        }
        other => panic!("the warm cell must be answered from the cache, got {other:?}"),
    }
    let cache = svc.stats();
    assert_eq!((cache.hits(), cache.misses()), (1, 2), "warm-up miss, wire miss, wire hit");

    drop(client);
    let stats = server.join();
    assert_eq!((stats.requests, stats.accepted, stats.cached), (2, 2, 1), "{stats:?}");
    assert_eq!((stats.errors, stats.inflight), (0, 0), "drained: {stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn pipelined_and_dribbled_frames_are_answered_in_order() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let server =
        NetServer::start(Arc::clone(&svc), always_shed(), NetConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let expect = |stream: &mut TcpStream, id: u64, inst: &Instance| {
        match read_response(stream) {
            NetResponse::Ok { req_id, selection } => {
                assert_eq!(req_id, id, "replies arrive in request order");
                assert_bit_identical(&svc, &key, inst, &selection);
            }
            other => panic!("request {id}: expected a selection, got {other:?}"),
        }
    };

    // 64 frames in one write: the daemon reads them as one burst.
    let reqs: Vec<(u64, Instance)> =
        (0..64).map(|i| (i as u64 + 1, cells[i % cells.len()])).collect();
    let burst: Vec<u8> =
        reqs.iter().flat_map(|(id, inst)| select_frame(*id, &key, *inst)).collect();
    stream.write_all(&burst).unwrap();
    for (id, inst) in &reqs {
        expect(&mut stream, *id, inst);
    }
    // One more frame, a byte at a time, so every read ends mid-frame.
    // Its cell was answered in the burst: this one is a cache hit.
    let inst = cells[5];
    for b in select_frame(100, &key, inst) {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    expect(&mut stream, 100, &inst);

    drop(stream);
    let stats = server.join();
    assert_eq!((stats.requests, stats.accepted), (65, 65), "{stats:?}");
    assert!(stats.cached >= 1, "the dribbled repeat is answered at admission: {stats:?}");
    assert_eq!((stats.shed, stats.errors, stats.inflight), (0, 0, 0), "{stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn mid_frame_stalls_are_closed_by_the_idle_timeout() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let baseline = thread_count();
    let server = NetServer::start(
        Arc::clone(&svc),
        always_shed(),
        NetConfig { idle_timeout: Duration::from_millis(100), ..NetConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    // One connection stops inside the header, one inside the payload.
    let frame = select_frame(1, &key, Instance::new(coll, 4096, 3, 2));
    let mut stalled = Vec::new();
    for cut in [10, FRAME_HEADER_LEN + 5] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&frame[..cut]).unwrap();
        stalled.push(s);
    }
    let t0 = Instant::now();
    while server.stats().idle_closed < 2 {
        assert!(t0.elapsed() < Duration::from_secs(10), "idle reap never fired");
        std::thread::sleep(Duration::from_millis(20));
    }
    for mut s in stalled {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut byte = [0u8; 1];
        assert!(matches!(s.read(&mut byte), Ok(0)), "the daemon closed the stalled connection");
    }

    let stats = server.join();
    assert_eq!(stats.idle_closed, 2, "{stats:?}");
    assert_eq!((stats.requests, stats.connections_open), (0, 0), "{stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn idle_connections_are_reaped_and_shutdown_leaks_nothing() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let baseline = thread_count();
    let server = NetServer::start(
        Arc::clone(&svc),
        always_shed(),
        NetConfig { idle_timeout: Duration::from_millis(100), ..NetConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    let inst = Instance::new(coll, 4096, 3, 2);
    let (sel, shed) = client.select(&key, &inst).unwrap();
    assert!(!shed);
    assert_eq!(sel.uid, svc.select_uncached(&key, &inst).unwrap().uid);

    // Stay silent past the idle deadline: the daemon closes the
    // connection and counts it; the client sees EOF, not a hang.
    let t0 = Instant::now();
    while server.stats().idle_closed == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "idle reap never fired");
        std::thread::sleep(Duration::from_millis(20));
    }
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(client.select(&key, &inst).is_err(), "the reaped connection is dead");

    let stats = server.join();
    assert_eq!(stats.idle_closed, 1, "{stats:?}");
    assert_eq!(stats.connections_open, 0, "{stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn wire_shutdown_op_stops_the_daemon_for_all_clients() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let baseline = thread_count();
    let server =
        NetServer::start(Arc::clone(&svc), always_shed(), NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut a = NetClient::connect(addr).unwrap();
    let mut b = NetClient::connect(addr).unwrap();
    let inst = Instance::new(coll, 1024, 2, 2);
    a.select(&key, &inst).unwrap();
    b.select(&key, &inst).unwrap();

    b.shutdown_server().unwrap();
    assert!(!server.running(), "the wire op flips the stop flag");
    let stats = server.join();
    assert_eq!(stats.connections_total, 2);
    assert_eq!(stats.inflight, 0, "{stats:?}");
    // Client `a` finds the daemon gone on its next round-trip.
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(a.select(&key, &inst).is_err());
    assert_threads_drain_to(baseline);
}

#[test]
fn an_open_loop_burst_reaches_the_daemon_before_any_recv() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let server =
        NetServer::start(Arc::clone(&svc), always_shed(), NetConfig::default()).unwrap();

    // With no reply buffered, every send writes at once: the whole
    // burst reaches the daemon while the client has read nothing.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let ids: Vec<u64> =
        cells.iter().map(|inst| client.send_select(&key, inst).unwrap()).collect();
    wait_for_requests(&server, cells.len() as u64);
    for (want, inst) in ids.into_iter().zip(&cells) {
        let (id, reply) = client.recv().unwrap();
        assert_eq!(id, want);
        match reply {
            Reply::Selection { selection, shed: false } => {
                assert_bit_identical(&svc, &key, inst, &selection);
            }
            other => panic!("{inst}: expected a computed selection, got {other:?}"),
        }
    }
    drop(client);
    server.join();
    assert_threads_drain_to(baseline);
}

#[test]
fn dropping_a_client_delivers_its_deferred_requests() {
    let _serial = NET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let server =
        NetServer::start(Arc::clone(&svc), always_shed(), NetConfig::default()).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let first = 8;
    for inst in &cells[..first] {
        client.send_select(&key, inst).unwrap();
    }
    // Wait until every reply is written, so the first `recv` buffers
    // the replies still unread.
    let t0 = Instant::now();
    while server.stats().requests < first as u64 || server.stats().inflight > 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    client.recv().unwrap();
    let deferred = 4;
    for inst in &cells[first..first + deferred] {
        client.send_select(&key, inst).unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        server.stats().requests,
        first as u64,
        "sends behind buffered replies must wait for a flush"
    );
    drop(client);
    let sent = (first + deferred) as u64;
    wait_for_requests(&server, sent);
    let stats = server.join();
    assert_eq!(stats.requests, sent, "{stats:?}");
    assert_eq!(stats.inflight, 0, "{stats:?}");
    assert_threads_drain_to(baseline);
}
