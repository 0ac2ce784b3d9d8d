//! Wire-level stress tests for the serving daemon: sustained
//! multi-connection load with bit-identity against the in-process
//! service, deterministic overload (wedged workers) that sheds
//! degraded answers instead of dropping or panicking, typed
//! `overloaded` errors once shedding saturates, idle-timeout
//! housekeeping, and clean shutdown with zero leaked threads.

// The shared integration fixture: the grid is benchmarked once per
// binary and each learner's selector is trained once, saved, and
// reloaded through the artifact codec.
#[path = "../../../tests/fixture.rs"]
mod fixture;

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpcp_collectives::Collective;
use mpcp_core::{Instance, Selection};
use mpcp_ml::Learner;
use mpcp_serve::net::{ERR_OVERLOADED, ERR_TIMEOUT};
use mpcp_serve::{
    BatchConfig, NetClient, NetConfig, NetServer, PredictionService, Reply, ShardKey, ShedFn,
};

/// These tests assert on process-wide thread counts and daemon
/// counters; serialize them so one test's threads never show up in
/// another's books.
static NET_LOCK: Mutex<()> = Mutex::new(());

/// A latch the daemon's batch workers block on, so overload tests can
/// wedge the pipeline deterministically (same shape as the batch
/// unit tests, rebuilt here because it is test-only).
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new() })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn as_fn(self: &Arc<Gate>) -> Arc<dyn Fn() + Send + Sync> {
        let g = Arc::clone(self);
        Arc::new(move || {
            let mut open = g.open.lock().unwrap();
            while !*open {
                open = g.cv.wait(open).unwrap();
            }
        })
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
const TESTS: [&str; 5] = [
    "sustained_multi_connection_load_is_lossless_and_bit_identical",
    "wedged_workers_shed_degraded_answers_and_never_drop",
    "saturated_shedding_degrades_to_typed_overloaded_errors",
    "idle_connections_are_reaped_and_shutdown_leaks_nothing",
    "wire_shutdown_op_stops_the_daemon_for_all_clients",
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
    let _serial = NET_LOCK.lock().unwrap();
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let server = NetServer::start(
        Arc::clone(&svc),
        always_shed(),
        NetConfig {
            batch: BatchConfig { workers: 2, max_batch: 16, max_queue: 4096 },
            ..NetConfig::default()
        },
    )
    .unwrap();
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
                                // Bit-identical to the in-process path.
                                let want = svc.select_uncached(key, &inst).unwrap();
                                assert_eq!(selection.uid, want.uid, "{inst}");
                                assert_eq!(
                                    selection.predicted_us.map(f64::to_bits),
                                    want.predicted_us.map(f64::to_bits),
                                    "{inst}"
                                );
                                assert_eq!(selection.degraded, want.degraded, "{inst}");
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

#[test]
fn wedged_workers_shed_degraded_answers_and_never_drop() {
    let _serial = NET_LOCK.lock().unwrap();
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let gate = Gate::new();
    let server = NetServer::start_with_gate(
        Arc::clone(&svc),
        always_shed(),
        NetConfig {
            batch: BatchConfig { workers: 1, max_batch: 4, max_queue: 2 },
            reply_timeout: Duration::from_millis(300),
            max_shed_inflight: 1024,
            ..NetConfig::default()
        },
        gate.as_fn(),
    )
    .unwrap();
    let addr = server.local_addr();

    // 4 connections blast open-loop bursts at a 2-slot admission queue
    // behind a wedged worker: replies must be shed (degraded) or typed
    // timeouts for the few admitted tickets — never a hang, never a
    // missing reply.
    const CLIENTS: usize = 4;
    const BURST: usize = 50;
    let tallies: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
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
                    let (mut shed, mut timeouts, mut overloaded) = (0u64, 0u64, 0u64);
                    while let Some(want) = ids.pop_front() {
                        let (id, reply) = client.recv().unwrap();
                        assert_eq!(id, want);
                        match reply {
                            Reply::Selection { selection, shed: true } => {
                                assert!(selection.degraded);
                                assert_eq!(selection.predicted_us, None);
                                shed += 1;
                            }
                            Reply::Selection { shed: false, .. } => {
                                panic!("wedged workers cannot produce a real prediction")
                            }
                            Reply::Error { code: ERR_TIMEOUT, .. } => timeouts += 1,
                            Reply::Error { code: ERR_OVERLOADED, .. } => overloaded += 1,
                            Reply::Error { code, message } => {
                                panic!("unexpected error ({code}): {message}")
                            }
                            Reply::ShutdownAck => panic!("unsolicited shutdown ack"),
                        }
                    }
                    (shed, timeouts, overloaded)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let offered = (CLIENTS * BURST) as u64;
    let (shed, timeouts, overloaded) =
        tallies.iter().fold((0, 0, 0), |(a, b, c), (s, t, o)| (a + s, b + t, c + o));
    assert_eq!(shed + timeouts + overloaded, offered, "every request answered");
    assert!(shed > 0, "the queue cap must force shedding");
    assert!(timeouts <= offered, "sanity");

    let stats = server.stats();
    assert_eq!(stats.requests, offered);
    assert_eq!(stats.accepted + stats.shed + stats.overloaded, offered, "{stats:?}");
    assert_eq!(stats.shed, shed, "{stats:?}");

    // Unwedge so shutdown can drain the stuck tickets, then verify a
    // clean exit: counters final, no threads left behind.
    gate.release();
    let stats = server.join();
    assert_eq!(stats.inflight, 0, "drained: {stats:?}");
    assert_threads_drain_to(baseline);
}

#[test]
fn saturated_shedding_degrades_to_typed_overloaded_errors() {
    let _serial = NET_LOCK.lock().unwrap();
    let (svc, key, coll) = fixture_service();
    let cells = grid(coll);
    let baseline = thread_count();
    let gate = Gate::new();
    // max_shed_inflight 0: the fallback lane is closed, so everything
    // past the 1-slot queue must come back as a typed error.
    let server = NetServer::start_with_gate(
        Arc::clone(&svc),
        always_shed(),
        NetConfig {
            batch: BatchConfig { workers: 1, max_batch: 4, max_queue: 1 },
            reply_timeout: Duration::from_millis(200),
            max_shed_inflight: 0,
            ..NetConfig::default()
        },
        gate.as_fn(),
    )
    .unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut ids = VecDeque::new();
    for i in 0..8 {
        ids.push_back(client.send_select(&key, &cells[i % cells.len()]).unwrap());
    }
    let (mut overloaded, mut timeouts) = (0u64, 0u64);
    while let Some(want) = ids.pop_front() {
        let (id, reply) = client.recv().unwrap();
        assert_eq!(id, want);
        match reply {
            Reply::Error { code: ERR_OVERLOADED, .. } => overloaded += 1,
            Reply::Error { code: ERR_TIMEOUT, .. } => timeouts += 1,
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    assert!(overloaded >= 1, "saturated shedding must answer overloaded");
    assert_eq!(overloaded + timeouts, 8);
    let stats = server.stats();
    assert_eq!(stats.shed, 0, "the closed fallback lane shed nothing: {stats:?}");
    assert_eq!(stats.overloaded, overloaded, "{stats:?}");

    gate.release();
    drop(client);
    server.join();
    assert_threads_drain_to(baseline);
}

#[test]
fn idle_connections_are_reaped_and_shutdown_leaks_nothing() {
    let _serial = NET_LOCK.lock().unwrap();
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
    let _serial = NET_LOCK.lock().unwrap();
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
