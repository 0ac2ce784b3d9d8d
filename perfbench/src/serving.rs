//! Serving a trained selector over the wire, as an MPI runtime would
//! query it: a `PredictionService` behind an in-process `NetServer` at
//! the default `NetConfig`, and one `NetClient` connection that keeps a
//! fixed window of requests in flight (a closed loop: the next request
//! goes out only when a reply comes back).
//!
//! The request stream is generated from the workload seed. It mixes a
//! hot set, the cells of the trained grid (a few hundred, well within
//! the service's LRU cache), with cold cells drawn from every job the
//! machine can run — any node count and ppn up to the machine's limits,
//! log-uniform message sizes — a space far larger than the cache, so
//! both the cache and the model kernels carry load.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpcp_benchmark::noise::SplitMix64;
use mpcp_benchmark::DatasetSpec;
use mpcp_collectives::Collective;
use mpcp_core::{Instance, Selection, Selector, SelectorArtifact};
use mpcp_serve::{
    NetClient, NetConfig, NetServer, NetStatsSnapshot, PredictionService, Reply, ServeStats,
    ShardKey, ShedFn,
};
use mpcp_simnet::Topology;

use crate::pipeline::{Entry, Prep};
use crate::stats::percentile;

/// Per-shard LRU capacity of the service (the daemon's default).
pub const CACHE_CELLS: usize = 4096;
/// Requests kept in flight on the connection.
pub const WINDOW: usize = 8;
/// Share of requests drawn from the hot set. An assumption, not a
/// measurement: no trace of real selection queries is available. The
/// traced run also measures the daemon at [`HOT_SHARE_ALT`] to show how
/// much the gated throughput depends on it.
pub const HOT_SHARE: f64 = 0.8;
/// The second hot share the traced run measures.
pub const HOT_SHARE_ALT: f64 = 0.5;
/// Largest cold message size, 4 MiB (2^22 bytes).
const COLD_MSIZE_LOG2: f64 = 22.0;

/// The seeded request stream.
pub struct RequestStream {
    coll: Collective,
    max_nodes: u32,
    max_ppn: u32,
    hot: Vec<Instance>,
    hot_share: f64,
    rng: SplitMix64,
}

impl RequestStream {
    /// The stream of `seed` for queries about `spec`'s collective, with
    /// `hot_share` of the requests on `spec`'s grid cells.
    pub fn new(spec: &DatasetSpec, seed: u64, hot_share: f64) -> RequestStream {
        let mut hot = Vec::new();
        for &nodes in &spec.nodes {
            for &ppn in &spec.ppn {
                for &msize in &spec.msizes {
                    hot.push(Instance::new(spec.coll, msize, nodes, ppn));
                }
            }
        }
        debug_assert!(hot.len() <= CACHE_CELLS, "the hot set fits the cache");
        RequestStream {
            coll: spec.coll,
            max_nodes: spec.machine.max_nodes,
            max_ppn: spec.machine.max_ppn,
            hot,
            hot_share,
            rng: SplitMix64::new(seed ^ 0x5EED_0000_0000_0002),
        }
    }

    /// The first `n` requests of the stream `RequestStream::new` makes.
    pub fn replay(spec: &DatasetSpec, seed: u64, hot_share: f64, n: u64) -> Vec<(Instance, bool)> {
        let mut stream = RequestStream::new(spec, seed, hot_share);
        (0..n).map(|_| stream.next_request()).collect()
    }

    /// The next request, and whether it is cold.
    pub fn next_request(&mut self) -> (Instance, bool) {
        let rng = &mut self.rng;
        if rng.next_f64() < self.hot_share {
            let i = (rng.next_u64() % self.hot.len() as u64) as usize;
            (self.hot[i], false)
        } else {
            let nodes = 1 + (rng.next_u64() % u64::from(self.max_nodes)) as u32;
            let ppn = 1 + (rng.next_u64() % u64::from(self.max_ppn)) as u32;
            let msize = (rng.next_f64() * COLD_MSIZE_LOG2).exp2() as u64;
            (Instance::new(self.coll, msize.max(1), nodes, ppn), true)
        }
    }
}

/// When a closed loop stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this long (but not before one window's worth).
    After(Duration),
    /// After this many requests.
    Requests(usize),
}

/// One closed-loop run.
///
/// Memory stays flat in the number of requests apart from 4 bytes of
/// round-trip time each, so a faster server does not raise the run's
/// peak memory.
#[derive(Default)]
pub struct WireRun {
    /// Round-trip times in nanoseconds, one per reply.
    pub rtt_ns: Vec<u32>,
    /// Requests sent.
    pub sent: u64,
    /// Replies that carried a model selection.
    pub ok: u64,
    /// Replies from the degraded fallback.
    pub shed: u64,
    /// Error replies.
    pub errors: u64,
    /// Wall time spent sending and receiving (checks excluded).
    pub wall_s: f64,
    /// Replies per second of each chunk.
    pub chunk_qps: Vec<f64>,
    /// Median round trip of each chunk, in microseconds.
    pub chunk_p50_us: Vec<f64>,
}

impl WireRun {
    /// Replies per second of the 90th-percentile chunk. Interference
    /// from outside the process (other tenants of the host, stolen CPU)
    /// only ever slows chunks, and on a shared host it slows a varying
    /// share of them; the fast tail of the chunks measures what the
    /// daemon sustains and stays put from run to run.
    pub fn select_qps(&self) -> f64 {
        percentile(&self.chunk_qps, 90.0)
    }

    /// Median round trip of the 10th-percentile chunk (the same
    /// reasoning as [`WireRun::select_qps`]).
    pub fn select_p50_us(&self) -> f64 {
        percentile(&self.chunk_p50_us, 10.0)
    }

    /// Replies per second over the whole run. Unlike
    /// [`WireRun::select_qps`] it also moves when only some chunks slow
    /// down, and with them whatever the host does meanwhile.
    pub fn run_qps(&self) -> f64 {
        self.rtt_ns.len() as f64 / self.wall_s
    }

    /// Median and 99th-percentile (nearest rank) round trip in
    /// microseconds. Sorts the samples in place.
    pub fn rtt_p50_p99_us(&mut self) -> (f64, f64) {
        assert!(
            !self.rtt_ns.is_empty(),
            "a closed loop answers at least one request"
        );
        self.rtt_ns.sort_unstable();
        let n = self.rtt_ns.len();
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        (
            median_us(&self.rtt_ns),
            f64::from(self.rtt_ns[rank - 1]) * 1e-3,
        )
    }
}

/// Median of sorted nanosecond samples, in microseconds.
fn median_us(sorted: &[u32]) -> f64 {
    let n = sorted.len();
    let us = |ns: u32| f64::from(ns) * 1e-3;
    if n % 2 == 1 {
        us(sorted[n / 2])
    } else {
        0.5 * (us(sorted[n / 2 - 1]) + us(sorted[n / 2]))
    }
}

/// Requests per chunk. Each chunk is timed on its own, and its replies
/// are checked after it, with the clock stopped.
const CHUNK: usize = 512;

/// A served selector and a client connected to it.
pub struct Deployment {
    svc: Arc<PredictionService>,
    key: ShardKey,
    server: NetServer,
    client: NetClient,
    bytes: Vec<u8>,
}

/// Counters of a finished deployment.
pub struct Finished {
    /// Daemon counters after every reply was written.
    pub net: NetStatsSnapshot,
    /// Cache counters of the service.
    pub serve: ServeStats,
}

impl Deployment {
    /// Encode `entry`'s selector, decode the artifact into a fresh
    /// service, start the daemon and connect one client.
    pub fn start(entry: &Entry, prep: &Prep) -> Result<Deployment, String> {
        let bytes = {
            let _s = mpcp_obs::span("ml:encode").attr("learner", "xgboost");
            entry
                .selector
                .to_artifact_bytes(&entry.report, &prep.artifact_meta())
        };
        let artifact = {
            let _s = mpcp_obs::span("ml:decode").attr("learner", "xgboost");
            SelectorArtifact::from_bytes(&bytes)
        }
        .map_err(|e| format!("served artifact does not decode: {e}"))?;
        let svc = Arc::new(PredictionService::new(CACHE_CELLS));
        let key = svc.insert_artifact(artifact);
        let coll = prep.spec.coll;
        let library = prep.spec.library(None);
        let shed_key = key.clone();
        // The daemon's overload fallback: the library's own decision.
        let shed: ShedFn = Arc::new(move |k: &ShardKey, inst: &Instance| {
            if *k != shed_key || inst.coll != coll {
                return None;
            }
            let topo = Topology::new(inst.nodes, inst.ppn);
            let uid = u32::try_from(library.default_choice(coll, inst.msize, &topo)).ok()?;
            Some(Selection {
                uid,
                predicted_us: None,
                degraded: true,
            })
        });
        let server = NetServer::start(Arc::clone(&svc), shed, NetConfig::default())
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let client = NetClient::connect(server.local_addr())
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        Ok(Deployment {
            svc,
            key,
            server,
            client,
            bytes,
        })
    }

    /// Size of the served artifact.
    pub fn artifact_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Run the closed loop until `stop`, then drain the window.
    ///
    /// The loop runs in chunks of [`CHUNK`] requests. After each chunk
    /// the window drains, the clock stops, and every reply of the chunk
    /// that was not shed is checked against the service's uncached
    /// answer.
    pub fn closed_loop(
        &mut self,
        stream: &mut RequestStream,
        stop: Stop,
    ) -> Result<WireRun, String> {
        let mut run = WireRun::default();
        self.continue_loop(stream, stop, &mut run)?;
        Ok(run)
    }

    /// Run the closed loop until `stop` as [`Deployment::closed_loop`]
    /// does, adding the replies, chunks and wall time to `run`. The stop
    /// rule counts this call's time and requests only.
    pub fn continue_loop(
        &mut self,
        stream: &mut RequestStream,
        stop: Stop,
        run: &mut WireRun,
    ) -> Result<(), String> {
        let sent0 = run.sent;
        let mut pending: VecDeque<(u64, Instance, bool, Instant)> = VecDeque::with_capacity(WINDOW);
        let mut replies: Vec<(Instance, bool, Selection)> = Vec::with_capacity(CHUNK);
        let mut hot_answers: HashMap<(u64, u32, u32), Selection> = HashMap::new();
        let mut timed = Duration::ZERO;
        let mut sending = true;
        while sending {
            let t0 = Instant::now();
            let mut chunk_sent = 0;
            loop {
                while sending && chunk_sent < CHUNK && pending.len() < WINDOW {
                    sending = match stop {
                        Stop::After(d) => {
                            timed + t0.elapsed() < d || run.sent - sent0 < WINDOW as u64
                        }
                        Stop::Requests(n) => run.sent - sent0 < n as u64,
                    };
                    if !sending {
                        break;
                    }
                    let (inst, cold) = stream.next_request();
                    let id = self
                        .client
                        .send_select(&self.key, &inst)
                        .map_err(|e| format!("send: {e}"))?;
                    pending.push_back((id, inst, cold, Instant::now()));
                    run.sent += 1;
                    chunk_sent += 1;
                }
                let Some((want, inst, cold, q0)) = pending.pop_front() else {
                    break;
                };
                let (id, reply) = self.client.recv().map_err(|e| format!("recv: {e}"))?;
                let rtt_ns = u32::try_from(q0.elapsed().as_nanos()).unwrap_or(u32::MAX);
                if id != want {
                    return Err(format!("reply order broken: got {id}, want {want}"));
                }
                run.rtt_ns.push(rtt_ns);
                mpcp_obs::event("serve:reply")
                    .attr("req", run.rtt_ns.len() - 1)
                    .attr("rtt_ns", u64::from(rtt_ns))
                    .emit();
                match reply {
                    Reply::Selection { shed: true, .. } => run.shed += 1,
                    Reply::Selection { selection, .. } => {
                        run.ok += 1;
                        replies.push((inst, cold, selection));
                    }
                    Reply::Error { .. } => run.errors += 1,
                    Reply::ShutdownAck => return Err("unsolicited shutdown ack".to_string()),
                }
            }
            let chunk_s = t0.elapsed();
            timed += chunk_s;
            let answered = &run.rtt_ns[run.rtt_ns.len() - chunk_sent..];
            if !answered.is_empty() {
                let mut sorted = answered.to_vec();
                sorted.sort_unstable();
                run.chunk_qps
                    .push(sorted.len() as f64 / chunk_s.as_secs_f64());
                run.chunk_p50_us.push(median_us(&sorted));
            }
            for (inst, cold, got) in replies.drain(..) {
                let want = if cold {
                    self.uncached(&inst)?
                } else {
                    match hot_answers.get(&(inst.msize, inst.nodes, inst.ppn)) {
                        Some(w) => *w,
                        None => {
                            let w = self.uncached(&inst)?;
                            hot_answers.insert((inst.msize, inst.nodes, inst.ppn), w);
                            w
                        }
                    }
                };
                let same = got.uid == want.uid
                    && got.degraded == want.degraded
                    && got.predicted_us.map(f64::to_bits) == want.predicted_us.map(f64::to_bits);
                if !same {
                    return Err(format!(
                        "reply for {inst} was {got:?}, the service computes {want:?}"
                    ));
                }
            }
        }
        run.wall_s += timed.as_secs_f64();
        Ok(())
    }

    fn uncached(&self, inst: &Instance) -> Result<Selection, String> {
        self.svc
            .select_uncached(&self.key, inst)
            .map_err(|e| format!("uncached select of {inst}: {e}"))
    }

    /// Time in-process `PredictionService::select` on `requests`, on a
    /// fresh service with the served artifact and the same cache size.
    pub fn local_selects(&self, requests: &[(Instance, bool)]) -> Result<Vec<f64>, String> {
        let svc = PredictionService::new(CACHE_CELLS);
        let key = svc.insert_artifact(self.decode()?);
        let mut us = Vec::with_capacity(requests.len());
        for (i, (inst, _)) in requests.iter().enumerate() {
            let _s = mpcp_obs::span("serve:local_select").attr("req", i);
            let t = Instant::now();
            svc.select(&key, inst)
                .map_err(|e| format!("local select: {e}"))?;
            us.push(t.elapsed().as_nanos() as f64 * 1e-3);
        }
        Ok(us)
    }

    /// Time in-process `Selector::select` on the cold requests.
    pub fn core_selects(&self, requests: &[(Instance, bool)]) -> Result<Vec<f64>, String> {
        let selector: Selector = self.decode()?.selector;
        let mut us = Vec::new();
        for (i, (inst, cold)) in requests.iter().enumerate() {
            if !cold {
                continue;
            }
            let _s = mpcp_obs::span("core:select").attr("req", i);
            let t = Instant::now();
            std::hint::black_box(selector.select(inst));
            us.push(t.elapsed().as_nanos() as f64 * 1e-3);
        }
        Ok(us)
    }

    fn decode(&self) -> Result<SelectorArtifact, String> {
        SelectorArtifact::from_bytes(&self.bytes).map_err(|e| format!("served artifact: {e}"))
    }

    /// Close the connection, drain and stop the daemon, and check that
    /// its request count equals the replies of `runs` by kind.
    pub fn finish(self, runs: &[&WireRun]) -> Result<Finished, String> {
        let Deployment {
            svc,
            server,
            client,
            ..
        } = self;
        drop(client);
        let net = server.join();
        let serve = svc.stats();
        let (mut sent, mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64, 0u64);
        for run in runs {
            sent += run.sent;
            ok += run.ok;
            shed += run.shed;
            errors += run.errors;
        }
        if net.requests != sent || ok + shed + errors != sent {
            return Err(format!(
                "wire accounting: sent {sent}, daemon saw {}, replies {ok} ok + {shed} shed + {errors} errors",
                net.requests
            ));
        }
        if net.shed != shed || net.errors != errors || net.overloaded > net.errors {
            return Err(format!(
                "wire accounting: client saw {shed} shed and {errors} errors, daemon {} shed, {} overloaded, {} errors",
                net.shed, net.overloaded, net.errors
            ));
        }
        Ok(Finished { net, serve })
    }
}
