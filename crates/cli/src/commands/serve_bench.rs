//! `mpcp serve-bench`: load a model artifact and measure its serving
//! throughput in-process, or against a running `mpcp served` over TCP.

use mpcp_core::{Instance, Selection, Selector, SelectorArtifact};

use super::top::{flight_status_json, write_live_stats};
use super::{load_model, parse_machine, percentile, ratio};
use crate::args::Args;

/// Load the artifact at `path` with the fixed query-cell grid both
/// `serve-bench` modes cycle over: a cross product of message sizes,
/// node counts, and ppn clipped to the machine the artifact was trained
/// on (a conservative 8 x 16 for a foreign machine name).
fn load_with_cells(path: &str) -> Result<(SelectorArtifact, Vec<Instance>), String> {
    let artifact = load_model(path)?;
    let coll = artifact.meta.collective;
    let (max_nodes, max_ppn) =
        parse_machine(&artifact.meta.machine).map_or((8, 16), |m| (m.max_nodes, m.max_ppn));
    let msizes = [16u64, 256, 4 << 10, 64 << 10, 1 << 20];
    let mut nodes = Vec::new();
    let mut n = 2u32;
    while n <= max_nodes.min(32) {
        nodes.push(n);
        n *= 2;
    }
    if nodes.is_empty() {
        nodes.push(max_nodes.max(1));
    }
    let ppns: Vec<u32> = [1u32, 2, 8, 16].into_iter().filter(|p| *p <= max_ppn.max(1)).collect();
    let mut cells = Vec::new();
    for &m in &msizes {
        for &nd in &nodes {
            for &p in &ppns {
                cells.push(Instance::new(coll, m, nd, p));
            }
        }
    }
    Ok((artifact, cells))
}

/// `n` distinct instances that are not grid cells: each grid cell with
/// its message size shifted up by 1, 2, ... bytes. A daemon that has
/// only seen the grid holds none of them in its cache.
fn off_grid(cells: &[Instance], n: usize) -> Vec<Instance> {
    (0..n)
        .map(|i| {
            let c = cells[i % cells.len()];
            let shift = 1 + (i / cells.len()) as u64;
            Instance::new(c.coll, c.msize + shift, c.nodes, c.ppn)
        })
        .collect()
}

/// Run `work(t)` for `t` in `0..threads` on scoped threads and return
/// the results in thread order. Every thread is joined before the first
/// error (or a panic, reported as a `what` thread panic) is returned.
fn fan_out<T: Send>(
    threads: usize,
    what: &str,
    work: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let joined: Vec<_> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || work(t))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined.into_iter().map(|r| r.map_err(|_| format!("{what} thread panicked"))?).collect()
}

/// Same pick, same predicted runtime bit for bit, same degraded flag.
fn bit_identical(a: &Selection, b: &Selection) -> bool {
    let bits = |s: &Selection| s.predicted_us.map(f64::to_bits);
    a.uid == b.uid && bits(a) == bits(b) && a.degraded == b.degraded
}

/// Nanoseconds since `t0`, saturating.
fn nanos_since(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Closed-loop load phase: `threads` threads issue `requests` queries
/// round-robin over `cells`, each thread starting at a different
/// offset. Returns `(requests per wall-clock second, sorted
/// per-request latencies in ns)`.
fn drive_phase<F>(
    threads: usize,
    requests: usize,
    cells: &[Instance],
    query: F,
) -> Result<(f64, Vec<u64>), String>
where
    F: Fn(&Instance) -> Result<Selection, mpcp_serve::ServeError> + Sync,
{
    let per = requests.div_ceil(threads);
    let t0 = std::time::Instant::now();
    let parts = fan_out(threads, "bench", |t| {
        (0..per)
            .map(|i| {
                let q0 = std::time::Instant::now();
                query(&cells[(t * 7919 + i) % cells.len()])
                    .map_err(|e| format!("serve query failed: {e}"))?;
                Ok(nanos_since(q0))
            })
            .collect::<Result<Vec<u64>, String>>()
    })?;
    let qps = ratio(requests as f64, t0.elapsed().as_secs_f64());
    let mut lats = parts.concat();
    lats.sort_unstable();
    Ok((qps, lats))
}

/// Raw selection-kernel instance rates, measured on the bare
/// [`Selector`] before it moves into the service: the tiled batch
/// argmin over a 2048-row block, and the scalar fused argmin one row
/// at a time. These isolate the SoA tree kernels from routing, cache,
/// and queue overhead.
fn kernel_rates(selector: &Selector, cells: &[Instance]) -> (f64, f64) {
    const BLOCK: usize = 2048;
    let block: Vec<Instance> = cells.iter().copied().cycle().take(BLOCK).collect();
    let batch_ips = sustained_rate(|| {
        std::hint::black_box(selector.select_batch(std::hint::black_box(&block)));
        block.len()
    });
    let scalar_ips = sustained_rate(|| {
        for inst in cells {
            std::hint::black_box(selector.select(std::hint::black_box(inst)));
        }
        cells.len()
    });
    (batch_ips, scalar_ips)
}

/// Items per second over repeated `step` calls (each returning how many
/// items it processed) for at least 0.2 s.
fn sustained_rate(mut step: impl FnMut() -> usize) -> f64 {
    let t0 = std::time::Instant::now();
    let mut done = 0usize;
    loop {
        done += step();
        if t0.elapsed().as_secs_f64() > 0.2 {
            break;
        }
    }
    done as f64 / t0.elapsed().as_secs_f64()
}

/// One synthetic latency spike: a `serve.spike` span that sleeps for
/// `ms` — long enough to cross the flight recorder's latency trigger.
fn latency_spike(ms: f64) {
    let _g = mpcp_obs::span("serve.spike").attr("ms", ms);
    std::thread::sleep(std::time::Duration::from_secs_f64(ms / 1e3));
}

/// Open-ended load phase for `--duration`: `threads` threads hammer
/// the cached path while one more publishes live stats to `stats_out`
/// every 200ms (and fires the synthetic spike halfway through, if
/// requested). Returns the number of requests served.
fn sustained_phase(
    threads: usize,
    secs: f64,
    cells: &[Instance],
    svc: &mpcp_serve::PredictionService,
    key: &mpcp_serve::ShardKey,
    stats_out: Option<&str>,
    spike_ms: f64,
) -> Result<u64, String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = AtomicBool::new(false);
    let served = fan_out(threads + 1, "sustained", |t| {
        if t < threads {
            let mut served = 0u64;
            let mut i = t * 7919;
            while !stop.load(Ordering::Relaxed) {
                svc.select(key, &cells[i % cells.len()])
                    .map_err(|e| format!("sustained query: {e}"))?;
                (i, served) = (i + 1, served + 1);
            }
            return Ok(served);
        }
        let t0 = std::time::Instant::now();
        let mut spiked = spike_ms <= 0.0;
        let mut publish_err = Ok(());
        while t0.elapsed().as_secs_f64() < secs {
            std::thread::sleep(std::time::Duration::from_millis(200));
            if !spiked && t0.elapsed().as_secs_f64() >= secs * 0.5 {
                spiked = true;
                latency_spike(spike_ms);
            }
            if let Some(p) = stats_out {
                if publish_err.is_ok() {
                    publish_err = write_live_stats(p, svc, None, false);
                }
            }
        }
        if !spiked {
            latency_spike(spike_ms); // duration too short for the midpoint
        }
        stop.store(true, Ordering::Relaxed);
        publish_err.map(|()| 0)
    })?;
    Ok(served.iter().sum())
}

/// `mpcp serve-bench`: drives N-thread closed-loop load against a
/// [`PredictionService`] three ways — uncached (every query evaluates
/// all models), cached (per-shard LRU), and through the [`BatchServer`]
/// queue — after asserting all paths return identical selections per
/// grid cell. A kernel phase additionally reports raw selector instance
/// rates (batch and scalar fused argmin) with no serving layer in the
/// way. `--baseline` points at an earlier run's JSON; combined with
/// `--min-uncached-speedup` it gates this run's uncached throughput
/// against that file's `uncached.qps`.
///
/// [`PredictionService`]: mpcp_serve::PredictionService
/// [`BatchServer`]: mpcp_serve::BatchServer
pub fn serve_bench(args: &Args) -> Result<String, String> {
    use mpcp_serve::{BatchConfig, BatchServer, PredictionService};

    if let Some(addr) = args.get("connect") {
        return serve_bench_connect(args, addr);
    }

    let path = args.require("model")?;
    let threads = args.value_or("threads", 8usize)?.max(1);
    let requests = args.value_or("requests", 20_000usize)?;
    let cache = args.value_or("cache", 4096usize)?;
    let min_speedup = args.value_or("min-speedup", 0.0f64)?;
    let min_uncached_speedup = args.value_or("min-uncached-speedup", 0.0f64)?;
    let telemetry_gate = args.value_or("telemetry-gate", 0.0f64)?;
    let duration = args.value_or("duration", 0.0f64)?;
    let spike_ms = args.value_or("spike-ms", 0.0f64)?;
    let flight_threshold_ms = args.value_or("flight-threshold-ms", 50.0f64)?;
    let stats_out = args.get("stats-out");
    let flight_out = args.get("flight-out");
    let baseline = args.get("baseline");
    let out_path = args.get("out");
    args.reject_unread()?;
    let baseline_qps = baseline.map(|p| -> Result<f64, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        let doc = mpcp_obs::json::parse(&text).map_err(|e| format!("{p}: bad JSON: {e}"))?;
        doc.get("uncached")
            .and_then(|u| u.get("qps"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{p}: no uncached.qps field"))
    });
    let baseline_qps = baseline_qps.transpose()?;
    if min_uncached_speedup > 0.0 && baseline_qps.is_none() {
        return Err("--min-uncached-speedup needs --baseline".to_string());
    }

    let (artifact, cells) = load_with_cells(path)?;
    let learner = artifact.selector.learner_name();
    let coverage = artifact.report.summary();
    let meta = artifact.meta.clone();
    let (kernel_batch_ips, kernel_scalar_ips) = kernel_rates(&artifact.selector, &cells);
    let svc = std::sync::Arc::new(PredictionService::new(cache));
    let key = svc.insert_artifact(artifact);

    // Equal-results gate before any timing: per cell, the cached,
    // uncached, and batch paths must agree bit-for-bit.
    let batch = BatchServer::start(
        std::sync::Arc::clone(&svc),
        BatchConfig { workers: threads.min(4), max_batch: 64, ..BatchConfig::default() },
    );
    for inst in &cells {
        let uncached = svc.select_uncached(&key, inst).map_err(|e| e.to_string())?;
        let cached = svc.select(&key, inst).map_err(|e| e.to_string())?;
        let batched = batch.query(key.clone(), *inst).map_err(|e| e.to_string())?;
        for (name, got) in [("cached", cached), ("batched", batched)] {
            if !bit_identical(&got, &uncached) {
                return Err(format!(
                    "{name} path diverged from uncached on {inst}: \
                     {got:?} vs {uncached:?}"
                ));
            }
        }
    }

    // Phase 1: uncached — every query runs the full model argmin.
    let (qps_unc, lat_unc) =
        drive_phase(threads, requests, &cells, |i| svc.select_uncached(&key, i))?;
    // Phase 2: cached — the warm LRU answers from the grid cell key.
    let (qps_c, lat_c) = drive_phase(threads, requests, &cells, |i| svc.select(&key, i))?;
    // Phase 3: the batch queue (submit + wait per request).
    let (qps_b, lat_b) =
        drive_phase(threads, requests, &cells, |i| batch.query(key.clone(), *i))?;
    batch.shutdown();

    let stats = svc.stats();
    let speedup = ratio(qps_c, qps_unc);

    // Optional telemetry phases: enable windowed recording, re-run the
    // cached phase to measure the recording overhead (both runs see a
    // fully warm cache, so the comparison is apples-to-apples), then
    // sustain load for `--duration` seconds while publishing live
    // stats for `mpcp top` and letting the flight recorder watch for
    // the synthetic spike.
    let run_telemetry =
        telemetry_gate > 0.0 || duration > 0.0 || stats_out.is_some() || spike_ms > 0.0;
    let mut telemetry_json = String::new();
    let mut telemetry_human = String::new();
    let mut overhead_ratio = None;
    if run_telemetry {
        let self_enabled_obs = !mpcp_obs::enabled();
        if self_enabled_obs {
            mpcp_obs::set_enabled(true);
        }
        svc.enable_telemetry(mpcp_serve::TelemetryConfig::default());
        let (qps_on, _) = drive_phase(threads, requests, &cells, |i| svc.select(&key, i))?;
        let on_off = ratio(qps_on, qps_c);
        overhead_ratio = Some(on_off);
        // Arm the flight recorder only now: the batch pool (and its
        // `serve.batch.*` spans) is already drained, so the synthetic
        // `serve.spike` span is the only thing that can trip the
        // latency trigger.
        let armed = spike_ms > 0.0 || flight_out.is_some();
        if armed {
            mpcp_obs::flight::arm(mpcp_obs::flight::FlightConfig {
                latency_threshold_ns: Some((flight_threshold_ms * 1e6) as u64),
                latency_prefix: "serve.".to_string(),
                dump_path: flight_out.unwrap_or("flight_dump.json").into(),
                ..mpcp_obs::flight::FlightConfig::default()
            });
        }
        let sustained = if duration > 0.0 {
            sustained_phase(threads, duration, &cells, &svc, &key, stats_out, spike_ms)?
        } else {
            if spike_ms > 0.0 {
                latency_spike(spike_ms);
            }
            0
        };
        let live =
            svc.live_stats().ok_or_else(|| "telemetry enabled but no live stats".to_string())?;
        if let Some(p) = stats_out {
            write_live_stats(p, &svc, None, true)?;
        }
        let flight_json = flight_status_json();
        if armed {
            mpcp_obs::flight::disarm();
        }
        if self_enabled_obs {
            mpcp_obs::set_enabled(false);
        }
        telemetry_json = format!(
            "\n  \"telemetry\": {{ \"qps_on\": {qps_on:.0}, \"qps_off\": {qps_c:.0}, \
             \"overhead_ratio\": {on_off:.3}, \"sustained_requests\": {sustained}, \
             \"window\": {{ \"p50_ns\": {}, \"p99_ns\": {}, \"rate_per_sec\": {:.0}, \
             \"hit_ratio\": {:.4}, \"worst_burn_rate\": {:.3} }}, \"flight\": {flight_json} }},",
            live.p50_ns,
            live.p99_ns,
            live.rate_per_sec(),
            live.hit_ratio(),
            live.worst_burn_rate(),
        );
        telemetry_human = format!(
            "telemetry: {qps_on:>10.0} qps recording-on vs {qps_c:.0} off \
             ({on_off:.3}x), window p99 {} ns, hit ratio {:.3}\n",
            live.p99_ns,
            live.hit_ratio(),
        );
    }

    let uncached_speedup = baseline_qps.map(|b| ratio(qps_unc, b));
    let baseline_json = match (baseline, baseline_qps, uncached_speedup) {
        (Some(p), Some(b), Some(s)) => format!(
            "\n  \"baseline\": {{ \"path\": {}, \"uncached_qps\": {b:.0}, \
             \"uncached_speedup\": {s:.2} }},",
            mpcp_obs::export::json_string(p)
        ),
        _ => String::new(),
    };
    let prov = mpcp_obs::provenance::Provenance::capture("mpcp serve-bench", meta.seed);
    let json = format!(
        r#"{{
  "pr": 7,
  "provenance": {},
  "config": {{
    "model": {},
    "learner": {},
    "collective": {},
    "machine": {},
    "library": {},
    "coverage": {},
    "threads": {threads},
    "requests_per_phase": {requests},
    "cache_capacity": {cache},
    "distinct_cells": {}
  }},
  "kernel": {{ "batch_insts_per_sec": {kernel_batch_ips:.0}, "scalar_insts_per_sec": {kernel_scalar_ips:.0} }},
  "uncached": {{ "qps": {qps_unc:.0}, "p50_ns": {}, "p99_ns": {} }},
  "cached": {{ "qps": {qps_c:.0}, "p50_ns": {}, "p99_ns": {}, "hits": {}, "misses": {}, "hit_ratio": {:.4} }},
  "batched": {{ "qps": {qps_b:.0}, "p50_ns": {}, "p99_ns": {} }},{baseline_json}{telemetry_json}
  "speedup_cached_vs_uncached": {speedup:.2},
  "equal_results": true
}}
"#,
        prov.to_json(),
        mpcp_obs::export::json_string(path),
        mpcp_obs::export::json_string(learner),
        mpcp_obs::export::json_string(meta.collective.mpi_name()),
        mpcp_obs::export::json_string(&meta.machine),
        mpcp_obs::export::json_string(&meta.library),
        mpcp_obs::export::json_string(&coverage),
        cells.len(),
        percentile(&lat_unc, 50),
        percentile(&lat_unc, 99),
        percentile(&lat_c, 50),
        percentile(&lat_c, 99),
        stats.hits(),
        stats.misses(),
        stats.hit_ratio(),
        percentile(&lat_b, 50),
        percentile(&lat_b, 99),
    );
    let mut out = format!(
        "serve-bench: {} on {} cells, {threads} threads x {requests} requests/phase\n\
         kernel:   {kernel_batch_ips:>10.0} inst/s batch, {kernel_scalar_ips:>10.0} inst/s scalar\n\
         uncached: {qps_unc:>10.0} qps  (p99 {:>8} ns)\n\
         cached:   {qps_c:>10.0} qps  (p99 {:>8} ns, hit ratio {:.3})\n\
         batched:  {qps_b:>10.0} qps  (p99 {:>8} ns)\n\
         cached/uncached speedup: {speedup:.1}x\n",
        key,
        cells.len(),
        percentile(&lat_unc, 99),
        percentile(&lat_c, 99),
        stats.hit_ratio(),
        percentile(&lat_b, 99),
    );
    if let Some(s) = uncached_speedup {
        out.push_str(&format!("uncached speedup vs baseline: {s:.2}x\n"));
    }
    out.push_str(&telemetry_human);
    if let Some(out_path) = out_path {
        std::fs::write(out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
        out.push_str(&format!("wrote {out_path}\n"));
    }
    let (s, r) = (uncached_speedup.unwrap_or(0.0), overhead_ratio.unwrap_or(0.0));
    let gates = [
        (min_speedup, speedup, format!("cached/uncached speedup {speedup:.2}x is")),
        (
            min_uncached_speedup,
            s,
            format!("uncached throughput {qps_unc:.0} qps is {s:.2}x the baseline,"),
        ),
        (telemetry_gate, r, format!("telemetry-on throughput is {r:.3}x telemetry-off,")),
    ];
    match gates.into_iter().find(|(min, got, _)| *min > 0.0 && got < min) {
        Some((min, _, what)) => {
            Err(format!("serve-bench gate failed: {what} below the required {min}x\n{out}"))
        }
        None => Ok(out),
    }
}

/// One wire phase's merged tally (see [`wire_phase`]).
#[derive(Default)]
struct WirePhase {
    /// Requests sent: `threads * ceil(requests / threads)`.
    offered: usize,
    /// Offered requests per wall-clock second.
    qps: f64,
    /// Per-reply round-trip latencies in ns, sorted.
    lats: Vec<u64>,
    /// Non-degraded selections.
    ok: u64,
    /// Degraded (shed) selections.
    shed: u64,
    /// Typed error replies (overloaded, unknown shard, ...).
    errors: u64,
}

impl WirePhase {
    fn json(&self) -> String {
        format!(
            "{{ \"offered\": {}, \"qps\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"ok\": {}, \"shed\": {}, \"errors\": {} }}",
            self.offered,
            self.qps,
            percentile(&self.lats, 50),
            percentile(&self.lats, 99),
            self.ok,
            self.shed,
            self.errors,
        )
    }

    fn line(&self, name: &str) -> String {
        format!(
            "{:<11}{:>10.0} qps  (p99 {:>8} ns, {} ok / {} shed / {} errors of {})\n",
            format!("{name}:"),
            self.qps,
            percentile(&self.lats, 99),
            self.ok,
            self.shed,
            self.errors,
            self.offered,
        )
    }
}

/// Drive `requests` pipelined selects against the daemon at `addr`
/// from `threads` connections, keeping up to `window` requests in
/// flight per connection. Every send is matched to exactly one
/// in-order reply — a missing or reordered reply fails the phase, so
/// a silent drop can never masquerade as throughput.
fn wire_phase(
    addr: &str,
    key: &mpcp_serve::ShardKey,
    cells: &[Instance],
    threads: usize,
    requests: usize,
    window: usize,
) -> Result<WirePhase, String> {
    use mpcp_serve::{NetClient, Reply};

    let per = requests.div_ceil(threads);
    let t0 = std::time::Instant::now();
    let parts = fan_out(threads, "wire client", |t| {
        let mut client =
            NetClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let mut out = WirePhase { lats: Vec::with_capacity(per), ..WirePhase::default() };
        let mut pending: std::collections::VecDeque<(u64, std::time::Instant)> =
            std::collections::VecDeque::with_capacity(window);
        let mut sent = 0usize;
        while sent < per || !pending.is_empty() {
            while sent < per && pending.len() < window {
                let inst = &cells[(t * 7919 + sent) % cells.len()];
                let id = client.send_select(key, inst).map_err(|e| format!("send: {e}"))?;
                pending.push_back((id, std::time::Instant::now()));
                sent += 1;
            }
            let (id, reply) = client.recv().map_err(|e| format!("recv: {e}"))?;
            let Some((want, q0)) = pending.pop_front() else {
                return Err(format!("reply {id} with nothing in flight"));
            };
            if id != want {
                return Err(format!("reply order broken: got {id}, want {want}"));
            }
            out.lats.push(nanos_since(q0));
            match reply {
                Reply::Selection { shed: true, .. } => out.shed += 1,
                Reply::Selection { .. } => out.ok += 1,
                Reply::Error { .. } => out.errors += 1,
                Reply::ShutdownAck => return Err("unsolicited shutdown ack".to_string()),
            }
        }
        Ok(out)
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let offered = per * threads;
    let qps = ratio(offered as f64, wall);
    let mut merged = WirePhase { offered, qps, ..WirePhase::default() };
    for p in parts {
        merged.lats.extend(p.lats);
        merged.ok += p.ok;
        merged.shed += p.shed;
        merged.errors += p.errors;
    }
    merged.lats.sort_unstable();
    if merged.lats.len() != offered
        || merged.ok + merged.shed + merged.errors != offered as u64
    {
        return Err(format!(
            "wire phase accounting broken: offered {offered}, got {} replies \
             ({} ok + {} shed + {} errors)",
            merged.lats.len(),
            merged.ok,
            merged.shed,
            merged.errors,
        ));
    }
    Ok(merged)
}

/// `mpcp serve-bench --connect <addr>`: drive a running `mpcp served`
/// daemon over TCP instead of an in-process service. Three phases:
///
/// 1. **Equal results** — one synchronous sweep over the bench grid;
///    every non-shed wire answer must be bit-identical to the
///    in-process `select_uncached` on the same artifact file.
/// 2. **Pipelined throughput** — `--threads` connections, up to
///    `--window` requests in flight each.
/// 3. **Overload burst** (with `--overload-burst N`) — each
///    connection blasts N requests open-loop before reading a single
///    reply, so the connections' misses compete for the daemon's miss
///    slots (`mpcp served --max-misses`). Only a miss takes a slot, so
///    the burst asks for cells off the grid that no earlier phase
///    warmed. The phase asserts exactly one reply per request: shed
///    and overloaded answers are counted, never dropped.
///
/// `--max-p99-ms` gates the overload phase's p99 round-trip (the
/// pipelined phase's when no burst is requested). `--shutdown-server`
/// sends the wire shutdown op at the end, draining the daemon.
fn serve_bench_connect(args: &Args, addr: &str) -> Result<String, String> {
    use mpcp_serve::{NetClient, PredictionService};

    let path = args.require("model")?;
    let threads = args.value_or("threads", 4usize)?.max(1);
    let requests = args.value_or("requests", 4000usize)?;
    let window = args.value_or("window", 32usize)?.max(1);
    let overload_burst = args.value_or("overload-burst", 0usize)?;
    let max_p99_ms = args.value_or("max-p99-ms", 0.0f64)?;
    let shutdown_server = args.flag("shutdown-server");
    let out_path = args.get("out");
    args.reject_unread()?;

    let (artifact, cells) = load_with_cells(path)?;
    let learner = artifact.selector.learner_name();
    let meta = artifact.meta.clone();
    // The local oracle: the same artifact file the daemon loaded,
    // evaluated in-process with no cache in the way.
    let svc = PredictionService::new(cells.len().max(16));
    let key = svc.insert_artifact(artifact);

    // Phase 1: synchronous equal-results sweep.
    let mut client =
        NetClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut sync_shed = 0u64;
    for inst in &cells {
        let want = svc.select_uncached(&key, inst).map_err(|e| e.to_string())?;
        let (got, shed) =
            client.select(&key, inst).map_err(|e| format!("select {inst}: {e}"))?;
        if shed {
            sync_shed += 1; // degraded fallback: not comparable to the model
            continue;
        }
        if !bit_identical(&got, &want) {
            return Err(format!(
                "wire answer diverged from in-process select on {inst}: {got:?} vs {want:?}"
            ));
        }
    }

    // Phase 2: pipelined throughput.
    let pipe = wire_phase(addr, &key, &cells, threads, requests, window)?;
    // Phase 3: open-loop overload burst (window == burst: every
    // request is sent before the first reply is read) of uncached cells.
    let overload = (overload_burst > 0)
        .then(|| {
            let burst = overload_burst * threads;
            wire_phase(addr, &key, &off_grid(&cells, burst), threads, burst, overload_burst)
        })
        .transpose()?;
    // The latency gate reads the harshest phase we ran.
    let gated_p99_ns = percentile(&overload.as_ref().unwrap_or(&pipe).lats, 99);
    if shutdown_server {
        client.shutdown_server().map_err(|e| format!("shutdown: {e}"))?;
    }
    drop(client);

    let overload_json = overload.as_ref().map_or_else(|| "null".to_string(), WirePhase::json);
    let prov = mpcp_obs::provenance::Provenance::capture("mpcp serve-bench --connect", meta.seed);
    let json = format!(
        r#"{{
  "pr": 8,
  "provenance": {},
  "config": {{
    "addr": {},
    "model": {},
    "learner": {},
    "collective": {},
    "machine": {},
    "threads": {threads},
    "requests": {requests},
    "window": {window},
    "overload_burst": {overload_burst},
    "distinct_cells": {}
  }},
  "sync": {{ "requests": {}, "shed": {sync_shed} }},
  "pipelined": {},
  "overload": {overload_json},
  "equal_results": true,
  "all_replies_accounted": true
}}
"#,
        prov.to_json(),
        mpcp_obs::export::json_string(addr),
        mpcp_obs::export::json_string(path),
        mpcp_obs::export::json_string(learner),
        mpcp_obs::export::json_string(meta.collective.mpi_name()),
        mpcp_obs::export::json_string(&meta.machine),
        cells.len(),
        cells.len(),
        pipe.json(),
    );

    let mut out = format!(
        "serve-bench --connect {addr}: {key} over {} cells\n\
         sync:      {} requests, {sync_shed} shed, non-shed bit-identical to in-process\n{}",
        cells.len(),
        cells.len(),
        pipe.line("pipelined"),
    );
    if let Some(o) = &overload {
        out.push_str(&o.line("overload"));
        out.push_str("every request answered: accepted + shed + errors == offered\n");
    }
    if let Some(out_path) = out_path {
        std::fs::write(out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
        out.push_str(&format!("wrote {out_path}\n"));
    }
    if max_p99_ms > 0.0 && gated_p99_ns as f64 > max_p99_ms * 1e6 {
        return Err(format!(
            "serve-bench gate failed: wire p99 {:.3} ms exceeds --max-p99-ms {max_p99_ms}\n{out}",
            gated_p99_ns as f64 / 1e6
        ));
    }
    Ok(out)
}
