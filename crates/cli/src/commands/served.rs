//! `mpcp served`: serve a model artifact over TCP.

use mpcp_core::Instance;
use mpcp_simnet::Topology;

use super::top::{write_atomic, write_live_stats};
use super::{library_of, load_model};
use crate::args::Args;

/// `mpcp served`: serve a saved model artifact over TCP. Requests and
/// responses are length-framed with the persist codec (magic, version,
/// kind, checksum — see DESIGN §15) and pipelined per connection.
/// Each connection's reader answers cache hits and computes misses
/// itself; `--max-misses` bounds the misses computed at once across
/// the daemon, and a miss beyond it is shed to the library's built-in
/// decision logic with the reply marked degraded. Once
/// `--max-shed-inflight` concurrent fallbacks are in flight the daemon
/// answers a typed `overloaded` error instead. Nothing queues
/// unboundedly and nothing is silently dropped.
///
/// Runs until a wire `shutdown` op arrives (`mpcp serve-bench
/// --connect <addr> --shutdown-server`) or `--duration` elapses, then
/// drains every admitted request to a written reply before exiting.
/// With `--stats-out`, live windowed stats plus the wire counters are
/// published for `mpcp top`; `--addr-out` writes the resolved listen
/// address (use `--addr 127.0.0.1:0` for an ephemeral port).
pub fn served(args: &Args) -> Result<String, String> {
    use mpcp_serve::{NetConfig, NetServer, PredictionService, ShedFn};

    let path = args.require("model")?;
    let addr = args.get_or("addr", "127.0.0.1:0").to_string();
    let max_misses = args.value_or("max-misses", 1024usize)?;
    let cache = args.value_or("cache", 4096usize)?;
    let idle_ms = args.value_or("idle-timeout-ms", 300_000u64)?;
    let max_shed_inflight = args.value_or("max-shed-inflight", 64usize)?;
    let duration = args.value_or("duration", 0.0f64)?;
    let stats_out = args.get("stats-out");
    let addr_out = args.get("addr-out");
    args.reject_unread()?;

    let artifact = load_model(path)?;
    let learner = artifact.selector.learner_name();
    let meta = artifact.meta.clone();
    let lib = library_of(&meta)?;
    let coll = meta.collective;
    let svc = std::sync::Arc::new(PredictionService::new(cache));
    let key = svc.insert_artifact(artifact);

    let self_enabled_obs = stats_out.is_some() && !mpcp_obs::enabled();
    if self_enabled_obs {
        mpcp_obs::set_enabled(true);
    }
    if stats_out.is_some() {
        svc.enable_telemetry(mpcp_serve::TelemetryConfig::default());
    }

    // The overload fallback: the library's own decision logic, exactly
    // what an untrained deployment would run. Shard/collective
    // mismatches return None so the daemon answers a typed error
    // instead of a wrong-model guess.
    let shed: ShedFn = {
        let key = key.clone();
        std::sync::Arc::new(move |k: &mpcp_serve::ShardKey, inst: &Instance| {
            if *k != key || inst.coll != coll {
                return None;
            }
            let uid =
                lib.default_choice(coll, inst.msize, &Topology::new(inst.nodes, inst.ppn));
            let uid = u32::try_from(uid).ok()?;
            Some(mpcp_core::Selection { uid, predicted_us: None, degraded: true })
        })
    };
    let cfg = NetConfig {
        addr,
        max_misses,
        idle_timeout: std::time::Duration::from_millis(idle_ms.max(1)),
        max_shed_inflight,
    };
    let server = NetServer::start(std::sync::Arc::clone(&svc), shed, cfg)
        .map_err(|e| format!("starting daemon: {e}"))?;
    let bound = server.local_addr();
    if let Some(p) = addr_out {
        write_atomic(p, &format!("{bound}\n"))?;
    }
    println!("mpcp served: {learner}/{} listening on {bound} (shard {key})", meta.machine);
    std::io::Write::flush(&mut std::io::stdout()).ok();

    let t0 = std::time::Instant::now();
    let mut publish_err: Result<(), String> = Ok(());
    while server.running() {
        if duration > 0.0 && t0.elapsed().as_secs_f64() >= duration {
            server.stop();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        if let Some(p) = stats_out {
            if publish_err.is_ok() {
                publish_err = write_live_stats(p, &svc, Some(&server.stats()), false);
            }
        }
    }
    // Join before surfacing a publish error: the drain must happen
    // even when the stats file went bad mid-run.
    let stats = server.join();
    publish_err?;
    if let Some(p) = stats_out {
        write_live_stats(p, &svc, Some(&stats), true)?;
    }
    if self_enabled_obs {
        mpcp_obs::set_enabled(false);
    }
    Ok(format!(
        "mpcp served: drained and stopped after {:.1}s\n\
         connections: {} total, {} closed idle\n\
         requests:    {} decoded = {} accepted ({} cached) + {} shed + {} overloaded \
         ({} error replies, {} in flight at exit)\n",
        t0.elapsed().as_secs_f64(),
        stats.connections_total,
        stats.idle_closed,
        stats.requests,
        stats.accepted,
        stats.cached,
        stats.shed,
        stats.overloaded,
        stats.errors,
        stats.inflight,
    ))
}
