//! `mpcp top` and the live-stats document it reads: `serve-bench
//! --duration` and `served` publish it with [`write_live_stats`].

use crate::args::Args;

/// Atomically publish `body` at `path`: write a sibling tmp file and
/// rename it over the target, so a concurrent `mpcp top` never reads a
/// torn document.
pub(super) fn write_atomic(path: &str, body: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("writing {path}: {e}"))
}

/// The flight recorder's state as a JSON fragment (`null` if never
/// armed).
pub(super) fn flight_status_json() -> String {
    match mpcp_obs::flight::status() {
        Some(st) => format!(
            "{{\"armed\":{},\"dumped\":{},\"dump_ok\":{},\"events_seen\":{},\"dump_path\":{}}}",
            st.armed,
            st.dumped,
            st.dump_ok,
            st.events_seen,
            mpcp_obs::export::json_string(&st.dump_path.display().to_string()),
        ),
        None => "null".to_string(),
    }
}

/// A daemon counter snapshot as a JSON fragment for the stats file.
fn net_stats_json(n: &mpcp_serve::NetStatsSnapshot) -> String {
    format!(
        "{{\"requests\":{},\"accepted\":{},\"cached\":{},\"shed\":{},\"overloaded\":{},\
         \"errors\":{},\"inflight\":{},\"connections_open\":{},\
         \"connections_total\":{},\"idle_closed\":{}}}",
        n.requests,
        n.accepted,
        n.cached,
        n.shed,
        n.overloaded,
        n.errors,
        n.inflight,
        n.connections_open,
        n.connections_total,
        n.idle_closed,
    )
}

/// Publish the service's live windowed stats (plus flight-recorder
/// state and, for the daemon, the wire counters) to `path`. The
/// `finished` marker tells `mpcp top` the run is over.
pub(super) fn write_live_stats(
    path: &str,
    svc: &mpcp_serve::PredictionService,
    net: Option<&mpcp_serve::NetStatsSnapshot>,
    finished: bool,
) -> Result<(), String> {
    let Some(stats) = svc.live_stats() else { return Ok(()) };
    let net_json = net.map_or_else(|| "null".to_string(), net_stats_json);
    let body = format!(
        "{{\"finished\":{finished},\"flight\":{},\"net\":{net_json},\"stats\":{}}}\n",
        flight_status_json(),
        stats.to_json(),
    );
    write_atomic(path, &body)
}

/// Compact duration for the `top` table (the exporter's formatter is
/// private to `mpcp-obs`).
fn fmt_dur(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Render one live-stats document as the `top` table.
fn render_top(doc: &mpcp_obs::json::JsonValue) -> Result<String, String> {
    let stats = doc.get("stats").ok_or("stats file has no \"stats\" object")?;
    let num = |v: &mpcp_obs::json::JsonValue, k: &str| {
        v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0)
    };
    let finished = matches!(doc.get("finished"), Some(mpcp_obs::json::JsonValue::Bool(true)));
    let mut out = format!(
        "mpcp top — window {}ms x {} slots, epoch {}{}\n\
         requests {:>8}   rate {:>9.0}/s   hit ratio {:.3}   \
         p50 {:>9}   p95 {:>9}   p99 {:>9}   burn {:.3}\n",
        num(stats, "slot_ns") / 1e6,
        num(stats, "slots"),
        num(stats, "epoch"),
        if finished { " (finished)" } else { "" },
        num(stats, "requests"),
        num(stats, "rate_per_sec"),
        num(stats, "hit_ratio"),
        fmt_dur(num(stats, "p50_ns")),
        fmt_dur(num(stats, "p95_ns")),
        fmt_dur(num(stats, "p99_ns")),
        num(stats, "worst_burn_rate"),
    );
    if let Some(fl) = doc.get("flight") {
        if fl.get("armed").is_some() {
            let dumped = matches!(
                fl.get("dumped"),
                Some(mpcp_obs::json::JsonValue::Bool(true))
            );
            out.push_str(&format!(
                "flight:   {} ({} events seen{})\n",
                if dumped { "DUMPED" } else { "armed" },
                num(fl, "events_seen"),
                match fl.get("dump_path").and_then(|v| v.as_str()) {
                    Some(p) if dumped => format!(", trace at {p}"),
                    _ => String::new(),
                },
            ));
        }
    }
    if let Some(net) = doc.get("net") {
        if net.get("requests").is_some() {
            out.push_str(&format!(
                "net:      conns {}/{}   reqs {}   accepted {} ({} cached)   shed {}   \
                 overloaded {}   errors {}   inflight {}   idle-closed {}\n",
                num(net, "connections_open"),
                num(net, "connections_total"),
                num(net, "requests"),
                num(net, "accepted"),
                num(net, "cached"),
                num(net, "shed"),
                num(net, "overloaded"),
                num(net, "errors"),
                num(net, "inflight"),
                num(net, "idle_closed"),
            ));
        }
    }
    out.push_str(&format!(
        "{:<40} {:>8} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}\n",
        "shard", "reqs", "rate/s", "hit%", "p50", "p99", "queue p99", "compute99", "probe p99", "burn",
    ));
    for s in stats.get("shards").and_then(|v| v.as_arr()).unwrap_or(&[]) {
        let reqs = num(s, "requests");
        let hitpc = num(s, "hit_ratio") * 100.0;
        out.push_str(&format!(
            "{:<40} {reqs:>8} {:>9.0} {hitpc:>6.1} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6.3}\n",
            s.get("key").and_then(|v| v.as_str()).unwrap_or("?"),
            num(s, "rate_per_sec"),
            fmt_dur(num(s, "p50_ns")),
            fmt_dur(num(s, "p99_ns")),
            fmt_dur(num(s, "queue_wait_p99_ns")),
            fmt_dur(num(s, "compute_p99_ns")),
            fmt_dur(num(s, "cache_probe_p99_ns")),
            num(s, "burn_rate"),
        ));
    }
    Ok(out)
}

/// `mpcp top`: introspect a running `mpcp serve-bench --duration N
/// --stats-out <file>` session: the bench publishes its live windowed
/// stats atomically to `<file>`, and `top` renders them as a refreshing
/// per-shard table — requests, rate, hit ratio, latency quantiles, the
/// queue-wait/compute/probe attribution split, and the SLO burn rate.
/// `--once` prints a single sample and exits; `--json` emits the raw
/// document instead of the table.
pub fn top(args: &Args) -> Result<String, String> {
    let path = args.require("stats")?;
    let once = args.flag("once");
    let json = args.flag("json");
    let interval_ms = args.value_or("interval-ms", 500u64)?;
    let timeout = args.value_or("timeout", 30.0f64)?;
    args.reject_unread()?;

    let t0 = std::time::Instant::now();
    let mut last = String::new();
    loop {
        // The publisher writes tmp-then-rename, so a successful read is
        // always a complete document; a missing file means the bench
        // has not published yet (or a sample landed between unlink and
        // rename on exotic filesystems) — retry until the deadline.
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.trim().is_empty() {
                let doc = mpcp_obs::json::parse(&text)
                    .map_err(|e| format!("{path}: bad JSON: {e}"))?;
                let finished =
                    matches!(doc.get("finished"), Some(mpcp_obs::json::JsonValue::Bool(true)));
                if once {
                    return Ok(if json { text } else { render_top(&doc)? });
                }
                if text != last {
                    // Clear + home: a refreshing full-screen table.
                    let frame = if json { text.clone() } else { render_top(&doc)? };
                    print!("\x1b[2J\x1b[H{frame}");
                    std::io::Write::flush(&mut std::io::stdout()).ok();
                    last = text;
                }
                if finished {
                    return Ok("serve-bench session finished\n".to_string());
                }
            }
        }
        if t0.elapsed().as_secs_f64() > timeout {
            return Err(format!("top: no live stats at {path} within {timeout}s"));
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}
