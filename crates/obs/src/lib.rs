//! # mpcp-obs — tracing spans, metrics, and run provenance
//!
//! A zero-dependency observability layer for the whole pipeline:
//!
//! * [`span`] / [`event`] — RAII span guards and point events with
//!   monotonic timestamps, parent links, and `key=value` attributes,
//!   buffered per thread and drained on demand ([`drain`]) to JSONL or
//!   Chrome `chrome://tracing` format ([`export`]).
//! * [`metrics`] — a process-global registry of named counters, gauges,
//!   and log-bucketed histograms (lock-free atomic recording, mergeable
//!   snapshots, p50/p95/p99 summaries).
//! * [`export`] — the three exporters: human-readable summary tables,
//!   a JSONL event stream, and a Chrome trace-event file.
//! * [`provenance`] — a run-provenance stamp (git SHA, config, seed,
//!   wall-clock time) for benchmark and experiment outputs.
//! * [`json`] — a minimal JSON parser used to validate and re-read the
//!   emitted files (the workspace has no serde).
//! * [`window`] — rolling-window recorders over an injectable
//!   [`clock`]: per-window rates, live p50/p95/p99, SLO burn-rate.
//! * [`flight`] — a bounded ring of recent events dumped as a
//!   Chrome-trace post-mortem when a latency/failure trigger fires.
//!
//! Everything is behind one runtime switch: with tracing disabled
//! (the default) the instrumented hot paths cost a single relaxed
//! atomic load per probe — no clock reads, no allocation, no locks.
//!
//! ```
//! mpcp_obs::set_enabled(true);
//! {
//!     let _g = mpcp_obs::span("fit").attr("rounds", 200u64);
//!     mpcp_obs::event("round").attr("deviance", 0.25).emit();
//!     mpcp_obs::metrics::counter("rows").add(1);
//! }
//! let events = mpcp_obs::drain();
//! assert_eq!(events.len(), 2);
//! mpcp_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod provenance;
mod span;
pub mod window;

pub use span::{current_span_id, drain, event, span, AttrValue, EventBuilder, EventKind,
    SpanGuard, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn tracing and metrics recording on or off. Enabling also fixes
/// the trace epoch (t = 0) on first use.
pub fn set_enabled(on: bool) {
    if on {
        span::init_epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is enabled. This is the entire disabled-path cost
/// of every probe: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start a timed section: `Some(now)` only when recording is enabled.
/// The common idiom pairs it with [`record_elapsed!`]:
///
/// ```
/// let t = mpcp_obs::maybe_now();
/// // ... hot work ...
/// mpcp_obs::record_elapsed!("stage.ns", t);
/// ```
#[inline(always)]
pub fn maybe_now() -> Option<std::time::Instant> {
    enabled().then(std::time::Instant::now)
}

/// Record nanoseconds elapsed since [`maybe_now`] into the named
/// histogram. A `None` start (recording was disabled) costs one
/// `Option` check and never touches the handle; otherwise the handle
/// is looked up once per call site and cached, as in
/// [`counter_add!`], so the call takes no registry lock.
#[macro_export]
macro_rules! record_elapsed {
    ($name:literal, $t:expr) => {{
        if let ::std::option::Option::Some(t0) = $t {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::metrics::histogram($name))
                .record(t0.elapsed().as_nanos() as u64);
        }
    }};
}

/// [`record_elapsed!`] into a histogram handle the caller keeps (for
/// names built at run time); it takes no registry lock either
/// (handles stay valid across [`metrics::reset`]).
#[inline]
pub fn record_elapsed_in(hist: &metrics::Histogram, t: Option<std::time::Instant>) {
    if let Some(t0) = t {
        hist.record(t0.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        let _lock = crate::span::test_lock();
        set_enabled(false);
        drain();
        {
            let _g = span("quiet").attr("k", 1u64);
            event("e").attr("x", 2.0).emit();
        }
        assert!(drain().is_empty());
    }
}
