//! # mpcp-perfbench — the repository's end-to-end benchmark
//!
//! One command runs a named workload through the public calls of the
//! layers (`simnet`, `collectives`, `benchmark`, `ml`, `core`, `serve`),
//! checks the outputs, and prints one JSON result line. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) adds one
//! pass with a span around every layer call and reports the per-layer
//! metrics. See README.md for the workloads, the metrics and how the
//! two relate.

#![forbid(unsafe_code)]

pub mod golden;
pub mod pipeline;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod workload;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`; 100 on
/// every Linux configuration in use).
const CLK_TCK: f64 = 100.0;

/// Worker threads available to the process (what the data-parallel
/// paths of the program use).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
