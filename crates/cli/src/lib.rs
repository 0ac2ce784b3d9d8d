//! # mpcp-cli — the `mpcp` command-line tool
//!
//! A front end over the whole pipeline, mirroring how the paper's
//! framework would be operated in production:
//!
//! ```text
//! mpcp machines                                   # list machine profiles
//! mpcp algorithms --coll bcast --lib openmpi      # list algorithm configs
//! mpcp simulate  --machine hydra --coll bcast --nodes 8 --ppn 16 --msize 1M
//! mpcp bench     --machine hydra --coll bcast --nodes 2,4,8 --ppn 1,8 \
//!                --msizes 16,4K,256K --out bcast.store
//! mpcp select    --data bcast.store --coll bcast --learner gam \
//!                --train-nodes 2,4,8 --nodes 6 --ppn 16 --msize 64K
//! mpcp tune      --data bcast.store --coll bcast --learner gam \
//!                --train-nodes 2,4,8 --nodes 6 --ppn 16 --out bcast.tune
//! mpcp report    --trace trace.json --metrics metrics.jsonl \
//!                --require simulate,measure,fit,select
//! ```
//!
//! Any command additionally accepts `--trace-out <file>` /
//! `--metrics-out <file>` to capture spans and metrics (see `mpcp-obs`).
//! Any other flag a command does not read is an error.
//!
//! The library exposes the command implementations (one module per
//! command under [`commands`]) so they are testable; `src/main.rs` is a
//! thin wrapper.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

use args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
mpcp — MPI collective performance prediction (CLUSTER'20 reproduction)

USAGE: mpcp <COMMAND> [--key value ...]

COMMANDS:
  machines    list simulated machine profiles (Table I)
  algorithms  list a library's algorithm configurations
              --coll <bcast|allreduce|alltoall|reduce|allgather|scatter|gather|barrier>
              [--lib openmpi]
  simulate    run one collective once on the simulator
              --machine <name> --coll <c> --nodes <n> --ppn <N> --msize <size>
              [--alg <uid>] [--lib openmpi]
  bench       benchmark a grid into a fresh dataset store
              --machine <name> --coll <c> --nodes <list> --ppn <list>
              --msizes <sizes> --out <file> [--lib openmpi] [--seed <u64>]
              [--fault-plan <plan>] [--retries <n>] [--retry-backoff-ms <ms>]
  campaign    parallel work-stealing grid sweep into a checkpointed
              columnar store; byte-identical at any thread count, and
              resumable after a crash from the last committed chunk
              --machine <name> --coll <c> --nodes <list> --ppn <list>
              --msizes <sizes> --store <file> [--threads <n>]
              [--checkpoint-every <cells>] [--resume]
              [--max-reps <n>] [--lib openmpi] [--seed <u64>]
              [--fault-plan <plan>] [--retries <n>] [--retry-backoff-ms <ms>]
              with --bench-out <file>: run fresh at 1 thread and at
              --threads, assert the stores are byte-identical, and write
              a BENCH_PR10.json speedup report [--min-speedup <x>]
  train       train on a dataset store and save the selector as a binary
              model artifact (models + coverage + provenance manifest)
              --data <file> --coll <c> --save-model <file>
              [--learner knn|gam|xgboost|forest|linear] [--machine <name>]
              [--lib openmpi] [--train-nodes <list>] [--min-samples <n>]
              [--seed <u64>]
  select      train on a dataset store and predict the best algorithm
              --data <file> --coll <c> --train-nodes <list>
              --nodes <n> --ppn <N> --msize <size> [--learner knn|gam|xgboost]
              [--machine <name>] [--lib openmpi] [--min-samples <n>]
              with --model <file>: answer from a saved artifact instead
              (no --data/--learner needed; --data adds the measured best)
  tune        emit a tuning file for one allocation (10-15 msize queries)
              --data <file> --coll <c> --train-nodes <list>
              --nodes <n> --ppn <N> --out <file> [--learner ...]
              [--min-samples <n>]
  serve-bench  load a model artifact into the concurrent PredictionService
              and measure kernel inst/s plus cached vs uncached vs batched
              query throughput; with --duration, sustain load while
              publishing live windowed stats for `mpcp top` and arming
              the flight recorder
              --model <file> [--threads 8] [--requests 20000]
              [--cache 4096] [--min-speedup <x>] [--out BENCH_PR7.json]
              [--baseline BENCH_PRn.json] [--min-uncached-speedup <x>]
              [--telemetry-gate <ratio>] [--duration <secs>]
              [--stats-out <file>] [--spike-ms <ms>] [--flight-out <file>]
              [--flight-threshold-ms <ms>]
              with --connect <addr>: drive a running `mpcp served`
              daemon over TCP instead (equal-results sweep, pipelined
              throughput, open-loop overload burst asserting one reply
              per request)
              --connect <addr> --model <file> [--threads 4]
              [--requests 4000] [--window 32] [--overload-burst <n>]
              [--max-p99-ms <x>] [--shutdown-server] [--out <file>]
  served      serve a model artifact over TCP: persist-codec framed
              requests, pipelined per connection, misses computed on
              each connection's reader under a daemon-wide bound, with
              degraded load shedding past it; runs until the wire
              shutdown op or --duration
              --model <file> [--addr 127.0.0.1:0] [--addr-out <file>]
              [--max-misses 1024] [--idle-timeout-ms 300000]
              [--max-shed-inflight 64] [--cache 4096]
              [--duration <secs>] [--stats-out <file>]
  top         watch a running serve-bench or served session's live
              windowed stats
              (per-shard rate, hit ratio, p50/p99, queue-wait vs compute
              split, SLO burn rate)
              --stats <file> [--once] [--json] [--interval-ms 500]
              [--timeout 30]
  report      summarize trace/metrics files written by --trace-out /
              --metrics-out
              [--trace <file>] [--metrics <file>] [--require <spans>]
              [--require-metric <name[>=N],...>] [--format text|json]

FAULT INJECTION (bench):
  --fault-plan \"fail=0.3,timeout=0.05,outlier=0.02x8,blackout=13+19,seed=7\"
                        deterministic per-cell failures/timeouts/outliers
                        and whole-node-count blackouts; lost cells are
                        absent from the store and reported as coverage
  --retries <n>         extra attempts for failed cells (default 2);
                        backoff is charged against each cell's budget
  --retry-backoff-ms <ms>  base backoff, doubled per retry (default 0.1)
  select/tune degrade gracefully on partial datasets: configurations
  without enough samples fall back to the library decision logic and
  selections are marked DEGRADED. --min-samples <n> sets the per-config
  training threshold (default 1).

OBSERVABILITY (any command):
  --trace-out <file>    record spans; .json => Chrome trace-event format
                        (appends to an existing trace so a bench+select
                        pipeline shares one timeline), .jsonl => events
  --metrics-out <file>  append a provenance-stamped metrics block (JSONL)

Sizes accept K/M/G suffixes (binary); lists are comma-separated.
Unknown flags are rejected: a command accepts only the flags it lists.";

/// Reconstruct a canonical `mpcp ...` config string for provenance.
fn config_line(args: &Args) -> String {
    let mut s = format!("mpcp {}", args.command);
    for k in args.keys() {
        if let Some(v) = args.get(k) {
            s.push_str(&format!(" --{k} {v}"));
        }
    }
    s
}

/// Dispatch a parsed command line; returns the text to print.
///
/// `--trace-out` / `--metrics-out` on any command switch the
/// observability layer on for the duration of the command and write the
/// collected spans/metrics on the way out.
pub fn run(args: Args) -> Result<String, String> {
    let trace_out = args.get("trace-out").map(str::to_string);
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let traced = trace_out.is_some() || metrics_out.is_some();
    if traced {
        mpcp_obs::set_enabled(true);
    }
    let result = match args.command.as_str() {
        "machines" => args.reject_unread().and_then(|()| commands::machines()),
        "algorithms" => commands::algorithms(&args),
        "simulate" => commands::simulate(&args),
        "bench" => commands::bench(&args),
        "campaign" => commands::campaign(&args),
        "train" => commands::train(&args),
        "select" => commands::select(&args),
        "serve-bench" => commands::serve_bench(&args),
        "served" => commands::served(&args),
        "tune" => commands::tune(&args),
        "top" => commands::top(&args),
        "report" => commands::report(&args),
        "" | "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    if !traced {
        return result;
    }
    mpcp_obs::set_enabled(false);
    let seed = args.get("seed").and_then(|s| s.parse::<u64>().ok());
    let prov = mpcp_obs::provenance::Provenance::capture(&config_line(&args), seed);
    let events = mpcp_obs::drain();
    let snap = mpcp_obs::metrics::snapshot();
    mpcp_obs::metrics::reset();
    let mut notes = String::new();
    if let Some(path) = &trace_out {
        let p = std::path::Path::new(path);
        let io = if path.ends_with(".jsonl") {
            std::fs::write(p, mpcp_obs::export::events_jsonl(&events, Some(&prov)))
        } else {
            mpcp_obs::export::write_chrome_trace(p, &events, Some(&prov))
        };
        io.map_err(|e| format!("writing trace {path}: {e}"))?;
        notes.push_str(&format!("trace ({} events) written to {path}\n", events.len()));
    }
    if let Some(path) = &metrics_out {
        use std::io::Write as _;
        let block = mpcp_obs::export::metrics_jsonl(&snap, Some(&prov));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(block.as_bytes()))
            .map_err(|e| format!("writing metrics {path}: {e}"))?;
        notes.push_str(&format!("metrics appended to {path}\n"));
    }
    result.map(|out| format!("{out}{notes}"))
}
