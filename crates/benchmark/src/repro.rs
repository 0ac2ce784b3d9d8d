//! The ReproMPI-style measurement loop: bounded repetitions under a hard
//! time budget, with summary statistics and consumed-time accounting.

use mpcp_simnet::{NetworkModel, Program, SimError, SimTime, Simulator, Topology};

use crate::noise::{NoiseModel, SplitMix64};

/// Benchmark-loop configuration (the paper: ≤ 500 reps or ≤ 0.5 s /
/// 1 s per cell, whichever first).
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Maximum repetitions per cell.
    pub max_reps: u32,
    /// Hard per-cell time budget.
    pub budget: SimTime,
    /// Fixed per-repetition overhead (window-based process
    /// synchronization between repetitions).
    pub sync_per_rep: SimTime,
}

impl BenchConfig {
    /// The paper's setting for a machine: 0.5 s on SuperMUC-NG, 1 s on
    /// the TU Wien clusters, 500 reps max.
    pub fn paper_default(machine_name: &str) -> BenchConfig {
        let budget = if machine_name.eq_ignore_ascii_case("SuperMUC-NG") {
            SimTime::from_secs_f64(0.5)
        } else {
            SimTime::from_secs_f64(1.0)
        };
        BenchConfig { max_reps: 500, budget, sync_per_rep: SimTime::from_micros_f64(5.0) }
    }

    /// A cheap configuration for tests.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            max_reps: 20,
            budget: SimTime::from_secs_f64(0.05),
            sync_per_rep: SimTime::from_micros_f64(5.0),
        }
    }
}

/// Summary of one measured cell.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Noise-free simulated running time (ground truth).
    pub base: SimTime,
    /// Median of the noisy repetitions (what the paper's datasets hold).
    pub median_secs: f64,
    /// Mean of the repetitions.
    pub mean_secs: f64,
    /// Fastest repetition.
    pub min_secs: f64,
    /// Repetitions actually executed.
    pub reps: u32,
    /// Total simulated wall time spent benchmarking this cell
    /// (observations + synchronization overhead).
    pub consumed: SimTime,
}

/// Simulate one collective execution and wrap it in the ReproMPI loop.
///
/// The deterministic simulation runs once; the repetition loop draws
/// noisy observations around it, stopping at `max_reps` or when the time
/// budget is exhausted — mirroring how ReproMPI bounds benchmarking time
/// without re-running the (deterministic) collective.
pub fn measure(
    model: &NetworkModel,
    topo: &Topology,
    programs: &[Program],
    config: &BenchConfig,
    noise: &NoiseModel,
    stream: &mut SplitMix64,
) -> Result<Measurement, SimError> {
    let base = Simulator::new(model, topo).run(programs)?.makespan();
    Ok(summarize(base, config, noise, stream))
}

/// Median of an already-sorted, non-empty slice: middle element for odd
/// counts, arithmetic mean of the two middle elements for even counts.
fn median_of_sorted(sorted: &[f64]) -> f64 {
    debug_assert!(!sorted.is_empty(), "median of zero observations");
    if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
    }
}

/// The repetition loop around a known base time (exposed separately so
/// dataset generation can reuse one simulation per cell).
///
/// # Invariant: at least one observation
///
/// The loop **always records at least one observation**, even for
/// degenerate configurations — `max_reps == 0` is clamped to 1, and a
/// budget smaller than a single repetition (`budget < sync_per_rep`, or
/// even `budget == 0`) still admits the first observation because the
/// budget check only applies from the second repetition on. Every
/// [`Measurement`] therefore has `reps >= 1` and finite summary
/// statistics; `consumed` may exceed `budget` only by that single
/// guaranteed observation.
pub fn summarize(
    base: SimTime,
    config: &BenchConfig,
    noise: &NoiseModel,
    stream: &mut SplitMix64,
) -> Measurement {
    let mut obs: Vec<f64> = Vec::new();
    let mut consumed = SimTime::ZERO;
    let base_secs = base.as_secs_f64();
    while (obs.len() as u32) < config.max_reps.max(1) {
        let o = noise.observe(base_secs, stream);
        let cost = SimTime::from_secs_f64(o) + config.sync_per_rep;
        if !obs.is_empty() && consumed + cost > config.budget {
            break; // budget exhausted; keep at least one observation
        }
        consumed += cost;
        obs.push(o);
    }
    let mut sorted = obs.clone();
    // total_cmp: a NaN observation (impossible noise, corrupt input)
    // must order deterministically instead of panicking mid-benchmark.
    sorted.sort_by(f64::total_cmp);
    let median = median_of_sorted(&sorted);
    mpcp_obs::counter_add!("bench.cells", 1);
    mpcp_obs::counter_add!("bench.reps", obs.len() as u64);
    mpcp_obs::counter_add!("bench.consumed_ns", consumed.picos() / 1000);
    mpcp_obs::hist_record!("bench.cell.reps", obs.len() as u64);
    Measurement {
        base,
        median_secs: median,
        mean_secs: obs.iter().sum::<f64>() / obs.len() as f64,
        min_secs: sorted[0],
        reps: obs.len() as u32,
        consumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_simnet::{Instr, Machine};

    #[test]
    fn small_cells_hit_max_reps() {
        // A 10 us operation measured with a 1 s budget: 500 reps fit.
        let config = BenchConfig::paper_default("Hydra");
        let mut stream = SplitMix64::new(1);
        let m = summarize(
            SimTime::from_micros_f64(10.0),
            &config,
            &NoiseModel::default(),
            &mut stream,
        );
        assert_eq!(m.reps, 500);
        assert!(m.consumed < config.budget);
    }

    #[test]
    fn large_cells_hit_the_budget() {
        // A 10 ms operation: 1 s budget allows ~100 reps, not 500.
        let config = BenchConfig::paper_default("Hydra");
        let mut stream = SplitMix64::new(2);
        let m = summarize(
            SimTime::from_secs_f64(0.01),
            &config,
            &NoiseModel::default(),
            &mut stream,
        );
        assert!(m.reps < 500, "reps {}", m.reps);
        assert!(m.reps > 50);
        assert!(m.consumed <= config.budget);
    }

    #[test]
    fn enormous_cells_still_get_one_rep() {
        let config = BenchConfig::paper_default("SuperMUC-NG");
        let mut stream = SplitMix64::new(3);
        let m = summarize(SimTime::from_secs_f64(30.0), &config, &NoiseModel::default(), &mut stream);
        assert_eq!(m.reps, 1);
    }

    #[test]
    fn median_tracks_base_under_noise() {
        let config = BenchConfig::paper_default("Hydra");
        let mut stream = SplitMix64::new(4);
        let base = SimTime::from_micros_f64(100.0);
        let m = summarize(base, &config, &NoiseModel::default(), &mut stream);
        let rel = (m.median_secs - base.as_secs_f64()).abs() / base.as_secs_f64();
        assert!(rel < 0.02, "median off by {rel}");
        assert!(m.min_secs <= m.median_secs);
        assert!(m.median_secs <= m.mean_secs * 1.5);
    }

    #[test]
    fn measure_end_to_end() {
        let machine = Machine::hydra();
        let topo = Topology::new(2, 1);
        let programs = vec![
            Program::from_instrs(vec![Instr::send(1, 1024, 0)]),
            Program::from_instrs(vec![Instr::recv(0, 1024, 0)]),
        ];
        let mut stream = SplitMix64::new(5);
        let m = measure(
            &machine.model,
            &topo,
            &programs,
            &BenchConfig::quick(),
            &NoiseModel::default(),
            &mut stream,
        )
        .unwrap();
        assert!(m.base.as_secs_f64() > 0.0);
        assert!(m.reps >= 1);
    }

    #[test]
    fn zero_max_reps_still_yields_one_observation() {
        // Degenerate config guard: max_reps == 0 is clamped to 1.
        let config = BenchConfig { max_reps: 0, ..BenchConfig::quick() };
        let mut stream = SplitMix64::new(6);
        let m = summarize(SimTime::from_micros_f64(10.0), &config, &NoiseModel::default(), &mut stream);
        assert_eq!(m.reps, 1);
        assert!(m.median_secs.is_finite() && m.median_secs > 0.0);
    }

    #[test]
    fn budget_below_sync_overhead_still_yields_one_observation() {
        // budget < sync_per_rep: the first observation is always taken;
        // consumed may exceed the budget by exactly that one rep.
        let config = BenchConfig {
            max_reps: 500,
            budget: SimTime(1), // 1 ps
            sync_per_rep: SimTime::from_micros_f64(5.0),
        };
        let mut stream = SplitMix64::new(7);
        let m = summarize(SimTime::from_micros_f64(10.0), &config, &NoiseModel::default(), &mut stream);
        assert_eq!(m.reps, 1);
        assert!(m.consumed > config.budget);
        assert!(m.median_secs.is_finite());

        let zero = BenchConfig { budget: SimTime::ZERO, ..config };
        let mut stream = SplitMix64::new(8);
        let m = summarize(SimTime::from_micros_f64(10.0), &zero, &NoiseModel::default(), &mut stream);
        assert_eq!(m.reps, 1);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        // Odd: middle element. Even: mean of the two middle elements.
        assert_eq!(median_of_sorted(&[1.0, 2.0, 5.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 4.0, 10.0]), 3.0);
        assert_eq!(median_of_sorted(&[7.0]), 7.0);
        assert_eq!(median_of_sorted(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn even_rep_medians_match_by_construction() {
        // An even-rep run's median must equal the mean of the two middle
        // sorted observations (regression check on the median math).
        let config = BenchConfig { max_reps: 4, ..BenchConfig::quick() };
        let noise = NoiseModel::default();
        let base = SimTime::from_micros_f64(10.0);
        let mut s1 = SplitMix64::new(12);
        let m = summarize(base, &config, &noise, &mut s1);
        assert_eq!(m.reps, 4);
        let mut s2 = SplitMix64::new(12);
        let mut obs: Vec<f64> = (0..4).map(|_| noise.observe(base.as_secs_f64(), &mut s2)).collect();
        obs.sort_by(f64::total_cmp);
        assert_eq!(m.median_secs, 0.5 * (obs[1] + obs[2]));
    }

    #[test]
    fn supermuc_budget_is_half_a_second() {
        assert_eq!(BenchConfig::paper_default("SuperMUC-NG").budget, SimTime::from_secs_f64(0.5));
        assert_eq!(BenchConfig::paper_default("Hydra").budget, SimTime::from_secs_f64(1.0));
    }
}
