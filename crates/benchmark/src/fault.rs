//! Deterministic fault injection for benchmark runs.
//!
//! Real benchmark campaigns lose cells: jobs crash, cells hit their time
//! budget without completing, whole node allocations disappear
//! mid-campaign, and congestion episodes inflate entire cells. A
//! [`FaultPlan`] reproduces those failure modes *deterministically*: each
//! grid cell's fate is a pure function of the plan seed and the cell
//! coordinates, drawn from a SplitMix64 stream **separate** from the
//! measurement-noise stream. A plan with all probabilities at zero and no
//! blackouts therefore leaves the generated dataset bit-identical to a
//! fault-free run.
//!
//! Failed attempts may be retried ([`RetryPolicy`]) with exponential
//! backoff; the backoff is charged against the cell's time budget, so a
//! retried cell never spends more benchmarking time than a clean one
//! (modulo the usual "always keep at least one observation" overshoot of
//! the ReproMPI loop). Timeouts are not retried — a timed-out attempt has
//! already consumed the whole budget.

use mpcp_simnet::SimTime;

use crate::noise::{NoiseModel, SplitMix64};
use crate::repro::{summarize, BenchConfig, Measurement};

/// A deterministic fault-injection plan for one benchmark campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Per-attempt probability that a cell measurement fails outright
    /// (job crash, MPI abort). Failed attempts are retryable.
    pub fail_prob: f64,
    /// Per-attempt probability that a cell hangs until its time budget
    /// expires. Timed-out cells are not retried (the budget is gone).
    pub timeout_prob: f64,
    /// Probability that an otherwise-successful cell is inflated by a
    /// heavy-tail congestion episode.
    pub outlier_prob: f64,
    /// Multiplier applied to an outlier cell's summary statistics.
    pub outlier_scale: f64,
    /// Node counts that are blacked out for the whole campaign: every
    /// attempt on these node counts fails.
    pub blackout_nodes: Vec<u32>,
    /// Seed for the fault stream (independent of the noise seed).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (bit-identical to no plan at all).
    pub fn none() -> FaultPlan {
        FaultPlan {
            fail_prob: 0.0,
            timeout_prob: 0.0,
            outlier_prob: 0.0,
            outlier_scale: 1.0,
            blackout_nodes: Vec::new(),
            seed: 0,
        }
    }

    /// A uniform failure plan: `fail_prob` chance per attempt, seeded.
    pub fn uniform(fail_prob: f64, seed: u64) -> FaultPlan {
        FaultPlan { fail_prob, seed, ..FaultPlan::none() }
    }

    /// Does this plan inject any fault at all?
    pub fn is_noop(&self) -> bool {
        self.fail_prob <= 0.0
            && self.timeout_prob <= 0.0
            && self.outlier_prob <= 0.0
            && self.blackout_nodes.is_empty()
    }

    /// Parse the CLI syntax: comma-separated `key=value` pairs.
    ///
    /// * `fail=0.3` — per-attempt failure probability;
    /// * `timeout=0.05` — per-attempt timeout probability;
    /// * `outlier=0.02x8` — outlier probability `x` scale factor;
    /// * `blackout=13+19` — `+`-separated node counts that are down;
    /// * `seed=7` — fault-stream seed.
    ///
    /// Example: `fail=0.3,timeout=0.05,outlier=0.02x8,blackout=13+19,seed=7`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan: expected key=value, got '{part}'"))?;
            let prob = |v: &str, key: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault plan: '{key}' wants a number, got '{v}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault plan: '{key}={v}' is not a probability in [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "fail" => plan.fail_prob = prob(value, key)?,
                "timeout" => plan.timeout_prob = prob(value, key)?,
                "outlier" => {
                    let (p, scale) = value.split_once('x').unwrap_or((value, "8"));
                    plan.outlier_prob = prob(p, key)?;
                    plan.outlier_scale = scale.parse().map_err(|_| {
                        format!("fault plan: outlier scale wants a number, got '{scale}'")
                    })?;
                    if plan.outlier_scale < 1.0 {
                        return Err(format!(
                            "fault plan: outlier scale {scale} must be >= 1 (it inflates runtimes)"
                        ));
                    }
                }
                "blackout" => {
                    for n in value.split('+').filter(|n| !n.is_empty()) {
                        let node: u32 = n.parse().map_err(|_| {
                            format!("fault plan: blackout wants '+'-separated node counts, got '{n}'")
                        })?;
                        plan.blackout_nodes.push(node);
                    }
                }
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault plan: seed wants an integer, got '{value}'"))?;
                }
                other => {
                    return Err(format!(
                        "fault plan: unknown key '{other}' (known: fail, timeout, outlier, blackout, seed)"
                    ))
                }
            }
        }
        if plan.fail_prob + plan.timeout_prob >= 1.0 {
            return Err(format!(
                "fault plan: fail ({}) + timeout ({}) must stay below 1",
                plan.fail_prob, plan.timeout_prob
            ));
        }
        Ok(plan)
    }

    /// Draw the fate of one measurement attempt.
    pub fn draw(&self, stream: &mut SplitMix64) -> CellFate {
        let u = stream.next_f64();
        if u < self.timeout_prob {
            return CellFate::TimedOut;
        }
        if u < self.timeout_prob + self.fail_prob {
            return CellFate::Failed;
        }
        if self.outlier_prob > 0.0 && stream.next_f64() < self.outlier_prob {
            return CellFate::Outlier;
        }
        CellFate::Ok
    }
}

/// Derive the fault stream for a grid cell. Deliberately salted
/// differently from [`crate::noise::cell_stream`], so fault draws never
/// perturb the measurement-noise sequence.
pub fn fault_stream(seed: u64, uid: u32, nodes: u32, ppn: u32, msize: u64) -> SplitMix64 {
    let mut h = seed ^ 0xF4_17_5E_ED_0B_AD_CE_11;
    for v in [uid as u64, nodes as u64, ppn as u64, msize] {
        h ^= v.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h = h.rotate_left(31).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    SplitMix64::new(h)
}

/// The fate of one measurement attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellFate {
    /// Clean measurement.
    Ok,
    /// Measurement completes but a congestion episode inflates it.
    Outlier,
    /// Attempt crashes (retryable).
    Failed,
    /// Attempt hangs until the budget expires (not retryable).
    TimedOut,
}

/// Bounded retry with exponential backoff, charged against the cell's
/// time budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failed one.
    pub max_retries: u32,
    /// Backoff before retry `k` (0-based): `backoff << k`.
    pub backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, backoff: SimTime::from_micros_f64(100.0) }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy { max_retries: 0, backoff: SimTime::ZERO }
    }

    /// Backoff charged before retrying after failed attempt `k` (0-based).
    pub fn backoff_for(&self, attempt: u32) -> SimTime {
        SimTime(self.backoff.picos().saturating_shl(attempt))
    }
}

/// `u64::checked_shl` with saturation — backoff growth must not wrap.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= 64 {
            return if self == 0 { 0 } else { u64::MAX };
        }
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// How one grid cell ended up after fault injection and retries.
#[derive(Clone, Copy, Debug)]
pub enum CellOutcome {
    /// A usable measurement (possibly after retries).
    Ok(Measurement),
    /// All attempts failed; no measurement.
    Failed,
    /// The attempt hung; the budget is consumed, no measurement.
    TimedOut,
}

/// One cell's fault-aware measurement result.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// Final outcome.
    pub outcome: CellOutcome,
    /// Attempts made (>= 1).
    pub attempts: u32,
    /// Simulated time charged to failed attempts (backoff); always
    /// `<= bench.budget`.
    pub retry_overhead: SimTime,
    /// Total simulated time this cell consumed, including overhead.
    pub consumed: SimTime,
}

/// Run the ReproMPI loop for one cell under a fault plan.
///
/// With no plan (or a no-op plan) this is exactly [`summarize`] — same
/// noise stream consumption, bit-identical records. Otherwise each
/// attempt draws a [`CellFate`] from the cell's fault stream:
///
/// * `Failed` charges the retry backoff against the budget and retries
///   (up to [`RetryPolicy::max_retries`] extra attempts); when the
///   backoff would exceed the remaining budget, the cell is abandoned.
/// * `TimedOut` consumes the whole remaining budget and is final.
/// * `Ok`/`Outlier` run the measurement loop on whatever budget is left
///   (at least one observation is always taken — see [`summarize`]).
///
/// Node counts listed in `blackout_nodes` fail every attempt.
#[allow(clippy::too_many_arguments)]
pub fn measure_cell(
    base: SimTime,
    bench: &BenchConfig,
    noise: &NoiseModel,
    stream: &mut SplitMix64,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    cell: (u32, u32, u32, u64),
) -> CellResult {
    let plan = match plan {
        Some(p) if !p.is_noop() => p,
        _ => {
            let m = summarize(base, bench, noise, stream);
            return CellResult {
                outcome: CellOutcome::Ok(m),
                attempts: 1,
                retry_overhead: SimTime::ZERO,
                consumed: m.consumed,
            };
        }
    };
    let (uid, nodes, ppn, msize) = cell;
    let mut fates = fault_stream(plan.seed, uid, nodes, ppn, msize);
    let blackout = plan.blackout_nodes.contains(&nodes);
    let mut overhead = SimTime::ZERO;
    let mut attempts = 0u32;
    while attempts <= retry.max_retries {
        let fate = if blackout { CellFate::Failed } else { plan.draw(&mut fates) };
        attempts += 1;
        match fate {
            CellFate::TimedOut => {
                mpcp_obs::counter_add!("bench.cells_timed_out", 1);
                return CellResult {
                    outcome: CellOutcome::TimedOut,
                    attempts,
                    retry_overhead: overhead,
                    consumed: bench.budget,
                };
            }
            CellFate::Failed => {
                mpcp_obs::counter_add!("bench.attempt_failures", 1);
                let backoff = retry.backoff_for(attempts - 1);
                // Charge the backoff only if it leaves budget to retry in;
                // overhead never exceeds the cell budget.
                if attempts > retry.max_retries
                    || overhead + backoff >= bench.budget
                {
                    return CellResult {
                        outcome: CellOutcome::Failed,
                        attempts,
                        retry_overhead: overhead,
                        consumed: overhead,
                    };
                }
                overhead += backoff;
                mpcp_obs::counter_add!("bench.retries", 1);
            }
            CellFate::Ok | CellFate::Outlier => {
                let sub = BenchConfig { budget: bench.budget.saturating_sub(overhead), ..*bench };
                let mut m = summarize(base, &sub, noise, stream);
                if fate == CellFate::Outlier {
                    mpcp_obs::counter_add!("bench.cells_outlier", 1);
                    m.median_secs *= plan.outlier_scale;
                    m.mean_secs *= plan.outlier_scale;
                    m.min_secs *= plan.outlier_scale;
                }
                m.consumed += overhead;
                return CellResult {
                    outcome: CellOutcome::Ok(m),
                    attempts,
                    retry_overhead: overhead,
                    consumed: m.consumed,
                };
            }
        }
    }
    unreachable!("loop always returns within max_retries + 1 attempts");
}

/// Aggregated fault statistics for a benchmark campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Cells that produced a usable measurement.
    pub cells_ok: usize,
    /// Cells lost to (unretried or retry-exhausted) failures.
    pub cells_failed: usize,
    /// Cells lost to timeouts.
    pub cells_timed_out: usize,
    /// Cells lost to simulation errors (counted, not fatal).
    pub sim_errors: usize,
    /// Total retry attempts across the campaign.
    pub retries: u64,
    /// Total simulated time charged to retry backoff.
    pub retry_time: SimTime,
}

impl FaultSummary {
    /// Total cells attempted.
    pub fn total(&self) -> usize {
        self.cells_ok + self.cells_failed + self.cells_timed_out + self.sim_errors
    }

    /// Fraction of cells that produced a measurement.
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        self.cells_ok as f64 / self.total() as f64
    }

    /// Fold another summary into this one.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.cells_ok += other.cells_ok;
        self.cells_failed += other.cells_failed;
        self.cells_timed_out += other.cells_timed_out;
        self.sim_errors += other.sim_errors;
        self.retries += other.retries;
        self.retry_time += other.retry_time;
    }

    /// Record one cell's result.
    pub fn absorb(&mut self, r: &CellResult) {
        match r.outcome {
            CellOutcome::Ok(_) => self.cells_ok += 1,
            CellOutcome::Failed => self.cells_failed += 1,
            CellOutcome::TimedOut => self.cells_timed_out += 1,
        }
        self.retries += (r.attempts - 1) as u64;
        self.retry_time += r.retry_overhead;
    }

    /// Human-readable one-liner for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} cells measured ({:.1}% coverage), {} failed, {} timed out, {} sim error(s), {} retry(ies)",
            self.cells_ok,
            self.total(),
            100.0 * self.coverage(),
            self.cells_failed,
            self.cells_timed_out,
            self.sim_errors,
            self.retries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> BenchConfig {
        BenchConfig::quick()
    }

    #[test]
    fn parse_full_syntax() {
        let p = FaultPlan::parse("fail=0.3,timeout=0.05,outlier=0.02x8,blackout=13+19,seed=7")
            .unwrap();
        assert_eq!(p.fail_prob, 0.3);
        assert_eq!(p.timeout_prob, 0.05);
        assert_eq!(p.outlier_prob, 0.02);
        assert_eq!(p.outlier_scale, 8.0);
        assert_eq!(p.blackout_nodes, vec![13, 19]);
        assert_eq!(p.seed, 7);
        assert!(!p.is_noop());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultPlan::parse("fail=1.5").is_err());
        assert!(FaultPlan::parse("fail").is_err());
        assert!(FaultPlan::parse("unknown=1").is_err());
        assert!(FaultPlan::parse("fail=0.6,timeout=0.5").is_err());
        assert!(FaultPlan::parse("outlier=0.1x0.5").is_err());
        assert!(FaultPlan::parse("blackout=x").is_err());
        // Empty string is the no-op plan.
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn noop_plan_is_bit_identical_to_no_plan() {
        let base = SimTime::from_micros_f64(50.0);
        let noise = NoiseModel::default();
        let cell = (3, 4, 2, 1024);
        let mut s1 = SplitMix64::new(99);
        let a = measure_cell(base, &bench(), &noise, &mut s1, None, &RetryPolicy::default(), cell);
        let mut s2 = SplitMix64::new(99);
        let plan = FaultPlan::none();
        let b = measure_cell(
            base,
            &bench(),
            &noise,
            &mut s2,
            Some(&plan),
            &RetryPolicy::default(),
            cell,
        );
        let (CellOutcome::Ok(ma), CellOutcome::Ok(mb)) = (a.outcome, b.outcome) else {
            panic!("both must measure");
        };
        assert_eq!(ma.median_secs.to_bits(), mb.median_secs.to_bits());
        assert_eq!(ma.reps, mb.reps);
        // And the noise streams advanced identically.
        assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn fates_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan { fail_prob: 0.3, ..FaultPlan::none() };
        let mut failed = 0;
        let n = 10_000;
        for i in 0..n {
            let mut s = fault_stream(plan.seed, i, 2, 1, 64);
            if plan.draw(&mut s) == CellFate::Failed {
                failed += 1;
            }
        }
        let rate = failed as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "failure rate {rate}");
        // Determinism: same cell, same fate.
        let mut a = fault_stream(7, 1, 2, 3, 4);
        let mut b = fault_stream(7, 1, 2, 3, 4);
        assert_eq!(plan.draw(&mut a), plan.draw(&mut b));
    }

    #[test]
    fn fault_stream_is_independent_of_noise_stream() {
        use crate::noise::cell_stream;
        let a = cell_stream(7, 1, 2, 3, 4).next_u64();
        let b = fault_stream(7, 1, 2, 3, 4).next_u64();
        assert_ne!(a, b, "fault and noise streams must be salted apart");
    }

    #[test]
    fn blackout_nodes_always_fail() {
        let plan = FaultPlan { blackout_nodes: vec![13], ..FaultPlan::none() };
        let noise = NoiseModel::default();
        for msize in [64u64, 4096, 262_144] {
            let mut s = SplitMix64::new(1);
            let r = measure_cell(
                SimTime::from_micros_f64(10.0),
                &bench(),
                &noise,
                &mut s,
                Some(&plan),
                &RetryPolicy::default(),
                (0, 13, 2, msize),
            );
            assert!(matches!(r.outcome, CellOutcome::Failed), "{r:?}");
            // Other node counts are untouched.
            let mut s = SplitMix64::new(1);
            let ok = measure_cell(
                SimTime::from_micros_f64(10.0),
                &bench(),
                &noise,
                &mut s,
                Some(&plan),
                &RetryPolicy::default(),
                (0, 14, 2, msize),
            );
            assert!(matches!(ok.outcome, CellOutcome::Ok(_)), "{ok:?}");
        }
    }

    #[test]
    fn retry_overhead_never_exceeds_budget() {
        let plan = FaultPlan { blackout_nodes: vec![2], ..FaultPlan::none() };
        let noise = NoiseModel::default();
        let cfg = bench();
        let retry = RetryPolicy { max_retries: 50, backoff: SimTime::from_micros_f64(500.0) };
        let mut s = SplitMix64::new(1);
        let r = measure_cell(
            SimTime::from_micros_f64(10.0),
            &cfg,
            &noise,
            &mut s,
            Some(&plan),
            &retry,
            (0, 2, 1, 64),
        );
        assert!(matches!(r.outcome, CellOutcome::Failed));
        assert!(r.retry_overhead <= cfg.budget, "{:?} > {:?}", r.retry_overhead, cfg.budget);
        assert!(r.attempts <= 51);
    }

    #[test]
    fn timed_out_cells_consume_the_whole_budget() {
        let plan = FaultPlan { timeout_prob: 1.0, ..FaultPlan::none() };
        let noise = NoiseModel::default();
        let cfg = bench();
        let mut s = SplitMix64::new(1);
        let r = measure_cell(
            SimTime::from_micros_f64(10.0),
            &cfg,
            &noise,
            &mut s,
            Some(&plan),
            &RetryPolicy::default(),
            (0, 2, 1, 64),
        );
        assert!(matches!(r.outcome, CellOutcome::TimedOut));
        assert_eq!(r.consumed, cfg.budget);
        assert_eq!(r.attempts, 1); // timeouts are final
    }

    #[test]
    fn outliers_inflate_the_measurement() {
        let plan =
            FaultPlan { outlier_prob: 1.0, outlier_scale: 8.0, seed: 3, ..FaultPlan::none() };
        let noise = NoiseModel::none();
        let base = SimTime::from_micros_f64(10.0);
        let mut s = SplitMix64::new(1);
        let r = measure_cell(
            base,
            &bench(),
            &noise,
            &mut s,
            Some(&plan),
            &RetryPolicy::default(),
            (0, 2, 1, 64),
        );
        let CellOutcome::Ok(m) = r.outcome else { panic!("{r:?}") };
        let expect = base.as_secs_f64() * 8.0;
        assert!((m.median_secs - expect).abs() / expect < 1e-12, "{}", m.median_secs);
    }

    #[test]
    fn summary_math() {
        let mut s = FaultSummary::default();
        s.absorb(&CellResult {
            outcome: CellOutcome::Failed,
            attempts: 3,
            retry_overhead: SimTime(200),
            consumed: SimTime(200),
        });
        let mut other = FaultSummary { cells_ok: 3, ..FaultSummary::default() };
        other.merge(&s);
        assert_eq!(other.total(), 4);
        assert_eq!(other.retries, 2);
        assert_eq!(other.retry_time, SimTime(200));
        assert!((other.coverage() - 0.75).abs() < 1e-12);
        assert!(other.summary().contains("75.0% coverage"));
        assert_eq!(FaultSummary::default().coverage(), 1.0);
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        let r = RetryPolicy { max_retries: 200, backoff: SimTime(1) };
        assert_eq!(r.backoff_for(0), SimTime(1));
        assert_eq!(r.backoff_for(1), SimTime(2));
        assert_eq!(r.backoff_for(100), SimTime(u64::MAX));
        let z = RetryPolicy { max_retries: 1, backoff: SimTime::ZERO };
        assert_eq!(z.backoff_for(100), SimTime::ZERO);
    }
}
