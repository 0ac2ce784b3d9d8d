//! Property-based tests for the benchmark harness: budget adherence,
//! reproducibility, and record serialization.

use proptest::prelude::*;

use mpcp_benchmark::fault::measure_cell;
use mpcp_benchmark::noise::{cell_stream, SplitMix64};
use mpcp_benchmark::repro::{summarize, BenchConfig};
use mpcp_benchmark::{CellOutcome, FaultPlan, FaultSummary, NoiseModel, RetryPolicy};
use mpcp_simnet::SimTime;

/// A strategy for arbitrary (but bounded) fault summaries.
fn arb_summary() -> impl Strategy<Value = FaultSummary> {
    (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000, 0u64..10_000, 0u64..(1 << 40)).prop_map(
        |(cells_ok, cells_failed, cells_timed_out, sim_errors, retries, picos)| FaultSummary {
            cells_ok,
            cells_failed,
            cells_timed_out,
            sim_errors,
            retries,
            retry_time: SimTime(picos),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn repetition_loop_respects_budget_and_cap(
        base_us in 0.1f64..1e6,
        budget_ms in 1.0f64..2000.0,
        max_reps in 1u32..1000,
        seed in any::<u64>(),
    ) {
        let config = BenchConfig {
            max_reps,
            budget: SimTime::from_secs_f64(budget_ms * 1e-3),
            sync_per_rep: SimTime::from_micros_f64(5.0),
        };
        let mut stream = SplitMix64::new(seed);
        let m = summarize(
            SimTime::from_micros_f64(base_us),
            &config,
            &NoiseModel::default(),
            &mut stream,
        );
        prop_assert!(m.reps >= 1);
        prop_assert!(m.reps <= max_reps.max(1));
        // Either under budget, or a single mandatory repetition.
        prop_assert!(m.consumed <= config.budget || m.reps == 1);
        prop_assert!(m.min_secs <= m.median_secs);
        prop_assert!(m.median_secs > 0.0);
    }

    #[test]
    fn measurements_are_seed_reproducible(
        base_us in 0.1f64..1e4,
        seed in any::<u64>(),
    ) {
        let config = BenchConfig::quick();
        let noise = NoiseModel::default();
        let run = || {
            let mut stream = SplitMix64::new(seed);
            summarize(SimTime::from_micros_f64(base_us), &config, &noise, &mut stream)
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.median_secs, b.median_secs);
        prop_assert_eq!(a.reps, b.reps);
        prop_assert_eq!(a.consumed, b.consumed);
    }

    #[test]
    fn median_is_close_to_base_for_mild_noise(
        base_us in 1.0f64..1e5,
        seed in any::<u64>(),
    ) {
        let config = BenchConfig { max_reps: 200, ..BenchConfig::paper_default("Hydra") };
        let noise = NoiseModel { sigma: 0.02, outlier_prob: 0.0, outlier_scale: 1.0 };
        let mut stream = SplitMix64::new(seed);
        let m = summarize(SimTime::from_micros_f64(base_us), &config, &noise, &mut stream);
        if m.reps >= 50 {
            let rel = (m.median_secs - base_us * 1e-6).abs() / (base_us * 1e-6);
            prop_assert!(rel < 0.05, "relative median error {rel}");
        }
    }

    #[test]
    fn retry_accounting_never_exceeds_cell_budget(
        base_us in 0.1f64..1e5,
        budget_ms in 0.1f64..100.0,
        fail in 0.0f64..0.9,
        timeout in 0.0f64..0.09,
        max_retries in 0u32..8,
        backoff_us in 0.0f64..10_000.0,
        seed in any::<u64>(),
        cell in (0u32..100, 1u32..50, 1u32..50, 1u64..1_000_000),
    ) {
        // The fault-injection invariant: retry backoff is charged
        // against the cell budget and can never exceed it, and the
        // cell's total consumed time only exceeds the budget via the
        // one guaranteed observation of the ReproMPI loop.
        let config = BenchConfig {
            max_reps: 50,
            budget: SimTime::from_secs_f64(budget_ms * 1e-3),
            sync_per_rep: SimTime::from_micros_f64(5.0),
        };
        let plan = FaultPlan {
            fail_prob: fail * (1.0 - timeout),
            timeout_prob: timeout,
            seed,
            ..FaultPlan::none()
        };
        let retry = RetryPolicy {
            max_retries,
            backoff: SimTime::from_micros_f64(backoff_us),
        };
        let mut stream = cell_stream(seed, cell.0, cell.1, cell.2, cell.3);
        let r = measure_cell(
            SimTime::from_micros_f64(base_us),
            &config,
            &NoiseModel::default(),
            &mut stream,
            Some(&plan),
            &retry,
            cell,
        );
        prop_assert!(r.retry_overhead <= config.budget,
            "retry overhead {:?} exceeds budget {:?}", r.retry_overhead, config.budget);
        prop_assert!(r.attempts >= 1 && r.attempts <= max_retries + 1);
        match r.outcome {
            CellOutcome::Ok(m) => {
                prop_assert!(m.reps >= 1);
                prop_assert!(m.consumed == r.consumed);
                // Over budget only when the guaranteed first observation
                // alone is over (one measured rep).
                prop_assert!(r.consumed <= config.budget || m.reps == 1,
                    "consumed {:?} over budget {:?} with {} reps",
                    r.consumed, config.budget, m.reps);
            }
            CellOutcome::Failed => prop_assert!(r.consumed <= config.budget),
            CellOutcome::TimedOut => prop_assert!(r.consumed == config.budget),
        }
    }

    #[test]
    fn fault_fates_are_independent_of_noise_draws(
        base_us in 0.1f64..1e3,
        seed in any::<u64>(),
        cell in (0u32..100, 1u32..50, 1u32..50, 1u64..1_000_000),
    ) {
        // A no-op plan consumes zero noise-stream draws beyond what the
        // plain loop uses: records stay bit-identical.
        let config = BenchConfig::quick();
        let noise = NoiseModel::default();
        let mut s1 = cell_stream(seed, cell.0, cell.1, cell.2, cell.3);
        let plain = summarize(SimTime::from_micros_f64(base_us), &config, &noise, &mut s1);
        let mut s2 = cell_stream(seed, cell.0, cell.1, cell.2, cell.3);
        let plan = FaultPlan::none();
        let r = measure_cell(
            SimTime::from_micros_f64(base_us),
            &config,
            &noise,
            &mut s2,
            Some(&plan),
            &RetryPolicy::default(),
            cell,
        );
        let CellOutcome::Ok(m) = r.outcome else { panic!("no-op plan must measure") };
        prop_assert_eq!(m.median_secs.to_bits(), plain.median_secs.to_bits());
        prop_assert_eq!(m.reps, plain.reps);
        prop_assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn fault_summary_merge_is_commutative(
        a in arb_summary(),
        b in arb_summary(),
    ) {
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn fault_summary_merge_is_associative_with_identity(
        a in arb_summary(),
        b in arb_summary(),
        c in arb_summary(),
    ) {
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
        // default is the identity element
        let mut with_id = a;
        with_id.merge(&FaultSummary::default());
        prop_assert_eq!(with_id, a);
    }

    #[test]
    fn merge_of_shards_equals_sequential_concat(
        base_us in 0.1f64..1e3,
        fail in 0.0f64..0.6,
        timeout in 0.0f64..0.2,
        seed in any::<u64>(),
        cells in proptest::collection::vec(
            (0u32..100, 1u32..50, 1u32..50, 1u64..1_000_000), 1..24),
        split_a in 0usize..24,
        split_b in 0usize..24,
    ) {
        // Summarizing shards independently and merging must equal
        // absorbing every cell into one summary, for ANY partition —
        // the property the work-stealing campaign runner relies on when
        // it folds per-chunk summaries in commit order.
        let config = BenchConfig::quick();
        let noise = NoiseModel::default();
        let plan = FaultPlan {
            fail_prob: fail * (1.0 - timeout),
            timeout_prob: timeout,
            seed,
            ..FaultPlan::none()
        };
        let retry = RetryPolicy::default();
        let results: Vec<_> = cells
            .iter()
            .map(|&cell| {
                let mut stream = cell_stream(seed, cell.0, cell.1, cell.2, cell.3);
                measure_cell(
                    SimTime::from_micros_f64(base_us),
                    &config,
                    &noise,
                    &mut stream,
                    Some(&plan),
                    &retry,
                    cell,
                )
            })
            .collect();

        let mut whole = FaultSummary::default();
        for r in &results {
            whole.absorb(r);
        }

        let (mut i, mut j) = (split_a.min(results.len()), split_b.min(results.len()));
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let mut merged = FaultSummary::default();
        for shard in [&results[..i], &results[i..j], &results[j..]] {
            let mut s = FaultSummary::default();
            for r in shard {
                s.absorb(r);
            }
            merged.merge(&s);
        }
        prop_assert_eq!(merged, whole);
        prop_assert_eq!(whole.total(), results.len());
    }

    #[test]
    fn cell_streams_are_order_free(
        seed in any::<u64>(),
        a in (0u32..100, 1u32..50, 1u32..50, 1u64..1_000_000),
        b in (0u32..100, 1u32..50, 1u32..50, 1u64..1_000_000),
    ) {
        // Stream for cell `a` is identical whether or not cell `b` was
        // generated first (grid-order independence).
        let direct = cell_stream(seed, a.0, a.1, a.2, a.3).next_u64();
        let _interleaved = cell_stream(seed, b.0, b.1, b.2, b.3).next_u64();
        let after = cell_stream(seed, a.0, a.1, a.2, a.3).next_u64();
        prop_assert_eq!(direct, after);
    }
}
