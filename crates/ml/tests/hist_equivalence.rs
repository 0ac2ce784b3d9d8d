//! Property tests pinning the histogram split kernel to the exact
//! sorted-column reference, and the batched predictors to the scalar
//! ones.
//!
//! When every feature has at most `max_bins` distinct values, binning is
//! lossless (one bin per distinct value, thresholds at midpoints), so
//! `fit_hist` must reproduce the exact kernel's trees: same candidate
//! splits, same gains, same training-row partitions and leaf values.
//! The datasets generated here stay under that budget, so equivalence
//! is asserted to 1e-9 — not approximately, structurally.

use proptest::prelude::*;

use mpcp_ml::gbt::{GbtModel, GbtParams};
use mpcp_ml::hist::{fit_hist, BinnedDataset};
use mpcp_ml::tree::{GradTree, SortedColumns, TreeParams};
use mpcp_ml::Dataset;

fn dataset_2d(rows: &[(f64, f64, f64)]) -> Dataset {
    let mut d = Dataset::new(2);
    for &(a, b, y) in rows {
        d.push(&[a, b], y);
    }
    d
}

/// Gradient pairs with strictly positive hessians, as every objective
/// in `gbt` produces.
fn grad_pairs(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(((-5.0f64..5.0), (0.01f64..5.0)), n..n + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Core tentpole guarantee: with a full bin budget, one histogram
    /// tree equals one exact tree — same structure, same leaf values on
    /// every training row, and `row_pred` is exactly the tree's output.
    #[test]
    fn hist_tree_matches_exact_tree(
        rows in prop::collection::vec(
            ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..100.0)), 4..60),
        seeds in (0u64..1000),
        max_depth in 1usize..7,
        gamma in prop::sample::select(vec![0.0f64, 0.05, 0.5]),
        min_child_weight in prop::sample::select(vec![0.0f64, 1.0, 3.0]),
    ) {
        let d = dataset_2d(&rows);
        // Pseudo-random but deterministic gradient stats derived from
        // the targets, so g/h vary with the generated rows.
        let g: Vec<f64> = rows.iter().enumerate()
            .map(|(i, r)| (r.2 * (1.3 + (i as f64 + seeds as f64).sin())).fract() * 4.0 - 2.0)
            .collect();
        let h: Vec<f64> = rows.iter().enumerate()
            .map(|(i, r)| 0.05 + (r.2 + i as f64).cos().abs())
            .collect();
        let params = TreeParams { max_depth, min_child_weight, lambda: 1.0, gamma };
        let features = [0usize, 1];

        let sorted = SortedColumns::new(&d);
        let exact = GradTree::fit(&d, &sorted, &g, &h, &params, &features, None);

        let binned = BinnedDataset::from_dataset(&d, BinnedDataset::MAX_BINS);
        let (hist, row_leaf) = fit_hist(&binned, &g, &h, &params, &features);

        prop_assert_eq!(exact.node_count(), hist.node_count());
        for (i, &leaf) in row_leaf.iter().enumerate() {
            let pe = exact.predict(d.row(i));
            let ph = hist.predict(d.row(i));
            prop_assert!((pe - ph).abs() <= 1e-9, "row {i}: exact {pe} vs hist {ph}");
            prop_assert!(hist.value_of(leaf) == ph,
                "row {i}: leaf id {leaf} vs traversal {ph}");
        }
    }

    /// The equivalence survives boosting: the (histogram) booster
    /// reproduces exact-greedy Newton boosting round for round. The
    /// exact side is a test-local loop over the exact grower with the
    /// booster's defaults: Tweedie p = 1.5 gradients, η = 0.3, log link.
    #[test]
    fn hist_boosting_matches_exact_boosting(
        rows in prop::collection::vec(
            ((-50.0f64..50.0), (0.0f64..10.0), (0.5f64..500.0)), 5..40),
        rounds in 1usize..25,
    ) {
        let d = dataset_2d(&rows);
        let params = GbtParams { rounds, ..Default::default() };
        let hist = GbtModel::fit(&d, &params);
        let y = d.targets();
        let sorted = SortedColumns::new(&d);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: params.min_child_weight,
            lambda: params.lambda,
            gamma: params.gamma,
        };
        let base = (y.iter().sum::<f64>() / y.len() as f64).ln();
        let mut score = vec![base; d.len()];
        for _ in 0..rounds {
            // Tweedie p = 1.5 on the raw score s: g = -y·e^{-s/2} + e^{s/2},
            // h = ½·y·e^{-s/2} + ½·e^{s/2}.
            let (g, h): (Vec<f64>, Vec<f64>) = (0..d.len())
                .map(|i| {
                    let (a, b) = (y[i] * (-0.5 * score[i]).exp(), (0.5 * score[i]).exp());
                    (b - a, 0.5 * (a + b))
                })
                .unzip();
            let tree = GradTree::fit(&d, &sorted, &g, &h, &tree_params, &[0, 1], None);
            for (i, s) in score.iter_mut().enumerate() {
                *s += params.eta * tree.predict(d.row(i));
            }
        }
        for (i, s) in score.iter().enumerate() {
            let pe = s.exp();
            let ph = hist.predict(d.row(i));
            // Leaf values agree to ~1e-9 per round; on the response
            // scale (after exp) allow a matching relative slack.
            prop_assert!((pe - ph).abs() <= 1e-7 * pe.abs().max(1.0),
                "row {i}: exact {pe} vs hist {ph}");
        }
    }

    /// With a *reduced* bin budget the trees may legitimately differ
    /// from exact, but the kernel must stay well-formed: finite leaf
    /// values and `row_pred` consistent with tree traversal.
    #[test]
    fn coarse_binning_stays_consistent(
        rows in prop::collection::vec(
            ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..100.0)), 8..80),
        max_bins in 2usize..16,
        grads in grad_pairs(80),
    ) {
        let d = dataset_2d(&rows);
        let g: Vec<f64> = grads.iter().take(d.len()).map(|p| p.0).collect();
        let h: Vec<f64> = grads.iter().take(d.len()).map(|p| p.1).collect();
        let params = TreeParams {
            max_depth: 6, min_child_weight: 1.0, lambda: 1.0, gamma: 0.0,
        };
        let binned = BinnedDataset::from_dataset(&d, max_bins);
        let (tree, row_leaf) = fit_hist(&binned, &g, &h, &params, &[0, 1]);
        for (i, &leaf) in row_leaf.iter().enumerate() {
            let p = tree.predict(d.row(i));
            prop_assert!(p.is_finite());
            prop_assert!(tree.value_of(leaf) == p);
        }
    }

    /// Batched prediction is the scalar path, vectorized — exact
    /// elementwise agreement, not tolerance-based.
    #[test]
    fn predict_batch_matches_scalar_predict(
        rows in prop::collection::vec(
            ((-50.0f64..50.0), (0.0f64..10.0), (0.5f64..500.0)), 5..40),
        queries in prop::collection::vec(((-60.0f64..60.0), (-1.0f64..12.0)), 1..50),
        rounds in 1usize..30,
    ) {
        let d = dataset_2d(&rows);
        let model = GbtModel::fit(&d, &GbtParams { rounds, ..Default::default() });
        let mut xs = Vec::with_capacity(queries.len() * 2);
        for &(a, b) in &queries {
            xs.extend_from_slice(&[a, b]);
        }
        let batch = model.predict_batch(&xs, 2);
        prop_assert_eq!(batch.len(), queries.len());
        for (i, &(a, b)) in queries.iter().enumerate() {
            let scalar = model.predict(&[a, b]);
            prop_assert!(
                batch[i] == scalar,
                "row {i}: batch {} vs scalar {scalar}", batch[i]
            );
        }
    }
}
