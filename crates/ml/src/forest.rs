//! Random-forest regression — the learner the paper's earlier work
//! (PMBS'18) used and the present paper moved away from; kept as an
//! ablation baseline.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::Dataset;
use crate::error::{validate, FitError};
use crate::tree::{GradTree, SortedColumns, TreeParams};

/// Forest hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestParams {
    /// Number of trees.
    pub trees: usize,
    /// Maximum depth per tree (deeper than boosting stumps; forests rely
    /// on low-bias trees).
    pub max_depth: usize,
    /// Features sampled per tree (random-subspace variant); `0` = all.
    pub features_per_tree: usize,
    /// Bootstrap seed (forests are the only randomized learner here; a
    /// fixed seed keeps the whole pipeline reproducible).
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { trees: 100, max_depth: 12, features_per_tree: 0, seed: 0x5EED }
    }
}

/// A fitted random forest.
#[derive(Debug)]
pub struct ForestModel {
    trees: Vec<GradTree>,
}

impl ForestModel {
    /// Fit `trees` bootstrap-sampled least-squares trees.
    ///
    /// Panics on degenerate datasets; see [`ForestModel::try_fit`].
    pub fn fit(data: &Dataset, params: &ForestParams) -> ForestModel {
        Self::try_fit(data, params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible fit: empty or non-finite data is a [`FitError`].
    pub fn try_fit(data: &Dataset, params: &ForestParams) -> Result<ForestModel, FitError> {
        validate("RandomForest", data, false)?;
        let n = data.len();
        let d = data.nfeat();
        let sorted = SortedColumns::new(data);
        // Least squares as gradient stats: g = -y, h = 1 (leaf = mean).
        let g: Vec<f64> = data.targets().iter().map(|y| -y).collect();
        let h = vec![1.0; n];
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: 1.0,
            lambda: 0.0,
            gamma: 0.0,
        };
        let nfeat_per_tree = if params.features_per_tree == 0 {
            d
        } else {
            params.features_per_tree.min(d)
        };
        let mut rng = StdRng::seed_from_u64(params.seed);
        let trees = (0..params.trees)
            .map(|_| {
                // Bootstrap: multinomial counts via n draws.
                let mut weight = vec![0u32; n];
                for _ in 0..n {
                    weight[rng.random_range(0..n)] += 1;
                }
                // Random feature subspace.
                let mut feats: Vec<usize> = (0..d).collect();
                for i in (1..feats.len()).rev() {
                    let j = rng.random_range(0..=i);
                    feats.swap(i, j);
                }
                feats.truncate(nfeat_per_tree);
                GradTree::fit(data, &sorted, &g, &h, &tree_params, &feats, Some(&weight))
            })
            .collect();
        Ok(ForestModel { trees })
    }

    /// Mean prediction over all trees.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

impl crate::persist::Persist for ForestModel {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        crate::persist::put_seq(w, &self.trees);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<ForestModel, crate::persist::CodecError> {
        let trees: Vec<GradTree> = crate::persist::get_seq(r)?;
        if trees.is_empty() {
            // `predict` divides by the tree count.
            return Err(crate::persist::CodecError::invalid("forest has no trees"));
        }
        Ok(ForestModel { trees })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    fn surface() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..25 {
            for j in 0..8 {
                let (x0, x1) = (i as f64, j as f64);
                d.push(&[x0, x1], 10.0 + x0 * x1 + x0);
            }
        }
        d
    }

    #[test]
    fn forest_fits_interaction_surface() {
        let d = surface();
        let m = ForestModel::fit(&d, &ForestParams { trees: 50, ..Default::default() });
        let preds: Vec<f64> = (0..d.len()).map(|i| m.predict(d.row(i))).collect();
        assert!(mape(d.targets(), &preds) < 0.1);
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn splits_between_values_near_the_f64_limit() {
        // The exact grower's cut between 1e308 and 1.7e308 must stay
        // finite, or both values route to the same leaf.
        let mut d = Dataset::new(1);
        for _ in 0..10 {
            d.push(&[1e308], 1.0);
            d.push(&[1.7e308], 100.0);
        }
        let m = ForestModel::fit(&d, &ForestParams { trees: 20, ..Default::default() });
        let (lo, hi) = (m.predict(&[1e308]), m.predict(&[1.7e308]));
        assert!((lo - 1.0).abs() < 1e-9 && (hi - 100.0).abs() < 1e-9, "{lo} {hi}");
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let d = surface();
        let a = ForestModel::fit(&d, &ForestParams::default());
        let b = ForestModel::fit(&d, &ForestParams::default());
        for i in (0..d.len()).step_by(17) {
            assert_eq!(a.predict(d.row(i)), b.predict(d.row(i)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let d = surface();
        let a = ForestModel::fit(&d, &ForestParams { trees: 10, seed: 1, ..Default::default() });
        let b = ForestModel::fit(&d, &ForestParams { trees: 10, seed: 2, ..Default::default() });
        let diff = (0..d.len()).any(|i| a.predict(d.row(i)) != b.predict(d.row(i)));
        assert!(diff);
    }

    #[test]
    fn feature_subspace_still_predicts() {
        let d = surface();
        let m = ForestModel::fit(&d, &ForestParams {
            trees: 30,
            features_per_tree: 1,
            ..Default::default()
        });
        let preds: Vec<f64> = (0..d.len()).map(|i| m.predict(d.row(i))).collect();
        // Single-feature trees cannot represent the x0·x1 interaction;
        // the fit is much coarser than the full forest but must stay
        // finite and in the right ballpark.
        assert!(preds.iter().all(|p| p.is_finite() && *p > 0.0));
        let full = ForestModel::fit(&d, &ForestParams { trees: 30, ..Default::default() });
        let full_preds: Vec<f64> = (0..d.len()).map(|i| full.predict(d.row(i))).collect();
        assert!(mape(d.targets(), &full_preds) < mape(d.targets(), &preds));
    }
}
