//! Unified learner/model façade used by the selection framework.


use crate::dataset::Dataset;
use crate::error::FitError;
use crate::forest::{ForestModel, ForestParams};
use crate::gam::{GamModel, GamParams};
use crate::gbt::{GbtModel, GbtParams};
use crate::knn::{KnnModel, KnnParams};
use crate::linear::{LinearModel, LinearParams};

/// A learner configuration: everything needed to fit a [`Model`].
///
/// The three paper learners are [`Learner::knn`], [`Learner::gam`] and
/// [`Learner::xgboost`]; [`Learner::forest`] and [`Learner::linear`] are
/// the rejected baselines.
#[derive(Clone, Copy, Debug)]
pub enum Learner {
    /// K-nearest neighbours.
    Knn(KnnParams),
    /// Generalized additive model.
    Gam(GamParams),
    /// Gradient-boosted trees (XGBoost-style).
    Xgb(GbtParams),
    /// Random forest (baseline).
    Forest(ForestParams),
    /// Ridge linear regression (baseline).
    Linear(LinearParams),
}

impl Learner {
    /// The paper's KNN setup (K = 5, scaled inputs).
    pub fn knn() -> Learner {
        Learner::Knn(KnnParams::default())
    }

    /// The paper's GAM setup (Gamma family, log link).
    pub fn gam() -> Learner {
        Learner::Gam(GamParams::default())
    }

    /// The paper's XGBoost setup (Tweedie objective, 200 rounds).
    pub fn xgboost() -> Learner {
        Learner::Xgb(GbtParams::default())
    }

    /// Random-forest baseline.
    pub fn forest() -> Learner {
        Learner::Forest(ForestParams::default())
    }

    /// Linear baseline.
    pub fn linear() -> Learner {
        Learner::Linear(LinearParams::default())
    }

    /// The three learners evaluated in the paper, in Table IV order.
    pub fn paper_learners() -> Vec<(&'static str, Learner)> {
        vec![
            ("KNN", Learner::knn()),
            ("GAM", Learner::gam()),
            ("XGBoost", Learner::xgboost()),
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Learner::Knn(_) => "KNN",
            Learner::Gam(_) => "GAM",
            Learner::Xgb(_) => "XGBoost",
            Learner::Forest(_) => "RandomForest",
            Learner::Linear(_) => "Linear",
        }
    }

    /// Fit on a dataset. Panics on degenerate inputs (empty dataset,
    /// non-finite values, non-positive targets for positive-target
    /// objectives); use [`Learner::try_fit`] on partial grids.
    pub fn fit(&self, data: &Dataset) -> Model {
        self.try_fit(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible fit: degenerate inputs are a typed [`FitError`] the
    /// selection layer maps to "no model for this configuration".
    pub fn try_fit(&self, data: &Dataset) -> Result<Model, FitError> {
        Ok(match self {
            Learner::Knn(p) => Model::Knn(KnnModel::try_fit(data, p)?),
            Learner::Gam(p) => Model::Gam(GamModel::try_fit(data, p)?),
            Learner::Xgb(p) => Model::Xgb(GbtModel::try_fit(data, p)?),
            Learner::Forest(p) => Model::Forest(ForestModel::try_fit(data, p)?),
            Learner::Linear(p) => Model::Linear(LinearModel::try_fit(data, p)?),
        })
    }
}

/// A fitted regression model.
#[derive(Debug)]
pub enum Model {
    /// Fitted KNN.
    Knn(KnnModel),
    /// Fitted GAM.
    Gam(GamModel),
    /// Fitted boosted ensemble.
    Xgb(GbtModel),
    /// Fitted forest.
    Forest(ForestModel),
    /// Fitted linear model.
    Linear(LinearModel),
}

impl Model {
    /// Predict the response for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Model::Knn(m) => m.predict(x),
            Model::Gam(m) => m.predict(x),
            Model::Xgb(m) => m.predict(x),
            Model::Forest(m) => m.predict(x),
            Model::Linear(m) => m.predict(x),
        }
    }

    /// Predict responses for a row-major block of feature vectors
    /// (`xs.len()` must be a multiple of `nfeat`).
    ///
    /// Boosted ensembles use their flattened-tree batch kernel; the
    /// other learners fall back to per-row scalar prediction, so the
    /// result always agrees elementwise with [`Model::predict`].
    pub fn predict_batch(&self, xs: &[f64], nfeat: usize) -> Vec<f64> {
        assert!(nfeat > 0, "nfeat must be positive");
        assert_eq!(xs.len() % nfeat, 0, "row-major shape mismatch");
        let mut out = vec![0.0; xs.len() / nfeat];
        self.predict_batch_into(xs, nfeat, &mut out);
        out
    }

    /// [`Model::predict_batch`] into a caller-owned buffer (overwritten,
    /// not accumulated), so a fused multi-model argmin can reuse one
    /// scratch buffer instead of materializing a prediction vector per
    /// model. `out.len()` must equal the row count.
    pub fn predict_batch_into(&self, xs: &[f64], nfeat: usize, out: &mut [f64]) {
        assert!(nfeat > 0, "nfeat must be positive");
        assert_eq!(xs.len(), out.len() * nfeat, "row-major shape mismatch");
        match self {
            Model::Xgb(m) => m.predict_batch_into(xs, nfeat, out),
            _ => {
                for (row, o) in xs.chunks_exact(nfeat).zip(out.iter_mut()) {
                    *o = self.predict(row);
                }
            }
        }
    }
}

/// Map a learner display name back to its `&'static str` canonical
/// form (persistence stores names as plain strings; the in-memory types
/// keep `&'static str`).
pub fn learner_name_static(name: &str) -> Option<&'static str> {
    match name {
        "KNN" => Some("KNN"),
        "GAM" => Some("GAM"),
        "XGBoost" => Some("XGBoost"),
        "RandomForest" => Some("RandomForest"),
        "Linear" => Some("Linear"),
        _ => None,
    }
}

impl crate::persist::Persist for Model {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        match self {
            Model::Knn(m) => {
                w.put_u8(0);
                m.encode(w);
            }
            Model::Gam(m) => {
                w.put_u8(1);
                m.encode(w);
            }
            Model::Xgb(m) => {
                w.put_u8(2);
                m.encode(w);
            }
            Model::Forest(m) => {
                w.put_u8(3);
                m.encode(w);
            }
            Model::Linear(m) => {
                w.put_u8(4);
                m.encode(w);
            }
        }
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<Model, crate::persist::CodecError> {
        Ok(match r.get_u8()? {
            0 => Model::Knn(crate::persist::Persist::decode(r)?),
            1 => Model::Gam(crate::persist::Persist::decode(r)?),
            2 => Model::Xgb(crate::persist::Persist::decode(r)?),
            3 => Model::Forest(crate::persist::Persist::decode(r)?),
            4 => Model::Linear(crate::persist::Persist::decode(r)?),
            b => return Err(crate::persist::CodecError::invalid(format!("model tag {b}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    fn runtime_like() -> Dataset {
        let mut d = Dataset::new(3);
        for mi in 0..12 {
            let m = (1u64 << mi) as f64;
            for p in [4.0f64, 8.0, 16.0, 32.0] {
                d.push(&[m.ln(), p, m / p], 3.0 + 0.05 * m / p + 2.0 * p.ln());
            }
        }
        d
    }

    #[test]
    fn every_learner_fits_and_predicts() {
        let d = runtime_like();
        for (name, learner) in [
            ("KNN", Learner::knn()),
            ("GAM", Learner::gam()),
            ("XGBoost", Learner::xgboost()),
            ("RandomForest", Learner::forest()),
            ("Linear", Learner::linear()),
        ] {
            assert_eq!(learner.name(), name);
            let model = learner.fit(&d);
            let preds: Vec<f64> = (0..d.len()).map(|i| model.predict(d.row(i))).collect();
            let err = mape(d.targets(), &preds);
            assert!(err < 0.6, "{name} trains terribly: MAPE {err}");
            assert!(preds.iter().all(|p| p.is_finite()), "{name} produced non-finite preds");
        }
    }

    #[test]
    fn paper_learners_are_the_table4_rows() {
        let names: Vec<&str> = Learner::paper_learners().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["KNN", "GAM", "XGBoost"]);
    }

    #[test]
    fn nonlinear_learners_beat_linear_on_crossover_surface() {
        // A crossover surface (who-wins flips with message size) is the
        // reason the paper rejected plain linear regression.
        let mut d = Dataset::new(1);
        for i in 0..60 {
            let x = i as f64;
            d.push(&[x], (x - 30.0).abs() + 1.0);
        }
        let lin = Learner::linear().fit(&d);
        let xgb = Learner::xgboost().fit(&d);
        let err = |m: &Model| {
            mape(
                d.targets(),
                &(0..d.len()).map(|i| m.predict(d.row(i))).collect::<Vec<_>>(),
            )
        };
        assert!(err(&xgb) < err(&lin) / 2.0);
    }
}
