//! Ridge-regularized linear regression — the baseline the paper notes
//! cannot capture the non-linear runtime surfaces (kept to reproduce the
//! rejection).


use crate::dataset::Dataset;
use crate::error::{validate, FitError};
use crate::linalg::{solve_spd_with_jitter, Mat};

/// Linear model parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinearParams {
    /// Ridge strength.
    pub ridge: f64,
    /// Model `log(y)` instead of `y` (requires positive targets);
    /// predictions are exponentiated back.
    pub log_target: bool,
}

impl Default for LinearParams {
    fn default() -> Self {
        LinearParams { ridge: 1e-6, log_target: true }
    }
}

/// A fitted linear model.
#[derive(Clone, Debug)]
pub struct LinearModel {
    beta: Vec<f64>,
    log_target: bool,
}

impl LinearModel {
    /// Ordinary (ridge) least squares with an intercept.
    ///
    /// Panics on degenerate datasets; see [`LinearModel::try_fit`].
    pub fn fit(data: &Dataset, params: &LinearParams) -> LinearModel {
        Self::try_fit(data, params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible fit: empty/non-finite data and (for the log-target
    /// variant) non-positive targets are [`FitError`]s.
    pub fn try_fit(data: &Dataset, params: &LinearParams) -> Result<LinearModel, FitError> {
        validate("Linear", data, params.log_target)?;
        let n = data.len();
        let d = data.nfeat();
        let mut x = Mat::zeros(n, d + 1);
        for i in 0..n {
            x.col_mut(0)[i] = 1.0;
        }
        for f in 0..d {
            for i in 0..n {
                x.col_mut(f + 1)[i] = data.at(i, f);
            }
        }
        let y: Vec<f64> = if params.log_target {
            data.targets().iter().map(|v| v.ln()).collect()
        } else {
            data.targets().to_vec()
        };
        let mut a = x.gram_weighted(None);
        a.add_diag(params.ridge.max(0.0));
        let b = x.tmul_weighted(&y, None);
        let beta = solve_spd_with_jitter(&a, &b, 1e-12);
        Ok(LinearModel { beta, log_target: params.log_target })
    }

    /// Predict the response.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len() + 1, self.beta.len());
        let mut s = self.beta[0];
        for (v, b) in x.iter().zip(&self.beta[1..]) {
            s += v * b;
        }
        if self.log_target {
            s.clamp(-30.0, 30.0).exp()
        } else {
            s
        }
    }
}

impl crate::persist::Persist for LinearModel {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_f64s(&self.beta);
        w.put_bool(self.log_target);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<LinearModel, crate::persist::CodecError> {
        let beta = r.get_f64s()?;
        if beta.is_empty() {
            // `predict` reads the intercept unconditionally.
            return Err(crate::persist::CodecError::invalid("linear model has no coefficients"));
        }
        let log_target = r.get_bool()?;
        Ok(LinearModel { beta, log_target })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_linear_coefficients() {
        let mut d = Dataset::new(2);
        for i in 0..30 {
            let (x0, x1) = (i as f64, (i * 3 % 7) as f64);
            d.push(&[x0, x1], 2.0 + 3.0 * x0 - 0.5 * x1);
        }
        let m = LinearModel::fit(&d, &LinearParams { ridge: 0.0, log_target: false });
        assert!((m.predict(&[10.0, 4.0]) - (2.0 + 30.0 - 2.0)).abs() < 1e-6);
    }

    #[test]
    fn log_target_fits_exponential_surface() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], (0.2 * i as f64 + 1.0).exp());
        }
        let m = LinearModel::fit(&d, &LinearParams::default());
        let p = m.predict(&[10.0]);
        let want = (0.2f64 * 10.0 + 1.0).exp();
        assert!((p - want).abs() / want < 0.01, "{p} vs {want}");
    }

    #[test]
    fn cannot_fit_nonmonotone_surface_well() {
        // The paper's point: runtime surfaces with crossovers defeat a
        // global linear model.
        let mut d = Dataset::new(1);
        for i in 0..40 {
            let x = i as f64;
            d.push(&[x], (x - 20.0).powi(2) + 1.0);
        }
        let m = LinearModel::fit(&d, &LinearParams { ridge: 0.0, log_target: false });
        let err = crate::metrics::mape(
            d.targets(),
            &(0..d.len()).map(|i| m.predict(d.row(i))).collect::<Vec<_>>(),
        );
        assert!(err > 0.5, "a line should fit a parabola poorly, MAPE {err}");
    }
}
