//! Generalized additive models: penalized cubic B-spline smooths per
//! feature, fitted by penalized IRLS — a from-scratch equivalent of the
//! paper's `mgcv::gam(y ~ s(x1) + ... , family = Gamma(link = "log"))`.

// Index-based loops are clearer for these numeric kernels.
#![allow(clippy::needless_range_loop)]


use crate::bspline::BsplineBasis;
use crate::dataset::Dataset;
use crate::error::{validate, FitError};
use crate::linalg::{solve_spd_with_jitter, Mat};

/// Exponential family + link. The paper uses Gamma with a log link for
/// positive, right-skewed runtimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Gamma variance, log link (P-IRLS; constant working weights).
    GammaLog,
    /// Gaussian with identity link (one penalized least-squares solve).
    GaussianIdentity,
}

/// GAM hyper-parameters. The smoothing parameter is fixed (no GCV/REML
/// search) in keeping with the paper's no-tuning protocol.
#[derive(Clone, Copy, Debug)]
pub struct GamParams {
    /// Interior knots per smooth term.
    pub interior_knots: usize,
    /// P-spline second-difference penalty weight.
    pub penalty: f64,
    /// Family/link.
    pub family: Family,
    /// Maximum P-IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the linear predictor.
    pub tol: f64,
}

impl Default for GamParams {
    fn default() -> Self {
        GamParams {
            interior_knots: 8,
            penalty: 1.0,
            family: Family::GammaLog,
            max_iter: 50,
            tol: 1e-8,
        }
    }
}

/// A fitted GAM.
#[derive(Debug)]
pub struct GamModel {
    family: Family,
    /// Basis per feature (`None` = degenerate feature, dropped).
    bases: Vec<Option<BsplineBasis>>,
    /// Column means used to center each smooth's block (identifiability).
    col_means: Vec<f64>,
    beta: Vec<f64>,
    iterations: usize,
}

impl GamModel {
    /// Fit by (penalized) IRLS.
    ///
    /// Panics on degenerate datasets; see [`GamModel::try_fit`] for the
    /// fallible variant used on partial benchmark grids.
    pub fn fit(data: &Dataset, params: &GamParams) -> GamModel {
        Self::try_fit(data, params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible fit: empty/non-finite data and (for the Gamma family)
    /// non-positive targets are [`FitError`]s, not panics. Features with
    /// too few distinct values for a spline basis are dropped, so a
    /// handful of rows degrades toward an intercept-only model instead
    /// of failing.
    pub fn try_fit(data: &Dataset, params: &GamParams) -> Result<GamModel, FitError> {
        validate("GAM", data, params.family == Family::GammaLog)?;
        let n = data.len();
        let d = data.nfeat();

        // Build bases; degenerate features contribute no columns.
        let bases: Vec<Option<BsplineBasis>> = (0..d)
            .map(|f| BsplineBasis::from_quantiles(&data.column(f), params.interior_knots))
            .collect();
        let block_sizes: Vec<usize> = bases.iter().map(|b| b.as_ref().map_or(0, |b| b.len())).collect();
        let ncols = 1 + block_sizes.iter().sum::<usize>();

        // Design matrix (uncentered first).
        let mut x = Mat::zeros(n, ncols);
        for i in 0..n {
            x.col_mut(0)[i] = 1.0;
        }
        let mut col = 1;
        for (f, basis) in bases.iter().enumerate() {
            if let Some(basis) = basis {
                for i in 0..n {
                    let v = basis.eval(data.at(i, f));
                    for (j, bv) in v.iter().enumerate() {
                        x.col_mut(col + j)[i] = *bv;
                    }
                }
                col += basis.len();
            }
        }
        // Center the smooth columns (sum-to-zero constraint) so the
        // intercept stays identifiable against partition-of-unity bases.
        let mut col_means = vec![0.0; ncols];
        for j in 1..ncols {
            let m: f64 = x.col(j).iter().sum::<f64>() / n as f64;
            col_means[j] = m;
            for v in x.col_mut(j) {
                *v -= m;
            }
        }

        // Block-diagonal P-spline penalty.
        let mut s = Mat::zeros(ncols, ncols);
        let mut col = 1;
        for basis in bases.iter().flatten() {
            let pen = basis.penalty();
            let nb = basis.len();
            for r in 0..nb {
                for c in 0..nb {
                    s[(col + r, col + c)] += params.penalty * pen[r][c];
                }
            }
            col += nb;
        }
        // Tiny ridge on the smooths for numerical safety (the penalty's
        // null space contains linear trends).
        for j in 1..ncols {
            s[(j, j)] += 1e-8;
        }

        let y = data.targets();
        let (beta, iterations) = match params.family {
            Family::GaussianIdentity => {
                let mut a = x.gram_weighted(None);
                a.add_assign(&s);
                let b = x.tmul_weighted(y, None);
                (solve_spd_with_jitter(&a, &b, 1e-10), 1)
            }
            Family::GammaLog => {
                // P-IRLS; for Gamma/log the working weights are constant 1
                // and the working response is z = eta + (y - mu)/mu.
                let mut eta: Vec<f64> = y.iter().map(|&v| v.max(1e-12).ln()).collect();
                let mut beta = vec![0.0; ncols];
                let a = {
                    let mut a = x.gram_weighted(None);
                    a.add_assign(&s);
                    a
                };
                let mut iterations = 0;
                for it in 0..params.max_iter {
                    iterations = it + 1;
                    let z: Vec<f64> = eta
                        .iter()
                        .zip(y)
                        .map(|(&e, &yv)| {
                            let mu = e.clamp(-30.0, 30.0).exp();
                            e + (yv - mu) / mu
                        })
                        .collect();
                    let b = x.tmul_weighted(&z, None);
                    let new_beta = solve_spd_with_jitter(&a, &b, 1e-10);
                    let new_eta = x.mul_vec(&new_beta);
                    let delta = new_eta
                        .iter()
                        .zip(&eta)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    eta = new_eta;
                    beta = new_beta;
                    if delta < params.tol {
                        break;
                    }
                }
                (beta, iterations)
            }
        };
        Ok(GamModel { family: params.family, bases, col_means, beta, iterations })
    }

    /// Predict the response for one feature vector.
    pub fn predict(&self, xrow: &[f64]) -> f64 {
        assert_eq!(xrow.len(), self.bases.len());
        let mut eta = self.beta[0]; // centered intercept column is all 1s
        let mut col = 1;
        for (f, basis) in self.bases.iter().enumerate() {
            if let Some(basis) = basis {
                let v = basis.eval(xrow[f]);
                for (j, bv) in v.iter().enumerate() {
                    eta += (bv - self.col_means[col + j]) * self.beta[col + j];
                }
                col += basis.len();
            }
        }
        match self.family {
            Family::GaussianIdentity => eta,
            Family::GammaLog => eta.clamp(-30.0, 30.0).exp(),
        }
    }

    /// P-IRLS iterations used (diagnostics).
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl crate::persist::Persist for GamModel {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_u8(match self.family {
            Family::GammaLog => 0,
            Family::GaussianIdentity => 1,
        });
        w.put_len(self.bases.len());
        for b in &self.bases {
            crate::persist::put_opt(w, b);
        }
        w.put_f64s(&self.col_means);
        w.put_f64s(&self.beta);
        w.put_len(self.iterations);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<GamModel, crate::persist::CodecError> {
        use crate::persist::CodecError;
        let family = match r.get_u8()? {
            0 => Family::GammaLog,
            1 => Family::GaussianIdentity,
            b => return Err(CodecError::invalid(format!("GAM family tag {b}"))),
        };
        let nbases = r.get_len(0)?;
        let mut bases = Vec::with_capacity(nbases.min(r.remaining() + 1));
        for _ in 0..nbases {
            bases.push(crate::persist::get_opt::<BsplineBasis>(r)?);
        }
        let col_means = r.get_f64s()?;
        let beta = r.get_f64s()?;
        let iterations = r.get_len(0)?;
        // `predict` indexes beta/col_means by the cumulative basis
        // layout; the column count must match exactly.
        let ncols = 1 + bases
            .iter()
            .map(|b| b.as_ref().map_or(0, BsplineBasis::len))
            .sum::<usize>();
        if beta.len() != ncols || col_means.len() != ncols {
            return Err(CodecError::invalid(format!(
                "GAM column mismatch: bases imply {ncols} column(s), beta has {}, col_means has {}",
                beta.len(),
                col_means.len()
            )));
        }
        Ok(GamModel { family, bases, col_means, beta, iterations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    fn multiplicative_surface() -> Dataset {
        // y = exp(f(x0) + g(x1)) with smooth f, g — the GAM's home turf.
        let mut d = Dataset::new(2);
        for i in 0..30 {
            for j in 0..10 {
                let x0 = i as f64 / 3.0;
                let x1 = j as f64;
                let y = (0.3 * x0 + (x1 / 3.0).sin() * 0.5 + 1.0).exp();
                d.push(&[x0, x1], y);
            }
        }
        d
    }

    #[test]
    fn gamma_log_fits_multiplicative_surface() {
        let d = multiplicative_surface();
        let m = GamModel::fit(&d, &GamParams::default());
        let preds: Vec<f64> = (0..d.len()).map(|i| m.predict(d.row(i))).collect();
        let err = mape(d.targets(), &preds);
        assert!(err < 0.03, "MAPE {err}");
        assert!(preds.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn gaussian_identity_fits_additive_surface() {
        let mut d = Dataset::new(2);
        for i in 0..25 {
            for j in 0..8 {
                let (x0, x1) = (i as f64, j as f64);
                d.push(&[x0, x1], 3.0 * x0 + (x1 * 0.7).cos() * 10.0);
            }
        }
        let m = GamModel::fit(&d, &GamParams {
            family: Family::GaussianIdentity,
            ..Default::default()
        });
        let preds: Vec<f64> = (0..d.len()).map(|i| m.predict(d.row(i))).collect();
        assert!(crate::metrics::rmse(d.targets(), &preds) < 1.0);
    }

    #[test]
    fn degenerate_feature_is_dropped_gracefully() {
        let mut d = Dataset::new(2);
        for i in 0..40 {
            d.push(&[i as f64, 7.0], (0.1 * i as f64 + 1.0).exp());
        }
        let m = GamModel::fit(&d, &GamParams::default());
        let p = m.predict(&[20.0, 7.0]);
        assert!(p.is_finite() && p > 0.0);
        // The constant feature contributes nothing either way.
        assert!((m.predict(&[20.0, 100.0]) - p).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_is_clamped_not_explosive() {
        let d = multiplicative_surface();
        let m = GamModel::fit(&d, &GamParams::default());
        let p = m.predict(&[1e6, -1e6]);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn irls_converges_quickly_on_clean_data() {
        let d = multiplicative_surface();
        let m = GamModel::fit(&d, &GamParams::default());
        assert!(m.iterations() < 30, "took {} iterations", m.iterations());
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn gamma_rejects_zero_targets() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 0.0);
        let _ = GamModel::fit(&d, &GamParams::default());
    }
}
