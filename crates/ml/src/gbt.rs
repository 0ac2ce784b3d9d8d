//! Gradient-boosted trees with second-order (Newton) updates — a
//! from-scratch reimplementation of the `xgboost` configuration the paper
//! uses: 200 boosting rounds, default tree parameters, and a Tweedie (or
//! Gamma) objective with a log link, which suits strictly positive,
//! right-skewed runtimes.

// Index-based loops are clearer for these numeric kernels.
#![allow(clippy::needless_range_loop)]


use crate::dataset::Dataset;
use crate::error::{validate, FitError};
use crate::flat::{FlatTrees, LayoutError};
use crate::hist::{fit_hist, BinnedDataset};
use crate::tree::TreeParams;

/// Boosting objective. Gamma and Tweedie model `μ = exp(score)` (log
/// link) and assume strictly positive targets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Plain squared error on the raw score.
    SquaredError,
    /// Gamma deviance (xgboost `reg:gamma`).
    Gamma,
    /// Tweedie deviance with variance power `p ∈ (1, 2)` (xgboost
    /// `reg:tweedie`; the paper uses this for its runtime models).
    Tweedie { p: f64 },
}

impl Objective {
    /// First/second-order gradients of the loss at raw score `s` for
    /// target `y`.
    #[inline]
    fn grad(&self, y: f64, s: f64) -> (f64, f64) {
        match *self {
            Objective::SquaredError => (s - y, 1.0),
            Objective::Gamma => {
                // l = y·e^{-s} + s  (up to constants); μ = e^s.
                let e = (-s).exp();
                (1.0 - y * e, (y * e).max(1e-16))
            }
            Objective::Tweedie { p } => {
                // For the default p = 1.5 the two exponents are ±s/2, so
                // one exp (plus a divide) replaces two — this loop runs
                // n·rounds times and the exps dominate it.
                let (a, b) = if p == 1.5 {
                    let e = (0.5 * s).exp();
                    ((y / e).max(0.0), e)
                } else {
                    ((y * ((1.0 - p) * s).exp()).max(0.0), ((2.0 - p) * s).exp())
                };
                let g = -a + b;
                let h = (-(1.0 - p) * a + (2.0 - p) * b).max(1e-16);
                (g, h)
            }
        }
    }

    /// Initial raw score for targets `y`.
    fn base_score(&self, y: &[f64]) -> f64 {
        let mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
        match self {
            Objective::SquaredError => mean,
            _ => mean.max(1e-12).ln(),
        }
    }

    /// Map a raw score to the response scale.
    #[inline]
    fn response(&self, s: f64) -> f64 {
        match self {
            Objective::SquaredError => s,
            // Clamp to keep exp well-behaved on extreme extrapolations.
            _ => s.clamp(-30.0, 30.0).exp(),
        }
    }
}

/// Boosting hyper-parameters (xgboost defaults; deliberately untuned,
/// per the paper's robustness protocol).
///
/// Trees always grow by quantized histogram search (`xgboost`'s `hist`,
/// [`crate::hist`]) over [`BinnedDataset::MAX_BINS`] bins per feature:
/// the paper's features have a handful of distinct values each, so the
/// splits are exactly the exact-greedy ones (`hist_equivalence`).
#[derive(Clone, Copy, Debug)]
pub struct GbtParams {
    /// Number of boosting rounds (the paper trains 200).
    pub rounds: usize,
    /// Learning rate (xgboost default 0.3).
    pub eta: f64,
    /// Objective; the paper settled on Tweedie (Gamma also worked).
    pub objective: Objective,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum split gain.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            rounds: 200,
            eta: 0.3,
            objective: Objective::Tweedie { p: 1.5 },
            max_depth: 6,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

/// A fitted boosted ensemble.
///
/// Trees are kept in flattened structure-of-arrays form ([`FlatTrees`],
/// leaf values pre-scaled by the learning rate), so prediction — scalar
/// or batched — is a tight loop over parallel arrays rather than a
/// pointer chase through node structs.
#[derive(Debug)]
pub struct GbtModel {
    base: f64,
    objective: Objective,
    flat: FlatTrees,
}

/// Mean deviance of predictions (response scale) under an objective —
/// the per-round convergence trace exported when tracing is enabled.
fn mean_deviance(obj: Objective, y: &[f64], pred: &[f64]) -> f64 {
    if y.is_empty() {
        return 0.0;
    }
    let s: f64 = match obj {
        Objective::SquaredError => {
            y.iter().zip(pred).map(|(&yv, &m)| (yv - m) * (yv - m)).sum()
        }
        Objective::Gamma => y
            .iter()
            .zip(pred)
            .map(|(&yv, &m)| {
                let (yv, m) = (yv.max(1e-300), m.max(1e-300));
                2.0 * ((yv - m) / m - (yv / m).ln())
            })
            .sum(),
        // p = 1.5 (the default): all three powers are square roots,
        // ~an order of magnitude cheaper than powf per row.
        Objective::Tweedie { p: 1.5 } => y
            .iter()
            .zip(pred)
            .map(|(&yv, &m)| {
                let (yv, m) = (yv.max(0.0), m.max(1e-300));
                let sm = m.sqrt();
                2.0 * (-4.0 * yv.sqrt() + 2.0 * yv / sm + 2.0 * sm)
            })
            .sum(),
        Objective::Tweedie { p } => y
            .iter()
            .zip(pred)
            .map(|(&yv, &m)| {
                let (yv, m) = (yv.max(0.0), m.max(1e-300));
                2.0 * (yv.powf(2.0 - p) / ((1.0 - p) * (2.0 - p))
                    - yv * m.powf(1.0 - p) / (1.0 - p)
                    + m.powf(2.0 - p) / (2.0 - p))
            })
            .sum(),
    };
    s / y.len() as f64
}

impl GbtModel {
    /// Fit with Newton boosting.
    pub fn fit(data: &Dataset, params: &GbtParams) -> GbtModel {
        GbtModel::fit_with_valid(data, params, None)
    }

    /// Fallible fit: empty/non-finite data, (for Gamma/Tweedie)
    /// non-positive targets, and an ensemble too large for the packed
    /// traversal layout ([`LayoutError`]) are [`FitError`]s, not panics.
    pub fn try_fit(data: &Dataset, params: &GbtParams) -> Result<GbtModel, FitError> {
        validate(
            "XGBoost",
            data,
            !matches!(params.objective, Objective::SquaredError),
        )?;
        GbtModel::boost(data, params, None).map_err(|e| FitError::EnsembleLayout {
            learner: "XGBoost",
            detail: e.to_string(),
        })
    }

    /// [`GbtModel::fit`] with an optional held-out set. The valid set
    /// never influences training; when tracing is enabled its per-round
    /// deviance is scored alongside the train deviance and exported as
    /// `gbt.round` events (a convergence trace for `mpcp report`).
    pub fn fit_with_valid(
        data: &Dataset,
        params: &GbtParams,
        valid: Option<&Dataset>,
    ) -> GbtModel {
        GbtModel::boost(data, params, valid).unwrap_or_else(|e| panic!("cannot fit XGBoost: {e}"))
    }

    fn boost(
        data: &Dataset,
        params: &GbtParams,
        valid: Option<&Dataset>,
    ) -> Result<GbtModel, LayoutError> {
        assert!(!data.is_empty(), "cannot fit GBT on an empty dataset");
        if !matches!(params.objective, Objective::SquaredError) {
            assert!(
                data.targets().iter().all(|&y| y > 0.0),
                "Gamma/Tweedie objectives need strictly positive targets"
            );
        }
        let n = data.len();
        let y = data.targets();
        let features: Vec<usize> = (0..data.nfeat()).collect();
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: params.min_child_weight,
            lambda: params.lambda,
            gamma: params.gamma,
        };
        let base = params.objective.base_score(y);
        let traced = mpcp_obs::enabled();
        let mut span = mpcp_obs::span("fit")
            .attr("rows", n)
            .attr("nfeat", data.nfeat())
            .attr("rounds", params.rounds);

        // μ-cache fast path: Gamma and the default Tweedie power express
        // their gradients directly through μ = exp(score) (a divide or a
        // square root per row), and μ itself is maintained
        // *multiplicatively* through per-leaf factors exp(η·leaf) — so
        // those objectives train without any per-row exponentials. The
        // other objectives keep raw scores and call `grad` as usual.
        let mu_fast = matches!(params.objective, Objective::Gamma)
            || matches!(params.objective, Objective::Tweedie { p } if p == 1.5);
        let mut score = if mu_fast { Vec::new() } else { vec![base; n] };
        let mut mu = if mu_fast { vec![base.exp(); n] } else { Vec::new() };

        let mut g = vec![0.0; n];
        let mut h = vec![0.0; n];
        let mut factor: Vec<f64> = Vec::new();
        let mut trees = Vec::with_capacity(params.rounds);
        // Bin once; every round reuses the quantized rows.
        let binned = {
            let _bin_span = mpcp_obs::span("gbt.binning").attr("rows", n);
            let t = mpcp_obs::maybe_now();
            let b = BinnedDataset::from_dataset(data, BinnedDataset::MAX_BINS);
            mpcp_obs::record_elapsed!("gbt.binning_ns", t);
            b
        };

        // Held-out response cache, maintained incrementally per round —
        // scored only when tracing is on (purely observational).
        let mut vmu: Vec<f64> = Vec::new();
        let mut vscore: Vec<f64> = Vec::new();
        if let Some(v) = valid.filter(|_| traced) {
            if mu_fast {
                vmu = vec![base.exp(); v.len()];
            } else {
                vscore = vec![base; v.len()];
            }
        }

        for round in 0..params.rounds {
            match params.objective {
                Objective::Gamma if mu_fast => {
                    for i in 0..n {
                        let ye = y[i] / mu[i];
                        g[i] = 1.0 - ye;
                        h[i] = ye.max(1e-16);
                    }
                }
                Objective::Tweedie { .. } if mu_fast => {
                    // p = 1.5: exp(±s/2) are √μ and 1/√μ.
                    for i in 0..n {
                        let b = mu[i].sqrt();
                        let a = (y[i] / b).max(0.0);
                        g[i] = -a + b;
                        h[i] = (0.5 * a + 0.5 * b).max(1e-16);
                    }
                }
                _ => {
                    for i in 0..n {
                        let (gi, hi) = params.objective.grad(y[i], score[i]);
                        g[i] = gi;
                        h[i] = hi;
                    }
                }
            }
            let (tree, leaf) = fit_hist(&binned, &g, &h, &tree_params, &features, None);
            if mu_fast {
                factor.clear();
                factor.extend(tree.nodes.iter().map(|nd| (params.eta * nd.value).exp()));
                for i in 0..n {
                    mu[i] *= factor[leaf[i] as usize];
                }
            } else {
                for i in 0..n {
                    score[i] += params.eta * tree.nodes[leaf[i] as usize].value;
                }
            }
            if traced {
                let train_dev = if mu_fast {
                    mean_deviance(params.objective, y, &mu)
                } else {
                    let preds: Vec<f64> =
                        score.iter().map(|&s| params.objective.response(s)).collect();
                    mean_deviance(params.objective, y, &preds)
                };
                let mut ev = mpcp_obs::event("gbt.round")
                    .attr("round", round)
                    .attr("train_deviance", train_dev);
                if let Some(v) = valid {
                    if mu_fast {
                        for (j, vm) in vmu.iter_mut().enumerate() {
                            let l = tree.leaf_of(v.row(j)) as usize;
                            *vm *= factor[l];
                        }
                        ev = ev.attr(
                            "valid_deviance",
                            mean_deviance(params.objective, v.targets(), &vmu),
                        );
                    } else {
                        for (j, vs) in vscore.iter_mut().enumerate() {
                            let l = tree.leaf_of(v.row(j)) as usize;
                            *vs += params.eta * tree.nodes[l].value;
                        }
                        let vpreds: Vec<f64> = vscore
                            .iter()
                            .map(|&s| params.objective.response(s))
                            .collect();
                        ev = ev.attr(
                            "valid_deviance",
                            mean_deviance(params.objective, v.targets(), &vpreds),
                        );
                    }
                }
                ev.emit();
            }
            trees.push(tree);
        }
        span.set_attr("trees", trees.len());
        let flat = FlatTrees::from_trees(trees.iter(), params.eta)?;
        Ok(GbtModel { base, objective: params.objective, flat })
    }

    /// Predict the response for one feature vector. Accumulation order
    /// matches [`GbtModel::predict_batch`] exactly, so the two paths
    /// agree bitwise.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.objective.response(self.flat.predict_one_from(x, self.base))
    }

    /// Predict responses for a row-major block of feature vectors
    /// (`xs.len() == rows · nfeat`). Evaluates tree-by-tree over the
    /// whole block, which is substantially faster than per-row calls.
    pub fn predict_batch(&self, xs: &[f64], nfeat: usize) -> Vec<f64> {
        assert_eq!(xs.len() % nfeat.max(1), 0, "row-major shape mismatch");
        let rows = xs.len() / nfeat.max(1);
        let mut out = vec![0.0; rows];
        self.predict_batch_into(xs, nfeat, &mut out);
        out
    }

    /// [`GbtModel::predict_batch`] into a caller-owned buffer
    /// (overwritten, not accumulated) — the allocation-free form the
    /// selector's fused argmin reuses across models. `out.len()` must
    /// equal the row count.
    pub fn predict_batch_into(&self, xs: &[f64], nfeat: usize, out: &mut [f64]) {
        out.fill(self.base);
        self.flat.predict_batch_into(xs, nfeat, out);
        for s in out.iter_mut() {
            *s = self.objective.response(*s);
        }
    }

    /// The flattened ensemble backing this model (kernel layout
    /// benchmarks and equivalence tests drive it directly).
    pub fn flat(&self) -> &FlatTrees {
        &self.flat
    }

    /// Number of trees in the ensemble.
    pub fn len(&self) -> usize {
        self.flat.num_trees()
    }

    /// True if no trees were fitted.
    pub fn is_empty(&self) -> bool {
        self.flat.num_trees() == 0
    }
}

impl crate::persist::Persist for Objective {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        match *self {
            Objective::SquaredError => w.put_u8(0),
            Objective::Gamma => w.put_u8(1),
            Objective::Tweedie { p } => {
                w.put_u8(2);
                w.put_f64(p);
            }
        }
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<Objective, crate::persist::CodecError> {
        match r.get_u8()? {
            0 => Ok(Objective::SquaredError),
            1 => Ok(Objective::Gamma),
            2 => Ok(Objective::Tweedie { p: r.get_f64()? }),
            b => Err(crate::persist::CodecError::invalid(format!("objective tag {b}"))),
        }
    }
}

impl crate::persist::Persist for GbtModel {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_f64(self.base);
        self.objective.encode(w);
        self.flat.encode(w);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<GbtModel, crate::persist::CodecError> {
        let base = r.get_f64()?;
        let objective = Objective::decode(r)?;
        let flat = FlatTrees::decode(r)?;
        Ok(GbtModel { base, objective, flat })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    fn synthetic_runtime_data() -> Dataset {
        // Runtime-like surface: t = a + b·m/p + c·log(p), strictly
        // positive, multiplicative structure.
        let mut d = Dataset::new(3);
        for mi in 0..12 {
            let m = (1u64 << mi) as f64;
            for p in [4.0f64, 8.0, 16.0, 32.0, 64.0] {
                let t = 5.0 + 0.02 * m / p + 3.0 * p.ln();
                d.push(&[m.ln(), p, m / p], t);
            }
        }
        d
    }

    #[test]
    fn tweedie_deviance_fast_path_matches_general_formula() {
        let y = [0.5, 1.0, 3.7, 10.0, 250.0];
        let m = [0.6, 1.2, 3.0, 9.0, 260.0];
        let fast = mean_deviance(Objective::Tweedie { p: 1.5 }, &y, &m);
        let p = 1.5;
        let general = y
            .iter()
            .zip(&m)
            .map(|(&yv, &mv)| {
                2.0 * (yv.powf(2.0 - p) / ((1.0 - p) * (2.0 - p))
                    - yv * mv.powf(1.0 - p) / (1.0 - p)
                    + mv.powf(2.0 - p) / (2.0 - p))
            })
            .sum::<f64>()
            / y.len() as f64;
        assert!((fast - general).abs() < 1e-12 * general.abs().max(1.0), "{fast} vs {general}");
    }

    #[test]
    fn fit_with_valid_emits_per_round_deviance_trace() {
        let d = synthetic_runtime_data();
        let (mut train, mut valid) = (Dataset::new(3), Dataset::new(3));
        for i in 0..d.len() {
            let dst = if i % 4 == 0 { &mut valid } else { &mut train };
            dst.push(d.row(i), d.targets()[i]);
        }
        mpcp_obs::set_enabled(true);
        // Concurrent tests on other threads may also record while the
        // global switch is on; a sentinel pins down this thread's tid so
        // the assertions below only see this fit's events.
        mpcp_obs::event("gbt.test.sentinel").emit();
        let params = GbtParams { rounds: 12, ..Default::default() };
        GbtModel::fit_with_valid(&train, &params, Some(&valid));
        mpcp_obs::set_enabled(false);
        let mut events = mpcp_obs::drain();
        mpcp_obs::metrics::reset();
        let tid = events
            .iter()
            .find(|e| e.name == "gbt.test.sentinel")
            .expect("sentinel missing")
            .tid;
        events.retain(|e| e.tid == tid);
        let rounds: Vec<_> = events.iter().filter(|e| e.name == "gbt.round").collect();
        assert_eq!(rounds.len(), 12);
        let dev_of = |e: &mpcp_obs::TraceEvent, key: &str| {
            e.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| match v {
                    mpcp_obs::AttrValue::F64(x) => Some(*x),
                    _ => None,
                })
                .expect("deviance attr")
        };
        // Training deviance must fall monotonically-ish: last < first.
        let first = dev_of(rounds[0], "train_deviance");
        let last = dev_of(rounds[11], "train_deviance");
        assert!(last < first, "train deviance did not improve: {first} -> {last}");
        assert!(dev_of(rounds[11], "valid_deviance") < dev_of(rounds[0], "valid_deviance"));
        assert!(events.iter().any(|e| e.name == "fit"), "fit span missing");
        assert!(events.iter().any(|e| e.name == "gbt.binning"), "binning span missing");
    }

    #[test]
    fn tweedie_fits_runtime_surface() {
        let d = synthetic_runtime_data();
        let model = GbtModel::fit(&d, &GbtParams { rounds: 80, ..Default::default() });
        let preds: Vec<f64> = (0..d.len()).map(|i| model.predict(d.row(i))).collect();
        let err = mape(d.targets(), &preds);
        assert!(err < 0.05, "training MAPE {err}");
    }

    #[test]
    fn gamma_objective_also_fits() {
        let d = synthetic_runtime_data();
        let params = GbtParams { rounds: 80, objective: Objective::Gamma, ..Default::default() };
        let model = GbtModel::fit(&d, &params);
        let preds: Vec<f64> = (0..d.len()).map(|i| model.predict(d.row(i))).collect();
        assert!(mape(d.targets(), &preds) < 0.05);
        assert!(preds.iter().all(|&p| p > 0.0), "gamma predictions must be positive");
    }

    #[test]
    fn squared_error_fits_linear_target() {
        let mut d = Dataset::new(1);
        for i in 0..50 {
            d.push(&[i as f64], 2.0 * i as f64 + 1.0);
        }
        let params = GbtParams {
            rounds: 100,
            objective: Objective::SquaredError,
            ..Default::default()
        };
        let model = GbtModel::fit(&d, &params);
        assert!((model.predict(&[25.0]) - 51.0).abs() < 2.0);
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let d = synthetic_runtime_data();
        let short = GbtModel::fit(&d, &GbtParams { rounds: 5, ..Default::default() });
        let long = GbtModel::fit(&d, &GbtParams { rounds: 100, ..Default::default() });
        let err = |m: &GbtModel| {
            let preds: Vec<f64> = (0..d.len()).map(|i| m.predict(d.row(i))).collect();
            mape(d.targets(), &preds)
        };
        assert!(err(&long) < err(&short));
        // Flattening merges structurally identical consecutive rounds,
        // so the stored tree count is at most (and usually well below)
        // the round count.
        assert!(long.len() <= 100 && !long.is_empty(), "stored {} trees", long.len());
    }

    #[test]
    fn splits_between_values_near_the_f64_limit() {
        // 1e308 + 1.7e308 overflows, so a plain midpoint cut would be +∞
        // and the feature could never split.
        let mut d = Dataset::new(1);
        for _ in 0..10 {
            d.push(&[1e308], 1.0);
            d.push(&[1.7e308], 100.0);
        }
        let model = GbtModel::fit(&d, &GbtParams::default());
        let (lo, hi) = (model.predict(&[1e308]), model.predict(&[1.7e308]));
        assert!((lo - 1.0).abs() < 0.01 && (hi - 100.0).abs() < 1.0, "{lo} {hi}");
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn tweedie_rejects_nonpositive_targets() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0.0);
        let _ = GbtModel::fit(&d, &GbtParams::default());
    }

    #[test]
    fn ensembles_beyond_the_packed_layout_are_fit_errors() {
        // Only feature 299 varies, so every split lands past the packed
        // word's 8-bit feature field.
        let mut d = Dataset::new(300);
        let mut x = vec![1.0; 300];
        for i in 0..20 {
            x[299] = f64::from(i);
            d.push(&x, if i < 10 { 1.0 } else { 10.0 });
        }
        let err = GbtModel::try_fit(&d, &GbtParams { rounds: 2, ..Default::default() })
            .expect_err("split feature 299 does not pack");
        assert!(matches!(&err, FitError::EnsembleLayout { learner: "XGBoost", .. }), "{err}");
        assert!(err.to_string().contains("split feature 299"), "{err}");
    }

    #[test]
    fn positive_predictions_under_extrapolation() {
        let d = synthetic_runtime_data();
        let model = GbtModel::fit(&d, &GbtParams { rounds: 30, ..Default::default() });
        // Far outside the training range: must stay positive and finite.
        let p = model.predict(&[100.0, 10_000.0, 1e9]);
        assert!(p.is_finite() && p > 0.0);
    }
}
