//! The per-configuration regression selector (Fig. 3 of the paper).
//!
//! One regression model is fitted per algorithm configuration; a query
//! evaluates every model on the instance's feature vector and returns
//! the configuration with the smallest predicted running time. Excluded
//! (benchmark-only) configurations are never trained or selected.
//!
//! Training is **total over partial grids**: benchmark campaigns lose
//! cells to timeouts and node failures, so records may cover only a
//! subset of configurations, carry uids from a newer algorithm registry,
//! or leave a configuration with too few samples to fit. All of that
//! degrades into per-configuration coverage reported by [`TrainReport`]
//! instead of panicking; only a dataset that yields *zero* models is a
//! hard [`SelectorError`]. Queries degrade too: when no trained model
//! covers an instance (or every prediction is non-finite),
//! [`Selector::select_with_fallback`] falls back to the library's
//! hard-coded decision logic and marks the result as degraded.

use std::convert::Infallible;
use std::fmt;

use mpcp_benchmark::campaign::{default_threads, schedule_chunks};
use mpcp_benchmark::Record;
use mpcp_collectives::{AlgorithmConfig, MpiLibrary};
use mpcp_ml::{Dataset, FitError, Learner, Model};
use mpcp_simnet::Topology;

use crate::instance::{Instance, NUM_FEATURES};

/// Targets are modelled in microseconds: strictly positive and in a
/// numerically comfortable range for the Gamma/Tweedie objectives.
const SECS_TO_TARGET: f64 = 1e6;

/// Floor for measured runtimes when used as regression targets, keeping
/// the positive-target objectives valid.
const MIN_TARGET_US: f64 = 1e-3;

/// Model-table index → serialized uid. The table is as long as the
/// algorithm registry (a few dozen configurations), so the cast can
/// never truncate; this helper is the one place that invariant lives.
fn uid32(uid: usize) -> u32 {
    debug_assert!(u32::try_from(uid).is_ok(), "config index {uid} overflows u32");
    uid as u32
}

fn features_of(r: &Record) -> [f64; NUM_FEATURES] {
    [
        ((r.msize + 1) as f64).log2(),
        r.nodes as f64,
        r.ppn as f64,
        (r.nodes * r.ppn) as f64,
    ]
}

/// Why a selector could not be trained at all.
///
/// Partial coverage is *not* an error — it degrades into the
/// [`TrainReport`]. These variants mean there is nothing to select with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelectorError {
    /// The record set is empty (e.g. every benchmark cell failed).
    NoRecords,
    /// Records exist but no configuration yielded a model: every uid was
    /// excluded, out of range, under the sample threshold, or failed to
    /// fit.
    NoTrainedModels {
        /// Configurations in the registry.
        configs: usize,
        /// Records that mapped to an in-range, non-excluded uid.
        usable_records: usize,
    },
}

impl fmt::Display for SelectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectorError::NoRecords => {
                write!(f, "no training records (did every benchmark cell fail?)")
            }
            SelectorError::NoTrainedModels { configs, usable_records } => write!(
                f,
                "no configuration could be trained ({configs} configs, {usable_records} usable \
                 records) — lower --min-samples or benchmark more cells"
            ),
        }
    }
}

impl std::error::Error for SelectorError {}

/// Training knobs for partial grids.
#[derive(Clone, Copy, Debug)]
pub struct TrainOptions {
    /// Minimum records a configuration needs before a model is fitted;
    /// configurations below the threshold fall back to the library
    /// default at query time. The default of 1 reproduces the paper's
    /// complete-grid behavior exactly.
    pub min_samples: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions { min_samples: 1 }
    }
}

/// Why a configuration has no trained model (or that it has one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigCoverage {
    /// A model was fitted on this many records.
    Trained {
        /// Training records for this uid.
        samples: usize,
    },
    /// Benchmark-only configuration; never trained or selected.
    Excluded,
    /// No record carried this uid (cell failures, older benchmark file).
    NoData,
    /// Fewer samples than [`TrainOptions::min_samples`].
    BelowThreshold {
        /// Records available.
        samples: usize,
        /// Threshold in force.
        needed: usize,
    },
    /// The learner rejected the configuration's dataset.
    FitFailed {
        /// Records available.
        samples: usize,
        /// The learner's reason.
        error: FitError,
    },
}

/// Per-configuration training coverage — how complete the selector is.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Records that trained some configuration.
    pub records_used: usize,
    /// Records whose uid was outside the registry (newer benchmark file
    /// than the library build); skipped, never fatal.
    pub records_out_of_range: usize,
    /// Coverage per configuration uid.
    pub coverage: Vec<ConfigCoverage>,
}

impl TrainReport {
    /// Configurations with a trained model.
    pub fn trained(&self) -> usize {
        self.coverage
            .iter()
            .filter(|c| matches!(c, ConfigCoverage::Trained { .. }))
            .count()
    }

    /// Selectable configurations that have **no** model and will fall
    /// back to the library default (excluded configs don't count).
    pub fn degraded(&self) -> usize {
        self.coverage
            .iter()
            .filter(|c| {
                matches!(
                    c,
                    ConfigCoverage::NoData
                        | ConfigCoverage::BelowThreshold { .. }
                        | ConfigCoverage::FitFailed { .. }
                )
            })
            .count()
    }

    /// One-line human summary ("7/9 configs trained, 2 degraded, ...").
    pub fn summary(&self) -> String {
        let selectable = self
            .coverage
            .iter()
            .filter(|c| !matches!(c, ConfigCoverage::Excluded))
            .count();
        let mut s = format!("{}/{} selectable configs trained", self.trained(), selectable);
        if self.degraded() > 0 {
            s.push_str(&format!(", {} without a model", self.degraded()));
        }
        if self.records_out_of_range > 0 {
            s.push_str(&format!(
                ", {} record(s) with out-of-range uids skipped",
                self.records_out_of_range
            ));
        }
        s
    }
}

/// One answered query, with its degradation marker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Selection {
    /// Chosen configuration uid.
    pub uid: u32,
    /// Predicted runtime in microseconds; `None` on the fallback path.
    pub predicted_us: Option<f64>,
    /// `true` when the decision came from the library's hard-coded
    /// decision logic because no trained model produced a finite
    /// prediction (the `DegradedSelection` marker).
    pub degraded: bool,
}

/// A trained algorithm selector for one collective on one machine/library.
#[derive(Debug)]
pub struct Selector {
    learner_name: &'static str,
    /// One model per configuration uid; `None` for excluded uids (or
    /// uids absent from the training records).
    models: Vec<Option<Model>>,
}

impl Selector {
    /// Fit one regression model per selectable configuration from
    /// benchmark records.
    ///
    /// Models are trained on the *measured* (noisy median) runtimes, as
    /// in the paper; training is parallel across configurations. Partial
    /// grids degrade (see [`Selector::train_with_report`]); an empty
    /// record set or one yielding zero models is a [`SelectorError`].
    pub fn train(
        learner: &Learner,
        records: &[Record],
        configs: &[AlgorithmConfig],
    ) -> Result<Selector, SelectorError> {
        Self::train_with_report(learner, records, configs, &TrainOptions::default())
            .map(|(s, _)| s)
    }

    /// [`Selector::train`] plus per-configuration coverage reporting and
    /// a minimum-sample threshold.
    ///
    /// Records with uids outside `configs` (a benchmark file written
    /// against a newer registry) are counted and skipped, never fatal.
    /// Configurations whose dataset the learner rejects are reported as
    /// [`ConfigCoverage::FitFailed`] and left without a model.
    pub fn train_with_report(
        learner: &Learner,
        records: &[Record],
        configs: &[AlgorithmConfig],
        opts: &TrainOptions,
    ) -> Result<(Selector, TrainReport), SelectorError> {
        if records.is_empty() {
            return Err(SelectorError::NoRecords);
        }
        let mut span = mpcp_obs::span("selector.train")
            .attr("learner", learner.name())
            .attr("records", records.len())
            .attr("configs", configs.len());
        let mut per_uid: Vec<Dataset> =
            (0..configs.len()).map(|_| Dataset::new(NUM_FEATURES)).collect();
        let mut records_out_of_range = 0usize;
        let mut records_used = 0usize;
        for r in records {
            let uid = r.uid as usize;
            if uid >= configs.len() {
                records_out_of_range += 1;
                continue;
            }
            if configs[uid].excluded {
                continue;
            }
            let target = (r.runtime * SECS_TO_TARGET).max(MIN_TARGET_US);
            per_uid[uid].push(&features_of(r), target);
            records_used += 1;
        }
        let min_samples = opts.min_samples.max(1);
        // One chunk per configuration on the campaign scheduler, the
        // largest datasets first; results commit in uid order.
        let mut models = Vec::with_capacity(configs.len());
        let mut coverage = Vec::with_capacity(configs.len());
        let Ok(_steals) = schedule_chunks(
            0..per_uid.len() as u64,
            default_threads(),
            |uid| per_uid[uid as usize].len() as u64,
            |uid| {
                let uid = uid as usize;
                let data = &per_uid[uid];
                if configs[uid].excluded {
                    return (None, ConfigCoverage::Excluded);
                }
                if data.is_empty() {
                    return (None, ConfigCoverage::NoData);
                }
                if data.len() < min_samples {
                    return (
                        None,
                        ConfigCoverage::BelowThreshold { samples: data.len(), needed: min_samples },
                    );
                }
                let t = mpcp_obs::maybe_now();
                let fit = learner.try_fit(data);
                mpcp_obs::record_elapsed!("selector.model_fit_ns", t);
                match fit {
                    Ok(m) => (Some(m), ConfigCoverage::Trained { samples: data.len() }),
                    Err(e) => (None, ConfigCoverage::FitFailed { samples: data.len(), error: e }),
                }
            },
            |(m, c)| {
                models.push(m);
                coverage.push(c);
                Ok::<(), Infallible>(())
            },
        );
        let trained = models.iter().filter(|m| m.is_some()).count();
        if trained == 0 {
            return Err(SelectorError::NoTrainedModels {
                configs: configs.len(),
                usable_records: records_used,
            });
        }
        mpcp_obs::counter_add!("selector.models_trained", trained as u64);
        mpcp_obs::counter_add!(
            "selector.configs_degraded",
            coverage
                .iter()
                .filter(|c| {
                    matches!(
                        c,
                        ConfigCoverage::NoData
                            | ConfigCoverage::BelowThreshold { .. }
                            | ConfigCoverage::FitFailed { .. }
                    )
                })
                .count() as u64
        );
        span.set_attr("models", trained);
        let report = TrainReport { records_used, records_out_of_range, coverage };
        Ok((Selector { learner_name: learner.name(), models }, report))
    }

    /// Predicted running time (microseconds) of configuration `uid` on
    /// an instance, if that configuration is selectable.
    pub fn predict_uid(&self, uid: usize, instance: &Instance) -> Option<f64> {
        self.models[uid].as_ref().map(|m| m.predict(&instance.features()))
    }

    /// Predicted runtimes for all selectable configurations.
    pub fn predict_all(&self, instance: &Instance) -> Vec<(u32, f64)> {
        let x = instance.features();
        self.models
            .iter()
            .enumerate()
            .filter_map(|(uid, m)| m.as_ref().map(|m| (uid32(uid), m.predict(&x))))
            .collect()
    }

    /// One fused pass over the model table: every trained model's
    /// prediction folds straight into `(best, runner_up)` — no
    /// intermediate `Vec` on the uncached serving path.
    ///
    /// Tie and NaN semantics exactly mirror the `predict_all` +
    /// `min_by(total_cmp)` formulation this replaces: the *last* of
    /// equally minimal predictions wins, and with `finite_only` set
    /// non-finite predictions are skipped entirely (the `try_select`
    /// rule). The runner-up is the smallest prediction from any
    /// non-chosen uid, folded NaN-insensitively like the old
    /// `f64::min` scan — `+∞` when fewer than two finite candidates
    /// exist.
    fn fused_argmin(&self, x: &[f64; NUM_FEATURES], finite_only: bool) -> (Option<(u32, f64)>, f64) {
        let mut best: Option<(u32, f64)> = None;
        let mut runner_up = f64::INFINITY;
        let mut fold = |uid: u32, p: f64| {
            if finite_only && !p.is_finite() {
                return;
            }
            match best {
                None => best = Some((uid, p)),
                Some((_, bp)) => {
                    if p.total_cmp(&bp) != std::cmp::Ordering::Greater {
                        runner_up = runner_up.min(bp);
                        best = Some((uid, p));
                    } else {
                        runner_up = runner_up.min(p);
                    }
                }
            }
        };
        for (uid, m) in self.models.iter().enumerate() {
            let Some(m) = m else { continue };
            fold(uid32(uid), m.predict(x));
        }
        (best, runner_up)
    }

    /// The paper's selection rule: argmin of predicted runtime.
    /// Returns `(uid, predicted_microseconds)`.
    pub fn select(&self, instance: &Instance) -> (u32, f64) {
        let _span = mpcp_obs::span("select")
            .attr("instances", 1u64)
            .attr("models", self.model_count());
        let t = mpcp_obs::maybe_now();
        // total_cmp inside the fold: a NaN prediction (degenerate model)
        // must order deterministically instead of panicking mid-selection.
        let (best, runner_up) = self.fused_argmin(&instance.features(), false);
        let sel = best.expect("selector has no trained models");
        if mpcp_obs::enabled() {
            mpcp_obs::counter_add!("selector.queries", 1);
            mpcp_obs::counter_add!("selector.models_evaluated", self.model_count() as u64);
            if runner_up.is_finite() && sel.1 > 0.0 {
                let ppm = ((runner_up - sel.1) / sel.1 * 1e6).max(0.0);
                mpcp_obs::hist_record!("selector.margin_ppm", ppm as u64);
            }
        }
        mpcp_obs::record_elapsed!("selector.select_ns", t);
        sel
    }

    /// [`Selector::select`] that never panics: `None` when no trained
    /// model produces a finite prediction for the instance.
    pub fn try_select(&self, instance: &Instance) -> Option<(u32, f64)> {
        self.fused_argmin(&instance.features(), true).0
    }

    /// Total selection over partial training coverage: the model argmin
    /// when any trained model yields a finite prediction, otherwise the
    /// library's hard-coded decision logic — marked as a degraded
    /// selection so callers can report coverage honestly.
    ///
    /// On a selector trained from a complete grid this returns exactly
    /// what [`Selector::select`] returns, never degraded.
    pub fn select_with_fallback(&self, instance: &Instance, library: &MpiLibrary) -> Selection {
        let _span = mpcp_obs::span("select")
            .attr("instances", 1u64)
            .attr("models", self.model_count());
        let t = mpcp_obs::maybe_now();
        let sel = if let Some((uid, pred)) = self.try_select(instance) {
            mpcp_obs::counter_add!("selector.queries", 1);
            Selection { uid, predicted_us: Some(pred), degraded: false }
        } else {
            let topo = Topology::new(instance.nodes, instance.ppn);
            let uid = uid32(library.default_choice(instance.coll, instance.msize, &topo));
            mpcp_obs::counter_add!("selector.degraded_selections", 1);
            Selection { uid, predicted_us: None, degraded: true }
        };
        mpcp_obs::record_elapsed!("selector.select_ns", t);
        sel
    }

    /// Batched selection: the argmin rule of [`Selector::select`]
    /// applied to a block of instances at once.
    ///
    /// The feature matrix is assembled once (row-major) and split into
    /// row tiles fanned out on the campaign scheduler (a single tile —
    /// any batch of up to 256 rows — runs on the calling thread). Within
    /// a tile, every model evaluates the rows through its batch kernel
    /// into one reusable scratch buffer and the predictions fold
    /// straight into a fused per-row `(best, runner_up)` — no per-model
    /// prediction vectors are ever materialized. Agrees elementwise with
    /// calling [`Selector::select`] in a loop (ties broken toward the
    /// lower uid, which is also the order `predict_all` yields).
    pub fn select_batch(&self, instances: &[Instance]) -> Vec<(u32, f64)> {
        /// Rows per parallel tile: large enough to amortize the lockstep
        /// tree kernels, small enough that the scratch buffer stays in L1.
        const TILE: usize = 256;
        let mut span = mpcp_obs::span("select")
            .attr("instances", instances.len())
            .attr("models", self.model_count());
        let t = mpcp_obs::maybe_now();
        let mut xs = Vec::with_capacity(instances.len() * NUM_FEATURES);
        for inst in instances {
            xs.extend_from_slice(&inst.features());
        }
        // One tile of rows per parallel unit; each tile folds every
        // model's predictions (one reusable scratch buffer) into a fused
        // per-row `(best, runner_up)`. The runner-up feeds the margin
        // histogram below without a second pass over models.
        /// Per-tile result: fused `(uid, best)` per row plus the
        /// runner-up predictions feeding the margin histogram.
        type Tile = (Vec<(u32, f64)>, Vec<f64>);
        let ntiles = instances.len().div_ceil(TILE);
        let mut best: Vec<(u32, f64)> = Vec::with_capacity(instances.len());
        let mut runner_up: Vec<f64> = Vec::with_capacity(instances.len());
        let Ok(_steals) = schedule_chunks(
            0..ntiles as u64,
            default_threads(),
            |_| 0,
            |tile| -> Tile {
                let start = tile as usize * TILE;
                let len = TILE.min(instances.len() - start);
                let xs_tile = &xs[start * NUM_FEATURES..][..len * NUM_FEATURES];
                let mut bests = vec![(u32::MAX, f64::INFINITY); len];
                let mut seconds = vec![f64::INFINITY; len];
                let mut preds = vec![0.0f64; len];
                for (uid, m) in self.models.iter().enumerate() {
                    let Some(m) = m else { continue };
                    m.predict_batch_into(xs_tile, NUM_FEATURES, &mut preds);
                    let u = uid32(uid);
                    for ((b, s), &p) in bests.iter_mut().zip(seconds.iter_mut()).zip(&preds) {
                        // `<=` mirrors `Iterator::min_by`, which keeps
                        // the LAST of equally minimal elements — so
                        // exact-tie behavior matches the scalar `select`
                        // path. The displaced best (or the losing
                        // prediction) folds NaN-insensitively into the
                        // runner-up, like `select`'s f64::min scan.
                        if p <= b.1 {
                            *s = s.min(b.1);
                            *b = (u, p);
                        } else {
                            *s = s.min(p);
                        }
                    }
                }
                (bests, seconds)
            },
            |(bests, seconds)| {
                best.extend_from_slice(&bests);
                runner_up.extend_from_slice(&seconds);
                Ok::<(), Infallible>(())
            },
        );
        assert!(
            instances.is_empty() || best[0].0 != u32::MAX,
            "selector has no trained models"
        );
        if mpcp_obs::enabled() {
            let models = self.model_count();
            mpcp_obs::counter_add!("selector.queries", instances.len() as u64);
            mpcp_obs::counter_add!(
                "selector.models_evaluated",
                (models * instances.len()) as u64
            );
            // Predicted-vs-chosen margin: how far the runner-up sits
            // above the chosen configuration, in parts per million.
            for (&(_, pred), &second) in best.iter().zip(&runner_up) {
                if second.is_finite() && pred > 0.0 {
                    let ppm = ((second - pred) / pred * 1e6).max(0.0);
                    mpcp_obs::hist_record!("selector.margin_ppm", ppm as u64);
                }
            }
            span.set_attr("queries", instances.len());
        }
        mpcp_obs::record_elapsed!("selector.select_ns", t);
        best
    }

    /// Name of the underlying learner ("KNN", "GAM", "XGBoost", ...).
    pub fn learner_name(&self) -> &'static str {
        self.learner_name
    }

    /// The full model table, `None` for untrained uids (persistence).
    pub(crate) fn models(&self) -> &[Option<Model>] {
        &self.models
    }

    /// Reassemble a selector from decoded parts (persistence). The
    /// artifact decoder validates the table against its coverage report
    /// before calling this.
    pub(crate) fn from_parts(learner_name: &'static str, models: Vec<Option<Model>>) -> Selector {
        Selector { learner_name, models }
    }

    /// Number of trained (selectable) models.
    pub fn model_count(&self) -> usize {
        self.models.iter().filter(|m| m.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_benchmark::{BenchConfig, DatasetSpec};
    use mpcp_collectives::Collective;

    fn trained(learner: Learner) -> (Selector, DatasetSpec, Vec<Record>) {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let data = spec.generate(&lib, &BenchConfig::quick());
        let selector =
            Selector::train(&learner, &data.records, lib.configs(spec.coll)).unwrap();
        (selector, spec, data.records)
    }

    #[test]
    fn trains_one_model_per_selectable_config() {
        let (selector, spec, _) = trained(Learner::knn());
        let lib = spec.library(None);
        let selectable = lib.selectable(spec.coll).count();
        assert_eq!(selector.model_count(), selectable);
    }

    #[test]
    fn select_returns_a_selectable_uid() {
        for learner in [Learner::knn(), Learner::gam(), Learner::xgboost()] {
            let (selector, spec, _) = trained(learner);
            let lib = spec.library(None);
            let inst = Instance::new(Collective::Allreduce, 1024, 3, 2);
            let (uid, pred) = selector.select(&inst);
            assert!(pred > 0.0, "{}", selector.learner_name());
            assert!(!lib.configs(spec.coll)[uid as usize].excluded);
        }
    }

    #[test]
    fn knn_predictions_stay_within_training_range() {
        // KNN averages K training targets, so every prediction must lie
        // within the per-configuration target range.
        let (selector, _, records) = trained(Learner::knn());
        let mut lo = std::collections::HashMap::new();
        let mut hi = std::collections::HashMap::new();
        for r in &records {
            let t = r.runtime * 1e6;
            let l = lo.entry(r.uid).or_insert(t);
            *l = l.min(t);
            let h = hi.entry(r.uid).or_insert(t);
            *h = h.max(t);
        }
        let mut checked = 0;
        for r in records.iter().step_by(7) {
            let inst = Instance::new(Collective::Allreduce, r.msize, r.nodes, r.ppn);
            if let Some(pred) = selector.predict_uid(r.uid as usize, &inst) {
                assert!(
                    pred >= lo[&r.uid] - 1e-9 && pred <= hi[&r.uid] + 1e-9,
                    "uid {} pred {pred} outside [{}, {}]",
                    r.uid,
                    lo[&r.uid],
                    hi[&r.uid]
                );
                checked += 1;
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn excluded_configs_are_never_selected() {
        // d-style bcast library has an excluded config (alg 8).
        let mut spec = DatasetSpec::tiny_for_tests();
        spec.coll = Collective::Bcast;
        let lib = spec.library(None);
        let data = spec.generate(&lib, &BenchConfig::quick());
        let selector =
            Selector::train(&Learner::knn(), &data.records, lib.configs(spec.coll)).unwrap();
        let configs = lib.configs(spec.coll);
        for m in [1u64, 1024, 1 << 20] {
            let inst = Instance::new(Collective::Bcast, m, 3, 2);
            let (uid, _) = selector.select(&inst);
            assert!(!configs[uid as usize].excluded);
        }
    }

    #[test]
    fn predict_all_covers_all_models() {
        let (selector, _, _) = trained(Learner::gam());
        let inst = Instance::new(Collective::Allreduce, 64, 2, 2);
        let all = selector.predict_all(&inst);
        assert_eq!(all.len(), selector.model_count());
        assert!(all.iter().all(|(_, p)| p.is_finite() && *p > 0.0));
    }

    #[test]
    fn empty_records_are_a_typed_error() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let err = Selector::train(&Learner::knn(), &[], lib.configs(spec.coll)).map(|_| ()).unwrap_err();
        assert_eq!(err, SelectorError::NoRecords);
        assert!(format!("{err}").contains("no training records"));
    }

    #[test]
    fn out_of_range_uids_are_skipped_not_fatal() {
        // A benchmark file written against a newer registry: uids past
        // the end of `configs` must degrade, not abort.
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let configs = lib.configs(spec.coll);
        let mut records = spec.generate(&lib, &BenchConfig::quick()).records;
        let total = records.len();
        let alien = Record { uid: configs.len() as u32 + 3, ..records[0] };
        records.push(alien);
        let (selector, report) = Selector::train_with_report(
            &Learner::knn(),
            &records,
            configs,
            &TrainOptions::default(),
        )
        .unwrap();
        assert_eq!(report.records_out_of_range, 1);
        assert_eq!(report.records_used, total);
        assert_eq!(selector.model_count(), report.trained());
        assert!(report.summary().contains("out-of-range"));
    }

    #[test]
    fn min_samples_threshold_degrades_thin_configs() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let configs = lib.configs(spec.coll);
        let data = spec.generate(&lib, &BenchConfig::quick());
        // Keep only two records for uid 0, all records otherwise.
        let mut kept0 = 0;
        let records: Vec<Record> = data
            .records
            .iter()
            .filter(|r| {
                if r.uid != 0 {
                    return true;
                }
                kept0 += 1;
                kept0 <= 2
            })
            .copied()
            .collect();
        let opts = TrainOptions { min_samples: 3 };
        let (selector, report) =
            Selector::train_with_report(&Learner::knn(), &records, configs, &opts).unwrap();
        assert_eq!(
            report.coverage[0],
            ConfigCoverage::BelowThreshold { samples: 2, needed: 3 }
        );
        assert!(selector.predict_uid(0, &Instance::new(spec.coll, 16, 2, 1)).is_none());
        assert_eq!(report.degraded(), 1);
    }

    #[test]
    fn fallback_kicks_in_only_without_models() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let data = spec.generate(&lib, &BenchConfig::quick());
        let selector =
            Selector::train(&Learner::knn(), &data.records, lib.configs(spec.coll)).unwrap();
        let inst = Instance::new(spec.coll, 1024, 3, 2);
        // Full coverage: fallback result is exactly select()'s result.
        let sel = selector.select_with_fallback(&inst, &lib);
        let (uid, pred) = selector.select(&inst);
        assert_eq!(sel, Selection { uid, predicted_us: Some(pred), degraded: false });

        // Records for a single uid only: the selector trains, and the
        // fallback never fires because that one model covers queries.
        let only: Vec<Record> = data.records.iter().filter(|r| r.uid == 1).copied().collect();
        let (thin, report) = Selector::train_with_report(
            &Learner::knn(),
            &only,
            lib.configs(spec.coll),
            &TrainOptions::default(),
        )
        .unwrap();
        assert_eq!(report.trained(), 1);
        let sel = thin.select_with_fallback(&inst, &lib);
        assert!(!sel.degraded);
        assert_eq!(sel.uid, 1);
    }

    #[test]
    fn all_records_out_of_range_is_no_trained_models() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let configs = lib.configs(spec.coll);
        let data = spec.generate(&lib, &BenchConfig::quick());
        let records: Vec<Record> = data
            .records
            .iter()
            .map(|r| Record { uid: r.uid + configs.len() as u32, ..*r })
            .collect();
        let err = Selector::train(&Learner::knn(), &records, configs).map(|_| ()).unwrap_err();
        assert!(matches!(err, SelectorError::NoTrainedModels { usable_records: 0, .. }));
    }
}
