//! # mpcp-ml — from-scratch regression learners
//!
//! The paper fits one runtime-regression model per algorithm
//! configuration using three learners chosen for out-of-the-box
//! robustness: **XGBoost** (gradient-boosted trees with a Tweedie/Gamma
//! objective), **KNN** (K = 5, standardized inputs), and **GAM** (Gamma
//! family, log link, spline smoothers). This crate implements all three
//! from first principles — no external ML or linear-algebra
//! dependencies — plus the baselines the paper tried and rejected
//! (random forest, linear regression), so the rejection can be
//! reproduced too.
//!
//! * [`gbt`] — second-order (Newton) gradient boosting; squared-error,
//!   Gamma-deviance and Tweedie objectives with a log link, matching
//!   `xgboost`'s `reg:gamma` / `reg:tweedie`. Two split kernels: the
//!   exact-greedy sorted-column search ([`tree`]) and the default
//!   quantized-histogram search ([`hist`]) with parent − sibling
//!   subtraction; fitted ensembles are flattened to structure-of-arrays
//!   form ([`flat`]) for fast scalar and batched prediction.
//! * [`knn`] — z-scored features, kd-tree accelerated, mean aggregation.
//! * [`gam`] — penalized cubic B-spline additive model fitted by P-IRLS
//!   with the Gamma family and log link (the paper's `mgcv` call).
//! * [`forest`], [`linear`] — rejected-baseline ablations.
//! * [`linalg`], [`bspline`], [`kdtree`] — the supporting numerics.
//!
//! All learners implement the same [`Learner`] → [`Model`] flow and are
//! deliberately run with fixed default hyper-parameters (the paper's
//! "no tuning" protocol). Fitted models additionally implement
//! [`persist::Persist`], a hand-rolled checksummed little-endian codec
//! whose round trip is bit-identical (no serde).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bspline;
pub mod cv;
pub mod dataset;
pub mod error;
pub mod flat;
pub mod forest;
pub mod gam;
pub mod gbt;
pub mod hist;
pub mod kdtree;
pub mod knn;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod scaling;
pub mod tree;

pub use dataset::Dataset;
pub use error::FitError;
pub use model::{Learner, Model};
pub use persist::{CodecError, Persist};
