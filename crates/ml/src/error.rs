//! Typed fitting errors.
//!
//! Every learner exposes a fallible `try_fit` next to its panicking
//! `fit`: degenerate inputs (empty per-configuration datasets, corrupt
//! targets) are expected in partial benchmark grids, and the selection
//! layer maps a [`FitError`] to "no model for this configuration"
//! instead of aborting the whole training run.

use std::fmt;

use crate::dataset::Dataset;

/// Why a learner could not be fitted on a dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FitError {
    /// The dataset has no rows at all.
    EmptyDataset {
        /// Learner display name.
        learner: &'static str,
    },
    /// The dataset has rows, but fewer than the learner needs.
    TooFewRows {
        /// Learner display name.
        learner: &'static str,
        /// Rows available.
        rows: usize,
        /// Rows required.
        needed: usize,
    },
    /// A positive-target objective (Gamma/Tweedie/log link) was given a
    /// zero or negative target.
    NonPositiveTarget {
        /// Learner display name.
        learner: &'static str,
    },
    /// A feature or target is NaN or infinite.
    NonFiniteData {
        /// Learner display name.
        learner: &'static str,
    },
    /// The fitted tree ensemble exceeds the packed traversal layout
    /// ([`crate::flat::LayoutError`]), e.g. too many nodes.
    EnsembleLayout {
        /// Learner display name.
        learner: &'static str,
        /// The layout limit that was exceeded.
        detail: String,
    },
}

impl FitError {
    /// The learner that refused the dataset.
    pub fn learner(&self) -> &'static str {
        match self {
            FitError::EmptyDataset { learner }
            | FitError::TooFewRows { learner, .. }
            | FitError::NonPositiveTarget { learner }
            | FitError::NonFiniteData { learner }
            | FitError::EnsembleLayout { learner, .. } => learner,
        }
    }
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyDataset { learner } => {
                write!(f, "cannot fit {learner} on an empty dataset")
            }
            FitError::TooFewRows { learner, rows, needed } => {
                write!(f, "cannot fit {learner}: {rows} row(s), needs at least {needed}")
            }
            FitError::NonPositiveTarget { learner } => {
                write!(f, "{learner}: positive-target objective needs strictly positive targets")
            }
            FitError::NonFiniteData { learner } => {
                write!(f, "{learner}: dataset contains NaN or infinite values")
            }
            FitError::EnsembleLayout { learner, detail } => {
                write!(f, "{learner}: fitted ensemble exceeds the packed tree layout: {detail}")
            }
        }
    }
}

impl std::error::Error for FitError {}

impl crate::persist::Persist for FitError {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        match self {
            FitError::EmptyDataset { learner } => {
                w.put_u8(0);
                w.put_str(learner);
            }
            FitError::TooFewRows { learner, rows, needed } => {
                w.put_u8(1);
                w.put_str(learner);
                w.put_len(*rows);
                w.put_len(*needed);
            }
            FitError::NonPositiveTarget { learner } => {
                w.put_u8(2);
                w.put_str(learner);
            }
            FitError::NonFiniteData { learner } => {
                w.put_u8(3);
                w.put_str(learner);
            }
            FitError::EnsembleLayout { learner, detail } => {
                w.put_u8(4);
                w.put_str(learner);
                w.put_str(detail);
            }
        }
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<FitError, crate::persist::CodecError> {
        use crate::persist::CodecError;
        let tag = r.get_u8()?;
        let name = r.get_string()?;
        let learner = crate::model::learner_name_static(&name)
            .ok_or_else(|| CodecError::invalid(format!("unknown learner name {name:?}")))?;
        Ok(match tag {
            0 => FitError::EmptyDataset { learner },
            1 => {
                let rows = r.get_len(0)?;
                let needed = r.get_len(0)?;
                FitError::TooFewRows { learner, rows, needed }
            }
            2 => FitError::NonPositiveTarget { learner },
            3 => FitError::NonFiniteData { learner },
            4 => FitError::EnsembleLayout { learner, detail: r.get_string()? },
            b => return Err(CodecError::invalid(format!("fit-error tag {b}"))),
        })
    }
}

/// Shared pre-fit validation: non-empty, finite, and (optionally)
/// strictly positive targets.
pub(crate) fn validate(
    learner: &'static str,
    data: &Dataset,
    needs_positive_targets: bool,
) -> Result<(), FitError> {
    if data.is_empty() {
        return Err(FitError::EmptyDataset { learner });
    }
    for i in 0..data.len() {
        if !data.row(i).iter().all(|v| v.is_finite()) {
            return Err(FitError::NonFiniteData { learner });
        }
    }
    if !data.targets().iter().all(|y| y.is_finite()) {
        return Err(FitError::NonFiniteData { learner });
    }
    if needs_positive_targets && !data.targets().iter().all(|&y| y > 0.0) {
        return Err(FitError::NonPositiveTarget { learner });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = FitError::NonPositiveTarget { learner: "GAM" };
        assert!(format!("{e}").contains("strictly positive"));
        assert_eq!(e.learner(), "GAM");
        let e = FitError::TooFewRows { learner: "KNN", rows: 2, needed: 5 };
        assert!(format!("{e}").contains("2 row(s)"));
    }

    #[test]
    fn validate_catches_degenerate_datasets() {
        // NonFiniteData is defense-in-depth only: `Dataset::push`
        // rejects NaN at insertion.
        let empty = Dataset::new(2);
        assert_eq!(
            validate("X", &empty, false),
            Err(FitError::EmptyDataset { learner: "X" })
        );
        let mut neg = Dataset::new(1);
        neg.push(&[1.0], -2.0);
        assert!(validate("X", &neg, false).is_ok());
        assert_eq!(
            validate("X", &neg, true),
            Err(FitError::NonPositiveTarget { learner: "X" })
        );
    }

    #[test]
    fn ensemble_layout_errors_round_trip() {
        use crate::persist::{ByteReader, ByteWriter, Persist};
        let e = FitError::EnsembleLayout {
            learner: "XGBoost",
            detail: "split feature 300 exceeds the limit of 255".into(),
        };
        let mut w = ByteWriter::new();
        e.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(FitError::decode(&mut ByteReader::new(&bytes)), Ok(e));
    }
}
