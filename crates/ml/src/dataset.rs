//! Row-major feature/target storage shared by all learners.


/// A regression dataset: `n` rows of `nfeat` features plus one target
/// each, stored row-major in flat vectors.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    nfeat: usize,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Dataset {
    /// Create an empty dataset with `nfeat` features per row.
    pub fn new(nfeat: usize) -> Self {
        assert!(nfeat > 0, "dataset needs at least one feature");
        Dataset { nfeat, x: Vec::new(), y: Vec::new() }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if `features.len() != nfeat` or any value is non-finite —
    /// learners assume clean inputs.
    pub fn push(&mut self, features: &[f64], target: f64) {
        assert_eq!(features.len(), self.nfeat, "feature arity mismatch");
        assert!(
            features.iter().all(|v| v.is_finite()) && target.is_finite(),
            "non-finite value in dataset row"
        );
        self.x.extend_from_slice(features);
        self.y.push(target);
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Features per row.
    #[inline]
    pub fn nfeat(&self) -> usize {
        self.nfeat
    }

    /// Feature row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.nfeat..(i + 1) * self.nfeat]
    }

    /// All targets.
    #[inline]
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Feature `f` of row `i`.
    #[inline]
    pub fn at(&self, i: usize, f: usize) -> f64 {
        self.x[i * self.nfeat + f]
    }

    /// Column `f` gathered into a fresh vector.
    pub fn column(&self, f: usize) -> Vec<f64> {
        (0..self.len()).map(|i| self.at(i, f)).collect()
    }

    /// Subset by row indices (bootstrap/CV helper).
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let mut d = Dataset::new(self.nfeat);
        for &i in idx {
            d.push(self.row(i), self.y[i]);
        }
        d
    }

    /// Iterate `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        (0..self.len()).map(|i| (self.row(i), self.y[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 2.0], 10.0);
        d.push(&[3.0, 4.0], 20.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.at(0, 1), 2.0);
        assert_eq!(d.column(0), vec![1.0, 3.0]);
        assert_eq!(d.targets(), &[10.0, 20.0]);
    }

    #[test]
    fn subset_selects_rows() {
        let mut d = Dataset::new(1);
        for i in 0..5 {
            d.push(&[i as f64], i as f64 * 10.0);
        }
        let s = d.subset(&[4, 0, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.targets(), &[40.0, 0.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_panics() {
        let mut d = Dataset::new(1);
        d.push(&[f64::NAN], 0.0);
    }
}
