//! Cubic B-spline bases on quantile knots — the smoother inside the GAM.

// Index-based loops are clearer for these numeric kernels.
#![allow(clippy::needless_range_loop)]


/// Spline order (cubic = 4).
pub const ORDER: usize = 4;

/// A clamped B-spline basis for one feature.
#[derive(Clone, Debug)]
pub struct BsplineBasis {
    /// Full (clamped) knot vector.
    knots: Vec<f64>,
    lo: f64,
    hi: f64,
}

impl BsplineBasis {
    /// Build a basis whose interior knots sit at quantiles of `values`.
    /// Returns `None` when the feature is degenerate (fewer than two
    /// distinct values) — the GAM then drops its smooth term.
    pub fn from_quantiles(values: &[f64], interior: usize) -> Option<BsplineBasis> {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted.dedup();
        if sorted.len() < 2 {
            return None;
        }
        let lo = *sorted.first()?;
        let hi = *sorted.last()?;
        // Interior knots at equally spaced quantiles of the distinct
        // values, deduplicated and kept strictly inside (lo, hi).
        let mut inner = Vec::new();
        for q in 1..=interior {
            let f = q as f64 / (interior as f64 + 1.0);
            let idx = ((sorted.len() - 1) as f64 * f).round() as usize;
            let v = sorted[idx];
            if v > lo && v < hi && inner.last() != Some(&v) {
                inner.push(v);
            }
        }
        let mut knots = Vec::with_capacity(inner.len() + 2 * ORDER);
        knots.extend(std::iter::repeat_n(lo, ORDER));
        knots.extend(inner);
        knots.extend(std::iter::repeat_n(hi, ORDER));
        Some(BsplineBasis { knots, lo, hi })
    }

    /// Number of basis functions.
    pub fn len(&self) -> usize {
        self.knots.len() - ORDER
    }

    /// True when the basis is empty (never produced by `from_quantiles`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate all basis functions at `x` (clamped to the training
    /// range, giving constant extrapolation at the boundaries).
    pub fn eval(&self, x: f64) -> Vec<f64> {
        let x = x.clamp(self.lo, self.hi);
        let n = self.len();
        let t = &self.knots;
        let mut b = vec![0.0; n];
        // Degree-0 seed: indicator of the knot span containing x.
        // The clamped vector has zero-width spans at the ends; pick the
        // rightmost span whose left knot ≤ x < right knot (with the final
        // span closed on the right).
        let mut span = usize::MAX;
        for i in 0..(t.len() - 1) {
            if t[i] <= x && (x < t[i + 1] || (x == self.hi && t[i + 1] == self.hi && t[i] < t[i + 1])) {
                span = i;
            }
        }
        if span == usize::MAX {
            // x == lo == all left knots; first real span starts at ORDER-1.
            span = ORDER - 1;
        }
        let mut work = vec![0.0; t.len() - 1];
        work[span] = 1.0;
        // Cox–de Boor recursion up to the cubic degree.
        for k in 1..ORDER {
            for i in 0..(t.len() - 1 - k) {
                let d1 = t[i + k] - t[i];
                let d2 = t[i + k + 1] - t[i + 1];
                let a = if d1 > 0.0 { (x - t[i]) / d1 * work[i] } else { 0.0 };
                let c = if d2 > 0.0 { (t[i + k + 1] - x) / d2 * work[i + 1] } else { 0.0 };
                work[i] = a + c;
            }
        }
        b.copy_from_slice(&work[..n]);
        b
    }

    /// Second-difference penalty matrix `DᵀD` (size `len × len`) as a
    /// dense row-major block, the P-spline wiggliness penalty.
    pub fn penalty(&self) -> Vec<Vec<f64>> {
        let n = self.len();
        let mut s = vec![vec![0.0; n]; n];
        if n < 3 {
            return s;
        }
        for r in 0..(n - 2) {
            // D row: [1, -2, 1] at columns r, r+1, r+2.
            let cols = [r, r + 1, r + 2];
            let vals = [1.0, -2.0, 1.0];
            for (ci, &c1) in cols.iter().enumerate() {
                for (cj, &c2) in cols.iter().enumerate() {
                    s[c1][c2] += vals[ci] * vals[cj];
                }
            }
        }
        s
    }
}

impl crate::persist::Persist for BsplineBasis {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_f64s(&self.knots);
        w.put_f64(self.lo);
        w.put_f64(self.hi);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<BsplineBasis, crate::persist::CodecError> {
        let knots = r.get_f64s()?;
        // `from_quantiles` always emits ORDER repeats of each boundary;
        // `len()` (= knots.len() - ORDER) underflows on anything shorter.
        if knots.len() < 2 * ORDER {
            return Err(crate::persist::CodecError::invalid(format!(
                "bspline basis has {} knot(s), needs at least {}",
                knots.len(),
                2 * ORDER
            )));
        }
        let lo = r.get_f64()?;
        let hi = r.get_f64()?;
        Ok(BsplineBasis { knots, lo, hi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn partition_of_unity() {
        let b = BsplineBasis::from_quantiles(&grid(50), 8).unwrap();
        for &x in &[0.0, 0.3, 7.7, 25.0, 48.9, 49.0] {
            let v = b.eval(x);
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "sum {s} at x={x}");
            assert!(v.iter().all(|&e| e >= -1e-12));
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let b = BsplineBasis::from_quantiles(&grid(10), 4).unwrap();
        assert_eq!(b.eval(-5.0), b.eval(0.0));
        assert_eq!(b.eval(100.0), b.eval(9.0));
    }

    #[test]
    fn degenerate_feature_returns_none() {
        assert!(BsplineBasis::from_quantiles(&[3.0, 3.0, 3.0], 8).is_none());
        assert!(BsplineBasis::from_quantiles(&[], 8).is_none());
    }

    #[test]
    fn two_distinct_values_still_work() {
        let b = BsplineBasis::from_quantiles(&[0.0, 1.0, 0.0, 1.0], 8).unwrap();
        assert!(b.len() >= ORDER);
        let s: f64 = b.eval(0.5).iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn penalty_annihilates_linear_functions() {
        // DᵀD β = 0 when β is linear in index: second differences vanish.
        let b = BsplineBasis::from_quantiles(&grid(30), 6).unwrap();
        let n = b.len();
        let s = b.penalty();
        let beta: Vec<f64> = (0..n).map(|i| 2.0 + 3.0 * i as f64).collect();
        for row in 0..n {
            let v: f64 = (0..n).map(|c| s[row][c] * beta[c]).sum();
            assert!(v.abs() < 1e-9, "row {row}: {v}");
        }
    }

    #[test]
    fn basis_is_local() {
        let b = BsplineBasis::from_quantiles(&grid(100), 8).unwrap();
        let v = b.eval(5.0);
        let nonzero = v.iter().filter(|&&e| e > 1e-12).count();
        assert!(nonzero <= ORDER, "cubic splines have ≤ 4 active functions, got {nonzero}");
    }
}
