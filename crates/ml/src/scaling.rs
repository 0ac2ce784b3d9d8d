//! Feature standardization (z-scores), as the paper applies before KNN.


use crate::dataset::Dataset;

/// Per-feature mean/standard-deviation scaler.
#[derive(Clone, Debug)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fit to a dataset's feature columns. Constant columns get a unit
    /// standard deviation so they scale to a constant zero instead of
    /// dividing by zero.
    pub fn fit(data: &Dataset) -> StandardScaler {
        let d = data.nfeat();
        let n = data.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for i in 0..data.len() {
            for (f, m) in mean.iter_mut().enumerate() {
                *m += data.at(i, f);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for i in 0..data.len() {
            for (f, v) in var.iter_mut().enumerate() {
                let c = data.at(i, f) - mean[f];
                *v += c * c;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Number of feature columns the scaler was fitted on.
    pub(crate) fn dims(&self) -> usize {
        self.mean.len()
    }

    /// Scale one feature vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len());
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Scale a whole dataset (targets unchanged).
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.nfeat());
        for (x, y) in data.iter() {
            out.push(&self.transform(x), y);
        }
        out
    }
}

impl crate::persist::Persist for StandardScaler {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_f64s(&self.mean);
        w.put_f64s(&self.std);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<StandardScaler, crate::persist::CodecError> {
        let mean = r.get_f64s()?;
        let std = r.get_f64s()?;
        if std.len() != mean.len() {
            return Err(crate::persist::CodecError::invalid(format!(
                "scaler has {} means but {} stds",
                mean.len(),
                std.len()
            )));
        }
        Ok(StandardScaler { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zscores_have_zero_mean_unit_var() {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f64, 100.0 + 3.0 * i as f64], 0.0);
        }
        let sc = StandardScaler::fit(&d);
        let t = sc.transform_dataset(&d);
        for f in 0..2 {
            let col = t.column(f);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9, "var {var}");
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let mut d = Dataset::new(1);
        d.push(&[5.0], 0.0);
        d.push(&[5.0], 0.0);
        let sc = StandardScaler::fit(&d);
        let t = sc.transform(&[5.0]);
        assert_eq!(t[0], 0.0);
        assert!(sc.transform(&[6.0])[0].is_finite());
    }
}
