//! Seeded measurement-noise model.
//!
//! MPI time measurements are right-skewed: most repetitions sit near the
//! minimum, with occasional heavy outliers (OS noise, congestion bursts).
//! We model an observation as `base · exp(σ·Z)` with `Z ~ N(0,1)`, times
//! an outlier factor with small probability — a standard model for
//! benchmark timing noise. All randomness derives from SplitMix64
//! streams, so every grid cell's observations are a pure function of the
//! dataset seed and the cell coordinates.


/// Multiplicative log-normal noise with outliers.
#[derive(Clone, Copy, Debug)]
pub struct NoiseModel {
    /// Log-normal sigma (≈ relative standard deviation for small values).
    pub sigma: f64,
    /// Probability of an outlier repetition.
    pub outlier_prob: f64,
    /// Multiplier applied to outlier repetitions.
    pub outlier_scale: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel { sigma: 0.03, outlier_prob: 0.01, outlier_scale: 4.0 }
    }
}

impl NoiseModel {
    /// A noise-free model (for calibration tests).
    pub fn none() -> NoiseModel {
        NoiseModel { sigma: 0.0, outlier_prob: 0.0, outlier_scale: 1.0 }
    }

    /// Draw one observation around `base_secs` from the stream.
    pub fn observe(&self, base_secs: f64, stream: &mut SplitMix64) -> f64 {
        let z = stream.next_gaussian();
        let mut v = base_secs * (self.sigma * z).exp();
        if self.outlier_prob > 0.0 && stream.next_f64() < self.outlier_prob {
            v *= self.outlier_scale;
        }
        v
    }
}

/// SplitMix64: tiny, fast, seedable; passes BigCrush for this use.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
    /// Cached second Box–Muller variate.
    spare: Option<f64>,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed, spare: None }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller (pairs cached).
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Avoid ln(0).
        let u1 = (1.0 - self.next_f64()).max(1e-300);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }
}

/// Derive a stream for a grid cell from its coordinates (order-free
/// reproducibility).
pub fn cell_stream(seed: u64, uid: u32, nodes: u32, ppn: u32, msize: u64) -> SplitMix64 {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for v in [uid as u64, nodes as u64, ppn as u64, msize] {
        h ^= v.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        h = h.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    SplitMix64::new(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments() {
        let mut s = SplitMix64::new(42);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let z = s.next_gaussian();
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn uniform_range() {
        let mut s = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = s.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn observations_center_on_base() {
        let nm = NoiseModel { sigma: 0.05, outlier_prob: 0.0, outlier_scale: 1.0 };
        let mut s = SplitMix64::new(3);
        let n = 20_000;
        let base = 1e-4;
        let mean: f64 = (0..n).map(|_| nm.observe(base, &mut s)).sum::<f64>() / n as f64;
        // E[exp(σZ)] = exp(σ²/2) ≈ 1.00125 — within a relative 1%.
        assert!((mean / base - 1.0).abs() < 0.01, "ratio {}", mean / base);
    }

    #[test]
    fn noise_free_model_is_exact() {
        let nm = NoiseModel::none();
        let mut s = SplitMix64::new(9);
        assert_eq!(nm.observe(0.5, &mut s), 0.5);
    }

    #[test]
    fn cell_streams_are_reproducible_and_distinct() {
        let a1 = cell_stream(1, 2, 3, 4, 5).next_u64();
        let a2 = cell_stream(1, 2, 3, 4, 5).next_u64();
        assert_eq!(a1, a2);
        let b = cell_stream(1, 2, 3, 4, 6).next_u64();
        assert_ne!(a1, b);
        let c = cell_stream(2, 2, 3, 4, 5).next_u64();
        assert_ne!(a1, c);
    }

    #[test]
    fn outliers_occur_at_configured_rate() {
        let nm = NoiseModel { sigma: 0.0, outlier_prob: 0.1, outlier_scale: 10.0 };
        let mut s = SplitMix64::new(11);
        let n = 50_000;
        let outliers = (0..n).filter(|_| nm.observe(1.0, &mut s) > 5.0).count();
        let rate = outliers as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }
}
