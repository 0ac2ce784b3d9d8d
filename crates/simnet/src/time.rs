//! Simulation time: integer picoseconds.
//!
//! Picosecond resolution keeps per-byte service times exact for link rates
//! up to ~1 TB/s while still allowing simulated horizons of several months
//! in a `u64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) in simulated time, in integer picoseconds.
///
/// `SimTime` is used both for absolute timestamps and for durations; the
/// arithmetic provided is the small closed set needed by the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; used as an "unreached" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from seconds (model parameters are given in seconds).
    ///
    /// Negative inputs saturate to zero; this keeps noise-model callers
    /// safe without branching at each call site.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime(0);
        }
        SimTime((s * 1e12).round() as u64)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// This time expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// This time expressed in microseconds (the unit the paper reports).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Raw picosecond count.
    #[inline]
    pub fn picos(self) -> u64 {
        self.0
    }

    /// Saturating difference (`self - other`, clamped at zero).
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.5e-6);
        assert_eq!(t.0, 1_500_000);
        assert!((t.as_secs_f64() - 1.5e-6).abs() < 1e-18);
    }

    #[test]
    fn negative_seconds_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn micros_roundtrip() {
        let t = SimTime::from_micros_f64(84.0);
        assert!((t.as_micros_f64() - 84.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a + b, SimTime(140));
        assert_eq!(a - b, SimTime(60));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_iterates() {
        let total: SimTime = [SimTime(1), SimTime(2), SimTime(3)].into_iter().sum();
        assert_eq!(total, SimTime(6));
    }
}
