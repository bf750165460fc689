//! Descriptive statistics for experiment reporting.
//!
//! Every figure in the paper shows the standard deviation of the samples as
//! error bars; [`OnlineStats`] provides numerically stable (Welford) running
//! moments, and [`Summary`] is the frozen result attached to each reported
//! series point.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance accumulator (Welford's method).
///
/// ```
/// use vpu_num::OnlineStats;
/// let s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.variance(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold one observation into the accumulator.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator); zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Freeze into a reportable summary.
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            stddev: self.stddev(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Frozen sample statistics: one point (with its error bar) in a figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub n: u64,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub max: f64,
}

/// Arithmetic mean of a slice; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation of a slice; 0 for fewer than two elements.
pub fn stddev(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<OnlineStats>().stddev()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.summary().min, 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with n-1 denominator: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn slice_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Welford mean matches the naive mean.
        #[test]
        fn mean_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: OnlineStats = xs.iter().copied().collect();
            let naive = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        }

        /// Variance is non-negative and min <= mean <= max.
        #[test]
        fn invariants(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let s: OnlineStats = xs.iter().copied().collect();
            prop_assert!(s.variance() >= 0.0);
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }
    }
}
