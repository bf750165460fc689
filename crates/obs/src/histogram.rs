//! Log-bucketed latency histogram.
//!
//! HDR-style layout: buckets are grouped by the value's magnitude (its
//! highest set bit) with 32 linear sub-buckets per octave, giving a
//! worst-case quantile error of ~3% across the full `u64` nanosecond
//! range in a fixed 2 KiB footprint. Quantiles report the bucket's upper
//! bound, so they never under-state a latency.

use desim::Duration;

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32 linear sub-buckets per octave

/// Fixed-size log-bucketed histogram of durations (nanoseconds).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        // Octaves 0..=63, SUB sub-buckets each; values below SUB land in
        // the first linear region exactly.
        LogHistogram { counts: vec![0; (64 * SUB) as usize], total: 0, sum_ns: 0, max_ns: 0 }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() as u64; // >= SUB_BITS as u64
        let shift = octave - SUB_BITS as u64;
        let sub = (ns >> shift) & (SUB - 1);
        ((octave - SUB_BITS as u64 + 1) * SUB + sub) as usize
    }

    /// Upper bound of the bucket at `idx` (inclusive).
    fn upper_bound(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let group = idx / SUB - 1;
        let sub = idx % SUB;
        // Bucket covers [ (SUB+sub) << group, ((SUB+sub+1) << group) - 1 ].
        ((SUB + sub + 1) << group) - 1
    }

    pub fn record(&mut self, d: Duration) {
        let ns = d.nanos();
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.total as u128) as u64)
    }

    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Quantile `q` in [0, 1]: the smallest bucket upper bound below
    /// which at least `q` of the samples fall (capped at the recorded
    /// maximum, so `quantile(1.0) == max()`).
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(Self::upper_bound(i).min(self.max_ns));
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_in_linear_region() {
        let mut h = LogHistogram::new();
        for ns in [0u64, 1, 5, 31] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.quantile(0.25).nanos(), 0);
        assert_eq!(h.max().nanos(), 31);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LogHistogram::new();
        // 1..=10_000 microseconds, uniformly.
        for us in 1..=10_000u64 {
            h.record(Duration::from_nanos(us * 1_000));
        }
        for (q, expect_us) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).nanos() as f64 / 1_000.0;
            let err = (got - expect_us).abs() / expect_us;
            assert!(err < 0.04, "q{q}: got {got} want ~{expect_us} (err {err})");
        }
    }

    #[test]
    fn quantiles_never_understate() {
        let mut h = LogHistogram::new();
        let v = Duration::from_millis(101.3);
        h.record(v);
        assert!(h.quantile(0.5) >= v);
        assert_eq!(h.quantile(1.0), v);
        assert_eq!(h.mean(), v);
    }
}
