//! Virtual time: nanosecond-resolution instants and durations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of virtual time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn max_of(a: SimTime, b: SimTime) -> SimTime {
        if a >= b {
            a
        } else {
            b
        }
    }

    /// Duration since an earlier instant (panics if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> Duration {
        assert!(self >= earlier, "time went backwards: {self} < {earlier}");
        Duration(self.0 - earlier.0)
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    pub fn from_micros(us: f64) -> Duration {
        assert!(us >= 0.0, "negative duration");
        Duration((us * 1e3).round() as u64)
    }

    pub fn from_millis(ms: f64) -> Duration {
        assert!(ms >= 0.0, "negative duration");
        Duration((ms * 1e6).round() as u64)
    }

    pub fn from_secs(s: f64) -> Duration {
        assert!(s >= 0.0, "negative duration");
        Duration((s * 1e9).round() as u64)
    }

    /// Time to move `bytes` at `bytes_per_sec` (rounded up to 1 ns).
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Duration {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        let ns = bytes as f64 / bytes_per_sec * 1e9;
        Duration((ns.ceil() as u64).max(if bytes > 0 { 1 } else { 0 }))
    }

    /// Time to run `cycles` at `hz` (rounded up to 1 ns for nonzero work).
    pub fn for_cycles(cycles: u64, hz: f64) -> Duration {
        assert!(hz > 0.0, "frequency must be positive");
        let ns = cycles as f64 / hz * 1e9;
        Duration((ns.ceil() as u64).max(if cycles > 0 { 1 } else { 0 }))
    }

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        self.since(other)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 += other.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, other: Duration) -> Duration {
        assert!(self.0 >= other.0, "negative duration");
        Duration(self.0 - other.0)
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, k: f64) -> Duration {
        assert!(k >= 0.0, "negative scale");
        Duration((self.0 as f64 * k).round() as u64)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis())
        } else {
            write!(f, "{:.3}s", self.as_secs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_millis(1.5).nanos(), 1_500_000);
        assert_eq!(Duration::from_micros(2.0).nanos(), 2_000);
        assert_eq!(Duration::from_secs(0.001).nanos(), 1_000_000);
        assert!((Duration(2_500_000).as_millis() - 2.5).abs() < 1e-12);
        assert!((SimTime(1_000_000_000).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(5.0);
        assert_eq!(t, SimTime(5_000_000));
        let d = t - SimTime(2_000_000);
        assert_eq!(d, Duration(3_000_000));
        assert_eq!(Duration(10) * 3u64, Duration(30));
        assert_eq!(Duration(10) * 2.5, Duration(25));
        assert_eq!(Duration(10) / 4, Duration(2));
        let total: Duration = [Duration(1), Duration(2), Duration(3)].into_iter().sum();
        assert_eq!(total, Duration(6));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_span_panics() {
        let _ = SimTime(5).since(SimTime(10));
    }

    #[test]
    fn bandwidth_and_cycles() {
        // 300 MB/s over 300 KB = 1 ms.
        let d = Duration::for_bytes(300_000, 300e6);
        assert_eq!(d, Duration::from_millis(1.0));
        // 600 cycles at 600 MHz = 1 us.
        let c = Duration::for_cycles(600, 600e6);
        assert_eq!(c, Duration::from_micros(1.0));
        // Nonzero work never rounds to zero time.
        assert!(Duration::for_bytes(1, 1e12).nanos() >= 1);
        assert_eq!(Duration::for_bytes(0, 1e9), Duration::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Duration(500).to_string(), "500ns");
        assert_eq!(Duration(1_500).to_string(), "1.50us");
        assert_eq!(Duration(12_900_000).to_string(), "12.90ms");
        assert_eq!(Duration(2_000_000_000).to_string(), "2.000s");
        assert_eq!(SimTime(1_000_000).to_string(), "1.000ms");
    }

    #[test]
    fn ordering_and_max() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime::max_of(SimTime(3), SimTime(9)), SimTime(9));
    }
}
