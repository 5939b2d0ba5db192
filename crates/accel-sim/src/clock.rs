//! Virtual time.
//!
//! All simulator timing is expressed in integer nanoseconds of *virtual*
//! time. Virtual clocks make every experiment deterministic and let the
//! overhead experiments (paper Figs. 9–10) report multi-day CPU-analysis
//! times without actually waiting for them.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub(crate) const ZERO: SimTime = SimTime(0);

    /// Creates a time from seconds (saturating on overflow).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs * 1e9).min(u64::MAX as f64).max(0.0) as u64)
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 = self.0.saturating_add(ns);
    }
}

impl Sub for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime(10);
        assert_eq!((t + 5).as_nanos(), 15);
        assert_eq!(SimTime(5) - SimTime(10), 0, "subtraction saturates");
        assert_eq!(SimTime(u64::MAX) + 10, SimTime(u64::MAX));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime(12).to_string(), "12ns");
        assert_eq!(SimTime(1_500).to_string(), "1.500us");
        assert_eq!(SimTime(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimTime(3_000_000_000).to_string(), "3.000s");
    }

    #[test]
    fn max_picks_the_later_time() {
        assert_eq!(SimTime(3).max(SimTime(9)), SimTime(9));
    }
}
