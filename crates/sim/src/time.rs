//! Logical time for the simulation.
//!
//! All durations in the testbed are *logical*: models charge costs (disk
//! latency, decompression CPU, network transfer) to a [`crate::SimClock`]
//! instead of sleeping. `SimTime` is an absolute instant, `SimSpan` a
//! duration; both are nanosecond-resolution `u64`s so arithmetic is exact
//! and ordering is total.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation timeline, in nanoseconds since the
/// start of the experiment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span (duration) of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimSpan(pub u64);

impl SimTime {
    /// The experiment origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the origin.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`. Saturates at zero rather than
    /// panicking so that racy metric reads never abort an experiment.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }
}

impl SimSpan {
    pub const ZERO: SimSpan = SimSpan(0);

    #[inline]
    pub fn nanos(n: u64) -> SimSpan {
        SimSpan(n)
    }
    #[inline]
    pub fn micros(us: u64) -> SimSpan {
        SimSpan(us * 1_000)
    }
    #[inline]
    pub fn millis(ms: u64) -> SimSpan {
        SimSpan(ms * 1_000_000)
    }
    #[inline]
    pub fn secs(s: u64) -> SimSpan {
        SimSpan(s * 1_000_000_000)
    }

    /// Build a span from a float number of seconds, rounding to nanoseconds.
    /// Negative or non-finite inputs clamp to zero (distribution samplers
    /// may produce tiny negative values through floating-point error).
    pub fn from_secs_f64(s: f64) -> SimSpan {
        if !s.is_finite() || s <= 0.0 {
            return SimSpan::ZERO;
        }
        SimSpan((s * 1e9).round() as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the span is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }

    /// Scale the span by a float factor (used by cost models applying
    /// slowdown multipliers). Clamps at zero.
    pub fn scale(self, factor: f64) -> SimSpan {
        SimSpan::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimSpan> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 + rhs.0)
    }
}

impl AddAssign for SimSpan {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 * rhs)
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, |a, b| a + b)
    }
}

fn fmt_nanos(n: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if n < 1_000 {
        write!(f, "{n}ns")
    } else if n < 1_000_000 {
        write!(f, "{:.2}us", n as f64 / 1e3)
    } else if n < 1_000_000_000 {
        write!(f, "{:.2}ms", n as f64 / 1e6)
    } else {
        write!(f, "{:.3}s", n as f64 / 1e9)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+")?;
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimSpan::micros(1), SimSpan::nanos(1_000));
        assert_eq!(SimSpan::millis(1), SimSpan::micros(1_000));
        assert_eq!(SimSpan::secs(1), SimSpan::millis(1_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimSpan::millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, SimSpan::millis(5));
        assert_eq!(t.since(SimTime::ZERO), SimSpan::millis(5));
        // Saturating: earlier.since(later) == 0
        assert_eq!(SimTime::ZERO.since(t), SimSpan::ZERO);
    }

    #[test]
    fn float_seconds_roundtrip() {
        let s = SimSpan::from_secs_f64(1.25);
        assert_eq!(s, SimSpan::millis(1250));
        assert!((s.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn from_secs_clamps_bad_inputs() {
        assert_eq!(SimSpan::from_secs_f64(-1.0), SimSpan::ZERO);
        assert_eq!(SimSpan::from_secs_f64(f64::NAN), SimSpan::ZERO);
        assert_eq!(SimSpan::from_secs_f64(f64::INFINITY), SimSpan::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(SimSpan::millis(10).scale(2.0), SimSpan::millis(20));
        assert_eq!(SimSpan::millis(10).scale(0.5), SimSpan::millis(5));
        assert_eq!(SimSpan::millis(10) * 3, SimSpan::millis(30));
        assert_eq!(SimSpan::millis(10) / 2, SimSpan::millis(5));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimSpan::nanos(12)), "12ns");
        assert_eq!(format!("{}", SimSpan::micros(12)), "12.00us");
        assert_eq!(format!("{}", SimSpan::millis(12)), "12.00ms");
        assert_eq!(format!("{}", SimSpan::secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_spans() {
        let total: SimSpan = [SimSpan::millis(1), SimSpan::millis(2)].into_iter().sum();
        assert_eq!(total, SimSpan::millis(3));
    }
}
