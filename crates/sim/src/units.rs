//! Byte-size newtype with binary-unit constructors and formatting.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A count of bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Bytes(u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    #[inline]
    pub const fn new(n: u64) -> Bytes {
        Bytes(n)
    }
    #[inline]
    pub const fn mib(n: u64) -> Bytes {
        Bytes(n << 20)
    }
    #[inline]
    pub const fn gib(n: u64) -> Bytes {
        Bytes(n << 30)
    }

    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Integer ceiling division into chunks of `chunk` bytes.
    pub fn chunks(self, chunk: Bytes) -> u64 {
        assert!(chunk.0 > 0);
        self.0.div_ceil(chunk.0)
    }

    /// Scale by a float (e.g. a compression ratio), rounding to bytes.
    pub fn scale(self, factor: f64) -> Bytes {
        assert!(factor.is_finite() && factor >= 0.0);
        Bytes((self.0 as f64 * factor).round() as u64)
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_sub(rhs.0).expect("byte-size underflow"))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n < 1 << 10 {
            write!(f, "{n}B")
        } else if n < 1 << 20 {
            write!(f, "{:.1}KiB", n as f64 / (1u64 << 10) as f64)
        } else if n < 1 << 30 {
            write!(f, "{:.1}MiB", n as f64 / (1u64 << 20) as f64)
        } else {
            write!(f, "{:.2}GiB", n as f64 / (1u64 << 30) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Bytes::mib(1), Bytes::new(1024 * 1024));
        assert_eq!(Bytes::gib(1), Bytes::mib(1024));
    }

    #[test]
    fn chunking_rounds_up() {
        assert_eq!(Bytes::new(100).chunks(Bytes::new(30)), 4);
        assert_eq!(Bytes::new(90).chunks(Bytes::new(30)), 3);
        assert_eq!(Bytes::ZERO.chunks(Bytes::new(30)), 0);
    }

    #[test]
    fn scaling_rounds() {
        assert_eq!(Bytes::new(100).scale(0.35), Bytes::new(35));
        assert_eq!(Bytes::new(3).scale(0.5), Bytes::new(2)); // round half up
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Bytes::new(17)), "17B");
        assert_eq!(format!("{}", Bytes::new(2048)), "2.0KiB");
        assert_eq!(format!("{}", Bytes::mib(3)), "3.0MiB");
        assert_eq!(format!("{}", Bytes::gib(4)), "4.00GiB");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_checks_underflow() {
        let _ = Bytes::new(1) - Bytes::new(2);
    }

    #[test]
    fn sum_and_saturating() {
        let total: Bytes = [Bytes::new(1), Bytes::new(2)].into_iter().sum();
        assert_eq!(total, Bytes::new(3));
        assert_eq!(Bytes::new(1).saturating_sub(Bytes::new(5)), Bytes::ZERO);
    }
}
