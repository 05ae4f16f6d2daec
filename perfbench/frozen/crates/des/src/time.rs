//! Virtual time for the simulation kernel.
//!
//! Time is kept in integer nanoseconds. The paper reports everything in
//! microseconds; nanosecond resolution leaves headroom for sub-microsecond
//! cost-model constants (e.g. per-byte copy costs) without accumulating
//! rounding error over the 10,000-iteration benchmark loops.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in virtual time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future, which keeps benchmark arithmetic total.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier > self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from fractional microseconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "durations are non-negative, got {us}");
        SimDuration((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float (for reporting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True if this duration is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by an integer factor.
    #[inline]
    pub const fn scaled(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// Scale by a float factor (e.g. a CPU-speed class multiplier),
    /// rounding to the nearest nanosecond.
    #[inline]
    pub fn scaled_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0);
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics (in debug) on time going backwards; use
    /// [`SimTime::saturating_since`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "negative duration: {self:?} - {rhs:?}");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(*self >= rhs);
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_us(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_us(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
        assert_eq!(SimDuration::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn fractional_us_rounds_to_nearest_nanosecond() {
        assert_eq!(SimDuration::from_us_f64(0.0005).as_nanos(), 1); // 0.5ns rounds up
        assert_eq!(SimDuration::from_us_f64(1.2344).as_nanos(), 1234);
        assert_eq!(SimDuration::from_us_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime::from_us(10) + SimDuration::from_us(5);
        assert_eq!(t, SimTime::from_us(15));
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_nanos(3);
        assert_eq!(t2.as_nanos(), 3);
    }

    #[test]
    fn time_difference_is_duration() {
        let d = SimTime::from_us(15) - SimTime::from_us(10);
        assert_eq!(d, SimDuration::from_us(5));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_us(10);
        let late = SimTime::from_us(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_us(10));
    }

    #[test]
    fn checked_since_detects_reversal() {
        let early = SimTime::from_us(10);
        let late = SimTime::from_us(20);
        assert_eq!(early.checked_since(late), None);
        assert_eq!(late.checked_since(early), Some(SimDuration::from_us(10)));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_us(10);
        let b = SimDuration::from_us(4);
        assert_eq!(a + b, SimDuration::from_us(14));
        assert_eq!(a - b, SimDuration::from_us(6));
        assert_eq!(a * 3, SimDuration::from_us(30));
        assert_eq!(a / 2, SimDuration::from_us(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_us(10);
        assert_eq!(d.scaled(3), SimDuration::from_us(30));
        assert_eq!(d.scaled_f64(1.5), SimDuration::from_us(15));
        assert_eq!(d.scaled_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_us).sum();
        assert_eq!(total, SimDuration::from_us(10));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(1500)), "1.500us");
    }

    #[test]
    fn ordering_follows_nanos() {
        assert!(SimTime::from_us(1) < SimTime::from_us(2));
        assert!(SimDuration::from_nanos(999) < SimDuration::from_us(1));
        assert!(SimTime::MAX > SimTime::from_us(u32::MAX as u64));
    }
}
