//! Simulation time as integer microseconds.
//!
//! Instants ([`SimTime`]) and durations ([`SimSpan`]) are distinct
//! types so the compiler rejects category errors like adding two
//! instants. Microsecond resolution comfortably covers the study's
//! scales: 50 ms circuit setup at the fine end, multi-year log windows
//! (≈ 10¹⁴ µs) at the coarse end, both far inside `u64`/`i64` range.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulation time (microseconds since simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A signed span of simulation time in microseconds.
///
/// Signed because the paper's session-grouping gap can be *negative*
/// (§V: "the gap … could be negative as multiple transfers can be
/// started concurrently").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(pub i64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole seconds.
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// From fractional seconds (rounded to the nearest microsecond).
    ///
    /// # Panics
    /// Panics on negative, non-finite, or out-of-range input (values
    /// whose microsecond count exceeds `u64`). The old behavior of
    /// silently saturating huge finite inputs via an `as` cast hid
    /// configuration typos like `1e40` seconds as "the far future".
    pub fn from_secs_f64(s: f64) -> SimTime {
        match SimTime::try_from_secs_f64(s) {
            Some(t) => t,
            #[expect(clippy::panic, reason = "documented contract: reject bad float input loudly")]
            None => {
                panic!("SimTime must be finite, non-negative, and within u64 microseconds: got {s}")
            }
        }
    }

    /// Checked [`SimTime::from_secs_f64`]: `None` instead of panicking
    /// on negative, non-finite, or out-of-range input.
    pub fn try_from_secs_f64(s: f64) -> Option<SimTime> {
        if !s.is_finite() || s < 0.0 {
            return None;
        }
        let us = (s * 1e6).round();
        // Strict: `u64::MAX as f64` is 2^64, one past the last
        // representable microsecond, and `as` would saturate there.
        if us >= u64::MAX as f64 {
            return None;
        }
        Some(SimTime(us as u64))
    }

    /// From whole milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1000)
    }

    /// Microseconds since epoch.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating instant + span (clamps at the epoch for negative
    /// overshoot).
    pub fn offset(self, span: SimSpan) -> SimTime {
        if span.0 >= 0 {
            SimTime(self.0.saturating_add(span.0 as u64))
        } else {
            SimTime(self.0.saturating_sub(span.0.unsigned_abs()))
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimSpan {
    /// Zero-length span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// From whole seconds.
    pub fn from_secs(s: i64) -> SimSpan {
        SimSpan(s * 1_000_000)
    }

    /// From fractional seconds (rounded to the nearest microsecond).
    ///
    /// # Panics
    /// Panics on non-finite or out-of-range input (values whose
    /// microsecond count exceeds `i64`); bare `as` casts used to
    /// saturate those silently.
    pub fn from_secs_f64(s: f64) -> SimSpan {
        match SimSpan::try_from_secs_f64(s) {
            Some(d) => d,
            #[expect(clippy::panic, reason = "documented contract: reject bad float input loudly")]
            None => panic!("SimSpan must be finite and within i64 microseconds: got {s}"),
        }
    }

    /// Checked [`SimSpan::from_secs_f64`]: `None` instead of panicking
    /// on non-finite or out-of-range input.
    pub fn try_from_secs_f64(s: f64) -> Option<SimSpan> {
        if !s.is_finite() {
            return None;
        }
        let us = (s * 1e6).round();
        // Strict on the positive side: `i64::MAX as f64` is 2^63, one
        // past the last representable microsecond. `i64::MIN as f64`
        // is exactly representable, so `>=` is the right bound there.
        if us >= i64::MAX as f64 || us < i64::MIN as f64 {
            return None;
        }
        Some(SimSpan(us as i64))
    }

    /// From whole milliseconds.
    pub fn from_millis(ms: i64) -> SimSpan {
        SimSpan(ms * 1000)
    }

    /// From whole minutes — the natural unit for the paper's gap
    /// parameter `g` and VC setup delay.
    pub fn from_mins(m: i64) -> SimSpan {
        SimSpan(m * 60_000_000)
    }

    /// Microseconds (signed).
    pub fn micros(self) -> i64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Absolute value.
    pub fn abs(self) -> SimSpan {
        SimSpan(self.0.abs())
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        self.offset(rhs)
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimSpan) -> SimTime {
        self.offset(SimSpan(-rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        // Saturating: instants live in u64 microseconds, so a naive
        // `as i64` difference wraps for timestamps past i64::MAX µs.
        if self.0 >= rhs.0 {
            SimSpan(i64::try_from(self.0 - rhs.0).unwrap_or(i64::MAX))
        } else {
            // -(2^63) is exactly i64::MIN, so saturating the failed
            // conversion there is also the exact answer at the edge.
            SimSpan(i64::try_from(rhs.0 - self.0).map_or(i64::MIN, i64::wrapping_neg))
        }
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 + rhs.0)
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 - rhs.0)
    }
}

impl SubAssign for SimSpan {
    fn sub_assign(&mut self, rhs: SimSpan) {
        self.0 -= rhs.0;
    }
}

impl Mul<i64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: i64) -> SimSpan {
        SimSpan(self.0 * rhs)
    }
}

impl Div<i64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: i64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime(1_500_000));
        assert_eq!(SimSpan::from_mins(1), SimSpan::from_secs(60));
        assert_eq!(SimSpan::from_millis(50), SimSpan(50_000));
    }

    #[test]
    fn instant_minus_instant_is_signed() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(12);
        assert_eq!(b - a, SimSpan::from_secs(2));
        assert_eq!(a - b, SimSpan::from_secs(-2));
    }

    #[test]
    fn add_negative_span_saturates_at_epoch() {
        let t = SimTime::from_secs(1);
        assert_eq!(t + SimSpan::from_secs(-5), SimTime::ZERO);
    }

    #[test]
    fn offset_round_trip() {
        let t = SimTime::from_secs(100);
        let s = SimSpan::from_secs(-30);
        assert_eq!((t + s) - t, s);
    }

    #[test]
    fn span_arithmetic() {
        let a = SimSpan::from_secs(5);
        let b = SimSpan::from_secs(3);
        assert_eq!(a + b, SimSpan::from_secs(8));
        assert_eq!(a - b, SimSpan::from_secs(2));
        assert_eq!(a * 2, SimSpan::from_secs(10));
        assert_eq!(a / 5, SimSpan::from_secs(1));
        assert_eq!(SimSpan::from_secs(-5).abs(), a);
    }

    #[test]
    fn float_conversion_round_trip() {
        let t = SimTime::from_secs_f64(123.456789);
        assert!((t.as_secs_f64() - 123.456789).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "within u64 microseconds")]
    fn huge_finite_time_panics_instead_of_saturating() {
        // Pre-fix this silently saturated to SimTime(u64::MAX).
        let _ = SimTime::from_secs_f64(1e40);
    }

    #[test]
    #[should_panic(expected = "within i64 microseconds")]
    fn huge_finite_span_panics_instead_of_saturating() {
        let _ = SimSpan::from_secs_f64(-1e40);
    }

    #[test]
    #[should_panic]
    fn non_finite_span_panics() {
        let _ = SimSpan::from_secs_f64(f64::NAN);
    }

    #[test]
    fn try_constructors_reject_instead_of_panicking() {
        assert!(SimTime::try_from_secs_f64(f64::NAN).is_none());
        assert!(SimTime::try_from_secs_f64(f64::INFINITY).is_none());
        assert!(SimTime::try_from_secs_f64(-0.5).is_none());
        assert!(SimTime::try_from_secs_f64(1e40).is_none());
        assert_eq!(SimTime::try_from_secs_f64(1.5), Some(SimTime(1_500_000)));
        assert!(SimSpan::try_from_secs_f64(f64::NEG_INFINITY).is_none());
        assert!(SimSpan::try_from_secs_f64(1e40).is_none());
        assert_eq!(SimSpan::try_from_secs_f64(-1.5), Some(SimSpan(-1_500_000)));
    }

    #[test]
    fn instant_difference_saturates_at_i64_range() {
        // Pre-fix both wrapped: MAX - ZERO was -1, ZERO - MAX was +1.
        assert_eq!(SimTime::MAX - SimTime::ZERO, SimSpan(i64::MAX));
        assert_eq!(SimTime::ZERO - SimTime::MAX, SimSpan(i64::MIN));
        // The exact edge: a difference of 2^63 µs is exactly i64::MIN
        // when negated, not a saturation artifact.
        let edge = SimTime(1u64 << 63);
        assert_eq!(SimTime::ZERO - edge, SimSpan(i64::MIN));
        assert_eq!(edge - SimTime(1), SimSpan(i64::MAX));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::from_secs(1).max(SimTime::from_secs(2)), SimTime::from_secs(2));
        assert_eq!(SimTime::from_secs(1).min(SimTime::from_secs(2)), SimTime::from_secs(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
        assert_eq!(SimSpan::from_secs(-2).to_string(), "-2.000000s");
    }
}
