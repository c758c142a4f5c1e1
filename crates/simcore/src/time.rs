//! Simulated time: nanosecond-resolution instants and durations.
//!
//! All simulated time is kept in integer nanoseconds. Floating point enters
//! only at the edges (rate computations), and conversions round half-up so
//! that `t + transfer_time(bytes, bw)` is stable across platforms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel "never happens" instant, ordered after every real instant.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative simulation time");
        SimTime((s * 1e9).round() as u64)
    }

    /// Construct from fractional seconds given by a user (a scenario's
    /// horizon or event time), rounding to the nearest nanosecond like
    /// [`SimTime::from_secs_f64`], but rejecting what that would clamp:
    /// NaN and infinities, negative values, and values at or past 2⁶⁴
    /// nanoseconds (about 584 years).
    pub fn try_from_secs_f64(s: f64) -> Result<Self, TimeError> {
        if !s.is_finite() {
            return Err(TimeError::NonFinite);
        }
        if s < 0.0 {
            return Err(TimeError::Negative);
        }
        let ns = (s * 1e9).round();
        // `u64::MAX as f64` is 2⁶⁴ exactly; every float below it fits.
        if ns >= u64::MAX as f64 {
            return Err(TimeError::TooLarge);
        }
        Ok(SimTime(ns as u64))
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier`
    /// is actually later (callers treat clock skew as "no time passed").
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that treats [`SimTime::FAR_FUTURE`] as absorbing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

/// Why a number of seconds is not a [`SimTime`]
/// ([`SimTime::try_from_secs_f64`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeError {
    /// NaN or an infinity.
    NonFinite,
    /// Below zero.
    Negative,
    /// At or past 2⁶⁴ nanoseconds, the end of simulated time.
    TooLarge,
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeError::NonFinite => write!(f, "not a finite number"),
            TimeError::Negative => write!(f, "negative"),
            TimeError::TooLarge => {
                write!(
                    f,
                    "at or past 2^64 ns (about 584 years), the end of simulated time"
                )
            }
        }
    }
}

impl std::error::Error for TimeError {}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        debug_assert!(s.is_finite(), "non-finite duration");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for rate computations and reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale a duration by a non-negative factor.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0);
        SimDuration((self.0 as f64 * k).round() as u64)
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
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::FAR_FUTURE {
            write!(f, "t=∞")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!((t1 - t0).as_nanos(), 500_000_000);
        assert_eq!(t1.since(t0), SimDuration::from_millis(500));
        // since() saturates rather than underflowing.
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_sentinel() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_secs(1_000_000) < SimTime::FAR_FUTURE);
        assert_eq!(
            SimTime::FAR_FUTURE.saturating_add(SimDuration::from_secs(1)),
            SimTime::FAR_FUTURE
        );
    }

    #[test]
    fn try_from_secs_f64_accepts_the_representable_range() {
        assert_eq!(SimTime::try_from_secs_f64(0.0), Ok(SimTime::ZERO));
        assert_eq!(SimTime::try_from_secs_f64(-0.0), Ok(SimTime::ZERO));
        assert_eq!(SimTime::try_from_secs_f64(1e-300), Ok(SimTime::ZERO));
        assert_eq!(
            SimTime::try_from_secs_f64(1.25),
            Ok(SimTime::from_secs_f64(1.25))
        );
        assert_eq!(
            SimTime::try_from_secs_f64(1e9),
            Ok(SimTime::from_secs(1_000_000_000))
        );
        // The largest float below 2⁶⁴ ns still fits.
        let last = (u64::MAX as f64).next_down() / 1e9;
        assert!(SimTime::try_from_secs_f64(last).is_ok());
    }

    #[test]
    fn try_from_secs_f64_rejects_non_finite_input() {
        for s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(SimTime::try_from_secs_f64(s), Err(TimeError::NonFinite));
        }
    }

    #[test]
    fn try_from_secs_f64_rejects_negative_input() {
        for s in [-1e-9, -1.0, f64::MIN] {
            assert_eq!(SimTime::try_from_secs_f64(s), Err(TimeError::Negative));
        }
    }

    #[test]
    fn try_from_secs_f64_rejects_input_past_u64_nanoseconds() {
        // 1e12 s used to clamp silently to 18446744073.7 s.
        for s in [1e12, 18_446_744_074.0, f64::MAX] {
            assert_eq!(SimTime::try_from_secs_f64(s), Err(TimeError::TooLarge));
        }
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }
}
