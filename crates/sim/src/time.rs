//! Fixed-point virtual time.
//!
//! All simulation state advances on a microsecond-resolution `u64` clock.
//! Using fixed-point instead of `f64` seconds keeps event ordering exact and
//! makes runs bit-reproducible: there is no accumulation drift no matter how
//! many events fire.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Microseconds per second, the resolution of the virtual clock.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant on the virtual clock, in microseconds since the start
/// of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Builds an instant from (possibly fractional) seconds, rounding to the
    /// nearest microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// Builds an instant from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// This instant expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Raw microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Builds a span from (possibly fractional) seconds, rounding to the
    /// nearest microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }

    /// Builds a span from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Builds a span from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// This span expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Raw microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// True when the span is empty.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative scalar, rounding to the nearest
    /// microsecond. Panics in debug builds if `k` is negative or NaN.
    pub fn mul_f64(self, k: f64) -> Self {
        debug_assert!(k >= 0.0 && k.is_finite(), "scale must be finite and non-negative");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    // NaN and non-positive inputs clamp to zero.
    if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    (secs * MICROS_PER_SEC as f64).round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_conversions_round_trip() {
        let t = SimTime::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_seconds_round_to_nearest_micro() {
        let d = SimDuration::from_secs_f64(0.000_000_4);
        assert_eq!(d.as_micros(), 0);
        let d = SimDuration::from_secs_f64(0.000_000_6);
        assert_eq!(d.as_micros(), 1);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t, SimTime::from_micros(15));
        assert_eq!(t - SimTime::from_micros(4), SimDuration::from_micros(11));
        let mut d = SimDuration::from_micros(7);
        d += SimDuration::from_micros(3);
        d -= SimDuration::from_micros(4);
        assert_eq!(d, SimDuration::from_micros(6));
    }

    #[test]
    fn saturating_since_handles_future_instants() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(2)); // 1.5 rounds to 2
        assert_eq!(d.mul_f64(2.0), SimDuration::from_micros(6));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_matches_micros() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) == SimDuration::from_micros(1_000));
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
        assert_eq!(SimDuration::from_micros(1_500_000).to_string(), "1.500000s");
    }
}
