//! Simulated time.
//!
//! Time is represented as an integer number of nanoseconds since the start of
//! the simulation. Using fixed-point time (instead of `f64` seconds) keeps
//! event ordering total and reproducible, which matters because the CRAID
//! experiments compare strategies on identical replayed workloads.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Number of nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant in simulated time, measured in nanoseconds from simulation start.
///
/// `SimTime` is totally ordered and cheap to copy. Arithmetic with
/// [`SimDuration`] is saturating on underflow (a request can never complete
/// before the simulation started) and panics on overflow in debug builds.
///
/// # Example
///
/// ```
/// use craid_simkit::{SimTime, SimDuration};
/// let t = SimTime::from_millis(1.5) + SimDuration::from_micros(250.0);
/// assert_eq!(t.as_millis(), 1.75);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
///
/// # Example
///
/// ```
/// use craid_simkit::SimDuration;
/// let service = SimDuration::from_millis(4.2) + SimDuration::from_millis(0.8);
/// assert_eq!(service.as_millis(), 5.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or not finite.
    pub fn from_micros(micros: f64) -> Self {
        SimTime(float_to_nanos(micros, NANOS_PER_MICRO))
    }

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis(millis: f64) -> Self {
        SimTime(float_to_nanos(millis, NANOS_PER_MILLI))
    }

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(float_to_nanos(secs, NANOS_PER_SEC))
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// This instant expressed in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// This instant expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The whole second this instant falls into (useful for per-second
    /// aggregation such as the paper's sequentiality and load-balance CDFs).
    pub const fn second_bucket(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Duration elapsed since `earlier`, or [`SimDuration::ZERO`] if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or not finite.
    pub fn from_micros(micros: f64) -> Self {
        SimDuration(float_to_nanos(micros, NANOS_PER_MICRO))
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis(millis: f64) -> Self {
        SimDuration(float_to_nanos(millis, NANOS_PER_MILLI))
    }

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration(float_to_nanos(secs, NANOS_PER_SEC))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

fn float_to_nanos(value: f64, scale: u64) -> u64 {
    assert!(
        value.is_finite() && value >= 0.0,
        "time values must be finite and non-negative, got {value}"
    );
    let nanos = value * scale as f64;
    assert!(
        nanos <= u64::MAX as f64,
        "time value {value} overflows the simulated clock"
    );
    nanos.round() as u64
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
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_millis(12.5);
        assert_eq!(t.as_nanos(), 12_500_000);
        assert_eq!(t.as_millis(), 12.5);
        assert_eq!(t.as_micros(), 12_500.0);
        assert_eq!(t.as_secs(), 0.0125);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(3.0);
        let b = SimDuration::from_millis(1.5);
        assert_eq!((a + b).as_millis(), 4.5);
        assert_eq!((a - b).as_millis(), 1.5);
        assert_eq!((b - a), SimDuration::ZERO, "subtraction saturates");
        assert_eq!((a * 4).as_millis(), 12.0);
        assert_eq!((a / 2).as_millis(), 1.5);
    }

    #[test]
    fn time_ordering_is_total() {
        let mut times = vec![
            SimTime::from_millis(2.0),
            SimTime::ZERO,
            SimTime::from_micros(1.0),
            SimTime::from_secs(1.0),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_micros(1.0),
                SimTime::from_millis(2.0),
                SimTime::from_secs(1.0),
            ]
        );
    }

    #[test]
    fn second_bucket_floors() {
        assert_eq!(SimTime::from_secs(0.999).second_bucket(), 0);
        assert_eq!(SimTime::from_secs(1.0).second_bucket(), 1);
        assert_eq!(SimTime::from_secs(61.2).second_bucket(), 61);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_millis(1.0);
        let late = SimTime::from_millis(5.0);
        assert_eq!(late.saturating_since(early).as_millis(), 4.0);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn max_and_min_pick_the_later_and_earlier_instant() {
        let (a, b) = (SimTime::from_millis(1.0), SimTime::from_millis(2.0));
        assert_eq!((a.max(b), b.max(a)), (b, b));
        assert_eq!((a.min(b), b.min(a)), (a, a));
    }

    #[test]
    fn saturating_ops_clamp_at_the_bounds() {
        let (a, one) = (SimDuration::from_millis(3.0), SimDuration::from_millis(1.0));
        assert_eq!(a.saturating_sub(one).as_millis(), 2.0);
        assert_eq!(SimDuration::ZERO.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.saturating_mul(3).as_millis(), 9.0);
        assert_eq!(a.saturating_mul(u64::MAX).as_nanos(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_millis(-1.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_millis(i as f64)).sum();
        assert_eq!(total.as_millis(), 10.0);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimTime::from_millis(1.25).to_string(), "1.250ms");
        assert_eq!(SimDuration::from_micros(500.0).to_string(), "0.500ms");
    }
}
