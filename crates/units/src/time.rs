//! Durations in seconds.

use crate::{check_finite, Ratio, UnitError};
use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration (or simulation timestamp) in seconds.
///
/// The simulator advances in fixed steps; `Seconds` is used both for the
/// step size and for absolute simulation time. Negative values are permitted
/// (differences of timestamps); the special value produced by
/// [`Seconds::NEVER`] represents "never trips / unbounded" and is the only
/// non-finite value allowed.
///
/// # Examples
///
/// ```
/// use dcs_units::Seconds;
///
/// let t = Seconds::from_minutes(5.0) + Seconds::new(20.0);
/// assert_eq!(t.as_secs(), 320.0);
/// assert!(Seconds::NEVER.is_never());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// An unbounded duration: "this breaker never trips at this load".
    ///
    /// Compares greater than every finite duration.
    pub const NEVER: Seconds = Seconds(f64::INFINITY);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN. Infinity is allowed only through
    /// [`Seconds::NEVER`]; passing `f64::INFINITY` here also panics so that
    /// unbounded durations are always explicit at the call site.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_units::Seconds;
    /// assert_eq!(Seconds::new(90.0).as_minutes(), 1.5);
    /// ```
    #[must_use]
    pub fn new(secs: f64) -> Seconds {
        Seconds::try_new(secs).expect("duration must be finite")
    }

    /// Creates a duration from seconds, returning an error for non-finite input.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::NotFinite`] if `secs` is NaN or infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_units::Seconds;
    /// assert!(Seconds::try_new(f64::NAN).is_err());
    /// ```
    pub fn try_new(secs: f64) -> Result<Seconds, UnitError> {
        check_finite(secs).map(Seconds)
    }

    /// Creates a duration from minutes.
    ///
    /// # Panics
    ///
    /// Panics if `minutes` is NaN or infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_units::Seconds;
    /// assert_eq!(Seconds::from_minutes(2.0).as_secs(), 120.0);
    /// ```
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Seconds {
        Seconds::new(minutes * 60.0)
    }

    /// Creates a duration from hours.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is NaN or infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_units::Seconds;
    /// assert_eq!(Seconds::from_hours(1.0).as_minutes(), 60.0);
    /// ```
    #[must_use]
    pub fn from_hours(hours: f64) -> Seconds {
        Seconds::new(hours * 3600.0)
    }

    /// Returns the duration in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration in minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns `true` if this is the unbounded [`Seconds::NEVER`] duration.
    #[must_use]
    pub fn is_never(self) -> bool {
        self.0.is_infinite() && self.0 > 0.0
    }

    /// Returns `true` if this duration is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Returns this duration truncated below at zero.
    #[must_use]
    pub fn max_zero(self) -> Seconds {
        Seconds(self.0.max(0.0))
    }

    /// Returns the fraction of this duration over `base`.
    ///
    /// This is the "remaining time" term `RT(t) = (SDu_p - t)/SDu_p` in the
    /// paper's Heuristic strategy (Eq. 3) when applied to the remaining
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or if either duration is [`Seconds::NEVER`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_units::Seconds;
    /// let r = Seconds::new(30.0).ratio_of(Seconds::new(120.0));
    /// assert_eq!(r.as_f64(), 0.25);
    /// ```
    #[must_use]
    pub fn ratio_of(self, base: Seconds) -> Ratio {
        assert!(base.0 != 0.0, "ratio base must be non-zero");
        assert!(
            self.0.is_finite() && base.0.is_finite(),
            "cannot take a ratio of unbounded durations"
        );
        Ratio::new(self.0 / base.0)
    }
}

impl std::fmt::Display for Seconds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_never() {
            return write!(f, "never");
        }
        let s = self.0.abs();
        if s >= 3600.0 {
            write!(f, "{:.2} h", self.0 / 3600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2} min", self.0 / 60.0)
        } else {
            write!(f, "{:.2} s", self.0)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Seconds::from_hours(0.5).as_minutes(), 30.0);
        assert_eq!(Seconds::from_minutes(1.5).as_secs(), 90.0);
    }

    #[test]
    fn never_compares_greater_than_finite() {
        assert!(Seconds::NEVER > Seconds::from_hours(1e9));
        assert!(Seconds::NEVER.is_never());
        assert!(!Seconds::new(5.0).is_never());
    }

    #[test]
    #[should_panic(expected = "duration must be finite")]
    fn new_rejects_infinity() {
        let _ = Seconds::new(f64::INFINITY);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Seconds::new(20.0).to_string(), "20.00 s");
        assert_eq!(Seconds::from_minutes(5.0).to_string(), "5.00 min");
        assert_eq!(Seconds::from_hours(2.0).to_string(), "2.00 h");
        assert_eq!(Seconds::NEVER.to_string(), "never");
    }

    #[test]
    fn min_max_and_clamping() {
        let a = Seconds::new(10.0);
        let b = Seconds::new(60.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!((a - b).max_zero(), Seconds::ZERO);
    }

    #[test]
    fn ratio_of_base() {
        let r = Seconds::from_minutes(4.0).ratio_of(Seconds::from_minutes(16.0));
        assert_eq!(r.as_f64(), 0.25);
    }
}
