//! Lumped-capacitance room temperature model and the TES scheduling rule.

use dcs_units::{Celsius, Power, Seconds, TempDelta};

/// Returns the paper's TES activation deadline:
/// `5 min × (peak normal server power ÷ max additional server power)`.
///
/// The CFD study says a *full* gap (heat generation at peak normal power
/// with zero absorption) is safe for 5 minutes. Sprinting opens a gap equal
/// to the additional server power only, so the deadline stretches inversely
/// with that gap, assuming the temperature rise rate is proportional to the
/// gap — the paper's stated (conservative) assumption.
///
/// # Panics
///
/// Panics if `peak_normal` is not strictly positive or
/// `max_additional` is negative.
///
/// # Examples
///
/// ```
/// use dcs_thermal::tes_activation_deadline;
/// use dcs_units::{Power, Seconds};
///
/// let p0 = Power::from_megawatts(10.0);
/// // Additional power equal to the normal peak: the CFD case, 5 minutes.
/// assert_eq!(tes_activation_deadline(p0, p0), Seconds::from_minutes(5.0));
/// // Half the additional power: twice the time.
/// assert_eq!(
///     tes_activation_deadline(p0, Power::from_megawatts(5.0)),
///     Seconds::from_minutes(10.0)
/// );
/// // No additional power: never needed.
/// assert!(tes_activation_deadline(p0, Power::ZERO).is_never());
/// ```
#[must_use]
pub fn tes_activation_deadline(peak_normal: Power, max_additional: Power) -> Seconds {
    assert!(
        peak_normal > Power::ZERO,
        "peak normal power must be positive"
    );
    assert!(
        max_additional >= Power::ZERO,
        "additional power must be non-negative"
    );
    if max_additional.is_zero() {
        return Seconds::NEVER;
    }
    Seconds::from_minutes(5.0 * (peak_normal.as_watts() / max_additional.as_watts()))
}

/// A lumped-capacitance model of data-center air temperature.
///
/// The room integrates the gap between heat generation (server power) and
/// heat absorption (chiller + TES):
///
/// ```text
/// dT/dt = (P_generated − P_absorbed) / C        (floored at the setpoint)
/// ```
///
/// The capacitance `C` is *calibrated to the CFD study* the paper uses:
/// [`RoomModel::calibrated`] chooses `C` so that a full gap at the design
/// power reaches the threshold at `safety_margin ×` 5 minutes — i.e. closing
/// the gap at the 5th minute leaves margin, reproducing the study's "the
/// temperature threshold will never be achieved if the chiller is resumed at
/// the 5th minute".
///
/// # Examples
///
/// ```
/// use dcs_thermal::RoomModel;
/// use dcs_units::{Power, Seconds};
///
/// let p0 = Power::from_megawatts(10.0);
/// let mut room = RoomModel::calibrated(p0);
/// // Full gap for 5 minutes: still safe.
/// room.step(p0, Power::ZERO, Seconds::from_minutes(5.0));
/// assert!(!room.is_over_threshold());
/// // Keep the gap open past the margin: overheats.
/// room.step(p0, Power::ZERO, Seconds::from_minutes(2.0));
/// assert!(room.is_over_threshold());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoomModel {
    /// Thermal capacitance in joules per kelvin.
    capacitance: f64,
    setpoint: Celsius,
    threshold: Celsius,
    temperature: Celsius,
}

impl RoomModel {
    /// Default supply-air setpoint.
    pub const DEFAULT_SETPOINT: f64 = 25.0;
    /// Default overheat threshold (ASHRAE allowable inlet ceiling).
    pub const DEFAULT_THRESHOLD: f64 = 32.0;
    /// Safety margin over the 5-minute CFD gap used in calibration: a full
    /// gap hits the threshold at `5 min × 1.2 = 6 min`, so closing it at the
    /// 5th minute leaves headroom.
    pub const CALIBRATION_MARGIN: f64 = 1.2;

    /// Creates a room calibrated to the CFD study for a facility whose peak
    /// normal server power is `design_power`.
    ///
    /// # Panics
    ///
    /// Panics if `design_power` is not strictly positive.
    #[must_use]
    pub fn calibrated(design_power: Power) -> RoomModel {
        assert!(design_power > Power::ZERO, "design power must be positive");
        let rise = Self::DEFAULT_THRESHOLD - Self::DEFAULT_SETPOINT;
        let time_to_threshold = Seconds::from_minutes(5.0 * Self::CALIBRATION_MARGIN);
        let capacitance = design_power.as_watts() * time_to_threshold.as_secs() / rise;
        RoomModel {
            capacitance,
            setpoint: Celsius::new(Self::DEFAULT_SETPOINT),
            threshold: Celsius::new(Self::DEFAULT_THRESHOLD),
            temperature: Celsius::new(Self::DEFAULT_SETPOINT),
        }
    }

    /// Creates a room with an explicit capacitance (J/K), setpoint and
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is not strictly positive or
    /// `threshold <= setpoint`.
    #[must_use]
    pub fn new(capacitance: f64, setpoint: Celsius, threshold: Celsius) -> RoomModel {
        assert!(
            capacitance > 0.0 && capacitance.is_finite(),
            "capacitance must be positive"
        );
        assert!(threshold > setpoint, "threshold must exceed setpoint");
        RoomModel {
            capacitance,
            setpoint,
            threshold,
            temperature: setpoint,
        }
    }

    /// Returns the current air temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Restores a temperature read from
    /// [`temperature`](Self::temperature) — the room's only runtime state —
    /// when resuming from a checkpoint.
    pub fn restore_temperature(&mut self, temperature: Celsius) {
        self.temperature = temperature;
    }

    /// Returns the setpoint the room cools back to.
    #[must_use]
    pub fn setpoint(&self) -> Celsius {
        self.setpoint
    }

    /// Returns the overheat threshold.
    #[must_use]
    pub fn threshold(&self) -> Celsius {
        self.threshold
    }

    /// Returns `true` if the temperature is at or above the threshold.
    #[must_use]
    pub fn is_over_threshold(&self) -> bool {
        self.temperature >= self.threshold
    }

    /// Returns the margin to the threshold.
    #[must_use]
    pub fn headroom(&self) -> TempDelta {
        (self.threshold - self.temperature).max_zero()
    }

    /// Advances the room by `dt` with the given heat generation and
    /// absorption rates, returning the new temperature.
    ///
    /// The temperature never falls below the setpoint (the CRAC controls to
    /// the setpoint; excess absorption does not over-cool the room).
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or `dt` is not strictly positive
    /// and finite.
    pub fn step(&mut self, generated: Power, absorbed: Power, dt: Seconds) -> Celsius {
        assert!(generated >= Power::ZERO, "generation must be non-negative");
        assert!(absorbed >= Power::ZERO, "absorption must be non-negative");
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        let gap_watts = generated.as_watts() - absorbed.as_watts();
        let delta = TempDelta::new(gap_watts * dt.as_secs() / self.capacitance);
        self.temperature += delta;
        self.temperature = self.temperature.max(self.setpoint);
        self.temperature
    }

    /// Returns how long the room can sustain a constant generation/
    /// absorption `gap` before hitting the threshold, or
    /// [`Seconds::NEVER`] for a non-positive gap.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_thermal::RoomModel;
    /// use dcs_units::Power;
    /// let p0 = Power::from_megawatts(10.0);
    /// let room = RoomModel::calibrated(p0);
    /// let t = room.time_to_threshold(p0);
    /// assert!((t.as_minutes() - 6.0).abs() < 1e-9); // 5 min x 1.2 margin
    /// ```
    #[must_use]
    pub fn time_to_threshold(&self, gap: Power) -> Seconds {
        self.time_to_threshold_from(self.temperature, gap)
    }

    /// Like [`RoomModel::time_to_threshold`] but starting from an assumed
    /// `temperature` instead of the model's own state — used by controllers
    /// planning against a noisy or pessimistically biased sensor reading.
    #[must_use]
    pub fn time_to_threshold_from(&self, temperature: Celsius, gap: Power) -> Seconds {
        if gap <= Power::ZERO {
            return Seconds::NEVER;
        }
        let rise = (self.threshold - temperature).max_zero().as_celsius();
        Seconds::new(rise * self.capacitance / gap.as_watts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> RoomModel {
        RoomModel::calibrated(Power::from_megawatts(10.0))
    }

    #[test]
    fn cfd_five_minute_rule_holds() {
        // Full gap for 5 minutes, then fully absorbed again: never overheats.
        let mut r = room();
        let p0 = Power::from_megawatts(10.0);
        for _ in 0..300 {
            r.step(p0, Power::ZERO, Seconds::new(1.0));
        }
        assert!(!r.is_over_threshold(), "temp {} too high", r.temperature());
        // Resume full absorption: temperature recovers toward the setpoint.
        for _ in 0..600 {
            r.step(p0, p0 * 1.5, Seconds::new(1.0));
        }
        assert_eq!(r.temperature(), r.setpoint());
    }

    #[test]
    fn unclosed_gap_overheats_after_margin() {
        let mut r = room();
        let p0 = Power::from_megawatts(10.0);
        // 6 minutes of full gap hits the threshold exactly (margin 1.2).
        for _ in 0..360 {
            r.step(p0, Power::ZERO, Seconds::new(1.0));
        }
        assert!(r.is_over_threshold());
    }

    #[test]
    fn time_to_threshold_scales_inversely_with_gap() {
        let r = room();
        let t_full = r.time_to_threshold(Power::from_megawatts(10.0));
        let t_half = r.time_to_threshold(Power::from_megawatts(5.0));
        assert!((t_half.as_secs() / t_full.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_floors_at_setpoint() {
        let mut r = room();
        r.step(
            Power::ZERO,
            Power::from_megawatts(50.0),
            Seconds::from_hours(1.0),
        );
        assert_eq!(r.temperature(), r.setpoint());
    }

    #[test]
    fn deadline_rule_matches_paper() {
        let p0 = Power::from_megawatts(10.0);
        // The paper: "(5 minute x normal peak server power / maximum
        // additional server power)".
        let d = tes_activation_deadline(p0, Power::from_megawatts(2.5));
        assert_eq!(d, Seconds::from_minutes(20.0));
    }

    #[test]
    fn headroom_shrinks_as_room_heats() {
        let mut r = room();
        let before = r.headroom();
        r.step(
            Power::from_megawatts(10.0),
            Power::ZERO,
            Seconds::from_minutes(1.0),
        );
        assert!(r.headroom() < before);
    }

    #[test]
    #[should_panic(expected = "threshold must exceed setpoint")]
    fn bad_threshold_panics() {
        let _ = RoomModel::new(1.0, Celsius::new(30.0), Celsius::new(25.0));
    }
}
