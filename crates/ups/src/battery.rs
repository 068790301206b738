//! A single UPS battery.

use crate::Chemistry;
use dcs_units::{Charge, Energy, Power, Ratio, Seconds};
use serde::{Deserialize, Serialize};

/// The runtime state of a [`Battery`], for checkpoints: its charge and
/// cycle accounting. Chemistry and capacity are fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryHotState {
    /// Stored energy.
    pub stored: Energy,
    /// Cumulative energy drawn from the cells.
    pub throughput: Energy,
    /// Discharge events so far.
    pub discharge_events: u32,
    /// Whether the battery was discharging at the last step.
    pub discharging: bool,
}

/// A UPS battery with state of charge and cycle accounting.
///
/// Energy accounting is done at the output terminals: [`Battery::discharge`]
/// reports the power actually delivered to the load, and the stored energy
/// drops by `delivered / efficiency`. The battery refuses to discharge below
/// its chemistry's depth-of-discharge floor.
///
/// # Examples
///
/// ```
/// use dcs_ups::{Battery, Chemistry};
/// use dcs_units::{Charge, Power, Seconds};
///
/// let mut b = Battery::new(Chemistry::LithiumIronPhosphate, Charge::from_amp_hours(0.5));
/// // Drain at the paper's peak normal server power.
/// let p = b.discharge(Power::from_watts(55.0), Seconds::from_minutes(3.0));
/// assert_eq!(p.as_watts(), 55.0);
/// assert!(b.state_of_charge().as_f64() > 0.4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    chemistry: Chemistry,
    capacity: Energy,
    stored: Energy,
    /// Cumulative energy drawn from the cells (before efficiency), used for
    /// equivalent-full-cycle accounting.
    throughput: Energy,
    /// Number of discharge *events* (transitions from idle to discharging).
    discharge_events: u32,
    discharging: bool,
}

impl Battery {
    /// Creates a fully charged battery from an amp-hour rating at the
    /// chemistry's nominal voltage.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_ups::{Battery, Chemistry};
    /// use dcs_units::Charge;
    /// let b = Battery::new(Chemistry::LeadAcid, Charge::from_amp_hours(0.5));
    /// assert!(b.capacity().as_watt_hours() > 5.9);
    /// ```
    #[must_use]
    pub fn new(chemistry: Chemistry, rating: Charge) -> Battery {
        let capacity = rating.energy_at_volts(chemistry.nominal_volts());
        Battery {
            chemistry,
            capacity,
            stored: capacity,
            throughput: Energy::ZERO,
            discharge_events: 0,
            discharging: false,
        }
    }

    /// Creates a fully charged battery directly from an energy capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    #[must_use]
    pub fn from_energy(chemistry: Chemistry, capacity: Energy) -> Battery {
        assert!(capacity > Energy::ZERO, "capacity must be positive");
        Battery {
            chemistry,
            capacity,
            stored: capacity,
            throughput: Energy::ZERO,
            discharge_events: 0,
            discharging: false,
        }
    }

    /// Returns the battery chemistry.
    #[must_use]
    pub fn chemistry(&self) -> Chemistry {
        self.chemistry
    }

    /// Returns the rated energy capacity.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Returns the currently stored energy.
    #[must_use]
    pub fn stored(&self) -> Energy {
        self.stored
    }

    /// Returns the state of charge as a ratio of capacity.
    #[must_use]
    pub fn state_of_charge(&self) -> Ratio {
        self.stored.ratio_of(self.capacity)
    }

    /// Returns the energy still deliverable to a load: usable stored energy
    /// (above the depth-of-discharge floor) times discharge efficiency.
    #[must_use]
    pub fn deliverable(&self) -> Energy {
        let floor = self.capacity * (1.0 - self.chemistry.max_depth_of_discharge());
        (self.stored - floor).max_zero() * self.chemistry.discharge_efficiency()
    }

    /// Returns how long this battery can carry `load` before hitting its
    /// discharge floor, or [`Seconds::NEVER`] for a non-positive load.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_ups::{Battery, Chemistry};
    /// use dcs_units::{Charge, Power};
    /// let b = Battery::new(Chemistry::LithiumIronPhosphate, Charge::from_amp_hours(0.5));
    /// // The paper: 0.5 Ah sustains ~55 W for about 6 minutes.
    /// let t = b.runtime_at(Power::from_watts(55.0));
    /// assert!((t.as_minutes() - 6.0).abs() < 1.0);
    /// ```
    #[must_use]
    pub fn runtime_at(&self, load: Power) -> Seconds {
        if load <= Power::ZERO {
            return Seconds::NEVER;
        }
        self.deliverable() / load
    }

    /// Discharges into a load of `requested` power for `dt`, returning the
    /// power actually delivered (less than requested when the battery runs
    /// into its floor during the interval).
    ///
    /// # Panics
    ///
    /// Panics if `requested` is negative or `dt` is not strictly positive
    /// and finite.
    pub fn discharge(&mut self, requested: Power, dt: Seconds) -> Power {
        assert!(
            requested >= Power::ZERO,
            "requested power must be non-negative"
        );
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        if requested.is_zero() {
            self.discharging = false;
            return Power::ZERO;
        }
        let available = self.deliverable();
        if available.is_zero() {
            self.discharging = false;
            return Power::ZERO;
        }
        if !self.discharging {
            self.discharging = true;
            self.discharge_events += 1;
        }
        let wanted = requested * dt;
        let delivered_energy = wanted.min(available);
        let drawn = delivered_energy / self.chemistry.discharge_efficiency();
        self.stored -= drawn;
        self.throughput += drawn;
        delivered_energy / dt
    }

    /// Recharges with `power` for `dt`, returning the power actually
    /// accepted (zero once full).
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or `dt` is not strictly positive and
    /// finite.
    pub fn recharge(&mut self, power: Power, dt: Seconds) -> Power {
        assert!(power >= Power::ZERO, "recharge power must be non-negative");
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        self.discharging = false;
        let room = (self.capacity - self.stored).max_zero();
        let offered = power * dt;
        let accepted = offered.min(room);
        self.stored += accepted;
        accepted / dt
    }

    /// Returns the number of equivalent full cycles implied by the total
    /// discharge throughput.
    #[must_use]
    pub fn equivalent_full_cycles(&self) -> f64 {
        self.throughput.as_joules() / self.capacity.as_joules()
    }

    /// Returns the number of distinct discharge events so far.
    #[must_use]
    pub fn discharge_events(&self) -> u32 {
        self.discharge_events
    }

    /// Exports the battery's runtime state, for checkpoints.
    #[must_use]
    pub fn export_hot_state(&self) -> BatteryHotState {
        BatteryHotState {
            stored: self.stored,
            throughput: self.throughput,
            discharge_events: self.discharge_events,
            discharging: self.discharging,
        }
    }

    /// Restores runtime state exported by
    /// [`export_hot_state`](Self::export_hot_state).
    pub fn import_hot_state(&mut self, hot: BatteryHotState) {
        self.stored = hot.stored;
        self.throughput = hot.throughput;
        self.discharge_events = hot.discharge_events;
        self.discharging = hot.discharging;
    }

    /// Returns `true` if `events_per_month` discharge events of
    /// `depth` (fraction of capacity each) stay within the chemistry's
    /// tolerated monthly full discharges, i.e. sprinting at this cadence has
    /// no battery-lifetime cost.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_ups::{Battery, Chemistry};
    /// use dcs_units::{Charge, Ratio};
    /// let b = Battery::new(Chemistry::LithiumIronPhosphate, Charge::from_amp_hours(0.5));
    /// // The paper's MS-trace month: 200 bursts at 26% depth each.
    /// assert!(b.within_lifetime_budget(200, Ratio::from_percent(26.0)));
    /// ```
    #[must_use]
    pub fn within_lifetime_budget(&self, events_per_month: u32, depth: Ratio) -> bool {
        let full_equiv = f64::from(events_per_month) * depth.as_f64().max(0.0);
        full_equiv <= f64::from(self.chemistry.tolerated_full_discharges_per_month()) * 6.0
            && depth.as_f64() <= self.chemistry.max_depth_of_discharge()
    }
}

impl std::fmt::Display for Battery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} battery {} / {} ({})",
            self.chemistry,
            self.stored,
            self.capacity,
            self.state_of_charge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lfp() -> Battery {
        Battery::new(Chemistry::LithiumIronPhosphate, Charge::from_amp_hours(0.5))
    }

    #[test]
    fn paper_runtime_is_about_six_minutes() {
        let t = lfp().runtime_at(Power::from_watts(55.0));
        assert!(t.as_minutes() > 5.0 && t.as_minutes() < 7.5, "{t}");
    }

    #[test]
    fn discharge_delivers_requested_until_empty() {
        let mut b = lfp();
        let p = b.discharge(Power::from_watts(55.0), Seconds::from_minutes(1.0));
        assert_eq!(p.as_watts(), 55.0);
        // Drain the rest.
        let p2 = b.discharge(Power::from_watts(55.0), Seconds::from_hours(1.0));
        assert!(p2 < Power::from_watts(55.0));
        assert!(b.deliverable().is_zero());
        let p3 = b.discharge(Power::from_watts(55.0), Seconds::new(1.0));
        assert!(p3.is_zero());
    }

    #[test]
    fn efficiency_burns_extra_stored_energy() {
        let mut b = lfp();
        let before = b.stored();
        b.discharge(Power::from_watts(100.0), Seconds::new(36.0));
        let delivered = Energy::from_joules(3600.0);
        let drawn = before - b.stored();
        assert!(drawn > delivered);
        assert!((drawn.as_joules() - delivered.as_joules() / 0.95).abs() < 1e-6);
    }

    #[test]
    fn lead_acid_keeps_dod_floor() {
        let mut b = Battery::new(Chemistry::LeadAcid, Charge::from_amp_hours(1.0));
        b.discharge(Power::from_kilowatts(10.0), Seconds::from_hours(10.0));
        // 20% must remain.
        assert!((b.state_of_charge().as_f64() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn recharge_stops_at_capacity() {
        let mut b = lfp();
        b.discharge(Power::from_watts(55.0), Seconds::from_minutes(2.0));
        let accepted = b.recharge(Power::from_watts(1000.0), Seconds::from_hours(1.0));
        assert!(accepted > Power::ZERO);
        assert!((b.state_of_charge().as_f64() - 1.0).abs() < 1e-9);
        let again = b.recharge(Power::from_watts(10.0), Seconds::new(1.0));
        assert!(again.is_zero());
    }

    #[test]
    fn discharge_events_count_transitions() {
        let mut b = lfp();
        b.discharge(Power::from_watts(10.0), Seconds::new(1.0));
        b.discharge(Power::from_watts(10.0), Seconds::new(1.0));
        assert_eq!(b.discharge_events(), 1);
        b.recharge(Power::from_watts(10.0), Seconds::new(1.0));
        b.discharge(Power::from_watts(10.0), Seconds::new(1.0));
        assert_eq!(b.discharge_events(), 2);
    }

    #[test]
    fn equivalent_cycles_track_throughput() {
        let mut b = lfp();
        let cap = b.capacity();
        // Draw half the capacity (at the cells).
        let half = cap * 0.5 * b.chemistry().discharge_efficiency();
        b.discharge(half / Seconds::new(60.0), Seconds::new(60.0));
        assert!((b.equivalent_full_cycles() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lifetime_budget_matches_paper_examples() {
        let b = lfp();
        // 10 full discharges/month is explicitly fine.
        assert!(b.within_lifetime_budget(10, Ratio::ONE));
        // The MS-trace month: 200 bursts at 26% depth — fine per [18].
        assert!(b.within_lifetime_budget(200, Ratio::from_percent(26.0)));
        // An absurd cadence is not.
        assert!(!b.within_lifetime_budget(2000, Ratio::ONE));
    }

    #[test]
    fn from_energy_constructor() {
        let b = Battery::from_energy(Chemistry::LeadAcid, Energy::from_watt_hours(10.0));
        assert_eq!(b.capacity().as_watt_hours(), 10.0);
        assert_eq!(b.state_of_charge(), Ratio::ONE);
    }

    #[test]
    fn display_mentions_chemistry() {
        assert!(lfp().to_string().contains("LiFePO4"));
    }
}
