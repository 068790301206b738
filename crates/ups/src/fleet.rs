//! Coordinated per-server UPS fleet.

use crate::{Battery, BatteryHotState, Chemistry};
use dcs_units::{Energy, Power, Ratio, Seconds};
use serde::{Deserialize, Serialize};

/// A snapshot of fleet state, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetStatus {
    /// Number of UPS units (servers) in the fleet.
    pub units: usize,
    /// Number of servers currently drawing from battery.
    pub on_battery: usize,
    /// Aggregate state of charge.
    pub state_of_charge: Ratio,
    /// Aggregate energy still deliverable to loads.
    pub deliverable: Energy,
}

/// The runtime state of a [`UpsFleet`], for checkpoints: the aggregate
/// battery's charge and cycle accounting, the on-battery headcount and the
/// fault derates. Unit count, chemistry and capacity are fixed at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpsHotState {
    /// The aggregate battery.
    pub battery: BatteryHotState,
    /// Servers drawing from battery at the last step.
    pub on_battery: usize,
    /// Fault injection: fraction of strings online.
    pub available_fraction: f64,
    /// Fault injection: capacity-fade factor on surviving strings.
    pub capacity_factor: f64,
}

/// A fleet of identical per-server UPS batteries under coordinated control.
///
/// Following Kontorinis et al. \[18\] (the deployment the paper assumes), each
/// server has its own small battery, and the coordinator chooses *how many
/// servers* draw from battery at any moment. Offloading a server removes its
/// entire draw from the PDU, so the fleet's offload granularity is one
/// server's power.
///
/// Internally the fleet tracks an aggregate battery; the coordinator is
/// assumed to rotate which physical servers discharge so that wear spreads
/// evenly (the same assumption \[18\] makes), which makes the aggregate model
/// exact for energy purposes.
///
/// # Examples
///
/// ```
/// use dcs_ups::{Chemistry, UpsFleet};
/// use dcs_units::{Charge, Power, Seconds};
///
/// let mut fleet = UpsFleet::new(200, Chemistry::LithiumIronPhosphate, Charge::from_amp_hours(0.5));
/// // Offload 1 kW of PDU overload at 55 W per server -> 19 servers on battery.
/// let off = fleet.offload(Power::from_kilowatts(1.0), Power::from_watts(55.0), Seconds::new(1.0));
/// assert!(off.as_watts() >= 1000.0);
/// assert_eq!(fleet.status().on_battery, 19);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UpsFleet {
    aggregate: Battery,
    units: usize,
    on_battery: usize,
    /// Fault injection: fraction of strings online, in `[0, 1]`.
    available_fraction: f64,
    /// Fault injection: capacity-fade factor on surviving strings, `(0, 1]`.
    capacity_factor: f64,
}

impl UpsFleet {
    /// Creates a fleet of `units` fully charged batteries of the given
    /// per-unit amp-hour rating.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero or the rating is zero.
    #[must_use]
    pub fn new(units: usize, chemistry: Chemistry, per_unit: dcs_units::Charge) -> UpsFleet {
        assert!(units > 0, "fleet must have at least one unit");
        let each = per_unit.energy_at_volts(chemistry.nominal_volts());
        assert!(each > Energy::ZERO, "battery rating must be positive");
        UpsFleet {
            aggregate: Battery::from_energy(chemistry, each * units as f64),
            units,
            on_battery: 0,
            available_fraction: 1.0,
            capacity_factor: 1.0,
        }
    }

    /// Sets the fault-injection derates: `available_fraction` of the
    /// strings are online (shrinking both the offload headcount and the
    /// accessible energy), and the survivors deliver `capacity_factor` of
    /// their energy. `(1.0, 1.0)` restores nominal behavior exactly.
    ///
    /// # Panics
    ///
    /// Panics if `available_fraction` is outside `[0, 1]` or
    /// `capacity_factor` is outside `(0, 1]`.
    pub fn set_derating(&mut self, available_fraction: f64, capacity_factor: f64) {
        assert!(
            (0.0..=1.0).contains(&available_fraction),
            "available fraction must be in [0, 1]"
        );
        assert!(
            capacity_factor > 0.0 && capacity_factor <= 1.0,
            "capacity factor must be in (0, 1]"
        );
        self.available_fraction = available_fraction;
        self.capacity_factor = capacity_factor;
    }

    /// Returns the fault-injection derates
    /// `(available_fraction, capacity_factor)`.
    #[must_use]
    pub fn derating(&self) -> (f64, f64) {
        (self.available_fraction, self.capacity_factor)
    }

    /// The combined usable-energy factor the derates impose.
    fn usable_factor(&self) -> f64 {
        self.available_fraction * self.capacity_factor
    }

    /// Energy stranded by the derates: offline strings and faded cells
    /// hold charge the coordinator cannot reach until the fault clears.
    fn stranded(&self) -> Energy {
        let full = self.aggregate.capacity()
            * self.aggregate.chemistry().max_depth_of_discharge()
            * self.aggregate.chemistry().discharge_efficiency();
        full * (1.0 - self.usable_factor())
    }

    /// Returns the number of UPS units.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Returns the aggregate energy still deliverable (derated by any
    /// injected string-failure or capacity-fade faults).
    #[must_use]
    pub fn deliverable(&self) -> Energy {
        (self.aggregate.deliverable() - self.stranded()).max_zero()
    }

    /// Returns the aggregate state of charge.
    #[must_use]
    pub fn state_of_charge(&self) -> Ratio {
        self.aggregate.state_of_charge()
    }

    /// Returns how long the fleet can sustain an offload of `power`.
    #[must_use]
    pub fn runtime_at(&self, power: Power) -> Seconds {
        if power <= Power::ZERO {
            return Seconds::NEVER;
        }
        self.deliverable() / power
    }

    /// Offloads at least `requested` power onto batteries for `dt`, in
    /// whole-server increments of `per_server`, limited by fleet size and
    /// stored energy. Returns the power actually removed from the PDUs.
    ///
    /// The returned power can exceed `requested` by up to one server's
    /// draw (offloading is whole-server), or fall short when energy runs
    /// out mid-interval.
    ///
    /// # Panics
    ///
    /// Panics if `per_server` is not strictly positive, `requested` is
    /// negative, or `dt` is not strictly positive and finite.
    pub fn offload(&mut self, requested: Power, per_server: Power, dt: Seconds) -> Power {
        assert!(
            per_server > Power::ZERO,
            "per-server power must be positive"
        );
        assert!(
            requested >= Power::ZERO,
            "requested power must be non-negative"
        );
        if requested.is_zero() {
            self.on_battery = 0;
            return Power::ZERO;
        }
        let online = (self.units as f64 * self.available_fraction).floor() as usize;
        let servers = ((requested.as_watts() / per_server.as_watts()).ceil() as usize).min(online);
        let mut want = per_server * servers as f64;
        if self.usable_factor() < 1.0 {
            // Derated strings cap the accessible energy below what the
            // aggregate battery still physically holds.
            want = want.min(self.deliverable() / dt);
        }
        let got = self.aggregate.discharge(want, dt);
        // Report how many servers were actually carried (floor: a partially
        // carried server still draws the remainder from the PDU).
        self.on_battery = (got.as_watts() / per_server.as_watts()).floor() as usize;
        got
    }

    /// Recharges the fleet with `power` for `dt`, returning the power
    /// actually accepted.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or `dt` is not strictly positive and
    /// finite.
    pub fn recharge(&mut self, power: Power, dt: Seconds) -> Power {
        self.on_battery = 0;
        self.aggregate.recharge(power, dt)
    }

    /// Returns a telemetry snapshot.
    #[must_use]
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            units: self.units,
            on_battery: self.on_battery,
            state_of_charge: self.state_of_charge(),
            deliverable: self.deliverable(),
        }
    }

    /// Exports the fleet's runtime state, for checkpoints.
    #[must_use]
    pub fn export_hot_state(&self) -> UpsHotState {
        UpsHotState {
            battery: self.aggregate.export_hot_state(),
            on_battery: self.on_battery,
            available_fraction: self.available_fraction,
            capacity_factor: self.capacity_factor,
        }
    }

    /// Restores runtime state exported by
    /// [`export_hot_state`](Self::export_hot_state) from a fleet built
    /// with the same units, chemistry and rating.
    ///
    /// # Panics
    ///
    /// Panics if the derates are out of range (see
    /// [`set_derating`](Self::set_derating)).
    pub fn import_hot_state(&mut self, hot: UpsHotState) {
        self.aggregate.import_hot_state(hot.battery);
        self.on_battery = hot.on_battery;
        self.set_derating(hot.available_fraction, hot.capacity_factor);
    }

    /// Returns the fraction of fleet capacity discharged so far (the
    /// quantity the paper checks against the \[18\] lifetime rule — e.g. the
    /// MS-trace month discharges 26 % per burst on average).
    #[must_use]
    pub fn discharged_fraction(&self) -> Ratio {
        Ratio::new(1.0 - self.aggregate.state_of_charge().as_f64())
    }
}

impl std::fmt::Display for UpsFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UPS fleet of {} units, {} on battery, SoC {}",
            self.units,
            self.on_battery,
            self.state_of_charge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_units::Charge;

    fn fleet(n: usize) -> UpsFleet {
        UpsFleet::new(
            n,
            Chemistry::LithiumIronPhosphate,
            Charge::from_amp_hours(0.5),
        )
    }

    #[test]
    fn offload_rounds_up_to_whole_servers() {
        let mut f = fleet(200);
        let got = f.offload(
            Power::from_watts(100.0),
            Power::from_watts(55.0),
            Seconds::new(1.0),
        );
        // ceil(100/55) = 2 servers -> 110 W.
        assert!((got.as_watts() - 110.0).abs() < 1e-9);
        assert_eq!(f.status().on_battery, 2);
    }

    #[test]
    fn offload_caps_at_fleet_size() {
        let mut f = fleet(10);
        let got = f.offload(
            Power::from_kilowatts(100.0),
            Power::from_watts(55.0),
            Seconds::new(1.0),
        );
        assert!((got.as_watts() - 550.0).abs() < 1e-9);
        assert_eq!(f.status().on_battery, 10);
    }

    #[test]
    fn energy_depletes_and_offload_stops() {
        let mut f = fleet(2);
        // Drain: 2 servers x 55 W for well over the ~6 min runtime.
        let mut last = Power::ZERO;
        for _ in 0..1200 {
            last = f.offload(
                Power::from_watts(110.0),
                Power::from_watts(55.0),
                Seconds::new(1.0),
            );
        }
        assert!(last.is_zero());
        assert!(f.deliverable().is_zero());
    }

    #[test]
    fn runtime_matches_paper_scale() {
        let f = fleet(200);
        // Whole fleet carrying all 200 servers at 55 W: ~6 minutes.
        let t = f.runtime_at(Power::from_watts(55.0) * 200.0);
        assert!(t.as_minutes() > 5.0 && t.as_minutes() < 7.5);
    }

    #[test]
    fn recharge_restores_capacity() {
        let mut f = fleet(4);
        f.offload(
            Power::from_watts(220.0),
            Power::from_watts(55.0),
            Seconds::from_minutes(2.0),
        );
        let before = f.state_of_charge();
        f.recharge(Power::from_watts(500.0), Seconds::from_minutes(10.0));
        assert!(f.state_of_charge() > before);
        assert_eq!(f.status().on_battery, 0);
    }

    #[test]
    fn zero_request_clears_on_battery() {
        let mut f = fleet(4);
        f.offload(
            Power::from_watts(110.0),
            Power::from_watts(55.0),
            Seconds::new(1.0),
        );
        assert_eq!(f.status().on_battery, 2);
        f.offload(Power::ZERO, Power::from_watts(55.0), Seconds::new(1.0));
        assert_eq!(f.status().on_battery, 0);
    }

    #[test]
    fn string_failure_derates_headcount_and_energy() {
        let mut f = fleet(10);
        let full = f.deliverable();
        f.set_derating(0.5, 1.0);
        assert!((f.deliverable().as_joules() - full.as_joules() * 0.5).abs() < 1e-6);
        // Only 5 strings online: a fleet-sized request carries 5 servers.
        let got = f.offload(
            Power::from_kilowatts(10.0),
            Power::from_watts(55.0),
            Seconds::new(1.0),
        );
        assert!((got.as_watts() - 275.0).abs() < 1e-9);
        assert_eq!(f.status().on_battery, 5);
    }

    #[test]
    fn capacity_fade_shortens_runtime() {
        let mut f = fleet(10);
        let nominal = f.runtime_at(Power::from_watts(550.0));
        f.set_derating(1.0, 0.6);
        let faded = f.runtime_at(Power::from_watts(550.0));
        assert!((faded.as_secs() - nominal.as_secs() * 0.6).abs() < 1e-6);
        // Draining stops at the derated energy, not the physical store.
        let mut drained = Power::ZERO;
        for _ in 0..3600 {
            drained = f.offload(
                Power::from_watts(550.0),
                Power::from_watts(55.0),
                Seconds::new(1.0),
            );
        }
        assert!(drained.is_zero());
        assert!(f.deliverable().as_joules() < 1e-6);
        // The inaccessible 40% is still physically there: clearing the
        // fault restores it.
        f.set_derating(1.0, 1.0);
        assert!(f.deliverable() > Energy::ZERO);
    }

    #[test]
    fn nominal_derating_is_identity() {
        let mut a = fleet(10);
        let mut b = fleet(10);
        b.set_derating(1.0, 1.0);
        let ga = a.offload(
            Power::from_watts(300.0),
            Power::from_watts(55.0),
            Seconds::new(1.0),
        );
        let gb = b.offload(
            Power::from_watts(300.0),
            Power::from_watts(55.0),
            Seconds::new(1.0),
        );
        assert_eq!(ga, gb);
        assert_eq!(a, b);
    }

    #[test]
    fn discharged_fraction_tracks_soc() {
        let mut f = fleet(10);
        assert_eq!(f.discharged_fraction().as_f64(), 0.0);
        f.offload(
            Power::from_watts(550.0),
            Power::from_watts(55.0),
            Seconds::from_minutes(1.0),
        );
        assert!(f.discharged_fraction().as_f64() > 0.0);
    }
}
