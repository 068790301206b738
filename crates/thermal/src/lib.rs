//! Cooling-plant, thermal-storage and room-temperature models.
//!
//! Phase 3 of Data Center Sprinting discharges a thermal energy storage
//! (TES) tank — chilled coolant kept as a cooling backup — so that the CRAC
//! units can absorb the extra heat sprinting generates *without* raising
//! chiller power. Replacing the chiller with TES even cuts up to 2/3 of the
//! cooling power (the remaining 1/3 runs the pumps, valves and CRAC fans),
//! which reduces the overload on the data-center-level circuit breaker.
//!
//! This crate models that machinery:
//!
//! * [`CoolingPlant`] — chiller + CRAC electric power as a function of the
//!   heat absorbed, split into a chiller share (2/3) and an auxiliary share
//!   (1/3), with PUE-based sizing (default PUE 1.53);
//! * [`TesTank`] — a cold-coolant tank with finite heat-absorption capacity
//!   (default: carries the full cooling load for 12 minutes at the peak
//!   normal server power, per the Intel whitepaper the paper cites);
//! * [`RoomModel`] — a lumped-capacitance air-temperature model calibrated
//!   to the Schneider Electric CFD result the paper relies on: a full
//!   generation/absorption gap at peak normal server power stays safe if
//!   closed by the 5th minute;
//! * [`tes_activation_deadline`] — the paper's scheduling rule
//!   `5 min × (peak normal server power / max additional server power)`.
//!
//! # Examples
//!
//! ```
//! use dcs_thermal::{tes_activation_deadline, CoolingPlant, TesTank};
//! use dcs_units::{Power, Seconds};
//!
//! let peak_normal = Power::from_megawatts(10.0);
//! let plant = CoolingPlant::with_pue(1.53, peak_normal);
//! // Cooling the full normal load costs (PUE-1) x IT power...
//! assert!((plant.electric_power(peak_normal, Power::ZERO).as_megawatts() - 5.3).abs() < 1e-9);
//! // ...and moving that load onto TES saves 2/3 of it.
//! let with_tes = plant.electric_power(Power::ZERO, peak_normal);
//! assert!((with_tes.as_megawatts() - 5.3 / 3.0).abs() < 1e-9);
//!
//! // Sprinting with an extra 5 MW of server power: TES must start by 10 min.
//! let deadline = tes_activation_deadline(peak_normal, Power::from_megawatts(5.0));
//! assert!((deadline.as_minutes() - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plant;
mod room;
mod tes;

pub use plant::{CoolingPlant, CHILLER_SHARE};
pub use room::{tes_activation_deadline, RoomModel};
pub use tes::{TesHotState, TesTank};
