//! UPS battery models for Data Center Sprinting.
//!
//! Phase 2 of the paper's methodology discharges the UPS batteries that data
//! centers already deploy for outage ride-through, using them instead to
//! carry part of the server load so that PDU-level circuit breakers stop
//! being overloaded. The paper assumes *distributed* (per-server) UPS
//! batteries, coordinated so that a chosen number of servers draw from their
//! batteries while the rest stay on the PDU — the knob that shapes the
//! PDU-level power curve in Fig. 4(b).
//!
//! This crate provides:
//!
//! * [`Chemistry`] — lead-acid vs. LiFePO₄ parameters (nominal voltage,
//!   tolerated full discharges per month, required service life);
//! * [`Battery`] — a single battery with state of charge, discharge/recharge
//!   with efficiency, a depth-of-discharge floor, and throughput-based cycle
//!   accounting;
//! * [`UpsFleet`] — the per-server fleet, which offloads whole servers onto
//!   battery and aggregates the remaining energy and runtime.
//!
//! # Examples
//!
//! ```
//! use dcs_ups::{Battery, Chemistry};
//! use dcs_units::{Charge, Power, Seconds};
//!
//! // The paper's default: 0.5 Ah per server, ~6 minutes at 55 W.
//! let mut b = Battery::new(Chemistry::LithiumIronPhosphate, Charge::from_amp_hours(0.5));
//! let runtime = b.runtime_at(Power::from_watts(55.0));
//! assert!(runtime.as_minutes() > 5.0 && runtime.as_minutes() < 7.0);
//!
//! let delivered = b.discharge(Power::from_watts(55.0), Seconds::from_minutes(1.0));
//! assert_eq!(delivered.as_watts(), 55.0);
//! assert!(b.state_of_charge().as_f64() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod chemistry;
mod fleet;

pub use battery::{Battery, BatteryHotState};
pub use chemistry::Chemistry;
pub use fleet::{FleetStatus, UpsFleet, UpsHotState};
