//! Circuit-breaker models for data-center power infrastructure.
//!
//! Data Center Sprinting's first phase rides the overload tolerance that
//! UL489-class molded-case circuit breakers are required to have: a breaker
//! holds its rated load indefinitely, tolerates moderate overloads for a
//! bounded *trip time* that shrinks as the overload grows (the long-delay
//! region of Fig. 2 in the paper), and opens essentially instantly on a
//! short circuit.
//!
//! This crate provides:
//!
//! * [`TripCurve`] — the overload → trip-time characteristic, calibrated by
//!   default to the Bulletin 1489-A points the paper quotes (60 % overload →
//!   1 minute, 30 % → 4 minutes, an inverse-square law);
//! * [`CircuitBreaker`] — a stateful breaker with *thermal memory*: a
//!   time-varying overload accumulates "trip progress" exactly like the
//!   bimetal element of a real thermal-magnetic breaker, cools down when the
//!   overload clears, and reports the *remaining time before trip* that the
//!   sprinting controller's reserve rule consumes;
//! * [`sizing`] — NEC-style helpers to derive breaker ratings from
//!   continuous loads (the 125 % continuous-load rule that creates the
//!   headroom sprinting exploits).
//!
//! # Examples
//!
//! ```
//! use dcs_breaker::{CircuitBreaker, TripCurve};
//! use dcs_units::{Power, Seconds};
//!
//! // A PDU breaker rated for 200 servers at 55 W plus NEC headroom.
//! let rated = Power::from_kilowatts(13.75);
//! let mut cb = CircuitBreaker::new("pdu-0", rated, TripCurve::bulletin_1489());
//!
//! // A 60 % overload trips in about one minute...
//! let load = rated * 1.6;
//! assert!((cb.trip_time_at(load).as_secs() - 60.0).abs() < 1e-6);
//!
//! // ...and the breaker integrates partial progress toward that trip.
//! cb.apply_load(load, Seconds::new(30.0)).unwrap();
//! assert!((cb.remaining_time_at(load).as_secs() - 30.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod curve;
pub mod sizing;

pub use breaker::{BreakerError, BreakerHotState, CircuitBreaker, TripEvent};
pub use curve::TripCurve;
