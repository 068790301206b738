//! Hierarchical power-delivery topology for Data Center Sprinting.
//!
//! The paper's facility is a two-level hierarchy: an on-site substation
//! behind a data-center-level circuit breaker feeds the PDUs (each behind
//! its own breaker, each powering 200 servers) plus the cooling plant.
//! Sprinting must respect *both* levels: Phase 1 overloads breakers within
//! their trip-curve tolerance, and the controller enforces the invariant
//! that the sum of child-branch power stays under the parent's bound, so
//! that PDU-level overloads can never trip the substation breaker
//! unexpectedly (§V-B).
//!
//! This crate provides:
//!
//! * [`DataCenterSpec`] — the paper's §VI-A facility: ~180,000 SCC-48
//!   servers (10 MW peak normal IT power), 200 servers per PDU behind
//!   13.75 kW NEC-sized breakers, PUE 1.53, and a configurable
//!   (under-provisioned) DC-level headroom, 10 % by default;
//! * [`PowerTopology`] — the stateful breaker hierarchy with uniform-load
//!   stepping and reserve-rule capacity queries.
//!
//! # Examples
//!
//! ```
//! use dcs_power::DataCenterSpec;
//!
//! let spec = DataCenterSpec::paper_default();
//! assert_eq!(spec.total_servers(), 180_000);
//! assert_eq!(spec.pdu_rated().as_kilowatts(), 13.75);
//! // Peak normal facility power ~15.1 MW; DC breaker adds 10% headroom.
//! assert!((spec.peak_normal_total_power().as_megawatts() - 15.147).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod spec;
mod topology;

pub use spec::DataCenterSpec;
pub use topology::{PowerTopology, TopologyCaps, TopologyHotState, TopologyStatus};
