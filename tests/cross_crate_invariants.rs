//! Cross-crate physical invariants: conservation laws and safety
//! properties that must hold across the controller, the power topology,
//! the stores and the thermal plant together.

use datacenter_sprinting::core::{ControllerConfig, FixedBound, Greedy, SprintController};
use datacenter_sprinting::power::DataCenterSpec;
use datacenter_sprinting::units::{Energy, Power, Ratio, Seconds};
use datacenter_sprinting::workload::ms_trace;

fn spec() -> DataCenterSpec {
    DataCenterSpec::paper_default().with_scale(4, 200)
}

/// IT power is conserved: PDU-delivered power plus UPS power covers the
/// servers' draw every step.
#[test]
fn it_power_is_conserved_each_step() {
    let spec = spec();
    let config = ControllerConfig::default();
    let mut ctl = SprintController::new(&spec, &config, Box::new(Greedy));
    let trace = ms_trace::paper_default();
    for (_, demand) in trace.iter() {
        let r = ctl.step(demand, Seconds::new(1.0));
        // cb_extra_power is net-of-UPS power above peak normal; reconstruct
        // the PDU draw and compare against IT power.
        let pdu_drawn = r.it_power - r.ups_power;
        assert!(
            pdu_drawn >= -Power::from_watts(1e-6),
            "negative PDU draw at {}",
            r.time
        );
        assert!(
            r.ups_power <= r.it_power + Power::from_watts(1e-6),
            "UPS delivered more than the servers drew at {}",
            r.time
        );
    }
}

/// UPS energy is conserved: what the controller reports as delivered
/// matches the fleet's state-of-charge drop (modulo recharge and
/// efficiency).
#[test]
fn ups_energy_accounting_is_consistent() {
    let spec = spec();
    let config = ControllerConfig {
        recharge_when_quiet: false,
        ..ControllerConfig::default()
    };
    let mut ctl = SprintController::new(&spec, &config, Box::new(Greedy));
    let full = ctl.facility().ups().deliverable();
    for (_, demand) in ms_trace::paper_default().iter() {
        ctl.step(demand, Seconds::new(1.0));
    }
    let (_, delivered, _) = ctl.facility().energy_split();
    let drained = full - ctl.facility().ups().deliverable();
    // Delivered energy can never exceed what left the batteries.
    assert!(delivered <= drained + Energy::from_joules(1.0));
    // And the books must be close: everything drained was delivered.
    assert!(
        (drained - delivered).as_joules().abs() < full.as_joules() * 0.01,
        "drained {drained} vs delivered {delivered}"
    );
}

/// The TES heat ledger matches the tank's state of charge.
#[test]
fn tes_heat_accounting_is_consistent() {
    let spec = spec();
    let config = ControllerConfig {
        recharge_when_quiet: false,
        ..ControllerConfig::default()
    };
    let mut ctl = SprintController::new(&spec, &config, Box::new(Greedy));
    let full = ctl.facility().tes().stored();
    for (_, demand) in ms_trace::paper_default().iter() {
        ctl.step(demand, Seconds::new(1.0));
    }
    let tes_heat = ctl.facility().tes_heat_total();
    let drained = full - ctl.facility().tes().stored();
    assert!(
        (drained - tes_heat).as_joules().abs() < 1.0,
        "TES drained {drained} vs ledger {tes_heat}"
    );
}

/// The served demand never exceeds the core capacity actually active, and
/// the degree never exceeds the strategy bound.
#[test]
fn served_and_degree_respect_their_bounds() {
    let bound = Ratio::new(2.5);
    let spec = spec();
    let config = ControllerConfig::default();
    let mut ctl = SprintController::new(&spec, &config, Box::new(FixedBound::new(bound)));
    for (_, demand) in ms_trace::paper_default().iter() {
        let r = ctl.step(demand, Seconds::new(1.0));
        let capacity = spec.server().capacity_at_cores(r.cores);
        assert!(r.served <= capacity + 1e-9);
        assert!(r.served <= r.demand + 1e-9);
        assert!(r.degree <= bound, "degree {} above bound", r.degree);
    }
}

/// Breaker thermal safety: across the whole run, every breaker's remaining
/// trip time at the applied load stayed at or above the configured reserve
/// (sampled via trip progress never reaching 1).
#[test]
fn breakers_never_approach_a_trip() {
    let spec = spec();
    let config = ControllerConfig::default();
    let mut ctl = SprintController::new(&spec, &config, Box::new(Greedy));
    for (_, demand) in ms_trace::paper_default().iter() {
        ctl.step(demand, Seconds::new(1.0));
        let status = ctl.facility().topology().status();
        assert!(!status.any_tripped);
        assert!(status.dc_progress < 1.0);
        assert!(status.max_pdu_progress < 1.0);
    }
}

/// Room temperature stays strictly below the threshold for the whole run.
#[test]
fn room_stays_below_threshold() {
    let spec = spec();
    let config = ControllerConfig::default();
    let mut ctl = SprintController::new(&spec, &config, Box::new(Greedy));
    for (_, demand) in ms_trace::paper_default().iter() {
        let r = ctl.step(demand, Seconds::new(1.0));
        assert!(
            ctl.facility().room().temperature() < ctl.facility().room().threshold(),
            "room at {} at time {}",
            ctl.facility().room().temperature(),
            r.time
        );
    }
}

/// Scale invariance: the same trace on a 2-PDU and an 8-PDU facility
/// yields identical normalized performance (the property that justifies
/// building the Oracle table at unit-cell scale).
#[test]
fn normalized_performance_is_scale_invariant() {
    let trace = ms_trace::paper_default();
    let mut results = Vec::new();
    for pdus in [2usize, 8] {
        let s = DataCenterSpec::paper_default().with_scale(pdus, 200);
        let config = ControllerConfig::default();
        let mut ctl = SprintController::new(&s, &config, Box::new(Greedy));
        let mut served_sum = 0.0;
        for (_, demand) in trace.iter() {
            served_sum += ctl.step(demand, Seconds::new(1.0)).served;
        }
        results.push(served_sum);
    }
    // Whole-server UPS offload granularity differs slightly across fleet
    // sizes, so invariance holds to ~0.1%, not to machine precision.
    assert!(
        (results[0] - results[1]).abs() < results[0] * 1e-3,
        "scale variance: {results:?}"
    );
}
