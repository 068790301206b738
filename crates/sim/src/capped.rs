//! The power-capping baseline the paper contrasts against (§II).
//!
//! Power-capping work (SHIP, ensemble-level management, …) keeps
//! consumption *below* the rated limits at all times, typically by DVFS
//! throttling. §II: *"In contrast, we propose to temporarily violate the
//! power limits by turning on more cores than allowed ... our solution can
//! result in much better performance for bursty workloads."* This runner
//! quantifies that contrast: it serves each step with the most cores that
//! fit under the rated PDU and DC limits — no CB overload, no UPS, no TES.
//!
//! Since the step-kernel refactor the baseline is a `CappedPolicy` over
//! the shared [`FacilityState`]: the policy picks the largest core count
//! within the ratings (by binary search — feasibility is monotone in the
//! count), and the kernel runs the same plant physics as every other
//! engine. Core selection, served demand, and admission are bit-identical
//! to the historical walk-down implementation; the reported room
//! temperature and cooling power now come from the live room model instead
//! of a hardcoded setpoint constant.

use crate::sink::RecordSink;
use crate::{Scenario, SimResult};
use dcs_core::{
    search_largest_feasible, step_cycle, CoreDecision, FacilityState, StepEffects, StepInput,
    StepPolicy,
};
use dcs_power::DataCenterSpec;
use dcs_units::{Energy, Power, Ratio};

/// The §II DVFS-style power-capping decision rule as a kernel policy:
/// every step activates the most cores whose IT-plus-cooling power fits
/// *within the ratings* of both breaker levels. Nothing ever overloads,
/// so nothing ever trips — but burst performance is capped at whatever
/// the NEC headroom allows.
#[derive(Debug, Clone)]
pub(crate) struct CappedPolicy {
    pdu_budget_per_server: Power,
    dc_rated: Power,
}

impl CappedPolicy {
    /// Builds the policy for a facility spec.
    #[must_use]
    pub fn new(spec: &DataCenterSpec) -> CappedPolicy {
        CappedPolicy {
            pdu_budget_per_server: spec.pdu_rated() / spec.servers_per_pdu() as f64,
            dc_rated: spec.dc_rated(),
        }
    }
}

impl<'a> StepPolicy<FacilityState<'a>> for CappedPolicy {
    fn decide(&mut self, state: &FacilityState<'a>, input: &StepInput) -> CoreDecision {
        let server = state.spec().server();
        let normal = state.normal_cores();
        let n_servers = state.n_servers();
        let plant = state.plant();
        let demand = input.demand;

        let desired = server.cores_for_demand(Ratio::new(demand)).max(normal);
        // The rating check is monotone in the core count (more cores draw
        // more IT and cooling power against fixed limits), so the largest
        // count within both rated limits is found by binary search —
        // replacing the historical top-down linear walk, same answer.
        let mut probe = |cores: u32| -> Result<Power, ()> {
            let per_server = server.power_serving(cores, Ratio::new(demand));
            let it_total = per_server * n_servers;
            let cooling = plant.electric_power(plant.chiller_absorption(it_total), Power::ZERO);
            if per_server <= self.pdu_budget_per_server && it_total + cooling <= self.dc_rated {
                Ok(per_server)
            } else {
                Err(())
            }
        };
        let (best, _) = search_largest_feasible(normal, desired, &mut probe);
        let (chosen, per_server) = match best {
            Some((cores, per_server)) => (cores, per_server),
            None => (normal, server.power_serving(normal, Ratio::new(demand))),
        };

        // The *actuation* plan couples the chosen load to the live room
        // model: a burst above the chiller design capacity warms the room,
        // and quiet periods re-cool it — the telemetry the hardcoded
        // 25 °C constant used to hide. `sprinting_extra` stays false: the
        // capped facility never engages the TES.
        let plan = state.plan_cooling(per_server * n_servers, false, input.dt);

        CoreDecision {
            cores: chosen,
            per_server,
            plan,
            // No CB overload by construction, so no UPS relief either.
            deficit: Power::ZERO,
            upper_bound: server.max_degree(),
            sprinting: false,
            shed_reason: None,
            recharge: false,
            // The capped baseline uses no additional energy by definition;
            // keep the CB/UPS/TES ledgers at zero.
            book_sprint_energy: false,
            dark: false,
        }
    }

    fn finish(
        &mut self,
        state: &FacilityState<'a>,
        input: &StepInput,
        decision: &CoreDecision,
        effects: &mut StepEffects,
    ) {
        let rec = &mut effects.record;
        // Report the driver's trace timestamp (bit-identical to the
        // historical records even on non-integer control periods).
        rec.time = input.time;
        // Historical telemetry convention: the `sprinting` flag marks any
        // above-normal allocation, but the phase stays `Normal` — the
        // capped facility never enters the three-phase methodology.
        rec.sprinting = decision.cores > state.normal_cores();
        rec.phase = dcs_core::Phase::Normal;
    }
}

/// Simulates a DVFS-style power-capped facility: every step activates the
/// most cores whose IT-plus-cooling power fits *within the ratings* of
/// both breaker levels.
#[must_use]
pub fn run_power_capped(scenario: &Scenario) -> SimResult {
    let mut facility = FacilityState::new(scenario.spec(), scenario.config());
    let mut policy = CappedPolicy::new(scenario.spec());
    let mut sink = RecordSink::with_capacity(scenario.trace().len());
    let dt = scenario.trace().step();
    for (time, demand) in scenario.trace().iter() {
        let input = StepInput::nominal(time, demand, dt);
        step_cycle(&mut facility, &mut policy, &input, &mut sink);
    }
    SimResult {
        strategy: "PowerCapped".into(),
        step: dt,
        records: sink.records,
        admission: sink.admission,
        cb_energy: Energy::ZERO,
        ups_energy: Energy::ZERO,
        tes_energy: Energy::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, run_no_sprint};
    use dcs_core::{ControllerConfig, Greedy};
    use dcs_units::Seconds;
    use dcs_workload::yahoo_trace;

    fn scenario() -> Scenario {
        Scenario::new(
            DataCenterSpec::paper_default().with_scale(2, 200),
            ControllerConfig::default(),
            yahoo_trace::with_burst(1, 3.0, Seconds::from_minutes(5.0)),
        )
    }

    #[test]
    fn capped_run_respects_the_ratings_always() {
        let spec = scenario().spec().clone();
        let result = run_power_capped(&scenario());
        for r in &result.records {
            let per_pdu = r.it_power / spec.pdu_count() as f64;
            assert!(per_pdu <= spec.pdu_rated() + Power::from_watts(1e-6));
            assert!(r.it_power + r.cooling_power <= spec.dc_rated() + Power::from_watts(1e-6));
        }
        assert!(!result.any_tripped());
    }

    #[test]
    fn capping_beats_no_sprint_but_loses_to_sprinting() {
        // The §II claim: the NEC headroom lets a capped facility do a
        // little better than nothing, but sprinting's temporary violations
        // serve far more of the burst.
        let s = scenario();
        let base = run_no_sprint(&s);
        let capped = run_power_capped(&s);
        let sprint = run(&s, Box::new(Greedy));
        let b = base.burst_performance(1.0);
        let c = capped.burst_performance(1.0);
        let g = sprint.burst_performance(1.0);
        assert!(c > b, "capping {c} must beat no-sprint {b}");
        assert!(
            g > 1.5 * c,
            "sprinting {g} must far exceed capping {c} on bursts"
        );
    }

    #[test]
    fn capped_degree_is_limited_by_headroom() {
        // With the paper's 25% NEC headroom at the PDU level, the capped
        // facility can run 68.75 W/server: 17 cores, degree ~1.42.
        let result = run_power_capped(&scenario());
        let peak = result.peak_degree();
        assert!(
            (1.0..=1.5).contains(&peak),
            "capped peak degree {peak} outside the headroom band"
        );
    }
}
