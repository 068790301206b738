//! The uncontrolled chip-level sprinting baseline (§VII-A, Fig. 8a).
//!
//! Since the step-kernel refactor the baseline is an
//! `UncontrolledPolicy` over the shared [`FacilityState`]: the policy
//! greedily activates whatever cores demand asks for (optionally watching
//! the breakers to abandon the sprint just in time), and the kernel runs
//! the same breaker physics as every other engine. Trip timing, core
//! counts, served demand, and admission are bit-identical to the
//! historical standalone loop.

use crate::Scenario;
use dcs_core::{
    step_cycle, CoolingPlan, CoreDecision, FacilityState, StepEffects, StepInput, StepPolicy,
    StepSink,
};
use dcs_units::{Power, Ratio, Seconds};
use dcs_workload::AdmissionLog;
use serde::{Deserialize, Serialize};

/// What the uncontrolled baseline does about imminent breaker trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UncontrolledMode {
    /// Sprint blindly; a breaker trips and the facility goes dark (served
    /// demand drops to zero) — the paper's "disastrous server shutdowns".
    RunToTrip,
    /// Watch the breakers and abandon the sprint (permanently) one step
    /// before a trip — the paper's "we have to finish the chip-level
    /// sprinting before this moment ... which results in low performance".
    StopBeforeTrip,
}

/// One step of the uncontrolled baseline's telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UncontrolledRecord {
    /// Simulation time at the start of the step.
    pub time: Seconds,
    /// Offered demand.
    pub demand: f64,
    /// Served demand (zero after a blackout).
    pub served: f64,
    /// Active cores per server.
    pub cores: u32,
}

/// The outcome of an uncontrolled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncontrolledResult {
    /// Which mode ran.
    pub mode: UncontrolledMode,
    /// Per-step telemetry.
    pub records: Vec<UncontrolledRecord>,
    /// Served/dropped accounting.
    pub admission: AdmissionLog,
    /// When a breaker tripped (RunToTrip) and its name.
    pub trip: Option<(Seconds, String)>,
    /// When the sprint was abandoned (StopBeforeTrip).
    pub stopped_at: Option<Seconds>,
}

impl UncontrolledResult {
    /// Returns the time-average served demand.
    #[must_use]
    pub fn average_performance(&self) -> f64 {
        self.admission.average_served()
    }
}

/// Uncontrolled chip-level sprinting as a kernel policy: every server
/// greedily activates the cores its demand asks for, with no CB
/// coordination, no UPS offloading and no TES. The cooling plant stays at
/// its design capacity (chip-level sprinting cannot raise facility
/// cooling).
#[derive(Debug, Clone)]
pub(crate) struct UncontrolledPolicy {
    mode: UncontrolledMode,
    dark: bool,
    trip: Option<(Seconds, String)>,
    stopped_at: Option<Seconds>,
}

impl UncontrolledPolicy {
    /// Builds the policy in its initial (sprint-allowed) state.
    #[must_use]
    pub fn new(mode: UncontrolledMode) -> UncontrolledPolicy {
        UncontrolledPolicy {
            mode,
            dark: false,
            trip: None,
            stopped_at: None,
        }
    }
}

impl<'a> StepPolicy<FacilityState<'a>> for UncontrolledPolicy {
    fn decide(&mut self, state: &FacilityState<'a>, input: &StepInput) -> CoreDecision {
        let spec = state.spec();
        let server = spec.server();
        let plant = state.plant();
        let normal = server.normal_cores();
        let n_servers = state.n_servers();
        let demand = input.demand;
        let dt = input.dt;

        let sprint_allowed = self.stopped_at.is_none() && !self.dark;
        let mut cores = if sprint_allowed {
            server.cores_for_demand(Ratio::new(demand)).max(normal)
        } else {
            normal
        };

        if self.mode == UncontrolledMode::StopBeforeTrip && sprint_allowed && cores > normal {
            // Check whether holding this load for one more step trips any
            // breaker; if so, abandon the sprint for good.
            let per_server = server.power_serving(cores, Ratio::new(demand));
            let per_pdu = per_server * spec.servers_per_pdu() as f64;
            let it_total = per_server * n_servers;
            let cooling = plant.electric_power(plant.chiller_absorption(it_total), Power::ZERO);
            let dc_load = it_total + cooling;
            let topo = state.topology();
            let pdu_rem = topo.pdu_breakers()[0].remaining_time_at(per_pdu);
            let dc_rem = topo.dc_breaker().remaining_time_at(dc_load);
            if pdu_rem.min(dc_rem) <= dt {
                self.stopped_at = Some(input.time);
                cores = normal;
            }
        }

        if self.dark {
            // Blacked out: the kernel skips all physics and serves nothing.
            return CoreDecision {
                cores,
                per_server: Power::ZERO,
                plan: CoolingPlan {
                    via_tes: Power::ZERO,
                    via_chiller: Power::ZERO,
                    electric: Power::ZERO,
                    feasible: true,
                },
                deficit: Power::ZERO,
                upper_bound: server.max_degree(),
                sprinting: false,
                shed_reason: None,
                recharge: false,
                book_sprint_energy: false,
                dark: true,
            };
        }

        let per_server = server.power_serving(cores, Ratio::new(demand));
        let it_total = per_server * n_servers;
        // Facility cooling stays at the chiller's design behavior: the plan
        // is built manually (no TES, no recool override) so the DC-level
        // breaker sees exactly the historical IT + cooling load and trip
        // timing is preserved bitwise.
        let via_chiller = plant.chiller_absorption(it_total);
        CoreDecision {
            cores,
            per_server,
            plan: CoolingPlan {
                via_tes: Power::ZERO,
                via_chiller,
                electric: plant.electric_power(via_chiller, Power::ZERO),
                feasible: true,
            },
            // No CB coordination: nothing is ever offloaded to the UPS.
            deficit: Power::ZERO,
            upper_bound: server.max_degree(),
            sprinting: cores > normal,
            shed_reason: None,
            recharge: false,
            book_sprint_energy: false,
            dark: false,
        }
    }

    fn finish(
        &mut self,
        _state: &FacilityState<'a>,
        input: &StepInput,
        _decision: &CoreDecision,
        effects: &mut StepEffects,
    ) {
        if let Some(ev) = effects.trips.first() {
            self.trip = Some((input.time + ev.after, ev.name.clone()));
            self.dark = true;
        }
        // The trace timestamp, for parity with the historical records.
        effects.record.time = input.time;
    }
}

/// Collects [`UncontrolledRecord`]s and admission accounting from the
/// kernel's finished steps.
#[derive(Debug, Clone, Default)]
pub(crate) struct UncontrolledSink {
    /// The per-step records, in step order.
    pub records: Vec<UncontrolledRecord>,
    /// Served/dropped accounting over the recorded steps.
    pub admission: AdmissionLog,
}

impl UncontrolledSink {
    /// An empty sink with room for `capacity` steps.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> UncontrolledSink {
        UncontrolledSink {
            records: Vec::with_capacity(capacity),
            admission: AdmissionLog::new(),
        }
    }
}

impl<'a> StepSink<FacilityState<'a>> for UncontrolledSink {
    fn record(&mut self, input: &StepInput, effects: &StepEffects) {
        self.admission
            .record(input.demand, effects.record.served, input.dt);
        self.records.push(UncontrolledRecord {
            time: effects.record.time,
            demand: input.demand,
            served: effects.record.served,
            cores: effects.record.cores,
        });
    }
}

/// Simulates uncontrolled chip-level sprinting: every server activates
/// the cores its demand asks for, with no CB coordination, no UPS
/// offloading and no TES.
///
/// With the paper's configuration this trips a PDU-level breaker a few
/// minutes into the MS trace — Fig. 8(a)'s "CB trips here (5 min 20 s)".
#[must_use]
pub fn run_uncontrolled(scenario: &Scenario, mode: UncontrolledMode) -> UncontrolledResult {
    let mut facility = FacilityState::new(scenario.spec(), scenario.config());
    let mut policy = UncontrolledPolicy::new(mode);
    let mut sink = UncontrolledSink::with_capacity(scenario.trace().len());
    let dt = scenario.trace().step();
    for (time, demand) in scenario.trace().iter() {
        let input = StepInput::nominal(time, demand, dt);
        step_cycle(&mut facility, &mut policy, &input, &mut sink);
    }
    UncontrolledResult {
        mode,
        records: sink.records,
        admission: sink.admission,
        trip: policy.trip,
        stopped_at: policy.stopped_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::ControllerConfig;
    use dcs_power::DataCenterSpec;
    use dcs_workload::ms_trace;

    fn ms_scenario() -> Scenario {
        Scenario::new(
            DataCenterSpec::paper_default().with_scale(4, 200),
            ControllerConfig::default(),
            ms_trace::paper_default(),
        )
    }

    #[test]
    fn run_to_trip_blacks_out() {
        let r = run_uncontrolled(&ms_scenario(), UncontrolledMode::RunToTrip);
        let (when, name) = r.trip.clone().expect("must trip on the MS trace");
        // The paper: uncontrolled sprinting trips a CB minutes into the
        // trace (5 min 20 s on the authors' testbed).
        assert!(
            when > Seconds::from_minutes(2.0) && when < Seconds::from_minutes(10.0),
            "tripped at {when} ({name})"
        );
        // After the trip the facility serves nothing.
        assert!(r.records.last().unwrap().served == 0.0);
    }

    #[test]
    fn stop_before_trip_survives_at_low_performance() {
        let r = run_uncontrolled(&ms_scenario(), UncontrolledMode::StopBeforeTrip);
        assert!(r.trip.is_none(), "must not trip: {:?}", r.trip);
        let stopped = r.stopped_at.expect("must abandon the sprint");
        assert!(stopped < Seconds::from_minutes(10.0));
        // After stopping, performance is capped at the normal capacity.
        let after: Vec<_> = r.records.iter().filter(|rec| rec.time > stopped).collect();
        assert!(!after.is_empty());
        assert!(after.iter().all(|rec| rec.served <= 1.0 + 1e-9));
    }

    #[test]
    fn stop_mode_outperforms_blackout() {
        let s = ms_scenario();
        let stop = run_uncontrolled(&s, UncontrolledMode::StopBeforeTrip);
        let dark = run_uncontrolled(&s, UncontrolledMode::RunToTrip);
        assert!(stop.average_performance() > dark.average_performance());
    }
}
