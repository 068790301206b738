//! Scenario definition and simulation results.

use dcs_core::{ControllerConfig, Phase, StepRecord};
use dcs_power::DataCenterSpec;
use dcs_server::ServerSpec;
use dcs_units::{Energy, Seconds};
use dcs_workload::{AdmissionLog, LatencyModel, Trace};
use serde::{Deserialize, Serialize};

/// A complete simulation input: facility, controller configuration, and the
/// demand trace to serve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    spec: DataCenterSpec,
    config: ControllerConfig,
    trace: Trace,
}

impl Scenario {
    /// Creates a scenario.
    #[must_use]
    pub fn new(spec: DataCenterSpec, config: ControllerConfig, trace: Trace) -> Scenario {
        Scenario {
            spec,
            config,
            trace,
        }
    }

    /// Returns the facility spec.
    #[must_use]
    pub fn spec(&self) -> &DataCenterSpec {
        &self.spec
    }

    /// Returns the controller configuration.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Returns the demand trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Name of the strategy that produced this run.
    pub strategy: String,
    /// The control period / trace step of the run.
    pub step: Seconds,
    /// Per-step telemetry.
    pub records: Vec<StepRecord>,
    /// Served/dropped accounting.
    pub admission: AdmissionLog,
    /// PDU-delivered energy above the facility's peak normal IT power.
    pub cb_energy: Energy,
    /// Energy delivered from UPS batteries.
    pub ups_energy: Energy,
    /// Electric chiller savings funded by the TES discharge (the paper's
    /// DC-level TES contribution).
    pub tes_energy: Energy,
}

impl SimResult {
    /// Returns the time-average served demand (the paper's average
    /// computing performance, normalized to the no-sprint *capacity*).
    #[must_use]
    pub fn average_performance(&self) -> f64 {
        self.admission.average_served()
    }

    /// Returns the paper's improvement factor: average served demand over a
    /// baseline run's.
    ///
    /// # Panics
    ///
    /// Panics if the baseline served nothing.
    #[must_use]
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        self.admission.improvement_over(&baseline.admission)
    }

    /// Returns the average served demand over the *burst window* — the
    /// steps whose offered demand exceeds `threshold`. This is the paper's
    /// Fig. 9/10 metric: during the burst a no-sprint facility serves
    /// exactly 1.0, so the burst-window average *is* the performance
    /// normalized to no sprinting. Returns 0 when the trace never bursts.
    #[must_use]
    pub fn burst_performance(&self, threshold: f64) -> f64 {
        let mut integral = 0.0;
        let mut steps = 0usize;
        for r in &self.records {
            if r.demand > threshold {
                integral += r.served;
                steps += 1;
            }
        }
        if steps == 0 {
            0.0
        } else {
            integral / steps as f64
        }
    }

    /// Returns the burst-window improvement factor over a baseline run of
    /// the same trace.
    ///
    /// # Panics
    ///
    /// Panics if the baseline served nothing during the burst window.
    #[must_use]
    pub fn burst_improvement_over(&self, baseline: &SimResult, threshold: f64) -> f64 {
        let base = baseline.burst_performance(threshold);
        assert!(base > 0.0, "baseline served nothing during bursts");
        self.burst_performance(threshold) / base
    }

    /// Returns the time-average sprinting degree over the steps where a
    /// sprint was active (1.0 if it never sprinted) — the quantity the
    /// Heuristic strategy's `SDe_p` estimates.
    #[must_use]
    pub fn average_sprint_degree(&self) -> f64 {
        let mut integral = 0.0;
        let mut steps = 0usize;
        for r in &self.records {
            if r.sprinting {
                integral += r.degree.as_f64();
                steps += 1;
            }
        }
        if steps == 0 {
            1.0
        } else {
            integral / steps as f64
        }
    }

    /// Returns `true` if any breaker tripped during the run.
    #[must_use]
    pub fn any_tripped(&self) -> bool {
        self.records.iter().any(|r| r.tripped)
    }

    /// Returns `true` if the room hit its thermal threshold.
    #[must_use]
    pub fn any_overheated(&self) -> bool {
        self.records.iter().any(|r| r.overheated)
    }

    /// Returns the total time spent in a given methodology phase.
    #[must_use]
    pub fn time_in_phase(&self, phase: Phase, dt: Seconds) -> Seconds {
        dt * self.records.iter().filter(|r| r.phase == phase).count() as f64
    }

    /// Returns the shares of additional energy provided by
    /// `(CB overload, UPS, TES heat)`, each in `[0, 1]` (zeros if no
    /// additional energy was used).
    #[must_use]
    pub fn energy_shares(&self) -> (f64, f64, f64) {
        let total = (self.cb_energy + self.ups_energy + self.tes_energy).as_joules();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.cb_energy.as_joules() / total,
            self.ups_energy.as_joules() / total,
            self.tes_energy.as_joules() / total,
        )
    }

    /// Returns the per-step response-time slowdown factors under a
    /// processor-sharing latency model: each step's utilization is the
    /// served demand over the active cores' capacity. This is the
    /// delay-sensitive view the paper's §V-D revenue model prices (the
    /// Google 0.4-second rule).
    ///
    /// # Panics
    ///
    /// Panics if a record's core count exceeds the given server's chip.
    #[must_use]
    pub fn slowdown_series(&self, server: &ServerSpec, model: &LatencyModel) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| {
                let capacity = server.capacity_at_cores(r.cores);
                let utilization = if capacity > 0.0 {
                    r.served / capacity
                } else {
                    1.0
                };
                model.slowdown(utilization)
            })
            .collect()
    }

    /// Returns the fraction of time the mean response time exceeded
    /// `threshold ×` the intrinsic service time.
    #[must_use]
    pub fn fraction_slow(&self, server: &ServerSpec, model: &LatencyModel, threshold: f64) -> f64 {
        let series = self.slowdown_series(server, model);
        if series.is_empty() {
            return 0.0;
        }
        series.iter().filter(|&&s| s > threshold).count() as f64 / series.len() as f64
    }

    /// Returns the peak sprinting degree reached during the run.
    #[must_use]
    pub fn peak_degree(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.degree.as_f64())
            .fold(0.0, f64::max)
    }

    /// Collapses the full-telemetry result into the lean [`SimSummary`]
    /// [`crate::run_summary_with_faults`] would have produced directly. The
    /// equivalence is exact (not approximate): both paths drive the
    /// identical controller-step sequence and fold the same per-step
    /// values.
    #[must_use]
    pub fn summarize(&self) -> SimSummary {
        SimSummary {
            strategy: self.strategy.clone(),
            step: self.step,
            steps: self.records.len(),
            admission: self.admission,
            cb_energy: self.cb_energy,
            ups_energy: self.ups_energy,
            tes_energy: self.tes_energy,
            tripped: self.any_tripped(),
            overheated: self.any_overheated(),
            peak_degree: self.peak_degree(),
        }
    }
}

/// The lean outcome of one simulated run: everything the searches consume,
/// with no per-step record vector.
///
/// Produced directly by [`crate::run_summary_with_faults`] (which never
/// materializes [`StepRecord`]s) or derived from a full result via
/// [`SimResult::summarize`]; the two are exactly equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Name of the strategy that produced this run.
    pub strategy: String,
    /// The control period / trace step of the run.
    pub step: Seconds,
    /// Number of controller steps taken.
    pub steps: usize,
    /// Served/dropped accounting.
    pub admission: AdmissionLog,
    /// PDU-delivered energy above the facility's peak normal IT power.
    pub cb_energy: Energy,
    /// Energy delivered from UPS batteries.
    pub ups_energy: Energy,
    /// Electric chiller savings funded by the TES discharge.
    pub tes_energy: Energy,
    /// `true` if any breaker tripped during the run.
    pub tripped: bool,
    /// `true` if the room hit its thermal threshold.
    pub overheated: bool,
    /// Peak sprinting degree reached during the run.
    pub peak_degree: f64,
}

impl SimSummary {
    /// Returns the time-average served demand (the paper's average
    /// computing performance, normalized to the no-sprint *capacity*).
    #[must_use]
    pub fn average_performance(&self) -> f64 {
        self.admission.average_served()
    }

    /// Returns the paper's improvement factor: average served demand over a
    /// baseline run's.
    ///
    /// # Panics
    ///
    /// Panics if the baseline served nothing.
    #[must_use]
    pub fn improvement_over(&self, baseline: &SimSummary) -> f64 {
        self.admission.improvement_over(&baseline.admission)
    }

    /// Returns the shares of additional energy provided by
    /// `(CB overload, UPS, TES heat)`, each in `[0, 1]` (zeros if no
    /// additional energy was used).
    #[must_use]
    pub fn energy_shares(&self) -> (f64, f64, f64) {
        let total = (self.cb_energy + self.ups_energy + self.tes_energy).as_joules();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.cb_energy.as_joules() / total,
            self.ups_energy.as_joules() / total,
            self.tes_energy.as_joules() / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_units::{Celsius, Power, Ratio};

    fn record(served: f64, phase: Phase, tripped: bool) -> StepRecord {
        StepRecord {
            time: Seconds::ZERO,
            demand: served,
            served,
            cores: 12,
            degree: Ratio::ONE,
            upper_bound: Ratio::ONE,
            it_power: Power::ZERO,
            cooling_power: Power::ZERO,
            ups_power: Power::ZERO,
            tes_heat: Power::ZERO,
            cb_extra_power: Power::ZERO,
            phase,
            temperature: Celsius::new(25.0),
            sprinting: false,
            tripped,
            overheated: false,
            fault_active: false,
            shed_reason: None,
        }
    }

    fn result(records: Vec<StepRecord>) -> SimResult {
        let mut admission = AdmissionLog::new();
        for r in &records {
            admission.record(r.demand, r.served, Seconds::new(1.0));
        }
        SimResult {
            strategy: "test".into(),
            step: Seconds::new(1.0),
            records,
            admission,
            cb_energy: Energy::from_joules(300.0),
            ups_energy: Energy::from_joules(540.0),
            tes_energy: Energy::from_joules(160.0),
        }
    }

    #[test]
    fn energy_shares_sum_to_one() {
        let r = result(vec![record(1.0, Phase::Normal, false)]);
        let (cb, ups, tes) = r.energy_shares();
        assert!((cb + ups + tes - 1.0).abs() < 1e-12);
        assert!((ups - 0.54).abs() < 1e-12);
    }

    #[test]
    fn trip_and_phase_queries() {
        let r = result(vec![
            record(1.0, Phase::CbOnly, false),
            record(1.0, Phase::Ups, true),
            record(1.0, Phase::Ups, false),
        ]);
        assert!(r.any_tripped());
        assert_eq!(
            r.time_in_phase(Phase::Ups, Seconds::new(1.0)),
            Seconds::new(2.0)
        );
    }

    #[test]
    fn summarize_matches_full_result_queries() {
        let r = result(vec![
            record(1.0, Phase::Ups, true),
            record(0.5, Phase::Normal, false),
        ]);
        let s = r.summarize();
        assert_eq!(s.steps, 2);
        assert_eq!(s.strategy, r.strategy);
        assert_eq!(s.tripped, r.any_tripped());
        assert_eq!(s.overheated, r.any_overheated());
        assert_eq!(s.peak_degree, r.peak_degree());
        assert_eq!(s.average_performance(), r.average_performance());
        assert_eq!(s.energy_shares(), r.energy_shares());
    }

    #[test]
    fn zero_energy_shares_are_zero() {
        let mut r = result(vec![record(1.0, Phase::Normal, false)]);
        r.cb_energy = Energy::ZERO;
        r.ups_energy = Energy::ZERO;
        r.tes_energy = Energy::ZERO;
        assert_eq!(r.energy_shares(), (0.0, 0.0, 0.0));
    }
}
