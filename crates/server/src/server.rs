//! Whole-server model: chip + non-CPU power + throughput scaling.

use crate::{ChipSpec, ScalingModel};
use dcs_units::{Power, Ratio};
use serde::{Deserialize, Serialize};

/// A server specification: the chip, the constant non-CPU power, how many
/// cores run in normal (non-sprinting) operation, and the throughput
/// scaling model.
///
/// All demand and capacity figures are *normalized*: a demand of 1.0 is
/// exactly what the server serves at its peak normal operating point
/// (`normal_cores` fully utilized).
///
/// # Examples
///
/// ```
/// use dcs_server::ServerSpec;
/// use dcs_units::Ratio;
///
/// let s = ServerSpec::paper_default();
/// // Normal peak: 12 cores, 55 W, capacity 1.0.
/// assert_eq!(s.peak_normal_power().as_watts(), 55.0);
/// assert!((s.capacity_at_cores(12) - 1.0).abs() < 1e-12);
/// // Full sprint: 48 cores, 145 W, capacity < 4.0 (sub-linear).
/// assert_eq!(s.max_power().as_watts(), 145.0);
/// assert!(s.capacity_at_cores(48) < 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    chip: ChipSpec,
    non_cpu_power: Power,
    normal_cores: u32,
    scaling: ScalingModel,
}

impl ServerSpec {
    /// The paper's §VI-A configuration: an SCC-48 chip, 20 W of non-CPU
    /// power, 12 normally active cores, and the default sub-linear scaling.
    #[must_use]
    pub fn paper_default() -> ServerSpec {
        ServerSpec {
            chip: ChipSpec::intel_scc48(),
            non_cpu_power: Power::from_watts(20.0),
            normal_cores: 12,
            scaling: ScalingModel::default(),
        }
    }

    /// Creates a custom server.
    ///
    /// # Panics
    ///
    /// Panics if `normal_cores` is zero or exceeds the chip's core count,
    /// or if `non_cpu_power` is negative.
    #[must_use]
    pub fn new(
        chip: ChipSpec,
        non_cpu_power: Power,
        normal_cores: u32,
        scaling: ScalingModel,
    ) -> ServerSpec {
        assert!(
            normal_cores > 0 && normal_cores <= chip.cores(),
            "normal cores must be in [1, chip cores]"
        );
        assert!(
            non_cpu_power >= Power::ZERO,
            "non-CPU power must be non-negative"
        );
        ServerSpec {
            chip,
            non_cpu_power,
            normal_cores,
            scaling,
        }
    }

    /// Replaces the scaling model (for ablations) and returns the spec.
    #[must_use]
    pub fn with_scaling(mut self, scaling: ScalingModel) -> ServerSpec {
        self.scaling = scaling;
        self
    }

    /// Returns the chip specification.
    #[must_use]
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// Returns the constant non-CPU power.
    #[must_use]
    pub fn non_cpu_power(&self) -> Power {
        self.non_cpu_power
    }

    /// Returns the number of normally active cores.
    #[must_use]
    pub fn normal_cores(&self) -> u32 {
        self.normal_cores
    }

    /// Returns the scaling model.
    #[must_use]
    pub fn scaling(&self) -> ScalingModel {
        self.scaling
    }

    /// Returns the server power with `active` cores at `utilization`.
    ///
    /// # Panics
    ///
    /// Panics if `active` exceeds the chip's cores or `utilization` is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn power_at(&self, active: u32, utilization: f64) -> Power {
        self.non_cpu_power + self.chip.power(active, utilization)
    }

    /// Returns the peak power in normal operation (normal cores fully
    /// utilized) — the paper's 55 W.
    #[must_use]
    pub fn peak_normal_power(&self) -> Power {
        self.power_at(self.normal_cores, 1.0)
    }

    /// Returns the power with every core active and busy — the paper's
    /// 145 W.
    #[must_use]
    pub fn max_power(&self) -> Power {
        self.power_at(self.chip.cores(), 1.0)
    }

    /// Returns the maximum sprinting degree: all cores over normal cores
    /// (4.0 in the paper's configuration).
    #[must_use]
    pub fn max_degree(&self) -> Ratio {
        Ratio::new(f64::from(self.chip.cores()) / f64::from(self.normal_cores))
    }

    /// Returns the sprinting degree of a given active-core count.
    #[must_use]
    pub fn degree_of_cores(&self, active: u32) -> Ratio {
        Ratio::new(f64::from(active) / f64::from(self.normal_cores))
    }

    /// Returns the active-core count for a sprinting degree, rounded down
    /// to whole cores and clamped to the chip (the paper: the degree "is
    /// discrete with a fine granularity — each core can be individually
    /// powered on or off").
    ///
    /// # Panics
    ///
    /// Panics if `degree` is negative.
    #[must_use]
    pub fn cores_at_degree(&self, degree: Ratio) -> u32 {
        assert!(degree.as_f64() >= 0.0, "degree must be non-negative");
        let cores = (degree.as_f64() * f64::from(self.normal_cores)).floor() as u32;
        cores.min(self.chip.cores())
    }

    /// Returns the normalized serving capacity of `active` cores (1.0 =
    /// peak normal).
    ///
    /// # Panics
    ///
    /// Panics if `active` exceeds the chip's cores.
    #[must_use]
    pub fn capacity_at_cores(&self, active: u32) -> f64 {
        assert!(
            active <= self.chip.cores(),
            "cannot activate more cores than exist"
        );
        self.scaling
            .normalized(f64::from(active), f64::from(self.normal_cores))
    }

    /// Returns the fewest cores whose capacity covers a normalized
    /// `demand`, clamped to the chip's core count when the demand exceeds
    /// even a full sprint.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is negative.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_server::ServerSpec;
    /// use dcs_units::Ratio;
    /// let s = ServerSpec::paper_default();
    /// assert_eq!(s.cores_for_demand(Ratio::new(1.0)), 12);
    /// assert_eq!(s.cores_for_demand(Ratio::new(0.0)), 0);
    /// assert_eq!(s.cores_for_demand(Ratio::new(100.0)), 48);
    /// ```
    #[must_use]
    pub fn cores_for_demand(&self, demand: Ratio) -> u32 {
        assert!(demand.as_f64() >= 0.0, "demand must be non-negative");
        if demand.as_f64() == 0.0 {
            return 0;
        }
        let exact = self
            .scaling
            .cores_for(demand.as_f64(), f64::from(self.normal_cores));
        (exact.ceil() as u32).min(self.chip.cores())
    }

    /// Returns the server power while serving `demand` with `active` cores:
    /// the active cores run at the utilization needed to serve
    /// `min(demand, capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is negative or `active` exceeds the chip's cores.
    #[must_use]
    pub fn power_serving(&self, active: u32, demand: Ratio) -> Power {
        assert!(demand.as_f64() >= 0.0, "demand must be non-negative");
        if active == 0 {
            return self.power_at(0, 0.0);
        }
        let cap = self.capacity_at_cores(active);
        let utilization = if cap == 0.0 {
            0.0
        } else {
            (demand.as_f64() / cap).min(1.0)
        };
        self.power_at(active, utilization)
    }

    /// Returns normalized throughput per watt at a core count, serving at
    /// full utilization.
    ///
    /// Note that this *total* efficiency improves with core count because
    /// the fixed 25 W of idle + non-CPU power amortizes; the quantity that
    /// degrades — and that makes constrained sprinting degrees win — is the
    /// *sprint* efficiency, see [`ServerSpec::sprint_efficiency_at_cores`].
    ///
    /// # Panics
    ///
    /// Panics if `active` is zero or exceeds the chip's cores.
    #[must_use]
    pub fn efficiency_at_cores(&self, active: u32) -> f64 {
        assert!(active > 0, "need at least one active core");
        self.capacity_at_cores(active) / self.power_at(active, 1.0).as_watts()
    }

    /// Returns the *additional* work served per *additional* watt when
    /// sprinting at `active` cores instead of the normal core count — the
    /// power efficiency of the stored energy a sprint consumes.
    ///
    /// Because throughput is sub-linear in cores while sprint power is
    /// linear, this decreases as the sprinting degree grows: exactly the
    /// paper's observation that "a lower sprinting degree can have a higher
    /// power efficiency", which is why constraining the degree can extend a
    /// sprint enough to win overall.
    ///
    /// # Panics
    ///
    /// Panics if `active` is not strictly greater than the normal core
    /// count or exceeds the chip's cores.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_server::ServerSpec;
    /// let s = ServerSpec::paper_default();
    /// assert!(s.sprint_efficiency_at_cores(24) > s.sprint_efficiency_at_cores(48));
    /// ```
    #[must_use]
    pub fn sprint_efficiency_at_cores(&self, active: u32) -> f64 {
        assert!(
            active > self.normal_cores,
            "sprint efficiency needs more than the normal cores"
        );
        let extra_work = self.capacity_at_cores(active) - 1.0;
        let extra_power = self.power_at(active, 1.0) - self.peak_normal_power();
        extra_work / extra_power.as_watts()
    }
}

impl std::fmt::Display for ServerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "server: {}, {} non-CPU, {}/{} cores normal, {}",
            self.chip,
            self.non_cpu_power,
            self.normal_cores,
            self.chip.cores(),
            self.scaling
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServerSpec {
        ServerSpec::paper_default()
    }

    #[test]
    fn paper_power_points() {
        let s = spec();
        assert_eq!(s.peak_normal_power().as_watts(), 55.0);
        assert_eq!(s.max_power().as_watts(), 145.0);
        assert_eq!(s.power_at(0, 0.0).as_watts(), 25.0);
    }

    #[test]
    fn max_degree_is_four() {
        assert_eq!(spec().max_degree().as_f64(), 4.0);
    }

    #[test]
    fn degree_core_round_trip() {
        let s = spec();
        for cores in [0u32, 1, 6, 12, 24, 48] {
            let d = s.degree_of_cores(cores);
            assert_eq!(s.cores_at_degree(d), cores);
        }
    }

    #[test]
    fn cores_at_degree_clamps() {
        let s = spec();
        assert_eq!(s.cores_at_degree(Ratio::new(10.0)), 48);
        assert_eq!(s.cores_at_degree(Ratio::ZERO), 0);
    }

    #[test]
    fn cores_for_demand_covers_demand() {
        let s = spec();
        for demand in [0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 2.8] {
            let c = s.cores_for_demand(Ratio::new(demand));
            assert!(
                s.capacity_at_cores(c) >= demand - 1e-9,
                "demand {demand}: {c} cores give {}",
                s.capacity_at_cores(c)
            );
            if c > 1 {
                assert!(
                    s.capacity_at_cores(c - 1) < demand,
                    "demand {demand}: {c} cores not minimal"
                );
            }
        }
        // Demands above the full-sprint capacity clamp to all cores.
        assert_eq!(s.cores_for_demand(Ratio::new(3.4)), 48);
    }

    #[test]
    fn sublinear_needs_extra_cores() {
        // Serving 2x demand needs more than 2x cores with sub-linear scaling.
        assert!(spec().cores_for_demand(Ratio::new(2.0)) > 24);
    }

    #[test]
    fn power_serving_caps_at_full_utilization() {
        let s = spec();
        let p = s.power_serving(12, Ratio::new(5.0));
        assert_eq!(p, s.peak_normal_power());
        // Half demand on 12 cores: half the core power.
        let half = s.power_serving(12, Ratio::new(0.5));
        assert_eq!(half.as_watts(), 20.0 + 5.0 + 15.0);
    }

    #[test]
    fn sprint_efficiency_decreases_with_degree() {
        let s = spec();
        let mut prev = f64::INFINITY;
        for cores in (16..=48).step_by(4) {
            let e = s.sprint_efficiency_at_cores(cores);
            assert!(e < prev, "sprint efficiency rose at {cores} cores");
            prev = e;
        }
    }

    #[test]
    fn total_efficiency_amortizes_fixed_power() {
        // Documented behaviour: total perf/W improves with cores because
        // the fixed 25 W amortizes; only the sprint efficiency degrades.
        let s = spec();
        assert!(s.efficiency_at_cores(48) > s.efficiency_at_cores(12));
    }

    #[test]
    fn linear_ablation_restores_proportionality() {
        let s = spec().with_scaling(ScalingModel::Linear);
        assert_eq!(s.capacity_at_cores(48), 4.0);
        assert_eq!(s.cores_for_demand(Ratio::new(2.0)), 24);
    }

    #[test]
    #[should_panic(expected = "normal cores must be in")]
    fn invalid_normal_cores_panics() {
        let _ = ServerSpec::new(
            ChipSpec::intel_scc48(),
            Power::from_watts(20.0),
            49,
            ScalingModel::default(),
        );
    }
}
