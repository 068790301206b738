//! Response-time modeling for delay-sensitive workloads.

use dcs_units::Seconds;
use serde::{Deserialize, Serialize};

/// A processor-sharing response-time model.
///
/// The paper restricts sprinting to *delay-sensitive* workloads and prices
/// slowdowns through Google's measurement that a 0.4-second response-time
/// increase permanently loses 0.2 % of users. This model closes that loop:
/// it maps a serving system's utilization to a mean response time using
/// the M/G/1-PS law
///
/// ```text
/// R(ρ) = S / (1 − ρ)
/// ```
///
/// where `S` is the intrinsic service time and `ρ` the utilization. Under
/// processor sharing (a good model of request-parallel interactive
/// services) the law is insensitive to the service-time distribution,
/// which is why it is the standard first-order latency model for
/// capacity planning.
///
/// Utilization is capped just below 1: demand beyond capacity is dropped
/// by admission control (§V-A's "last resort"), so the surviving requests
/// see a saturated-but-stable server rather than an unbounded queue.
///
/// # Examples
///
/// ```
/// use dcs_units::Seconds;
/// use dcs_workload::LatencyModel;
///
/// let m = LatencyModel::new(Seconds::new(0.2));
/// // Idle server: the intrinsic service time.
/// assert_eq!(m.response_time(0.0), Seconds::new(0.2));
/// // Half loaded: 2x.
/// assert_eq!(m.response_time(0.5), Seconds::new(0.4));
/// // The Google rule: +0.4 s over the intrinsic 0.2 s is a 3x slowdown.
/// assert!(m.slowdown_for_extra_delay(Seconds::new(0.4)) == 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    service_time: Seconds,
    /// Utilization ceiling applied before the PS law (default 0.99).
    max_utilization: f64,
}

impl LatencyModel {
    /// Creates a model with the given intrinsic (zero-load) service time.
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is not strictly positive and finite.
    #[must_use]
    pub fn new(service_time: Seconds) -> LatencyModel {
        assert!(
            service_time > Seconds::ZERO && !service_time.is_never(),
            "service time must be positive and finite"
        );
        LatencyModel {
            service_time,
            max_utilization: 0.99,
        }
    }

    /// Returns the intrinsic service time.
    #[must_use]
    pub fn service_time(&self) -> Seconds {
        self.service_time
    }

    /// Returns the mean response time at a utilization (values outside
    /// `[0, max_utilization]` are clamped).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not finite.
    #[must_use]
    pub fn response_time(&self, utilization: f64) -> Seconds {
        assert!(utilization.is_finite(), "utilization must be finite");
        let rho = utilization.clamp(0.0, self.max_utilization);
        self.service_time / (1.0 - rho)
    }

    /// Returns the slowdown factor `R(ρ)/S` at a utilization.
    #[must_use]
    pub fn slowdown(&self, utilization: f64) -> f64 {
        self.response_time(utilization).as_secs() / self.service_time.as_secs()
    }

    /// Returns the utilization at which the mean response time exceeds the
    /// intrinsic service time by `extra` — e.g. the Google rule's 0.4 s.
    ///
    /// # Panics
    ///
    /// Panics if `extra` is negative or not finite.
    #[must_use]
    pub fn utilization_for_extra_delay(&self, extra: Seconds) -> f64 {
        assert!(
            extra >= Seconds::ZERO && !extra.is_never(),
            "extra delay must be non-negative and finite"
        );
        // S/(1-ρ) = S + extra  =>  ρ = extra / (S + extra).
        let s = self.service_time.as_secs();
        (extra.as_secs() / (s + extra.as_secs())).min(self.max_utilization)
    }

    /// Returns the slowdown factor corresponding to an absolute extra
    /// delay over the intrinsic service time.
    ///
    /// # Panics
    ///
    /// Panics if `extra` is negative or not finite.
    #[must_use]
    pub fn slowdown_for_extra_delay(&self, extra: Seconds) -> f64 {
        assert!(
            extra >= Seconds::ZERO && !extra.is_never(),
            "extra delay must be non-negative and finite"
        );
        1.0 + extra.as_secs() / self.service_time.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel::new(Seconds::new(0.2))
    }

    #[test]
    fn ps_law_points() {
        let m = model();
        assert_eq!(m.response_time(0.0), Seconds::new(0.2));
        assert!((m.response_time(0.75).as_secs() - 0.8).abs() < 1e-12);
        assert_eq!(m.slowdown(0.5), 2.0);
    }

    #[test]
    fn saturation_is_capped() {
        let m = model();
        let at_cap = m.response_time(0.99);
        assert_eq!(m.response_time(1.0), at_cap);
        assert_eq!(m.response_time(5.0), at_cap);
        assert!((at_cap.as_secs() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn google_rule_inversion() {
        let m = model();
        // +0.4 s over S=0.2 s happens at rho = 0.4/0.6 = 2/3.
        let rho = m.utilization_for_extra_delay(Seconds::new(0.4));
        assert!((rho - 2.0 / 3.0).abs() < 1e-12);
        let r = m.response_time(rho);
        assert!((r.as_secs() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn slowdown_monotone_in_utilization() {
        let m = model();
        let mut prev = 0.0;
        for i in 0..100 {
            let s = m.slowdown(f64::from(i) / 100.0);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "service time must be positive")]
    fn zero_service_time_panics() {
        let _ = LatencyModel::new(Seconds::ZERO);
    }
}
