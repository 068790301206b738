//! Facility specification.

use dcs_breaker::{sizing, TripCurve};
use dcs_server::ServerSpec;
use dcs_units::{Power, Ratio};
use serde::{Deserialize, Serialize};

/// The data-center configuration of §VI-A.
///
/// Defaults reproduce the paper's simulated facility:
///
/// * 900 PDUs × 200 servers = 180,000 servers, each peaking at 55 W in
///   normal operation (≈10 MW peak normal IT power);
/// * PDU breakers NEC-sized at `55 W × 200 × 1.25 = 13.75 kW`;
/// * PUE 1.53 counting servers + cooling, so the facility peaks at
///   ≈15.1 MW in normal operation;
/// * a DC-level breaker rated with only 10 % headroom over that peak
///   (under-provisioning; the paper sweeps 0–20 %).
///
/// # Examples
///
/// ```
/// use dcs_power::DataCenterSpec;
/// use dcs_units::Ratio;
///
/// let spec = DataCenterSpec::paper_default().with_dc_headroom(Ratio::from_percent(20.0));
/// assert!(spec.dc_rated() > DataCenterSpec::paper_default().dc_rated());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataCenterSpec {
    server: ServerSpec,
    servers_per_pdu: usize,
    pdu_count: usize,
    dc_headroom: Ratio,
    pue: f64,
    trip_curve: TripCurve,
}

impl DataCenterSpec {
    /// The paper's default facility.
    #[must_use]
    pub fn paper_default() -> DataCenterSpec {
        DataCenterSpec {
            server: ServerSpec::paper_default(),
            servers_per_pdu: 200,
            pdu_count: 900,
            dc_headroom: Ratio::from_percent(10.0),
            pue: 1.53,
            trip_curve: TripCurve::bulletin_1489(),
        }
    }

    /// Replaces the server specification.
    #[must_use]
    pub fn with_server(mut self, server: ServerSpec) -> DataCenterSpec {
        self.server = server;
        self
    }

    /// Replaces the DC-level headroom (the under-provisioning knob the
    /// paper sweeps from 0 to 20 %).
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is negative.
    #[must_use]
    pub fn with_dc_headroom(mut self, headroom: Ratio) -> DataCenterSpec {
        assert!(headroom.as_f64() >= 0.0, "headroom must be non-negative");
        self.dc_headroom = headroom;
        self
    }

    /// Replaces the PUE.
    ///
    /// # Panics
    ///
    /// Panics if `pue <= 1.0`.
    #[must_use]
    pub fn with_pue(mut self, pue: f64) -> DataCenterSpec {
        assert!(pue > 1.0 && pue.is_finite(), "PUE must exceed 1");
        self.pue = pue;
        self
    }

    /// Replaces the facility scale.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn with_scale(mut self, pdu_count: usize, servers_per_pdu: usize) -> DataCenterSpec {
        assert!(
            pdu_count > 0 && servers_per_pdu > 0,
            "scale must be positive"
        );
        self.pdu_count = pdu_count;
        self.servers_per_pdu = servers_per_pdu;
        self
    }

    /// Returns the server specification.
    #[must_use]
    pub fn server(&self) -> &ServerSpec {
        &self.server
    }

    /// Returns the number of servers behind each PDU.
    #[must_use]
    pub fn servers_per_pdu(&self) -> usize {
        self.servers_per_pdu
    }

    /// Returns the number of PDUs.
    #[must_use]
    pub fn pdu_count(&self) -> usize {
        self.pdu_count
    }

    /// Returns the total server count.
    #[must_use]
    pub fn total_servers(&self) -> usize {
        self.pdu_count * self.servers_per_pdu
    }

    /// Returns the DC-level headroom ratio.
    #[must_use]
    pub fn dc_headroom(&self) -> Ratio {
        self.dc_headroom
    }

    /// Returns the PUE (servers + cooling only).
    #[must_use]
    pub fn pue(&self) -> f64 {
        self.pue
    }

    /// Returns the breaker trip curve.
    #[must_use]
    pub fn trip_curve(&self) -> &TripCurve {
        &self.trip_curve
    }

    /// Returns the peak normal IT power (all servers at peak normal).
    #[must_use]
    pub fn peak_normal_it_power(&self) -> Power {
        self.server.peak_normal_power() * self.total_servers() as f64
    }

    /// Returns the peak normal IT power of one PDU group.
    #[must_use]
    pub fn peak_normal_pdu_power(&self) -> Power {
        self.server.peak_normal_power() * self.servers_per_pdu as f64
    }

    /// Returns the peak normal facility power (IT + cooling at PUE).
    #[must_use]
    pub fn peak_normal_total_power(&self) -> Power {
        self.peak_normal_it_power() * self.pue
    }

    /// Returns the NEC rating of a PDU breaker (the paper's 13.75 kW).
    #[must_use]
    pub fn pdu_rated(&self) -> Power {
        sizing::nec_rating(self.peak_normal_pdu_power())
    }

    /// Returns the (under-provisioned) DC-level breaker rating.
    #[must_use]
    pub fn dc_rated(&self) -> Power {
        sizing::rating_with_headroom(self.peak_normal_total_power(), self.dc_headroom)
    }

    /// Returns the maximum IT power a full sprint could draw (all cores on
    /// every server busy).
    #[must_use]
    pub fn max_sprint_it_power(&self) -> Power {
        self.server.max_power() * self.total_servers() as f64
    }

    /// Returns the maximum *additional* IT power a full sprint adds over
    /// the peak normal point — the quantity the TES activation deadline
    /// divides by.
    #[must_use]
    pub fn max_additional_it_power(&self) -> Power {
        self.max_sprint_it_power() - self.peak_normal_it_power()
    }
}

impl Default for DataCenterSpec {
    fn default() -> DataCenterSpec {
        DataCenterSpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale() {
        let s = DataCenterSpec::paper_default();
        assert_eq!(s.total_servers(), 180_000);
        assert!((s.peak_normal_it_power().as_megawatts() - 9.9).abs() < 1e-9);
        assert!((s.peak_normal_total_power().as_megawatts() - 15.147).abs() < 1e-6);
    }

    #[test]
    fn pdu_rating_matches_paper() {
        assert_eq!(
            DataCenterSpec::paper_default().pdu_rated().as_kilowatts(),
            13.75
        );
    }

    #[test]
    fn dc_rating_uses_headroom() {
        let s = DataCenterSpec::paper_default();
        assert!((s.dc_rated().as_megawatts() - 15.147 * 1.1).abs() < 1e-6);
        let nec = s.clone().with_dc_headroom(Ratio::from_percent(25.0));
        assert!((nec.dc_rated().as_megawatts() - 15.147 * 1.25).abs() < 1e-6);
    }

    #[test]
    fn sprint_power_envelope() {
        let s = DataCenterSpec::paper_default();
        assert!((s.max_sprint_it_power().as_megawatts() - 26.1).abs() < 1e-9);
        assert!((s.max_additional_it_power().as_megawatts() - 16.2).abs() < 1e-9);
    }

    #[test]
    fn builder_knobs() {
        let s = DataCenterSpec::paper_default()
            .with_pue(1.3)
            .with_scale(10, 100);
        assert_eq!(s.total_servers(), 1000);
        assert!((s.peak_normal_total_power().as_watts() - 55.0 * 1000.0 * 1.3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "PUE must exceed 1")]
    fn bad_pue_panics() {
        let _ = DataCenterSpec::paper_default().with_pue(1.0);
    }
}
