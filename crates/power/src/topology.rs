//! The stateful breaker hierarchy.

use crate::DataCenterSpec;
use dcs_breaker::{BreakerHotState, CircuitBreaker, TripEvent};
use dcs_units::{Power, Seconds};
use serde::{Deserialize, Serialize};

/// Reserve-rule capacity caps across the hierarchy, produced by
/// [`PowerTopology::caps`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyCaps {
    /// Maximum power each PDU may carry while staying `reserve` from a trip.
    pub per_pdu: Power,
    /// Maximum total power the DC breaker may carry while staying `reserve`
    /// from a trip (IT + cooling).
    pub dc_total: Power,
}

/// A snapshot of topology state for telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyStatus {
    /// Trip progress of the DC-level breaker in `[0, 1]`.
    pub dc_progress: f64,
    /// Worst trip progress across PDU breakers.
    pub max_pdu_progress: f64,
    /// `true` if any breaker in the hierarchy has tripped.
    pub any_tripped: bool,
    /// Number of tripped PDU breakers.
    pub tripped_pdus: usize,
}

/// The runtime state of a [`PowerTopology`], for checkpoints: what changes
/// after [`PowerTopology::new`] and nothing the spec fixes (names,
/// ratings, curves, cool-downs). Restored onto a hierarchy rebuilt from
/// the same spec by [`PowerTopology::import_hot_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyHotState {
    /// PDU breakers in the exporting hierarchy.
    pub pdu_count: usize,
    /// The fault derating in force on every breaker
    /// ([`PowerTopology::set_breaker_derating`] is its only writer).
    pub derating: f64,
    /// The DC-level breaker.
    pub dc: BreakerHotState,
    /// The PDU breakers. A single entry stands for all of them and
    /// carries the uniform fast-path flag: the exporter's PDUs were in
    /// lock-step. Otherwise there is one entry per PDU, in order.
    pub pdus: Vec<BreakerHotState>,
}

/// The two-level breaker hierarchy: one DC-level breaker over `pdu_count`
/// PDU breakers.
///
/// The facility's cooling load connects at the DC level (it does not flow
/// through PDU breakers), matching Fig. 4: the PDU-level curve is servers
/// only, while the DC-level curve is PDUs + cooling.
///
/// # Examples
///
/// ```
/// use dcs_power::{DataCenterSpec, PowerTopology};
/// use dcs_units::{Power, Seconds};
///
/// let spec = DataCenterSpec::paper_default().with_scale(4, 200);
/// let mut topo = PowerTopology::new(&spec);
/// let caps = topo.caps(Seconds::new(60.0));
/// // Cold breakers, 60 s reserve: the 60%-overload point.
/// assert!((caps.per_pdu.as_watts() / spec.pdu_rated().as_watts() - 1.6).abs() < 1e-9);
///
/// // A normal-load step trips nothing.
/// let events = topo.step_uniform(spec.peak_normal_pdu_power(), Power::ZERO, Seconds::new(1.0));
/// assert!(events.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PowerTopology {
    dc: CircuitBreaker,
    pdus: Vec<CircuitBreaker>,
    /// `true` means every PDU breaker provably responds identically to the
    /// same load (same rating, curve, cool-down, derating and thermal
    /// state as the first), so the uniform fast paths may advance or read
    /// one representative instead of visiting all — the O(#PDUs) loop
    /// that would otherwise dominate every step of a thousands-of-PDUs
    /// facility. `false` is always safe (the slow paths visit every
    /// breaker), so the flag is conservative: heterogeneous stepping
    /// clears it and only [`PowerTopology::new`] or
    /// [`PowerTopology::reset`] sets it again.
    ///
    /// Derived state: carried by [`TopologyHotState`] so a resumed
    /// checkpoint takes exactly the exporting run's fast/slow paths, and
    /// ignored by `PartialEq` — two topologies that answer every load
    /// identically are equal regardless of which path they take to the
    /// answer.
    uniform: bool,
    /// Memoized [`PowerTopology::caps`] result for
    /// [`PowerTopology::caps_cached`], keyed on every input the uniform
    /// caps computation reads. Derived state: never checkpointed, never
    /// compared; a stale key simply misses and recomputes.
    caps_memo: Option<CapsMemo>,
}

/// The signature of one breaker as seen by [`PowerTopology::caps`]: trip
/// progress, open/closed, and derating are the only inputs that vary after
/// construction (rating and curve are fixed). Exact bit keys, so a memo
/// hit returns exactly what a fresh computation would.
type BreakerSig = (u64, bool, u64);

fn breaker_sig(b: &CircuitBreaker) -> BreakerSig {
    (
        b.trip_progress().to_bits(),
        b.is_tripped(),
        b.derating().to_bits(),
    )
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct CapsMemo {
    reserve: u64,
    dc: BreakerSig,
    pdu: BreakerSig,
    caps: TopologyCaps,
}

impl PartialEq for PowerTopology {
    fn eq(&self, other: &PowerTopology) -> bool {
        self.dc == other.dc && self.pdus == other.pdus
    }
}

impl PowerTopology {
    /// Builds the hierarchy for a facility spec, with every breaker closed
    /// and cold.
    #[must_use]
    pub fn new(spec: &DataCenterSpec) -> PowerTopology {
        let curve = spec.trip_curve().clone();
        let dc = CircuitBreaker::new("dc", spec.dc_rated(), curve.clone());
        let pdus: Vec<CircuitBreaker> = (0..spec.pdu_count())
            .map(|i| CircuitBreaker::new(format!("pdu-{i}"), spec.pdu_rated(), curve.clone()))
            .collect();
        let uniform = !pdus.is_empty();
        PowerTopology {
            dc,
            pdus,
            uniform,
            caps_memo: None,
        }
    }

    /// Exports the hierarchy's runtime state. A uniform hierarchy stores
    /// its PDU state once, so the snapshot's size does not grow with the
    /// PDU count on the common path. (A single-PDU hierarchy therefore
    /// restores as uniform either way; with one PDU the fast and slow
    /// paths give the same answers.)
    #[must_use]
    pub fn export_hot_state(&self) -> TopologyHotState {
        let pdus = if self.uniform {
            &self.pdus[..1]
        } else {
            &self.pdus[..]
        };
        TopologyHotState {
            pdu_count: self.pdus.len(),
            derating: self.dc.derating(),
            dc: self.dc.export_hot_state(),
            pdus: pdus.iter().map(CircuitBreaker::export_hot_state).collect(),
        }
    }

    /// Restores runtime state exported by
    /// [`export_hot_state`](Self::export_hot_state) from a hierarchy
    /// built from the same spec. Afterwards this hierarchy answers every
    /// load, and takes every fast or slow path, exactly as the exporter
    /// would have.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's PDU count differs from this hierarchy's,
    /// it holds neither one PDU entry nor one per PDU, or its derating is
    /// outside `(0, 1]`.
    pub fn import_hot_state(&mut self, hot: TopologyHotState) {
        assert_eq!(
            hot.pdu_count,
            self.pdus.len(),
            "hot state was exported from a facility with a different PDU count"
        );
        let uniform = hot.pdus.len() == 1 && hot.pdu_count > 0;
        assert!(
            uniform || hot.pdus.len() == hot.pdu_count,
            "hot state holds {} entries for {} PDUs",
            hot.pdus.len(),
            hot.pdu_count
        );
        self.set_breaker_derating(hot.derating);
        self.dc.import_hot_state(hot.dc);
        for (i, pdu) in self.pdus.iter_mut().enumerate() {
            pdu.import_hot_state(hot.pdus[if uniform { 0 } else { i }]);
        }
        self.uniform = uniform;
    }

    /// Returns the DC-level breaker.
    #[must_use]
    pub fn dc_breaker(&self) -> &CircuitBreaker {
        &self.dc
    }

    /// Sets the fault-injection derating factor on every breaker in the
    /// hierarchy: each behaves as if rated at `factor ×` its nameplate.
    /// `1.0` restores nominal behavior exactly.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `(0, 1]`.
    pub fn set_breaker_derating(&mut self, factor: f64) {
        self.dc.set_derating(factor);
        for pdu in &mut self.pdus {
            pdu.set_derating(factor);
        }
    }

    /// Returns the PDU breakers.
    #[must_use]
    pub fn pdu_breakers(&self) -> &[CircuitBreaker] {
        &self.pdus
    }

    /// Returns the number of PDUs.
    #[must_use]
    pub fn pdu_count(&self) -> usize {
        self.pdus.len()
    }

    /// Returns the reserve-rule caps for both levels: how much power each
    /// PDU, and the facility as a whole, may draw while staying at least
    /// `reserve` from any trip (§V-B's dynamic overload upper bound).
    ///
    /// The per-PDU cap is the *minimum* across PDUs so a uniform allocation
    /// against it is safe even if thermal states have diverged.
    ///
    /// # Panics
    ///
    /// Panics if `reserve` is not strictly positive.
    #[must_use]
    pub fn caps(&self, reserve: Seconds) -> TopologyCaps {
        // Uniform allocation keeps the PDUs' thermal states in lock-step, so
        // on the common path one curve inversion covers every PDU.
        let per_pdu = if self.uniform {
            self.pdus[0].max_load_with_reserve(reserve)
        } else {
            self.pdus
                .iter()
                .map(|b| b.max_load_with_reserve(reserve))
                .fold(Power::from_megawatts(f64::MAX / 1e12), Power::min)
        };
        TopologyCaps {
            per_pdu,
            dc_total: self.dc.max_load_with_reserve(reserve),
        }
    }

    /// [`PowerTopology::caps`] through a one-entry memo keyed on the exact
    /// bits the uniform computation reads (reserve, DC-breaker signature,
    /// representative-PDU signature). Hot controller paths ask for the
    /// reserve caps up to twice per step against an unchanged hierarchy —
    /// cold breakers decay `0.0` to `0.0` bitwise, so whole quiet phases
    /// hit — and a hit skips both curve inversions while returning exactly
    /// the value a fresh call would. Heterogeneous (non-uniform)
    /// hierarchies read breakers the signature does not cover and bypass
    /// the memo entirely.
    ///
    /// # Panics
    ///
    /// Panics if `reserve` is not strictly positive.
    #[must_use]
    pub fn caps_cached(&mut self, reserve: Seconds) -> TopologyCaps {
        if !self.uniform {
            return self.caps(reserve);
        }
        let key = (
            reserve.as_secs().to_bits(),
            breaker_sig(&self.dc),
            breaker_sig(&self.pdus[0]),
        );
        if let Some(m) = &self.caps_memo {
            if (m.reserve, m.dc, m.pdu) == key {
                return m.caps;
            }
        }
        let caps = self.caps(reserve);
        self.caps_memo = Some(CapsMemo {
            reserve: key.0,
            dc: key.1,
            pdu: key.2,
            caps,
        });
        caps
    }

    /// Returns the maximum *uniform* per-PDU IT power that honors both the
    /// PDU caps and the parent DC cap once `cooling` is accounted for —
    /// the paper's invariant that child overloads never trip the parent.
    ///
    /// # Panics
    ///
    /// Panics if `reserve` is not strictly positive or `cooling` is
    /// negative.
    #[must_use]
    pub fn allowed_uniform_pdu_power(&self, reserve: Seconds, cooling: Power) -> Power {
        assert!(cooling >= Power::ZERO, "cooling must be non-negative");
        let caps = self.caps(reserve);
        let dc_it_budget = (caps.dc_total - cooling).max_zero();
        caps.per_pdu.min(dc_it_budget / self.pdus.len() as f64)
    }

    /// Applies one interval of uniform load: every PDU carries
    /// `per_pdu_it`, and the DC breaker carries the sum plus `cooling`.
    /// Returns any trip events (already-tripped breakers are skipped — they
    /// carry no load).
    ///
    /// # Panics
    ///
    /// Panics if `cooling` is negative or `dt` is not strictly positive and
    /// finite.
    pub fn step_uniform(
        &mut self,
        per_pdu_it: Power,
        cooling: Power,
        dt: Seconds,
    ) -> Vec<TripEvent> {
        assert!(cooling >= Power::ZERO, "cooling must be non-negative");
        let mut events = Vec::new();
        let mut delivered = Power::ZERO;
        if self.uniform {
            // Equivalent PDUs under the same load stay equivalent: integrate
            // one representative and replicate its state to the siblings.
            let (first, rest) = self.pdus.split_first_mut().expect("checked non-empty");
            if !first.is_tripped() {
                let outcome = first
                    .apply_load(per_pdu_it, dt)
                    .expect("non-tripped breaker");
                let state = first.export_hot_state();
                match outcome {
                    Some(ev) => {
                        for pdu in rest.iter_mut() {
                            pdu.import_hot_state(state);
                        }
                        let rest_events = self.pdus[1..].iter().map(|pdu| TripEvent {
                            name: pdu.name().to_owned(),
                            ratio: ev.ratio,
                            after: ev.after,
                        });
                        events.push(ev.clone());
                        events.extend(rest_events);
                    }
                    None => {
                        // Repeated addition, not multiplication: keeps the
                        // DC-breaker load bit-identical to the general path.
                        delivered += per_pdu_it;
                        for pdu in rest.iter_mut() {
                            pdu.import_hot_state(state);
                            delivered += per_pdu_it;
                        }
                    }
                }
            }
        } else {
            for pdu in &mut self.pdus {
                if pdu.is_tripped() {
                    continue;
                }
                match pdu.apply_load(per_pdu_it, dt).expect("non-tripped breaker") {
                    Some(ev) => events.push(ev),
                    None => delivered += per_pdu_it,
                }
            }
        }
        if !self.dc.is_tripped() {
            if let Some(ev) = self
                .dc
                .apply_load(delivered + cooling, dt)
                .expect("non-tripped breaker")
            {
                events.push(ev);
            }
        }
        events
    }

    /// Applies one interval of per-PDU loads plus DC-level cooling.
    /// Returns any trip events.
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match the PDU count, `cooling` is
    /// negative, or `dt` is not strictly positive and finite.
    pub fn step_loads(&mut self, loads: &[Power], cooling: Power, dt: Seconds) -> Vec<TripEvent> {
        assert_eq!(loads.len(), self.pdus.len(), "one load per PDU required");
        assert!(cooling >= Power::ZERO, "cooling must be non-negative");
        // Heterogeneous loads can diverge the PDUs' thermal states;
        // conservatively drop the uniform fast paths until a rescan.
        self.uniform = false;
        let mut events = Vec::new();
        let mut delivered = Power::ZERO;
        for (pdu, &load) in self.pdus.iter_mut().zip(loads) {
            if pdu.is_tripped() {
                continue;
            }
            match pdu.apply_load(load, dt).expect("non-tripped breaker") {
                Some(ev) => events.push(ev),
                None => delivered += load,
            }
        }
        if !self.dc.is_tripped() {
            if let Some(ev) = self
                .dc
                .apply_load(delivered + cooling, dt)
                .expect("non-tripped breaker")
            {
                events.push(ev);
            }
        }
        events
    }

    /// Returns a telemetry snapshot.
    #[must_use]
    pub fn status(&self) -> TopologyStatus {
        let tripped_pdus = self.pdus.iter().filter(|b| b.is_tripped()).count();
        TopologyStatus {
            dc_progress: self.dc.trip_progress(),
            max_pdu_progress: self
                .pdus
                .iter()
                .map(CircuitBreaker::trip_progress)
                .fold(0.0, f64::max),
            any_tripped: self.dc.is_tripped() || tripped_pdus > 0,
            tripped_pdus,
        }
    }

    /// Balances heterogeneous per-PDU power requests against the
    /// hierarchy's reserve-rule caps: each request is clamped to its own
    /// breaker's cap, and if the sum (plus `cooling`) would exceed the
    /// parent's cap, every grant above a fair share is scaled back until
    /// the parent fits — §V-B's rule that *"a power increase on any of its
    /// child CBs demands a power decrease on some other child CBs"*, so a
    /// PDU-level overload can never trip the substation breaker.
    ///
    /// Returns the granted per-PDU powers (same order as the requests).
    ///
    /// # Panics
    ///
    /// Panics if `requests` does not match the PDU count, `reserve` is not
    /// strictly positive, or `cooling` is negative.
    #[must_use]
    pub fn balance_loads(
        &self,
        requests: &[Power],
        reserve: Seconds,
        cooling: Power,
    ) -> Vec<Power> {
        assert_eq!(
            requests.len(),
            self.pdus.len(),
            "one request per PDU required"
        );
        assert!(cooling >= Power::ZERO, "cooling must be non-negative");
        // Clamp each child to its own cap.
        let mut grants: Vec<Power> = self
            .pdus
            .iter()
            .zip(requests)
            .map(|(pdu, &want)| want.max_zero().min(pdu.max_load_with_reserve(reserve)))
            .collect();
        let dc_budget = (self.dc.max_load_with_reserve(reserve) - cooling).max_zero();
        let total: Power = grants.iter().copied().sum();
        if total <= dc_budget || total.is_zero() {
            return grants;
        }
        // Parent bound binds: scale every grant proportionally. A uniform
        // scale preserves each child's own feasibility (scaling down never
        // violates a child cap).
        let scale = dc_budget.as_watts() / total.as_watts();
        for g in &mut grants {
            *g = *g * scale;
        }
        grants
    }

    /// Resets every breaker (closed, cold).
    pub fn reset(&mut self) {
        self.dc.reset();
        for pdu in &mut self.pdus {
            pdu.reset();
        }
        self.uniform = !self.pdus.is_empty();
    }

    /// Returns the smallest no-trip limit across the PDU breakers — the
    /// per-PDU load guaranteed never to accumulate trip progress on any of
    /// them. One breaker read on the uniform fast path.
    #[must_use]
    pub fn min_pdu_no_trip_limit(&self) -> Power {
        if self.uniform {
            return self.pdus[0].no_trip_limit();
        }
        self.pdus
            .iter()
            .map(CircuitBreaker::no_trip_limit)
            .fold(Power::from_megawatts(f64::MAX / 1e12), Power::min)
    }

    /// Returns `true` if carrying `per_pdu` on every PDU would accumulate
    /// trip progress on at least one of them. One breaker read on the
    /// uniform fast path.
    #[must_use]
    pub fn any_pdu_trips_at(&self, per_pdu: Power) -> bool {
        if self.uniform {
            return !self.pdus[0].trip_time_at(per_pdu).is_never();
        }
        self.pdus
            .iter()
            .any(|b| !b.trip_time_at(per_pdu).is_never())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_units::Ratio;

    fn small_spec() -> DataCenterSpec {
        DataCenterSpec::paper_default().with_scale(4, 200)
    }

    #[test]
    fn normal_load_never_trips() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        for _ in 0..3600 {
            let ev = topo.step_uniform(
                spec.peak_normal_pdu_power(),
                spec.peak_normal_total_power() - spec.peak_normal_it_power(),
                Seconds::new(1.0),
            );
            assert!(ev.is_empty());
        }
        assert!(!topo.status().any_tripped);
    }

    #[test]
    fn sustained_overload_trips_pdus() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        let overload = spec.pdu_rated() * 1.6; // 60% overload: trips in ~60 s
        let mut tripped_at = None;
        for s in 0..180 {
            let ev = topo.step_uniform(overload, Power::ZERO, Seconds::new(1.0));
            if !ev.is_empty() {
                tripped_at = Some(s);
                break;
            }
        }
        let t = tripped_at.expect("PDUs should trip");
        assert!((58..=62).contains(&t), "tripped at {t}s");
    }

    #[test]
    fn dc_breaker_sees_cooling() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        // Load PDUs at rated (no PDU overload) but add huge cooling: only
        // the DC breaker should trip.
        let cooling = spec.dc_rated() * 2.0;
        let mut dc_tripped = false;
        for _ in 0..600 {
            let ev = topo.step_uniform(spec.pdu_rated() * 0.9, cooling, Seconds::new(1.0));
            if ev.iter().any(|e| e.name == "dc") {
                dc_tripped = true;
                break;
            }
        }
        assert!(dc_tripped);
        assert_eq!(topo.status().tripped_pdus, 0);
    }

    #[test]
    fn allowed_uniform_power_respects_parent() {
        let spec = small_spec();
        let topo = PowerTopology::new(&spec);
        let reserve = Seconds::new(60.0);
        let cooling = spec.peak_normal_total_power() - spec.peak_normal_it_power();
        let allowed = topo.allowed_uniform_pdu_power(reserve, cooling);
        let caps = topo.caps(reserve);
        assert!(allowed <= caps.per_pdu);
        assert!(
            allowed * topo.pdu_count() as f64 + cooling <= caps.dc_total + Power::from_watts(1e-6)
        );
    }

    #[test]
    fn parent_binds_when_headroom_is_zero() {
        let spec = small_spec().with_dc_headroom(Ratio::ZERO);
        let topo = PowerTopology::new(&spec);
        let allowed = topo.allowed_uniform_pdu_power(
            Seconds::new(60.0),
            spec.peak_normal_total_power() - spec.peak_normal_it_power(),
        );
        // With zero headroom the DC constraint binds below the PDU cap.
        assert!(allowed < topo.caps(Seconds::new(60.0)).per_pdu);
    }

    #[test]
    fn tripped_pdu_sheds_load_from_dc() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        // Trip one PDU with a short circuit through heterogeneous loads.
        let mut loads = vec![spec.pdu_rated() * 0.5; spec.pdu_count()];
        loads[0] = spec.pdu_rated() * 10.0;
        let ev = topo.step_loads(&loads, Power::ZERO, Seconds::new(1.0));
        assert_eq!(ev.len(), 1);
        assert_eq!(topo.status().tripped_pdus, 1);
        // Next step skips the tripped PDU without error.
        let ev2 = topo.step_loads(&loads, Power::ZERO, Seconds::new(1.0));
        assert!(ev2.is_empty());
    }

    #[test]
    fn derated_hierarchy_shrinks_caps_and_trips_sooner() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        let nominal = topo.caps(Seconds::new(60.0));
        topo.set_breaker_derating(0.8);
        let derated = topo.caps(Seconds::new(60.0));
        assert!((derated.per_pdu.as_watts() - nominal.per_pdu.as_watts() * 0.8).abs() < 1e-6);
        assert!((derated.dc_total.as_watts() - nominal.dc_total.as_watts() * 0.8).abs() < 1e-6);
        // A load that was safe at nameplate now accumulates trip progress.
        topo.step_uniform(spec.pdu_rated(), Power::ZERO, Seconds::new(30.0));
        assert!(topo.status().max_pdu_progress > 0.0);
        // Clearing the fault restores the nominal caps exactly.
        topo.set_breaker_derating(1.0);
        topo.reset();
        assert_eq!(topo.caps(Seconds::new(60.0)), nominal);
    }

    #[test]
    fn uniform_fast_path_matches_per_pdu_integration() {
        let spec = small_spec();
        let mut fast = PowerTopology::new(&spec);
        let mut slow = PowerTopology::new(&spec);
        let load = spec.pdu_rated() * 1.3; // 30% overload: trips in ~240 s
        let loads = vec![load; spec.pdu_count()];
        for _ in 0..300 {
            let a = fast.step_uniform(load, Power::ZERO, Seconds::new(1.0));
            let b = slow.step_loads(&loads, Power::ZERO, Seconds::new(1.0));
            assert_eq!(a, b);
            assert_eq!(fast, slow);
            assert_eq!(fast.caps(Seconds::new(60.0)), slow.caps(Seconds::new(60.0)));
        }
        assert!(fast.status().any_tripped);
    }

    #[test]
    fn diverged_pdus_fall_back_to_per_pdu_path() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        // Diverge pdu-0's thermal state with a heterogeneous step.
        let mut warmup = vec![spec.pdu_rated() * 0.5; spec.pdu_count()];
        warmup[0] = spec.pdu_rated() * 1.5;
        topo.step_loads(&warmup, Power::ZERO, Seconds::new(10.0));
        let mut reference = topo.clone();
        let load = spec.pdu_rated() * 1.3;
        let loads = vec![load; spec.pdu_count()];
        let a = topo.step_uniform(load, Power::ZERO, Seconds::new(30.0));
        let b = reference.step_loads(&loads, Power::ZERO, Seconds::new(30.0));
        assert_eq!(a, b);
        assert_eq!(topo, reference);
        assert_eq!(
            topo.caps(Seconds::new(60.0)),
            reference.caps(Seconds::new(60.0))
        );
    }

    /// `export → JSON → import` onto a fresh hierarchy, as a checkpoint
    /// restore does.
    fn restored(topo: &PowerTopology, spec: &DataCenterSpec) -> PowerTopology {
        let json = serde_json::to_string(&topo.export_hot_state()).expect("encode");
        let mut fresh = PowerTopology::new(spec);
        fresh.import_hot_state(serde_json::from_str(&json).expect("decode"));
        fresh
    }

    #[test]
    fn non_uniform_hot_state_round_trips_bit_identically() {
        let spec = DataCenterSpec::paper_default().with_scale(256, 20);
        let mut topo = PowerTopology::new(&spec);
        topo.set_breaker_derating(0.9);
        let rated = spec.pdu_rated();
        // Unequal overloads: every PDU ends at its own trip progress.
        let loads: Vec<Power> = (0..spec.pdu_count())
            .map(|i| rated * (1.2 + i as f64 * 1e-3))
            .collect();
        topo.step_loads(&loads, Power::ZERO, Seconds::new(7.0));
        assert!(!topo.uniform);

        let hot = topo.export_hot_state();
        assert_eq!(hot.pdus.len(), spec.pdu_count());
        let bytes = serde_json::to_string(&hot).expect("encode").len();
        assert!(
            bytes <= 8 * 1024,
            "non-uniform 256-PDU hot state is {bytes} B"
        );

        let mut back = restored(&topo, &spec);
        assert!(!back.uniform, "the slow path survives the round trip");
        assert_eq!(back, topo);
        // The continuation trips the same breakers at the same instants
        // and leaves the same progress bits behind.
        for _ in 0..400 {
            let a = topo.step_uniform(rated * 1.3, Power::ZERO, Seconds::new(1.0));
            let b = back.step_uniform(rated * 1.3, Power::ZERO, Seconds::new(1.0));
            assert_eq!(a, b);
        }
        assert!(topo.status().any_tripped, "the continuation reaches trips");
        let bits = |t: &PowerTopology| -> Vec<(u64, bool)> {
            t.pdu_breakers()
                .iter()
                .map(|b| (b.trip_progress().to_bits(), b.is_tripped()))
                .collect()
        };
        assert_eq!(bits(&back), bits(&topo));
        assert!(!back.uniform);
    }

    #[test]
    fn uniform_hot_state_stores_one_pdu() {
        let spec = DataCenterSpec::paper_default().with_scale(256, 20);
        let mut topo = PowerTopology::new(&spec);
        topo.step_uniform(spec.pdu_rated() * 1.3, Power::ZERO, Seconds::new(9.0));
        let hot = topo.export_hot_state();
        assert_eq!((hot.pdu_count, hot.pdus.len()), (256, 1));
        let back = restored(&topo, &spec);
        assert!(back.uniform);
        assert_eq!(back, topo);
    }

    #[test]
    fn reset_restores_everything() {
        let spec = small_spec();
        let mut topo = PowerTopology::new(&spec);
        topo.step_uniform(spec.pdu_rated() * 8.0, Power::ZERO, Seconds::new(1.0));
        assert!(topo.status().any_tripped);
        topo.reset();
        let st = topo.status();
        assert!(!st.any_tripped);
        assert_eq!(st.dc_progress, 0.0);
        assert_eq!(st.max_pdu_progress, 0.0);
    }
}
