//! Telemetry sinks for kernel-driven runs.
//!
//! The step kernel separates *what a run computes* (the facility physics
//! and a policy's decisions) from *what a run keeps*. These sinks cover
//! the repository's three telemetry shapes:
//!
//! * [`RecordSink`] — the full per-step [`StepRecord`] vector plus
//!   admission accounting ([`crate::run_with_faults`]);
//! * [`SummaryFold`] — the lean accumulation the searches consume
//!   ([`crate::run_summary_with_faults`]), also used as the batched lanes'
//!   per-lane tap and as the arithmetic fold target for retired lanes;
//! * `NullSink` (re-exported from `dcs_core`) — keep nothing; drivers
//!   consume each step's returned record directly.
//!
//! A new telemetry shape is one `impl StepSink<FacilityState>` away and
//! touches neither the physics nor any policy.

use crate::simd::{fold_span_group, F64x4};
use crate::SimSummary;
use dcs_core::{FacilityState, StepEffects, StepInput, StepRecord, StepSink};
use dcs_units::{Energy, Seconds};
use dcs_workload::AdmissionLog;

/// Materializes the full telemetry of a run: every finished
/// [`StepRecord`], plus the served/dropped admission integrals.
#[derive(Debug, Clone, Default)]
pub struct RecordSink {
    /// The per-step records, in step order.
    pub records: Vec<StepRecord>,
    /// Served/dropped accounting over the recorded steps.
    pub admission: AdmissionLog,
}

impl RecordSink {
    /// An empty sink with room for `capacity` steps.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> RecordSink {
        RecordSink {
            records: Vec::with_capacity(capacity),
            admission: AdmissionLog::new(),
        }
    }
}

impl<'a> StepSink<FacilityState<'a>> for RecordSink {
    fn record(&mut self, input: &StepInput, effects: &StepEffects) {
        self.admission
            .record(effects.record.demand, effects.record.served, input.dt);
        self.records.push(effects.record);
    }
}

/// Folds finished steps into exactly what a [`SimSummary`] needs —
/// admission accounting, step count, trip/overheat flags, and the peak
/// degree — without materializing records.
///
/// The fold is also the batch engine's per-lane accumulator: a retired
/// lane keeps folding arithmetically via [`SummaryFold::fold_span`] after
/// its controller is frozen.
#[derive(Debug, Clone)]
pub(crate) struct SummaryFold {
    admission: AdmissionLog,
    steps: usize,
    tripped: bool,
    overheated: bool,
    peak_degree: f64,
}

impl SummaryFold {
    /// An empty fold.
    #[must_use]
    pub fn new() -> SummaryFold {
        SummaryFold {
            admission: AdmissionLog::new(),
            steps: 0,
            tripped: false,
            overheated: false,
            peak_degree: 0.0,
        }
    }

    /// Absorbs one finished step record — the single accumulation point
    /// both the aggregate runner and the batched lanes share.
    pub fn absorb(&mut self, rec: &StepRecord, dt: Seconds) {
        self.admission.record(rec.demand, rec.served, dt);
        self.steps += 1;
        self.tripped |= rec.tripped;
        self.overheated |= rec.overheated;
        self.peak_degree = self.peak_degree.max(rec.degree.as_f64());
    }

    /// Folds a span of steps on which the lane provably serves at the
    /// normal allocation with a frozen plant: each step contributes
    /// `record(demand, min(demand, normal_capacity))`, one step count, and
    /// a degree of exactly 1 — nothing else in the summary moves.
    ///
    /// Runs through the data-parallel [`fold_span_group`] kernel (a group
    /// of one), which performs bitwise the same per-step accumulation the
    /// admission log would.
    pub fn fold_span(&mut self, demands: &[f64], dt: Seconds, normal_capacity: f64) {
        let (served, demand, elapsed) = self.admission.integrals();
        let mut acc = [F64x4::new(served, demand, elapsed, 0.0)];
        let invalid = fold_span_group(&mut acc, demands, dt, normal_capacity);
        self.admission = AdmissionLog::from_integrals(
            acc[0].0[0],
            acc[0].0[1],
            acc[0].0[2],
            self.admission.invalid_samples() + invalid,
        );
        self.steps += demands.len();
        if !demands.is_empty() {
            self.peak_degree = self.peak_degree.max(1.0);
        }
    }

    /// Decomposes the fold into `(admission, steps, tripped, overheated,
    /// peak_degree)` — the batch engine seeds its structure-of-arrays fold
    /// bank from these parts at the fork.
    pub(crate) fn parts(&self) -> (AdmissionLog, usize, bool, bool, f64) {
        (
            self.admission,
            self.steps,
            self.tripped,
            self.overheated,
            self.peak_degree,
        )
    }

    /// Reassembles a fold from parts previously produced by
    /// [`SummaryFold::parts`] or accumulated in the batch engine's fold
    /// bank.
    pub(crate) fn from_parts(
        admission: AdmissionLog,
        steps: usize,
        tripped: bool,
        overheated: bool,
        peak_degree: f64,
    ) -> SummaryFold {
        SummaryFold {
            admission,
            steps,
            tripped,
            overheated,
            peak_degree,
        }
    }

    /// Finishes the fold into a [`SimSummary`], attaching the run identity
    /// and the controller's additional-energy split.
    #[must_use]
    pub fn summarize(
        &self,
        strategy: String,
        step: Seconds,
        energy_split: (Energy, Energy, Energy),
    ) -> SimSummary {
        let (cb_energy, ups_energy, tes_energy) = energy_split;
        SimSummary {
            strategy,
            step,
            steps: self.steps,
            admission: self.admission,
            cb_energy,
            ups_energy,
            tes_energy,
            tripped: self.tripped,
            overheated: self.overheated,
            peak_degree: self.peak_degree,
        }
    }
}

impl<'a> StepSink<FacilityState<'a>> for SummaryFold {
    fn record(&mut self, input: &StepInput, effects: &StepEffects) {
        self.absorb(&effects.record, input.dt);
    }
}
