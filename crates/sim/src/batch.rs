//! Batched multi-lane execution: one trace pass for a whole sprint-bound
//! grid.
//!
//! The Oracle search and the upper-bound-table build evaluate many
//! `FixedBound` candidates over the *same* trace. Run independently, every
//! candidate re-samples the trace, re-resolves the fault windows, and
//! re-draws the sensor-noise stream. The batch runner here computes that
//! shared per-step work exactly once ([`shared_pass`]), then advances N
//! lanes — one [`SprintController`] per candidate bound — in lockstep
//! through the steps, with lane state held structure-of-arrays (parallel
//! `ctrls`/`folds`/flag vectors) so the per-lane physics is a tight inner
//! loop over the lane set at each step.
//!
//! Three exact accelerations ride on the lockstep structure:
//!
//! 1. **Prefix sharing.** Quiet (sub-threshold) steps are bound-independent
//!    for `FixedBound` lanes: the bound only enters through
//!    `desired = min(needed, bound_cores)` and quiet `needed` never exceeds
//!    the normal allocation. One representative lane runs the shared quiet
//!    prefix; the lane set is forked (cloned) at the first burst step.
//! 2. **Early lane retirement.** A lane that trips or overheats is
//!    terminated by the controller; once the remaining schedule is
//!    fault-nominal (and, for live lanes, the remaining demand is quiet) a
//!    conservative plant certificate ([`fold_safe`]) proves every remaining
//!    step contributes a closed-form summary increment, so the lane is
//!    frozen and its tail folded arithmetically. A lane whose effective
//!    bound saturates at the normal allocation is likewise exempt from the
//!    quiet requirement.
//! 3. **Budget priming.** The sprint energy budget fixed at burst start is
//!    lane-independent; it is integrated once at the fork and primed into
//!    every clone instead of once per lane.
//!
//! All three preserve bit-identical [`SimSummary`] output versus N
//! independent `run_summary_with_faults` calls — including under random
//! [`FaultSchedule`]s — which the equivalence property suite and
//! the `bench` binary enforce. The runner is specific to constant-bound lanes:
//! stateful strategies would observe the shared prefix differently and are
//! rejected by construction (only `FixedBound` lanes are ever built here).

use crate::scenario::{Scenario, SimSummary};
use crate::simd::{fold_span_group, record_delta, F64x4};
use crate::sink::SummaryFold;
use crate::sweep::parallel_map;
use dcs_core::{ControllerConfig, FixedBound, SprintController, StepRecord};
use dcs_faults::{ActiveFaults, FaultObserver, FaultSchedule, FaultTimeline, Observation};
use dcs_power::DataCenterSpec;
use dcs_units::{Energy, Power, Ratio, Seconds, TempDelta};
use dcs_workload::{AdmissionLog, Trace};
use serde::{Deserialize, Serialize};

/// Work counters for a batched run: lanes submitted, lanes actually
/// advanced after saturation dedup, and how many lane-steps ran live
/// physics versus being folded arithmetically by early retirement.
///
/// `live_lane_steps + folded_lane_steps` always equals
/// `lanes_advanced × trace_len` for an untapped batch, so the counters are
/// an honest account of where the simulated work went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Candidate bounds submitted to the batch.
    pub lanes: usize,
    /// Distinct lanes advanced after saturation dedup (bounds whose
    /// effective core cap coincides share one lane).
    pub unique_lanes: usize,
    /// Controller steps executed with full plant physics.
    pub live_lane_steps: u64,
    /// Lane-steps resolved by the closed-form retirement fold.
    pub folded_lane_steps: u64,
}

impl BatchStats {
    /// Accumulates another batch's counters into this one.
    pub fn merge(&mut self, other: BatchStats) {
        self.lanes += other.lanes;
        self.unique_lanes += other.unique_lanes;
        self.live_lane_steps += other.live_lane_steps;
        self.folded_lane_steps += other.folded_lane_steps;
    }

    /// Total lane-steps accounted for, live plus folded.
    #[must_use]
    pub fn total_lane_steps(&self) -> u64 {
        self.live_lane_steps + self.folded_lane_steps
    }
}

/// Result of a batched run: one summary per submitted bound, in input
/// order, plus the work counters.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-bound summaries, parallel to the submitted bound slice.
    pub summaries: Vec<SimSummary>,
    /// Work counters for the batch.
    pub stats: BatchStats,
}

/// The per-step work every lane shares: true demand, the sensor
/// observation (fault lookup + noise + staleness), and the indices that
/// gate retirement.
struct SharedPass {
    demands: Vec<f64>,
    obs: Vec<Observation>,
    /// First step from which every remaining step is fault-nominal.
    nominal_from: usize,
    /// First step from which every remaining step is fault-nominal *and*
    /// observed demand stays at or below the burst threshold.
    inert_from: usize,
    /// First step whose observed demand exceeds the burst threshold.
    first_burst: Option<usize>,
}

fn shared_pass(trace: &Trace, faults: &FaultSchedule, threshold: f64) -> SharedPass {
    let dt = trace.step();
    let timeline = FaultTimeline::new(faults, dt, trace.len());
    let mut observer = FaultObserver::new();
    let mut demands = Vec::with_capacity(trace.len());
    let mut obs = Vec::with_capacity(trace.len());
    for ((_, demand), active) in trace.iter().zip(timeline.active()) {
        demands.push(demand);
        obs.push(observer.observe(demand, active));
    }
    let inert_from = obs
        .iter()
        .rposition(|o| o.active.any() || o.observed > threshold)
        .map_or(0, |last| last + 1);
    let first_burst = obs.iter().position(|o| o.observed > threshold);
    SharedPass {
        demands,
        obs,
        nominal_from: timeline.nominal_from(),
        inert_from,
        first_burst,
    }
}

fn nominal_observation(demand: f64) -> Observation {
    Observation {
        active: ActiveFaults::nominal(),
        observed: demand,
        thermal_bias: TempDelta::ZERO,
    }
}

fn summary_of(ctrl: &SprintController<'_>, fold: &SummaryFold, dt: Seconds) -> SimSummary {
    fold.summarize(
        ctrl.strategy_name().to_owned(),
        dt,
        ctrl.facility().energy_split(),
    )
}

/// Conservative certificate that *every* remaining step of a
/// quiet-or-terminated, fault-nominal tail leaves the lane's summary
/// contributions closed-form: the chiller covers peak normal heat (so the
/// room only cools and never re-overheats), and peak normal power fits
/// inside the current reserve caps and every breaker's no-trip region (so
/// there is never a deficit, a shed, a UPS discharge, or a trip).
///
/// The checks are monotone-safe: caps only grow as breaker trip progress
/// decays under no-trip loads, and the derated (current) breaker ratings
/// under-approximate the nominal ratings the tail runs with, so a
/// certificate that holds now keeps holding for the rest of the tail. A
/// tripped breaker zeroes its cap and fails the check, which safely forces
/// the live-step fallback.
fn fold_safe(ctrl: &mut SprintController<'_>) -> bool {
    let spec = ctrl.facility().spec();
    let server = spec.server();
    let plant = ctrl.facility().plant();
    let peak_normal_it = spec.peak_normal_it_power();
    if plant.design_capacity() < peak_normal_it {
        return false;
    }
    let worst_cooling = plant.electric_power(plant.design_capacity(), Power::ZERO);
    let caps = ctrl.reserve_caps();
    let dc_it_budget = (caps.dc_total - worst_cooling - ctrl.facility().external_load()).max_zero();
    let allowed_per_pdu = caps.per_pdu.min(dc_it_budget / spec.pdu_count() as f64);
    let worst_per_pdu = server.peak_normal_power() * spec.servers_per_pdu() as f64;
    if worst_per_pdu > allowed_per_pdu {
        return false;
    }
    let topo = ctrl.facility().topology();
    if topo.any_pdu_trips_at(worst_per_pdu) {
        return false;
    }
    let worst_dc = peak_normal_it + worst_cooling + ctrl.facility().external_load();
    topo.dc_breaker().trip_time_at(worst_dc).is_never()
}

/// Lanes per thread-sharded block. Small enough that a block's controllers
/// stay cache-resident and hyperscale grids spread across every worker,
/// large enough to amortize the per-block fork; at most 64 so each
/// per-block flag set fits one [`LaneMask`] word.
const BLOCK_LANES: usize = 16;

/// A bitmask over one block's lanes (`BLOCK_LANES <= 64` by construction):
/// the terminated / normal-pinned / done / tripped / overheated flags the
/// lockstep inner loop consults every step live in single words instead of
/// `Vec<bool>`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LaneMask(u64);

impl LaneMask {
    /// The mask with the low `n` lanes set.
    fn all(n: usize) -> LaneMask {
        debug_assert!(n <= 64);
        if n >= 64 {
            LaneMask(u64::MAX)
        } else {
            LaneMask((1u64 << n) - 1)
        }
    }

    fn set(&mut self, lane: usize) {
        self.0 |= 1 << lane;
    }

    fn get(self, lane: usize) -> bool {
        (self.0 >> lane) & 1 == 1
    }

    fn count(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Per-lane fold state, structure-of-arrays: each lane's admission
/// integrals live in one [`F64x4`] (`[served·dt, demand·dt, elapsed,
/// pad]`), so a live step or a folded span updates all of them with one
/// vector add; the scalar sidecars (invalid-sample counts, step counts,
/// peak degrees) sit in their own contiguous arrays, and the boolean
/// outcome flags are [`LaneMask`] bits.
///
/// Every mutation mirrors the scalar [`SummaryFold`] arithmetic exactly
/// (see [`record_delta`] / [`fold_span_group`]), so
/// [`FoldBank::fold_of`] reassembles a fold bit-identical to one that
/// absorbed the same steps directly.
struct FoldBank {
    accs: Vec<F64x4>,
    invalid: Vec<u64>,
    steps: Vec<usize>,
    peak_degree: Vec<f64>,
    tripped: LaneMask,
    overheated: LaneMask,
}

impl FoldBank {
    /// A bank of `n` lanes, every lane seeded from the forked prefix fold.
    fn seeded(n: usize, prefix: &SummaryFold) -> FoldBank {
        let (admission, steps, tripped, overheated, peak) = prefix.parts();
        let (served, demand, elapsed) = admission.integrals();
        FoldBank {
            accs: vec![F64x4::new(served, demand, elapsed, 0.0); n],
            invalid: vec![admission.invalid_samples(); n],
            steps: vec![steps; n],
            peak_degree: vec![peak; n],
            tripped: if tripped {
                LaneMask::all(n)
            } else {
                LaneMask::default()
            },
            overheated: if overheated {
                LaneMask::all(n)
            } else {
                LaneMask::default()
            },
        }
    }

    /// Absorbs one finished live step for `slot` — bitwise the same
    /// accumulation as [`SummaryFold::absorb`].
    fn absorb(&mut self, slot: usize, rec: &StepRecord, dt: Seconds) {
        let (served_dt, demand_dt, inv) = record_delta(rec.demand, rec.served, dt);
        self.accs[slot] += F64x4::new(served_dt, demand_dt, dt.as_secs(), 0.0);
        self.invalid[slot] += inv;
        self.steps[slot] += 1;
        if rec.tripped {
            self.tripped.set(slot);
        }
        if rec.overheated {
            self.overheated.set(slot);
        }
        self.peak_degree[slot] = self.peak_degree[slot].max(rec.degree.as_f64());
    }

    /// Retires a group of lanes onto the shared quiet span: one kernel
    /// fold computes each step's delta once and broadcast-adds it to every
    /// retiring accumulator (lanes are independent, so deferring a lane's
    /// fold to the end of its retirement step cannot change any result).
    fn retire_group(
        &mut self,
        slots: &[usize],
        demands: &[f64],
        dt: Seconds,
        normal_capacity: f64,
    ) {
        if slots.is_empty() {
            return;
        }
        let mut group: Vec<F64x4> = slots.iter().map(|&s| self.accs[s]).collect();
        let invalid = fold_span_group(&mut group, demands, dt, normal_capacity);
        for (&slot, acc) in slots.iter().zip(group) {
            self.accs[slot] = acc;
            self.invalid[slot] += invalid;
            self.steps[slot] += demands.len();
            if !demands.is_empty() {
                self.peak_degree[slot] = self.peak_degree[slot].max(1.0);
            }
        }
    }

    /// Reassembles `slot`'s state as the scalar fold it is bit-equal to.
    fn fold_of(&self, slot: usize) -> SummaryFold {
        let acc = self.accs[slot].0;
        SummaryFold::from_parts(
            AdmissionLog::from_integrals(acc[0], acc[1], acc[2], self.invalid[slot]),
            self.steps[slot],
            self.tripped.get(slot),
            self.overheated.get(slot),
            self.peak_degree[slot],
        )
    }
}

/// One thread shard of the lane set: up to [`BLOCK_LANES`] controllers
/// plus the structure-of-arrays fold bank and flag masks.
///
/// Blocks are carved from the deduped lane order in fixed-size chunks, so
/// the block→lane assignment — and with it every lane's arithmetic, clone
/// order, and the merged output order — is a function of the input alone,
/// never of how many workers happen to execute the blocks. That keeps
/// batched results (and the checkpoint/resume digests built on them)
/// bit-identical across thread counts.
struct LaneBlock<'a> {
    ctrls: Vec<SprintController<'a>>,
    bank: FoldBank,
    terminated: LaneMask,
    /// Lane's effective core cap equals the normal allocation, so burst
    /// steps are also closed-form once faults go nominal.
    normal_pinned: LaneMask,
    done: LaneMask,
}

impl<'a> LaneBlock<'a> {
    /// Forks one block of lanes off the shared prefix: clone the
    /// representative per bound, prime the lane-independent energy budget,
    /// seed every lane's fold state from the prefix fold.
    fn forked(
        rep: &SprintController<'a>,
        prefix: &SummaryFold,
        bounds: &[Ratio],
        pinned: impl Iterator<Item = bool>,
        primed: Energy,
    ) -> LaneBlock<'a> {
        let mut normal_pinned = LaneMask::default();
        for (slot, is_pinned) in pinned.enumerate() {
            if is_pinned {
                normal_pinned.set(slot);
            }
        }
        LaneBlock {
            ctrls: bounds
                .iter()
                .map(|&b| {
                    let mut ctrl = rep.clone_with_strategy(Box::new(FixedBound::new(b)));
                    ctrl.prime_energy_budget(primed);
                    ctrl
                })
                .collect(),
            bank: FoldBank::seeded(bounds.len(), prefix),
            terminated: LaneMask::default(),
            normal_pinned,
            done: LaneMask::default(),
        }
    }

    fn len(&self) -> usize {
        self.ctrls.len()
    }

    /// Runs one live controller step for `slot` and absorbs the record
    /// into the fold bank, latching termination.
    fn live_step(&mut self, slot: usize, demand: f64, obs: &Observation, dt: Seconds) {
        let rec = self.ctrls[slot].step_observed(demand, obs, dt);
        self.bank.absorb(slot, &rec, dt);
        if rec.tripped || rec.overheated {
            self.terminated.set(slot);
        }
    }

    /// Finishes `slot` into its summary.
    fn summary(&self, slot: usize, dt: Seconds) -> SimSummary {
        summary_of(&self.ctrls[slot], &self.bank.fold_of(slot), dt)
    }
}

/// Runs one `FixedBound` lane per candidate bound through a single pass
/// over the scenario's trace, bit-identical to N independent
/// `run_summary_with_faults` calls (including under faults).
///
/// Returns one summary per bound, in input order.
///
/// # Panics
///
/// Panics if any bound is below 1 (as `FixedBound::new` would).
#[must_use]
pub fn run_bound_batch(
    scenario: &Scenario,
    bounds: &[Ratio],
    faults: &FaultSchedule,
) -> BatchOutcome {
    let mut stats = BatchStats {
        lanes: bounds.len(),
        ..BatchStats::default()
    };
    if bounds.is_empty() {
        return BatchOutcome {
            summaries: Vec::new(),
            stats,
        };
    }
    let spec = scenario.spec();
    let config = scenario.config();
    let trace = scenario.trace();
    let dt = trace.step();
    let len = trace.len();
    let shared = shared_pass(trace, faults, config.burst_threshold);
    let server = spec.server();
    let normal = server.normal_cores();
    let normal_capacity = server.capacity_at_cores(normal);
    let max_degree = server.max_degree();

    // Saturation dedup: a lane's bound only acts through
    // `bound_cores = cores_at_degree(clamp(bound)).max(normal)`, and only
    // when it binds below the step's needed cores. Two bounds whose caps
    // agree everywhere the cap can bind (i.e. after clamping to the max
    // needed allocation over the whole trace) produce bit-identical
    // summaries, so they share one lane.
    let max_needed = shared
        .obs
        .iter()
        .map(|o| server.cores_for_demand(Ratio::new(o.observed)).max(normal))
        .max()
        .unwrap_or(normal);
    let key_of = |bound: Ratio| -> u32 {
        server
            .cores_at_degree(bound.min(max_degree))
            .max(normal)
            .min(max_needed)
    };
    let mut keys: Vec<u32> = Vec::new();
    let mut rep_bounds: Vec<Ratio> = Vec::new();
    let mut lane_of_input: Vec<usize> = Vec::with_capacity(bounds.len());
    for &bound in bounds {
        assert!(bound >= Ratio::ONE, "bound must be at least 1");
        let key = key_of(bound);
        match keys.iter().position(|&k| k == key) {
            Some(lane) => lane_of_input.push(lane),
            None => {
                lane_of_input.push(rep_bounds.len());
                keys.push(key);
                rep_bounds.push(bound);
            }
        }
    }

    // --- Shared quiet prefix on one representative lane ------------------
    let fork_at = shared.first_burst.unwrap_or(len);
    let mut rep = SprintController::new(spec, config, Box::new(FixedBound::new(rep_bounds[0])))
        .with_faults(faults);
    let mut rep_fold = SummaryFold::new();
    let mut rep_terminated = false;
    let mut rep_done = false;
    let mut i = 0;
    while i < fork_at {
        let quiet_ok = i >= shared.inert_from;
        let term_ok = rep_terminated && i >= shared.nominal_from;
        if (quiet_ok || term_ok) && fold_safe(&mut rep) {
            rep_fold.fold_span(&shared.demands[i..], dt, normal_capacity);
            stats.folded_lane_steps += (len - i) as u64;
            rep_done = true;
            break;
        }
        let rec = rep.step_observed_with_sink(shared.demands[i], &shared.obs[i], dt, &mut rep_fold);
        stats.live_lane_steps += 1;
        if rec.tripped || rec.overheated {
            rep_terminated = true;
        }
        i += 1;
    }

    // A lane terminated before the first burst never sprints, so every
    // bound's run is identical: finish the representative alone and
    // replicate. Likewise when the trace never bursts at all.
    if rep_done || rep_terminated || fork_at == len {
        let mut i = fork_at;
        while !rep_done && i < len {
            let quiet_ok = i >= shared.inert_from;
            let term_ok = rep_terminated && i >= shared.nominal_from;
            if (quiet_ok || term_ok) && fold_safe(&mut rep) {
                rep_fold.fold_span(&shared.demands[i..], dt, normal_capacity);
                stats.folded_lane_steps += (len - i) as u64;
                break;
            }
            let rec =
                rep.step_observed_with_sink(shared.demands[i], &shared.obs[i], dt, &mut rep_fold);
            stats.live_lane_steps += 1;
            if rec.tripped || rec.overheated {
                rep_terminated = true;
            }
            i += 1;
        }
        stats.unique_lanes = 1;
        let summary = summary_of(&rep, &rep_fold, dt);
        return BatchOutcome {
            summaries: bounds.iter().map(|_| summary.clone()).collect(),
            stats,
        };
    }

    // --- Fork: clone the prefix into one lane per distinct bound, sharded
    // into fixed-size blocks across the sweep workers -----------------------
    stats.unique_lanes = rep_bounds.len();
    let primed = rep.energy_budget_under(&shared.obs[fork_at].active, dt);
    let rep = &rep;
    let rep_fold = &rep_fold;
    let shared = &shared;
    let run_block = |range: &std::ops::Range<usize>| -> (Vec<SimSummary>, BatchStats) {
        let mut block = LaneBlock::forked(
            rep,
            rep_fold,
            &rep_bounds[range.clone()],
            keys[range.clone()].iter().map(|&k| k <= normal),
            primed,
        );
        let mut bstats = BatchStats::default();
        // Slots retiring this step; their tails fold as one group below.
        let mut retire: Vec<usize> = Vec::with_capacity(block.len());
        for i in fork_at..len {
            if block.done.count() == block.len() {
                break;
            }
            let demand = shared.demands[i];
            let obs = &shared.obs[i];
            let quiet_ok = i >= shared.inert_from;
            let nominal_ok = i >= shared.nominal_from;
            retire.clear();
            for slot in 0..block.len() {
                if block.done.get(slot) {
                    continue;
                }
                let exempt = block.terminated.get(slot) || block.normal_pinned.get(slot);
                if (quiet_ok || (exempt && nominal_ok)) && fold_safe(&mut block.ctrls[slot]) {
                    retire.push(slot);
                    block.done.set(slot);
                    continue;
                }
                block.live_step(slot, demand, obs, dt);
                bstats.live_lane_steps += 1;
            }
            if !retire.is_empty() {
                block
                    .bank
                    .retire_group(&retire, &shared.demands[i..], dt, normal_capacity);
                bstats.folded_lane_steps += (len - i) as u64 * retire.len() as u64;
            }
        }
        let summaries = (0..block.len())
            .map(|slot| block.summary(slot, dt))
            .collect();
        (summaries, bstats)
    };
    let blocks: Vec<std::ops::Range<usize>> = (0..rep_bounds.len())
        .step_by(BLOCK_LANES)
        .map(|lo| lo..(lo + BLOCK_LANES).min(rep_bounds.len()))
        .collect();
    let results = if blocks.len() == 1 {
        vec![run_block(&blocks[0])]
    } else {
        parallel_map(&blocks, run_block)
    };
    let mut lane_summaries: Vec<SimSummary> = Vec::with_capacity(rep_bounds.len());
    for (summaries, bstats) in results {
        lane_summaries.extend(summaries);
        stats.merge(bstats);
    }
    BatchOutcome {
        summaries: lane_of_input
            .iter()
            .map(|&lane| lane_summaries[lane].clone())
            .collect(),
        stats,
    }
}

/// A mid-trace evaluation request against a batched master run: report the
/// summary a lane would have if, after `at` shared steps, the run finished
/// over `tail` instead of the master trace.
///
/// The caller must guarantee `tail` agrees with the master trace bitwise on
/// `[0, at)` (asserted), so the lane's state after `at` master steps *is*
/// its state after `at` tail steps.
pub(crate) struct LaneTap<'t> {
    /// Index into the batch's bound slice.
    pub lane: usize,
    /// Master-trace step count after which the run diverges onto `tail`.
    pub at: usize,
    /// The trace this evaluation finishes over.
    pub tail: &'t Trace,
}

/// Fault-free batched run over a shared `master` trace that answers
/// [`LaneTap`] evaluations: traces sharing a common prefix (the table
/// builder's per-degree columns) are all served by one pass over the
/// longest of them, each tap cloning its lane at the divergence point and
/// finishing over its own tail.
///
/// Returns one summary per tap, in input order, each bit-identical to an
/// independent `run_summary_with_faults` of that tap's trace with that
/// lane's bound.
pub(crate) fn run_bound_batch_tapped(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    master: &Trace,
    bounds: &[Ratio],
    taps: &[LaneTap<'_>],
) -> (Vec<SimSummary>, BatchStats) {
    let dt = master.step();
    let len = master.len();
    let threshold = config.burst_threshold;
    let server = spec.server();
    let normal = server.normal_cores();
    let normal_capacity = server.capacity_at_cores(normal);
    let max_degree = server.max_degree();
    let mut stats = BatchStats {
        lanes: bounds.len(),
        unique_lanes: bounds.len(),
        ..BatchStats::default()
    };

    // Validate taps and pre-compute, per tap, whether its tail past the
    // divergence point is all-quiet (which makes a frozen lane's tap
    // resolvable arithmetically).
    let mut tap_order: Vec<usize> = (0..taps.len()).collect();
    tap_order.sort_by_key(|&t| taps[t].at);
    let tail_quiet: Vec<bool> = taps
        .iter()
        .map(|tap| {
            assert!(tap.lane < bounds.len(), "tap lane out of range");
            assert!(
                tap.at <= len && tap.at <= tap.tail.len(),
                "tap point must lie inside both traces"
            );
            assert!(
                tap.tail.step() == master.step(),
                "tap tail must share the master control period"
            );
            assert!(
                tap.tail.samples()[..tap.at] == master.samples()[..tap.at],
                "tap tail must agree with the master trace before the tap"
            );
            tap.tail.samples()[tap.at..].iter().all(|&d| d <= threshold)
        })
        .collect();
    let mut pending: Vec<Vec<usize>> = vec![Vec::new(); bounds.len()];
    for &t in tap_order.iter().rev() {
        // Reverse insertion so each lane's queue pops in ascending `at`.
        pending[taps[t].lane].push(t);
    }

    let shared = shared_pass(master, &FaultSchedule::NONE, threshold);
    let fork_at = shared.first_burst.unwrap_or(len);
    let mut out: Vec<Option<SimSummary>> = (0..taps.len()).map(|_| None).collect();

    // Resolves one tap from a source lane state positioned at `pos`
    // (`pos == at` for a live lane; `pos < at` for a frozen one, whose gap
    // and tail are guaranteed fold-safe by the freeze-time checks).
    #[allow(clippy::too_many_arguments)]
    fn resolve_tap(
        ctrl: &SprintController<'_>,
        fold: &SummaryFold,
        terminated: bool,
        pos: usize,
        tap: &LaneTap<'_>,
        tap_is_quiet: bool,
        bound: Ratio,
        shared: &SharedPass,
        threshold: f64,
        normal_capacity: f64,
        dt: Seconds,
        stats: &mut BatchStats,
    ) -> SimSummary {
        let tail = tap.tail.samples();
        if pos < tap.at {
            // Frozen lane: the master gap [pos, at) is bitwise-equal to the
            // tail there, and both it and the tail past `at` fold.
            debug_assert!(terminated || tap_is_quiet);
            let mut fold = fold.clone();
            fold.fold_span(&shared.demands[pos..tap.at], dt, normal_capacity);
            fold.fold_span(&tail[tap.at..], dt, normal_capacity);
            stats.folded_lane_steps += (tail.len() - pos) as u64;
            return summary_of(ctrl, &fold, dt);
        }
        let mut ctrl = ctrl.clone_with_strategy(Box::new(FixedBound::new(bound)));
        let mut fold = fold.clone();
        let mut term = terminated;
        let tail_inert = tail
            .iter()
            .rposition(|&d| d > threshold)
            .map_or(0, |last| last + 1);
        let mut j = tap.at;
        while j < tail.len() {
            if (j >= tail_inert || term) && fold_safe(&mut ctrl) {
                fold.fold_span(&tail[j..], dt, normal_capacity);
                stats.folded_lane_steps += (tail.len() - j) as u64;
                break;
            }
            let rec =
                ctrl.step_observed_with_sink(tail[j], &nominal_observation(tail[j]), dt, &mut fold);
            stats.live_lane_steps += 1;
            if rec.tripped || rec.overheated {
                term = true;
            }
            j += 1;
        }
        summary_of(&ctrl, &fold, dt)
    }

    // --- Phase A: shared prefix (and the whole run when no fork happens) --
    let mut rep = SprintController::new(spec, config, Box::new(FixedBound::new(bounds[0])));
    let mut rep_fold = SummaryFold::new();
    let mut rep_terminated = false;
    let mut rep_frozen_at: Option<usize> = None;
    let mut next_tap = 0usize;
    let mut i = 0usize;
    let mut forked = false;
    while i <= len {
        while next_tap < tap_order.len() && taps[tap_order[next_tap]].at == i {
            let t = tap_order[next_tap];
            let tap = &taps[t];
            out[t] = Some(resolve_tap(
                &rep,
                &rep_fold,
                rep_terminated,
                rep_frozen_at.unwrap_or(i),
                tap,
                tail_quiet[t],
                bounds[tap.lane],
                &shared,
                threshold,
                normal_capacity,
                dt,
                &mut stats,
            ));
            pending[tap.lane].pop();
            next_tap += 1;
        }
        if i == len {
            break;
        }
        if i == fork_at && !rep_terminated && rep_frozen_at.is_none() {
            forked = true;
            break;
        }
        if rep_frozen_at.is_none() {
            let quiet_ok = i >= shared.inert_from;
            let term_ok = rep_terminated && i >= shared.nominal_from;
            // With no fork ahead every remaining tap resolves from this
            // lane, so freezing requires every one of them to be
            // arithmetically resolvable.
            let taps_ok = tap_order[next_tap..]
                .iter()
                .all(|&t| rep_terminated || tail_quiet[t]);
            if (quiet_ok || term_ok) && taps_ok && fold_safe(&mut rep) {
                rep_frozen_at = Some(i);
            }
        }
        if rep_frozen_at.is_none() {
            let rec =
                rep.step_observed_with_sink(shared.demands[i], &shared.obs[i], dt, &mut rep_fold);
            stats.live_lane_steps += 1;
            if rec.tripped || rec.overheated {
                rep_terminated = true;
            }
        }
        i += 1;
    }

    // --- Phase B: forked lockstep over the burst and beyond, sharded into
    // fixed-size lane blocks across the sweep workers. Taps touch only
    // their own lane's state and their output slots are disjoint, so each
    // block resolves its lanes' taps independently; tap order within a
    // lane (ascending `at`) is preserved per block. ------------------------
    if forked {
        let primed = rep.energy_budget_under(&shared.obs[fork_at].active, dt);
        let lane_ids: Vec<usize> = (0..bounds.len())
            .filter(|&l| !pending[l].is_empty())
            .collect();
        let rep = &rep;
        let rep_fold = &rep_fold;
        let shared = &shared;
        let pending = &pending;
        let remaining_taps = &tap_order[next_tap..];
        let run_block = |range: &std::ops::Range<usize>| -> (Vec<(usize, SimSummary)>, BatchStats) {
            let blk_lanes = &lane_ids[range.clone()];
            let blk_bounds: Vec<Ratio> = blk_lanes.iter().map(|&l| bounds[l]).collect();
            let mut block = LaneBlock::forked(
                rep,
                rep_fold,
                &blk_bounds,
                blk_lanes.iter().map(|&l| {
                    server
                        .cores_at_degree(bounds[l].min(max_degree))
                        .max(normal)
                        <= normal
                }),
                primed,
            );
            let mut bstats = BatchStats::default();
            let mut frozen_at: Vec<Option<usize>> = vec![None; blk_lanes.len()];
            let mut blk_pending: Vec<Vec<usize>> =
                blk_lanes.iter().map(|&l| pending[l].clone()).collect();
            let blk_taps: Vec<usize> = remaining_taps
                .iter()
                .copied()
                .filter(|&t| blk_lanes.contains(&taps[t].lane))
                .collect();
            let mut resolved: Vec<(usize, SimSummary)> = Vec::with_capacity(blk_taps.len());
            let mut bnext = 0usize;
            for i in fork_at..=len {
                if block.done.count() == block.len() {
                    break;
                }
                while bnext < blk_taps.len() && taps[blk_taps[bnext]].at == i {
                    let t = blk_taps[bnext];
                    let tap = &taps[t];
                    let slot = blk_lanes
                        .iter()
                        .position(|&l| l == tap.lane)
                        .expect("tap lane was forked");
                    let fold = block.bank.fold_of(slot);
                    resolved.push((
                        t,
                        resolve_tap(
                            &block.ctrls[slot],
                            &fold,
                            block.terminated.get(slot),
                            frozen_at[slot].unwrap_or(i),
                            tap,
                            tail_quiet[t],
                            bounds[tap.lane],
                            shared,
                            threshold,
                            normal_capacity,
                            dt,
                            &mut bstats,
                        ),
                    ));
                    blk_pending[slot].pop();
                    if blk_pending[slot].is_empty() && !block.done.get(slot) {
                        block.done.set(slot);
                    }
                    bnext += 1;
                }
                if i == len || block.done.count() == block.len() {
                    break;
                }
                let demand = shared.demands[i];
                let obs = &shared.obs[i];
                let quiet_ok = i >= shared.inert_from;
                let nominal_ok = i >= shared.nominal_from;
                for slot in 0..block.len() {
                    if block.done.get(slot) || frozen_at[slot].is_some() {
                        continue;
                    }
                    let exempt = block.terminated.get(slot) || block.normal_pinned.get(slot);
                    let taps_ok = blk_pending[slot]
                        .iter()
                        .all(|&t| block.terminated.get(slot) || tail_quiet[t]);
                    if (quiet_ok || (exempt && nominal_ok))
                        && taps_ok
                        && fold_safe(&mut block.ctrls[slot])
                    {
                        frozen_at[slot] = Some(i);
                        continue;
                    }
                    block.live_step(slot, demand, obs, dt);
                    bstats.live_lane_steps += 1;
                }
            }
            (resolved, bstats)
        };
        let blocks: Vec<std::ops::Range<usize>> = (0..lane_ids.len())
            .step_by(BLOCK_LANES)
            .map(|lo| lo..(lo + BLOCK_LANES).min(lane_ids.len()))
            .collect();
        let results = if blocks.len() <= 1 {
            blocks.iter().map(run_block).collect()
        } else {
            parallel_map(&blocks, run_block)
        };
        for (block_resolved, bstats) in results {
            for (t, summary) in block_resolved {
                out[t] = Some(summary);
            }
            stats.merge(bstats);
        }
    }

    (
        out.into_iter()
            .map(|s| s.expect("every tap is resolved"))
            .collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_summary_with_faults;
    use dcs_workload::yahoo_trace;

    fn scenario() -> Scenario {
        let spec = DataCenterSpec::paper_default().with_scale(2, 50);
        let config = ControllerConfig::default();
        let trace = yahoo_trace::with_burst(3, 2.8, Seconds::from_minutes(4.0));
        Scenario::new(spec, config, trace)
    }

    fn grid_subset(scenario: &Scenario) -> Vec<Ratio> {
        crate::oracle::degree_grid(scenario.spec())
            .into_iter()
            .step_by(7)
            .collect()
    }

    #[test]
    fn batch_matches_independent_runs_fault_free() {
        let s = scenario();
        let bounds = grid_subset(&s);
        let batch = run_bound_batch(&s, &bounds, &FaultSchedule::NONE);
        assert_eq!(batch.summaries.len(), bounds.len());
        for (&bound, got) in bounds.iter().zip(&batch.summaries) {
            let want =
                run_summary_with_faults(&s, Box::new(FixedBound::new(bound)), &FaultSchedule::NONE);
            assert_eq!(*got, want, "bound {}", bound.as_f64());
        }
    }

    #[test]
    fn batch_matches_independent_runs_under_faults() {
        let s = scenario();
        let bounds = grid_subset(&s);
        for seed in [1u64, 9, 23] {
            let faults = FaultSchedule::random(seed, s.trace().duration());
            let batch = run_bound_batch(&s, &bounds, &faults);
            for (&bound, got) in bounds.iter().zip(&batch.summaries) {
                let want = run_summary_with_faults(&s, Box::new(FixedBound::new(bound)), &faults);
                assert_eq!(*got, want, "seed {seed} bound {}", bound.as_f64());
            }
        }
    }

    #[test]
    fn quiet_trace_collapses_to_one_lane() {
        let spec = DataCenterSpec::paper_default().with_scale(2, 50);
        let config = ControllerConfig::default();
        let trace = yahoo_trace::baseline(5);
        let s = Scenario::new(spec, config, trace);
        let bounds = grid_subset(&s);
        let batch = run_bound_batch(&s, &bounds, &FaultSchedule::NONE);
        assert_eq!(batch.stats.unique_lanes, 1);
        assert!(batch.stats.folded_lane_steps > 0, "quiet tail must fold");
        for (&bound, got) in bounds.iter().zip(&batch.summaries) {
            let want =
                run_summary_with_faults(&s, Box::new(FixedBound::new(bound)), &FaultSchedule::NONE);
            assert_eq!(*got, want, "bound {}", bound.as_f64());
        }
    }

    #[test]
    fn tapped_batch_matches_independent_runs_per_tail() {
        let spec = DataCenterSpec::paper_default().with_scale(2, 50);
        let config = ControllerConfig::default();
        let degree = 2.6;
        let tails: Vec<Trace> = [2.0, 5.0]
            .iter()
            .map(|&m| yahoo_trace::with_burst(0, degree, Seconds::from_minutes(m)))
            .collect();
        let master = tails.last().expect("two tails").clone();
        let bounds: Vec<Ratio> = [1.5, 2.5, 3.5].iter().map(|&b| Ratio::new(b)).collect();
        let mut taps = Vec::new();
        for tail in &tails {
            let at = master
                .samples()
                .iter()
                .zip(tail.samples())
                .position(|(a, b)| a != b)
                .unwrap_or(tail.len().min(master.len()));
            for lane in 0..bounds.len() {
                taps.push(LaneTap { lane, at, tail });
            }
        }
        let (summaries, stats) = run_bound_batch_tapped(&spec, &config, &master, &bounds, &taps);
        assert!(stats.live_lane_steps > 0);
        for (tap, got) in taps.iter().zip(&summaries) {
            let s = Scenario::new(spec.clone(), config.clone(), tap.tail.clone());
            let want = run_summary_with_faults(
                &s,
                Box::new(FixedBound::new(bounds[tap.lane])),
                &FaultSchedule::NONE,
            );
            assert_eq!(
                *got,
                want,
                "tail len {} bound {}",
                tap.tail.len(),
                bounds[tap.lane].as_f64()
            );
        }
    }
}
