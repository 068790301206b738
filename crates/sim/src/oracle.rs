//! The Oracle strategy: search over constant degree bounds.

use crate::batch::{run_bound_batch, BatchStats};
use crate::checkpoint::{fingerprint_of, fnv1a64, CheckpointStore};
use crate::error::SimError;
use crate::supervisor::Supervisor;
use crate::{parallel_map, run_summary_with_faults, run_with_faults, Scenario, SimResult};
use dcs_core::FixedBound;
use dcs_faults::{FaultKind, FaultSchedule};
use dcs_units::Ratio;
use dcs_workload::Trace;
use serde::{Deserialize, Serialize};

/// The outcome of an Oracle search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleOutcome {
    /// The best constant upper bound found.
    pub best_bound: Ratio,
    /// The run under the best bound.
    pub best: SimResult,
    /// Every `(bound, average served demand)` pair *evaluated*, in
    /// ascending bound order. [`OracleMode::Exhaustive`] evaluates the
    /// whole grid; [`OracleMode::Pruned`] populates only the points its
    /// search visited (always including the maximum bound).
    pub tried: Vec<(f64, f64)>,
}

/// How the Oracle explores the degree grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OracleMode {
    /// Prune the grid before running: bounds too loose to ever bind are
    /// collapsed into one representative, and the remaining profile —
    /// empirically unimodal in the bound — is scanned coarse-to-fine with
    /// lean ([`crate::run_summary_with_faults`]) runs. Produces the same
    /// `best_bound` as [`OracleMode::Exhaustive`] whenever the profile is
    /// unimodal (plateaus included), at a fraction of the simulated work.
    #[default]
    Pruned,
    /// The historical exhaustive scan: every grid point evaluated. The
    /// explicit fallback if a scenario's performance-vs-bound profile is
    /// ever *not* unimodal.
    Exhaustive,
}

/// Returns the sprinting-degree grid the Oracle searches: one point per
/// whole core from the normal count to the full chip (§V-A: the degree "is
/// discrete with a fine granularity — each core can be individually powered
/// on or off").
#[must_use]
pub fn degree_grid(spec: &dcs_power::DataCenterSpec) -> Vec<Ratio> {
    let server = spec.server();
    (server.normal_cores()..=server.chip().cores())
        .map(|cores| server.degree_of_cores(cores))
        .collect()
}

/// Runs the Oracle strategy: finds the constant [`FixedBound`] with the
/// best average performance over the degree grid, using the default
/// [`OracleMode::Pruned`] search.
///
/// This is §V-A's *"finds the optimal upper bound by exhaustive search,
/// with the assumption that the burst degree and burst duration can be
/// perfectly predicted"* — impractical online, but the reference the other
/// strategies are compared against.
///
/// # Panics
///
/// Panics if the degree grid is empty (impossible for a valid spec).
#[must_use]
pub fn oracle_search(scenario: &Scenario) -> OracleOutcome {
    oracle_search_stats(scenario, &FaultSchedule::NONE, OracleMode::Pruned).0
}

/// Runs the Oracle search with an explicit fault schedule and search mode,
/// returning the outcome plus the batch work counters (lane-steps run
/// live versus folded by early retirement).
///
/// Both modes submit their candidate bounds as one
/// [`run_bound_batch`] per evaluation wave — a single pass over the trace
/// advances every lane — and finish with one full-telemetry run of the
/// winner. Results are bit-identical to [`oracle_search_unbatched`].
///
/// # Panics
///
/// Panics if the degree grid is empty (impossible for a valid spec), or
/// if an evaluation panics.
#[must_use]
pub fn oracle_search_stats(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> (OracleOutcome, BatchStats) {
    search(scenario, faults, mode, &Supervisor::new(), None).unwrap_or_else(|e| panic!("{e}"))
}

/// Checkpoint payload for a resumable Oracle search: every evaluated
/// candidate position with its value (stored as raw `f64` bits for
/// bit-exact resume) plus the accumulated batch counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OracleCkpt {
    /// `(candidate position, average-performance f64 bits)` pairs.
    values: Vec<(u64, u64)>,
    /// Batch counters accumulated over the evaluated waves.
    stats: BatchStats,
}

/// Opens (or reopens) a checkpoint store for a resumable Oracle search
/// over these exact inputs. The store's fingerprint covers the scenario,
/// fault schedule, and mode, so resuming against a directory written for
/// different inputs is rejected instead of producing a silently wrong
/// answer.
pub fn oracle_checkpoint_store(
    dir: impl Into<std::path::PathBuf>,
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> Result<CheckpointStore, SimError> {
    let fp = fnv1a64(
        format!(
            "{:016x}:{:016x}:{:016x}",
            fingerprint_of(scenario),
            fingerprint_of(faults),
            fingerprint_of(&mode)
        )
        .as_bytes(),
    );
    CheckpointStore::open(dir, "oracle", fp)
}

/// [`oracle_search_stats`] with supervised, checkpointed execution: each
/// evaluation wave and the final run execute under the supervisor's panic
/// isolation and retry policy (chaos items 0 and 1 are the waves, item 2
/// the final run), and a snapshot of every completed value is written
/// atomically after each wave. Killed at any snapshot boundary (or
/// resumed from a prior run's directory via the same `store`), the search
/// continues from the last intact snapshot and returns an
/// [`OracleOutcome`] bit-identical to [`oracle_search_stats`].
///
/// The returned [`BatchStats`] equal [`oracle_search_stats`]'s: a resume
/// restores the counters of the waves its snapshot holds.
pub fn oracle_search_resumable(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
    supervisor: &Supervisor,
    store: &mut CheckpointStore,
) -> Result<(OracleOutcome, BatchStats), SimError> {
    search(scenario, faults, mode, supervisor, Some(store))
}

/// The one Oracle driver: evaluates the mode's waves as batched passes
/// under `supervisor`, snapshotting after each wave when a `store` is
/// given (and resuming from its latest snapshot), then runs the winner.
fn search(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
    supervisor: &Supervisor,
    mut store: Option<&mut CheckpointStore>,
) -> Result<(OracleOutcome, BatchStats), SimError> {
    // Both modes reduce to "evaluate candidate bounds at these positions,
    // then select": the pruned mode evaluates its plan's waves, the
    // exhaustive mode the whole grid.
    let plan = match mode {
        OracleMode::Pruned => scan_plan(scenario.spec(), scenario.trace(), faults),
        OracleMode::Exhaustive => {
            let grid = degree_grid(scenario.spec());
            let candidates = (0..grid.len()).collect();
            ScanPlan { grid, candidates }
        }
    };
    if plan.len() == 0 {
        return Err(SimError::config("degree grid is empty"));
    }
    let mut values: Vec<Option<f64>> = (0..plan.len()).map(|_| None).collect();
    let mut stats = BatchStats::default();
    if let Some(store) = store.as_deref() {
        if let Some(loaded) = store.load_latest::<OracleCkpt>()? {
            for &(p, bits) in &loaded.payload.values {
                let p = p as usize;
                if p >= values.len() {
                    return Err(SimError::checkpoint(
                        store.dir().display().to_string(),
                        format!("snapshot position {p} exceeds plan size {}", values.len()),
                    ));
                }
                values[p] = Some(f64::from_bits(bits));
            }
            stats = loaded.payload.stats;
        }
    }

    for wave in 0..2 {
        let positions: Vec<usize> = match (mode, wave) {
            // Exhaustive means exhaustive: every grid position, once.
            (OracleMode::Exhaustive, 0) => (0..plan.len()).collect(),
            (OracleMode::Exhaustive, _) => Vec::new(),
            // The pruned search's coarse wave, then its refinement window.
            (OracleMode::Pruned, 0) => plan.first_positions(),
            (OracleMode::Pruned, _) => plan.window_positions(&values),
        };
        let pending: Vec<usize> = positions
            .into_iter()
            .filter(|&p| values[p].is_none())
            .collect();
        if pending.is_empty() {
            continue;
        }
        let bounds: Vec<Ratio> = pending.iter().map(|&p| plan.bound(p)).collect();
        let batch = supervisor.call(wave, || run_bound_batch(scenario, &bounds, faults))?;
        stats.merge(batch.stats);
        for (&p, s) in pending.iter().zip(&batch.summaries) {
            values[p] = Some(s.average_performance());
        }
        if let Some(store) = store.as_deref_mut() {
            store.save(&OracleCkpt {
                values: values
                    .iter()
                    .enumerate()
                    .filter_map(|(p, v)| v.map(|v| (p as u64, v.to_bits())))
                    .collect(),
                stats,
            })?;
        }
    }
    let (best_bound, tried) = plan.select(&values);
    // Item 2: the waves were items 0 and 1.
    let mut best = supervisor.call(2, || {
        run_with_faults(scenario, Box::new(FixedBound::new(best_bound)), faults)
    })?;
    best.strategy = "Oracle".into();
    Ok((
        OracleOutcome {
            best_bound,
            best,
            tried,
        },
        stats,
    ))
}

/// The pre-batching reference implementation: every evaluation is an
/// independent run. Kept (and exercised by the `bench` binary and the
/// equivalence suite) as the ground truth the batched search must match
/// bit-for-bit.
///
/// # Panics
///
/// Panics if the degree grid is empty (impossible for a valid spec).
#[must_use]
pub fn oracle_search_unbatched(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> OracleOutcome {
    match mode {
        OracleMode::Exhaustive => {
            let grid = degree_grid(scenario.spec());
            let results = parallel_map(&grid, |&bound| {
                let result = run_with_faults(scenario, Box::new(FixedBound::new(bound)), faults);
                (bound, result)
            });
            let tried: Vec<(f64, f64)> = results
                .iter()
                .map(|(b, r)| (b.as_f64(), r.average_performance()))
                .collect();
            let (best_bound, mut best) = results
                .into_iter()
                .max_by(|(_, a), (_, b)| {
                    a.average_performance().total_cmp(&b.average_performance())
                })
                .expect("degree grid is never empty");
            best.strategy = "Oracle".into();
            OracleOutcome {
                best_bound,
                best,
                tried,
            }
        }
        OracleMode::Pruned => {
            let (best_bound, tried) = pruned_scan(scenario, faults);
            let mut best = run_with_faults(scenario, Box::new(FixedBound::new(best_bound)), faults);
            best.strategy = "Oracle".into();
            OracleOutcome {
                best_bound,
                best,
                tried,
            }
        }
    }
}

/// Index of the last maximum of an iterator of values (`max_by` with
/// `total_cmp` keeps the last of ties; the pruned scan does the same).
pub(crate) fn last_argmax(values: impl Iterator<Item = f64>) -> usize {
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, v) in values.enumerate() {
        if v.total_cmp(&best_val).is_ge() {
            best = i;
            best_val = v;
        }
    }
    best
}

/// Bounds at or below this many effective grid points are all evaluated:
/// the coarse-to-fine machinery only pays off on larger grids.
pub(crate) const EXHAUST_BELOW: usize = 8;

/// The pruned scan's candidate set and schedule, split from the evaluation
/// driver so the same plan can be fed by independent runs (the reference
/// path) or by batched lanes (including the table builder's tapped
/// columns).
///
/// Two prunes are applied, both *exact* under stated assumptions:
///
/// 1. **Saturation.** A bound whose core count is at least the cores
///    needed for the largest demand the controller can ever *observe*
///    (max trace demand plus the worst ±3σ sensor-noise excursion in the
///    fault schedule) never binds, so all such bounds produce identical
///    runs. Only the largest is evaluated, as the representative — which
///    also preserves the exhaustive scan's last-of-ties selection.
/// 2. **Unimodality.** The performance-vs-bound profile is empirically
///    unimodal (tight bounds under-sprint, loose bounds over-drain the
///    stores; plateaus occur where a whole range of bounds acts
///    identically). A stride-√m coarse scan plus a full scan of the
///    window around the coarse winner finds the *last* grid argmax of any
///    unimodal-with-plateaus profile: the true argmax plateau always ends
///    strictly inside the refined window.
pub(crate) struct ScanPlan {
    grid: Vec<Ratio>,
    candidates: Vec<usize>,
}

impl ScanPlan {
    /// Number of candidate positions after saturation pruning.
    pub(crate) fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The bound at candidate position `p`.
    pub(crate) fn bound(&self, p: usize) -> Ratio {
        self.grid[self.candidates[p]]
    }

    /// The first evaluation wave: every position on small grids, the
    /// stride-√m coarse set (always including the last position) on large
    /// ones.
    pub(crate) fn first_positions(&self) -> Vec<usize> {
        let m = self.len();
        if m <= EXHAUST_BELOW {
            (0..m).collect()
        } else {
            let stride = (m as f64).sqrt().ceil() as usize;
            let mut coarse: Vec<usize> = (0..m).step_by(stride).collect();
            if *coarse.last().expect("m > 0") != m - 1 {
                coarse.push(m - 1);
            }
            coarse
        }
    }

    /// The *last* argmax among the coarse positions — the center the
    /// refinement window (or the table builder's walk) grows around.
    /// Preserves last-of-ties selection.
    pub(crate) fn pivot(&self, values: &[Option<f64>]) -> usize {
        let coarse = self.first_positions();
        let mut pivot = coarse[0];
        let mut pivot_val = f64::NEG_INFINITY;
        for &p in &coarse {
            let v = values[p].expect("coarse point evaluated");
            if v.total_cmp(&pivot_val).is_ge() {
                pivot = p;
                pivot_val = v;
            }
        }
        pivot
    }

    /// The second evaluation wave given the first wave's values: the
    /// not-yet-evaluated positions in the window around the last coarse
    /// argmax. Empty when the first wave already covered everything.
    pub(crate) fn window_positions(&self, values: &[Option<f64>]) -> Vec<usize> {
        let m = self.len();
        if m <= EXHAUST_BELOW {
            return Vec::new();
        }
        let stride = (m as f64).sqrt().ceil() as usize;
        let pivot = self.pivot(values);
        // Under unimodality the argmax plateau ends strictly between the
        // coarse neighbors of the pivot: scan that window exhaustively.
        let lo = pivot.saturating_sub(stride - 1);
        let hi = (pivot + stride - 1).min(m - 1);
        (lo..=hi).filter(|&p| values[p].is_none()).collect()
    }

    /// Final selection: the last argmax over everything evaluated
    /// (positions ascend with the bound, so this matches `max_by`'s
    /// last-of-ties result), plus the `tried` pairs in ascending order.
    pub(crate) fn select(&self, values: &[Option<f64>]) -> (Ratio, Vec<(f64, f64)>) {
        let mut tried = Vec::new();
        for (p, value) in values.iter().enumerate() {
            if let Some(v) = *value {
                tried.push((self.bound(p).as_f64(), v));
            }
        }
        (self.bound(self.select_pos(values)), tried)
    }

    /// The selected candidate *position* (last argmax over everything
    /// evaluated).
    pub(crate) fn select_pos(&self, values: &[Option<f64>]) -> usize {
        let mut best_pos = 0;
        let mut best_val = f64::NEG_INFINITY;
        for (p, value) in values.iter().enumerate() {
            if let Some(v) = *value {
                if v.total_cmp(&best_val).is_ge() {
                    best_pos = p;
                    best_val = v;
                }
            }
        }
        best_pos
    }
}

/// Builds the pruned scan's candidate plan for a trace under a fault
/// schedule.
pub(crate) fn scan_plan(
    spec: &dcs_power::DataCenterSpec,
    trace: &Trace,
    faults: &FaultSchedule,
) -> ScanPlan {
    let server = spec.server();
    let grid = degree_grid(spec);
    let n = grid.len();
    assert!(n > 0, "degree grid is never empty");
    let normal = server.normal_cores();
    let max_demand = trace.iter().map(|(_, d)| d).fold(0.0_f64, f64::max);
    let max_sigma = faults
        .events()
        .iter()
        .map(|e| match e.kind {
            FaultKind::SensorNoise { demand_sigma, .. } => demand_sigma,
            _ => 0.0,
        })
        .fold(0.0_f64, f64::max);
    // Sensor noise is truncated at ±3σ, so no observed demand can exceed
    // this cap (stale telemetry only replays past observations).
    let observed_cap = max_demand + 3.0 * max_sigma;
    let saturating_cores = server.cores_for_demand(Ratio::new(observed_cap));
    let first_saturated = grid
        .iter()
        .position(|&b| server.cores_at_degree(b).max(normal) >= saturating_cores)
        .unwrap_or(n - 1);
    // Unsaturated bounds, plus the *last* grid point representing the
    // entire saturated tail.
    let mut candidates: Vec<usize> = (0..first_saturated).collect();
    candidates.push(n - 1);
    ScanPlan { grid, candidates }
}

/// The pruned Oracle scan, reference (unbatched) driver: returns the best
/// bound and the evaluated `(bound, average performance)` pairs, without
/// the final full-telemetry run (the table builder wants only the bound).
///
/// Evaluations use lean [`crate::run_summary_with_faults`] runs, whose
/// average performance is bit-identical to a full run's.
pub(crate) fn pruned_scan(scenario: &Scenario, faults: &FaultSchedule) -> (Ratio, Vec<(f64, f64)>) {
    let plan = scan_plan(scenario.spec(), scenario.trace(), faults);
    let mut values: Vec<Option<f64>> = (0..plan.len()).map(|_| None).collect();
    let evaluate = |positions: &[usize], values: &mut Vec<Option<f64>>| {
        let got = parallel_map(positions, |&p| {
            run_summary_with_faults(scenario, Box::new(FixedBound::new(plan.bound(p))), faults)
                .average_performance()
        });
        for (&p, v) in positions.iter().zip(got) {
            values[p] = Some(v);
        }
    };
    evaluate(&plan.first_positions(), &mut values);
    let window = plan.window_positions(&values);
    if !window.is_empty() {
        evaluate(&window, &mut values);
    }
    plan.select(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{ControllerConfig, Greedy};
    use dcs_power::DataCenterSpec;
    use dcs_units::Seconds;
    use dcs_workload::yahoo_trace;

    fn scenario(degree: f64, minutes: f64) -> Scenario {
        Scenario::new(
            DataCenterSpec::paper_default().with_scale(2, 200),
            ControllerConfig::default(),
            yahoo_trace::with_burst(1, degree, Seconds::from_minutes(minutes)),
        )
    }

    #[test]
    fn grid_covers_core_range() {
        let grid = degree_grid(&DataCenterSpec::paper_default());
        assert_eq!(grid.len(), 37);
        assert_eq!(grid[0], Ratio::ONE);
        assert_eq!(grid[36].as_f64(), 4.0);
    }

    #[test]
    fn oracle_at_least_matches_greedy() {
        // Greedy is one point in the Oracle's search space (the max bound),
        // so the Oracle can never do worse.
        for (degree, minutes) in [(3.0, 5.0), (3.2, 15.0)] {
            let s = scenario(degree, minutes);
            let oracle = oracle_search(&s);
            let greedy = crate::run(&s, Box::new(Greedy));
            assert!(
                oracle.best.average_performance() >= greedy.average_performance() - 1e-9,
                "oracle {} < greedy {} at ({degree}, {minutes})",
                oracle.best.average_performance(),
                greedy.average_performance()
            );
        }
    }

    #[test]
    fn oracle_constrains_long_bursts() {
        // On a long high burst the best bound is below the hardware max:
        // the paper's key observation about power efficiency.
        let outcome = oracle_search(&scenario(3.2, 15.0));
        assert!(
            outcome.best_bound.as_f64() < 4.0,
            "oracle picked {}",
            outcome.best_bound
        );
    }

    #[test]
    fn short_bursts_leave_bound_loose() {
        // On a short burst, stored energy is not binding: the best bound is
        // at (or effectively at) the maximum.
        let outcome = oracle_search(&scenario(3.0, 1.0));
        let max_perf = outcome.tried.iter().map(|(_, p)| *p).fold(0.0, f64::max);
        let greedy_perf = outcome.tried.last().unwrap().1;
        assert!((greedy_perf - max_perf).abs() < 1e-6);
    }

    #[test]
    fn exhaustive_tried_covers_whole_grid() {
        let outcome = oracle_search_stats(
            &scenario(2.6, 1.0),
            &FaultSchedule::NONE,
            OracleMode::Exhaustive,
        )
        .0;
        assert_eq!(outcome.tried.len(), 37);
        assert_eq!(outcome.best.strategy, "Oracle");
    }

    #[test]
    fn pruned_matches_exhaustive() {
        for (degree, minutes) in [(2.6, 1.0), (3.2, 15.0), (4.0, 30.0)] {
            let s = scenario(degree, minutes);
            let pruned = oracle_search(&s);
            let exhaustive =
                oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Exhaustive).0;
            assert_eq!(
                pruned.best_bound, exhaustive.best_bound,
                "best bound diverged at ({degree}, {minutes})"
            );
            assert_eq!(pruned.best, exhaustive.best);
            // Pruned evaluations are a subset of the exhaustive ones, with
            // identical values where both evaluated.
            assert!(pruned.tried.len() <= exhaustive.tried.len());
            for pair in &pruned.tried {
                assert!(
                    exhaustive.tried.contains(pair),
                    "pruned point {pair:?} not in exhaustive scan"
                );
            }
        }
    }

    #[test]
    fn batched_search_matches_unbatched_reference() {
        let s = scenario(3.0, 5.0);
        for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
            let batched = oracle_search_stats(&s, &FaultSchedule::NONE, mode).0;
            let reference = oracle_search_unbatched(&s, &FaultSchedule::NONE, mode);
            assert_eq!(batched, reference, "mode {mode:?}");
        }
        let faults = FaultSchedule::random(11, s.trace().duration());
        for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
            let batched = oracle_search_stats(&s, &faults, mode).0;
            let reference = oracle_search_unbatched(&s, &faults, mode);
            assert_eq!(batched, reference, "faulted mode {mode:?}");
        }
    }

    #[test]
    fn search_reports_lane_step_accounting() {
        let s = scenario(3.2, 5.0);
        let (outcome, stats) = oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Pruned);
        assert!(!outcome.tried.is_empty());
        assert!(stats.lanes >= outcome.tried.len());
        assert!(stats.live_lane_steps > 0);
        assert!(
            stats.folded_lane_steps > 0,
            "the post-burst tail should fold"
        );
    }

    #[test]
    fn pruned_evaluates_fewer_runs_on_long_bursts() {
        let outcome = oracle_search(&scenario(3.2, 15.0));
        assert!(
            outcome.tried.len() < 37,
            "pruned search evaluated the whole grid ({} points)",
            outcome.tried.len()
        );
        assert_eq!(outcome.best.strategy, "Oracle");
    }
}
