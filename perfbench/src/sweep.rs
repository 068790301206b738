//! The `plan-sweep` workload: a Fig. 10-style planning sweep through the
//! `dcs-sim` planner, with no service layer in the loop.
//!
//! One sweep builds the upper-bound table over the 5 × 4 (duration ×
//! degree) grid, then runs no-sprint, Greedy, Oracle, Prediction (from
//! that table) and Heuristic on every Yahoo burst of a degree × duration
//! grid and on the MS trace, each fault-free and under one seeded
//! `FaultSchedule::random`. Scenarios are spread over at most two
//! workers.

use std::time::Instant;

use dcs_core::{ControllerConfig, FixedBound, Greedy, Heuristic, Prediction, UpperBoundTable};
use dcs_faults::FaultSchedule;
use dcs_power::DataCenterSpec;
use dcs_sim::{
    build_upper_bound_table_stats, fingerprint_of, fnv1a64, oracle_search_stats, parallel_map,
    run_summary_with_faults, with_worker_budget, BatchStats, OracleMode, Scenario, SimSummary,
};
use dcs_units::{Ratio, Seconds};
use dcs_workload::{ms_trace, yahoo_trace, Estimate, Trace};

use crate::spans::Tracer;

/// Table axes: burst durations (minutes) × burst degrees.
pub const TABLE_DURATIONS: [f64; 5] = [1.0, 5.0, 10.0, 15.0, 30.0];
/// See [`TABLE_DURATIONS`].
pub const TABLE_DEGREES: [f64; 4] = [1.5, 2.0, 3.0, 4.0];
/// The Yahoo bursts the sweep plans for (Fig. 10's degree axis).
const BURST_DEGREES: [f64; 6] = [2.6, 2.8, 3.0, 3.2, 3.4, 3.6];
/// Fig. 10's two burst-duration panels, in minutes.
const BURST_MINUTES: [f64; 2] = [5.0, 15.0];
/// Strategies run per scenario.
pub const STRATEGIES: u64 = 5;

/// The seed whose full-sweep digest is pinned below.
pub const REFERENCE_SEED: u64 = 1;
/// Digest of the upper-bound table (its inputs do not depend on the seed).
pub const PINNED_TABLE_DIGEST: u64 = 0xb680_3ba3_8ad7_2fe4;
/// Digest of a whole sweep at [`REFERENCE_SEED`]: every `SimSummary`,
/// table cell and Oracle `best_bound`.
pub const PINNED_SWEEP_DIGEST: u64 = 0xbb9f_a17c_d098_4a26;

/// One planning scenario: a trace on the paper-scale facility, with or
/// without an injected fault schedule.
pub struct Item {
    /// Spec + config + trace.
    pub scenario: Scenario,
    /// Injected faults ([`FaultSchedule::none`] for the fault-free twin).
    pub faults: FaultSchedule,
    /// The burst duration Prediction is told (seconds, exact estimate).
    pub burst_secs: f64,
}

/// Everything a sweep needs, built from the seed during set-up.
pub struct Inputs {
    /// The paper-scale facility (4 PDUs × 200 servers).
    pub spec: DataCenterSpec,
    /// The paper's controller configuration.
    pub config: ControllerConfig,
    /// The scenarios, fault-free and faulted twins adjacent.
    pub items: Vec<Item>,
}

/// Builds the sweep's scenarios from `seed`; also returns the time spent
/// generating traces.
#[must_use]
pub fn build_inputs(seed: u64) -> (Inputs, f64) {
    let spec = DataCenterSpec::paper_default().with_scale(4, 200);
    let config = ControllerConfig::default();
    let t0 = Instant::now();
    let mut traces: Vec<(Trace, f64)> = Vec::new();
    for (k, &minutes) in BURST_MINUTES.iter().enumerate() {
        for (j, &degree) in BURST_DEGREES.iter().enumerate() {
            let trace_seed = seed.wrapping_mul(31).wrapping_add((k * 8 + j) as u64);
            traces.push((
                yahoo_trace::with_burst(trace_seed, degree, Seconds::from_minutes(minutes)),
                minutes * 60.0,
            ));
        }
    }
    traces.push((ms_trace::generate(seed), ms_trace::time_above().as_secs()));
    let trace_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut items = Vec::with_capacity(traces.len() * 2);
    for (k, (trace, burst_secs)) in traces.into_iter().enumerate() {
        let faults = FaultSchedule::random(seed ^ (0x9E37_79B9 + k as u64), trace.duration());
        let scenario = Scenario::new(spec.clone(), config.clone(), trace);
        items.push(Item {
            scenario: scenario.clone(),
            faults: FaultSchedule::none(),
            burst_secs,
        });
        items.push(Item {
            scenario,
            faults,
            burst_secs,
        });
    }
    (
        Inputs {
            spec,
            config,
            items,
        },
        trace_ms,
    )
}

/// Work counters summed over one sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Controller steps taken by the runner calls.
    pub runner_steps: u64,
    /// Candidate bounds the Oracle searches evaluated.
    pub oracle_tried: u64,
    /// Candidate-bound evaluations of the table build.
    pub table_evaluations: u64,
    /// Lane-step accounting of the Oracle searches and the table build.
    pub batch: BatchStats,
}

/// The outcome of one sweep.
pub struct SweepOut {
    /// Digest of every result.
    pub digest: u64,
    /// Digest of the table alone.
    pub table_digest: u64,
    /// The table the Prediction runs read.
    pub table: UpperBoundTable,
    /// Host ns of each scenario run.
    pub scenario_ns: Vec<f64>,
    /// Host ns of the table build.
    pub table_ns: f64,
    /// Host ns of the whole sweep.
    pub total_ns: f64,
    /// Work counters.
    pub counts: Counts,
}

impl SweepOut {
    /// Scenario runs completed.
    #[must_use]
    pub fn scenarios(&self) -> u64 {
        self.scenario_ns.len() as u64
    }
}

/// One item's results.
struct ItemOut {
    digest: u64,
    ns: Vec<f64>,
    counts: Counts,
}

fn fold(parts: &[u64]) -> u64 {
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Runs one sweep on at most `workers` threads. Spans (when `tracer` is
/// on) are tagged with request id `req`.
#[must_use]
pub fn sweep(inputs: &Inputs, workers: usize, tracer: &Tracer, req: u64) -> SweepOut {
    let t0 = Instant::now();
    tracer.span("sweep", None, req, |root| {
        let tt = Instant::now();
        let (table, table_stats) = tracer.span("table_builder", root, req, |_| {
            build_upper_bound_table_stats(
                &inputs.spec,
                &inputs.config,
                &TABLE_DURATIONS,
                &TABLE_DEGREES,
                OracleMode::Pruned,
            )
        });
        let table_ns = tt.elapsed().as_nanos() as f64;
        let items = with_worker_budget(workers, || {
            parallel_map(&inputs.items, |item| {
                run_item(item, &table, tracer, root, req)
            })
        });
        let table_digest = fingerprint_of(&table);
        let mut counts = Counts {
            table_evaluations: table_stats.evaluations as u64,
            batch: table_stats.batch,
            ..Counts::default()
        };
        let mut parts = vec![table_digest];
        let mut scenario_ns = Vec::with_capacity(items.len() * STRATEGIES as usize);
        for item in items {
            parts.push(item.digest);
            scenario_ns.extend(item.ns);
            counts.runner_steps += item.counts.runner_steps;
            counts.oracle_tried += item.counts.oracle_tried;
            counts.batch.merge(item.counts.batch);
        }
        SweepOut {
            digest: fold(&parts),
            table_digest,
            table,
            scenario_ns,
            table_ns,
            total_ns: t0.elapsed().as_nanos() as f64,
            counts,
        }
    })
}

/// Runs the five strategies on one scenario.
fn run_item(
    item: &Item,
    table: &UpperBoundTable,
    tracer: &Tracer,
    parent: Option<u32>,
    req: u64,
) -> ItemOut {
    let mut ns = Vec::with_capacity(STRATEGIES as usize);
    let mut counts = Counts::default();
    let mut parts = Vec::with_capacity(8);
    let mut runner = |strategy: Box<dyn dcs_core::SprintStrategy>| -> SimSummary {
        let t = Instant::now();
        let summary = tracer.span("runner", parent, req, |_| {
            run_summary_with_faults(&item.scenario, strategy, &item.faults)
        });
        ns.push(t.elapsed().as_nanos() as f64);
        counts.runner_steps += summary.steps as u64;
        summary
    };
    parts.push(fingerprint_of(&runner(Box::new(FixedBound::new(
        Ratio::ONE,
    )))));
    parts.push(fingerprint_of(&runner(Box::new(Greedy))));
    parts.push(fingerprint_of(&runner(Box::new(Prediction::new(
        Estimate::exact(item.burst_secs),
        table.clone(),
    )))));

    let t = Instant::now();
    let (oracle, stats) = tracer.span("oracle", parent, req, |_| {
        oracle_search_stats(&item.scenario, &item.faults, OracleMode::Pruned)
    });
    let oracle_ns = t.elapsed().as_nanos() as f64;
    let degree = oracle.best.average_sprint_degree();
    parts.push(oracle.best_bound.as_f64().to_bits());
    parts.push(fingerprint_of(&oracle.best.summarize()));
    parts.push(fingerprint_of(&oracle.tried));

    parts.push(fingerprint_of(&runner(Box::new(
        Heuristic::with_paper_flexibility(Estimate::exact(degree)),
    ))));
    ns.push(oracle_ns);
    counts.oracle_tried += oracle.tried.len() as u64;
    counts.batch.merge(stats);
    ItemOut {
        digest: fold(&parts),
        ns,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let (a, _) = build_inputs(5);
        let (b, _) = build_inputs(5);
        let (c, _) = build_inputs(6);
        let key = |i: &Inputs| {
            i.items
                .iter()
                .map(|it| (fingerprint_of(&it.scenario), fingerprint_of(&it.faults)))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(
            a.items.len(),
            2 * (BURST_DEGREES.len() * BURST_MINUTES.len() + 1)
        );
    }

    #[test]
    fn digest_is_invariant_under_worker_budgets_one_and_two() {
        // A cut-down sweep keeps the test quick: three scenarios.
        let (mut inputs, _) = build_inputs(3);
        inputs.items.truncate(3);
        let off = Tracer::new(false);
        let one = sweep(&inputs, 1, &off, 0);
        let two = sweep(&inputs, 2, &off, 0);
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.scenarios(), 3 * STRATEGIES);
        assert_eq!(one.counts.runner_steps, two.counts.runner_steps);
    }
}
