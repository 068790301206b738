//! End-to-end simulation benchmarks: one full 30-minute scenario per
//! iteration (the unit of work behind every figure).

use criterion::{criterion_group, criterion_main, Criterion};
use dcs_core::{ControllerConfig, Greedy};
use dcs_faults::FaultSchedule;
use dcs_sim::{
    oracle_search, oracle_search_stats, run, run_summary_with_faults, run_uncontrolled, OracleMode,
    Scenario, UncontrolledMode,
};
use dcs_units::Seconds;
use dcs_workload::{ms_trace, yahoo_trace};

fn scenario() -> Scenario {
    Scenario::new(
        dcs_power::DataCenterSpec::paper_default().with_scale(4, 200),
        ControllerConfig::default(),
        ms_trace::paper_default(),
    )
}

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let s = scenario();
    group.bench_function("ms_trace_greedy_30min", |b| {
        b.iter(|| run(&s, Box::new(Greedy)))
    });
    group.bench_function("ms_trace_uncontrolled_30min", |b| {
        b.iter(|| run_uncontrolled(&s, UncontrolledMode::RunToTrip))
    });
    let yahoo = s.with_trace(yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)));
    group.bench_function("yahoo_burst_greedy_30min", |b| {
        b.iter(|| run(&yahoo, Box::new(Greedy)))
    });
    group.bench_function("yahoo_burst_greedy_30min_lean", |b| {
        b.iter(|| run_summary_with_faults(&yahoo, Box::new(Greedy), &FaultSchedule::NONE))
    });
    group.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    let s = scenario().with_trace(yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)));
    group.bench_function("search_exhaustive", |b| {
        b.iter(|| oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Exhaustive).0)
    });
    group.bench_function("search_pruned", |b| b.iter(|| oracle_search(&s)));
    group.finish();
}

criterion_group!(benches, bench_full_runs, bench_oracle);
criterion_main!(benches);
