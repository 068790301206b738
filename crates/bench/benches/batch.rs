//! Batched multi-lane engine benchmarks: the whole sprint-bound grid in
//! one trace pass versus the same grid as independent runs, plus the two
//! batched consumers (Oracle search and table build).

use criterion::{criterion_group, criterion_main, Criterion};
use dcs_core::{ControllerConfig, FixedBound};
use dcs_faults::FaultSchedule;
use dcs_sim::{
    build_upper_bound_table_stats, build_upper_bound_table_unbatched, degree_grid,
    oracle_search_stats, oracle_search_unbatched, run_bound_batch, run_summary_with_faults,
    OracleMode, Scenario,
};
use dcs_units::Seconds;
use dcs_workload::yahoo_trace;

fn scenario() -> Scenario {
    Scenario::new(
        dcs_power::DataCenterSpec::paper_default().with_scale(4, 200),
        ControllerConfig::default(),
        yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)),
    )
}

fn bench_grid_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    let s = scenario();
    let grid = degree_grid(s.spec());
    let faults = FaultSchedule::none();
    group.bench_function("grid_batched", |b| {
        b.iter(|| run_bound_batch(&s, &grid, &faults))
    });
    group.bench_function("grid_independent", |b| {
        b.iter(|| {
            grid.iter()
                .map(|&bound| {
                    run_summary_with_faults(&s, Box::new(FixedBound::new(bound)), &faults)
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn bench_batched_consumers(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_consumers");
    group.sample_size(10);
    let s = scenario();
    let faults = FaultSchedule::none();
    group.bench_function("oracle_pruned_batched", |b| {
        b.iter(|| oracle_search_stats(&s, &faults, OracleMode::Pruned))
    });
    group.bench_function("oracle_pruned_unbatched", |b| {
        b.iter(|| oracle_search_unbatched(&s, &faults, OracleMode::Pruned))
    });
    let spec = s.spec().clone();
    let config = ControllerConfig::default();
    let durations = [1.0, 5.0, 10.0, 15.0, 30.0];
    let degrees = [1.5, 2.0, 3.0, 4.0];
    group.bench_function("table_pruned_batched", |b| {
        b.iter(|| {
            build_upper_bound_table_stats(&spec, &config, &durations, &degrees, OracleMode::Pruned)
        })
    });
    group.bench_function("table_pruned_unbatched", |b| {
        b.iter(|| {
            build_upper_bound_table_unbatched(
                &spec,
                &config,
                &durations,
                &degrees,
                OracleMode::Pruned,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_grid_pass, bench_batched_consumers);
criterion_main!(benches);
