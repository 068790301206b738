//! Microbenchmarks of the sprinting controller.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcs_core::{ControllerConfig, Greedy, SprintController};
use dcs_power::DataCenterSpec;
use dcs_units::Seconds;

fn bench_controller_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller");
    for (label, pdus) in [("4_pdus", 4usize), ("64_pdus", 64)] {
        group.bench_function(format!("step_sprinting/{label}"), |b| {
            let spec = DataCenterSpec::paper_default().with_scale(pdus, 200);
            let config = ControllerConfig::default();
            let mut ctl = SprintController::new(&spec, &config, Box::new(Greedy));
            b.iter(|| ctl.step(black_box(2.5), Seconds::new(1.0)))
        });
    }
    group.finish();
}

fn bench_energy_budget(c: &mut Criterion) {
    let spec = DataCenterSpec::paper_default().with_scale(4, 200);
    let config = ControllerConfig::default();
    let ctl = SprintController::new(&spec, &config, Box::new(Greedy));
    c.bench_function("controller/total_energy_budget", |b| {
        b.iter(|| black_box(&ctl).facility().total_energy_budget())
    });
}

criterion_group!(benches, bench_controller_step, bench_energy_budget);
criterion_main!(benches);
