//! Cross-surface check: the live service's decision engine and the
//! simulator's controller make the same decisions.
//!
//! `dcs_service::Engine` is the state machine `sprintd` runs behind its
//! queue; `SprintController::step` is what the simulator drives. On the
//! same spec, controller config and demand stream — with no faults, where
//! the controller's sensor pipeline observes the true demand — the two
//! must produce bit-identical step records, including when the engine is
//! torn down mid-burst and rebuilt from its own checkpoint.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use datacenter_sprinting::core::{Greedy, Phase, SprintController, StepRecord};
use datacenter_sprinting::faults::ChaosSchedule;
use datacenter_sprinting::units::Seconds;
use dcs_service::{Engine, EngineReply, EngineRequest, Plant, ServiceConfig};
use proptest::prelude::*;

/// Quiet load, a long burst that sprints through the UPS and TES stores,
/// then quiet again; a little ripple keeps consecutive steps distinct.
fn demand_stream() -> Vec<f64> {
    (0..900)
        .map(|i| {
            let ripple = 0.05 * f64::from(i % 7);
            if (120..720).contains(&i) {
                2.4 + ripple
            } else {
                0.6 + ripple
            }
        })
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig::for_facility(4, 40)
}

fn controller_records(config: &ServiceConfig, demands: &[f64]) -> Vec<StepRecord> {
    let spec = config.spec();
    let controller = config.controller();
    let mut ctl = SprintController::new(&spec, &controller, Box::new(Greedy));
    let dt = Seconds::new(config.step_secs());
    demands.iter().map(|&demand| ctl.step(demand, dt)).collect()
}

fn engine_step(engine: &mut Engine<'_>, demand: f64) -> StepRecord {
    let request = EngineRequest::Step {
        demand,
        dt_secs: None,
        expect_index: None,
    };
    match engine.handle(request) {
        EngineReply::Step {
            result: Ok(outcome),
            stall_ms: 0,
        } => outcome.record,
        other => panic!("engine step answered {other:?}"),
    }
}

/// Bit-level equality: the JSON encoding round-trips every float exactly
/// and keeps the sign of zero.
fn assert_bit_identical(engine: &[StepRecord], controller: &[StepRecord]) {
    assert_eq!(engine.len(), controller.len());
    for (i, (e, c)) in engine.iter().zip(controller).enumerate() {
        assert_eq!(
            serde_json::to_string(e).unwrap(),
            serde_json::to_string(c).unwrap(),
            "step {i} diverged"
        );
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dcs-service-engine-{tag}-{}", std::process::id()))
}

#[test]
fn the_stream_sprints_through_every_phase() {
    let records = controller_records(&config(), &demand_stream());
    for phase in [Phase::CbOnly, Phase::Ups, Phase::Tes] {
        assert!(
            records.iter().any(|r| r.phase == phase),
            "the burst never reached {phase}"
        );
    }
    assert!(records.iter().all(|r| !r.tripped && !r.overheated));
}

#[test]
fn engine_matches_the_controller_step_for_step() {
    let config = config();
    let demands = demand_stream();
    let chaos = ChaosSchedule::none();
    let mut plant = Plant::open(Arc::new(config.clone()), None).unwrap();
    let mut engine = Engine::new(&mut plant, &chaos);
    let records: Vec<StepRecord> = demands
        .iter()
        .map(|&demand| engine_step(&mut engine, demand))
        .collect();
    assert_bit_identical(&records, &controller_records(&config, &demands));
}

/// Drives `demands` through a checkpointing engine that is drained, torn
/// down and rebuilt from `dir` at each of `cuts` (ascending, inside the
/// stream); each rebuild restores the newest snapshot.
fn rebuilt_engine_records(
    config: &Arc<ServiceConfig>,
    demands: &[f64],
    cuts: &[usize],
    dir: &Path,
) -> Vec<StepRecord> {
    let _ = std::fs::remove_dir_all(dir);
    let chaos = ChaosSchedule::none();
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(cuts.iter().copied())
        .chain(std::iter::once(demands.len()))
        .collect();
    let mut records = Vec::new();
    for span in bounds.windows(2) {
        let mut plant = Plant::open(config.clone(), Some(dir)).unwrap();
        let mut engine = Engine::new(&mut plant, &chaos);
        for &demand in &demands[span[0]..span[1]] {
            records.push(engine_step(&mut engine, demand));
        }
        assert!(matches!(
            engine.handle(EngineRequest::Drain),
            EngineReply::Drained
        ));
    }
    let _ = std::fs::remove_dir_all(dir);
    records
}

#[test]
fn engine_rebuilt_mid_burst_from_its_checkpoint_matches_the_controller() {
    let config = Arc::new(ServiceConfig {
        checkpoint_every: Some(16),
        ..config()
    });
    let demands = demand_stream();
    // Tear the engine down at a checkpoint boundary, between two, and
    // deep in the burst (the drain writes a snapshot when decisions are
    // pending).
    let records =
        rebuilt_engine_records(&config, &demands, &[130, 208, 455], &scratch_dir("rebuild"));
    assert_bit_identical(&records, &controller_records(&config, &demands));
}

#[test]
fn tagged_resends_replay_without_advancing_the_plant() {
    let config = config();
    let demands = demand_stream();
    let chaos = ChaosSchedule::none();
    let mut plant = Plant::open(Arc::new(config.clone()), None).unwrap();
    let mut engine = Engine::new(&mut plant, &chaos);
    let mut records = Vec::new();
    for (index, &demand) in (0u64..).zip(&demands) {
        let tagged = || EngineRequest::Step {
            demand,
            dt_secs: None,
            expect_index: Some(index),
        };
        let EngineReply::Step {
            result: Ok(first), ..
        } = engine.handle(tagged())
        else {
            panic!("tagged step {index} failed");
        };
        let EngineReply::Step {
            result: Ok(resent), ..
        } = engine.handle(tagged())
        else {
            panic!("resend of step {index} failed");
        };
        assert!(!first.replayed && resent.replayed, "step {index}");
        assert_eq!(first.decision_index, index);
        assert_eq!(resent.decision_index, index);
        assert_bit_identical(
            std::slice::from_ref(&resent.record),
            std::slice::from_ref(&first.record),
        );
        records.push(first.record);
    }
    // Had a resend advanced the plant, the stream would run ahead of the
    // controller's.
    assert_bit_identical(&records, &controller_records(&config, &demands));
}

#[test]
fn same_plant_reload_mid_burst_keeps_the_controllers_decisions() {
    let config = config();
    let demands = demand_stream();
    let chaos = ChaosSchedule::none();
    let mut plant = Plant::open(Arc::new(config.clone()), None).unwrap();
    let mut engine = Engine::new(&mut plant, &chaos);
    let mut records = Vec::new();
    for (i, &demand) in demands.iter().enumerate() {
        if i == 300 {
            // Runtime knobs only: the telemetry window, deadline and
            // checkpoint cadence change, the plant does not.
            let reload = ServiceConfig {
                window_steps: Some(8),
                deadline_ms: Some(900),
                checkpoint_every: Some(5),
                ..config.clone()
            };
            assert!(matches!(
                engine.handle(EngineRequest::Reload(Box::new(reload))),
                EngineReply::Reloaded { rebuilt: false }
            ));
        }
        records.push(engine_step(&mut engine, demand));
    }
    assert_bit_identical(&records, &controller_records(&config, &demands));
}

fn random_trace() -> impl Strategy<Value = Vec<f64>> {
    // Piecewise demand: a few segments, each a level in [0, 3.5] held
    // for up to 90 steps.
    prop::collection::vec((0.0..3.5f64, 5usize..90), 2..8).prop_map(|segments| {
        segments
            .into_iter()
            .flat_map(|(level, len)| std::iter::repeat_n(level, len))
            .collect()
    })
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On any fault-free demand stream, any checkpoint cadence and any
    /// cut point, the rebuilt engine decides as the controller does.
    #[test]
    fn engine_rebuilt_anywhere_matches_the_controller_on_random_demand(
        demands in random_trace(),
        checkpoint_every in 1u64..40,
        cut_fraction in 0.0..1.0f64,
    ) {
        let config = Arc::new(ServiceConfig {
            checkpoint_every: Some(checkpoint_every),
            ..config()
        });
        let cut = (cut_fraction * demands.len() as f64) as usize;
        let dir = scratch_dir(&format!("random-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let records = rebuilt_engine_records(&config, &demands, &[cut], &dir);
        assert_bit_identical(&records, &controller_records(&config, &demands));
    }
}
