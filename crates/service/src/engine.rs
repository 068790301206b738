//! The decision engine: the service's state machine as a plain value.
//!
//! An [`Engine`] owns the plant (`FacilityState` + `SprintPolicy` +
//! `ServiceSink`), the decision count, the chaos attempt counter, the
//! `expect_index` replay cache and the checkpoint cadence with its
//! [`CheckpointStore`]. [`Engine::handle`] answers each [`EngineRequest`]
//! with one [`EngineReply`]; it touches no channel, thread or clock, so
//! `sprintd` runs it behind a queue on one thread and a test drives it
//! in-process. The plant state borrows the [`Plant`] the engine was built
//! on, so a reload that changes the plant answers
//! [`EngineReply::Rebuild`] and the caller builds the next engine on it —
//! the only moment plant state is (deliberately) reset.
//!
//! Every decision runs inside `catch_unwind`: a panicking step (real or
//! chaos-injected) answers that one request with a typed error and the
//! engine keeps serving. The hot state is checkpointed every
//! `checkpoint_every` decisions and a new engine restores the newest
//! intact snapshot, so a `kill -9` resumes bit-identically.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dcs_core::{
    step_cycle, ControllerConfig, FacilityState, Greedy, ServiceSink, SprintPolicy, StepInput,
    StepRecord, WindowStats,
};
use dcs_faults::{ChaosKind, ChaosSchedule};
use dcs_power::DataCenterSpec;
use dcs_sim::{CheckpointStore, SimError};
use dcs_units::Seconds;
use serde::Deserialize;

use crate::config::ServiceConfig;
use crate::hot::{ServiceHotState, HOT_STATE_KIND, HOT_STATE_SCHEMA};
use crate::protocol::{BreakerStatus, FacilityStatus, SprintStatus, TesStatus, UpsStatus};

/// One request to the [`Engine`].
#[derive(Debug)]
pub enum EngineRequest {
    /// Run one control step.
    Step {
        /// Offered normalized demand.
        demand: f64,
        /// Optional step-length override in seconds.
        dt_secs: Option<f64>,
        /// Idempotency key: the decision index the sender expects this
        /// step to land on (see [`crate::StepBody::expect_index`]).
        expect_index: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Swap in an already-validated config (boxed: a config is much
    /// larger than the other variants).
    Reload(Box<ServiceConfig>),
    /// Write the final checkpoint if anything changed since the last one.
    Drain,
}

/// The [`Engine`]'s answer to one [`EngineRequest`].
#[derive(Debug)]
pub enum EngineReply {
    /// A step's result.
    Step {
        /// The decision, or why it was not made.
        result: Result<StepOutcome, StepFailure>,
        /// Chaos-injected latency the caller serves before replying
        /// (zero unless a `Delay` event targets this attempt).
        stall_ms: u64,
    },
    /// The answer to [`EngineRequest::Ping`].
    Pong,
    /// The reload took effect. The engine answers `rebuilt: false` (the
    /// plant is unchanged); a caller that acted on
    /// [`EngineReply::Rebuild`] answers its own caller `rebuilt: true`.
    Reloaded {
        /// `true` when the plant was rebuilt.
        rebuilt: bool,
    },
    /// The new config describes a different plant. Its store is open and
    /// its newest snapshot loaded; build the next [`Engine`] on it. This
    /// engine is stale from here on.
    Rebuild(Box<Plant>),
    /// The reload was refused (the new plant's store could not be
    /// opened); the running config is untouched.
    ReloadFailed(String),
    /// Any pending checkpoint is on disk.
    Drained,
}

/// One successful decision, as the engine reports it.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The step's telemetry record.
    pub record: StepRecord,
    /// Lifetime decision index of this step.
    pub decision_index: u64,
    /// `true` when this outcome was served from the replay cache (an
    /// idempotent retry); the plant did not advance.
    pub replayed: bool,
}

/// Why a step was not served, typed so the HTTP layer can answer with
/// the right status.
#[derive(Debug, Clone)]
pub enum StepFailure {
    /// The decision panicked (`503 decision_failed`).
    Failed(String),
    /// The request's `expect_index` is older than the replay cache
    /// retains — the outcome is unknowable (`409 replay_gap`).
    ReplayGap {
        /// The index the sender expected.
        expect: u64,
        /// The oldest index still cached.
        floor: u64,
    },
    /// The request's `expect_index` does not match the plant: it is
    /// ahead of the next decision, or a *different* request was already
    /// applied at that index (`409 index_conflict`).
    IndexConflict {
        /// The index the sender expected.
        expect: u64,
        /// The plant's lifetime decision count.
        decisions: u64,
    },
}

/// One replay-cache entry: the applied request's fingerprint plus its
/// outcome. The fingerprint (exact input bits) is what makes replay
/// sound under concurrent writers — a retry of the *same* request
/// replays, a *different* request aimed at a taken index conflicts.
struct ReplayEntry {
    demand_bits: u64,
    dt_bits: u64,
    outcome: StepOutcome,
}

/// The engine-maintained part of `/status`, refreshed after every
/// decision (and on boot/restore/rebuild) so reading status never has to
/// wait on — or wedge with — the engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineStatus {
    /// Lifetime decisions (survives restarts via the checkpoint).
    pub decisions: u64,
    /// Plant hot-state observability.
    pub facility: FacilityStatus,
    /// Sprint lifecycle.
    pub sprint: SprintStatus,
    /// Recent-step telemetry.
    pub window: WindowStats,
}

/// What an [`Engine`] is built on: a validated config, the spec and
/// controller config it describes (the plant state borrows both), and
/// that plant's checkpoint store with its newest intact snapshot.
#[derive(Debug)]
pub struct Plant {
    pub(crate) config: Arc<ServiceConfig>,
    spec: DataCenterSpec,
    controller: ControllerConfig,
    state_dir: Option<PathBuf>,
    store: Option<CheckpointStore>,
    restored: Option<ServiceHotState>,
}

impl Plant {
    /// Builds the plant `config` describes. With a `state_dir`, opens
    /// (creating if needed) its checkpoint store and loads the newest
    /// intact snapshot; each plant fingerprint gets its own
    /// subdirectory, so a rebuild onto a different plant neither clashes
    /// with nor clobbers the old plant's snapshots.
    ///
    /// Corrupt snapshots skipped on the way to the newest intact one are
    /// reported on stderr. A snapshot of another hot-state schema is an
    /// error, not a fresh start: its tag is read before its body is
    /// decoded, so a schema change can never turn old snapshots into
    /// silently skipped "undecodable" ones (which the next saves would
    /// then prune).
    pub fn open(config: Arc<ServiceConfig>, state_dir: Option<&Path>) -> Result<Plant, SimError> {
        let mut plant = Plant {
            spec: config.spec(),
            controller: config.controller(),
            config,
            state_dir: state_dir.map(Path::to_path_buf),
            store: None,
            restored: None,
        };
        let Some(state_dir) = state_dir else {
            return Ok(plant);
        };
        let fingerprint = plant.config.plant_fingerprint();
        let dir = state_dir.join(format!("plant-{fingerprint:016x}"));
        let store = CheckpointStore::open(&dir, HOT_STATE_KIND, fingerprint)?;
        let loaded = store.load_latest::<serde_json::Value>()?;
        plant.store = Some(store);
        let Some(loaded) = loaded else {
            return Ok(plant);
        };
        for skipped in &loaded.skipped {
            eprintln!(
                "sprintd: skipped snapshot {}: {}",
                skipped.path, skipped.reason
            );
        }
        let schema = loaded
            .payload
            .get("schema")
            .and_then(serde_json::Value::as_str)
            .unwrap_or_default();
        if schema != HOT_STATE_SCHEMA {
            return Err(SimError::service(format!(
                "unsupported hot-state schema {schema:?} in {}",
                dir.display()
            )));
        }
        let hot = ServiceHotState::from_value(&loaded.payload).map_err(|e| {
            SimError::service(format!(
                "undecodable {HOT_STATE_SCHEMA} snapshot {} in {}: {e}",
                loaded.seq,
                dir.display()
            ))
        })?;
        plant.restored = Some(hot);
        Ok(plant)
    }
}

/// The service's decision state machine: `sprintd`'s engine without the
/// thread. Build one on a [`Plant`]; each [`Engine::handle`] call answers
/// one [`EngineRequest`] with one [`EngineReply`].
pub struct Engine<'a> {
    plant: &'a Plant,
    chaos: &'a ChaosSchedule,
    /// The live config: the plant's, or a same-plant reload of it.
    pub(crate) config: Arc<ServiceConfig>,
    pub(crate) facility: FacilityState<'a>,
    policy: SprintPolicy,
    sink: ServiceSink,
    store: Option<CheckpointStore>,
    decisions: u64,
    /// Failed tries at the current decision index: chaos events target
    /// (index, attempt), so a panicked decision index 0 retried by the
    /// client is attempt 1 — one injected panic hits one request.
    attempt: u32,
    /// Bounded replay cache for idempotent retries: entries are
    /// contiguous, ending at decision `decisions - 1`.
    replay: VecDeque<ReplayEntry>,
    /// Decisions since the last successful checkpoint.
    dirty: bool,
}

impl<'a> Engine<'a> {
    /// Builds the engine on `plant`, restoring its loaded snapshot. The
    /// engine takes the plant's store (it is the store's only writer).
    pub fn new(plant: &'a mut Plant, chaos: &'a ChaosSchedule) -> Engine<'a> {
        let store = plant.store.take();
        let restored = plant.restored.take();
        let plant: &'a Plant = plant;
        let mut engine = Engine {
            plant,
            chaos,
            config: plant.config.clone(),
            facility: FacilityState::new(&plant.spec, &plant.controller),
            policy: SprintPolicy::new(Box::new(Greedy), &plant.spec),
            sink: ServiceSink::with_window(plant.config.window_steps()),
            store,
            decisions: 0,
            attempt: 0,
            replay: VecDeque::new(),
            dirty: false,
        };
        if let Some(hot) = restored {
            engine.decisions = hot.decisions;
            engine.facility.import_hot_state(hot.facility);
            engine.policy.import_hot_state(hot.policy);
        }
        engine
    }

    /// Answers one request.
    pub fn handle(&mut self, request: EngineRequest) -> EngineReply {
        match request {
            EngineRequest::Step {
                demand,
                dt_secs,
                expect_index,
            } => self.step(demand, dt_secs, expect_index),
            EngineRequest::Ping => EngineReply::Pong,
            EngineRequest::Reload(config) => self.reload(*config),
            EngineRequest::Drain => {
                if self.dirty {
                    self.checkpoint("final checkpoint");
                }
                EngineReply::Drained
            }
        }
    }

    fn step(&mut self, demand: f64, dt_secs: Option<f64>, expect: Option<u64>) -> EngineReply {
        let index = self.decisions;
        let dt = Seconds::new(dt_secs.unwrap_or_else(|| self.config.step_secs()));
        // Idempotency gate: a replayed or conflicting request is answered
        // without touching the plant (and without consuming a chaos event
        // or an attempt).
        if let Some(expect) = expect.filter(|&expect| expect != index) {
            return EngineReply::Step {
                result: self.replayed(expect, demand, dt),
                stall_ms: 0,
            };
        }
        let injected = self
            .chaos
            .lookup(usize::try_from(index).unwrap_or(usize::MAX), self.attempt);
        let stall_ms = match injected {
            Some(ChaosKind::Delay { millis }) => *millis,
            _ => 0,
        };
        let chaos_panic = matches!(injected, Some(ChaosKind::Panic));
        let (facility, policy, sink) = (&mut self.facility, &mut self.policy, &mut self.sink);
        let effects = catch_unwind(AssertUnwindSafe(|| {
            assert!(!chaos_panic, "chaos: injected decision panic");
            let input = StepInput::nominal(facility.now(), demand, dt);
            step_cycle(facility, policy, &input, sink)
        }));
        let result = match effects {
            Ok(effects) => {
                self.decisions += 1;
                self.attempt = 0;
                self.dirty = true;
                if self
                    .decisions
                    .is_multiple_of(self.config.checkpoint_every())
                {
                    self.checkpoint("checkpoint");
                }
                let outcome = StepOutcome {
                    record: effects.record,
                    decision_index: index,
                    replayed: false,
                };
                self.replay.push_back(ReplayEntry {
                    demand_bits: demand.to_bits(),
                    dt_bits: dt.as_secs().to_bits(),
                    outcome: outcome.clone(),
                });
                while self.replay.len() > self.config.replay_cache() {
                    self.replay.pop_front();
                }
                Ok(outcome)
            }
            Err(payload) => {
                self.attempt = self.attempt.saturating_add(1);
                Err(StepFailure::Failed(panic_message(payload)))
            }
        };
        EngineReply::Step { result, stall_ms }
    }

    /// Answers a step aimed at decision `expect`, which is not the next
    /// one: from the replay cache when it holds the *same* request.
    fn replayed(&self, expect: u64, demand: f64, dt: Seconds) -> Result<StepOutcome, StepFailure> {
        let decisions = self.decisions;
        let conflict = StepFailure::IndexConflict { expect, decisions };
        if expect > decisions {
            return Err(conflict);
        }
        let floor = decisions - self.replay.len() as u64;
        if expect < floor {
            return Err(StepFailure::ReplayGap { expect, floor });
        }
        let entry = &self.replay[usize::try_from(expect - floor).expect("replay cache is bounded")];
        if entry.demand_bits != demand.to_bits() || entry.dt_bits != dt.as_secs().to_bits() {
            return Err(conflict);
        }
        Ok(StepOutcome {
            replayed: true,
            ..entry.outcome.clone()
        })
    }

    fn reload(&mut self, config: ServiceConfig) -> EngineReply {
        let config = Arc::new(config);
        if !self.config.same_plant(&config) {
            // Open the new plant's store first so a failure rolls back
            // to the running config.
            return match Plant::open(config, self.plant.state_dir.as_deref()) {
                Ok(plant) => EngineReply::Rebuild(Box::new(plant)),
                Err(e) => EngineReply::ReloadFailed(e.to_string()),
            };
        }
        if config.window_steps() != self.config.window_steps() {
            self.sink = ServiceSink::with_window(config.window_steps());
        }
        self.config = config;
        EngineReply::Reloaded { rebuilt: false }
    }

    /// Saves the plant's hot state, logging (not propagating) a failure:
    /// a failed save leaves the state dirty for the next one.
    fn checkpoint(&mut self, what: &str) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let saved = store.save(&ServiceHotState {
            schema: HOT_STATE_SCHEMA.to_string(),
            decisions: self.decisions,
            facility: self.facility.export_hot_state(),
            policy: self.policy.export_hot_state(),
        });
        match saved {
            Ok(()) => self.dirty = false,
            Err(e) => eprintln!("sprintd: {what} failed: {e}"),
        }
    }

    /// Refreshes `status` in place. The breaker and strategy names are
    /// rebuilt only when the plant changes shape or strategy, so after a
    /// decision only numbers are rewritten.
    pub(crate) fn publish(&self, status: &mut EngineStatus) {
        let facility = &self.facility;
        let ups = facility.ups().status();
        let tes = facility.tes();
        let room = facility.room();
        let topo = facility.topology();
        let pdus = topo.pdu_count();
        if status.facility.breakers.len() != 1 + pdus {
            let names =
                std::iter::once("dc".to_string()).chain((0..pdus).map(|i| format!("pdu-{i}")));
            status.facility.breakers = names
                .map(|name| BreakerStatus {
                    name,
                    ..BreakerStatus::default()
                })
                .collect();
        }
        if status.sprint.strategy != self.policy.strategy_name() {
            status.sprint.strategy = self.policy.strategy_name().to_string();
        }
        status.decisions = self.decisions;
        let out = &mut status.facility;
        out.time_secs = facility.now().as_secs();
        out.room_temperature_c = room.temperature().as_celsius();
        out.room_headroom_c = room.headroom().as_celsius();
        out.ups = UpsStatus {
            state_of_charge: ups.state_of_charge.as_f64(),
            deliverable_wh: ups.deliverable.as_watt_hours(),
            on_battery: ups.on_battery as u64,
        };
        out.tes = TesStatus {
            state_of_charge: tes.state_of_charge().as_f64(),
            stored_wh: tes.stored().as_watt_hours(),
        };
        let breakers = std::iter::once(topo.dc_breaker()).chain(topo.pdu_breakers());
        for (slot, cb) in out.breakers.iter_mut().zip(breakers) {
            slot.trip_progress = cb.trip_progress();
            slot.tripped = cb.is_tripped();
            slot.rated_w = cb.rated().as_watts();
            slot.no_trip_limit_w = cb.no_trip_limit().as_watts();
        }
        status.sprint.active = self.policy.sprint_active();
        status.sprint.terminated = self.policy.export_hot_state().terminated;
        status.window = self.sink.window();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("decision panicked").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    static NO_CHAOS: ChaosSchedule = ChaosSchedule::NONE;

    fn config(pdus: usize) -> ServiceConfig {
        ServiceConfig::for_facility(pdus, 20)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("dcs-engine-{tag}-{}-{n}", std::process::id()))
    }

    fn step(demand: f64, expect_index: Option<u64>) -> EngineRequest {
        EngineRequest::Step {
            demand,
            dt_secs: None,
            expect_index,
        }
    }

    /// Runs one step and returns its result.
    fn run(engine: &mut Engine<'_>, request: EngineRequest) -> Result<StepOutcome, StepFailure> {
        match engine.handle(request) {
            EngineReply::Step { result, .. } => result,
            other => panic!("step answered {other:?}"),
        }
    }

    fn saves(engine: &Engine<'_>) -> u64 {
        engine.store.as_ref().map_or(0, CheckpointStore::saves)
    }

    /// The in-place refresh after each decision publishes exactly what a
    /// first publish into an empty snapshot does.
    #[test]
    fn in_place_status_matches_a_fresh_snapshot() {
        let mut plant = Plant::open(Arc::new(config(3)), None).unwrap();
        let mut engine = Engine::new(&mut plant, &NO_CHAOS);
        let mut refreshed = EngineStatus::default();
        engine.publish(&mut refreshed);
        for i in 0..40u64 {
            let demand = if (10..30).contains(&i) { 2.6 } else { 0.6 };
            run(&mut engine, step(demand, None)).unwrap();
            engine.publish(&mut refreshed);
        }
        let mut fresh = EngineStatus::default();
        engine.publish(&mut fresh);
        assert_eq!(refreshed.decisions, 40);
        assert_eq!(refreshed.decisions, fresh.decisions);
        assert_eq!(refreshed.facility, fresh.facility);
        assert_eq!(refreshed.sprint, fresh.sprint);
        assert_eq!(refreshed.window, fresh.window);
        let names: Vec<&str> = fresh
            .facility
            .breakers
            .iter()
            .map(|b| b.name.as_str())
            .collect();
        assert_eq!(names, ["dc", "pdu-0", "pdu-1", "pdu-2"]);
        assert!(fresh.facility.breakers.iter().all(|b| b.rated_w > 0.0));
    }

    #[test]
    fn expect_index_replays_conflicts_and_reports_gaps() {
        let mut plant = Plant::open(
            Arc::new(ServiceConfig {
                replay_cache: Some(4),
                ..config(2)
            }),
            None,
        )
        .unwrap();
        let mut engine = Engine::new(&mut plant, &NO_CHAOS);
        let demands = [0.6, 2.6, 2.6, 0.9, 1.4, 2.2];
        let mut outcomes = Vec::new();
        for (i, &demand) in demands.iter().enumerate() {
            // An expect_index equal to the next decision is a fresh step.
            outcomes.push(run(&mut engine, step(demand, Some(i as u64))).unwrap());
        }
        // The same request at a cached index replays without advancing.
        let replay = run(&mut engine, step(2.2, Some(5))).unwrap();
        assert!(replay.replayed);
        assert_eq!(replay.decision_index, 5);
        assert_eq!(replay.record, outcomes[5].record);
        let oldest = run(&mut engine, step(2.6, Some(2))).unwrap();
        assert_eq!(oldest.record, outcomes[2].record);
        // A different request aimed at a taken index, or one from the
        // future, conflicts.
        assert!(matches!(
            run(&mut engine, step(0.5, Some(5))),
            Err(StepFailure::IndexConflict {
                expect: 5,
                decisions: 6
            })
        ));
        assert!(matches!(
            run(&mut engine, step(0.5, Some(9))),
            Err(StepFailure::IndexConflict {
                expect: 9,
                decisions: 6
            })
        ));
        // Older than the four cached decisions: unknowable.
        assert!(matches!(
            run(&mut engine, step(2.6, Some(1))),
            Err(StepFailure::ReplayGap {
                expect: 1,
                floor: 2
            })
        ));
        assert_eq!(engine.decisions, 6);
    }

    #[test]
    fn one_injected_panic_hits_exactly_one_request() {
        let chaos = ChaosSchedule::panic_on(1, 0).with(dcs_faults::ChaosEvent {
            item: 2,
            attempt: 0,
            kind: ChaosKind::Delay { millis: 7 },
        });
        let mut plant = Plant::open(Arc::new(config(2)), None).unwrap();
        let mut engine = Engine::new(&mut plant, &chaos);
        run(&mut engine, step(0.6, None)).unwrap();
        let failed = run(&mut engine, step(2.6, None));
        assert!(matches!(failed, Err(StepFailure::Failed(ref m)) if m.contains("chaos")));
        assert_eq!((engine.decisions, engine.attempt), (1, 1));
        // The retry is attempt 1 of decision 1, which the schedule spares.
        let retried = run(&mut engine, step(2.6, None)).unwrap();
        assert_eq!(retried.decision_index, 1);
        assert_eq!((engine.decisions, engine.attempt), (2, 0));
        // A delay comes back as a stall for the caller; the step itself
        // runs.
        match engine.handle(step(2.6, None)) {
            EngineReply::Step {
                result: Ok(outcome),
                stall_ms: 7,
            } => assert_eq!(outcome.decision_index, 2),
            other => panic!("expected a stalled step, got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_every_n_and_drain_saves_only_when_dirty() {
        let dir = scratch_dir("cadence");
        let config = Arc::new(ServiceConfig {
            checkpoint_every: Some(4),
            ..config(2)
        });
        let mut plant = Plant::open(config.clone(), Some(&dir)).unwrap();
        let mut engine = Engine::new(&mut plant, &NO_CHAOS);
        for _ in 0..8 {
            run(&mut engine, step(2.6, None)).unwrap();
        }
        assert_eq!(saves(&engine), 2);
        // Clean after the eighth decision's checkpoint: nothing to save.
        assert!(matches!(
            engine.handle(EngineRequest::Drain),
            EngineReply::Drained
        ));
        assert_eq!(saves(&engine), 2);
        run(&mut engine, step(0.6, None)).unwrap();
        engine.handle(EngineRequest::Drain);
        assert_eq!(saves(&engine), 3);
        engine.handle(EngineRequest::Drain);
        assert_eq!(saves(&engine), 3);
        let mut status = EngineStatus::default();
        engine.publish(&mut status);
        drop(engine);
        // A new engine on the same directory resumes from the drain's
        // snapshot.
        let mut plant = Plant::open(config, Some(&dir)).unwrap();
        let engine = Engine::new(&mut plant, &NO_CHAOS);
        let mut restored = EngineStatus::default();
        engine.publish(&mut restored);
        assert_eq!(restored.decisions, 9);
        assert_eq!(restored.facility, status.facility);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_plant_reload_keeps_state_and_resizes_the_window() {
        let mut plant = Plant::open(Arc::new(config(2)), None).unwrap();
        let mut engine = Engine::new(&mut plant, &NO_CHAOS);
        for _ in 0..12 {
            run(&mut engine, step(2.6, None)).unwrap();
        }
        let reload = ServiceConfig {
            window_steps: Some(4),
            deadline_ms: Some(900),
            ..config(2)
        };
        assert!(matches!(
            engine.handle(EngineRequest::Reload(Box::new(reload))),
            EngineReply::Reloaded { rebuilt: false }
        ));
        assert_eq!(engine.config.deadline_ms(), 900);
        for _ in 0..6 {
            run(&mut engine, step(2.6, None)).unwrap();
        }
        let mut status = EngineStatus::default();
        engine.publish(&mut status);
        assert_eq!(status.decisions, 18);
        assert_eq!(status.window.steps, 4);
    }

    #[test]
    fn plant_changing_reload_restores_from_that_plants_store() {
        let dir = scratch_dir("rebuild");
        let mut plant = Plant::open(Arc::new(config(2)), Some(&dir)).unwrap();
        let mut engine = Engine::new(&mut plant, &NO_CHAOS);
        for _ in 0..5 {
            run(&mut engine, step(2.6, None)).unwrap();
        }
        engine.handle(EngineRequest::Drain);
        // A different geometry: the engine opens that plant's (empty)
        // store and hands it back rather than resetting itself.
        let EngineReply::Rebuild(mut three) =
            engine.handle(EngineRequest::Reload(Box::new(config(3))))
        else {
            panic!("a different plant must rebuild");
        };
        assert_eq!(engine.decisions, 5);
        drop(engine);
        let mut engine = Engine::new(&mut three, &NO_CHAOS);
        assert_eq!(engine.decisions, 0);
        run(&mut engine, step(0.6, None)).unwrap();
        engine.handle(EngineRequest::Drain);
        // Back to the first plant: its own snapshot, not the 3-PDU one.
        let EngineReply::Rebuild(mut two) =
            engine.handle(EngineRequest::Reload(Box::new(config(2))))
        else {
            panic!("a different plant must rebuild");
        };
        drop(engine);
        let engine = Engine::new(&mut two, &NO_CHAOS);
        let mut status = EngineStatus::default();
        engine.publish(&mut status);
        assert_eq!(status.decisions, 5);
        assert_eq!(status.facility.breakers.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
