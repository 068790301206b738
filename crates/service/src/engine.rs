//! The decision engine: one thread that owns the plant.
//!
//! `FacilityState` borrows its spec and controller config, so a
//! long-running service keeps both on the engine thread's stack: an outer
//! loop builds the plant from the current [`ServiceConfig`], an inner
//! loop serves [`EngineMsg`]s from the bounded queue. A reload that keeps
//! the same plant hot-swaps the service knobs in place; a reload that
//! changes the plant exits the inner loop so the outer loop rebuilds —
//! the only moment plant state is (deliberately) reset.
//!
//! Every decision runs inside `catch_unwind`: a panicking step (real or
//! chaos-injected) answers that one request with a typed error and the
//! engine keeps serving. Every `checkpoint_every` decisions the hot state
//! is checkpointed; on boot (and on plant rebuild) the newest intact
//! snapshot is restored, so a `kill -9` resumes bit-identically.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dcs_core::{
    step_cycle, ControllerConfig, FacilityState, Greedy, ServiceSink, SprintPolicy, StepInput,
    StepRecord, WindowStats,
};
use dcs_faults::{ChaosKind, ChaosSchedule};
use dcs_power::DataCenterSpec;
use dcs_sim::{CheckpointStore, SimError};
use dcs_units::Seconds;

use crate::config::ServiceConfig;
use crate::hot::{ServiceHotState, HOT_STATE_KIND, HOT_STATE_SCHEMA};
use crate::protocol::{BreakerStatus, FacilityStatus, SprintStatus, TesStatus, UpsStatus};

/// Serving-state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Normal operation: decisions come from the physics engine.
    Serving,
    /// Fail-safe operation: decisions are the non-sprint default.
    Degraded,
    /// Shutting down: `/step` refuses, state is being checkpointed.
    Draining,
}

impl Mode {
    /// Decodes the atomic representation.
    #[must_use]
    pub fn from_u8(raw: u8) -> Mode {
        match raw {
            1 => Mode::Degraded,
            2 => Mode::Draining,
            _ => Mode::Serving,
        }
    }

    /// Encodes for the atomic.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            Mode::Serving => 0,
            Mode::Degraded => 1,
            Mode::Draining => 2,
        }
    }

    /// Wire name (`serving`, `degraded`, `draining`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Serving => "serving",
            Mode::Degraded => "degraded",
            Mode::Draining => "draining",
        }
    }
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
    /// The decision panicked or the engine could not run it (`503
    /// decision_failed`).
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

/// What a reload did.
#[derive(Debug, Clone, Copy)]
pub struct ReloadOutcome {
    /// `true` when the plant was rebuilt (geometry/controller change).
    pub rebuilt: bool,
}

/// Messages the HTTP layer sends the engine. Every variant carries a
/// rendezvous `reply` channel; the engine never blocks on a reply — a
/// caller that timed out and went away just drops its receiver.
pub enum EngineMsg {
    /// Run one control step.
    Step {
        /// Offered normalized demand.
        demand: f64,
        /// Optional step-length override in seconds.
        dt_secs: Option<f64>,
        /// Idempotency key: the decision index the sender expects this
        /// step to land on (see [`crate::StepBody::expect_index`]).
        expect_index: Option<u64>,
        /// Where the outcome goes.
        reply: SyncSender<Result<StepOutcome, StepFailure>>,
    },
    /// Liveness probe: replies immediately if the engine is not wedged.
    Ping {
        /// Acknowledgement channel.
        reply: SyncSender<()>,
    },
    /// Swap in a validated config.
    Reload {
        /// The already-validated replacement config (boxed: a config is
        /// much larger than the other message variants).
        config: Box<ServiceConfig>,
        /// Where the outcome goes.
        reply: SyncSender<Result<ReloadOutcome, String>>,
    },
    /// Checkpoint and stop.
    Drain {
        /// Acknowledged once the final checkpoint is on disk.
        reply: SyncSender<()>,
    },
}

/// Since-boot service counters (all atomic; incremented by whichever
/// layer observed the event).
#[derive(Debug, Default)]
pub struct Counters {
    /// Physics-backed decisions served.
    pub served: AtomicU64,
    /// Requests that hit the decision deadline.
    pub timeouts: AtomicU64,
    /// Requests rejected by the bounded queue.
    pub backpressure: AtomicU64,
    /// Fail-safe decisions served while degraded.
    pub degraded_served: AtomicU64,
    /// Successful config reloads.
    pub reloads: AtomicU64,
    /// Rejected (rolled-back) config reloads.
    pub reloads_rejected: AtomicU64,
    /// Connections handed to the worker pool.
    pub connections_accepted: AtomicU64,
    /// Connections refused with a typed 503 (pool at capacity, or
    /// draining).
    pub connections_rejected: AtomicU64,
    /// Requests rejected by the HTTP parser with a typed 4xx.
    pub parse_rejects: AtomicU64,
    /// Idempotent retries answered from the replay cache.
    pub replays_served: AtomicU64,
}

/// The engine-maintained part of `/status`, refreshed after every
/// decision (and on boot/restore/rebuild) so reading status never has to
/// wait on — or wedge with — the engine.
#[derive(Debug, Clone)]
pub struct EngineStatus {
    /// Lifetime decisions (survives restarts via the checkpoint).
    pub decisions: u64,
    /// Plant hot-state observability.
    pub facility: FacilityStatus,
    /// Sprint lifecycle.
    pub sprint: SprintStatus,
    /// Recent-step telemetry.
    pub window: WindowStats,
}

/// State shared between the engine, the watchdog, and every connection
/// thread.
pub struct Shared {
    /// Current [`Mode`], encoded via [`Mode::as_u8`].
    pub mode: AtomicU8,
    /// The demand feed has gone silent past the configured window.
    pub stale_feed: AtomicBool,
    /// A decision overran its deadline and the engine has not yet proven
    /// healthy again.
    pub engine_overrun: AtomicBool,
    /// Milliseconds (since `started`) of the most recent `/step` arrival.
    pub last_feed_ms: AtomicU64,
    /// Fail-safe core count the degraded path actuates (the plant's
    /// normal, non-sprint count).
    pub failsafe_cores: AtomicU32,
    /// Config generation; bumped on each successful reload.
    pub config_generation: AtomicU64,
    /// Connections currently being served by pool workers (gauge).
    pub connections_active: AtomicU64,
    /// Requests currently being routed (gauge; a drain waits for this to
    /// reach zero).
    pub requests_in_flight: AtomicU64,
    /// Uptime milliseconds at which a drain began (`u64::MAX` before).
    pub drain_started_ms: AtomicU64,
    /// Process start, the epoch for `last_feed_ms` and uptime.
    pub started: Instant,
    /// Since-boot counters.
    pub counters: Counters,
    /// The engine's status snapshot.
    pub status: Mutex<EngineStatus>,
    /// The live config (connection threads read serving knobs from here).
    pub config: Mutex<Arc<ServiceConfig>>,
    /// The most recent rejected reload's error.
    pub last_reload_error: Mutex<Option<String>>,
}

impl Shared {
    /// Builds the shared block for a service booting with `config`.
    #[must_use]
    pub fn new(config: Arc<ServiceConfig>) -> Shared {
        let started = Instant::now();
        Shared {
            mode: AtomicU8::new(Mode::Serving.as_u8()),
            stale_feed: AtomicBool::new(false),
            engine_overrun: AtomicBool::new(false),
            last_feed_ms: AtomicU64::new(0),
            failsafe_cores: AtomicU32::new(0),
            config_generation: AtomicU64::new(1),
            connections_active: AtomicU64::new(0),
            requests_in_flight: AtomicU64::new(0),
            drain_started_ms: AtomicU64::new(u64::MAX),
            started,
            counters: Counters::default(),
            status: Mutex::new(EngineStatus {
                decisions: 0,
                facility: FacilityStatus {
                    time_secs: 0.0,
                    room_temperature_c: 0.0,
                    room_headroom_c: 0.0,
                    ups: UpsStatus {
                        state_of_charge: 0.0,
                        deliverable_wh: 0.0,
                        on_battery: 0,
                    },
                    tes: TesStatus {
                        state_of_charge: 0.0,
                        stored_wh: 0.0,
                    },
                    breakers: Vec::new(),
                },
                sprint: SprintStatus {
                    strategy: String::new(),
                    active: false,
                    terminated: false,
                },
                window: WindowStats::default(),
            }),
            config: Mutex::new(config),
            last_reload_error: Mutex::new(None),
        }
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        Mode::from_u8(self.mode.load(Ordering::SeqCst))
    }

    /// Sets the mode, never overwriting `Draining`.
    pub fn set_mode(&self, mode: Mode) {
        let _ = self
            .mode
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |raw| {
                if Mode::from_u8(raw) == Mode::Draining {
                    None
                } else {
                    Some(mode.as_u8())
                }
            });
    }

    /// Milliseconds since the service started.
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The current config.
    #[must_use]
    pub fn current_config(&self) -> Arc<ServiceConfig> {
        self.config.lock().expect("config lock").clone()
    }
}

/// Opens (creating if needed) the checkpoint store for `config`'s plant
/// and loads the newest intact snapshot. Each plant fingerprint gets its
/// own subdirectory, so a rebuild onto a different plant neither clashes
/// with nor clobbers the old plant's snapshots.
pub fn open_store(
    state_dir: &Path,
    config: &ServiceConfig,
) -> Result<(CheckpointStore, Option<ServiceHotState>), SimError> {
    let fingerprint = config.plant_fingerprint();
    let dir = state_dir.join(format!("plant-{fingerprint:016x}"));
    let store = CheckpointStore::open(&dir, HOT_STATE_KIND, fingerprint)?;
    let restored = match store.load_latest::<ServiceHotState>()? {
        Some(loaded) => {
            if loaded.payload.schema != HOT_STATE_SCHEMA {
                return Err(SimError::service(format!(
                    "unsupported hot-state schema {:?} in {}",
                    loaded.payload.schema,
                    dir.display()
                )));
            }
            Some(loaded.payload)
        }
        None => None,
    };
    Ok((store, restored))
}

/// Refreshes the published engine snapshot in [`Shared::status`] in
/// place. The breaker and strategy names are rebuilt only when the plant
/// changes shape or strategy, so after a decision only numbers are
/// rewritten.
fn publish_status(
    shared: &Shared,
    decisions: u64,
    facility: &FacilityState<'_>,
    policy: &SprintPolicy,
    sink: &ServiceSink,
) {
    let ups = facility.ups().status();
    let tes = facility.tes();
    let room = facility.room();
    let topo = facility.topology();
    let mut status = shared.status.lock().expect("status lock");
    let pdus = topo.pdu_count();
    if status.facility.breakers.len() != 1 + pdus {
        let names = std::iter::once("dc".to_string()).chain((0..pdus).map(|i| format!("pdu-{i}")));
        status.facility.breakers = names
            .map(|name| BreakerStatus {
                name,
                trip_progress: 0.0,
                tripped: false,
                rated_w: 0.0,
                no_trip_limit_w: 0.0,
            })
            .collect();
    }
    if status.sprint.strategy != policy.strategy_name() {
        status.sprint.strategy = policy.strategy_name().to_string();
    }
    status.decisions = decisions;
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
    status.sprint.active = policy.sprint_active();
    status.sprint.terminated = policy.export_hot_state().terminated;
    status.window = sink.window();
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "decision panicked".to_string()
    }
}

/// The engine thread body. Owns the plant; exits when a [`EngineMsg::Drain`]
/// arrives or every sender is gone.
pub fn run_engine(
    rx: &Receiver<EngineMsg>,
    shared: &Arc<Shared>,
    state_dir: Option<&Path>,
    chaos: &ChaosSchedule,
    mut store: Option<CheckpointStore>,
    mut restored: Option<ServiceHotState>,
) {
    let mut config = shared.current_config();
    // Outer loop: one iteration per plant. `store`/`restored` belong to
    // the plant `config` describes; a plant-changing reload replaces all
    // three and continues here.
    'plant: loop {
        let spec: DataCenterSpec = config.spec();
        let controller_config: ControllerConfig = config.controller();
        let mut facility = FacilityState::new(&spec, &controller_config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        let mut sink = ServiceSink::with_window(config.window_steps());
        let mut decisions: u64 = 0;
        if let Some(hot) = restored.take() {
            decisions = hot.decisions;
            facility.import_hot_state(hot.facility);
            policy.import_hot_state(hot.policy);
        }
        shared
            .failsafe_cores
            .store(facility.normal_cores(), Ordering::SeqCst);
        publish_status(shared, decisions, &facility, &policy, &sink);
        let mut dirty = false;
        // Failed tries at the current decision index: chaos events target
        // (index, attempt), so a panicked decision index 0 retried by the
        // client is attempt 1 — one injected panic hits one request.
        let mut attempt: u32 = 0;
        // Bounded replay cache for idempotent retries: entries are
        // contiguous, ending at decision `decisions - 1`. Rebuilding the
        // plant resets it along with the decision count.
        let mut replay: VecDeque<ReplayEntry> = VecDeque::new();

        loop {
            let msg = match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return,
            };
            match msg {
                EngineMsg::Ping { reply } => {
                    let _ = reply.try_send(());
                }
                EngineMsg::Step {
                    demand,
                    dt_secs,
                    expect_index,
                    reply,
                } => {
                    let index = decisions;
                    let dt = Seconds::new(dt_secs.unwrap_or_else(|| config.step_secs()));
                    // Idempotency gate: a replayed or conflicting request
                    // is answered without touching the plant (and without
                    // consuming a chaos event or an attempt).
                    if let Some(expect) = expect_index {
                        if expect > index {
                            let _ = reply.try_send(Err(StepFailure::IndexConflict {
                                expect,
                                decisions: index,
                            }));
                            continue;
                        }
                        if expect < index {
                            let floor = index - replay.len() as u64;
                            if expect < floor {
                                let _ =
                                    reply.try_send(Err(StepFailure::ReplayGap { expect, floor }));
                            } else {
                                let entry = &replay[usize::try_from(expect - floor)
                                    .expect("replay cache is bounded")];
                                if entry.demand_bits == demand.to_bits()
                                    && entry.dt_bits == dt.as_secs().to_bits()
                                {
                                    shared
                                        .counters
                                        .replays_served
                                        .fetch_add(1, Ordering::SeqCst);
                                    let mut outcome = entry.outcome.clone();
                                    outcome.replayed = true;
                                    let _ = reply.try_send(Ok(outcome));
                                } else {
                                    let _ = reply.try_send(Err(StepFailure::IndexConflict {
                                        expect,
                                        decisions: index,
                                    }));
                                }
                            }
                            continue;
                        }
                    }
                    let injected =
                        chaos.lookup(usize::try_from(index).unwrap_or(usize::MAX), attempt);
                    if let Some(ChaosKind::Delay { millis }) = injected {
                        std::thread::sleep(std::time::Duration::from_millis(*millis));
                    }
                    let chaos_panic = matches!(injected, Some(ChaosKind::Panic));
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        assert!(!chaos_panic, "chaos: injected decision panic");
                        let input = StepInput::nominal(facility.now(), demand, dt);
                        step_cycle(&mut facility, &mut policy, &input, &mut sink)
                    }));
                    match outcome {
                        Ok(effects) => {
                            decisions += 1;
                            attempt = 0;
                            dirty = true;
                            if decisions.is_multiple_of(config.checkpoint_every()) {
                                if let Some(store) = store.as_mut() {
                                    let hot = ServiceHotState {
                                        schema: HOT_STATE_SCHEMA.to_string(),
                                        decisions,
                                        facility: facility.export_hot_state(),
                                        policy: policy.export_hot_state(),
                                    };
                                    if let Err(e) = store.save(&hot) {
                                        eprintln!("sprintd: checkpoint failed: {e}");
                                    } else {
                                        dirty = false;
                                    }
                                }
                            }
                            publish_status(shared, decisions, &facility, &policy, &sink);
                            let outcome = StepOutcome {
                                record: effects.record,
                                decision_index: index,
                                replayed: false,
                            };
                            replay.push_back(ReplayEntry {
                                demand_bits: demand.to_bits(),
                                dt_bits: dt.as_secs().to_bits(),
                                outcome: outcome.clone(),
                            });
                            while replay.len() > config.replay_cache() {
                                replay.pop_front();
                            }
                            let _ = reply.try_send(Ok(outcome));
                        }
                        Err(payload) => {
                            attempt = attempt.saturating_add(1);
                            let _ =
                                reply.try_send(Err(StepFailure::Failed(panic_message(payload))));
                        }
                    }
                }
                EngineMsg::Reload {
                    config: new_config,
                    reply,
                } => {
                    if config.same_plant(&new_config) {
                        let new_config = Arc::new(*new_config);
                        if new_config.window_steps() != config.window_steps() {
                            sink = ServiceSink::with_window(new_config.window_steps());
                        }
                        config = new_config.clone();
                        *shared.config.lock().expect("config lock") = new_config;
                        shared.config_generation.fetch_add(1, Ordering::SeqCst);
                        publish_status(shared, decisions, &facility, &policy, &sink);
                        let _ = reply.try_send(Ok(ReloadOutcome { rebuilt: false }));
                    } else {
                        // A different plant: open its store first so a
                        // failure rolls back to the running config.
                        let opened = match state_dir {
                            Some(dir) => match open_store(dir, &new_config) {
                                Ok((s, r)) => Some((Some(s), r)),
                                Err(e) => {
                                    let _ = reply.try_send(Err(e.to_string()));
                                    None
                                }
                            },
                            None => Some((None, None)),
                        };
                        if let Some((new_store, new_restored)) = opened {
                            let new_config = Arc::new(*new_config);
                            config = new_config.clone();
                            *shared.config.lock().expect("config lock") = new_config;
                            shared.config_generation.fetch_add(1, Ordering::SeqCst);
                            store = new_store;
                            restored = new_restored;
                            let _ = reply.try_send(Ok(ReloadOutcome { rebuilt: true }));
                            continue 'plant;
                        }
                    }
                }
                EngineMsg::Drain { reply } => {
                    if dirty {
                        if let Some(store) = store.as_mut() {
                            let hot = ServiceHotState {
                                schema: HOT_STATE_SCHEMA.to_string(),
                                decisions,
                                facility: facility.export_hot_state(),
                                policy: policy.export_hot_state(),
                            };
                            if let Err(e) = store.save(&hot) {
                                eprintln!("sprintd: final checkpoint failed: {e}");
                            }
                        }
                    }
                    let _ = reply.try_send(());
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-place refresh after each decision publishes exactly what a
    /// first publish into an empty snapshot does.
    #[test]
    fn in_place_status_matches_a_fresh_snapshot() {
        let config =
            Arc::new(ServiceConfig::from_json(r#"{"pdus":3,"servers_per_pdu":20}"#).unwrap());
        let spec = config.spec();
        let controller = config.controller();
        let mut facility = FacilityState::new(&spec, &controller);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        let mut sink = ServiceSink::with_window(config.window_steps());
        let refreshed = Shared::new(config.clone());
        publish_status(&refreshed, 0, &facility, &policy, &sink);
        for i in 0..40u64 {
            let demand = if (10..30).contains(&i) { 2.6 } else { 0.6 };
            let input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
            step_cycle(&mut facility, &mut policy, &input, &mut sink);
            publish_status(&refreshed, i + 1, &facility, &policy, &sink);
        }
        let fresh = Shared::new(config);
        publish_status(&fresh, 40, &facility, &policy, &sink);
        let refreshed = refreshed.status.lock().unwrap();
        let fresh = fresh.status.lock().unwrap();
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
}
