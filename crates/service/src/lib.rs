//! Fault-tolerant live sprint-control service.
//!
//! Wraps the facility step kernel (`dcs-core`'s [`dcs_core::step_cycle`])
//! behind a long-running daemon: demand samples arrive over HTTP
//! (`POST /step`), sprint decisions come back, and the plant's thermal
//! and electrical state persists across crashes. The paper's controller
//! (§IV) runs in a loop at the data-center operator's side; this crate is
//! that loop as an operable service, built on the robustness rails the
//! repository already has (typed [`dcs_sim::SimError`]s, chaos injection
//! from `dcs-faults`, atomic [`dcs_sim::CheckpointStore`] snapshots).
//!
//! The robustness contract:
//!
//! - **Deadline-bounded decisions.** Every `/step` is answered within
//!   `deadline_ms` — with a decision, or with a typed
//!   `deadline_exceeded` error, never with an unbounded hang.
//! - **Bounded queue.** At most `queue_depth` requests wait on the
//!   engine; beyond that the service answers `429 backpressure`
//!   immediately instead of queueing without bound.
//! - **Degraded serving.** A stale demand feed or an engine overrun
//!   flips the service to fail-safe mode: `/step` still answers `200`,
//!   actuating the normal (non-sprint) core count, flagged
//!   `degraded: true`. The watchdog probes the engine and restores
//!   normal serving when it proves healthy.
//! - **Crash-safe hot state.** Breaker thermal memory, UPS/TES charge,
//!   room temperature, ledgers, and the sprint lifecycle are
//!   checkpointed atomically; after a `kill -9`, a restart restores the
//!   newest intact snapshot and the physics resumes bit-identically.
//! - **Validated hot reload.** `POST /reload` parses and validates the
//!   full config before anything swaps; an invalid config leaves the
//!   running one untouched and reports a typed error.
//!
//! The daemon binary is `sprintd`; see the crate's integration tests for
//! end-to-end flows including a real `kill -9` crash/recovery cycle.

pub mod client;
mod config;
mod engine;
mod hot;
pub mod http;
pub mod netchaos;
mod pool;
mod protocol;
mod service;

pub use client::{ClientError, RetryClient, RetryConfig};
pub use config::{
    ServiceConfig, DEFAULT_ACCEPT_QUEUE, DEFAULT_CHECKPOINT_EVERY, DEFAULT_DEADLINE_MS,
    DEFAULT_DRAIN_DEADLINE_MS, DEFAULT_QUEUE_DEPTH, DEFAULT_READ_BUDGET_MS, DEFAULT_REPLAY_CACHE,
    DEFAULT_STALE_AFTER_MS, DEFAULT_STEP_SECS, DEFAULT_WINDOW_STEPS, DEFAULT_WORKERS,
};
pub use engine::{Engine, EngineReply, EngineRequest, Plant, StepFailure, StepOutcome};
pub use hot::{ServiceHotState, HOT_STATE_KIND, HOT_STATE_SCHEMA};
pub use netchaos::{ChaosProxy, FaultDirection, FaultKind, FaultPlan, ProxyStats};
pub use protocol::{
    BreakerStatus, DegradedFlags, DrainStatus, ErrorBody, ErrorDetail, FacilityStatus, HealthBody,
    ReloadResponse, ServiceCounters, ShutdownResponse, SprintStatus, StatusBody, StepBody,
    StepResponse, TesStatus, UpsStatus, STATUS_SCHEMA,
};
pub use service::{ServiceOptions, SprintService};
