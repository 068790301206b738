//! Wire types for the service's JSON protocol.
//!
//! Every response body is one of these shapes; every error is typed by a
//! stable `kind` so clients branch on structure, never on message
//! strings. `/status` is also the crash-safety observability surface: its
//! `facility` section serializes the plant's hot state with exact
//! (shortest-roundtrip) float literals, so two statuses comparing equal
//! as JSON means the underlying `f64`s are bit-identical.

use dcs_core::{StepRecord, WindowStats};
use serde::{Deserialize, Serialize};

/// Status schema tag.
pub const STATUS_SCHEMA: &str = "dcs-service/status-v2";

/// `POST /step` request body.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepBody {
    /// Offered normalized demand for this control period.
    pub demand: f64,
    /// Optional step length override in seconds.
    pub dt_secs: Option<f64>,
    /// Idempotency key: the decision index the sender expects this step
    /// to be applied at. When set, a retry of a request the engine
    /// already applied is answered from the bounded replay cache
    /// (`replayed: true`) instead of advancing the plant again; a
    /// *different* request aimed at an already-taken index is a typed
    /// `409 index_conflict`.
    #[serde(default)]
    pub expect_index: Option<u64>,
}

/// `POST /step` success response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepResponse {
    /// `true` when this decision came from the fail-safe path instead of
    /// the physics-backed engine.
    pub degraded: bool,
    /// Why the fail-safe path answered (`"stale_feed"` or
    /// `"engine_overrun"`), when `degraded`.
    pub degraded_reason: Option<String>,
    /// The engine's step telemetry (absent on degraded responses).
    pub record: Option<StepRecord>,
    /// The fail-safe actuation (present on degraded responses): run the
    /// normal core count, no sprint.
    pub failsafe_cores: Option<u32>,
    /// Decision sequence number (lifetime, survives restarts).
    pub decision_index: Option<u64>,
    /// `true` when this response was served from the replay cache (an
    /// idempotent retry of an already-applied decision); the plant did
    /// not advance.
    #[serde(default)]
    pub replayed: bool,
}

/// A typed error body: `{"error": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// The error.
    pub error: ErrorDetail,
}

/// The typed error payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorDetail {
    /// Stable machine-readable kind: `bad_request`, `backpressure`,
    /// `deadline_exceeded`, `decision_failed`, `draining`, `config`,
    /// `not_found`, `method_not_allowed`, `overloaded`,
    /// `request_timeout`, `payload_too_large`, `headers_too_large`,
    /// `replay_gap`, `index_conflict`.
    pub kind: String,
    /// Human-readable context.
    pub message: String,
    /// The deadline that was exceeded, for `deadline_exceeded`.
    pub deadline_ms: Option<u64>,
    /// The queue depth that was full, for `backpressure`.
    pub queue_depth: Option<u64>,
}

impl ErrorBody {
    /// Builds a typed error body.
    #[must_use]
    pub fn new(kind: &str, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            error: ErrorDetail {
                kind: kind.to_string(),
                message: message.into(),
                deadline_ms: None,
                queue_depth: None,
            },
        }
    }

    /// Serializes to JSON (infallible shapes only).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| r#"{"error":{"kind":"internal"}}"#.into())
    }
}

/// One breaker's thermal standing in `/status`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BreakerStatus {
    /// Breaker name (`dc`, `pdu-0`, …).
    pub name: String,
    /// Trip progress in `[0, 1]`.
    pub trip_progress: f64,
    /// Whether the breaker is open.
    pub tripped: bool,
    /// Nameplate rating in watts.
    pub rated_w: f64,
    /// Largest indefinitely sustainable load in watts (thermal headroom).
    pub no_trip_limit_w: f64,
}

/// The UPS fleet's standing in `/status`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UpsStatus {
    /// Aggregate state of charge in `[0, 1]`.
    pub state_of_charge: f64,
    /// Deliverable energy in watt-hours.
    pub deliverable_wh: f64,
    /// Servers currently on battery.
    pub on_battery: u64,
}

/// The TES tank's standing in `/status`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TesStatus {
    /// State of charge in `[0, 1]`.
    pub state_of_charge: f64,
    /// Stored heat capacity in watt-hours.
    pub stored_wh: f64,
}

/// The engine-owned part of `/status`: the plant's hot state rendered
/// for observability. Updated after every decision and immediately after
/// a checkpoint restore, so comparing `facility` across a crash verifies
/// bit-identical resumption.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FacilityStatus {
    /// Facility clock in seconds.
    pub time_secs: f64,
    /// Room air temperature in °C.
    pub room_temperature_c: f64,
    /// Temperature headroom to the overheat threshold in °C.
    pub room_headroom_c: f64,
    /// UPS fleet standing.
    pub ups: UpsStatus,
    /// TES tank standing.
    pub tes: TesStatus,
    /// Per-breaker thermal standing: the DC breaker first, then every
    /// PDU breaker.
    pub breakers: Vec<BreakerStatus>,
}

/// Sprint-lifecycle summary in `/status`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SprintStatus {
    /// Strategy name.
    pub strategy: String,
    /// Whether a sprint is active.
    pub active: bool,
    /// Whether the safety latch has permanently terminated sprinting.
    pub terminated: bool,
}

/// Degraded-mode flags in `/status`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradedFlags {
    /// The demand feed has been silent past the configured window.
    pub stale_feed: bool,
    /// A decision overran its deadline and the engine has not yet proven
    /// healthy again.
    pub engine_overrun: bool,
}

/// Service counters in `/status` (since this process started).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceCounters {
    /// Physics-backed decisions served.
    pub served: u64,
    /// Requests that hit the decision deadline.
    pub timeouts: u64,
    /// Requests rejected by the bounded queue.
    pub backpressure: u64,
    /// Fail-safe decisions served while degraded.
    pub degraded_served: u64,
    /// Successful config reloads.
    pub reloads: u64,
    /// Rejected (rolled-back) config reloads.
    pub reloads_rejected: u64,
    /// Connections handed to the worker pool.
    #[serde(default)]
    pub connections_accepted: u64,
    /// Connections refused with a typed `503` — the pool was at capacity
    /// (`overloaded`) or the service was draining (`draining`).
    #[serde(default)]
    pub connections_rejected: u64,
    /// Requests rejected by the HTTP parser with a typed `4xx`
    /// (malformed, oversized, or slowloris-slow).
    #[serde(default)]
    pub parse_rejects: u64,
    /// Idempotent retries answered from the replay cache.
    #[serde(default)]
    pub replays_served: u64,
}

/// Drain standing in `/status`: what a graceful shutdown is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrainStatus {
    /// `true` once a drain has begun (the mode is also `draining`).
    pub draining: bool,
    /// Uptime milliseconds at which the drain began (absent before).
    pub since_ms: Option<u64>,
    /// The configured drain deadline.
    pub deadline_ms: u64,
    /// Connections currently being served by pool workers.
    pub connections_active: u64,
    /// Requests currently being routed (the drain waits for these).
    pub requests_in_flight: u64,
}

/// `GET /status` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusBody {
    /// Schema tag ([`STATUS_SCHEMA`]).
    pub schema: String,
    /// Serving state machine position: `serving`, `degraded`, `draining`.
    pub mode: String,
    /// Milliseconds since this process started.
    pub uptime_ms: u64,
    /// Lifetime decision count (persisted across restarts).
    pub decisions: u64,
    /// Why the service is degraded, if it is.
    pub degraded: DegradedFlags,
    /// Since-boot counters.
    pub counters: ServiceCounters,
    /// Drain standing (what a graceful shutdown waits on).
    #[serde(default)]
    pub drain: DrainStatus,
    /// Config generation (bumped by each successful reload).
    pub config_generation: u64,
    /// The most recent rejected reload's error, if any.
    pub last_reload_error: Option<String>,
    /// The plant's hot state (the crash-safety anchor).
    pub facility: FacilityStatus,
    /// Sprint lifecycle summary.
    pub sprint: SprintStatus,
    /// Recent-step telemetry window.
    pub window: WindowStats,
}

impl Default for DrainStatus {
    /// The value `drain` deserializes to from a v1 status (no drain
    /// information recorded): not draining, nothing counted.
    fn default() -> DrainStatus {
        DrainStatus {
            draining: false,
            since_ms: None,
            deadline_ms: 0,
            connections_active: 0,
            requests_in_flight: 0,
        }
    }
}

/// `GET /healthz` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// `serving`, `degraded`, or `draining`.
    pub status: String,
}

/// `POST /reload` success response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// Whether the reload was applied.
    pub reloaded: bool,
    /// The new config generation.
    pub config_generation: u64,
    /// Whether the plant was rebuilt (geometry/controller change) rather
    /// than hot-swapped.
    pub rebuilt: bool,
}

/// `POST /shutdown` response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Always `true`: the service is now draining.
    pub draining: bool,
}
