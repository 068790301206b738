//! The service front end: listener, connection worker pool, watchdog,
//! drain coordinator, and the [`SprintService`] handle that owns them.
//!
//! Request flow for `POST /step`:
//!
//! 1. **Draining** → `503 draining`: the service refuses new decisions
//!    while in-flight requests finish and the final checkpoint lands.
//! 2. **Degraded** → `200` with the fail-safe actuation (normal core
//!    count, no sprint) and `degraded: true`. Degraded serving *answers*,
//!    it never errors — a control plane that stops responding is worse
//!    than one that stops sprinting.
//! 3. **Serving** → the request is offered to the engine's bounded queue
//!    (`try_send`; a full queue is `429 backpressure`, never an unbounded
//!    pile-up), then awaited with the per-request deadline
//!    (`recv_timeout`; an overrun is a typed `503 deadline_exceeded` *and*
//!    flips the service to Degraded until the watchdog's liveness probe
//!    proves the engine healthy again).
//!
//! Connections are served by a fixed worker pool behind a bounded
//! hand-off queue (see [`crate::pool`]): the hard connection limit is
//! `workers + accept_queue`, and a flood beyond it degrades into
//! immediate typed `503 overloaded` rejections instead of thread
//! exhaustion. Each connection runs with a short socket read tick (the
//! slowloris poll), a total per-request read budget, and a write
//! deadline, so no peer — slow, stalled, or malicious — can park a
//! worker indefinitely.
//!
//! A graceful drain (a `POST /shutdown`, a signal, or
//! [`SprintService::shutdown`]) flips the mode first so new work is
//! refused with typed statuses, then waits — on a dedicated coordinator
//! thread, because the trigger may itself be an in-flight request — for
//! in-flight requests to finish under `drain_deadline_ms`, asks the
//! engine for its final checkpoint, and only then stops the threads.
//!
//! The watchdog also tracks feed freshness: if no `/step` has arrived
//! within `stale_after_ms`, the service degrades (`stale_feed`) on the
//! grounds that a sprint decision computed against a silent feed is
//! stale physics; it recovers as soon as traffic resumes and the engine
//! answers a probe.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcs_faults::ChaosSchedule;
use dcs_sim::SimError;

use crate::config::ServiceConfig;
use crate::engine::{Engine, EngineReply, EngineRequest, EngineStatus, Plant, StepFailure};
use crate::http::{read_request, render_json, write_json, ReadOutcome, Request};
use crate::pool::{self, ConnContext, ConnPool};
use crate::protocol::{
    DegradedFlags, DrainStatus, ErrorBody, HealthBody, ReloadResponse, ServiceCounters,
    ShutdownResponse, StatusBody, StepBody, StepResponse, STATUS_SCHEMA,
};

/// How often the watchdog re-evaluates staleness and probes the engine.
const WATCHDOG_TICK: Duration = Duration::from_millis(15);
/// Keep-alive patience: a connection idle past this (no request bytes)
/// is closed to give its worker back to the pool.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a reload (or the final drain checkpoint) waits for the
/// engine to acknowledge.
const RELOAD_TIMEOUT: Duration = Duration::from_secs(10);
/// Socket read tick: how often a blocked read wakes to poll shutdown,
/// flush pipelined responses, and check the slowloris budget.
const READ_TICK: Duration = Duration::from_millis(100);
/// Per-write socket deadline; a peer that stops reading its responses
/// loses the connection rather than parking a worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Poll interval for the drain coordinator's in-flight wait.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Serving-state machine position, stored in [`Shared::mode`] as its
/// `u8` discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Mode {
    /// Normal operation: decisions come from the physics engine.
    Serving = 0,
    /// Fail-safe operation: decisions are the non-sprint default.
    Degraded = 1,
    /// Shutting down: `/step` refuses, state is being checkpointed.
    Draining = 2,
}

impl Mode {
    /// Wire name (`serving`, `degraded`, `draining`).
    fn name(self) -> &'static str {
        match self {
            Mode::Serving => "serving",
            Mode::Degraded => "degraded",
            Mode::Draining => "draining",
        }
    }
}

/// Since-boot service counters (all atomic; incremented by whichever
/// layer observed the event).
#[derive(Debug, Default)]
pub(crate) struct Counters {
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

/// State shared between the engine thread, the watchdog, and every
/// connection thread.
pub(crate) struct Shared {
    /// Current [`Mode`] discriminant.
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
    /// Process-wide stop flag.
    pub shutdown: AtomicBool,
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
    fn new(config: Arc<ServiceConfig>) -> Shared {
        Shared {
            mode: AtomicU8::new(Mode::Serving as u8),
            stale_feed: AtomicBool::new(false),
            engine_overrun: AtomicBool::new(false),
            last_feed_ms: AtomicU64::new(0),
            failsafe_cores: AtomicU32::new(0),
            config_generation: AtomicU64::new(1),
            connections_active: AtomicU64::new(0),
            requests_in_flight: AtomicU64::new(0),
            drain_started_ms: AtomicU64::new(u64::MAX),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            counters: Counters::default(),
            status: Mutex::new(EngineStatus::default()),
            config: Mutex::new(config),
            last_reload_error: Mutex::new(None),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        match self.mode.load(Ordering::SeqCst) {
            1 => Mode::Degraded,
            2 => Mode::Draining,
            _ => Mode::Serving,
        }
    }

    /// Sets the mode, never overwriting `Draining`.
    pub fn set_mode(&self, mode: Mode) {
        let draining = Mode::Draining as u8;
        let _ = self
            .mode
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |raw| {
                (raw != draining).then_some(mode as u8)
            });
    }

    /// Milliseconds since the service started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The current config.
    pub fn current_config(&self) -> Arc<ServiceConfig> {
        self.config.lock().expect("config lock").clone()
    }
}

/// A request on its way to the engine thread, with the rendezvous
/// channel its answer goes back on. The engine never blocks on a reply —
/// a caller that timed out and went away just drops its receiver.
pub(crate) type EngineMsg = (EngineRequest, SyncSender<EngineReply>);

/// The engine thread body: builds an [`Engine`] on `plant`, publishes its
/// state, and serves the queue until a drain or until every sender is
/// gone. A plant-changing reload hands back the next plant, and the next
/// engine is built on it.
fn run_engine(rx: &Receiver<EngineMsg>, shared: &Shared, chaos: &ChaosSchedule, mut plant: Plant) {
    loop {
        let mut engine = Engine::new(&mut plant, chaos);
        shared
            .failsafe_cores
            .store(engine.facility.normal_cores(), Ordering::SeqCst);
        engine.publish(&mut shared.status.lock().expect("status lock"));
        let Some(next) = serve(rx, &mut engine, shared) else {
            return;
        };
        drop(engine);
        plant = *next;
    }
}

/// Serves the queue on one engine: sleeps out injected stalls, publishes
/// each change, installs reloaded configs, then replies. Returns the next
/// plant after a plant-changing reload, `None` once the engine is done.
fn serve(rx: &Receiver<EngineMsg>, engine: &mut Engine<'_>, shared: &Shared) -> Option<Box<Plant>> {
    while let Ok((request, reply)) = rx.recv() {
        let (answer, next) = match engine.handle(request) {
            EngineReply::Rebuild(plant) => (EngineReply::Reloaded { rebuilt: true }, Some(plant)),
            answer => (answer, None),
        };
        let done = matches!(answer, EngineReply::Drained);
        match &answer {
            EngineReply::Step { result, stall_ms } => {
                if *stall_ms > 0 {
                    std::thread::sleep(Duration::from_millis(*stall_ms));
                }
                if result.as_ref().is_ok_and(|outcome| !outcome.replayed) {
                    engine.publish(&mut shared.status.lock().expect("status lock"));
                }
            }
            EngineReply::Reloaded { .. } => {
                let config = next.as_ref().map_or(&engine.config, |plant| &plant.config);
                *shared.config.lock().expect("config lock") = config.clone();
                shared.config_generation.fetch_add(1, Ordering::SeqCst);
                engine.publish(&mut shared.status.lock().expect("status lock"));
            }
            _ => {}
        }
        let _ = reply.try_send(answer);
        if done || next.is_some() {
            return next;
        }
    }
    None
}

/// Boot options for [`SprintService::spawn`].
#[derive(Debug, Default)]
pub struct ServiceOptions {
    /// Checkpoint directory; `None` serves without persistence.
    pub state_dir: Option<PathBuf>,
    /// Injected decision faults (tests/ci); [`ChaosSchedule::none`] in
    /// production.
    pub chaos: ChaosSchedule,
}

/// A running sprint-control service.
pub struct SprintService {
    addr: SocketAddr,
    ctx: Arc<ConnContext>,
    engine: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl SprintService {
    /// Validates `config`, restores any checkpointed hot state, binds
    /// `127.0.0.1:port` (0 picks a free port), and starts serving.
    pub fn spawn(
        config: ServiceConfig,
        options: ServiceOptions,
        port: u16,
    ) -> Result<SprintService, SimError> {
        config.validate()?;
        let config = Arc::new(config);
        let plant = Plant::open(config.clone(), options.state_dir.as_deref())?;
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| SimError::service(format!("bind 127.0.0.1:{port}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| SimError::service(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SimError::service(format!("set_nonblocking: {e}")))?;

        let shared = Arc::new(Shared::new(config.clone()));
        let (tx, rx) = sync_channel::<EngineMsg>(config.queue_depth());

        let engine = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("sprintd-engine".to_string())
                .spawn(move || run_engine(&rx, &shared, &options.chaos, plant))
                .map_err(|e| SimError::service(format!("spawn engine: {e}")))?
        };
        // Accept nothing before the engine has published the restored
        // state: it answers a ping only after its first publish, so the
        // first /status after a restart never reads the boot default.
        let (reply, booted) = sync_channel(1);
        tx.send((EngineRequest::Ping, reply))
            .ok()
            .and_then(|()| booted.recv().ok())
            .ok_or_else(|| SimError::service("engine exited during boot"))?;
        let ctx = Arc::new(ConnContext { shared, tx });
        let watchdog = {
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name("sprintd-watchdog".to_string())
                .spawn(move || run_watchdog(&ctx))
                .map_err(|e| SimError::service(format!("spawn watchdog: {e}")))?
        };
        let conn_pool = ConnPool::spawn(config.workers(), config.accept_queue(), ctx.clone())
            .map_err(|e| SimError::service(format!("spawn worker pool: {e}")))?;
        let acceptor = {
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name("sprintd-accept".to_string())
                .spawn(move || run_acceptor(&listener, conn_pool, &ctx))
                .map_err(|e| SimError::service(format!("spawn acceptor: {e}")))?
        };

        Ok(SprintService {
            addr,
            ctx,
            engine: Some(engine),
            acceptor: Some(acceptor),
            watchdog: Some(watchdog),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain without blocking: new work is refused
    /// immediately, in-flight requests finish under the drain deadline,
    /// then the final checkpoint lands and the threads stop. Idempotent.
    pub fn drain(&self) {
        begin_drain(&self.ctx);
    }

    /// `true` once the engine thread has exited (the drain's final
    /// checkpoint is on disk, or the engine died).
    #[must_use]
    pub fn engine_finished(&self) -> bool {
        self.engine.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Drains and stops the service: in-flight requests finish, the
    /// final checkpoint lands, threads are joined (what dropping it does).
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until the service drains (a `POST /shutdown`, a signal
    /// relayed via [`SprintService::drain`], or a dropped engine). Used
    /// by `sprintd`'s main thread.
    pub fn join(mut self) {
        let _ = self.engine.take().map(JoinHandle::join);
        self.join_threads();
    }

    /// Waits (bounded) for the drain coordinator to set the shutdown
    /// flag: the drain deadline plus the engine's checkpoint timeout.
    fn wait_drained(&self) {
        let shared = &self.ctx.shared;
        let cap = Duration::from_millis(shared.current_config().drain_deadline_ms())
            + RELOAD_TIMEOUT
            + Duration::from_secs(1);
        let start = Instant::now();
        while !shared.shutdown.load(Ordering::SeqCst) && start.elapsed() < cap {
            std::thread::sleep(DRAIN_POLL);
        }
    }

    fn join_threads(&mut self) {
        self.ctx.shared.shutdown.store(true, Ordering::SeqCst);
        let threads = [
            self.engine.take(),
            self.watchdog.take(),
            self.acceptor.take(),
        ];
        for thread in threads.into_iter().flatten() {
            let _ = thread.join();
        }
    }
}

impl Drop for SprintService {
    fn drop(&mut self) {
        if self.engine.is_some() {
            begin_drain(&self.ctx);
            self.wait_drained();
            self.join_threads();
        }
    }
}

/// Starts the graceful drain (idempotent): flips the mode so new work is
/// refused with typed statuses, then hands the wait to a coordinator
/// thread — the caller may itself be an in-flight request, so it must
/// not wait for in-flight requests to reach zero.
fn begin_drain(ctx: &Arc<ConnContext>) {
    let shared = &ctx.shared;
    shared.set_mode(Mode::Draining);
    let now = shared.uptime_ms().min(u64::MAX - 1);
    if shared
        .drain_started_ms
        .compare_exchange(u64::MAX, now, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return; // a coordinator is already running
    }
    let spawned = {
        let ctx = ctx.clone();
        std::thread::Builder::new()
            .name("sprintd-drain".to_string())
            .spawn(move || run_drain(&ctx))
    };
    if spawned.is_err() {
        // Out of threads: drain inline. The caller blocks for the drain
        // duration, but the shutdown still completes correctly.
        run_drain(ctx);
    }
}

/// The drain coordinator body: wait out in-flight requests (bounded by
/// the drain deadline), ask the engine for its final checkpoint, set the
/// process-wide shutdown flag.
fn run_drain(ctx: &ConnContext) {
    let shared = &ctx.shared;
    let deadline = Duration::from_millis(shared.current_config().drain_deadline_ms());
    let start = Instant::now();
    while shared.requests_in_flight.load(Ordering::SeqCst) > 0 && start.elapsed() < deadline {
        std::thread::sleep(DRAIN_POLL);
    }
    let (reply, done) = sync_channel(1);
    if ctx.tx.send((EngineRequest::Drain, reply)).is_ok() {
        let _ = done.recv_timeout(RELOAD_TIMEOUT);
    }
    shared.shutdown.store(true, Ordering::SeqCst);
}

/// The watchdog: stale-feed detection and degraded-mode recovery.
fn run_watchdog(ctx: &ConnContext) {
    let shared = &ctx.shared;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(WATCHDOG_TICK);
        let config = shared.current_config();
        let stale_after = config.stale_after_ms();
        let now = shared.uptime_ms();
        let last_feed = shared.last_feed_ms.load(Ordering::SeqCst);
        let feed_fresh = now.saturating_sub(last_feed) <= stale_after;
        match shared.mode() {
            Mode::Draining => {}
            Mode::Serving => {
                if !feed_fresh {
                    shared.stale_feed.store(true, Ordering::SeqCst);
                    shared.set_mode(Mode::Degraded);
                }
            }
            Mode::Degraded => {
                // Recovery needs both a fresh feed and a live engine:
                // probe with a Ping under the decision deadline.
                if feed_fresh && engine_alive(&ctx.tx, config.deadline_ms()) {
                    shared.stale_feed.store(false, Ordering::SeqCst);
                    shared.engine_overrun.store(false, Ordering::SeqCst);
                    shared.set_mode(Mode::Serving);
                }
            }
        }
    }
}

/// Probes the engine with a Ping bounded by `deadline_ms`.
fn engine_alive(tx: &SyncSender<EngineMsg>, deadline_ms: u64) -> bool {
    let (reply, pong) = sync_channel(1);
    match tx.try_send((EngineRequest::Ping, reply)) {
        Ok(()) => pong
            .recv_timeout(Duration::from_millis(deadline_ms))
            .is_ok(),
        Err(_) => false,
    }
}

/// Accept loop: accepted sockets go to the worker pool; at capacity (or
/// while draining) the peer gets an immediate typed `503` and a close —
/// never a silent drop.
fn run_acceptor(listener: &TcpListener, conn_pool: ConnPool, ctx: &Arc<ConnContext>) {
    while !ctx.shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if ctx.shared.mode() == Mode::Draining {
                    ctx.shared
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::SeqCst);
                    pool::reject(stream, 503, "draining", "service is draining");
                    continue;
                }
                match conn_pool.try_dispatch(stream) {
                    Ok(()) => {
                        ctx.shared
                            .counters
                            .connections_accepted
                            .fetch_add(1, Ordering::SeqCst);
                    }
                    Err(stream) => {
                        ctx.shared
                            .counters
                            .connections_rejected
                            .fetch_add(1, Ordering::SeqCst);
                        pool::reject(stream, 503, "overloaded", "connection limit reached");
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    conn_pool.join();
}

/// Flushes the batched-response buffer. Returns `false` when the peer
/// is gone (or stopped reading past the write deadline).
fn flush(writer: &mut TcpStream, out: &mut Vec<u8>) -> bool {
    if out.is_empty() {
        return true;
    }
    let ok = writer.write_all(out).is_ok() && writer.flush().is_ok();
    out.clear();
    ok
}

/// Serves one keep-alive connection until the peer leaves, a request is
/// rejected, idle patience runs out, or the service shuts down.
///
/// Responses are rendered into an output buffer and written when the
/// reader has no buffered bytes — pipelined requests get batched writes
/// — and the parser's `stop` hook (which runs exactly when the read is
/// about to block) flushes anything still pending, so a response is
/// never withheld from a peer that is waiting for it.
pub(crate) fn serve_connection(stream: TcpStream, ctx: &Arc<ConnContext>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut out: Vec<u8> = Vec::with_capacity(1024);
    let mut idle_since = Instant::now();
    loop {
        if ctx.shared.shutdown.load(Ordering::SeqCst) {
            let _ = flush(&mut writer, &mut out);
            return;
        }
        let budget = Duration::from_millis(ctx.shared.current_config().read_budget_ms());
        let outcome = {
            let mut stop = || {
                if !flush(&mut writer, &mut out) {
                    return true;
                }
                ctx.shared.shutdown.load(Ordering::SeqCst)
            };
            read_request(&mut reader, budget, &mut stop)
        };
        let request = match outcome {
            ReadOutcome::Ok(request) => request,
            // A read tick fired before the next request's first byte:
            // keep-alive patience, bounded by IDLE_TIMEOUT.
            ReadOutcome::Idle => {
                if idle_since.elapsed() > IDLE_TIMEOUT {
                    let _ = flush(&mut writer, &mut out);
                    return;
                }
                continue;
            }
            ReadOutcome::Closed => {
                let _ = flush(&mut writer, &mut out);
                return;
            }
            ReadOutcome::Reject {
                status,
                kind,
                message,
            } => {
                ctx.shared
                    .counters
                    .parse_rejects
                    .fetch_add(1, Ordering::SeqCst);
                let _ = flush(&mut writer, &mut out);
                let body = ErrorBody::new(kind, message).to_json();
                let _ = write_json(&mut writer, status, &body, true);
                return;
            }
        };
        ctx.shared.requests_in_flight.fetch_add(1, Ordering::SeqCst);
        let (status, body) = route(&request, ctx);
        ctx.shared.requests_in_flight.fetch_sub(1, Ordering::SeqCst);
        // Force a close while draining so kept-alive connections wind
        // down inside the drain deadline.
        let close = request.close || ctx.shared.mode() == Mode::Draining;
        render_json(&mut out, status, &body, close);
        idle_since = Instant::now();
        if close {
            let _ = flush(&mut writer, &mut out);
            return;
        }
        if reader.buffer().is_empty() && !flush(&mut writer, &mut out) {
            return;
        }
    }
}

/// Dispatches one request.
fn route(request: &Request, ctx: &Arc<ConnContext>) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(&ctx.shared),
        ("GET", "/status") => handle_status(&ctx.shared),
        ("POST", "/step") => handle_step(&request.body, &ctx.shared, &ctx.tx),
        ("POST", "/reload") => handle_reload(&request.body, &ctx.shared, &ctx.tx),
        ("POST", "/shutdown") => handle_shutdown(ctx),
        ("GET" | "POST", _) => (
            404,
            ErrorBody::new("not_found", format!("no route {}", request.path)).to_json(),
        ),
        _ => (
            405,
            ErrorBody::new(
                "method_not_allowed",
                format!("method {} not supported", request.method),
            )
            .to_json(),
        ),
    }
}

fn json_or_500<T: serde::Serialize>(status: u16, value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(body) => (status, body),
        Err(e) => (
            503,
            ErrorBody::new("decision_failed", format!("encode response: {e}")).to_json(),
        ),
    }
}

fn handle_healthz(shared: &Arc<Shared>) -> (u16, String) {
    let mode = shared.mode();
    // Degraded is still "alive" for liveness probes: 200 serving/degraded,
    // 503 only while draining (take the instance out of rotation).
    let status = if mode == Mode::Draining { 503 } else { 200 };
    json_or_500(
        status,
        &HealthBody {
            status: mode.name().to_string(),
        },
    )
}

fn handle_status(shared: &Arc<Shared>) -> (u16, String) {
    let engine = shared.status.lock().expect("status lock").clone();
    let config = shared.current_config();
    let counters = &shared.counters;
    let drain_since = shared.drain_started_ms.load(Ordering::SeqCst);
    let body = StatusBody {
        schema: STATUS_SCHEMA.to_string(),
        mode: shared.mode().name().to_string(),
        uptime_ms: shared.uptime_ms(),
        decisions: engine.decisions,
        degraded: DegradedFlags {
            stale_feed: shared.stale_feed.load(Ordering::SeqCst),
            engine_overrun: shared.engine_overrun.load(Ordering::SeqCst),
        },
        counters: ServiceCounters {
            served: counters.served.load(Ordering::SeqCst),
            timeouts: counters.timeouts.load(Ordering::SeqCst),
            backpressure: counters.backpressure.load(Ordering::SeqCst),
            degraded_served: counters.degraded_served.load(Ordering::SeqCst),
            reloads: counters.reloads.load(Ordering::SeqCst),
            reloads_rejected: counters.reloads_rejected.load(Ordering::SeqCst),
            connections_accepted: counters.connections_accepted.load(Ordering::SeqCst),
            connections_rejected: counters.connections_rejected.load(Ordering::SeqCst),
            parse_rejects: counters.parse_rejects.load(Ordering::SeqCst),
            replays_served: counters.replays_served.load(Ordering::SeqCst),
        },
        drain: DrainStatus {
            draining: shared.mode() == Mode::Draining,
            since_ms: (drain_since != u64::MAX).then_some(drain_since),
            deadline_ms: config.drain_deadline_ms(),
            connections_active: shared.connections_active.load(Ordering::SeqCst),
            requests_in_flight: shared.requests_in_flight.load(Ordering::SeqCst),
        },
        config_generation: shared.config_generation.load(Ordering::SeqCst),
        last_reload_error: shared
            .last_reload_error
            .lock()
            .expect("reload lock")
            .clone(),
        facility: engine.facility,
        sprint: engine.sprint,
        window: engine.window,
    };
    json_or_500(200, &body)
}

fn handle_step(body: &[u8], shared: &Arc<Shared>, tx: &SyncSender<EngineMsg>) -> (u16, String) {
    let step: StepBody = match std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    {
        Ok(step) => step,
        Err(e) => {
            return (
                400,
                ErrorBody::new("bad_request", format!("bad step body: {e}")).to_json(),
            )
        }
    };
    if !step.demand.is_finite() || step.demand < 0.0 {
        return (
            400,
            ErrorBody::new("bad_request", "demand must be finite and non-negative").to_json(),
        );
    }
    if let Some(dt) = step.dt_secs {
        if !dt.is_finite() || dt <= 0.0 {
            return (
                400,
                ErrorBody::new("bad_request", "dt_secs must be finite and positive").to_json(),
            );
        }
    }
    // Any well-formed step request freshens the feed, whatever mode we
    // answer it in — recovery is driven by traffic resuming.
    shared
        .last_feed_ms
        .store(shared.uptime_ms(), Ordering::SeqCst);

    let config = shared.current_config();
    match shared.mode() {
        Mode::Serving => {}
        Mode::Draining => {
            return (
                503,
                ErrorBody::new("draining", "service is draining").to_json(),
            )
        }
        Mode::Degraded => {
            shared
                .counters
                .degraded_served
                .fetch_add(1, Ordering::SeqCst);
            let reason = if shared.stale_feed.load(Ordering::SeqCst) {
                "stale_feed"
            } else {
                "engine_overrun"
            };
            return json_or_500(
                200,
                &StepResponse {
                    degraded: true,
                    degraded_reason: Some(reason.to_string()),
                    record: None,
                    failsafe_cores: Some(shared.failsafe_cores.load(Ordering::SeqCst)),
                    decision_index: None,
                    replayed: false,
                },
            );
        }
    }
    let (reply, outcome) = sync_channel(1);
    let request = EngineRequest::Step {
        demand: step.demand,
        dt_secs: step.dt_secs,
        expect_index: step.expect_index,
    };
    match tx.try_send((request, reply)) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            shared.counters.backpressure.fetch_add(1, Ordering::SeqCst);
            let mut error = ErrorBody::new(
                "backpressure",
                format!("decision queue full ({} deep)", config.queue_depth()),
            );
            error.error.queue_depth = Some(config.queue_depth() as u64);
            return (429, error.to_json());
        }
        Err(TrySendError::Disconnected(_)) => {
            return (
                503,
                ErrorBody::new("decision_failed", "engine is gone").to_json(),
            )
        }
    }
    let result = match outcome.recv_timeout(Duration::from_millis(config.deadline_ms())) {
        Ok(EngineReply::Step { result, .. }) => result,
        Err(RecvTimeoutError::Timeout) => {
            shared.counters.timeouts.fetch_add(1, Ordering::SeqCst);
            shared.engine_overrun.store(true, Ordering::SeqCst);
            shared.set_mode(Mode::Degraded);
            let mut error = ErrorBody::new(
                "deadline_exceeded",
                format!("decision overran {} ms", config.deadline_ms()),
            );
            error.error.deadline_ms = Some(config.deadline_ms());
            return (503, error.to_json());
        }
        Ok(_) | Err(RecvTimeoutError::Disconnected) => {
            return (
                503,
                ErrorBody::new("decision_failed", "engine dropped the request").to_json(),
            )
        }
    };
    match result {
        Ok(step) => {
            let counters = &shared.counters;
            counters.served.fetch_add(1, Ordering::SeqCst);
            if step.replayed {
                counters.replays_served.fetch_add(1, Ordering::SeqCst);
            }
            json_or_500(
                200,
                &StepResponse {
                    degraded: false,
                    degraded_reason: None,
                    record: Some(step.record),
                    failsafe_cores: None,
                    decision_index: Some(step.decision_index),
                    replayed: step.replayed,
                },
            )
        }
        Err(StepFailure::Failed(message)) => {
            (503, ErrorBody::new("decision_failed", message).to_json())
        }
        Err(StepFailure::ReplayGap { expect, floor }) => (
            409,
            ErrorBody::new(
                "replay_gap",
                format!(
                    "decision {expect} is older than the replay-cache floor {floor}; \
                     its outcome is no longer knowable"
                ),
            )
            .to_json(),
        ),
        Err(StepFailure::IndexConflict { expect, decisions }) => (
            409,
            ErrorBody::new(
                "index_conflict",
                format!(
                    "expected decision {expect} but the plant is at {decisions} \
                     (a different request may already hold that index)"
                ),
            )
            .to_json(),
        ),
    }
}

fn handle_reload(body: &[u8], shared: &Arc<Shared>, tx: &SyncSender<EngineMsg>) -> (u16, String) {
    let reject = |shared: &Arc<Shared>, status: u16, kind: &str, message: String| {
        shared
            .counters
            .reloads_rejected
            .fetch_add(1, Ordering::SeqCst);
        *shared.last_reload_error.lock().expect("reload lock") = Some(message.clone());
        (status, ErrorBody::new(kind, message).to_json())
    };
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(e) => return reject(shared, 400, "config", format!("bad reload body: {e}")),
    };
    // Validation happens before the engine ever sees the config: an
    // invalid reload is rejected here and the running config is untouched.
    let config = match ServiceConfig::from_json(text) {
        Ok(config) => config,
        Err(e) => return reject(shared, 400, "config", e.to_string()),
    };
    let (reply, done) = sync_channel(1);
    let request = EngineRequest::Reload(Box::new(config));
    if tx.send((request, reply)).is_err() {
        return reject(shared, 503, "config", "engine is gone".to_string());
    }
    match done.recv_timeout(RELOAD_TIMEOUT) {
        Ok(EngineReply::Reloaded { rebuilt }) => {
            shared.counters.reloads.fetch_add(1, Ordering::SeqCst);
            *shared.last_reload_error.lock().expect("reload lock") = None;
            json_or_500(
                200,
                &ReloadResponse {
                    reloaded: true,
                    config_generation: shared.config_generation.load(Ordering::SeqCst),
                    rebuilt,
                },
            )
        }
        Ok(EngineReply::ReloadFailed(message)) => reject(shared, 503, "config", message),
        Ok(_) | Err(_) => reject(shared, 503, "config", "reload timed out".to_string()),
    }
}

/// `POST /shutdown`: starts the graceful drain and answers immediately.
/// The coordinator finishes in-flight requests (this one included),
/// writes the final checkpoint, and stops the process's serving threads.
fn handle_shutdown(ctx: &Arc<ConnContext>) -> (u16, String) {
    begin_drain(ctx);
    json_or_500(200, &ShutdownResponse { draining: true })
}
