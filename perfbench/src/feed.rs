//! The feed workloads: a demand stream against a live `sprintd`
//! (`SprintService::spawn`, persisted to a state directory as in
//! production), with a 10 Hz `/status` scraper alongside.
//!
//! Decisions are sequential — each `POST /step` carries the
//! `expect_index` `RetryClient` would tag it with — so one request is in
//! flight at a time. The run has two phases:
//!
//! - **nominal**: requests are due on a fixed schedule at the plant's
//!   nominal rate; a late response delays the next send, and latency is
//!   timed from each request's due time, so a stall is charged to every
//!   request queued behind it;
//! - **saturated**: each request goes out as soon as the previous answer
//!   is in — the highest rate a sequential stream can be served at — in
//!   windows of a fixed count, each checked before the next starts and
//!   followed by a chunk of back-to-back `/status` reads. The CPU time of
//!   both gives the bounded metrics (see `cpu.rs`).
//!
//! Load comes from two threads (stream, scraper) on two connections.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dcs_core::{
    step_cycle, ControllerConfig, FacilityState, Greedy, NullSink, ServiceSink, SprintPolicy,
    StepInput,
};
use dcs_power::DataCenterSpec;
use dcs_service::{
    ServiceConfig, ServiceCounters, ServiceOptions, SprintService, StatusBody, StepResponse,
};
use dcs_units::Seconds;
use dcs_workload::yahoo_trace;

use crate::client::{get, render_step, Conn};
use crate::cpu::live_threads_s;
use crate::kernel::{beat_split, BeatSplit};
use crate::probes::{probe, Layers};
use crate::spans::Tracer;
use crate::stats::{due_ns, generator_lateness, median, tail, Timing};

/// One feed workload's plant and offered load.
pub struct Plant {
    /// PDU count.
    pub pdus: usize,
    /// Servers per PDU.
    pub servers_per_pdu: usize,
    /// The nominal offered rate, requests per second.
    pub nominal_rps: f64,
}

/// `feed-small`: the front end dominates.
pub const SMALL: Plant = Plant {
    pdus: 2,
    servers_per_pdu: 20,
    nominal_rps: 1000.0,
};

/// `feed-large`: the engine and checkpoints dominate.
pub const LARGE: Plant = Plant {
    pdus: 256,
    servers_per_pdu: 20,
    nominal_rps: 500.0,
};

/// Decisions taken before the timed restarts, so the state directory
/// holds snapshots to restore.
const WARMUP: u64 = 64;
/// Timed restarts in set-up; the median is reported.
pub const BOOTS: usize = 9;
/// Tries at a nominal phase in which the generator keeps up.
const NOMINAL_ATTEMPTS: usize = 3;
/// The scraper's period (10 Hz).
const SCRAPE_PERIOD_NS: u64 = 100_000_000;
/// Steps in one saturated window: a fixed count, so the response buffer
/// (and with it the peak RSS) does not depend on the host's speed.
const WINDOW_REQUESTS: usize = 2000;
/// Back-to-back `/status` reads per CPU measurement.
const STATUS_CHUNK: usize = 100;
/// The generator sleeps until this long before a due time, then spins.
const SPIN_NS: u64 = 50_000;
/// The generator fell behind when its median lateness passes this...
const GEN_LATE_P50_LIMIT_NS: f64 = 200_000.0;
/// ...or its p99 lateness passes the 5 ms latency limit. Wake-up jitter
/// below both leaves the schedule, and the latencies timed from it, intact.
const GEN_LATE_P99_LIMIT_NS: f64 = 5_000_000.0;
/// Requests put through the layer probes in the traced run.
const PROBE_REQUESTS: usize = 2000;
/// Steps driven through the kernel beat split in the traced run.
pub const BEAT_STEPS: usize = 20_000;

/// `true` when the open-loop generator fell behind its schedule, so the
/// phase's latencies measure the generator rather than the service.
#[must_use]
pub fn fell_behind(gen_late: &[u64]) -> bool {
    if gen_late.is_empty() {
        return false;
    }
    let mut late: Vec<f64> = gen_late.iter().map(|&n| n as f64).collect();
    let t = tail(&mut late, 99.0);
    t.p50 > GEN_LATE_P50_LIMIT_NS || t.value > GEN_LATE_P99_LIMIT_NS
}

/// The service config for a plant: geometry, everything else default
/// (persistence every 16 decisions, a 250 ms decision deadline).
#[must_use]
pub fn config(plant: &Plant) -> ServiceConfig {
    ServiceConfig::for_facility(plant.pdus, plant.servers_per_pdu)
}

/// The demand stream for `seed`: a Yahoo trace with a seeded burst,
/// cycled.
#[must_use]
pub fn demands(seed: u64) -> Vec<f64> {
    let degree = 2.6 + (seed % 6) as f64 * 0.2;
    yahoo_trace::with_burst(seed, degree, Seconds::from_minutes(15.0))
        .samples()
        .to_vec()
}

/// The traced run's extra measurements.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Client p50 with tracing off, µs.
    pub untraced_p50_us: f64,
    /// Client p50 with spans recorded, µs.
    pub traced_p50_us: f64,
    /// The service-layer probes.
    pub layers: Layers,
    /// The kernel beat split on the plant.
    pub beats: BeatSplit,
    /// Checkpoints the service wrote during the live phases.
    pub saves: u64,
}

/// One saturated window of [`WINDOW_REQUESTS`] back-to-back steps.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Decisions made.
    pub decisions: u64,
    /// CPU seconds the process spent (client and service; the scraper
    /// is stopped by then).
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Each step's round trip, ns.
    pub round_trips: Vec<f64>,
}

/// What one feed run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Median CPU seconds of a restart.
    pub setup_s: f64,
    /// Median wall seconds of a restart.
    pub setup_wall_s: f64,
    /// Request timings at the nominal rate.
    pub nominal: Vec<Timing>,
    /// The saturated windows.
    pub windows: Vec<Window>,
    /// Chunks of back-to-back `/status` reads: (reads, CPU s, wall s).
    pub status_cpu: Vec<(u64, f64, f64)>,
    /// CPU seconds of the reference kernel, once per window.
    pub reference: Vec<f64>,
    /// `/status` read timings.
    pub status: Vec<Timing>,
    /// Size of the last `/status` body.
    pub status_bytes: usize,
    /// Generator lateness at the nominal rate, ns.
    pub gen_late: Vec<u64>,
    /// Nominal phases discarded because the generator fell behind.
    pub rejected_phases: u64,
    /// The nominal rate the phase ran at.
    pub nominal_rps: f64,
    /// Operations attempted (steps, status reads, output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, first few.
    pub errors: Vec<String>,
    /// Service counters after the run.
    pub counters: Option<ServiceCounters>,
    /// Traced-run extras.
    pub traced: Option<Traced>,
}

impl Report {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// The decision stream's expected outputs: the same facility and policy
/// the engine builds, driven by `step_cycle` over the same demands.
struct Shadow<'a> {
    facility: FacilityState<'a>,
    policy: SprintPolicy,
    dt: Seconds,
    next: u64,
}

impl<'a> Shadow<'a> {
    fn new(spec: &'a DataCenterSpec, controller: &'a ControllerConfig, dt: Seconds) -> Self {
        Shadow {
            facility: FacilityState::new(spec, controller),
            policy: SprintPolicy::new(Box::new(Greedy), spec),
            dt,
            next: 0,
        }
    }

    /// Checks one `/step` response body against the next shadow step.
    fn check(&mut self, body: &[u8], demand: f64) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let response: StepResponse =
            serde_json::from_str(text).map_err(|e| format!("undecodable step response: {e}"))?;
        if response.degraded || response.replayed {
            return Err(format!("decision {} was degraded or replayed", self.next));
        }
        if response.decision_index != Some(self.next) {
            return Err(format!(
                "decision index {:?} where {} was due",
                response.decision_index, self.next
            ));
        }
        let record = response
            .record
            .ok_or_else(|| format!("decision {} has no record", self.next))?;
        let input = StepInput::nominal(self.facility.now(), demand, self.dt);
        let expect = step_cycle(&mut self.facility, &mut self.policy, &input, &mut NullSink);
        let same = serde_json::to_string(&record).map_err(|e| e.to_string())?
            == serde_json::to_string(&expect.record).map_err(|e| e.to_string())?;
        if !same {
            return Err(format!("decision {} differs from step_cycle", self.next));
        }
        self.next += 1;
        Ok(())
    }
}

/// Sleeps until shortly before `deadline`, then spins to it.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_nanos(SPIN_NS) {
            std::thread::sleep(left - Duration::from_nanos(SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("phase shorter than 584 years")
}

/// One timed phase of the step stream.
#[derive(Default)]
struct Phase {
    timings: Vec<Timing>,
    /// `(decision index, body start, body end)` into `arena`.
    bodies: Vec<(u64, usize, usize)>,
    arena: Vec<u8>,
    error: Option<String>,
}

/// The `/step` connection and the position in the demand stream.
struct Stream<'d> {
    conn: Conn,
    demands: &'d [f64],
    next: u64,
    request: Vec<u8>,
    body: Vec<u8>,
}

impl Stream<'_> {
    fn demand(&self, index: u64) -> f64 {
        self.demands[(index % self.demands.len() as u64) as usize]
    }

    /// Sends up to `n` steps due at `rate` per second (all due at once
    /// when `rate` is infinite), stopping at `until`.
    fn drive(&mut self, rate: f64, n: usize, until: Instant, tracer: &Tracer) -> Phase {
        let expect = if rate.is_finite() {
            n.min(200_000)
        } else {
            20_000
        };
        let mut phase = Phase {
            timings: Vec::with_capacity(expect),
            bodies: Vec::with_capacity(expect),
            arena: Vec::with_capacity(expect * 640),
            error: None,
        };
        let epoch = Instant::now() + Duration::from_millis(1);
        for i in 0..n as u64 {
            let index = self.next;
            let demand = self.demand(index);
            render_step(&mut self.request, demand, index);
            let due = due_ns(i, rate);
            wait_until(epoch + Duration::from_nanos(due));
            if Instant::now() >= until {
                break;
            }
            let sent = ns_since(epoch);
            let (request, body, conn) = (&self.request, &mut self.body, &mut self.conn);
            let outcome = tracer.span("client.step", None, index, |_| {
                conn.send(request)?;
                conn.receive(body)
            });
            let done = ns_since(epoch);
            phase.timings.push(Timing { due, sent, done });
            match outcome {
                Ok(200) => {
                    let start = phase.arena.len();
                    phase.arena.extend_from_slice(&self.body);
                    phase.bodies.push((index, start, phase.arena.len()));
                    self.next += 1;
                }
                Ok(status) => {
                    phase.error = Some(format!(
                        "step {index}: status {status}: {}",
                        String::from_utf8_lossy(&self.body)
                    ));
                    break;
                }
                Err(e) => {
                    phase.error = Some(format!("step {index}: {e}"));
                    break;
                }
            }
        }
        phase
    }
}

/// What the scraper thread saw.
#[derive(Default)]
struct Scrape {
    timings: Vec<Timing>,
    attempted: u64,
    errors: Vec<String>,
    bytes: usize,
}

/// Reads `/status` every [`SCRAPE_PERIOD_NS`] until `stop`; keeps the
/// timings of reads that started while `timed` was set.
fn scrape(
    addr: std::net::SocketAddr,
    stop: &AtomicBool,
    timed: &AtomicBool,
    tracer: &Tracer,
) -> Scrape {
    let mut out = Scrape::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.errors.push(format!("scraper connect: {e}"));
            return out;
        }
    };
    let request = get("/status");
    let mut body = Vec::with_capacity(64 * 1024);
    let epoch = Instant::now();
    for i in 0u64.. {
        let due = i * SCRAPE_PERIOD_NS;
        while ns_since(epoch) + 20_000_000 < due {
            if stop.load(Ordering::SeqCst) {
                return out;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if stop.load(Ordering::SeqCst) {
            return out;
        }
        wait_until(epoch + Duration::from_nanos(due));
        let keep = timed.load(Ordering::SeqCst);
        let sent = ns_since(epoch);
        let outcome = tracer.span("client.status", None, i, |_| {
            conn.send(&request)?;
            conn.receive(&mut body)
        });
        let done = ns_since(epoch);
        out.attempted += 1;
        match outcome {
            Ok(200) => {
                let parsed = std::str::from_utf8(&body)
                    .map_err(|e| e.to_string())
                    .and_then(|t| serde_json::from_str::<StatusBody>(t).map_err(|e| e.to_string()));
                if let Err(e) = parsed {
                    out.errors.push(format!("status read {i}: {e}"));
                }
                out.bytes = body.len();
                if keep {
                    out.timings.push(Timing { due, sent, done });
                }
            }
            Ok(status) => {
                out.errors.push(format!("status read {i}: status {status}"));
                return out;
            }
            Err(e) => {
                out.errors.push(format!("status read {i}: {e}"));
                return out;
            }
        }
    }
    out
}

fn healthz(addr: std::net::SocketAddr) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut body = Vec::new();
    conn.send(&get("/healthz"))
        .map_err(|e| format!("healthz: {e}"))?;
    match conn.receive(&mut body) {
        Ok(200) => Ok(()),
        Ok(status) => Err(format!("healthz: status {status}")),
        Err(e) => Err(format!("healthz: {e}")),
    }
}

fn read_status(conn: &mut Conn) -> Result<StatusBody, String> {
    let mut body = Vec::new();
    conn.send(&get("/status")).map_err(|e| e.to_string())?;
    match conn.receive(&mut body) {
        Ok(200) => std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(t).map_err(|e| e.to_string())),
        Ok(status) => Err(format!("status {status}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs a feed workload for about `seconds`, with state under `work`.
///
/// # Errors
///
/// Fails when the service cannot be started or driven at all; failures
/// of individual operations are counted in the report instead.
pub fn run(
    plant: &Plant,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    work: &Path,
) -> Result<Report, String> {
    let config = config(plant);
    let spec = config.spec();
    let controller = config.controller();
    let dt = Seconds::new(config.step_secs());
    let demands = demands(seed);
    let state = work.join("state");
    let spawn = || {
        SprintService::spawn(
            config.clone(),
            ServiceOptions {
                state_dir: Some(state.clone()),
                ..ServiceOptions::default()
            },
            0,
        )
        .map_err(|e| e.to_string())
    };
    let mut report = Report {
        nominal_rps: plant.nominal_rps,
        ..Report::default()
    };
    let mut shadow = Shadow::new(&spec, &controller, dt);
    let off = Tracer::new(false);
    let never = Instant::now() + Duration::from_secs(86_400);

    // Set-up: a first boot on the empty state directory takes the warm-up
    // decisions (and checkpoints them); the timed restarts restore them.
    {
        let service = spawn()?;
        let mut stream = Stream {
            conn: Conn::open(service.addr()).map_err(|e| e.to_string())?,
            demands: &demands,
            next: 0,
            request: Vec::new(),
            body: Vec::new(),
        };
        let phase = stream.drive(f64::INFINITY, WARMUP as usize, never, &off);
        verify(&phase, &mut shadow, &stream, &mut report);
        drop(stream);
        service.shutdown();
    }
    // The previous service's threads have all exited before each boot, so
    // the live-thread clock counts exactly the boot's own work.
    let mut boots = Vec::with_capacity(BOOTS);
    let mut boots_wall = Vec::with_capacity(BOOTS);
    let mut service = None;
    for k in 0..BOOTS {
        let (cpu0, t0) = (live_threads_s(), Instant::now());
        let booted = spawn()?;
        healthz(booted.addr())?;
        boots.push(live_threads_s() - cpu0);
        boots_wall.push(t0.elapsed().as_secs_f64());
        if k + 1 < BOOTS {
            booted.shutdown();
        } else {
            service = Some(booted);
        }
    }
    let service = service.expect("at least one boot");
    report.setup_s = median(&mut boots);
    report.setup_wall_s = median(&mut boots_wall);

    let mut stream = Stream {
        conn: Conn::open(service.addr()).map_err(|e| e.to_string())?,
        demands: &demands,
        next: WARMUP,
        request: Vec::with_capacity(256),
        body: Vec::with_capacity(4096),
    };
    report.attempted += 1;
    match read_status(&mut stream.conn) {
        Ok(s) if s.decisions == WARMUP => {}
        Ok(s) => report.fail(format!(
            "restart restored {} decisions, not {WARMUP}",
            s.decisions
        )),
        Err(e) => report.fail(format!("status after restart: {e}")),
    }

    let stop = AtomicBool::new(false);
    let timed = AtomicBool::new(false);
    let share = if tracer.on() { 0.25 } else { 0.35 };
    let nominal_n = (plant.nominal_rps * seconds * share) as usize;
    let decisions_before = stream.next;
    let scraped = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scrape(service.addr(), &stop, &timed, tracer));

        // A phase in which the generator itself fell behind is discarded
        // and measured again; the run fails after the last attempt.
        for _ in 0..NOMINAL_ATTEMPTS {
            timed.store(true, Ordering::SeqCst);
            let phase = stream.drive(plant.nominal_rps, nominal_n, never, &off);
            timed.store(false, Ordering::SeqCst);
            verify(&phase, &mut shadow, &stream, &mut report);
            report.nominal = phase.timings;
            report.gen_late = generator_lateness(&report.nominal);
            if !fell_behind(&report.gen_late) {
                break;
            }
            report.rejected_phases += 1;
        }

        if tracer.on() {
            // The same load again with every client call in a span: the
            // difference is the tracing overhead.
            let phase = stream.drive(plant.nominal_rps, nominal_n, never, tracer);
            let p50 = |t: &[Timing]| {
                let mut l: Vec<f64> = t.iter().map(|t| t.latency() as f64 / 1e3).collect();
                median(&mut l)
            };
            report.traced = Some(Traced {
                untraced_p50_us: p50(&report.nominal),
                traced_p50_us: p50(&phase.timings),
                ..Traced::default()
            });
            verify(&phase, &mut shadow, &stream, &mut report);
        }
        stop.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper thread panicked")
    });
    if !tracer.on() {
        // Saturated windows, each followed by a chunk of back-to-back
        // `/status` reads on the same connection, with the scraper stopped
        // so every thread the process runs is on the measured path. The
        // two alternate so both are sampled across the whole phase.
        let request = get("/status");
        let mut body = Vec::with_capacity(64 * 1024);
        let mut reference_table = vec![1.0f64; 1 << 18];
        let until = Instant::now() + Duration::from_secs_f64(seconds * 0.55);
        'windows: while report.windows.is_empty() || Instant::now() < until {
            let (cpu0, t0) = (live_threads_s(), Instant::now());
            let phase = stream.drive(f64::INFINITY, WINDOW_REQUESTS, never, &off);
            let (cpu, wall) = (live_threads_s() - cpu0, t0.elapsed().as_secs_f64());
            report.windows.push(Window {
                decisions: phase.bodies.len() as u64,
                cpu_s: cpu,
                wall_s: wall,
                round_trips: phase
                    .timings
                    .iter()
                    .map(|t| (t.done - t.sent) as f64)
                    .collect(),
            });
            let failed = report.failed;
            verify(&phase, &mut shadow, &stream, &mut report);
            if report.failed > failed {
                break;
            }
            report
                .reference
                .push(crate::cpu::reference_s(&mut reference_table));
            let (cpu0, t0) = (live_threads_s(), Instant::now());
            for _ in 0..STATUS_CHUNK {
                report.attempted += 1;
                let sent = stream.conn.send(&request);
                match sent.and_then(|()| stream.conn.receive(&mut body)) {
                    Ok(200) => {}
                    Ok(status) => {
                        report.fail(format!("status read: status {status}"));
                        break 'windows;
                    }
                    Err(e) => {
                        report.fail(format!("status read: {e}"));
                        break 'windows;
                    }
                }
            }
            report.status_cpu.push((
                STATUS_CHUNK as u64,
                live_threads_s() - cpu0,
                t0.elapsed().as_secs_f64(),
            ));
        }
        report.attempted += 1;
        if let Err(e) = std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<StatusBody>(t).map_err(|e| e.to_string()))
        {
            report.fail(format!("status body: {e}"));
        }
    }
    report.attempted += scraped.attempted;
    for e in scraped.errors {
        report.fail(e);
    }
    report.status = scraped.timings;
    report.status_bytes = scraped.bytes;

    report.attempted += 1;
    match read_status(&mut stream.conn) {
        Ok(s) => {
            if s.decisions != stream.next {
                report.fail(format!(
                    "status counts {} decisions, the stream made {}",
                    s.decisions, stream.next
                ));
            }
            report.counters = Some(s.counters);
        }
        Err(e) => report.fail(format!("final status: {e}")),
    }
    let every = config.checkpoint_every();
    let saves = stream.next / every - decisions_before / every;
    drop(stream);
    service.shutdown();

    if let Some(traced) = report.traced.as_mut() {
        traced.saves = saves;
        traced.layers = probe(
            &config,
            &demands,
            PROBE_REQUESTS,
            &work.join("probe"),
            tracer,
        )?;
        let steps: Vec<f64> = demands.iter().copied().cycle().take(BEAT_STEPS).collect();
        traced.beats = beat_split(&spec, &controller, &steps, dt, || {
            ServiceSink::with_window(config.window_steps())
        })?;
    }
    Ok(report)
}

/// Checks a phase's responses against the shadow; counts each request
/// and each failure.
fn verify(phase: &Phase, shadow: &mut Shadow<'_>, stream: &Stream<'_>, report: &mut Report) {
    report.attempted += phase.timings.len() as u64;
    if let Some(e) = &phase.error {
        report.fail(e.clone());
    }
    for &(index, start, end) in &phase.bodies {
        if let Err(e) = shadow.check(&phase.arena[start..end], stream.demand(index)) {
            report.fail(e);
            return;
        }
    }
}
