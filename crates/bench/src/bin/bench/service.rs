//! The `service` and `chaos` sections: decision throughput and latency
//! for the `sprintd` control loop, from the bare engine through
//! loopback HTTP to many pipelined clients, then decisions through the
//! seeded fault-injecting proxy.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dcs_core::{step_cycle, FacilityState, Greedy, NullSink, SprintPolicy, StepInput};
use dcs_service::{
    ChaosProxy, ClientError, RetryClient, RetryConfig, ServiceConfig, ServiceOptions, SprintService,
};
use dcs_units::Seconds;
use serde::{Deserialize, Serialize};

use crate::{time_ms, Latency};

/// Bare engine decision count.
const ENGINE_DECISIONS: usize = 200_000;
/// Single-connection HTTP request count.
const HTTP_REQUESTS: usize = 2_000;
/// Pipelined requests per client.
const MULTI_PER_CLIENT: usize = 8_000;
/// Concurrent pipelined clients.
const MULTI_CLIENTS: usize = 8;
/// Requests written per burst on each pipelined connection.
const PIPELINE_DEPTH: usize = 32;
/// Decisions driven through the chaos proxy.
const CHAOS_DECISIONS: u64 = 1_000;
/// Chaos proxy seed; reruns replay identical chaos.
const CHAOS_SEED: u64 = 42;
/// Chaos proxy per-connection fault probability (per-mille).
const CHAOS_FAULT_PER_MILLE: u32 = 300;

/// Bare `step_cycle` throughput on the service's plant.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineSection {
    /// Decisions stepped.
    pub decisions: u64,
    /// Wall-clock milliseconds for all of them.
    pub total_ms: f64,
    /// `decisions / total`.
    pub rate_per_sec: f64,
    /// Per-decision latency.
    pub latency: Latency,
}

/// Sequential `POST /step` over one keep-alive loopback connection.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HttpSection {
    /// Requests sent.
    pub requests: u64,
    /// Responses with a 5xx status.
    pub responses_5xx: u64,
    /// Responses with a 429 status.
    pub responses_429: u64,
    /// Responses served in degraded mode.
    pub degraded_responses: u64,
    /// Wall-clock milliseconds for all of them.
    pub total_ms: f64,
    /// `requests / total`.
    pub rate_per_sec: f64,
    /// Per-request latency.
    pub latency: Latency,
}

/// Aggregate pipelined load from concurrent clients.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MultiSection {
    /// Concurrent clients.
    pub clients: u64,
    /// Requests per pipelined burst.
    pub pipeline_depth: u64,
    /// Requests across every client.
    pub requests: u64,
    /// Responses with a 5xx status.
    pub responses_5xx: u64,
    /// Responses with a 429 status.
    pub responses_429: u64,
    /// Wall-clock milliseconds until the last client finished.
    pub total_ms: f64,
    /// `requests / total`.
    pub aggregate_rate_per_sec: f64,
    /// Per-request latency: burst time over burst size, since
    /// pipelining hides individual response times.
    pub latency: Latency,
}

/// The `service` object: engine, one connection, many connections.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Bare engine decisions, the ceiling any deployment sits under.
    pub engine: EngineSection,
    /// One keep-alive connection.
    pub http: HttpSection,
    /// Many pipelining clients.
    pub http_multi: MultiSection,
}

/// Decisions through the seeded fault-injecting proxy.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosSection {
    /// Decisions the client set out to make.
    pub decisions: u64,
    /// The daemon's decision count afterwards; equal to `decisions`
    /// when every decision applied exactly once.
    pub plant_decisions: u64,
    /// Wall-clock milliseconds for all of them.
    pub total_ms: f64,
    /// `decisions / total`.
    pub rate_per_sec: f64,
    /// Proxy seed.
    pub seed: u64,
    /// Per-connection fault probability (per-mille).
    pub fault_per_mille: u32,
    /// Connections the proxy accepted.
    pub proxy_connections: u64,
    /// Connections reset mid-exchange.
    pub injected_resets: u64,
    /// Responses cut short.
    pub injected_truncations: u64,
    /// Connections stalled past the client deadline.
    pub injected_stalls: u64,
    /// Responses trickled byte by byte.
    pub injected_trickles: u64,
    /// Client attempts, first tries included.
    pub client_attempts: u64,
    /// Client retries.
    pub client_retries: u64,
    /// Ambiguous retries answered from the replay cache.
    pub client_replays: u64,
    /// Typed 4xx rejections surfaced to the caller.
    pub typed_4xx_errors: u64,
    /// Errors that were neither transport-level nor typed.
    pub untyped_errors: u64,
}

impl ChaosSection {
    /// Every kind of injected fault, summed.
    pub fn faults(&self) -> u64 {
        self.injected_resets
            + self.injected_truncations
            + self.injected_stalls
            + self.injected_trickles
    }
}

/// The demand cycle the load sections drive: mostly quiet with periodic
/// bursts, so decisions exercise the sprint path, not just the idle one.
fn demand_at(i: usize) -> f64 {
    if i % 60 < 12 {
        2.6
    } else {
        0.6
    }
}

fn micros_since(tick: Instant) -> f64 {
    tick.elapsed().as_secs_f64() * 1e6
}

/// Runs the engine, single-connection and multi-client sections.
pub fn service_section() -> ServiceReport {
    eprintln!("bench: service: {ENGINE_DECISIONS} bare engine decisions...");
    let engine = engine_section();
    eprintln!("bench: service: {HTTP_REQUESTS} loopback requests on one connection...");
    let http = http_section();
    eprintln!(
        "bench: service: {MULTI_CLIENTS} x {MULTI_PER_CLIENT} pipelined requests \
         (depth {PIPELINE_DEPTH})..."
    );
    let http_multi = multi_section();
    ServiceReport {
        engine,
        http,
        http_multi,
    }
}

fn engine_section() -> EngineSection {
    let config = ServiceConfig::for_facility(2, 20);
    let spec = config.spec();
    let controller = config.controller();
    let mut facility = FacilityState::new(&spec, &controller);
    let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
    let dt = Seconds::new(config.step_secs());
    let (total_ms, samples_us) = time_ms(1, || {
        let mut samples_us = Vec::with_capacity(ENGINE_DECISIONS);
        for i in 0..ENGINE_DECISIONS {
            let input = StepInput::nominal(facility.now(), demand_at(i), dt);
            let tick = Instant::now();
            let effects = step_cycle(&mut facility, &mut policy, &input, &mut NullSink);
            samples_us.push(micros_since(tick));
            std::hint::black_box(&effects);
        }
        samples_us
    });
    EngineSection {
        decisions: ENGINE_DECISIONS as u64,
        total_ms,
        rate_per_sec: ENGINE_DECISIONS as f64 / (total_ms / 1e3),
        latency: Latency::from_samples(samples_us),
    }
}

/// Reads one HTTP response; returns `(status, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0_usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut buf = vec![0_u8; content_length];
    reader.read_exact(&mut buf).expect("body");
    (status, buf)
}

/// One `POST /step` request for the `i`-th decision.
fn step_request(i: usize) -> String {
    let body = format!(r#"{{"demand":{:?}}}"#, demand_at(i));
    format!(
        "POST /step HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A keep-alive loopback connection: the writer and a buffered reader.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Counts a response status into `(5xx, 429)` tallies.
fn tally(status: u16, counts: &mut (u64, u64)) {
    if status >= 500 {
        counts.0 += 1;
    }
    if status == 429 {
        counts.1 += 1;
    }
}

fn http_section() -> HttpSection {
    let service = SprintService::spawn(
        ServiceConfig::for_facility(2, 20),
        ServiceOptions::default(),
        0,
    )
    .expect("spawn service");
    let (mut stream, mut reader) = connect(service.addr());
    let mut counts = (0_u64, 0_u64);
    let mut degraded_responses = 0_u64;
    let (total_ms, samples_us) = time_ms(1, || {
        let mut samples_us = Vec::with_capacity(HTTP_REQUESTS);
        for i in 0..HTTP_REQUESTS {
            let tick = Instant::now();
            stream
                .write_all(step_request(i).as_bytes())
                .expect("write request");
            let (status, payload) = read_response(&mut reader);
            samples_us.push(micros_since(tick));
            tally(status, &mut counts);
            if String::from_utf8_lossy(&payload).contains(r#""degraded":true"#) {
                degraded_responses += 1;
            }
        }
        samples_us
    });
    drop((stream, reader));
    service.shutdown();
    HttpSection {
        requests: HTTP_REQUESTS as u64,
        responses_5xx: counts.0,
        responses_429: counts.1,
        degraded_responses,
        total_ms,
        rate_per_sec: HTTP_REQUESTS as f64 / (total_ms / 1e3),
        latency: Latency::from_samples(samples_us),
    }
}

/// One pipelined client: writes `PIPELINE_DEPTH` requests per burst,
/// then reads the whole burst of responses. Returns the `(5xx, 429)`
/// tallies and one per-request latency sample per burst.
fn run_pipelined_client(addr: SocketAddr) -> ((u64, u64), Vec<f64>) {
    let (mut stream, mut reader) = connect(addr);
    let mut counts = (0_u64, 0_u64);
    let mut samples_us = Vec::with_capacity(MULTI_PER_CLIENT / PIPELINE_DEPTH + 1);
    let mut sent = 0_usize;
    while sent < MULTI_PER_CLIENT {
        let batch = PIPELINE_DEPTH.min(MULTI_PER_CLIENT - sent);
        let burst: String = (sent..sent + batch).map(step_request).collect();
        let tick = Instant::now();
        stream.write_all(burst.as_bytes()).expect("write burst");
        for _ in 0..batch {
            tally(read_response(&mut reader).0, &mut counts);
        }
        samples_us.push(micros_since(tick) / batch as f64);
        sent += batch;
    }
    (counts, samples_us)
}

fn multi_section() -> MultiSection {
    let mut config = ServiceConfig::for_facility(2, 20);
    // Deep enough that a full pipeline from every client fits in the
    // engine queue instead of tripping backpressure.
    config.queue_depth = Some(MULTI_CLIENTS * PIPELINE_DEPTH * 2);
    config.deadline_ms = Some(5_000);
    let service =
        SprintService::spawn(config, ServiceOptions::default(), 0).expect("spawn service");
    let addr = service.addr();
    let (total_ms, clients) = time_ms(1, || {
        let handles: Vec<_> = (0..MULTI_CLIENTS)
            .map(|_| std::thread::spawn(move || run_pipelined_client(addr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    service.shutdown();

    let mut counts = (0_u64, 0_u64);
    let mut samples_us = Vec::new();
    for ((c5xx, c429), samples) in clients {
        counts.0 += c5xx;
        counts.1 += c429;
        samples_us.extend(samples);
    }
    let requests = (MULTI_CLIENTS * MULTI_PER_CLIENT) as u64;
    MultiSection {
        clients: MULTI_CLIENTS as u64,
        pipeline_depth: PIPELINE_DEPTH as u64,
        requests,
        responses_5xx: counts.0,
        responses_429: counts.1,
        total_ms,
        aggregate_rate_per_sec: requests as f64 / (total_ms / 1e3),
        latency: Latency::from_samples(samples_us),
    }
}

/// Drives decisions through the chaos proxy with a retrying client and
/// classifies every error it surfaces.
pub fn chaos_section() -> ChaosSection {
    eprintln!("bench: chaos: {CHAOS_DECISIONS} decisions through the fault proxy...");
    let mut config = ServiceConfig::for_facility(2, 20);
    config.deadline_ms = Some(5_000);
    let service =
        SprintService::spawn(config, ServiceOptions::default(), 0).expect("spawn service");
    let proxy =
        ChaosProxy::spawn(service.addr(), CHAOS_SEED, CHAOS_FAULT_PER_MILLE).expect("proxy");
    let mut client = RetryClient::with_config(
        proxy.addr(),
        RetryConfig {
            deadline: Duration::from_secs(2),
            rotate_after: 8,
            ..RetryConfig::default()
        },
    );

    let mut typed_4xx_errors = 0_u64;
    let mut untyped_errors = 0_u64;
    let (total_ms, ()) = time_ms(1, || {
        for i in 0..CHAOS_DECISIONS {
            let demand = demand_at(i as usize);
            let mut tries = 0_u32;
            loop {
                match client.step(demand) {
                    Ok(response) => {
                        if response.decision_index != Some(i) {
                            untyped_errors += 1;
                        }
                        break;
                    }
                    Err(ClientError::BreakerOpen { retry_in }) => {
                        std::thread::sleep(retry_in.min(Duration::from_millis(200)));
                    }
                    Err(ClientError::Exhausted { .. }) => {}
                    Err(ClientError::Rejected { kind, .. }) => {
                        if matches!(kind.as_str(), "bad_request" | "request_timeout") {
                            typed_4xx_errors += 1;
                        } else {
                            untyped_errors += 1;
                        }
                    }
                }
                tries += 1;
                if tries >= 100 {
                    untyped_errors += 1;
                    break;
                }
            }
        }
    });
    let plant_decisions = client.status().map_or(0, |s| s.decisions);
    let stats = client.stats();
    let proxy_stats = proxy.stats();
    let section = ChaosSection {
        decisions: CHAOS_DECISIONS,
        plant_decisions,
        total_ms,
        rate_per_sec: CHAOS_DECISIONS as f64 / (total_ms / 1e3),
        seed: CHAOS_SEED,
        fault_per_mille: CHAOS_FAULT_PER_MILLE,
        proxy_connections: proxy_stats.connections.load(Ordering::SeqCst),
        injected_resets: proxy_stats.resets.load(Ordering::SeqCst),
        injected_truncations: proxy_stats.truncations.load(Ordering::SeqCst),
        injected_stalls: proxy_stats.stalls.load(Ordering::SeqCst),
        injected_trickles: proxy_stats.trickles.load(Ordering::SeqCst),
        client_attempts: stats.attempts,
        client_retries: stats.retries,
        client_replays: stats.replays,
        typed_4xx_errors,
        untyped_errors,
    };
    proxy.stop();
    service.shutdown();
    section
}
