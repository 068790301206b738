//! Graceful-drain tests: shutdown under concurrent load finishes every
//! in-flight request inside the drain deadline, lands a final
//! checkpoint, reports drain state over still-open connections, and
//! refuses new work with typed statuses. The signal path is exercised
//! end-to-end against the real `sprintd` binary with `SIGTERM`.

mod common;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// KeepAlive matters here: a persistent connection is the only vantage
// point that can observe `/status` *during* a drain, because new
// connections are refused at the acceptor.
use common::{request, scratch_dir, step, KeepAlive};
use dcs_faults::ChaosSchedule;
use dcs_service::{ErrorBody, ServiceConfig, ServiceOptions, SprintService, StatusBody};

fn parse<T: serde::Deserialize>(body: &str) -> T {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad body {body:?}: {e}"))
}

#[test]
fn drain_finishes_in_flight_and_checkpoints() {
    let state_dir = scratch_dir("drain-ckpt");
    let mut config = ServiceConfig::for_facility(2, 20);
    config.deadline_ms = Some(5_000);
    // Far beyond the decision count: the only checkpoint that can
    // explain a restored count is the drain's final one.
    config.checkpoint_every = Some(1_000);
    let options = ServiceOptions {
        state_dir: Some(state_dir.clone()),
        // Park decision 3 in the engine so the drain starts with a
        // request genuinely in flight.
        chaos: ChaosSchedule::delay_on(3, 0, 600),
    };
    let service = SprintService::spawn(config.clone(), options, 0).expect("spawn");
    let addr = service.addr();
    for _ in 0..3 {
        let (status, body) = step(addr, 0.6);
        assert_eq!(status, 200, "{body}");
    }

    let parked = std::thread::spawn(move || step(addr, 2.6));
    std::thread::sleep(Duration::from_millis(150));

    let begun = Instant::now();
    let (status, body) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200, "{body}");

    // New work is refused with the typed status, not silently dropped.
    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 503, "{body}");
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "draining");

    // The in-flight decision completes, and the whole drain (in-flight
    // wait + final checkpoint) lands well inside the drain deadline.
    let (status, body) = parked.join().expect("parked step");
    assert_eq!(status, 200, "{body}");
    while !service.engine_finished() {
        assert!(
            begun.elapsed() < Duration::from_secs(4),
            "drain overran the deadline"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    service.join();

    // Second life on the same state dir: all 4 decisions are there even
    // though no periodic checkpoint ever fired — the drain wrote one.
    let options = ServiceOptions {
        state_dir: Some(state_dir.clone()),
        chaos: ChaosSchedule::none(),
    };
    let service = SprintService::spawn(config, options, 0).expect("respawn");
    let (status, body) = request(service.addr(), "GET", "/status", None);
    assert_eq!(status, 200, "{body}");
    assert_eq!(parse::<StatusBody>(&body).decisions, 4);
    service.shutdown();
    std::fs::remove_dir_all(&state_dir).ok();
}

#[test]
fn drain_state_is_visible_on_open_connections() {
    let mut config = ServiceConfig::for_facility(2, 20);
    config.deadline_ms = Some(5_000);
    let options = ServiceOptions {
        state_dir: None,
        chaos: ChaosSchedule::delay_on(1, 0, 800),
    };
    let service = SprintService::spawn(config, options, 0).expect("spawn");
    let addr = service.addr();
    let (status, _) = step(addr, 0.6);
    assert_eq!(status, 200);

    let mut probe = KeepAlive::connect(addr);
    let (status, body) = probe.get("/status");
    assert_eq!(status, 200, "{body}");
    let before: StatusBody = parse(&body);
    assert!(!before.drain.draining);
    assert!(before.drain.since_ms.is_none());

    let parked = std::thread::spawn(move || step(addr, 2.6));
    std::thread::sleep(Duration::from_millis(150));
    service.drain();

    // The already-open connection still answers /status and reports the
    // drain: mode flipped, start stamped, the parked request counted.
    let (status, body) = probe.get("/status");
    assert_eq!(status, 200, "{body}");
    let during: StatusBody = parse(&body);
    assert_eq!(during.mode, "draining");
    assert!(during.drain.draining);
    assert!(during.drain.since_ms.is_some());
    assert!(
        during.drain.requests_in_flight >= 2,
        "parked step + this probe should both be in flight, got {}",
        during.drain.requests_in_flight
    );

    let (status, body) = parked.join().expect("parked step");
    assert_eq!(status, 200, "{body}");
    service.join();
}

fn spawn_sprintd(config_path: &Path, state_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sprintd"))
        .arg(config_path)
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--port")
        .arg("0")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sprintd");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected boot line {line:?}"))
        .parse()
        .expect("parse addr");
    (child, addr)
}

#[test]
fn sigterm_drains_sprintd_cleanly() {
    let root = scratch_dir("sigterm");
    std::fs::create_dir_all(&root).expect("mkdir");
    let config_path = root.join("service.json");
    let state_dir = root.join("state");
    // checkpoint_every=1000: only a drain checkpoint can persist these
    // decisions.
    std::fs::write(
        &config_path,
        r#"{"pdus":2,"servers_per_pdu":20,"checkpoint_every":1000}"#,
    )
    .expect("write config");

    let (mut child, addr) = spawn_sprintd(&config_path, &state_dir);
    for _ in 0..5 {
        let (status, body) = step(addr, 0.7);
        assert_eq!(status, 200, "{body}");
    }

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());
    let exit = child.wait().expect("reap");
    assert!(exit.success(), "SIGTERM drain should exit 0, got {exit:?}");

    // Second life: the signal-initiated drain checkpointed all 5
    // decisions before exiting.
    let (mut child, addr) = spawn_sprintd(&config_path, &state_dir);
    let (status, body) = request(addr, "GET", "/status", None);
    assert_eq!(status, 200, "{body}");
    let resumed: StatusBody = parse(&body);
    assert_eq!(resumed.decisions, 5, "drain checkpoint survived the exit");

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    child.wait().expect("reap");
    std::fs::remove_dir_all(&root).ok();
}

/// Busy threads that crowd every core until dropped (also when a failed
/// assertion unwinds past them).
struct CpuHogs {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl CpuHogs {
    fn start(count: usize) -> CpuHogs {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..count)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        CpuHogs { stop, threads }
    }
}

impl Drop for CpuHogs {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[test]
fn restart_serves_the_restored_state_from_the_first_request() {
    // Each life adds one decision and drains, which checkpoints it; the
    // next life's very first /status must already report it, never the
    // boot default of 0. The hogs keep the engine thread from running
    // the moment it is spawned, which is when an acceptor started ahead
    // of the restore would serve that default.
    let state_dir = scratch_dir("restart-race");
    let config = ServiceConfig::for_facility(2, 20);
    let cores = std::thread::available_parallelism().map_or(2, usize::from);
    let _hogs = CpuHogs::start(2 * cores);
    for life in 0..20_u64 {
        let options = ServiceOptions {
            state_dir: Some(state_dir.clone()),
            chaos: ChaosSchedule::none(),
        };
        let service = SprintService::spawn(config.clone(), options, 0).expect("spawn");
        let (status, body) = request(service.addr(), "GET", "/status", None);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            parse::<StatusBody>(&body).decisions,
            life,
            "restart {life} served /status before restoring its checkpoint"
        );
        let (status, body) = step(service.addr(), 0.6);
        assert_eq!(status, 200, "{body}");
        service.shutdown();
    }
    std::fs::remove_dir_all(&state_dir).ok();
}
