//! The headline crash-safety test: boot the real `sprintd` binary, drive
//! it mid-sprint, `kill -9` it, restart on the same state directory, and
//! assert the plant's hot state — breaker thermal memory, UPS and TES
//! charge, room temperature — resumes bit-identically. Alongside it, the
//! restore edge cases: a corrupt newest snapshot falls back visibly, and
//! a snapshot of another schema stops the boot without touching the file.

mod common;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use common::{request, scratch_dir, step};
use dcs_service::{ServiceConfig, ServiceOptions, SprintService, StatusBody, HOT_STATE_KIND};
use dcs_sim::CheckpointStore;
use serde::Serialize;

fn spawn_sprintd(config_path: &Path, state_dir: &Path, stderr: Stdio) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sprintd"))
        .arg(config_path)
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--port")
        .arg("0")
        .stdout(Stdio::piped())
        .stderr(stderr)
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
fn kill_dash_nine_resumes_bit_identically() {
    let root = scratch_dir("crash");
    std::fs::create_dir_all(&root).expect("mkdir");
    let config_path = root.join("service.json");
    let state_dir = root.join("state");
    // checkpoint_every=1: every decision is durable before its response.
    std::fs::write(
        &config_path,
        r#"{"pdus":2,"servers_per_pdu":20,"checkpoint_every":1}"#,
    )
    .expect("write config");

    // First life: drive the plant into a sprint so the hot state is
    // nontrivial (breaker heat accumulated, UPS/TES partially drained).
    let (mut child, addr) = spawn_sprintd(&config_path, &state_dir, Stdio::inherit());
    for i in 0..15 {
        let demand = if i >= 4 { 2.6 } else { 0.6 };
        let (status, body) = step(addr, demand);
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = request(addr, "GET", "/status", None);
    assert_eq!(status, 200);
    let before: StatusBody = serde_json::from_str(&body).expect("status json");
    assert_eq!(before.decisions, 15);
    assert!(before.sprint.active, "test wants a mid-sprint crash");

    // No drain, no warning: SIGKILL.
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Second life: same config, same state dir.
    let (mut child, addr) = spawn_sprintd(&config_path, &state_dir, Stdio::inherit());
    let (status, body) = request(addr, "GET", "/status", None);
    assert_eq!(status, 200);
    let after: StatusBody = serde_json::from_str(&body).expect("status json");
    assert_eq!(after.decisions, 15, "decision count survived the crash");
    assert_eq!(
        after.facility, before.facility,
        "plant hot state did not resume bit-identically"
    );
    assert_eq!(after.sprint, before.sprint);

    // The resumed plant keeps serving from where it left off.
    let (status, body) = step(addr, 2.6);
    assert_eq!(status, 200, "{body}");

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    let exit = child.wait().expect("wait");
    assert!(exit.success(), "clean drain should exit 0, got {exit:?}");

    std::fs::remove_dir_all(&root).ok();
}

/// The newest `snap-*.json` under the state directory's plant
/// subdirectory.
fn newest_snapshot(state_dir: &Path) -> PathBuf {
    let plant = std::fs::read_dir(state_dir)
        .expect("state dir")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("plant-"))
        })
        .expect("plant dir");
    std::fs::read_dir(plant)
        .expect("plant dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .max()
        .expect("a snapshot")
}

#[test]
fn truncated_newest_snapshot_falls_back_and_is_reported() {
    let root = scratch_dir("truncated");
    std::fs::create_dir_all(&root).expect("mkdir");
    let config_path = root.join("service.json");
    let state_dir = root.join("state");
    std::fs::write(
        &config_path,
        r#"{"pdus":2,"servers_per_pdu":20,"checkpoint_every":1}"#,
    )
    .expect("write config");

    let (mut child, addr) = spawn_sprintd(&config_path, &state_dir, Stdio::inherit());
    for _ in 0..5 {
        let (status, body) = step(addr, 2.6);
        assert_eq!(status, 200, "{body}");
    }
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Cut the newest snapshot (decision 5) mid-payload.
    let newest = newest_snapshot(&state_dir);
    let bytes = std::fs::read(&newest).expect("read snapshot");
    std::fs::write(&newest, &bytes[..bytes.len() - 40]).expect("truncate");

    let (child, addr) = spawn_sprintd(&config_path, &state_dir, Stdio::piped());
    let (status, body) = request(addr, "GET", "/status", None);
    assert_eq!(status, 200);
    let after: StatusBody = serde_json::from_str(&body).expect("status json");
    assert_eq!(
        after.decisions, 4,
        "restore fell back to the previous snapshot"
    );
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "clean drain should exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = format!("sprintd: skipped snapshot {}: truncated", newest.display());
    assert!(stderr.contains(&expected), "stderr: {stderr}");

    std::fs::remove_dir_all(&root).ok();
}

/// The outline of a snapshot from an older build: another schema tag and
/// a facility that still carried its spec.
#[derive(Serialize)]
struct ForeignSnapshot {
    schema: &'static str,
    decisions: u64,
    facility: ForeignBreaker,
}

#[derive(Serialize)]
struct ForeignBreaker {
    name: &'static str,
    rated: f64,
    state: f64,
}

#[test]
fn foreign_schema_snapshot_stops_boot_and_survives() {
    let root = scratch_dir("foreign");
    let state_dir = root.join("state");
    let config = ServiceConfig::for_facility(2, 20);
    let fingerprint = config.plant_fingerprint();
    let mut store = CheckpointStore::open(
        state_dir.join(format!("plant-{fingerprint:016x}")),
        HOT_STATE_KIND,
        fingerprint,
    )
    .expect("open store");
    let foreign = ForeignSnapshot {
        schema: "dcs-service/hot-state-v1",
        decisions: 7,
        facility: ForeignBreaker {
            name: "dc",
            rated: 1.0e6,
            state: 0.25,
        },
    };
    store.save(&foreign).expect("save");
    let snapshot = newest_snapshot(&state_dir);
    let bytes = std::fs::read(&snapshot).expect("read snapshot");

    let options = ServiceOptions {
        state_dir: Some(state_dir.clone()),
        chaos: dcs_faults::ChaosSchedule::none(),
    };
    let err = match SprintService::spawn(config, options, 0) {
        Ok(service) => {
            service.shutdown();
            panic!("spawn restored or skipped a foreign snapshot");
        }
        Err(e) => e.to_string(),
    };
    assert!(err.contains("unsupported hot-state schema"), "{err}");

    // The daemon refuses the same directory with its service exit code.
    let config_path = root.join("service.json");
    std::fs::write(&config_path, r#"{"pdus":2,"servers_per_pdu":20}"#).expect("write config");
    let out = Command::new(env!("CARGO_BIN_EXE_sprintd"))
        .arg(&config_path)
        .arg("--state-dir")
        .arg(&state_dir)
        .arg("--port")
        .arg("0")
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(7));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported hot-state schema"));

    assert_eq!(
        std::fs::read(&snapshot).expect("snapshot survives"),
        bytes,
        "a refused snapshot must be left as it was"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sprintd_rejects_bad_usage_and_config() {
    let root = scratch_dir("cli");
    std::fs::create_dir_all(&root).expect("mkdir");

    // Usage error: exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_sprintd"))
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing config file: exit 4 (I/O).
    let out = Command::new(env!("CARGO_BIN_EXE_sprintd"))
        .arg(root.join("nope.json"))
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(4));

    // Invalid config: exit 3, validation before any socket or state dir.
    let config_path = root.join("bad.json");
    std::fs::write(&config_path, r#"{"pdus":0,"servers_per_pdu":20}"#).expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_sprintd"))
        .arg(&config_path)
        .arg("--state-dir")
        .arg(root.join("state"))
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3));
    assert!(
        !root.join("state").exists(),
        "invalid config must not create the state dir"
    );

    std::fs::remove_dir_all(&root).ok();
}
