//! In-process probes of the service layers, for the traced run: the exact
//! `/step` request the load generator sends is put through each layer's
//! public function — `http::read_request`, the `StepBody` decode, the
//! `StepResponse` encode, `http::render_json`, `CheckpointStore::save` —
//! and through a fresh in-process `sprintd` on the same plant, with one
//! span per layer call.
//!
//! The engine loop (`run_engine`) is not reachable from outside
//! `dcs-service`, so the decision path is timed as a closed-loop `/step`
//! round trip through the in-process service, with persistence on and
//! off.

use std::path::Path;
use std::time::{Duration, Instant};

use dcs_core::{step_cycle, FacilityState, Greedy, NullSink, SprintPolicy, StepInput};
use dcs_service::http::{read_request, render_json, ReadOutcome};
use dcs_service::{
    ServiceConfig, ServiceHotState, ServiceOptions, SprintService, StepBody, StepResponse,
    HOT_STATE_KIND, HOT_STATE_SCHEMA,
};
use dcs_sim::{fingerprint_of, CheckpointStore};
use dcs_units::Seconds;

use crate::client::{render_step, Conn};
use crate::spans::{durations, Tracer};
use crate::stats::{median, tail};

/// Checkpoint saves timed by [`probe`].
const SAVES: usize = 200;

/// What the layer probes measured.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Median ns of `http::read_request` on the step request.
    pub parse_ns: f64,
    /// Median ns of the `StepBody` decode.
    pub decode_ns: f64,
    /// Median ns of the `StepResponse` encode.
    pub encode_ns: f64,
    /// Median ns of `http::render_json`.
    pub render_ns: f64,
    /// Median µs of a closed-loop `/step` round trip, persistence on.
    pub roundtrip_p50_us: f64,
    /// Tail µs of the same round trip.
    pub roundtrip_p99_us: f64,
    /// Tail µs of the round trip with persistence off.
    pub roundtrip_p99_unpersisted_us: f64,
    /// Median µs of `CheckpointStore::save` on the plant's hot state.
    pub save_p50_us: f64,
    /// Bytes of one snapshot file.
    pub snapshot_bytes: f64,
}

fn step_round_trip(conn: &mut Conn, request: &[u8], body: &mut Vec<u8>) -> Result<(), String> {
    conn.send(request).map_err(|e| e.to_string())?;
    match conn.receive(body) {
        Ok(200) => Ok(()),
        Ok(status) => Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Puts `n` steps of `demands` through the service layers on a fresh
/// plant persisted under `dir`, recording spans on `tracer`; then times
/// the round trip with persistence off and `CheckpointStore::save` alone.
///
/// # Errors
///
/// Fails when a layer rejects the request, or a decision differs from a
/// shadow `step_cycle` over the same demands.
pub fn probe(
    config: &ServiceConfig,
    demands: &[f64],
    n: usize,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Layers, String> {
    let spec = config.spec();
    let controller = config.controller();
    let dt = Seconds::new(config.step_secs());
    let mut shadow = FacilityState::new(&spec, &controller);
    let mut shadow_policy = SprintPolicy::new(Box::new(Greedy), &spec);
    let spawn = |state_dir| {
        SprintService::spawn(
            config.clone(),
            ServiceOptions {
                state_dir,
                ..ServiceOptions::default()
            },
            0,
        )
        .map_err(|e| e.to_string())
    };

    let service = spawn(Some(dir.join("service")))?;
    let mut conn = Conn::open(service.addr()).map_err(|e| e.to_string())?;
    let mut request = Vec::with_capacity(256);
    let mut body = Vec::with_capacity(4096);
    let mut response = Vec::with_capacity(4096);
    for i in 0..n {
        let demand = demands[i % demands.len()];
        let index = i as u64;
        render_step(&mut request, demand, index);
        let decided = tracer.span(
            "request",
            None,
            index,
            |root| -> Result<StepResponse, String> {
                let parsed = tracer.span("http.parse", root, index, |_| {
                    read_request(&mut &request[..], Duration::from_secs(5), &mut || false)
                });
                let ReadOutcome::Ok(parsed) = parsed else {
                    return Err(format!("read_request rejected step {i}: {parsed:?}"));
                };
                tracer
                    .span("protocol.decode", root, index, |_| {
                        std::str::from_utf8(&parsed.body)
                            .map_err(|e| e.to_string())
                            .and_then(|t| {
                                serde_json::from_str::<StepBody>(t).map_err(|e| e.to_string())
                            })
                    })
                    .map_err(|e| format!("decode step {i}: {e}"))?;
                tracer
                    .span("service", root, index, |_| {
                        step_round_trip(&mut conn, &request, &mut body)
                    })
                    .map_err(|e| format!("step {i}: {e}"))?;
                let decided: StepResponse = std::str::from_utf8(&body)
                    .map_err(|e| e.to_string())
                    .and_then(|t| serde_json::from_str(t).map_err(|e| e.to_string()))
                    .map_err(|e| format!("step {i} response: {e}"))?;
                let encoded = tracer
                    .span("protocol.encode", root, index, |_| {
                        serde_json::to_string(&decided)
                    })
                    .map_err(|e| format!("encode step {i}: {e}"))?;
                tracer.span("http.render", root, index, |_| {
                    response.clear();
                    render_json(&mut response, 200, &encoded, false);
                });
                Ok(decided)
            },
        )?;
        let input = StepInput::nominal(shadow.now(), demand, dt);
        let expect = step_cycle(&mut shadow, &mut shadow_policy, &input, &mut NullSink);
        let same = decided
            .record
            .is_some_and(|r| fingerprint_of(&r) == fingerprint_of(&expect.record));
        if decided.decision_index != Some(index) || !same {
            return Err(format!("probe decision {i} differs from step_cycle"));
        }
    }
    drop(conn);
    service.shutdown();

    let spans = tracer.spans();
    let p50 = |name: &str| {
        let mut d = durations(&spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&mut d)
        }
    };
    let persisted = tail(&mut durations(&spans, "service"), 99.0);
    let mut layers = Layers {
        parse_ns: p50("http.parse"),
        decode_ns: p50("protocol.decode"),
        encode_ns: p50("protocol.encode"),
        render_ns: p50("http.render"),
        roundtrip_p50_us: persisted.p50 / 1e3,
        roundtrip_p99_us: persisted.value / 1e3,
        ..Layers::default()
    };

    let service = spawn(None)?;
    let mut conn = Conn::open(service.addr()).map_err(|e| e.to_string())?;
    let mut round_trips = Vec::with_capacity(n);
    for i in 0..n {
        render_step(&mut request, demands[i % demands.len()], i as u64);
        let t = Instant::now();
        step_round_trip(&mut conn, &request, &mut body)?;
        round_trips.push(t.elapsed().as_nanos() as f64);
    }
    drop(conn);
    service.shutdown();
    layers.roundtrip_p99_unpersisted_us = tail(&mut round_trips, 99.0).value / 1e3;

    let hot = ServiceHotState {
        schema: HOT_STATE_SCHEMA.to_string(),
        decisions: n as u64,
        facility: shadow.export_hot_state(),
        policy: shadow_policy.export_hot_state(),
    };
    let save_dir = dir.join("saves");
    let mut store = CheckpointStore::open(&save_dir, HOT_STATE_KIND, config.plant_fingerprint())
        .map_err(|e| e.to_string())?;
    let mut saves = Vec::with_capacity(SAVES);
    for _ in 0..SAVES {
        let t = Instant::now();
        tracer
            .span("checkpoint.save", None, 0, |_| store.save(&hot))
            .map_err(|e| e.to_string())?;
        saves.push(t.elapsed().as_nanos() as f64);
    }
    layers.save_p50_us = median(&mut saves) / 1e3;
    layers.snapshot_bytes = newest_file_len(&save_dir)?;
    Ok(layers)
}

fn newest_file_len(dir: &Path) -> Result<f64, String> {
    let mut newest = None;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") && newest.as_ref().is_none_or(|(n, _)| name > *n) {
            let len = entry.metadata().map_err(|e| e.to_string())?.len();
            newest = Some((name, len));
        }
    }
    newest
        .map(|(_, len)| len as f64)
        .ok_or_else(|| format!("no snapshot in {}", dir.display()))
}
