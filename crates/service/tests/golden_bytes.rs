//! Golden bytes: the exact JSON the service puts on the wire and on disk.
//!
//! Clients, checkpoint checksums and the benchmark digests all depend on
//! the encoder's output byte for byte, so these tests pin it. Small
//! values are pinned verbatim; large ones by length plus FNV-1a 64. The
//! last group pins one value per derive shape the vendored
//! `serde_derive` supports, plus the primitives with special spellings
//! (`null`, non-finite floats, `-0.0`, control characters).

use std::collections::BTreeMap;

use dcs_core::{
    step_cycle, ControllerConfig, FacilityState, Greedy, ServiceSink, SprintPolicy, StepInput,
    StepRecord,
};
use dcs_power::DataCenterSpec;
use dcs_service::{
    BreakerStatus, DegradedFlags, DrainStatus, ErrorBody, FacilityStatus, ServiceCounters,
    ServiceHotState, SprintStatus, StatusBody, StepResponse, TesStatus, UpsStatus,
    HOT_STATE_SCHEMA, STATUS_SCHEMA,
};
use dcs_sim::fnv1a64;
use dcs_units::Seconds;
use serde::Serialize;

fn compact<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("encode")
}

/// Asserts `text` has the pinned length and FNV-1a 64 digest.
fn assert_digest(what: &str, text: &str, len: usize, digest: u64) {
    assert_eq!(
        (text.len(), fnv1a64(text.as_bytes())),
        (len, digest),
        "{what} bytes drifted: {text}"
    );
}

/// A small fixed plant after 30 fixed decisions (a burst from step 10 to
/// 24), with the telemetry of step 15.
struct Plant {
    facility_status: FacilityStatus,
    sprint: SprintStatus,
    sink: ServiceSink,
    record: StepRecord,
    hot: ServiceHotState,
}

fn plant() -> Plant {
    let spec = DataCenterSpec::paper_default().with_scale(2, 20);
    let config = ControllerConfig::default();
    let mut facility = FacilityState::new(&spec, &config);
    let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
    let mut sink = ServiceSink::with_window(8);
    let mut record = None;
    for i in 0..30 {
        let demand = if (10..25).contains(&i) { 2.6 } else { 0.6 };
        let input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
        let effects = step_cycle(&mut facility, &mut policy, &input, &mut sink);
        if i == 15 {
            record = Some(effects.record);
        }
    }
    let topo = facility.topology();
    let breakers = std::iter::once(("dc".to_string(), topo.dc_breaker()))
        .chain(
            topo.pdu_breakers()
                .iter()
                .enumerate()
                .map(|(i, cb)| (format!("pdu-{i}"), cb)),
        )
        .map(|(name, cb)| BreakerStatus {
            name,
            trip_progress: cb.trip_progress(),
            tripped: cb.is_tripped(),
            rated_w: cb.rated().as_watts(),
            no_trip_limit_w: cb.no_trip_limit().as_watts(),
        })
        .collect();
    let ups = facility.ups().status();
    let facility_status = FacilityStatus {
        time_secs: facility.now().as_secs(),
        room_temperature_c: facility.room().temperature().as_celsius(),
        room_headroom_c: facility.room().headroom().as_celsius(),
        ups: UpsStatus {
            state_of_charge: ups.state_of_charge.as_f64(),
            deliverable_wh: ups.deliverable.as_watt_hours(),
            on_battery: ups.on_battery as u64,
        },
        tes: TesStatus {
            state_of_charge: facility.tes().state_of_charge().as_f64(),
            stored_wh: facility.tes().stored().as_watt_hours(),
        },
        breakers,
    };
    let sprint = SprintStatus {
        strategy: policy.strategy_name().to_string(),
        active: policy.sprint_active(),
        terminated: policy.export_hot_state().terminated,
    };
    let hot = ServiceHotState {
        schema: HOT_STATE_SCHEMA.to_string(),
        decisions: 30,
        facility: facility.export_hot_state(),
        policy: policy.export_hot_state(),
    };
    Plant {
        facility_status,
        sprint,
        sink,
        record: record.expect("step 15 ran"),
        hot,
    }
}

#[test]
fn status_body_bytes() {
    let plant = plant();
    let body = StatusBody {
        schema: STATUS_SCHEMA.to_string(),
        mode: "serving".to_string(),
        uptime_ms: 12_345,
        decisions: 30,
        degraded: DegradedFlags {
            stale_feed: false,
            engine_overrun: true,
        },
        counters: ServiceCounters {
            served: 30,
            timeouts: 1,
            backpressure: 2,
            degraded_served: 3,
            reloads: 4,
            reloads_rejected: 5,
            connections_accepted: 6,
            connections_rejected: 7,
            parse_rejects: 8,
            replays_served: 9,
        },
        drain: DrainStatus {
            draining: false,
            since_ms: None,
            deadline_ms: 5_000,
            connections_active: 1,
            requests_in_flight: 0,
        },
        config_generation: 2,
        last_reload_error: Some("config: \"pdus\" must be > 0".to_string()),
        facility: plant.facility_status,
        sprint: plant.sprint,
        window: plant.sink.window(),
    };
    assert_digest("StatusBody", &compact(&body), 1373, 0x3c17_8938_76d6_9ee9);
}

#[test]
fn step_response_bytes() {
    let plant = plant();
    let served = StepResponse {
        degraded: false,
        degraded_reason: None,
        record: Some(plant.record),
        failsafe_cores: None,
        decision_index: Some(15),
        replayed: false,
    };
    assert_eq!(
        compact(&served),
        r#"{"degraded":false,"degraded_reason":null,"record":{"time":15.0,"demand":2.6,"#
            .to_owned()
            + r#""served":2.6,"cores":43,"degree":3.5833333333333335,"upper_bound":4.0,"#
            + r#""it_power":5292.659059423742,"cooling_power":1166.0,"#
            + r#""ups_power":1058.5318118847485,"tes_heat":0.0,"#
            + r#""cb_extra_power":2034.1272475389942,"phase":"Ups","#
            + r#""temperature":25.164004647090657,"sprinting":true,"tripped":false,"#
            + r#""overheated":false,"fault_active":false,"shed_reason":null},"#
            + r#""failsafe_cores":null,"decision_index":15,"replayed":false}"#
    );
    let failsafe = StepResponse {
        degraded: true,
        degraded_reason: Some("stale_feed".to_string()),
        record: None,
        failsafe_cores: Some(8),
        decision_index: None,
        replayed: true,
    };
    assert_eq!(
        compact(&failsafe),
        r#"{"degraded":true,"degraded_reason":"stale_feed","record":null,"#.to_owned()
            + r#""failsafe_cores":8,"decision_index":null,"replayed":true}"#
    );
}

#[test]
fn error_body_bytes() {
    let mut body = ErrorBody::new("deadline_exceeded", "late \"step\"\tafter\u{1}x");
    body.error.deadline_ms = Some(250);
    assert_eq!(
        body.to_json(),
        r#"{"error":{"kind":"deadline_exceeded","#.to_owned()
            + r#""message":"late \"step\"\tafter\u0001x","deadline_ms":250,"queue_depth":null}}"#
    );
    assert_eq!(compact(&body), body.to_json());
}

#[test]
fn hot_state_bytes() {
    let plant = plant();
    assert_digest(
        "ServiceHotState",
        &compact(&plant.hot),
        1725,
        0x74d1_404f_6139_3a2a,
    );
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    sections: Vec<Section>,
    empty: Vec<u64>,
    totals: BTreeMap<String, f64>,
    note: Option<String>,
}

#[derive(Serialize)]
struct Section {
    name: String,
    time_ms: f64,
    runs: u64,
    lanes: Option<(u64, u64)>,
}

#[test]
fn pretty_report_bytes() {
    let report = Report {
        schema: "golden/report-v1",
        sections: vec![
            Section {
                name: "run".to_string(),
                time_ms: 12.5,
                runs: 3,
                lanes: Some((40, 2)),
            },
            Section {
                name: "table".to_string(),
                time_ms: 1e-7,
                runs: 0,
                lanes: None,
            },
        ],
        empty: Vec::new(),
        totals: [("a".to_string(), 2.0), ("b\n".to_string(), -0.25)]
            .into_iter()
            .collect(),
        note: None,
    };
    assert_eq!(
        serde_json::to_string_pretty(&report).expect("encode"),
        r#"{
  "schema": "golden/report-v1",
  "sections": [
    {
      "name": "run",
      "time_ms": 12.5,
      "runs": 3,
      "lanes": [
        40,
        2
      ]
    },
    {
      "name": "table",
      "time_ms": 1e-7,
      "runs": 0,
      "lanes": null
    }
  ],
  "empty": [],
  "totals": {
    "a": 2.0,
    "b\n": -0.25
  },
  "note": null
}"#
    );
}

#[derive(Serialize)]
struct Skipping {
    kept: u64,
    #[serde(skip)]
    cache: Vec<u64>,
    label: String,
}

#[derive(Serialize)]
struct AllSkipped {
    #[serde(skip)]
    cache: u64,
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
#[serde(transparent)]
struct Watts(f64);

#[derive(Serialize)]
#[serde(transparent)]
struct Label {
    text: String,
}

#[derive(Serialize)]
struct Triple(u32, f64, String);

#[derive(Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Event {
    Idle,
    BreakerTrip { pdu: u32, load_w: f64 },
}

#[derive(Serialize)]
enum External {
    Unit,
    Named { a: i32, b: Option<f64> },
    Pair(u8, i64),
    Newtype(Watts),
}

#[derive(Serialize)]
struct Edges {
    none: Option<u64>,
    nan: f64,
    inf: f64,
    neg_inf: f64,
    neg_zero: f64,
    narrow: f32,
    text: String,
    letter: char,
    extremes: (i64, u64, i8),
    fixed: [u16; 3],
}

#[test]
fn derive_shape_bytes() {
    let skipping = Skipping {
        kept: 7,
        cache: vec![1, 2, 3],
        label: "x".to_string(),
    };
    assert_eq!(skipping.cache.len(), 3);
    assert_eq!(compact(&skipping), r#"{"kept":7,"label":"x"}"#);
    let all_skipped = AllSkipped { cache: 1 };
    assert_eq!(all_skipped.cache, 1);
    assert_eq!(compact(&all_skipped), "{}");
    assert_eq!(compact(&Unit), "null");
    assert_eq!(compact(&Watts(1500.0)), "1500.0");
    assert_eq!(
        compact(&Label {
            text: "pdu-3".to_string()
        }),
        r#""pdu-3""#
    );
    assert_eq!(compact(&Triple(4, 0.1, "t".to_string())), r#"[4,0.1,"t"]"#);
    assert_eq!(
        compact(&vec![
            Event::Idle,
            Event::BreakerTrip {
                pdu: 2,
                load_w: 13750.0
            }
        ]),
        r#"[{"kind":"idle"},{"kind":"breaker_trip","pdu":2,"load_w":13750.0}]"#
    );
    assert_eq!(
        compact(&vec![
            External::Unit,
            External::Named { a: -3, b: None },
            External::Pair(255, -9),
            External::Newtype(Watts(-1.5)),
        ]),
        r#"["Unit",{"Named":{"a":-3,"b":null}},{"Pair":[255,-9]},{"Newtype":-1.5}]"#
    );
    let edges = Edges {
        none: None,
        nan: f64::NAN,
        inf: f64::INFINITY,
        neg_inf: f64::NEG_INFINITY,
        neg_zero: -0.0,
        narrow: 0.1,
        text: "tab\tquote\"slash\\nul\u{0}bell\u{7}del\u{7f}é".to_string(),
        letter: '\n',
        extremes: (i64::MIN, u64::MAX, -128),
        fixed: [0, 1, 65_535],
    };
    assert_eq!(
        compact(&edges),
        r#"{"none":null,"nan":NaN,"inf":Infinity,"neg_inf":-Infinity,"neg_zero":-0.0,"#.to_owned()
            + r#""narrow":0.10000000149011612,"#
            + r#""text":"tab\tquote\"slash\\nul\u0000bell\u0007del"#
            + "\u{7f}é\","
            + r#""letter":"\n","#
            + r#""extremes":[-9223372036854775808,18446744073709551615,-128],"fixed":[0,1,65535]}"#
    );
}
