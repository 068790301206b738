//! Serde round-trips for the configuration and result types a deployment
//! would persist (configs in version control, results in run archives,
//! plant hot state in a live service's checkpoints).

use datacenter_sprinting::core::{
    step_cycle, ControllerConfig, FacilityHotState, FacilityState, Greedy, NullSink,
    PolicyHotState, SprintPolicy, StepInput, StepRecord, UpperBoundTable,
};
use datacenter_sprinting::faults::ActiveFaults;
use datacenter_sprinting::power::DataCenterSpec;
use datacenter_sprinting::sim::{run, Scenario};
use datacenter_sprinting::units::{Power, Ratio, Seconds};
use datacenter_sprinting::workload::{yahoo_trace, Trace};
use proptest::prelude::*;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn controller_config_round_trips() {
    let config = ControllerConfig::default();
    let back = round_trip(&config);
    assert_eq!(config, back);
}

#[test]
fn facility_spec_round_trips() {
    let spec = DataCenterSpec::paper_default().with_dc_headroom(Ratio::from_percent(15.0));
    let back = round_trip(&spec);
    assert_eq!(spec, back);
    assert_eq!(back.dc_rated(), spec.dc_rated());
}

#[test]
fn traces_round_trip() {
    let trace = yahoo_trace::with_burst(3, 3.2, Seconds::from_minutes(5.0));
    let back: Trace = round_trip(&trace);
    assert_eq!(trace, back);
}

#[test]
fn upper_bound_table_round_trips() {
    let table = UpperBoundTable::new(
        vec![5.0, 15.0],
        vec![2.0, 4.0],
        vec![
            Ratio::new(4.0),
            Ratio::new(3.5),
            Ratio::new(2.0),
            Ratio::new(2.5),
        ],
    )
    .unwrap();
    let back = round_trip(&table);
    assert_eq!(table, back);
    assert_eq!(
        back.lookup(Seconds::from_minutes(10.0), 3.0),
        table.lookup(Seconds::from_minutes(10.0), 3.0)
    );
}

#[test]
fn step_records_round_trip_through_a_run() {
    let scenario = Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 200),
        ControllerConfig::default(),
        yahoo_trace::with_burst(1, 2.5, Seconds::from_minutes(2.0)),
    );
    let result = run(&scenario, Box::new(datacenter_sprinting::core::Greedy));
    let records: Vec<StepRecord> = round_trip(&result.records);
    assert_eq!(records, result.records);
}

#[test]
fn quantities_round_trip_transparently() {
    // Quantities serialize as bare numbers (serde(transparent)).
    let p = Power::from_kilowatts(13.75);
    assert_eq!(serde_json::to_string(&p).unwrap(), "13750.0");
    assert_eq!(round_trip(&p), p);
}

/// Step `i` of a stream whose steps in `window` run under `derate`
/// (breaker factor, UPS strings online, TES capacity), so the fault
/// factors are part of the state a checkpoint must carry.
fn faulted_input(
    facility: &FacilityState<'_>,
    i: usize,
    demand: f64,
    window: std::ops::Range<usize>,
    derate: (f64, f64, f64),
) -> StepInput {
    let mut input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
    if window.contains(&i) {
        input.observation.active = ActiveFaults {
            breaker_factor: derate.0,
            ups_available_fraction: derate.1,
            tes_capacity_factor: derate.2,
            ..ActiveFaults::nominal()
        };
    }
    input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A checkpoint restore is invisible: export the plant and policy at a
    /// random step, pass both through JSON, import them into a plant
    /// rebuilt from the spec, and every later record is bit-identical to
    /// the uninterrupted run's.
    #[test]
    fn plant_hot_state_resumes_bit_identically(
        pdus in 1usize..40,
        servers in 5usize..120,
        headroom in 0.0..20.0f64,
        demands in prop::collection::vec(0.0..4.5f64, 20..160),
        start in 0usize..160,
        len in 0usize..60,
        derate in (0.6..=1.0f64, 0.3..=1.0f64, 0.3..=1.0f64),
        split in 0.0..1.0f64,
    ) {
        let spec = DataCenterSpec::paper_default()
            .with_scale(pdus, servers)
            .with_dc_headroom(Ratio::from_percent(headroom));
        let config = ControllerConfig::default();
        let window = start..start + len;
        let split = (split * demands.len() as f64) as usize;

        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        let mut reference = Vec::with_capacity(demands.len());
        let mut snapshot = None;
        for (i, &demand) in demands.iter().enumerate() {
            if i == split {
                snapshot = Some((
                    serde_json::to_string(&facility.export_hot_state()).unwrap(),
                    serde_json::to_string(&policy.export_hot_state()).unwrap(),
                ));
            }
            let input = faulted_input(&facility, i, demand, window.clone(), derate);
            reference.push(step_cycle(&mut facility, &mut policy, &input, &mut NullSink).record);
        }
        let end = facility.export_hot_state();

        let (facility_json, policy_json) = snapshot.expect("split is inside the stream");
        let mut resumed = FacilityState::new(&spec, &config);
        let mut resumed_policy = SprintPolicy::new(Box::new(Greedy), &spec);
        resumed.import_hot_state(serde_json::from_str::<FacilityHotState>(&facility_json).unwrap());
        resumed_policy.import_hot_state(serde_json::from_str::<PolicyHotState>(&policy_json).unwrap());
        for (i, &demand) in demands.iter().enumerate().skip(split) {
            let input = faulted_input(&resumed, i, demand, window.clone(), derate);
            let record = step_cycle(&mut resumed, &mut resumed_policy, &input, &mut NullSink).record;
            prop_assert_eq!(&record, &reference[i], "step {} diverged after restore", i);
        }
        prop_assert_eq!(resumed.export_hot_state(), end);
    }
}
