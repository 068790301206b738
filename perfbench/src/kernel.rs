//! The kernel beat split: one facility driven beat by beat —
//! prepare, decide, advance, finish, record, in `step_cycle`'s order —
//! beside a twin driven by `dcs_core::step_cycle` itself. Every step's
//! effects must match the twin's bit for bit before any beat time is
//! reported.

use std::hint::black_box;
use std::time::Instant;

use dcs_core::{
    step_cycle, ControllerConfig, FacilityState, Greedy, SprintPolicy, StepEffects, StepInput,
    StepPolicy, StepRecord, StepSink, StepState,
};
use dcs_power::DataCenterSpec;
use dcs_sim::fingerprint_of;
use dcs_units::Seconds;

/// Beat names, in `step_cycle`'s order.
pub const BEATS: [&str; 5] = ["prepare", "decide", "advance", "finish", "record"];

/// What the beat split measured.
#[derive(Debug, Clone, Default)]
pub struct BeatSplit {
    /// Mean ns per step of each beat, timer cost removed.
    pub beat_ns: [f64; 5],
    /// Steps driven.
    pub steps: u64,
    /// Per-step ns of the twin's whole `step_cycle` call.
    pub cycle_ns: Vec<f64>,
    /// The records the hand-driven facility produced, in step order.
    pub records: Vec<StepRecord>,
}

/// Exact identity of one step's effects: the record's serialized form
/// (shortest round-trip floats, so equal text means equal bits) plus the
/// side outputs policies latch on.
fn effects_key(e: &StepEffects) -> (u64, usize, u64, u64) {
    (
        fingerprint_of(&e.record),
        e.trips.len(),
        e.cb_above_rated.as_watts().to_bits(),
        e.tes_savings.as_watts().to_bits(),
    )
}

/// Cost of one `Instant::now()` read (the gap between two back-to-back
/// reads), subtracted from every timed beat.
fn timer_cost_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Drives a Greedy-policy facility over `demands` (one nominal step of
/// `dt` each) beat by beat with sink `K`, beside a `step_cycle` twin.
///
/// # Errors
///
/// Names the first step whose effects differ from the twin's.
pub fn beat_split<K: for<'a> StepSink<FacilityState<'a>>>(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    demands: &[f64],
    dt: Seconds,
    mut sinks: impl FnMut() -> K,
) -> Result<BeatSplit, String> {
    let timer = timer_cost_ns();
    let mut state = FacilityState::new(spec, config);
    let mut policy = SprintPolicy::new(Box::new(Greedy), spec);
    let mut sink = sinks();
    let mut twin_state = FacilityState::new(spec, config);
    let mut twin_policy = SprintPolicy::new(Box::new(Greedy), spec);
    let mut twin_sink = sinks();

    let mut total = [0u128; 5];
    let mut out = BeatSplit {
        cycle_ns: Vec::with_capacity(demands.len()),
        records: Vec::with_capacity(demands.len()),
        ..BeatSplit::default()
    };
    for (i, &demand) in demands.iter().enumerate() {
        let input = StepInput::nominal(state.now(), demand, dt);
        let t0 = Instant::now();
        state.prepare(&input);
        let t1 = Instant::now();
        let decision = policy.decide(&state, &input);
        let t2 = Instant::now();
        let mut effects = state.advance(&input, &decision);
        let t3 = Instant::now();
        policy.finish(&state, &input, &decision, &mut effects);
        let t4 = Instant::now();
        sink.record(&input, &effects);
        let t5 = Instant::now();
        for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)]
            .into_iter()
            .enumerate()
        {
            total[k] += b.duration_since(a).as_nanos();
        }

        let twin_input = StepInput::nominal(twin_state.now(), demand, dt);
        let c0 = Instant::now();
        let twin = step_cycle(
            &mut twin_state,
            &mut twin_policy,
            black_box(&twin_input),
            &mut twin_sink,
        );
        out.cycle_ns.push(c0.elapsed().as_nanos() as f64 - timer);
        if input != twin_input || effects_key(&effects) != effects_key(&twin) || effects != twin {
            return Err(format!(
                "kernel beat split diverged from step_cycle at step {i}"
            ));
        }
        out.records.push(effects.record);
    }
    out.steps = demands.len() as u64;
    let steps = out.steps.max(1) as f64;
    for (k, t) in total.iter().enumerate() {
        // Each beat sits between two timer reads: subtract one read's cost.
        out.beat_ns[k] = (*t as f64 / steps - timer).max(0.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::NullSink;

    #[test]
    fn beat_split_matches_step_cycle_through_a_burst() {
        let spec = DataCenterSpec::paper_default().with_scale(2, 20);
        let config = ControllerConfig::default();
        let demands: Vec<f64> = (0..400)
            .map(|i| if (100..300).contains(&i) { 3.0 } else { 0.7 })
            .collect();
        let split = beat_split(&spec, &config, &demands, Seconds::new(1.0), || NullSink)
            .expect("bit-identical");
        assert_eq!(split.steps, 400);
        assert_eq!(split.records.len(), 400);
        assert!(
            split.records.iter().any(|r| r.sprinting),
            "the burst sprinted"
        );
    }
}
