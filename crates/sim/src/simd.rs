//! Data-parallel primitives for the batched lane engine.
//!
//! Stable Rust (and an offline build with no SIMD crate vendored) rules
//! out `std::simd`, so the kernel here is a hand-rolled [`F64x4`] newtype
//! over `[f64; 4]`, aligned and shaped so the element-wise operations
//! compile to packed vector instructions wherever the target supports
//! them. Each batched lane carries one `F64x4` accumulator holding its
//! admission integrals `[served·dt, demand·dt, elapsed, pad]`; a live
//! step or a folded span updates all three integrals with one vector add.
//!
//! # Bit-identity contract
//!
//! The kernel exists to make the batch engine *faster*, never *different*:
//!
//! * [`record_delta`] reproduces `AdmissionLog::record`'s sanitize-and-min
//!   arithmetic exactly, including its invalid-sample double-count corner
//!   (a negative demand poisons both the demand and the min'ed capacity).
//! * [`fold_span_group`] computes each step's delta **once** and
//!   broadcast-adds it to every lane in the group, in step order. Per
//!   lane, the resulting accumulation is the same sequence of `+=`
//!   operations the scalar `SummaryFold::fold_span` performs — the shared
//!   work is hoisted, the float operations are not reassociated, so the
//!   result is bitwise identical to the scalar path (the equivalence
//!   suite asserts this).
//! * Elapsed time accumulates one `+= dt` per step, never the shortcut
//!   `+= n·dt`, which would round differently.
//!
//! Nothing in the module reassociates a floating-point sum: there is no
//! horizontal or chunked reduction, so every value it produces is bitwise
//! equal to the scalar accumulation it replaces.

use dcs_units::Seconds;

/// Four `f64` lanes, laid out for packed vector code.
///
/// The `align(32)` keeps a value inside one AVX register-width load; the
/// element-wise ops are plain loops the compiler unrolls and vectorizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes zero.
    pub const ZERO: F64x4 = F64x4([0.0; 4]);

    /// Builds a vector from four lane values.
    #[must_use]
    pub const fn new(a: f64, b: f64, c: f64, d: f64) -> F64x4 {
        F64x4([a, b, c, d])
    }

    /// Broadcasts one value to all four lanes.
    #[must_use]
    pub const fn splat(x: f64) -> F64x4 {
        F64x4([x; 4])
    }
}

impl std::ops::Add for F64x4 {
    type Output = F64x4;

    fn add(mut self, rhs: F64x4) -> F64x4 {
        self += rhs;
        self
    }
}

impl std::ops::AddAssign for F64x4 {
    fn add_assign(&mut self, rhs: F64x4) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
    }
}

/// One `AdmissionLog::record(demand, capacity, dt)` step, expressed as the
/// delta it adds to the log's accumulators: returns
/// `(served·dt, demand·dt, invalid_increment)`.
///
/// Mirrors the log's arithmetic exactly: sanitize demand first, then
/// capacity (each non-finite-or-negative value clamps to `0.0` and counts
/// one invalid sample), serve `min(demand, capacity)`, scale by
/// `dt.as_secs()`. Adding the returned deltas to a log's integrals in step
/// order reproduces the log's own accumulation bit-for-bit.
///
/// # Panics
///
/// Panics if `dt` is not strictly positive and finite, exactly as the log
/// itself would.
#[must_use]
pub fn record_delta(demand: f64, capacity: f64, dt: Seconds) -> (f64, f64, u64) {
    assert!(
        dt > Seconds::ZERO && !dt.is_never(),
        "time step must be positive and finite"
    );
    let mut invalid = 0u64;
    let mut sanitize = |x: f64| {
        if x.is_finite() && x >= 0.0 {
            x
        } else {
            invalid += 1;
            0.0
        }
    };
    let demand = sanitize(demand);
    let capacity = sanitize(capacity);
    let served = demand.min(capacity);
    (served * dt.as_secs(), demand * dt.as_secs(), invalid)
}

/// Folds a quiet span into a *group* of lane accumulators at once: each
/// step contributes `record(demand, min(demand, normal_capacity), dt)`,
/// i.e. the delta `[served·dt, demand·dt, dt, 0]` is computed once per
/// step and broadcast-added to every accumulator in the group.
///
/// Returns the per-lane invalid-sample increment for the span (identical
/// for every lane in the group, since the span is shared).
///
/// Per lane, the accumulation is bitwise identical to folding the span
/// with `SummaryFold::fold_span` — same deltas, same order, no
/// reassociation — while the demand sanitize/min/multiply work is shared
/// across the group instead of being repeated per lane.
///
/// # Panics
///
/// Panics on a non-positive or non-finite `dt` if the span is non-empty
/// (an empty span performs no record, exactly like the scalar fold).
pub fn fold_span_group(
    accs: &mut [F64x4],
    demands: &[f64],
    dt: Seconds,
    normal_capacity: f64,
) -> u64 {
    let dt_s = dt.as_secs();
    let mut invalid = 0u64;
    for &demand in demands {
        let (served_dt, demand_dt, inv) = record_delta(demand, demand.min(normal_capacity), dt);
        let delta = F64x4::new(served_dt, demand_dt, dt_s, 0.0);
        for acc in accs.iter_mut() {
            *acc += delta;
        }
        invalid += inv;
    }
    invalid
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_workload::AdmissionLog;

    /// Deterministic xorshift demand stream (no external RNG available).
    fn demands(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 10_000) as f64 / 3_000.0
            })
            .collect()
    }

    #[test]
    fn record_delta_matches_admission_log_bitwise() {
        let dt = Seconds::new(60.0);
        let cases = [
            (2.0, 1.5),
            (0.5, 1.5),
            (f64::NAN, 1.0),
            (-0.5, f64::INFINITY),
            (1.0, f64::NAN),
            (-1.0, -1.0),
            (0.0, 0.0),
        ];
        let mut log = AdmissionLog::new();
        let (mut s, mut d, mut e) = (0.0f64, 0.0f64, 0.0f64);
        let mut invalid = 0u64;
        for &(demand, capacity) in &cases {
            log.record(demand, capacity, dt);
            let (sd, dd, inv) = record_delta(demand, capacity, dt);
            s += sd;
            d += dd;
            e += dt.as_secs();
            invalid += inv;
        }
        assert_eq!(AdmissionLog::from_integrals(s, d, e, invalid), log);
    }

    #[test]
    fn fold_span_group_is_bitwise_per_lane() {
        let dt = Seconds::new(30.0);
        let cap = 1.25;
        let span = demands(0xBEEF, 257);
        // Three lanes with distinct starting accumulators.
        let seeds = [(0.0, 0.0, 0.0), (7.5, 9.0, 300.0), (1e-9, 2e-9, 30.0)];
        let mut accs: Vec<F64x4> = seeds
            .iter()
            .map(|&(s, d, e)| F64x4::new(s, d, e, 0.0))
            .collect();
        let invalid = fold_span_group(&mut accs, &span, dt, cap);
        assert_eq!(invalid, 0);
        for (&(s0, d0, e0), acc) in seeds.iter().zip(&accs) {
            // Scalar reference: the exact per-step accumulation.
            let (mut s, mut d, mut e) = (s0, d0, e0);
            for &demand in &span {
                let (sd, dd, _) = record_delta(demand, demand.min(cap), dt);
                s += sd;
                d += dd;
                e += dt.as_secs();
            }
            assert_eq!(acc.0[0].to_bits(), s.to_bits());
            assert_eq!(acc.0[1].to_bits(), d.to_bits());
            assert_eq!(acc.0[2].to_bits(), e.to_bits());
        }
    }

    #[test]
    fn fold_span_group_counts_invalid_like_the_log() {
        let dt = Seconds::new(10.0);
        let span = [1.0, f64::NAN, -0.25, 2.0];
        let mut accs = [F64x4::ZERO];
        let invalid = fold_span_group(&mut accs, &span, dt, 1.5);
        // NaN demand: min(NaN, cap) = cap (valid) → 1 invalid. Negative
        // demand: min stays negative → demand and capacity both count.
        let mut log = AdmissionLog::new();
        for &demand in &span {
            log.record(demand, demand.min(1.5), dt);
        }
        assert_eq!(invalid, log.invalid_samples());
        assert_eq!(invalid, 3);
    }

    #[test]
    fn empty_span_is_a_no_op_even_with_bad_dt() {
        let mut accs = [F64x4::splat(1.0)];
        let invalid = fold_span_group(&mut accs, &[], Seconds::ZERO, 1.0);
        assert_eq!(invalid, 0);
        assert_eq!(accs[0], F64x4::splat(1.0));
    }

    #[test]
    #[should_panic(expected = "time step must be positive and finite")]
    fn non_empty_span_rejects_bad_dt() {
        let mut accs = [F64x4::ZERO];
        let _ = fold_span_group(&mut accs, &[1.0], Seconds::ZERO, 1.0);
    }

    #[test]
    fn vector_ops_are_elementwise() {
        let a = F64x4::new(1.0, 2.0, 3.0, 4.0);
        let b = F64x4::splat(0.5);
        assert_eq!(a + b, F64x4::new(1.5, 2.5, 3.5, 4.5));
    }
}
