//! The timing harness: one run, one schema (`dcs-bench/bench-v1`).
//!
//! ```text
//! cargo run --release -p dcs-bench --bin bench > report.json
//! ```
//!
//! The binary takes no arguments. It writes the report as JSON to
//! stdout and its progress to stderr, and exits non-zero unless every
//! check below holds. It has four sections:
//!
//! - **sim**: run/oracle/table on the canonical 4×200 plant, batched and
//!   unbatched, pruned and exhaustive, plain and supervised, plus the
//!   grouped-vs-scalar span fold. Every batched result must equal its
//!   independent per-lane runs, pruned must equal exhaustive, lean must
//!   equal full, the supervised and kill/resume tables must equal the
//!   plain one, and supervision may cost at most
//!   [`SUPERVISED_OVERHEAD_BUDGET`] over the plain build.
//! - **hyperscale**: the same paths on ~1M cores, with the table build
//!   swept across worker budgets; the results must not depend on the
//!   budget.
//! - **service**: the bare decision engine (≥ [`ENGINE_RATE_FLOOR`]/s,
//!   p99 under [`ENGINE_P99_CEILING_US`] µs), one keep-alive HTTP
//!   connection, and many pipelining clients (≥ [`MULTI_RATE_FLOOR`]
//!   req/s aggregate), with zero 5xx anywhere.
//! - **chaos**: decisions through the seeded fault proxy; every surfaced
//!   error must be typed and the plant must advance exactly once per
//!   decision.
//!
//! Timings are best-of-N wall clock ([`time_ms`]). The report is
//! serialized, parsed back, and the gates are checked on the parsed copy,
//! so what stdout carries is what passed.

mod service;
mod sim;

use std::time::Instant;

use serde::{Deserialize, Serialize};

use service::{ChaosSection, ServiceReport};
use sim::{HyperscaleReport, SimReport};

/// The report's schema tag.
const SCHEMA: &str = "dcs-bench/bench-v1";
/// Largest fractional cost of the supervised, checkpointed table build
/// over the plain batched build.
const SUPERVISED_OVERHEAD_BUDGET: f64 = 0.05;
/// Floor on bare engine decisions per second.
const ENGINE_RATE_FLOOR: f64 = 50_000.0;
/// Ceiling on bare engine p99 decision latency, in microseconds.
const ENGINE_P99_CEILING_US: f64 = 1_000.0;
/// Floor on aggregate pipelined HTTP requests per second.
const MULTI_RATE_FLOOR: f64 = 25_000.0;

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Report {
    schema: String,
    sim: SimReport,
    hyperscale: HyperscaleReport,
    service: ServiceReport,
    chaos: ChaosSection,
}

/// Latency percentiles over one section's per-operation samples.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Latency {
    /// Median, in microseconds.
    pub p50_us: f64,
    /// 99th percentile, in microseconds.
    pub p99_us: f64,
    /// Slowest sample, in microseconds.
    pub max_us: f64,
}

impl Latency {
    /// Nearest-rank percentiles of a non-empty sample set.
    pub fn from_samples(mut samples_us: Vec<f64>) -> Latency {
        samples_us.sort_by(f64::total_cmp);
        let pick = |q: f64| samples_us[((samples_us.len() as f64 - 1.0) * q).round() as usize];
        Latency {
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            max_us: pick(1.0),
        }
    }
}

/// Runs `op` `iters` times and returns the best wall-clock milliseconds
/// with the last run's output. Earlier outputs are dropped outside the
/// timed region.
pub fn time_ms<T>(iters: u32, mut op: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let start = Instant::now();
        let out = op();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("at least one iteration"))
}

/// Every gate the report must pass; returns one message per failure.
fn validate(r: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(r.schema == SCHEMA, format!("schema is {:?}", r.schema));

    let (s, h) = (&r.sim, &r.hyperscale);
    check(
        s.batched_equals_independent && h.batched_equals_independent,
        "batched results diverged from independent runs".into(),
    );
    check(
        s.kill_resume_reproduces_table,
        "kill/resume did not reproduce the table".into(),
    );
    check(
        s.supervised_table_overhead <= SUPERVISED_OVERHEAD_BUDGET,
        format!(
            "supervised table build costs {:.1}% over the plain build \
             ({:.3} ms vs {:.3} ms); budget is {:.0}%",
            s.supervised_table_overhead * 100.0,
            s.table_pruned_supervised.time_ms,
            s.table_pruned.time_ms,
            SUPERVISED_OVERHEAD_BUDGET * 100.0
        ),
    );
    let sections = [
        ("sim.run_full", &s.run_full),
        ("sim.run_lean", &s.run_lean),
        ("sim.oracle_exhaustive", &s.oracle_exhaustive),
        ("sim.oracle_pruned", &s.oracle_pruned),
        ("sim.oracle_pruned_unbatched", &s.oracle_pruned_unbatched),
        ("sim.table_exhaustive", &s.table_exhaustive),
        ("sim.table_pruned", &s.table_pruned),
        ("sim.table_pruned_unbatched", &s.table_pruned_unbatched),
        ("sim.table_pruned_supervised", &s.table_pruned_supervised),
        ("hyperscale.run_lean", &h.run_lean),
        ("hyperscale.oracle_pruned", &h.oracle_pruned),
        ("hyperscale.table_pruned", &h.table_pruned),
    ];
    let mut batched = 0;
    for (name, section) in sections {
        check(
            section.time_ms.is_finite() && section.time_ms > 0.0,
            format!("{name} has no valid timing"),
        );
        check(section.sim_runs > 0, format!("{name} has no work count"));
        if let Some(lanes) = &section.lane_steps {
            check(
                lanes.live > 0 && lanes.unique_lanes > 0,
                format!("{name} went through the batched engine but reports no lane steps"),
            );
            batched += 1;
        }
    }
    check(
        batched >= 7,
        format!("only {batched} sections report lane steps"),
    );
    let fold = &s.fold_span;
    check(
        fold.lanes == 66 && fold.grouped_ms > 0.0 && fold.scalar_ms > 0.0,
        format!("span fold pair is incomplete: {fold:?}"),
    );

    check(
        h.thread_count_invariant,
        "hyperscale table diverged across worker budgets".into(),
    );
    check(
        h.pdus >= 1_000 && h.total_cores >= 250_000,
        format!("hyperscale is {} PDUs / {} cores", h.pdus, h.total_cores),
    );
    check(
        h.thread_scaling.len() >= 2
            && h.thread_scaling.iter().all(|p| p.table_ms > 0.0)
            && h.parallel_efficiency.is_finite()
            && h.parallel_efficiency > 0.0,
        "hyperscale worker sweep is incomplete".into(),
    );

    let (e, http, m) = (&r.service.engine, &r.service.http, &r.service.http_multi);
    check(
        e.decisions >= 100_000 && e.rate_per_sec >= ENGINE_RATE_FLOOR,
        format!(
            "engine ran {} decisions at {:.0}/s; floor is {ENGINE_RATE_FLOOR:.0}/s",
            e.decisions, e.rate_per_sec
        ),
    );
    check(
        e.latency.p99_us < ENGINE_P99_CEILING_US,
        format!(
            "engine p99 {:.1} us is not under {ENGINE_P99_CEILING_US:.0} us",
            e.latency.p99_us
        ),
    );
    check(
        http.requests >= 1_000 && http.rate_per_sec > 100.0,
        format!(
            "http ran {} requests at {:.0}/s",
            http.requests, http.rate_per_sec
        ),
    );
    check(
        http.responses_5xx == 0 && m.responses_5xx == 0,
        format!(
            "5xx under clean load: {} single-connection, {} pipelined",
            http.responses_5xx, m.responses_5xx
        ),
    );
    check(
        m.clients >= 4 && m.pipeline_depth >= 8 && m.requests >= 10_000,
        format!(
            "http_multi ran {} clients at depth {} for {} requests",
            m.clients, m.pipeline_depth, m.requests
        ),
    );
    check(
        m.aggregate_rate_per_sec >= MULTI_RATE_FLOOR,
        format!(
            "aggregate rate {:.0}/s is below the {MULTI_RATE_FLOOR:.0}/s floor",
            m.aggregate_rate_per_sec
        ),
    );

    let c = &r.chaos;
    check(
        c.decisions >= 1_000 && c.faults() > 0 && c.client_retries > 0,
        format!(
            "chaos ran {} decisions with {} faults and {} retries",
            c.decisions,
            c.faults(),
            c.client_retries
        ),
    );
    check(
        c.untyped_errors == 0,
        format!("{} untyped errors under chaos", c.untyped_errors),
    );
    check(
        c.plant_decisions == c.decisions,
        format!(
            "chaos advanced the plant {} times for {} decisions",
            c.plant_decisions, c.decisions
        ),
    );
    failures
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("usage: bench (takes no arguments; unexpected `{arg}`)");
        std::process::exit(2);
    }

    let scratch = sim::fresh_scratch();
    let sim = sim::sim_section(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let report = Report {
        schema: SCHEMA.to_owned(),
        sim,
        hyperscale: sim::hyperscale_section(),
        service: service::service_section(),
        chaos: service::chaos_section(),
    };

    let json = serde_json::to_string_pretty(&report).expect("the report serializes");
    let parsed: Report = serde_json::from_str(&json).expect("the report parses back");
    let failures = validate(&parsed);
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("bench: FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!("{json}");

    let (s, h, e, m) = (
        &parsed.sim,
        &parsed.hyperscale,
        &parsed.service.engine,
        &parsed.service.http_multi,
    );
    eprintln!(
        "bench: OK: table {:.1} ms ({:.1}x vs unbatched, supervised {:+.1}%), \
         hyperscale {:.2}M cores table {:.1} ms, engine {:.0}/s (p99 {:.1} us), \
         multi {:.0}/s aggregate, chaos {} faults / {} retries, exactly once",
        s.table_pruned.time_ms,
        s.table_pruned_unbatched.time_ms / s.table_pruned.time_ms,
        s.supervised_table_overhead * 100.0,
        h.total_cores as f64 / 1e6,
        h.table_pruned.time_ms,
        e.rate_per_sec,
        e.latency.p99_us,
        m.aggregate_rate_per_sec,
        parsed.chaos.faults(),
        parsed.chaos.client_retries,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{LaneSteps, ThreadPoint};

    #[test]
    fn report_round_trips_and_an_empty_one_fails_validation() {
        let mut report = Report {
            schema: SCHEMA.to_owned(),
            ..Report::default()
        };
        report.sim.table_pruned.time_ms = 32.625_1;
        report.sim.table_pruned.lane_steps = Some(LaneSteps {
            lanes: 66,
            unique_lanes: 12,
            live: 21_600,
            folded: 97_200,
        });
        report.hyperscale.thread_scaling = vec![ThreadPoint {
            workers: 2,
            table_ms: 0.1 + 0.2,
        }];
        report.service.engine.latency = Latency::from_samples(vec![0.3, 1.0 / 3.0, 7.0]);
        report.chaos.injected_stalls = 3;

        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        assert!(!validate(&parsed).is_empty());
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let latency = Latency::from_samples((1..=100).map(f64::from).collect());
        assert!(latency.p50_us <= latency.p99_us);
        assert!(latency.p99_us <= latency.max_us);
        assert_eq!(latency.max_us, 100.0);
    }
}
